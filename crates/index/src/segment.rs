//! On-disk segment layout **v4**: compressed, zero-copy, mmap-able — and
//! the only representation of a built index.
//!
//! A v4 segment is the binary payload inside the usual durable frame
//! (`ajax_crawl::durable`): the frame supplies atomic commit, the CRC and the
//! end-of-file marker; this module defines what the payload bytes mean.
//! [`SegmentWriter`] produces those bytes straight from sorted per-term runs
//! (the builder and the segment merge both feed it), and every
//! `InvertedIndex` reads them in place — from a heap buffer right after a
//! build, from an mmap after `load_index`. `save_index` writes the bytes
//! unchanged.
//!
//! ```text
//! header (32 B):  magic "AJAXSEG4" | n_terms u32 | n_postings u32
//!                 | n_pages u32 | dict_block u32 | total_states u64
//! section table:  8 × (offset u64, len u64)       — offsets from payload[0]
//! S0 term_offsets   (n_terms+1) × u32 LE  posting-index bounds per term
//! S1 run_offsets    (n_terms+1) × u32 LE  byte bounds of each run in S4
//! S2 dict_blocks    (blocks+1)  × u32 LE  byte bounds of each block in S3
//! S3 dict_data      front-coded term strings (blocks of `dict_block`)
//! S4 postings       per posting: varint page Δ, state, fused count/pos-len
//! S5 term_pos       (n_terms+1) × u32 LE  byte bounds per term run in S6
//! S6 pos_stream     per posting: varint first position, then varint deltas
//! S7 pages          url / pagerank / ajaxrank / state_lengths, binary
//! ```
//!
//! Design rules:
//!
//! * **Fixed-width columns stay addressable in place.** `term_offsets`,
//!   `run_offsets`, `term_pos` and the dict block table are plain
//!   little-endian `u32` arrays read per-element with [`u32_at`] — never
//!   sliced to `&[u32]`, because the payload follows a variable-length frame
//!   header and has no alignment guarantee.
//! * **Variable-width data is delta+varint (LEB128).** A posting record is
//!   `page_delta, state, g[, extra]` varints: the run's first record stores
//!   page and state absolute; later records store the page delta, and a zero
//!   page delta switches `state` to a (strictly positive) delta from the
//!   previous state. Splitting the doc key this way keeps a page change at
//!   1–2 bytes, where a delta of the packed `(page << 32) | state` key costs
//!   five or more. The fused tail `g = (count-1) << 1 | (extra > 0)` carries
//!   the term frequency and, with the optional `extra = pos_len - count`
//!   varint, the byte length of the posting's position slice in S6
//!   (`pos_len`, which is at least one byte per position). Decoding a run
//!   therefore yields per-posting position bounds for free (accumulate
//!   within the term's S5 window) without a 4-byte-per-posting offset
//!   column, and the common posting — one occurrence at a sub-128 position —
//!   pays a single byte for both fields. Positions are
//!   first-absolute-then-delta per posting, so a posting's position bytes do
//!   not depend on where it sits: the merge copies them verbatim.
//! * **The dictionary is front-coded** (`dict.rs`) in blocks of
//!   `DICT_BLOCK` terms. Lookups run against the segment bytes — no
//!   `Vec<String>` is ever built.
//! * **Decoding is lazy.** Opening a segment decodes only S7 (page metadata);
//!   doc/count runs are decoded per query into a caller scratch, and
//!   positions only inside the proximity scan via
//!   `PostingList::for_each_position`.
//!
//! Corruption safety: the durable frame's CRC32 covers the whole payload and
//! is verified before [`open`] runs. [`open`] then checks the header, the
//! section bounds, the fixed-width columns (lengths, sentinels,
//! monotonicity), every dictionary block (front coding and UTF-8) and the
//! page table. It does **not** walk S4 or S6: posting records and positions
//! are trusted once the CRC passes, so a payload edited to keep a valid CRC
//! can still fail at query time (a page or state out of range, a varint
//! running past its run).

use crate::dict::{DictWriter, TermDict, TermId, DICT_BLOCK};
use crate::invert::{check_fits, DocKey, IndexBuildError, InvertedIndex, PageEntry, TermScratch};
use crate::persist::{INDEX_FORMAT_VERSION, INDEX_MAGIC};
use ajax_crawl::durable::MappedFrame;
use ajax_crawl::model::StateId;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// First eight payload bytes of every v4 segment.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"AJAXSEG4";

const HEADER_LEN: usize = 32;
const SECTION_COUNT: usize = 8;
const PREFIX_LEN: usize = HEADER_LEN + SECTION_COUNT * 16;

// ---------------------------------------------------------------- primitives

/// The `idx`-th little-endian `u32` of an (unaligned) byte column.
#[inline]
pub(crate) fn u32_at(bytes: &[u8], idx: usize) -> u32 {
    let o = idx * 4;
    u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]])
}

/// Appends `v` as LEB128.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 value at `*cursor`, advancing it. The caller guarantees
/// the bytes are well-formed (CRC-verified segment data). The one-byte case
/// — most page deltas, states, counts and positions — stays inline; longer
/// values take the out-of-line loop.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], cursor: &mut usize) -> u64 {
    let b = bytes[*cursor];
    *cursor += 1;
    if b < 0x80 {
        u64::from(b)
    } else {
        read_varint_tail(bytes, cursor, b)
    }
}

#[inline(never)]
fn read_varint_tail(bytes: &[u8], cursor: &mut usize, first: u8) -> u64 {
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7u32;
    loop {
        let b = bytes[*cursor];
        *cursor += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Encodes one posting's ascending positions as S6 bytes into `out`
/// (cleared first): the first position absolute, then deltas.
pub(crate) fn encode_positions(positions: &[u32], out: &mut Vec<u8>) {
    out.clear();
    let mut prev = 0u32;
    for (j, &p) in positions.iter().enumerate() {
        write_varint(out, u64::from(if j == 0 { p } else { p - prev }));
        prev = p;
    }
}

// -------------------------------------------------------------------- writer

/// The doc every run is delta-coded from: starting at (0, 0) makes a run's
/// absolute first record an ordinary delta record.
const RUN_START: DocKey = DocKey {
    page: 0,
    state: StateId(0),
};

/// Streams sorted per-term posting runs into a v4 payload. Terms must
/// arrive in sorted order and each run's docs in ascending order; the
/// output is canonical, so equal content always yields equal bytes.
///
/// Offsets are narrowed to `u32` as they are written and every column is
/// checked against the offset limit once, in [`SegmentWriter::finish`]: an
/// offset never exceeds its column's final length, so a column that fits
/// never wrapped.
pub(crate) struct SegmentWriter {
    limit: u64,
    dict: DictWriter,
    n_postings: u64,
    /// S0, S1, S5: one little-endian `u32` per term start, then the end
    /// sentinel.
    term_offsets: Vec<u8>,
    run_offsets: Vec<u8>,
    term_pos: Vec<u8>,
    /// S4 and S6.
    postings: Vec<u8>,
    pos_stream: Vec<u8>,
    /// The previous doc of the current run ([`RUN_START`] at a run start).
    prev: DocKey,
}

impl SegmentWriter {
    /// A writer whose columns may hold at most `limit` entries or bytes
    /// (`u32::MAX` in production; tests inject small limits).
    pub(crate) fn new(limit: u64) -> Self {
        Self {
            limit,
            dict: DictWriter::default(),
            n_postings: 0,
            term_offsets: Vec::new(),
            run_offsets: Vec::new(),
            term_pos: Vec::new(),
            postings: Vec::new(),
            pos_stream: Vec::new(),
            prev: RUN_START,
        }
    }

    fn push_offsets(&mut self) {
        self.term_offsets
            .extend_from_slice(&(self.n_postings as u32).to_le_bytes());
        self.run_offsets
            .extend_from_slice(&(self.postings.len() as u32).to_le_bytes());
        self.term_pos
            .extend_from_slice(&(self.pos_stream.len() as u32).to_le_bytes());
    }

    /// Starts the next term's run.
    pub(crate) fn begin_term(&mut self, term: &[u8]) {
        self.dict.push(term);
        self.push_offsets();
        self.prev = RUN_START;
    }

    /// Appends one posting to the current run: `count` occurrences whose
    /// positions are `pos_bytes` (as [`encode_positions`] writes them).
    pub(crate) fn push_posting(&mut self, doc: DocKey, count: u32, pos_bytes: &[u8]) {
        let out = &mut self.postings;
        let prev = self.prev;
        debug_assert!(prev <= doc, "run docs must ascend");
        let page_delta = doc.page - prev.page;
        write_varint(out, u64::from(page_delta));
        if page_delta == 0 {
            write_varint(out, u64::from(doc.state.0 - prev.state.0));
        } else {
            write_varint(out, u64::from(doc.state.0));
        }
        let extra = pos_bytes.len() as u64 - u64::from(count);
        write_varint(out, (u64::from(count) - 1) << 1 | u64::from(extra > 0));
        if extra > 0 {
            write_varint(out, extra);
        }
        self.pos_stream.extend_from_slice(pos_bytes);
        self.n_postings += 1;
        self.prev = doc;
    }

    /// Lays out header, section table and sections, and returns the index
    /// reading them from a heap buffer. Fails with a typed error if any
    /// column outgrew the offset limit.
    pub(crate) fn finish(
        mut self,
        pages: Vec<PageEntry>,
        total_states: u64,
    ) -> Result<InvertedIndex, IndexBuildError> {
        let limit = self.limit;
        check_fits("postings", self.n_postings, limit)?;
        check_fits("pages", pages.len() as u64, limit)?;
        check_fits("postings_stream", self.postings.len() as u64, limit)?;
        check_fits("position_stream", self.pos_stream.len() as u64, limit)?;
        check_fits("dict_data", self.dict.data.len() as u64, limit)?;
        self.push_offsets();
        self.dict.finish();
        let n_terms = self.term_offsets.len() / 4 - 1;

        let mut pages_bytes = Vec::new();
        for p in &pages {
            write_varint(&mut pages_bytes, p.url.len() as u64);
            pages_bytes.extend_from_slice(p.url.as_bytes());
            pages_bytes.extend_from_slice(&p.pagerank.to_le_bytes());
            write_varint(&mut pages_bytes, p.ajaxrank.len() as u64);
            for &a in &p.ajaxrank {
                pages_bytes.extend_from_slice(&a.to_le_bytes());
            }
            write_varint(&mut pages_bytes, p.state_lengths.len() as u64);
            for &l in &p.state_lengths {
                write_varint(&mut pages_bytes, u64::from(l));
            }
        }

        let sections: [&[u8]; SECTION_COUNT] = [
            &self.term_offsets,
            &self.run_offsets,
            &self.dict.block_offsets,
            &self.dict.data,
            &self.postings,
            &self.term_pos,
            &self.pos_stream,
            &pages_bytes,
        ];
        let body: usize = sections.iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(PREFIX_LEN + body);
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&(n_terms as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_postings as u32).to_le_bytes());
        out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
        out.extend_from_slice(&(DICT_BLOCK as u32).to_le_bytes());
        out.extend_from_slice(&total_states.to_le_bytes());
        let mut offset = PREFIX_LEN as u64;
        for s in &sections {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            offset += s.len() as u64;
        }
        for s in &sections {
            out.extend_from_slice(s);
        }

        let frame = Arc::new(MappedFrame::from_payload(
            INDEX_MAGIC,
            INDEX_FORMAT_VERSION,
            out,
        ));
        let layout = Layout::parse(frame.payload()).expect("the writer emits a valid header");
        Ok(layout.index(frame, pages))
    }
}

// -------------------------------------------------------------------- reader

/// The posting sections of a segment: the `Arc`-shared payload plus the
/// byte ranges of S0/S1/S4/S5/S6. Cloning is one `Arc` bump; decoded state
/// lives entirely in caller scratch buffers.
#[derive(Clone)]
pub(crate) struct Segment {
    frame: Arc<MappedFrame>,
    term_offsets: Range<usize>,
    run_offsets: Range<usize>,
    postings: Range<usize>,
    term_pos: Range<usize>,
    pos_stream: Range<usize>,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("payload_bytes", &self.payload().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl Segment {
    /// The whole canonical payload — what `save_index` writes and what
    /// index equality compares.
    pub(crate) fn payload(&self) -> &[u8] {
        self.frame.payload()
    }

    /// True when the payload is a kernel mapping rather than heap bytes.
    pub(crate) fn is_mapped(&self) -> bool {
        self.frame.is_mapped()
    }

    fn section(&self, r: &Range<usize>) -> &[u8] {
        &self.payload()[r.clone()]
    }

    /// Total postings (the S0 sentinel).
    pub(crate) fn n_postings(&self) -> usize {
        let s = self.section(&self.term_offsets);
        u32_at(s, s.len() / 4 - 1) as usize
    }

    /// Posting-index bounds of term `id` (from the fixed-width S0 column —
    /// no stream decode needed, so `df` stays O(1)).
    pub(crate) fn run_len(&self, id: TermId) -> usize {
        let s = self.section(&self.term_offsets);
        (u32_at(s, id as usize + 1) - u32_at(s, id as usize)) as usize
    }

    /// Decodes term `id`'s doc and count columns into `scratch`, plus
    /// `pos_offs`: `run_len + 1` cumulative byte offsets into the term's
    /// position window ([`Segment::term_pos_window`]), built from the
    /// per-record `pos_len` varints as a side effect of the same pass —
    /// position *bytes* stay untouched.
    pub(crate) fn decode_run(&self, id: TermId, scratch: &mut TermScratch) {
        let n = self.run_len(id);
        let TermScratch {
            docs,
            counts,
            pos_offs,
        } = scratch;
        docs.clear();
        counts.clear();
        pos_offs.clear();
        docs.reserve(n);
        counts.reserve(n);
        pos_offs.reserve(n + 1);
        pos_offs.push(0);
        let stream = self.section(&self.postings);
        let run_offsets = self.section(&self.run_offsets);
        let mut cur = u32_at(run_offsets, id as usize) as usize;
        let mut page = RUN_START.page;
        let mut state = RUN_START.state.0;
        let mut pos_at = 0u32;
        for _ in 0..n {
            let page_delta = read_varint(stream, &mut cur) as u32;
            let s = read_varint(stream, &mut cur) as u32;
            if page_delta == 0 {
                state += s;
            } else {
                page += page_delta;
                state = s;
            }
            docs.push(DocKey {
                page,
                state: StateId(state),
            });
            let g = read_varint(stream, &mut cur);
            let count = (g >> 1) as u32 + 1;
            let extra = if g & 1 == 1 {
                read_varint(stream, &mut cur) as u32
            } else {
                0
            };
            counts.push(count);
            pos_at += count + extra;
            pos_offs.push(pos_at);
        }
        debug_assert_eq!(
            cur,
            u32_at(run_offsets, id as usize + 1) as usize,
            "posting run must decode to exactly its declared byte range"
        );
        debug_assert_eq!(
            pos_at as usize,
            self.term_pos_window(id).len(),
            "posting pos_len sum must cover exactly the term's position window"
        );
    }

    /// The S6 slice holding term `id`'s positions (bounds from the
    /// fixed-width S5 column).
    pub(crate) fn term_pos_window(&self, id: TermId) -> &[u8] {
        let s = self.section(&self.term_pos);
        let start = u32_at(s, id as usize) as usize;
        let end = u32_at(s, id as usize + 1) as usize;
        &self.section(&self.pos_stream)[start..end]
    }
}

/// Header fields and section ranges of a payload.
struct Layout {
    n_terms: usize,
    n_postings: usize,
    n_pages: usize,
    block: usize,
    total_states: u64,
    secs: Vec<Range<usize>>,
}

impl Layout {
    /// Reads the header and the section table, checking the magic, the
    /// block size and that every section lies inside the payload after the
    /// table.
    fn parse(payload: &[u8]) -> Result<Layout, String> {
        if payload.len() < PREFIX_LEN {
            return Err(format!(
                "segment too short: {} bytes, header+table need {PREFIX_LEN}",
                payload.len()
            ));
        }
        if payload[..8] != SEGMENT_MAGIC {
            return Err("bad segment magic".to_string());
        }
        let u32_field = |at: usize| u32_at(&payload[at..at + 4], 0) as usize;
        let u64_field =
            |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let block = u32_field(20);
        if block == 0 {
            return Err("zero dictionary block size".to_string());
        }
        let mut secs = Vec::with_capacity(SECTION_COUNT);
        for i in 0..SECTION_COUNT {
            let at = HEADER_LEN + i * 16;
            let (off, len) = (u64_field(at), u64_field(at + 8));
            let end = off.checked_add(len).filter(|&e| e <= payload.len() as u64);
            let (Ok(off), Some(_)) = (usize::try_from(off), end) else {
                return Err(format!("section {i} out of bounds"));
            };
            if off < PREFIX_LEN {
                return Err(format!("section {i} overlaps the header"));
            }
            secs.push(off..off + len as usize);
        }
        Ok(Layout {
            n_terms: u32_field(8),
            n_postings: u32_field(12),
            n_pages: u32_field(16),
            block,
            total_states: u64_field(24),
            secs,
        })
    }

    /// The index over `frame` laid out as `self`, with its decoded pages.
    fn index(self, frame: Arc<MappedFrame>, pages: Vec<PageEntry>) -> InvertedIndex {
        let s = &self.secs;
        InvertedIndex {
            dict: TermDict::new(
                Arc::clone(&frame),
                s[2].clone(),
                s[3].clone(),
                self.n_terms,
                self.block,
            ),
            seg: Segment {
                term_offsets: s[0].clone(),
                run_offsets: s[1].clone(),
                postings: s[4].clone(),
                term_pos: s[5].clone(),
                pos_stream: s[6].clone(),
                frame,
            },
            pages,
            total_states: self.total_states,
        }
    }
}

// ---------------------------------------------------------------------- open

/// Bounds-checked reader for the one-time open-path decodes.
struct Reader<'a> {
    bytes: &'a [u8],
    cur: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *self
                .bytes
                .get(self.cur)
                .ok_or("truncated varint in segment")?;
            self.cur += 1;
            if shift >= 64 {
                return Err("oversized varint in segment".to_string());
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .cur
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated byte run in segment")?;
        let s = &self.bytes[self.cur..end];
        self.cur = end;
        Ok(s)
    }

    fn f64(&mut self) -> Result<f64, String> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Opens a v4 segment over a validated durable frame: checks the header,
/// the section table, the fixed-width columns and the dictionary, decodes
/// page metadata eagerly, and wires everything else up for lazy per-query
/// decode. S4/S6 are not walked (see the module docs). Errors are
/// human-readable details for `PersistError::Corrupt`.
pub(crate) fn open(frame: Arc<MappedFrame>) -> Result<InvertedIndex, String> {
    let payload = frame.payload();
    let layout = Layout::parse(payload)?;
    let Layout {
        n_terms,
        n_postings,
        n_pages,
        block,
        ref secs,
        ..
    } = layout;

    let blocks = n_terms.div_ceil(block);
    let expect_len = |i: usize, want: usize, what: &str| -> Result<(), String> {
        if secs[i].len() != want {
            Err(format!(
                "{what} section: {} bytes, expected {want}",
                secs[i].len()
            ))
        } else {
            Ok(())
        }
    };
    expect_len(0, (n_terms + 1) * 4, "term_offsets")?;
    expect_len(1, (n_terms + 1) * 4, "run_offsets")?;
    expect_len(2, (blocks + 1) * 4, "dict_blocks")?;
    expect_len(5, (n_terms + 1) * 4, "term_pos")?;

    // Sentinels: last offset of each fixed column must equal the length of
    // the stream it indexes into.
    let sentinel = |col: usize, idx: usize, want: usize, what: &str| -> Result<(), String> {
        let got = u32_at(&payload[secs[col].clone()], idx) as usize;
        if got != want {
            Err(format!("{what} sentinel {got}, expected {want}"))
        } else {
            Ok(())
        }
    };
    sentinel(0, n_terms, n_postings, "term_offsets")?;
    sentinel(1, n_terms, secs[4].len(), "run_offsets")?;
    sentinel(2, blocks, secs[3].len(), "dict_blocks")?;
    sentinel(5, n_terms, secs[6].len(), "term_pos")?;

    // Monotone offsets: a decreasing bound would make a later slice panic at
    // query time; reject it here instead. One pass over small fixed columns.
    for (col, what) in [
        (0usize, "term_offsets"),
        (1, "run_offsets"),
        (2, "dict_blocks"),
        (5, "term_pos"),
    ] {
        let s = &payload[secs[col].clone()];
        let n = s.len() / 4;
        for i in 1..n {
            if u32_at(s, i) < u32_at(s, i - 1) {
                return Err(format!("{what} not monotone at {i}"));
            }
        }
    }

    // Walk every dictionary block once: bounds-check the front coding,
    // reconstruct each term incrementally and validate it is UTF-8, so the
    // query-time decoder and `decode_term` can trust the bytes.
    {
        let data = &payload[secs[3].clone()];
        let table = &payload[secs[2].clone()];
        let mut term = Vec::new();
        for b in 0..blocks {
            let mut r = Reader {
                bytes: data,
                cur: u32_at(table, b) as usize,
            };
            let head_len = r.varint()? as usize;
            term.clear();
            term.extend_from_slice(r.take(head_len)?);
            if std::str::from_utf8(&term).is_err() {
                return Err(format!("dictionary block {b} head is not valid UTF-8"));
            }
            let in_block = (n_terms - b * block).min(block);
            for _ in 1..in_block {
                let l = r.varint()? as usize;
                if l > term.len() {
                    return Err("front-coded lcp exceeds previous term".to_string());
                }
                let slen = r.varint()? as usize;
                term.truncate(l);
                term.extend_from_slice(r.take(slen)?);
                if std::str::from_utf8(&term).is_err() {
                    return Err(format!("dictionary block {b} term is not valid UTF-8"));
                }
            }
        }
    }

    // Page metadata decodes eagerly — it is small and every query touches it.
    let mut pages = Vec::with_capacity(n_pages);
    {
        let mut r = Reader {
            bytes: &payload[secs[7].clone()],
            cur: 0,
        };
        for p in 0..n_pages {
            let url_len = r.varint()? as usize;
            let url = std::str::from_utf8(r.take(url_len)?)
                .map_err(|_| format!("page {p} URL is not valid UTF-8"))?
                .to_string();
            let pagerank = r.f64()?;
            let n_ajax = r.varint()? as usize;
            let mut ajaxrank = Vec::with_capacity(n_ajax.min(1 << 20));
            for _ in 0..n_ajax {
                ajaxrank.push(r.f64()?);
            }
            let n_lens = r.varint()? as usize;
            let mut state_lengths = Vec::with_capacity(n_lens.min(1 << 20));
            for _ in 0..n_lens {
                state_lengths.push(
                    u32::try_from(r.varint()?)
                        .map_err(|_| format!("page {p} state length exceeds u32"))?,
                );
            }
            pages.push(PageEntry {
                url,
                pagerank,
                ajaxrank,
                state_lengths,
            });
        }
        if r.cur != r.bytes.len() {
            return Err(format!(
                "trailing bytes in page section: {} of {} consumed",
                r.cur,
                r.bytes.len()
            ));
        }
    }

    Ok(layout.index(frame, pages))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut cur = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut cur), v);
        }
        assert_eq!(cur, buf.len());
    }

    #[test]
    fn u32_at_reads_unaligned() {
        let mut bytes = vec![0xAAu8]; // misalign everything after
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(u32_at(&bytes[1..], 0), 7);
        assert_eq!(u32_at(&bytes[1..], 1), 0xDEAD_BEEF);
    }
}
