//! The term dictionary: interns terms to dense [`TermId`]s.
//!
//! Terms are stored **sorted lexicographically**; the `TermId` of a term is
//! its rank in that order. The dictionary is the front-coded byte block of
//! the index's v4 segment (sections S2/S3, see `segment.rs`): terms in
//! blocks of [`DICT_BLOCK`], each block head stored whole, followers as
//! `varint lcp + varint suffix_len + suffix`. Lookups binary-search the
//! block heads and scan one block against the segment bytes;
//! [`TermDict::decode_term`] reconstructs individual terms on demand into a
//! caller buffer. No `Vec<String>` is ever built.
//!
//! Keeping the dictionary sorted makes the whole index layout *canonical*:
//! two indexes over the same logical content encode to the same bytes
//! regardless of build order — the property the determinism contract of
//! `docs/index-internals.md` rests on.

use crate::segment::{read_varint, u32_at, write_varint};
use ajax_crawl::durable::MappedFrame;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Dense identifier of a term: its rank in the sorted dictionary.
pub type TermId = u32;

/// Terms per front-coded dictionary block.
pub(crate) const DICT_BLOCK: usize = 16;

pub(crate) fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Front-codes a sorted, deduplicated term sequence into the S2 block table
/// (little-endian `u32` start of each block, then the end sentinel) and the
/// S3 data bytes.
#[derive(Debug, Default)]
pub(crate) struct DictWriter {
    pub(crate) block_offsets: Vec<u8>,
    pub(crate) data: Vec<u8>,
    prev: Vec<u8>,
    n_terms: usize,
}

impl DictWriter {
    /// Appends the next term; it must sort strictly after the previous one.
    /// Offsets are narrowed to `u32` here and validated once at the end
    /// (the segment writer's `dict_data` limit check).
    pub(crate) fn push(&mut self, term: &[u8]) {
        debug_assert!(
            self.n_terms == 0 || self.prev.as_slice() < term,
            "dictionary terms must be sorted and unique"
        );
        if self.n_terms.is_multiple_of(DICT_BLOCK) {
            self.block_offsets
                .extend_from_slice(&(self.data.len() as u32).to_le_bytes());
            write_varint(&mut self.data, term.len() as u64);
            self.data.extend_from_slice(term);
        } else {
            let l = lcp(&self.prev, term);
            write_varint(&mut self.data, l as u64);
            write_varint(&mut self.data, (term.len() - l) as u64);
            self.data.extend_from_slice(&term[l..]);
        }
        self.prev.clear();
        self.prev.extend_from_slice(term);
        self.n_terms += 1;
    }

    /// Appends the block table's end sentinel.
    pub(crate) fn finish(&mut self) {
        self.block_offsets
            .extend_from_slice(&(self.data.len() as u32).to_le_bytes());
    }
}

/// The sorted, front-coded term dictionary of one segment. Cloning is one
/// `Arc` bump.
#[derive(Clone)]
pub struct TermDict {
    frame: Arc<MappedFrame>,
    block_offsets: Range<usize>,
    data: Range<usize>,
    n_terms: usize,
    block: usize,
}

impl fmt::Debug for TermDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TermDict")
            .field("terms", &self.n_terms)
            .finish()
    }
}

impl TermDict {
    /// Wraps the S2/S3 sections of a segment whose structure the caller
    /// has validated (the segment writer or `segment::open`).
    pub(crate) fn new(
        frame: Arc<MappedFrame>,
        block_offsets: Range<usize>,
        data: Range<usize>,
        n_terms: usize,
        block: usize,
    ) -> Self {
        Self {
            frame,
            block_offsets,
            data,
            n_terms,
            block,
        }
    }

    fn data_slice(&self) -> &[u8] {
        &self.frame.payload()[self.data.clone()]
    }

    fn block_offsets_slice(&self) -> &[u8] {
        &self.frame.payload()[self.block_offsets.clone()]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.n_terms
    }

    pub fn is_empty(&self) -> bool {
        self.n_terms == 0
    }

    /// Hash-free lookup against the segment bytes: binary search over block
    /// heads, then a front-coded scan tracking `m = lcp(query, previous)`.
    /// Each follower entry is classified from its stored lcp alone —
    /// `lcp < m` proves the entry already sorts after the query (stop),
    /// `lcp > m` proves it still sorts before (skip without touching its
    /// bytes), and only `lcp == m` compares suffix bytes. O(log blocks +
    /// block), no allocation.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        if self.n_terms == 0 {
            return None;
        }
        let q = term.as_bytes();
        let data = self.data_slice();
        let table = self.block_offsets_slice();
        // The head term of block `b` — stored whole, directly sliceable.
        let head_of = |b: usize| {
            let mut cur = u32_at(table, b) as usize;
            let len = read_varint(data, &mut cur) as usize;
            &data[cur..cur + len]
        };

        // Last block whose head is <= q.
        let mut lo = 0usize;
        let mut hi = self.n_terms.div_ceil(self.block);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if head_of(mid) <= q {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return None; // query sorts before the first term
        }
        let b = lo - 1;

        let mut cur = u32_at(table, b) as usize;
        let head_len = read_varint(data, &mut cur) as usize;
        let head = &data[cur..cur + head_len];
        cur += head_len;
        if head == q {
            return Some((b * self.block) as TermId);
        }
        // Invariant below: the previously decoded term sorts before q and
        // shares exactly `m` leading bytes with it.
        let mut m = lcp(q, head);
        let in_block = (self.n_terms - b * self.block).min(self.block);
        for j in 1..in_block {
            let l = read_varint(data, &mut cur) as usize;
            let slen = read_varint(data, &mut cur) as usize;
            let suffix = &data[cur..cur + slen];
            cur += slen;
            if l < m {
                // entry diverges from its predecessor before `m`: its first
                // suffix byte exceeds q[l] (sorted order), so entry > q.
                return None;
            }
            if l > m {
                // entry[..m+1] == predecessor[..m+1] < q[..m+1]: entry < q.
                continue;
            }
            let rest = &q[m..];
            if suffix == rest {
                return Some((b * self.block + j) as TermId);
            }
            if suffix < rest {
                m += lcp(suffix, rest);
            } else {
                return None;
            }
        }
        None
    }

    /// Decodes term `id` into `buf`, returning it as `&str`. The scratch is
    /// a byte buffer (not `String`) because front-coded truncation points
    /// may split UTF-8 sequences mid-reconstruction.
    pub fn decode_term<'b>(&self, id: TermId, buf: &'b mut Vec<u8>) -> &'b str {
        let id = id as usize;
        let b = id / self.block;
        let data = self.data_slice();
        let mut cur = u32_at(self.block_offsets_slice(), b) as usize;
        let len = read_varint(data, &mut cur) as usize;
        buf.clear();
        buf.extend_from_slice(&data[cur..cur + len]);
        cur += len;
        for _ in 0..(id - b * self.block) {
            let l = read_varint(data, &mut cur) as usize;
            let slen = read_varint(data, &mut cur) as usize;
            buf.truncate(l);
            buf.extend_from_slice(&data[cur..cur + slen]);
            cur += slen;
        }
        std::str::from_utf8(buf).expect("segment terms are valid UTF-8 (checked at open)")
    }

    /// A sequential decoder positioned on term 0.
    pub(crate) fn cursor(&self) -> TermCursor<'_> {
        let mut c = TermCursor {
            data: self.data_slice(),
            cur: 0,
            id: 0,
            n_terms: self.n_terms,
            block: self.block,
            term: Vec::new(),
        };
        c.decode();
        c
    }
}

/// Walks a dictionary in `TermId` order, one front-coded entry per step —
/// the segment merge's dictionary join. Blocks are stored back to back, so
/// the walk never consults the block table.
pub(crate) struct TermCursor<'a> {
    data: &'a [u8],
    cur: usize,
    id: usize,
    n_terms: usize,
    block: usize,
    term: Vec<u8>,
}

impl TermCursor<'_> {
    /// The current term's id.
    pub(crate) fn id(&self) -> TermId {
        self.id as TermId
    }

    /// The current term, or `None` once every term has been visited.
    pub(crate) fn term(&self) -> Option<&[u8]> {
        (self.id < self.n_terms).then_some(self.term.as_slice())
    }

    pub(crate) fn advance(&mut self) {
        self.id += 1;
        self.decode();
    }

    fn decode(&mut self) {
        if self.id >= self.n_terms {
            return;
        }
        let keep = if self.id.is_multiple_of(self.block) {
            0
        } else {
            read_varint(self.data, &mut self.cur) as usize
        };
        let len = read_varint(self.data, &mut self.cur) as usize;
        self.term.truncate(keep);
        self.term
            .extend_from_slice(&self.data[self.cur..self.cur + len]);
        self.cur += len;
    }
}

#[cfg(test)]
mod tests {
    use crate::invert::{IndexBuilder, InvertedIndex};
    use ajax_crawl::model::AppModel;

    /// An index whose single state contains exactly `terms`.
    fn index_of(terms: &[&str]) -> InvertedIndex {
        let mut m = AppModel::new("http://x/1");
        m.add_state(1, terms.join(" "), None);
        let mut b = IndexBuilder::new();
        b.add_model(&m, None);
        b.build()
    }

    fn sorted(terms: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn lookup_finds_every_term() {
        // More than one block, with shared prefixes inside each.
        let terms: Vec<String> = (0..40).map(|i| format!("term{i:03}")).collect();
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let idx = index_of(&refs);
        let d = idx.dict();
        let mut buf = Vec::new();
        for id in 0..d.len() as u32 {
            let term = d.decode_term(id, &mut buf).to_string();
            assert_eq!(d.lookup(&term), Some(id));
        }
        assert_eq!(d.lookup("absent"), None);
        assert_eq!(d.lookup(""), None);
        assert_eq!(d.lookup("term0395"), None);
        assert_eq!(d.lookup("zzz"), None);
    }

    #[test]
    fn ids_are_sorted_ranks() {
        let idx = index_of(&["charlie", "alpha", "bravo"]);
        let mut buf = Vec::new();
        assert_eq!(idx.dict().decode_term(0, &mut buf), "alpha");
        assert_eq!(idx.dict().decode_term(1, &mut buf), "bravo");
        assert_eq!(idx.dict().decode_term(2, &mut buf), "charlie");
    }

    #[test]
    fn empty_dictionary() {
        let d = InvertedIndex::default().dict().clone();
        assert!(d.is_empty());
        assert_eq!(d.lookup("x"), None);
        assert_eq!(d.cursor().term(), None);
    }

    #[test]
    fn decode_term_matches_term() {
        let input = ["zebra", "zeal", "zero", "wow", "2", "morcheeba"];
        let want = sorted(&input);
        let idx = index_of(&input);
        let d = idx.dict();
        let mut buf = Vec::new();
        for (id, term) in want.iter().enumerate() {
            assert_eq!(d.decode_term(id as u32, &mut buf), term);
        }
    }

    #[test]
    fn cursor_walks_terms_in_id_order() {
        let terms: Vec<String> = (0..37).map(|i| format!("w{}", i * 7)).collect();
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let want = sorted(&refs);
        let idx = index_of(&refs);
        let mut c = idx.dict().cursor();
        let mut got = Vec::new();
        while let Some(t) = c.term() {
            assert_eq!(c.id() as usize, got.len());
            got.push(String::from_utf8(t.to_vec()).unwrap());
            c.advance();
        }
        assert_eq!(got, want);
    }

    #[test]
    fn dictionary_bytes_are_content_derived() {
        // Same terms in a different order and with repeats: the front-coded
        // dictionary is the same.
        let a = index_of(&["alpha", "bravo", "charlie"]);
        let b = index_of(&["charlie", "alpha", "bravo", "alpha"]);
        assert_eq!(a.dict().data_slice(), b.dict().data_slice());
        assert_eq!(
            a.dict().block_offsets_slice(),
            b.dict().block_offsets_slice()
        );
    }
}
