//! The enhanced inverted file (thesis §5.2, Table 5.1).
//!
//! Every **state** of every crawled page is an indexable document; a posting
//! therefore carries `(page, state, tf, positions)`. The index also stores
//! what ranking needs: per-page PageRank (from the precrawl phase), per-state
//! AJAXRank (PageRank over the page's transition graph) and per-state token
//! counts for the thesis' normalized term frequency (formula 5.1).
//!
//! ## One representation
//!
//! An [`InvertedIndex`] is a v4 segment (`segment.rs`) and nothing else:
//! the front-coded dictionary, one delta+varint posting run per term, a
//! per-posting position stream, and the page table — all read in place from
//! one byte buffer. [`IndexBuilder`] and the segment merge write those bytes
//! directly; `load_index` maps them from disk; `save_index` writes them
//! unchanged. A query decodes a term's doc/count run into a caller-owned
//! [`TermScratch`] (`postings_in`), and positions are decoded only inside
//! the proximity scan ([`PostingList::for_each_position`]).
//!
//! The encoding is **canonical**: terms sorted, each term's run doc-sorted,
//! positions first-absolute per posting. Two indexes over the same logical
//! content are therefore byte-identical (`PartialEq` compares the payload)
//! no matter how they were built, merged or persisted — the foundation of
//! the determinism contract (see `docs/index-internals.md`).

use crate::dict::{TermDict, TermId};
use crate::segment::{self, Segment, SegmentWriter};
use crate::tokenize::for_each_token;
use ajax_crawl::model::{AppModel, StateId};
use ajax_crawl::pagerank::pagerank_default;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifies one indexed document: a `(page, state)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocKey {
    /// Index into [`InvertedIndex::pages`].
    pub page: u32,
    pub state: StateId,
}

/// A build or merge outgrew the index's `u32` offset space. Before this
/// guard, `as u32` casts silently wrapped on multi-GB inputs and corrupted
/// postings without any error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexBuildError {
    OffsetOverflow {
        /// Which column overflowed (`"postings"`, `"pages"`, or a v4 stream
        /// name).
        column: &'static str,
        /// The size that did not fit.
        len: u64,
        /// The largest representable size.
        max: u64,
    },
}

impl fmt::Display for IndexBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexBuildError::OffsetOverflow { column, len, max } => write!(
                f,
                "index {column} column needs {len} entries/bytes, exceeding the u32 offset \
                 space ({max}); split the corpus into shards"
            ),
        }
    }
}

impl std::error::Error for IndexBuildError {}

/// The production offset limit: every offset column is `u32`.
const U32_LIMIT: u64 = u32::MAX as u64;

pub(crate) fn check_fits(
    column: &'static str,
    len: u64,
    limit: u64,
) -> Result<(), IndexBuildError> {
    if len > limit {
        Err(IndexBuildError::OffsetOverflow {
            column,
            len,
            max: limit,
        })
    } else {
        Ok(())
    }
}

/// A borrowed view of one term's posting run: the doc and count columns
/// decoded into a [`TermScratch`], plus the term's undecoded slice of the
/// position stream. `Copy`, allocation-free, doc-sorted.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    docs: &'a [DocKey],
    counts: &'a [u32],
    /// `len + 1` cumulative byte offsets of each posting's positions in
    /// `positions`.
    pos_offs: &'a [u32],
    /// The term's window of the delta+varint position stream.
    positions: &'a [u8],
}

impl<'a> PostingList<'a> {
    /// The empty list (unseen terms).
    pub const EMPTY: PostingList<'static> = PostingList {
        docs: &[],
        counts: &[],
        pos_offs: &[],
        positions: &[],
    };

    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The doc column — what the intersection kernel gallops over.
    pub fn docs(&self) -> &'a [DocKey] {
        self.docs
    }

    pub fn doc(&self, i: usize) -> DocKey {
        self.docs[i]
    }

    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    /// The encoded positions of posting `i` (first absolute, then deltas).
    pub(crate) fn position_bytes(&self, i: usize) -> &'a [u8] {
        &self.positions[self.pos_offs[i] as usize..self.pos_offs[i + 1] as usize]
    }

    /// Visits the positions of posting `i` in ascending order. This is where
    /// the delta+varint stream is decoded — the only place position bytes
    /// are ever touched.
    pub fn for_each_position(&self, i: usize, mut f: impl FnMut(u32)) {
        let bytes = self.position_bytes(i);
        let mut cur = 0;
        let mut pos = 0u32;
        let mut first = true;
        while cur < bytes.len() {
            let delta = segment::read_varint(bytes, &mut cur) as u32;
            pos = if first { delta } else { pos + delta };
            first = false;
            f(pos);
        }
    }
}

/// Reusable decode target for one term's posting run: the delta+varint run
/// is decoded into these vectors, which grow once and are reused across
/// queries.
#[derive(Debug, Default)]
pub struct TermScratch {
    pub(crate) docs: Vec<DocKey>,
    pub(crate) counts: Vec<u32>,
    /// `docs.len() + 1` cumulative byte offsets into the term's position
    /// window — rebuilt from the run's `pos_len` varints, so
    /// `for_each_position` keeps O(1) access without a per-posting offset
    /// column on disk.
    pub(crate) pos_offs: Vec<u32>,
}

impl TermScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-page metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageEntry {
    pub url: String,
    /// PageRank of the URL (uniform if no precrawl data was supplied).
    pub pagerank: f64,
    /// AJAXRank per state (indexed by state id).
    pub ajaxrank: Vec<f64>,
    /// Token count per state (the denominator of formula 5.1).
    pub state_lengths: Vec<u32>,
}

/// The inverted file: one v4 segment (see module docs) plus its decoded
/// page table.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Sorted, front-coded term dictionary (segment S2/S3).
    pub(crate) dict: TermDict,
    /// The posting sections and the payload they live in.
    pub(crate) seg: Segment,
    /// Indexed pages, decoded from S7 (the segment bytes stay the source of
    /// truth for equality and `save_index`).
    pub pages: Vec<PageEntry>,
    /// Total number of indexed states (the `|D|` of formula 5.2).
    pub total_states: u64,
}

/// The empty index (zero terms, zero pages).
impl Default for InvertedIndex {
    fn default() -> Self {
        IndexBuilder::new().build()
    }
}

impl InvertedIndex {
    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.dict.len()
    }

    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// The interned id of `term`, if indexed.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.lookup(term)
    }

    /// True when the segment is an mmap of a saved file rather than heap
    /// bytes (a fresh build, or a platform where mapping failed).
    pub fn is_mapped(&self) -> bool {
        self.seg.is_mapped()
    }

    /// The canonical v4 payload — what `save_index` writes.
    pub(crate) fn payload(&self) -> &[u8] {
        self.seg.payload()
    }

    /// Length of term `id`'s posting run — O(1) (the `term_offsets` column
    /// is fixed-width and addressable in place).
    pub fn run_len(&self, id: TermId) -> usize {
        self.seg.run_len(id)
    }

    /// The posting run of a known `TermId`, delta+varint-decoded into
    /// `scratch` and borrowed from there. Positions stay undecoded until
    /// `for_each_position`.
    pub fn postings_by_id_in<'s>(
        &'s self,
        id: TermId,
        scratch: &'s mut TermScratch,
    ) -> PostingList<'s> {
        self.seg.decode_run(id, scratch);
        PostingList {
            docs: &scratch.docs,
            counts: &scratch.counts,
            pos_offs: &scratch.pos_offs,
            positions: self.seg.term_pos_window(id),
        }
    }

    /// The posting list of `term` (empty if absent).
    pub fn postings_in<'s>(&'s self, term: &str, scratch: &'s mut TermScratch) -> PostingList<'s> {
        match self.dict.lookup(term) {
            Some(id) => self.postings_by_id_in(id, scratch),
            None => PostingList::EMPTY,
        }
    }

    /// The posting runs of a conjunction's terms, decoded into `bufs`
    /// (grown as needed) — or `None`, before anything is decoded, when some
    /// term is not indexed and the conjunction is therefore empty.
    pub(crate) fn conjunction_lists<'s>(
        &'s self,
        terms: &[String],
        bufs: &'s mut Vec<TermScratch>,
    ) -> Option<Vec<PostingList<'s>>> {
        let ids = terms
            .iter()
            .map(|t| self.term_id(t))
            .collect::<Option<Vec<TermId>>>()?;
        if bufs.len() < ids.len() {
            bufs.resize_with(ids.len(), TermScratch::default);
        }
        Some(
            ids.iter()
                .zip(bufs.iter_mut())
                .map(|(&id, buf)| self.postings_by_id_in(id, buf))
                .collect(),
        )
    }

    /// Document frequency: number of states containing `term`.
    pub fn df(&self, term: &str) -> u64 {
        match self.dict.lookup(term) {
            Some(id) => self.run_len(id) as u64,
            None => 0,
        }
    }

    /// Inverse document frequency (formula 5.2): `log(|D| / df)`.
    /// Returns 0 for unseen terms.
    pub fn idf(&self, term: &str) -> f64 {
        self.idf_from_df(self.df(term))
    }

    /// The idf for a known document frequency (the query kernel computes df
    /// once per term from the posting run and reuses it).
    pub fn idf_from_df(&self, df: u64) -> f64 {
        if df == 0 || self.total_states == 0 {
            0.0
        } else {
            (self.total_states as f64 / df as f64).ln()
        }
    }

    /// Normalized term frequency of a posting in its state (formula 5.1),
    /// from its doc and raw occurrence count.
    pub fn tf_parts(&self, doc: DocKey, count: u32) -> f64 {
        let page = &self.pages[doc.page as usize];
        let len = page.state_lengths[doc.state.index()].max(1);
        f64::from(count) / f64::from(len)
    }

    /// The URL of a document.
    pub fn url_of(&self, doc: DocKey) -> &str {
        &self.pages[doc.page as usize].url
    }

    /// PageRank + AJAXRank of a document.
    pub fn ranks_of(&self, doc: DocKey) -> (f64, f64) {
        let page = &self.pages[doc.page as usize];
        let ajax = page.ajaxrank.get(doc.state.index()).copied().unwrap_or(0.0);
        (page.pagerank, ajax)
    }

    /// K-way merge of index segments into one canonical index — panicking
    /// wrapper over [`InvertedIndex::try_merge_segments`] for callers that
    /// treat overflow as fatal.
    pub fn merge_segments(segments: Vec<InvertedIndex>) -> InvertedIndex {
        InvertedIndex::try_merge_segments(segments)
            .expect("index merge overflowed the u32 offset space")
    }

    /// K-way merge of index segments into one canonical index — the
    /// parallel build's combine step (the thesis merges per-partition
    /// results, §6.4). Pages are concatenated in segment order; the
    /// dictionaries are merge-joined (all sorted), and each output term's
    /// run is the concatenation of the segments' runs in segment order,
    /// re-encoded with re-based pages. Because re-based doc keys sort after
    /// everything from earlier segments, no run needs re-sorting; position
    /// bytes are copied verbatim. Linear in total postings plus
    /// `terms × segments` for the join.
    ///
    /// Fails with a typed error if the combined postings, pages or streams
    /// outgrow the `u32` offset space.
    pub fn try_merge_segments(
        segments: Vec<InvertedIndex>,
    ) -> Result<InvertedIndex, IndexBuildError> {
        InvertedIndex::try_merge_segments_with_limit(segments, U32_LIMIT)
    }

    /// [`InvertedIndex::try_merge_segments`] with an injectable offset limit
    /// so the guard is testable without allocating 4 GiB of postings.
    pub(crate) fn try_merge_segments_with_limit(
        segments: Vec<InvertedIndex>,
        limit: u64,
    ) -> Result<InvertedIndex, IndexBuildError> {
        if segments.len() <= 1 {
            return Ok(segments.into_iter().next().unwrap_or_default());
        }

        // Totals first, in u64, so the overflow check happens before any
        // page id is re-based in u32.
        let total_pages: u64 = segments.iter().map(|s| s.pages.len() as u64).sum();
        let n_postings: u64 = segments.iter().map(|s| s.seg.n_postings() as u64).sum();
        check_fits("pages", total_pages, limit)?;
        check_fits("postings", n_postings, limit)?;

        let mut page_offsets = Vec::with_capacity(segments.len());
        let mut pages = Vec::with_capacity(total_pages as usize);
        for seg in &segments {
            page_offsets.push(pages.len() as u32);
            pages.extend(seg.pages.iter().cloned());
        }
        let total_states = segments.iter().map(|s| s.total_states).sum();

        let mut writer = SegmentWriter::new(limit);
        let mut cursors: Vec<_> = segments.iter().map(|s| s.dict.cursor()).collect();
        let mut scratch = TermScratch::default();
        let mut term = Vec::new();
        // Each round takes the smallest term among the segment heads.
        while let Some(min) = cursors.iter().filter_map(|c| c.term()).min() {
            term.clear();
            term.extend_from_slice(min);
            writer.begin_term(&term);
            // Segment order == ascending page offset, so the output run
            // stays doc-sorted.
            for (s, cursor) in cursors.iter_mut().enumerate() {
                if cursor.term() != Some(term.as_slice()) {
                    continue;
                }
                let run = segments[s].postings_by_id_in(cursor.id(), &mut scratch);
                for i in 0..run.len() {
                    let d = run.doc(i);
                    let doc = DocKey {
                        page: d.page + page_offsets[s],
                        state: d.state,
                    };
                    writer.push_posting(doc, run.count(i), run.position_bytes(i));
                }
                cursor.advance();
            }
        }
        writer.finish(pages, total_states)
    }

    /// Heap-resident size of the index in bytes: the decoded page table,
    /// plus the segment payload when it lives on the heap (a fresh build or
    /// merge). Content-derived, so byte-identical indexes report identical
    /// sizes whichever build path produced them. A mapped segment's bytes
    /// live in the page cache instead — see [`InvertedIndex::mapped_bytes`].
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let page_meta: usize = self
            .pages
            .iter()
            .map(|p| {
                p.url.len()
                    + p.ajaxrank.len() * size_of::<f64>()
                    + p.state_lengths.len() * size_of::<u32>()
            })
            .sum();
        let heap_segment = if self.is_mapped() {
            0
        } else {
            self.payload().len()
        };
        heap_segment + self.pages.len() * size_of::<PageEntry>() + page_meta
    }

    /// Bytes served from an mmap-ed segment (0 for a heap-backed one) — the
    /// counterpart of [`InvertedIndex::approx_bytes`] for capacity
    /// planning: mapped bytes share the page cache and are reclaimable.
    pub fn mapped_bytes(&self) -> usize {
        if self.is_mapped() {
            self.payload().len()
        } else {
            0
        }
    }
}

/// Equality is equality of the canonical payload bytes: equal logical
/// content encodes identically, whether the bytes are mapped or on the
/// heap.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.payload() == other.payload()
    }
}

/// Per-term accumulator inside [`IndexBuilder`]: the term's posting run
/// before encoding. Docs arrive in increasing order (states are processed in page,
/// then state order), so each accumulator is born sorted.
#[derive(Debug, Default)]
struct TermAcc {
    docs: Vec<DocKey>,
    counts: Vec<u32>,
    positions: Vec<u32>,
}

/// Builds an [`InvertedIndex`] from crawled application models — the
/// "Build New Index" operation of thesis §8.3.1.
///
/// Terms are interned into the builder's dictionary **as they stream out of
/// the tokenizer** — one `String` allocation per *distinct* term, not one
/// per occurrence — and per-state grouping runs over reusable scratch
/// buffers instead of a fresh `HashMap` per state.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    /// term → local id, first-seen order (re-ranked at `build`).
    interner: HashMap<String, u32>,
    /// local id → term.
    terms: Vec<String>,
    accs: Vec<TermAcc>,
    pages: Vec<PageEntry>,
    total_states: u64,
    /// Cap on states indexed per page ("Max. State ID" in the thesis UI):
    /// `None` = all crawled states.
    max_states: Option<usize>,
    // --- reusable scratch (cleared, never shrunk, between states) ---
    token_scratch: String,
    /// Per local id: positions seen in the current state.
    state_positions: Vec<Vec<u32>>,
    /// Local ids with at least one occurrence in the current state.
    touched: Vec<u32>,
}

impl IndexBuilder {
    /// A builder indexing every crawled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts indexing to the first `max_states` states of each page
    /// (`max_states = 1` reproduces the *traditional* index, §7.7).
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = Some(max_states.max(1));
        self
    }

    /// Adds one page model. `pagerank` is the URL's rank from the precrawl
    /// phase (pass `None` for a single-page or unranked corpus).
    pub fn add_model(&mut self, model: &AppModel, pagerank: Option<f64>) {
        // Explicit, not a silent `as u32` wrap: a corpus cannot exceed the
        // doc key's u32 page space.
        let page_idx =
            u32::try_from(self.pages.len()).expect("page count exceeds u32 doc-key space");
        let limit = self
            .max_states
            .unwrap_or(usize::MAX)
            .min(model.state_count());

        // AJAXRank over the *full* transition graph (structure is known even
        // if we only index a prefix of the states).
        let ajaxrank = pagerank_default(&model.state_adjacency());

        let mut entry = PageEntry {
            url: model.url.clone(),
            pagerank: pagerank.unwrap_or(0.0),
            ajaxrank,
            state_lengths: Vec::with_capacity(limit),
        };

        for state in model.states.iter().take(limit) {
            let doc = DocKey {
                page: page_idx,
                state: state.id,
            };
            let mut token_count = 0u32;

            // Stream tokens straight into the interner; group positions per
            // term in the reusable scratch columns.
            let interner = &mut self.interner;
            let terms = &mut self.terms;
            let accs = &mut self.accs;
            let state_positions = &mut self.state_positions;
            let touched = &mut self.touched;
            for_each_token(&state.text, &mut self.token_scratch, |term, position| {
                token_count += 1;
                let id = match interner.get(term) {
                    Some(&id) => id,
                    None => {
                        let id = terms.len() as u32;
                        interner.insert(term.to_string(), id);
                        terms.push(term.to_string());
                        accs.push(TermAcc::default());
                        state_positions.push(Vec::new());
                        id
                    }
                };
                let slot = &mut state_positions[id as usize];
                if slot.is_empty() {
                    touched.push(id);
                }
                slot.push(position);
            });

            entry.state_lengths.push(token_count);
            self.total_states += 1;

            // Flush the state's groups into the per-term accumulators.
            // `touched` order is first-occurrence order, which is irrelevant:
            // each term gains exactly one posting for this doc, and docs
            // arrive in increasing order per term.
            for &id in self.touched.iter() {
                let slot = &mut self.state_positions[id as usize];
                let acc = &mut self.accs[id as usize];
                acc.docs.push(doc);
                acc.counts.push(slot.len() as u32);
                acc.positions.extend_from_slice(slot);
                slot.clear();
            }
            self.touched.clear();
        }
        self.pages.push(entry);
    }

    /// Finalizes the index — panicking wrapper over
    /// [`IndexBuilder::try_build`] for callers that treat overflow as fatal.
    pub fn build(self) -> InvertedIndex {
        self.try_build()
            .expect("index build overflowed the u32 offset space")
    }

    /// Finalizes the index: re-ranks local term ids into sorted dictionary
    /// order and streams the accumulators straight into the v4 segment
    /// writer. Linear in total postings plus `T log T` for the dictionary
    /// sort. Fails with a typed error if the postings, pages or encoded
    /// streams outgrow the `u32` offset space.
    pub fn try_build(self) -> Result<InvertedIndex, IndexBuildError> {
        self.try_build_with_limit(U32_LIMIT)
    }

    /// [`IndexBuilder::try_build`] with an injectable offset limit so the
    /// guard is testable without allocating 4 GiB of postings.
    pub(crate) fn try_build_with_limit(self, limit: u64) -> Result<InvertedIndex, IndexBuildError> {
        let mut order: Vec<u32> = (0..self.terms.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.terms[a as usize].cmp(&self.terms[b as usize]));

        let mut writer = SegmentWriter::new(limit);
        let mut pos_bytes = Vec::new();
        for &local in &order {
            let acc = &self.accs[local as usize];
            writer.begin_term(self.terms[local as usize].as_bytes());
            let mut local_off = 0usize;
            for (&doc, &count) in acc.docs.iter().zip(&acc.counts) {
                let end = local_off + count as usize;
                segment::encode_positions(&acc.positions[local_off..end], &mut pos_bytes);
                writer.push_posting(doc, count, &pos_bytes);
                local_off = end;
            }
        }
        writer.finish(self.pages, self.total_states)
    }
}

/// Minimum prospective state count for the parallel segment build to pay
/// off. Below this, thread spawn plus the k-way merge pass costs more than
/// the inversion it parallelizes — measured on both synthetic sites (68.3 ms
/// parallel vs 62.2 ms serial on vidshare, 94.7 vs 80.9 on news, both well
/// under this many states), so small corpora take the serial path.
pub const PARALLEL_BUILD_MIN_STATES: usize = 8192;

/// Which build strategy [`build_index_parallel`] will actually run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPath {
    /// Single [`IndexBuilder`] over the whole model sequence.
    Serial,
    /// Per-thread segment builds merged with
    /// [`InvertedIndex::merge_segments`].
    Parallel,
}

impl BuildPath {
    pub fn as_str(self) -> &'static str {
        match self {
            BuildPath::Serial => "serial",
            BuildPath::Parallel => "parallel",
        }
    }
}

/// The path [`build_index_parallel`] will take for this input: parallel only
/// when there is more than one chunk to hand out **and** the prospective
/// state count (post state-cap) clears [`PARALLEL_BUILD_MIN_STATES`].
pub fn planned_build_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> BuildPath {
    if threads.max(1).min(models.len().max(1)) <= 1 {
        return BuildPath::Serial;
    }
    let cap = max_states.unwrap_or(usize::MAX);
    let prospective: usize = models.iter().map(|(m, _)| m.states.len().min(cap)).sum();
    if prospective < PARALLEL_BUILD_MIN_STATES {
        BuildPath::Serial
    } else {
        BuildPath::Parallel
    }
}

/// Builds an index over `models` with a **parallel segment build**: the
/// model list is split into `threads` contiguous chunks, each chunk is
/// inverted independently on its own thread ([`IndexBuilder`] per segment),
/// and the sorted segments are k-way merged ([`InvertedIndex::merge_segments`])
/// into one canonical index.
///
/// Small inputs ([`planned_build_path`] → [`BuildPath::Serial`]) fall back
/// to a single sequential builder: under [`PARALLEL_BUILD_MIN_STATES`]
/// prospective states the segment-merge overhead exceeds the parallel win.
///
/// Deterministic by construction: chunking depends only on `models.len()`
/// and `threads`, the merge concatenates runs in chunk order, and the serial
/// fallback produces the same canonical layout — the result is
/// `PartialEq`-identical to a sequential build over the same model sequence
/// regardless of which path runs.
pub fn build_index_parallel(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> InvertedIndex {
    try_build_index_parallel(models, max_states, threads)
        .expect("index build overflowed the u32 offset space")
}

/// [`build_index_parallel`] returning the typed overflow error instead of
/// panicking.
pub fn try_build_index_parallel(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
) -> Result<InvertedIndex, IndexBuildError> {
    let path = planned_build_path(models, max_states, threads);
    try_build_index_with_path(models, max_states, threads, path)
}

/// [`build_index_parallel`] with the path decision made by the caller —
/// tests force [`BuildPath::Parallel`] on tiny corpora to keep the
/// segment-merge machinery covered.
pub fn build_index_with_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
    path: BuildPath,
) -> InvertedIndex {
    try_build_index_with_path(models, max_states, threads, path)
        .expect("index build overflowed the u32 offset space")
}

fn try_build_index_with_path(
    models: &[(&AppModel, Option<f64>)],
    max_states: Option<usize>,
    threads: usize,
    path: BuildPath,
) -> Result<InvertedIndex, IndexBuildError> {
    let new_builder = || match max_states {
        Some(m) => IndexBuilder::new().with_max_states(m),
        None => IndexBuilder::new(),
    };
    let threads = threads.max(1).min(models.len().max(1));
    if threads <= 1 || path == BuildPath::Serial {
        let mut b = new_builder();
        for (model, pr) in models {
            b.add_model(model, *pr);
        }
        return b.try_build();
    }

    let chunk = models.len().div_ceil(threads);
    let segments: Result<Vec<InvertedIndex>, IndexBuildError> = std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut b = new_builder();
                    for (model, pr) in slice {
                        b.add_model(model, *pr);
                    }
                    b.try_build()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment build panicked"))
            .collect()
    });
    InvertedIndex::try_merge_segments(segments?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajax_crawl::model::Transition;
    use ajax_dom::EventType;

    fn toy_model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        for i in 1..states.len() {
            m.add_transition(Transition {
                from: StateId(i as u32 - 1),
                to: StateId(i as u32),
                source: "span#next".into(),
                event: EventType::Click,
                action: "next()".into(),
                targets: Vec::new(),
            });
        }
        m
    }

    fn build(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(1.0 / models.len() as f64));
        }
        b.build()
    }

    #[test]
    fn postings_carry_state_granularity() {
        let idx = build(&[toy_model(
            "http://x/watch?v=1",
            &["morcheeba video", "morcheeba singer daisy"],
        )]);
        let mut buf = TermScratch::new();
        let postings = idx.postings_in("morcheeba", &mut buf);
        assert_eq!(postings.len(), 2, "term in both states");
        assert_eq!(postings.doc(0).state, StateId(0));
        assert_eq!(postings.doc(1).state, StateId(1));
        let singer = idx.postings_in("singer", &mut buf);
        assert_eq!(singer.len(), 1);
        assert_eq!(singer.doc(0).state, StateId(1));
    }

    #[test]
    fn tf_normalized_by_state_length() {
        let idx = build(&[toy_model("u", &["wow wow wow bad"])]);
        let mut buf = TermScratch::new();
        let postings = idx.postings_in("wow", &mut buf);
        assert_eq!(postings.count(0), 3);
        assert!((idx.tf_parts(postings.doc(0), postings.count(0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn idf_definition() {
        let idx = build(&[toy_model("u", &["a b", "a c", "a d", "b d"])]);
        assert_eq!(idx.total_states, 4);
        assert!((idx.idf("a") - (4.0f64 / 3.0).ln()).abs() < 1e-9);
        assert!((idx.idf("c") - 4.0f64.ln()).abs() < 1e-9);
        assert_eq!(idx.idf("zzz"), 0.0);
    }

    #[test]
    fn max_states_restricts_to_traditional_view() {
        let model = toy_model("u", &["first page", "second page", "third page"]);
        let mut b = IndexBuilder::new().with_max_states(1);
        b.add_model(&model, None);
        let idx = b.build();
        assert_eq!(idx.total_states, 1);
        let mut buf = TermScratch::new();
        assert!(idx.postings_in("second", &mut buf).is_empty());
        assert_eq!(idx.postings_in("first", &mut buf).len(), 1);
    }

    #[test]
    fn positions_recorded_in_order() {
        let idx = build(&[toy_model("u", &["alpha beta alpha"])]);
        let mut buf = TermScratch::new();
        let postings = idx.postings_in("alpha", &mut buf);
        let mut seen = Vec::new();
        postings.for_each_position(0, |p| seen.push(p));
        assert_eq!(seen, vec![0, 2]);
    }

    #[test]
    fn dictionary_ids_are_sorted_ranks() {
        let idx = build(&[toy_model("u", &["zebra alpha kiwi"])]);
        assert_eq!(idx.term_count(), 3);
        let mut buf = Vec::new();
        assert_eq!(idx.dict().decode_term(0, &mut buf), "alpha");
        assert_eq!(idx.dict().decode_term(2, &mut buf), "zebra");
        assert_eq!(idx.term_id("kiwi"), Some(1));
        assert_eq!(idx.term_id("absent"), None);
    }

    #[test]
    fn ajaxrank_favours_initial_state() {
        let model = toy_model("u", &["one", "two", "three", "four"]);
        let idx = build(&[model]);
        let (_, a0) = idx.ranks_of(DocKey {
            page: 0,
            state: StateId(0),
        });
        let (_, a3) = idx.ranks_of(DocKey {
            page: 0,
            state: StateId(3),
        });
        // A forward chain pushes mass to the end; AJAXRank only needs to be a
        // well-defined distribution here — check it is one.
        let page = &idx.pages[0];
        let sum: f64 = page.ajaxrank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(a0 > 0.0 && a3 > 0.0);
    }

    #[test]
    fn multi_page_postings_sorted() {
        let idx = build(&[
            toy_model("http://x/1", &["shared word"]),
            toy_model("http://x/2", &["shared again", "shared deeper"]),
        ]);
        let mut buf = TermScratch::new();
        let postings = idx.postings_in("shared", &mut buf);
        assert_eq!(postings.len(), 3);
        assert!(postings.docs().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(idx.url_of(postings.doc(2)), "http://x/2");
    }

    #[test]
    fn empty_index() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.term_count(), 0);
        assert_eq!(idx.df("x"), 0);
        assert_eq!(idx.idf("x"), 0.0);
        assert_eq!(idx, InvertedIndex::default());
    }

    #[test]
    fn approx_bytes_counts_all_columns() {
        let idx = build(&[toy_model("http://x/1", &["alpha beta alpha gamma"])]);
        let b = idx.approx_bytes();
        // A fresh build's segment is on the heap: header + section table
        // (160 B) + dictionary strings ("alpha beta gamma") + the URL.
        assert!(!idx.is_mapped());
        assert_eq!(idx.mapped_bytes(), 0);
        assert!(b > 160 + 14 + 10, "approx_bytes = {b}");
        assert!(
            idx.approx_bytes() > IndexBuilder::new().build().approx_bytes(),
            "non-empty index must report more bytes than empty"
        );
    }

    #[test]
    fn approx_bytes_identical_across_build_paths() {
        // Structurally equal indexes must report identical sizes: capacity
        // padding differs between serial and parallel builds, content does
        // not.
        let models: Vec<AppModel> = (0..9)
            .map(|i| toy_model(&format!("http://x/{i}"), &["alpha beta", "gamma delta"]))
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, Some(0.1))).collect();
        let serial = build_index_parallel(&refs, None, 1);
        let parallel = build_index_with_path(&refs, None, 4, BuildPath::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(serial.approx_bytes(), parallel.approx_bytes());
    }

    #[test]
    fn build_overflow_is_typed_error() {
        let model = toy_model("u", &["alpha beta gamma delta", "alpha again"]);
        let mut b = IndexBuilder::new();
        b.add_model(&model, None);
        // 6 positions total; a limit of 4 must trip the positions guard.
        let err = b.try_build_with_limit(4).unwrap_err();
        match err {
            IndexBuildError::OffsetOverflow { column, len, max } => {
                assert_eq!(max, 4);
                assert!(len > 4);
                assert!(column == "postings" || column == "positions", "{column}");
            }
        }
        assert!(err.to_string().contains("u32 offset space"));
    }

    #[test]
    fn merge_overflow_is_typed_error() {
        let a = build(&[toy_model("http://a", &["one two three"])]);
        let b = build(&[toy_model("http://b", &["four five six"])]);
        let err = InvertedIndex::try_merge_segments_with_limit(vec![a.clone(), b.clone()], 3)
            .unwrap_err();
        assert!(matches!(err, IndexBuildError::OffsetOverflow { .. }));
        // A generous limit merges fine.
        assert!(InvertedIndex::try_merge_segments_with_limit(vec![a, b], 1 << 20).is_ok());
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let models: Vec<AppModel> = (0..13)
            .map(|i| {
                toy_model(
                    &format!("http://x/{i}"),
                    &[
                        &format!("shared word{} alpha", i % 3) as &str,
                        &format!("deeper state {i}") as &str,
                    ],
                )
            })
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> =
            models.iter().map(|m| (m, Some(1.0 / 13.0))).collect();
        let sequential = build_index_parallel(&refs, None, 1);
        for threads in [2, 3, 4, 13, 64] {
            // Force the parallel path: this corpus is far below the
            // min-states threshold, but the segment merge must stay
            // equivalence-covered.
            let parallel = build_index_with_path(&refs, None, threads, BuildPath::Parallel);
            assert_eq!(sequential, parallel, "threads={threads}");
            // The public entry point picks serial here and must agree too.
            assert_eq!(sequential, build_index_parallel(&refs, None, threads));
        }
    }

    #[test]
    fn small_corpora_plan_serial_builds() {
        let models: Vec<AppModel> = (0..4)
            .map(|i| toy_model(&format!("http://x/{i}"), &["a b", "c d"]))
            .collect();
        let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, None)).collect();
        assert_eq!(planned_build_path(&refs, None, 4), BuildPath::Serial);
        assert_eq!(planned_build_path(&refs, None, 1), BuildPath::Serial);
        // A single model can never be chunked, whatever its size.
        assert_eq!(planned_build_path(&refs[..1], None, 8), BuildPath::Serial);
    }

    #[test]
    fn large_corpora_plan_parallel_builds() {
        let texts: Vec<String> = (0..PARALLEL_BUILD_MIN_STATES / 2)
            .map(|i| format!("state text {i}"))
            .collect();
        let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let big = [
            toy_model("http://x/0", &text_refs),
            toy_model("http://x/1", &text_refs),
        ];
        let refs: Vec<(&AppModel, Option<f64>)> = big.iter().map(|m| (m, None)).collect();
        assert_eq!(planned_build_path(&refs, None, 4), BuildPath::Parallel);
        // The state cap shrinks the prospective count back under the
        // threshold: the plan must honour post-cap sizes, not raw ones.
        assert_eq!(planned_build_path(&refs, Some(16), 4), BuildPath::Serial);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use ajax_crawl::model::AppModel;

    fn model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        m
    }

    fn build(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(0.5));
        }
        b.build()
    }

    #[test]
    fn merged_equals_jointly_built() {
        let m1 = model("http://a", &["wow video", "more wow"]);
        let m2 = model("http://b", &["dance wow"]);
        let m3 = model("http://c", &["silence here"]);

        let merged = InvertedIndex::merge_segments(vec![
            build(std::slice::from_ref(&m1)),
            build(&[m2.clone(), m3.clone()]),
        ]);
        let joint = build(&[m1, m2, m3]);

        // Canonical layout ⇒ byte equality, not just logical.
        assert_eq!(merged, joint);
    }

    #[test]
    fn merge_into_empty() {
        let empty = IndexBuilder::new().build();
        let other = build(&[model("http://a", &["x y"])]);
        let merged = InvertedIndex::merge_segments(vec![empty, other.clone()]);
        assert_eq!(merged, other);
    }

    #[test]
    fn merge_segments_many() {
        let models: Vec<AppModel> = (0..7)
            .map(|i| {
                model(
                    &format!("http://m/{i}"),
                    &[&format!("common word{i}") as &str],
                )
            })
            .collect();
        let joint = build(&models);
        let segments: Vec<InvertedIndex> = models.chunks(2).map(build).collect();
        let merged = InvertedIndex::merge_segments(segments);
        assert_eq!(merged, joint);
    }
}
