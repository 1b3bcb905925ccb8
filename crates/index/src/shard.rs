//! Query shipping over partitioned indexes (thesis §6.4–6.5).
//!
//! The parallel architecture builds **one inverted file per partition**.
//! A query is shipped to every shard; each shard evaluates the conjunction
//! locally and returns results scored with its *local* components (PageRank,
//! AJAXRank, proximity) plus the raw per-term `tf` values and its
//! `(state count, df)` statistics. The broker computes the **global idf**
//! from the summed counts (the formula worked in §6.5.2), completes each
//! result's score with `w3·Σ tf·idf`, merges and re-sorts — Steps 1 and 2 of
//! Fig 6.4.
//!
//! Shard provenance travels **inside** [`ShardResult`] from evaluation to
//! the merged [`BrokerResult`]; the merge no longer rebuilds a
//! `(url, doc) → shard` hash map per query.

use crate::invert::{DocKey, InvertedIndex};
use crate::kernel::{self, ScoreScratch};
use crate::probe;
use crate::query::{Query, RankWeights};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A shard-local result before the global tf·idf completion.
///
/// Carries the owned `url` because shard evaluation runs on worker threads
/// that cannot hand out borrows of their index snapshot — the URL string is
/// part of the wire format between worker and merger. This is the one
/// per-result allocation the distributed path keeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    pub shard: usize,
    pub url: String,
    pub doc: DocKey,
    /// `w1·PageRank + w2·AJAXRank + w4·proximity` — everything computable
    /// locally.
    pub base_score: f64,
    /// Raw normalized `tf` per query term.
    pub tfs: Vec<f64>,
}

/// Per-shard term statistics returned alongside results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTermStats {
    /// `|{s | s ∈ Idx}|` — states in the shard.
    pub total_states: u64,
    /// `|{s | s ∈ Idx ∧ k ∈ s}|` per query term.
    pub df: Vec<u64>,
}

/// A fully merged, globally scored result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerResult {
    pub shard: usize,
    pub url: String,
    pub doc: DocKey,
    pub score: f64,
}

/// The central "Search Application" that ships queries to every shard and
/// merges the result sets.
#[derive(Debug, Default)]
pub struct QueryBroker {
    shards: Vec<InvertedIndex>,
    pub weights: RankWeights,
}

impl QueryBroker {
    /// Builds a broker over per-partition indexes.
    pub fn new(shards: Vec<InvertedIndex>) -> Self {
        Self {
            shards,
            weights: RankWeights::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Access to a shard (diagnostics).
    pub fn shard(&self, i: usize) -> Option<&InvertedIndex> {
        self.shards.get(i)
    }

    /// Total states across shards (the global `|D|`).
    pub fn total_states(&self) -> u64 {
        self.shards.iter().map(|s| s.total_states).sum()
    }

    /// Estimated heap footprint of all shards (diagnostics, BuildReport).
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(InvertedIndex::approx_bytes).sum()
    }

    /// Bytes served from mmap-ed v4 segments across shards (0 when every
    /// shard is resident).
    pub fn mapped_bytes(&self) -> usize {
        self.shards.iter().map(InvertedIndex::mapped_bytes).sum()
    }

    /// Decomposes the broker into its shards and weights — the handoff a
    /// serving layer uses to distribute shards across worker threads.
    pub fn into_parts(self) -> (Vec<InvertedIndex>, RankWeights) {
        (self.shards, self.weights)
    }

    /// Computes the global idf of each query term from per-shard stats:
    /// `idf(k) = ln( Σ_i |Idx_i| / Σ_i df_i(k) )` — the §6.5.2 formula.
    pub fn global_idf(query: &Query, stats: &[ShardTermStats]) -> Vec<f64> {
        let total: u64 = stats.iter().map(|s| s.total_states).sum();
        (0..query.terms.len())
            .map(|t| {
                let df: u64 = stats.iter().map(|s| s.df[t]).sum();
                if df == 0 || total == 0 {
                    0.0
                } else {
                    (total as f64 / df as f64).ln()
                }
            })
            .collect()
    }

    /// Full distributed evaluation: ship, collect, complete scores with the
    /// global tf·idf (Step 1 of Fig 6.4), merge and sort (Step 2).
    ///
    /// `ajax_serve` runs the same two halves — [`eval_shard`] on worker
    /// threads and [`merge_shard_outputs`] on the caller — so the parallel
    /// path is result-identical (bit-for-bit scores) to this sequential one.
    pub fn search(&self, query: &Query) -> Vec<BrokerResult> {
        if query.is_empty() {
            return Vec::new();
        }
        let mut scratch = ScoreScratch::new();
        let mut all_results = Vec::new();
        let mut all_stats = Vec::with_capacity(self.shards.len());
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let (results, stats) =
                eval_shard_with_scratch(shard, shard_idx, query, &self.weights, &mut scratch);
            all_results.extend(results);
            all_stats.push(stats);
        }
        merge_shard_outputs(query, &self.weights, all_results, &all_stats)
    }
}

/// Evaluates a query on one shard — the "query shipping" leg, exposed as a
/// free function so a serving layer can run it on worker threads without
/// borrowing the whole broker. The query arrives already parsed and
/// normalized (tokenization happens once per query, not once per shard), and
/// each term's posting run is fetched exactly once, serving both the df
/// statistic and the conjunction merge.
pub fn eval_shard(
    shard: &InvertedIndex,
    shard_idx: usize,
    query: &Query,
    weights: &RankWeights,
) -> (Vec<ShardResult>, ShardTermStats) {
    eval_shard_with_scratch(shard, shard_idx, query, weights, &mut ScoreScratch::new())
}

/// [`eval_shard`] with a caller-owned [`ScoreScratch`] — serving workers
/// keep one per thread so steady-state evaluation reuses every buffer.
pub fn eval_shard_with_scratch(
    shard: &InvertedIndex,
    shard_idx: usize,
    query: &Query,
    weights: &RankWeights,
    scratch: &mut ScoreScratch,
) -> (Vec<ShardResult>, ShardTermStats) {
    let ScoreScratch {
        cursors,
        events,
        term_counts,
        term_bufs,
        ..
    } = scratch;
    let Some(lists) = shard.conjunction_lists(&query.terms, term_bufs) else {
        let stats = ShardTermStats {
            total_states: shard.total_states,
            df: query.terms.iter().map(|t| shard.df(t)).collect(),
        };
        return (Vec::new(), stats);
    };
    let stats = ShardTermStats {
        total_states: shard.total_states,
        df: lists.iter().map(|l| l.len() as u64).collect(),
    };
    let mut results = Vec::new();
    kernel::for_each_match(&lists, cursors, |doc, rows| {
        let (pagerank, ajaxrank) = shard.ranks_of(doc);
        let proximity = kernel::proximity_of_rows(&lists, rows, events, term_counts);
        probe::note_url_materialized();
        results.push(ShardResult {
            shard: shard_idx,
            url: shard.url_of(doc).to_string(),
            doc,
            base_score: weights.pagerank * pagerank
                + weights.ajaxrank * ajaxrank
                + weights.proximity * proximity,
            tfs: lists
                .iter()
                .enumerate()
                .map(|(t, list)| shard.tf_parts(doc, list.count(rows[t])))
                .collect(),
        });
    });
    (results, stats)
}

/// Rank order on broker results: score descending (by [`f64::total_cmp`],
/// in lockstep with `query::rank_cmp` — both must stay total orders or the
/// sequential and distributed paths can order NaN-scored ties differently),
/// then URL, then state.
fn compare_broker_results(a: &BrokerResult, b: &BrokerResult) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.url.cmp(&b.url))
        .then_with(|| a.doc.state.cmp(&b.doc.state))
}

/// The broker-side half of Fig 6.4: completes per-shard base scores with the
/// global tf·idf, merges and sorts. Shared by [`QueryBroker::search`] and
/// the `ajax-serve` worker-pool path so both produce identical
/// floating-point results (same summation order).
///
/// Shard provenance rides along inside each [`ShardResult`] — no per-query
/// `(url, doc) → shard` map is rebuilt here.
///
/// `all_results` must be ordered by shard index (shard 0's results first) for
/// the ordering guarantee to hold.
pub fn merge_shard_outputs(
    query: &Query,
    weights: &RankWeights,
    all_results: Vec<ShardResult>,
    all_stats: &[ShardTermStats],
) -> Vec<BrokerResult> {
    let idf = QueryBroker::global_idf(query, all_stats);

    let mut merged: Vec<BrokerResult> = all_results
        .into_iter()
        .map(|r| {
            let tfidf: f64 = r.tfs.iter().zip(idf.iter()).map(|(tf, idf)| tf * idf).sum();
            BrokerResult {
                shard: r.shard,
                url: r.url,
                doc: r.doc,
                score: r.base_score + weights.tfidf * tfidf,
            }
        })
        .collect();
    merged.sort_by(compare_broker_results);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invert::IndexBuilder;
    use crate::query::search;
    use ajax_crawl::model::AppModel;

    fn model(url: &str, states: &[&str]) -> AppModel {
        let mut m = AppModel::new(url);
        for (i, text) in states.iter().enumerate() {
            m.add_state(i as u64 + 1, (*text).to_string(), None);
        }
        m
    }

    fn corpus() -> Vec<AppModel> {
        vec![
            model("http://x/1", &["wow great video", "more wow content here"]),
            model("http://x/2", &["dance dance dance", "wow dance"]),
            model("http://x/3", &["nothing relevant at all"]),
            model("http://x/4", &["wow", "dance wow", "silence"]),
        ]
    }

    fn build_single(models: &[AppModel]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for m in models {
            b.add_model(m, Some(0.25));
        }
        b.build()
    }

    fn build_sharded(models: &[AppModel], per_shard: usize) -> QueryBroker {
        let shards = models
            .chunks(per_shard)
            .map(|chunk| {
                let mut b = IndexBuilder::new();
                for m in chunk {
                    b.add_model(m, Some(0.25));
                }
                b.build()
            })
            .collect();
        QueryBroker::new(shards)
    }

    #[test]
    fn worked_example_of_section_652() {
        // Idx1: 10 states, 4 with k; Idx2: 13 states, 6 with k
        // ⇒ idf = log(23/10).
        let stats = vec![
            ShardTermStats {
                total_states: 10,
                df: vec![4],
            },
            ShardTermStats {
                total_states: 13,
                df: vec![6],
            },
        ];
        let q = Query::parse("k1");
        let idf = QueryBroker::global_idf(&q, &stats);
        assert!((idf[0] - (23.0f64 / 10.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn sharded_equals_single_index() {
        let models = corpus();
        let single = build_single(&models);
        for per_shard in [1, 2, 3] {
            let broker = build_sharded(&models, per_shard);
            for q in ["wow", "dance", "wow dance", "nothing", "absent"] {
                let query = Query::parse(q);
                let merged = broker.search(&query);
                let reference = search(&single, &query, &RankWeights::default());
                assert_eq!(
                    merged.len(),
                    reference.len(),
                    "query {q:?}, per_shard {per_shard}"
                );
                for (m, r) in merged.iter().zip(reference.iter()) {
                    assert_eq!(m.url, r.url, "query {q:?}");
                    assert_eq!(m.doc.state, r.doc.state);
                    assert!(
                        (m.score - r.score).abs() < 1e-9,
                        "score mismatch for {q:?}: {} vs {}",
                        m.score,
                        r.score
                    );
                }
            }
        }
    }

    #[test]
    fn total_states_sums_shards() {
        let broker = build_sharded(&corpus(), 2);
        assert_eq!(broker.total_states(), 8);
        assert_eq!(broker.shard_count(), 2);
        assert!(broker.approx_bytes() > 0);
    }

    #[test]
    fn empty_query_empty_results() {
        let broker = build_sharded(&corpus(), 2);
        assert!(broker.search(&Query::parse("")).is_empty());
        assert!(broker.search(&Query::parse("absentterm")).is_empty());
    }

    #[test]
    fn shard_provenance_attached() {
        let broker = build_sharded(&corpus(), 1);
        let results = broker.search(&Query::parse("dance"));
        for r in &results {
            let shard = broker.shard(r.shard).unwrap();
            assert_eq!(shard.url_of(r.doc), r.url, "provenance must be consistent");
        }
        // "dance" occurs on pages 2 and 4, which live in shards 1 and 3.
        let shards: std::collections::BTreeSet<_> = results.iter().map(|r| r.shard).collect();
        assert_eq!(shards, [1usize, 3].into_iter().collect());
    }
}
