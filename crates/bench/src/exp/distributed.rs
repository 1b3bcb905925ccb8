//! Distributed serving (the `ajax-dist` subsystem): QPS scaling across
//! shard counts, tail latency under an injected slow shard, and the effect
//! of hedged requests — all over the thesis' 100-query VidShare workload.
//!
//! Three phases, each against in-process (thread-mode) shard servers
//! speaking the real TCP protocol through the coordinator:
//!
//! 1. **scaling** — the workload, cycled to [`QUERIES_PER_REPEAT`] queries,
//!    runs through 1-, 2- and 4-shard clusters (result cache off, so every
//!    query crosses the wire and evaluates), [`REPEATS`] times with the
//!    shard counts interleaved so host drift hits each alike. QPS, p50 and
//!    p99 are reported as the median and min–max over the repeats. Every
//!    merged result list is checked bit-identical to an in-process broker
//!    over the same corpus.
//! 2. **fault injection** — a 2-shard cluster where every reply chunk from
//!    shard 1 is slowed through a [`ajax_net::FaultProxy`]; p99 is measured
//!    with hedging off, then with hedging on (the hedge path re-issues on a
//!    direct connection, bypassing the chaos proxy), results identical in
//!    both runs.
//! 3. **determinism** — two independently launched 2-shard clusters run the
//!    workload; every merged result list must be bit-identical.

use crate::util::TableFmt;
use ajax_crawl::model::AppModel;
use ajax_dist::{partition_models, ClusterConfig, DistCluster};
use ajax_engine::{AjaxSearchEngine, EngineConfig};
use ajax_index::{BrokerResult, Query, QueryBroker, RankWeights};
use ajax_net::{Fault, FaultPlan, FaultRule, ProxyConfig, Url};
use ajax_serve::ServeConfig;
use ajax_webgen::queries::query_phrases;
use ajax_webgen::{VidShareServer, VidShareSpec};
use serde::Serialize;
use std::sync::Arc;

/// Seed for the fault plan (the sweep is deterministic given this).
const FAULT_SEED: u64 = 11;
/// Every reply chunk from the slow shard sleeps `(factor - 1) ×
/// slow_chunk_micros`.
const SLOW_FACTOR: f64 = 20.0;
/// Hedge fires this long after ship when a shard hasn't answered.
const HEDGE_AFTER_MICROS: u64 = 2_000;
/// Scaling-phase repeats per shard count.
pub const REPEATS: usize = 5;
/// Queries per scaling repeat (the 100-query workload, cycled).
pub const QUERIES_PER_REPEAT: usize = 1_000;

/// The median and the min–max spread of one measurement over the repeats.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Self {
        Self {
            median: percentile(samples, 0.5),
            min: percentile(samples, 0.0),
            max: percentile(samples, 1.0),
        }
    }
}

/// One shard-count cell of the scaling phase.
#[derive(Debug, Clone, Serialize)]
pub struct ShardScaling {
    pub shards: usize,
    /// Queries per repeat.
    pub queries: usize,
    pub repeats: usize,
    pub qps: Spread,
    pub p50_micros: Spread,
    pub p99_micros: Spread,
    /// Merged results bit-identical to the in-process broker (documents,
    /// order, score bits).
    pub matches_single_process: bool,
}

/// The slow-shard cell: p99 with hedging off vs on.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCell {
    pub shards: usize,
    pub slow_factor: f64,
    pub hedge_after_micros: u64,
    pub p99_hedge_off_micros: f64,
    pub p99_hedge_on_micros: f64,
    /// Hedge requests actually issued during the hedge-on run.
    pub hedges_fired: u64,
    /// Both runs returned complete (non-degraded) result sets — hedging
    /// affects latency, never results.
    pub full_results: bool,
}

/// The whole experiment.
#[derive(Debug, Clone, Serialize)]
pub struct DistributedData {
    pub videos: u64,
    pub queries: u64,
    pub scaling: Vec<ShardScaling>,
    pub fault: FaultCell,
    /// Two independent cluster launches produced bit-identical merged
    /// results for the entire workload.
    pub deterministic: bool,
}

/// One shard count's per-repeat samples while the scaling phase runs.
struct ScalingRuns {
    shards: usize,
    qps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    matches: bool,
}

struct Corpus {
    models: Vec<AppModel>,
    pagerank: std::collections::HashMap<String, f64>,
    weights: RankWeights,
}

fn build_corpus(videos: u32) -> Corpus {
    let spec = VidShareSpec::small(videos);
    let start = Url::parse(&spec.watch_url(0));
    let site = Arc::new(VidShareServer::new(spec));
    let mut config = EngineConfig::ajax(videos as usize);
    config.keep_models = true;
    let engine = AjaxSearchEngine::build(site, &start, config);
    Corpus {
        pagerank: engine.graph.pagerank.clone(),
        weights: engine.weights(),
        models: engine.models,
    }
}

fn launch(corpus: &Corpus, shards: usize, config: ClusterConfig) -> DistCluster {
    let partitions = partition_models(
        &corpus.models,
        |url| corpus.pagerank.get(url).copied(),
        shards,
        None,
    );
    DistCluster::launch_threads(partitions, corpus.weights, config).expect("cluster launch")
}

/// Serving config for honest QPS: cache off, admission uncapped.
fn bench_serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_cache_capacity(0)
        .with_max_in_flight(usize::MAX)
}

/// Runs the workload sequentially, returning (per-query µs, merged results,
/// any degraded).
fn run_workload(
    cluster: &DistCluster,
    workload: &[&str],
) -> (Vec<f64>, Vec<Vec<BrokerResult>>, bool) {
    let mut samples = Vec::with_capacity(workload.len());
    let mut all_results = Vec::with_capacity(workload.len());
    let mut degraded = false;
    for q in workload {
        let t0 = std::time::Instant::now();
        let resp = cluster.server.search(q).expect("admitted");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        degraded |= resp.degraded;
        all_results.push(resp.results);
    }
    (samples, all_results, degraded)
}

/// Partition-invariant bit-equality of two merged result lists: same
/// documents (`url`, `doc.state`), same order, same score bits. `shard` and
/// `doc.page` are partition-relative provenance and excluded.
fn results_identical(a: &[Vec<BrokerResult>], b: &[Vec<BrokerResult>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb.iter()).all(|(x, y)| {
                    x.url == y.url
                        && x.doc.state == y.doc.state
                        && x.score.to_bits() == y.score.to_bits()
                })
        })
}

fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs all three phases over `videos` VidShare pages; the scaling phase
/// makes `repeats` runs of `queries` queries per shard count.
pub fn collect(videos: u32, repeats: usize, queries: usize) -> DistributedData {
    let workload = query_phrases();
    let corpus = build_corpus(videos);

    // In-process reference: a single broker over the whole corpus.
    let mut broker = QueryBroker::new(partition_models(
        &corpus.models,
        |url| corpus.pagerank.get(url).copied(),
        1,
        None,
    ));
    broker.weights = corpus.weights;
    let reference: Vec<Vec<BrokerResult>> = workload
        .iter()
        .map(|q| broker.search(&Query::parse(q)))
        .collect();

    // Phase 1: QPS scaling across shard counts, shard counts interleaved
    // within each repeat.
    const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
    let cycled: Vec<&str> = workload.iter().copied().cycle().take(queries).collect();
    let cycled_reference: Vec<Vec<BrokerResult>> = (0..queries)
        .map(|i| reference[i % reference.len()].clone())
        .collect();
    let mut cells: Vec<ScalingRuns> = SHARD_COUNTS
        .iter()
        .map(|&shards| ScalingRuns {
            shards,
            qps: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            matches: true,
        })
        .collect();
    for repeat in 1..=repeats {
        for cell in &mut cells {
            let shards = cell.shards;
            eprintln!("[distributed] scaling: {shards} shard(s), repeat {repeat}/{repeats}…");
            let mut cluster = launch(
                &corpus,
                shards,
                ClusterConfig {
                    serve: bench_serve_config(),
                    hedge_after_micros: None,
                    chaos: None,
                },
            );
            let t0 = std::time::Instant::now();
            let (samples, results, _) = run_workload(&cluster, &cycled);
            let wall_secs = t0.elapsed().as_secs_f64();
            cluster.shutdown();
            cell.qps.push(queries as f64 / wall_secs.max(1e-9));
            cell.p50.push(percentile(&samples, 0.50));
            cell.p99.push(percentile(&samples, 0.99));
            cell.matches &= results_identical(&results, &cycled_reference);
        }
    }
    let scaling = cells
        .into_iter()
        .map(|cell| ShardScaling {
            shards: cell.shards,
            queries,
            repeats,
            qps: Spread::of(&cell.qps),
            p50_micros: Spread::of(&cell.p50),
            p99_micros: Spread::of(&cell.p99),
            matches_single_process: cell.matches,
        })
        .collect();

    // Phase 2: slow shard 1, hedging off vs on.
    let chaos = ProxyConfig::new(FaultPlan::new(FAULT_SEED).with_rule(FaultRule::matching(
        "shard1/reply",
        1.0,
        Fault::Slow {
            factor: SLOW_FACTOR,
        },
    )));
    eprintln!("[distributed] fault cell: slow shard, hedging off…");
    let mut slow_off = launch(
        &corpus,
        2,
        ClusterConfig {
            serve: bench_serve_config(),
            hedge_after_micros: None,
            chaos: Some(chaos.clone()),
        },
    );
    let (off_samples, off_results, off_degraded) = run_workload(&slow_off, workload);
    slow_off.shutdown();

    eprintln!("[distributed] fault cell: slow shard, hedging on…");
    let mut slow_on = launch(
        &corpus,
        2,
        ClusterConfig {
            serve: bench_serve_config(),
            hedge_after_micros: Some(HEDGE_AFTER_MICROS),
            chaos: Some(chaos),
        },
    );
    let (on_samples, on_results, on_degraded) = run_workload(&slow_on, workload);
    let hedges_fired = slow_on.hedges_fired();
    slow_on.shutdown();

    let fault = FaultCell {
        shards: 2,
        slow_factor: SLOW_FACTOR,
        hedge_after_micros: HEDGE_AFTER_MICROS,
        p99_hedge_off_micros: percentile(&off_samples, 0.99),
        p99_hedge_on_micros: percentile(&on_samples, 0.99),
        hedges_fired,
        full_results: !off_degraded
            && !on_degraded
            && results_identical(&off_results, &reference)
            && results_identical(&on_results, &reference),
    };

    // Phase 3: determinism — two independent launches, identical output.
    eprintln!("[distributed] determinism: second 2-shard launch…");
    let mut first = launch(
        &corpus,
        2,
        ClusterConfig {
            serve: bench_serve_config(),
            hedge_after_micros: None,
            chaos: None,
        },
    );
    let (_, run_a, _) = run_workload(&first, workload);
    first.shutdown();
    let mut second = launch(
        &corpus,
        2,
        ClusterConfig {
            serve: bench_serve_config(),
            hedge_after_micros: None,
            chaos: None,
        },
    );
    let (_, run_b, _) = run_workload(&second, workload);
    second.shutdown();

    DistributedData {
        videos: videos as u64,
        queries: workload.len() as u64,
        scaling,
        fault,
        deterministic: results_identical(&run_a, &run_b),
    }
}

impl DistributedData {
    /// All correctness invariants hold: every shard count matched the
    /// in-process broker, the fault cell kept full results, and two
    /// launches agreed bit-for-bit.
    pub fn all_consistent(&self) -> bool {
        self.scaling.iter().all(|s| s.matches_single_process)
            && self.fault.full_results
            && self.deterministic
    }

    /// Renders the scaling table and the fault/hedging summary.
    pub fn render(&self) -> String {
        let mut t = TableFmt::new(vec![
            "shards",
            "queries",
            "QPS [min–max]",
            "p50 µs [min–max]",
            "p99 µs [min–max]",
            "= single",
        ]);
        let cell = |s: &Spread, digits: usize| {
            format!(
                "{:.digits$} [{:.digits$}–{:.digits$}]",
                s.median, s.min, s.max
            )
        };
        for s in &self.scaling {
            t.row(vec![
                s.shards.to_string(),
                format!("{}×{}", s.repeats, s.queries),
                cell(&s.qps, 0),
                cell(&s.p50_micros, 1),
                cell(&s.p99_micros, 1),
                if s.matches_single_process {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
            ]);
        }
        format!(
            "Distributed serving — doc-partitioned shards over TCP, {}-query workload \
             (scaling: median [min–max] over repeats)\n{}\n\
             slow-shard fault (x{:.0} on shard 1 replies): p99 {:.1} ms hedge-off \
             → {:.1} ms hedge-on ({} hedges fired, full results: {})\n\
             determinism across launches: {}\n",
            self.queries,
            t.render(),
            self.fault.slow_factor,
            self.fault.p99_hedge_off_micros / 1e3,
            self.fault.p99_hedge_on_micros / 1e3,
            self.fault.hedges_fired,
            if self.fault.full_results { "yes" } else { "NO" },
            if self.deterministic { "yes" } else { "NO" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criteria of the distributed subsystem at test scale:
    /// bit-identical results for every shard count, hedging fires under a
    /// slow shard without changing results, determinism across launches.
    #[test]
    fn distributed_meets_acceptance_criteria() {
        let data = collect(10, 2, 150);
        assert_eq!(data.scaling.len(), 3);
        for s in &data.scaling {
            assert!(
                s.matches_single_process,
                "{} shards diverged from the in-process broker",
                s.shards
            );
            assert!(s.qps.min > 0.0);
            assert!(s.qps.min <= s.qps.median && s.qps.median <= s.qps.max);
        }
        assert!(
            data.fault.hedges_fired > 0,
            "a uniformly slow shard must trigger hedges"
        );
        assert!(data.fault.full_results, "hedging must not change results");
        assert!(data.deterministic, "launches must agree bit-for-bit");
        assert!(data.all_consistent());
        assert!(data.render().contains("Distributed serving"));
    }
}
