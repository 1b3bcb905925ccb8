//! The pieces every workload is assembled from: the seeded site, the
//! `ajax-search build` path, the query stream, closed-loop serving, and the
//! output checks.

use ajax_crawl::model::{AppModel, SiteModel};
use ajax_dist::{partition_models, ClusterConfig, DistCluster};
use ajax_dom::Fnv64;
use ajax_engine::{AjaxSearchEngine, EngineConfig};
use ajax_index::{
    load_index, save_index, tokenize, BrokerResult, IndexBuilder, InvertedIndex, Query,
    QueryBroker, RankWeights,
};
use ajax_net::{Server, Url};
use ajax_serve::{MetricsSnapshot, ServeConfig, ShardServer};
use ajax_webgen::queries::query_phrases;
use ajax_webgen::{GalleryServer, GallerySpec, VidShareServer, VidShareSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages (videos or albums) per site.
pub const PAGES: u32 = 400;
/// Index partitions behind both serving paths.
pub const SERVE_SHARDS: usize = 2;
/// `load_index` + first query repetitions after each build.
pub const OPENS_PER_BUILD: usize = 10;
/// The first query after `load_index`: the top Table 7.4 phrase, the same
/// for every seed.
pub const FIRST_QUERY: &str = "wow";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    VidShare,
    Gallery,
}

/// A seeded synthetic site and where its crawl starts.
pub struct Site {
    pub kind: SiteKind,
    pub server: Arc<dyn Server>,
    pub start: Url,
}

impl Site {
    pub fn new(kind: SiteKind, seed: u64) -> Self {
        match kind {
            SiteKind::VidShare => {
                let mut spec = VidShareSpec::small(PAGES);
                spec.seed = seed;
                let start = Url::parse(&spec.watch_url(0));
                Self {
                    kind,
                    server: Arc::new(VidShareServer::new(spec)),
                    start,
                }
            }
            SiteKind::Gallery => {
                let mut spec = GallerySpec::small(PAGES);
                spec.seed = seed;
                let start = Url::parse(&spec.page_url(0));
                Self {
                    kind,
                    server: Arc::new(GalleryServer::new(spec)),
                    start,
                }
            }
        }
    }

    /// The `ajax-search build --site …` configuration, except for
    /// `proc_lines = 2`, so virtual time does not follow the host.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::ajax(PAGES as usize);
        config.proc_lines = 2;
        config.keep_models = true;
        config.path_filter = Some(
            match self.kind {
                SiteKind::VidShare => "/watch",
                SiteKind::Gallery => "/album",
            }
            .to_string(),
        );
        config
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create() -> Result<Self, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        let dir = base.join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Signature over every crawled page graph, as `SiteModel` defines it.
pub fn graph_signature(models: &mut Vec<AppModel>) -> u64 {
    let site = SiteModel {
        pages: std::mem::take(models),
        hyperlinks: HashMap::new(),
        pagerank: HashMap::new(),
    };
    let signature = site.graph_signature();
    *models = site.pages;
    signature
}

/// What a crawl must reproduce: the state count and graph signature of an
/// untimed crawl of the same site with the static planner off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub states: u64,
    pub signature: u64,
}

/// Crawls `site` with pruning off and returns what every pruned crawl
/// must reproduce, plus the models the query stream is drawn from.
pub fn reference_crawl(site: &Site) -> Result<(Expected, Vec<AppModel>), String> {
    let mut config = site.engine_config();
    config.crawl = config.crawl.without_static_prune();
    let mut engine = AjaxSearchEngine::build(Arc::clone(&site.server), &site.start, config);
    check_no_failures(&engine)?;
    let expected = Expected {
        states: engine.report.total_states,
        signature: graph_signature(&mut engine.models),
    };
    Ok((expected, engine.models))
}

pub fn check_no_failures(engine: &AjaxSearchEngine) -> Result<(), String> {
    let r = &engine.report;
    if r.pages_failed > 0 || !r.failures.is_empty() {
        return Err(format!("{} pages failed to crawl", r.pages_failed));
    }
    Ok(())
}

/// Compares a crawl with the reference crawl.
pub fn check_crawl(expected: Expected, got: Expected) -> Result<(), String> {
    if got.states != expected.states {
        return Err(format!(
            "crawl found {} states; the unpruned reference crawl found {}",
            got.states, expected.states
        ));
    }
    if got.signature != expected.signature {
        return Err(format!(
            "crawl graph signature {:016x} differs from the unpruned reference {:016x}",
            got.signature, expected.signature
        ));
    }
    Ok(())
}

/// Deterministic generator for the query stream (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded query stream: one query in five is a Table 7.4 phrase, the
/// rest are 1–3 consecutive terms of a random indexed state, so every such
/// query matches at least that state.
pub fn query_stream(models: &[AppModel], seed: u64, len: usize) -> Vec<String> {
    let phrases = query_phrases();
    let states: Vec<&str> = models
        .iter()
        .flat_map(|m| m.states.iter().map(|s| s.text.as_str()))
        .collect();
    assert!(!states.is_empty(), "query stream needs crawled states");
    let mut rng = Rng::new(seed);
    let mut stream = Vec::with_capacity(len);
    while stream.len() < len {
        if rng.below(5) == 0 {
            stream.push(phrases[rng.below(phrases.len())].to_string());
            continue;
        }
        let tokens = tokenize(states[rng.below(states.len())]);
        if tokens.is_empty() {
            continue;
        }
        let width = 1 + rng.below(3.min(tokens.len()));
        let first = rng.below(tokens.len() - width + 1);
        let terms: Vec<&str> = tokens[first..first + width]
            .iter()
            .map(|t| t.term.as_str())
            .collect();
        stream.push(terms.join(" "));
    }
    stream
}

/// Digest of a ranked result list over what must be bit-identical across
/// serving paths: url, state, order and score bits. `shard` and `doc.page`
/// depend on the partitioning and are left out.
pub fn digest(results: &[BrokerResult]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(results.len() as u64);
    for r in results {
        h.write_str(&r.url);
        h.write_u64(u64::from(r.doc.state.0));
        h.write_u64(r.score.to_bits());
    }
    h.finish()
}

/// Digests of `QueryBroker::search` over `broker` for every query.
pub fn reference_digests(broker: &QueryBroker, stream: &[String]) -> Vec<u64> {
    stream
        .iter()
        .map(|q| digest(&broker.search(&Query::parse(q))))
        .collect()
}

/// Checks two digest lists position by position.
pub fn check_digests(
    what: &str,
    stream: &[String],
    want: &[u64],
    got: &[u64],
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{what}: {} answers for {} queries",
            got.len(),
            want.len()
        ));
    }
    match want.iter().zip(got).position(|(w, g)| w != g) {
        Some(i) => Err(format!(
            "{what}: query #{i} {:?} answered differently from QueryBroker::search",
            stream[i]
        )),
        None => Ok(()),
    }
}

/// One pass of the `ajax-search build` path, timed on the host.
pub struct BuildRun {
    pub engine: AjaxSearchEngine,
    pub states: u64,
    /// Start URL to committed v4 segment.
    pub commit_s: f64,
    /// Precrawl plus crawl makespan on the virtual clock.
    pub virtual_s: f64,
    pub disk_bytes: u64,
    /// `load_index` to first query result, one per reopen.
    pub open_ms: Vec<f64>,
    pub merged: InvertedIndex,
    pub loaded: InvertedIndex,
}

/// Merged index over the engine's models, as `ajax-search build` writes it.
pub fn merged_index(engine: &AjaxSearchEngine) -> InvertedIndex {
    let mut builder = IndexBuilder::new();
    for model in &engine.models {
        builder.add_model(model, engine.graph.pagerank.get(&model.url).copied());
    }
    builder.build()
}

/// Opens `path` and answers `probe` on it.
fn open_and_query(
    path: &Path,
    probe: &Query,
    weights: RankWeights,
) -> Result<InvertedIndex, String> {
    let index = load_index(path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let mut broker = QueryBroker::new(vec![index]);
    broker.weights = weights;
    black_box(broker.search(probe));
    Ok(broker.into_parts().0.pop().expect("one shard"))
}

/// Runs the build path: `AjaxSearchEngine::build`, merged `IndexBuilder`,
/// `save_index`, then `load_index` plus a first query, `OPENS_PER_BUILD`
/// times with the page cache warm.
pub fn build_path(site: &Site, work: &WorkDir) -> Result<BuildRun, String> {
    let path = work.file("index.v4");
    let t0 = Instant::now();
    let engine =
        AjaxSearchEngine::build(Arc::clone(&site.server), &site.start, site.engine_config());
    let merged = merged_index(&engine);
    save_index(&path, &merged).map_err(|e| format!("save {}: {e}", path.display()))?;
    let commit_s = t0.elapsed().as_secs_f64();
    check_no_failures(&engine)?;

    let probe = Query::parse(FIRST_QUERY);
    let mut open_ms = Vec::with_capacity(OPENS_PER_BUILD);
    let mut loaded = None;
    for _ in 0..OPENS_PER_BUILD {
        let t = Instant::now();
        let index = open_and_query(&path, &probe, engine.weights())?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        loaded = Some(index);
    }
    let disk_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat {}: {e}", path.display()))?
        .len();
    let r = &engine.report;
    Ok(BuildRun {
        states: r.total_states,
        commit_s,
        virtual_s: (r.precrawl_micros + r.virtual_makespan) as f64 / 1e6,
        disk_bytes,
        open_ms,
        merged,
        loaded: loaded.expect("at least one open"),
        engine,
    })
}

/// The loaded v4 segment must answer the stream bit-identically to the
/// in-memory index it was written from.
pub fn check_segment(run: &BuildRun, stream: &[String]) -> Result<(), String> {
    let mut in_memory = QueryBroker::new(vec![run.merged.clone()]);
    in_memory.weights = run.engine.weights();
    let mut on_disk = QueryBroker::new(vec![run.loaded.clone()]);
    on_disk.weights = run.engine.weights();
    check_digests(
        "loaded v4 segment",
        stream,
        &reference_digests(&in_memory, stream),
        &reference_digests(&on_disk, stream),
    )
}

/// The serving corpus: the crawl's models split into partitions.
pub struct Corpus {
    pub partitions: Vec<InvertedIndex>,
    pub weights: RankWeights,
}

impl Corpus {
    pub fn of(engine: &AjaxSearchEngine) -> Self {
        Self::new(&engine.models, &engine.graph.pagerank, engine.weights())
    }

    pub fn new(models: &[AppModel], pagerank: &HashMap<String, f64>, weights: RankWeights) -> Self {
        Self {
            partitions: partition_models(
                models,
                |url| pagerank.get(url).copied(),
                SERVE_SHARDS,
                None,
            ),
            weights,
        }
    }

    pub fn broker(&self) -> QueryBroker {
        let mut broker = QueryBroker::new(self.partitions.clone());
        broker.weights = self.weights;
        broker
    }

    pub fn local_server(&self) -> ShardServer {
        ShardServer::new(self.broker(), ServeConfig::default())
    }

    pub fn cluster(&self) -> Result<DistCluster, String> {
        DistCluster::launch_threads(
            self.partitions.clone(),
            self.weights,
            ClusterConfig {
                serve: ServeConfig::default(),
                hedge_after_micros: None,
                chaos: None,
            },
        )
        .map_err(|e| format!("cluster launch: {e}"))
    }
}

/// How long serving runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Queries(usize),
    Time(Duration),
}

/// Queries per block; the two paths take turns block by block, so both
/// see the same host conditions.
const BLOCK: usize = 250;

/// One path's closed-loop serving: a single client sends the next query
/// when the previous answer arrives.
pub struct ServePhase {
    pub latency_us: Vec<f64>,
    /// Per query, in stream order: answered from the result cache.
    pub cached: Vec<bool>,
    pub shed: u64,
    pub degraded: u64,
    /// On-CPU time of every thread of the process while this path served.
    pub cpu_ns: u64,
    pub metrics: MetricsSnapshot,
}

impl ServePhase {
    fn new(server: &ShardServer) -> Self {
        Self {
            latency_us: Vec::new(),
            cached: Vec::new(),
            shed: 0,
            degraded: 0,
            cpu_ns: 0,
            metrics: server.metrics_snapshot(),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latency_us.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.degraded
    }

    /// Mean on-CPU time per query, all threads, in microseconds.
    pub fn cpu_us_per_query(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.attempted().max(1) as f64
    }

    /// Serves `stream[k]` and checks a complete answer against `want[k]`
    /// (the digest of `QueryBroker::search`).
    fn serve(
        &mut self,
        what: &str,
        server: &ShardServer,
        stream: &[String],
        want: &[u64],
        k: usize,
    ) -> Result<(), String> {
        let t = Instant::now();
        let answer = server.search(&stream[k]);
        self.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.cached
            .push(answer.as_ref().is_ok_and(|resp| resp.from_cache));
        match answer {
            Err(_) => self.shed += 1,
            Ok(resp) if resp.degraded => self.degraded += 1,
            Ok(resp) => {
                if digest(&resp.results) != want[k] {
                    return Err(format!(
                        "{what}: query {:?} answered differently from QueryBroker::search",
                        stream[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Serves `stream` (cycling) through the in-process `ShardServer` and the
/// TCP cluster in alternating blocks, checking every complete answer.
pub fn serve_both(
    local: &ShardServer,
    dist: &ShardServer,
    stream: &[String],
    want: &[u64],
    budget: Budget,
) -> Result<(ServePhase, ServePhase), String> {
    let started = Instant::now();
    let (mut local_phase, mut dist_phase) = (ServePhase::new(local), ServePhase::new(dist));
    let mut next = 0;
    loop {
        let done = match budget {
            Budget::Queries(n) => next >= n,
            Budget::Time(d) => started.elapsed() >= d,
        };
        if done {
            break;
        }
        let block = match budget {
            Budget::Queries(n) => next..(next + BLOCK).min(n),
            Budget::Time(_) => next..next + BLOCK,
        };
        let cpu = process_cpu_ns()?;
        for i in block.clone() {
            local_phase.serve(
                "in-process ShardServer",
                local,
                stream,
                want,
                i % stream.len(),
            )?;
        }
        let between = process_cpu_ns()?;
        for i in block.clone() {
            dist_phase.serve("2-shard DistCluster", dist, stream, want, i % stream.len())?;
        }
        let after = process_cpu_ns()?;
        local_phase.cpu_ns += between.saturating_sub(cpu);
        dist_phase.cpu_ns += after.saturating_sub(between);
        next = block.end;
    }
    local_phase.metrics = local.metrics_snapshot();
    dist_phase.metrics = dist.metrics_snapshot();
    Ok((local_phase, dist_phase))
}

/// On-CPU nanoseconds of the process's live threads, from
/// `/proc/self/task/*/schedstat`. Serving threads live as long as their
/// server, so block-to-block differences cover all serving work.
pub fn process_cpu_ns() -> Result<u64, String> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| format!("list threads: {e}"))?;
    let mut total = 0;
    for task in tasks {
        let path = task.map_err(|e| format!("list threads: {e}"))?.path();
        // A thread that exits while we list is simply gone.
        let Ok(stat) = std::fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        total += stat
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| format!("unreadable {}", path.display()))?;
    }
    Ok(total)
}

/// Launches both serving paths over `corpus`, serves, and shuts both down.
pub fn serve_corpus(
    corpus: &Corpus,
    stream: &[String],
    want: &[u64],
    budget: Budget,
) -> Result<(ServePhase, ServePhase), String> {
    let mut local = corpus.local_server();
    let mut cluster = corpus.cluster()?;
    let phases = serve_both(&local, &cluster.server, stream, want, budget);
    local.shutdown();
    cluster.shutdown();
    phases
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vidshare() -> AjaxSearchEngine {
        let mut spec = VidShareSpec::small(12);
        spec.seed = 5;
        let start = Url::parse(&spec.watch_url(0));
        let mut config = EngineConfig::ajax(12);
        config.keep_models = true;
        AjaxSearchEngine::build(Arc::new(VidShareServer::new(spec)), &start, config)
    }

    #[test]
    fn mismatched_state_count_or_signature_fails_the_crawl_check() {
        let want = Expected {
            states: 40,
            signature: 7,
        };
        assert!(check_crawl(want, want).is_ok());
        let fewer = Expected { states: 39, ..want };
        assert!(check_crawl(want, fewer).unwrap_err().contains("39 states"));
        let other = Expected {
            signature: 8,
            ..want
        };
        assert!(check_crawl(want, other).unwrap_err().contains("signature"));
    }

    #[test]
    fn mismatched_result_fails_both_serving_paths() {
        let engine = small_vidshare();
        let corpus = Corpus::of(&engine);
        let stream = query_stream(&engine.models, 3, 40);
        let mut want = reference_digests(&corpus.broker(), &stream);
        let (local, dist) = serve_corpus(&corpus, &stream, &want, Budget::Queries(40))
            .expect("matching answers pass");
        assert_eq!((local.attempted(), dist.attempted()), (40, 40));
        assert_eq!(local.failed() + dist.failed(), 0);

        want[17] ^= 1;
        let err = match serve_corpus(&corpus, &stream, &want, Budget::Queries(40)) {
            Ok(_) => panic!("a mismatched answer must fail the check"),
            Err(e) => e,
        };
        assert!(err.contains("answered differently"), "{err}");
        assert!(check_digests(
            "x",
            &stream,
            &want,
            &reference_digests(&corpus.broker(), &stream)
        )
        .unwrap_err()
        .contains("query #17"));
    }

    #[test]
    fn digest_covers_order_and_score_bits() {
        let engine = small_vidshare();
        let results = engine.search("wow");
        assert!(results.len() >= 2, "need two results to reorder");
        let mut swapped = results.clone();
        swapped.swap(0, 1);
        assert_ne!(digest(&results), digest(&swapped));
        let mut nudged = results.clone();
        nudged[0].score = f64::from_bits(nudged[0].score.to_bits() ^ 1);
        assert_ne!(digest(&results), digest(&nudged));
        let mut other_shard = results.clone();
        other_shard[0].shard += 1;
        assert_eq!(digest(&results), digest(&other_shard));
    }

    #[test]
    fn query_stream_is_seeded() {
        let engine = small_vidshare();
        let a = query_stream(&engine.models, 9, 200);
        assert_eq!(a, query_stream(&engine.models, 9, 200));
        assert_ne!(a, query_stream(&engine.models, 10, 200));
        let phrases = a
            .iter()
            .filter(|q| query_phrases().contains(&q.as_str()))
            .count();
        assert!((20..=80).contains(&phrases), "{phrases} phrases of 200");
    }
}
