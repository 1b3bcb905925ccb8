//! The end-to-end run (`--trace 0`): every end-to-end metric, with no
//! per-layer timers.

use crate::pipeline::{
    build_path, check_crawl, check_segment, graph_signature, peak_rss_mb, query_stream,
    reference_crawl, reference_digests, serve_both, serve_corpus, Budget, BuildRun, Corpus,
    Expected, ServePhase, Site, SiteKind, WorkDir,
};
use crate::report::Outcome;
use crate::stats::{median, Tail};
use crate::{Args, Workload};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Distinct queries in the stream (served cyclically).
pub const STREAM: usize = 6000;
/// Stream prefix the loaded v4 segment must answer like the in-memory index.
pub const SEGMENT_CHECK_QUERIES: usize = 3000;

/// Medians over the build passes of one run.
#[derive(Default)]
struct BuildFigures {
    states_per_s: Vec<f64>,
    virtual_s: Vec<f64>,
    bytes_per_state: Vec<f64>,
    open_ms: Vec<f64>,
    pages: u64,
}

impl BuildFigures {
    fn record(&mut self, run: &BuildRun) {
        self.states_per_s.push(run.states as f64 / run.commit_s);
        self.virtual_s.push(run.virtual_s);
        self.bytes_per_state
            .push(run.disk_bytes as f64 / run.states as f64);
        self.open_ms.extend_from_slice(&run.open_ms);
        self.pages += run.engine.report.pages_crawled as u64;
    }
}

/// Builds once, checking the crawl against `expected`.
fn checked_build(site: &Site, work: &WorkDir, expected: Expected) -> Result<BuildRun, String> {
    let mut run = build_path(site, work)?;
    let got = Expected {
        states: run.states,
        signature: graph_signature(&mut run.engine.models),
    };
    check_crawl(expected, got)?;
    Ok(run)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create()?;
    match args.workload {
        Workload::BuildVidShare => build_workload(args, SiteKind::VidShare, &work),
        Workload::BuildGallery => build_workload(args, SiteKind::Gallery, &work),
        Workload::ServeVidShare => serve_workload(args, &work),
    }
}

/// `build-*`: set-up is site construction plus the unpruned reference
/// crawl the checks compare against; the timed part repeats the build path
/// for three quarters of `--seconds`, then serves the stream on both paths
/// for the last quarter.
fn build_workload(args: &Args, kind: SiteKind, work: &WorkDir) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take()); // Release the previous set-up first.
        let t = Instant::now();
        let site = Site::new(kind, args.seed);
        let (expected, models) = reference_crawl(&site)?;
        let stream = query_stream(&models, args.seed, STREAM);
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((site, expected, stream));
    }
    let (site, expected, stream) = prepared.expect("at least one set-up");

    let mut figures = BuildFigures::default();
    let started = Instant::now();
    let mut last = None;
    while last.is_none() || started.elapsed() < args.seconds * 3 / 4 {
        drop(last.take());
        let run = checked_build(&site, work, expected)?;
        figures.record(&run);
        last = Some(run);
    }
    let last = last.expect("at least one build");
    check_segment(&last, &stream[..SEGMENT_CHECK_QUERIES])?;
    println!(
        "checked {} builds: no failed page, graph signature {:016x} and {} states equal to the \
         unpruned crawl, v4 segment answers {} queries bit-identically",
        figures.states_per_s.len(),
        expected.signature,
        expected.states,
        SEGMENT_CHECK_QUERIES
    );

    let corpus = Corpus::of(&last.engine);
    drop(last);
    let want = reference_digests(&corpus.broker(), &stream);
    let budget = Budget::Time(args.seconds / 4);
    let (local, dist) = serve_corpus(&corpus, &stream, &want, budget)?;
    finish(setup_s, figures, local, dist)
}

/// `serve-vidshare`: set-up builds the corpus through the build path,
/// partitions it and launches the cluster; the timed part serves the
/// stream for `--seconds`, in process and over TCP by turns.
fn serve_workload(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut figures = BuildFigures::default();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take()); // Release the previous set-up first.
        let t = Instant::now();
        let site = Site::new(SiteKind::VidShare, args.seed);
        let run = build_path(&site, work)?;
        let corpus = Corpus::of(&run.engine);
        let stream = query_stream(&run.engine.models, args.seed, STREAM);
        let want = reference_digests(&corpus.broker(), &stream);
        let cluster = corpus.cluster()?;
        setup_s.push(t.elapsed().as_secs_f64());
        figures.record(&run);
        prepared = Some((run, corpus, stream, want, cluster));
    }
    let (run, corpus, stream, want, mut cluster) = prepared.expect("at least one set-up");
    check_segment(&run, &stream[..SEGMENT_CHECK_QUERIES])?;
    drop(run);

    let mut local_server = corpus.local_server();
    let served = serve_both(
        &local_server,
        &cluster.server,
        &stream,
        &want,
        Budget::Time(args.seconds),
    );
    local_server.shutdown();
    cluster.shutdown();
    let (local, dist) = served?;
    println!(
        "checked every complete answer on both paths against QueryBroker::search over the same \
         {} partitions ({} distinct queries)",
        corpus.partitions.len(),
        stream.len()
    );
    finish(setup_s, figures, local, dist)
}

fn finish(
    setup_s: Vec<f64>,
    figures: BuildFigures,
    local: ServePhase,
    dist: ServePhase,
) -> Result<Outcome, String> {
    println!("local latency {}", Tail::of(&local.latency_us).render("us"));
    println!("dist latency {}", Tail::of(&dist.latency_us).render("us"));
    println!(
        "cold open: load_index + first query, page cache warm, {}",
        Tail::of(&figures.open_ms).render("ms")
    );
    println!(
        "builds measured: {}, set-ups: {}",
        figures.states_per_s.len(),
        setup_s.len()
    );

    let mut out = Outcome {
        attempted: figures.pages + local.attempted() + dist.attempted(),
        failed: local.failed() + dist.failed(),
        ..Outcome::default()
    };
    out.push("setup_s", "s", median(&setup_s));
    out.push("build_states_per_s", "1/s", median(&figures.states_per_s));
    out.push("virtual_crawl_s", "s", median(&figures.virtual_s));
    out.push(
        "index_bytes_per_state",
        "B",
        median(&figures.bytes_per_state),
    );
    out.push("cold_open_ms", "ms", median(&figures.open_ms));
    out.push("peak_rss_mb", "MiB", peak_rss_mb()?);
    out.push("local_cpu_us", "us", local.cpu_us_per_query());
    out.push("dist_cpu_us", "us", dist.cpu_us_per_query());
    Ok(out)
}
