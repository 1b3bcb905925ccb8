//! The traced run (`--trace 1`): per-layer metrics, timed from here around
//! calls into each layer's public functions. No program code changes.
//!
//! Four totals are split into stage rows plus an unattributed row:
//! - the build path, re-run stage by stage (`build.*`);
//! - a serial crawl, charged with per-call costs replayed through the
//!   public `Browser` API (`crawl.unattributed_ms`);
//! - query evaluation, as `Query::parse`, `eval_shard` and
//!   `merge_shard_outputs`;
//! - the TCP cluster's latency, charged per query with the same query's
//!   in-process latency and its reply frames' encode and decode
//!   (`dist.unattributed_p50_us`).

use crate::pipeline::{
    build_path, check_crawl, digest, graph_signature, query_stream, reference_crawl,
    reference_digests, serve_corpus, Budget, Corpus, Expected, Site, SiteKind, WorkDir,
    FIRST_QUERY,
};
use crate::report::{Attribution, Outcome};
use crate::stats::{median, percentile, Tail};
use crate::{Args, Workload};
use ajax_crawl::browser::{Browser, CrawlEnv};
use ajax_crawl::hotnode::HotNodeCache;
use ajax_crawl::model::AppModel;
use ajax_crawl::{analyze_page, partition_urls, Crawler, MpCrawler, PageStats, Precrawler};
use ajax_dist::proto::{read_message, write_message, EvalReply, Message};
use ajax_dom::events::collect_event_bindings;
use ajax_dom::{changed_roots, parse_document, parse_fragment};
use ajax_index::{
    build_index_parallel, eval_shard, merge_shard_outputs, save_index, tokenize, IndexBuilder,
    Query, QueryBroker,
};
use ajax_net::server::{Request, Response};
use ajax_net::{NetClient, Server, Url};
use ajax_obs::Recorder;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Queries in the traced query-side and serving passes.
const TRACE_QUERIES: usize = 2000;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// A `Server` decorator that times every `handle` call and counts requests
/// and response bytes, optionally keeping every response.
struct TimingServer {
    inner: Arc<dyn Server>,
    nanos: AtomicU64,
    requests: AtomicU64,
    bytes: AtomicU64,
    captured: Option<Mutex<Vec<(String, String)>>>,
}

impl TimingServer {
    fn new(inner: Arc<dyn Server>, capture: bool) -> Arc<Self> {
        Arc::new(Self {
            inner,
            nanos: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            captured: capture.then(|| Mutex::new(Vec::new())),
        })
    }

    fn handle_ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn take_captured(&self) -> Vec<(String, String)> {
        self.captured
            .as_ref()
            .map(|c| std::mem::take(&mut *c.lock().expect("capture lock poisoned")))
            .unwrap_or_default()
    }
}

impl Server for TimingServer {
    fn handle(&self, request: &Request) -> Response {
        let t = Instant::now();
        let response = self.inner.handle(request);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(response.body.len() as u64, Ordering::Relaxed);
        if let Some(captured) = &self.captured {
            captured
                .lock()
                .expect("capture lock poisoned")
                .push((request.url.to_string(), response.body.clone()));
        }
        response
    }
}

/// The build path, stage by stage, as `AjaxSearchEngine::build` and
/// `ajax-search build` run it.
struct TracedBuild {
    attribution: Attribution,
    precrawl_ms: f64,
    mp_crawl_ms: f64,
    partition_ms: f64,
    build_ms: f64,
    save_ms: f64,
    open_us: f64,
    first_query_us: f64,
    disk_bytes: u64,
    virtual_s: f64,
    urls: Vec<String>,
    models: Vec<AppModel>,
    pagerank: HashMap<String, f64>,
    webgen: Arc<TimingServer>,
}

fn traced_build(site: &Site, work: &WorkDir) -> Result<TracedBuild, String> {
    let config = site.engine_config();
    let webgen = TimingServer::new(Arc::clone(&site.server), false);
    let server: Arc<dyn Server> = webgen.clone();
    let path = work.file("traced.v4");
    let total = Instant::now();

    let t = Instant::now();
    let mut precrawler =
        Precrawler::new(Arc::clone(&server), config.latency.clone()).with_retry(config.crawl.retry);
    precrawler.path_filter = config.path_filter.clone();
    let graph = precrawler.run(&site.start, config.precrawl_pages);
    let precrawl_ms = ms(t);

    let partitions = partition_urls(&graph.urls, config.partition_size);
    let t = Instant::now();
    let report = MpCrawler::new(server, config.latency.clone(), config.crawl.clone())
        .with_proc_lines(config.proc_lines)
        .with_cores(config.cores)
        .with_quarantine_after(config.quarantine_after)
        .crawl(&partitions);
    let mp_crawl_ms = ms(t);
    if report.failed_pages > 0 {
        return Err(format!("{} pages failed to crawl", report.failed_pages));
    }

    let t = Instant::now();
    let mut shards = Vec::with_capacity(report.partitions.len());
    for partition in &report.partitions {
        let refs: Vec<(&AppModel, Option<f64>)> = partition
            .models
            .iter()
            .map(|m| (m, graph.pagerank.get(&m.url).copied()))
            .collect();
        shards.push(build_index_parallel(
            &refs,
            config.max_index_states,
            config.cores.max(1),
        ));
    }
    let partition_ms = ms(t);
    let broker = black_box(QueryBroker::new(shards));

    let models: Vec<AppModel> = report
        .partitions
        .into_iter()
        .flat_map(|p| p.models)
        .collect();
    let t = Instant::now();
    let mut builder = IndexBuilder::new();
    for model in &models {
        builder.add_model(model, graph.pagerank.get(&model.url).copied());
    }
    let merged = builder.build();
    let build_ms = ms(t);

    let t = Instant::now();
    save_index(&path, &merged).map_err(|e| format!("save {}: {e}", path.display()))?;
    let save_ms = ms(t);

    let t = Instant::now();
    let index =
        ajax_index::load_index(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let open_us = us(t);
    let t = Instant::now();
    let mut opened = QueryBroker::new(vec![index]);
    opened.weights = config.weights;
    black_box(opened.search(&Query::parse(FIRST_QUERY)));
    let first_query_us = us(t);
    let total_ms = ms(total);

    if broker.total_states() != merged.total_states {
        return Err(format!(
            "partition indexes hold {} states, the merged index {}",
            broker.total_states(),
            merged.total_states
        ));
    }
    let mut attribution = Attribution::new(total_ms);
    attribution
        .row("crawl.precrawl_ms", precrawl_ms)
        .row("crawl.mp_crawl_ms", mp_crawl_ms)
        .row("index.partition_ms", partition_ms)
        .row("index.build_ms", build_ms)
        .row("index.save_ms", save_ms)
        .row("index.open_ms", open_us / 1e3)
        .row("index.first_query_ms", first_query_us / 1e3);
    Ok(TracedBuild {
        attribution,
        precrawl_ms,
        mp_crawl_ms,
        partition_ms,
        build_ms,
        save_ms,
        open_us,
        first_query_us,
        disk_bytes: std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len(),
        virtual_s: (graph.precrawl_micros + report.virtual_makespan) as f64 / 1e6,
        urls: graph.urls,
        models,
        pagerank: graph.pagerank,
        webgen,
    })
}

/// A serial `Crawler::crawl_page` pass over every page.
struct SerialCrawl {
    total_ms: f64,
    page_us: Vec<f64>,
    stats: PageStats,
    webgen_ms: f64,
    /// Every (url, body) the site served, in request order.
    responses: Vec<(String, String)>,
}

fn serial_crawl(site: &Site, urls: &[String]) -> Result<SerialCrawl, String> {
    let config = site.engine_config();
    let webgen = TimingServer::new(Arc::clone(&site.server), true);
    let mut crawler = Crawler::new(webgen.clone(), config.latency.clone(), config.crawl.clone());
    let mut stats = PageStats::default();
    let mut page_us = Vec::with_capacity(urls.len());
    let total = Instant::now();
    for url in urls {
        let t = Instant::now();
        let page = crawler
            .crawl_page(&Url::parse(url))
            .map_err(|e| format!("serial crawl of {url}: {e}"))?;
        page_us.push(us(t));
        stats.merge(&page.stats);
    }
    Ok(SerialCrawl {
        total_ms: ms(total),
        page_us,
        stats,
        webgen_ms: webgen.handle_ms(),
        responses: webgen.take_captured(),
    })
}

/// Mean per-call host costs from replaying crawled pages through the
/// public `Browser` API.
#[derive(Default)]
struct Replay {
    parse_ms: f64,
    page_parse_us: Vec<f64>,
    analysis_us: Vec<f64>,
    load_us: Vec<f64>,
    fire_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    restore_us: Vec<f64>,
    hash_us: Vec<f64>,
    diff_us: Vec<f64>,
    text_us: Vec<f64>,
}

/// Loads every page and fires each initial-state binding with restore,
/// hash, diff, text and snapshot around the fire. Site time spent inside
/// load and fire is measured by a [`TimingServer`] and left out.
fn replay(site: &Site, urls: &[String], responses: &[(String, String)]) -> Result<Replay, String> {
    let engine = site.engine_config();
    let (config, latency) = (engine.crawl, engine.latency);
    let webgen = TimingServer::new(Arc::clone(&site.server), false);
    let mut r = Replay::default();

    let pages: HashMap<&str, &str> = responses
        .iter()
        .map(|(u, b)| (u.as_str(), b.as_str()))
        .collect();
    let page_urls: HashSet<&str> = urls.iter().map(String::as_str).collect();
    let t = Instant::now();
    for (url, body) in responses {
        if page_urls.contains(url.as_str()) {
            black_box(parse_document(body));
        } else {
            black_box(parse_fragment(body));
        }
    }
    r.parse_ms = ms(t);

    for url in urls {
        let html = *pages
            .get(url.as_str())
            .ok_or_else(|| format!("no captured response for {url}"))?;
        let t = Instant::now();
        black_box(parse_document(html));
        let parse_us = us(t);
        r.page_parse_us.push(parse_us);
        if config.static_prune {
            let t = Instant::now();
            black_box(analyze_page(html));
            r.analysis_us.push(us(t));
        }

        let mut net = NetClient::new(webgen.clone(), latency.clone());
        let mut cache = HotNodeCache::new();
        let mut segments = Vec::new();
        let mut recorder = Recorder::Off;
        let mut env = CrawlEnv::new(
            &mut net,
            &mut cache,
            config.hot_node_policy,
            &config.costs,
            config.retry,
            &mut segments,
            &mut recorder,
        );
        let site_ms = webgen.handle_ms();
        let t = Instant::now();
        let (mut browser, _script_errors) =
            Browser::load(Url::parse(url), html, config.js_fuel, &mut env);
        r.load_us
            .push(us(t) - parse_us - (webgen.handle_ms() - site_ms) * 1e3);

        let t = Instant::now();
        let base = browser.snapshot();
        r.snapshot_us.push(us(t));
        let bindings = collect_event_bindings(browser.doc(), &config.event_types);
        for binding in bindings.iter().filter(|b| {
            let code = b.code.to_lowercase();
            !config
                .avoid_actions
                .iter()
                .any(|a| code.contains(a.as_str()))
        }) {
            let t = Instant::now();
            browser.restore(&base);
            r.restore_us.push(us(t));

            let site_ms = webgen.handle_ms();
            let t = Instant::now();
            black_box(browser.fire_event(&binding.code, &mut env));
            r.fire_us.push(us(t) - (webgen.handle_ms() - site_ms) * 1e3);

            let t = Instant::now();
            black_box(browser.state_hash(&mut env));
            r.hash_us.push(us(t));
            let t = Instant::now();
            black_box(changed_roots(base.doc(), browser.doc()));
            r.diff_us.push(us(t));
            let t = Instant::now();
            black_box(browser.doc().document_text());
            r.text_us.push(us(t));
            let t = Instant::now();
            black_box(browser.snapshot());
            r.snapshot_us.push(us(t));
        }
    }
    if r.fire_us.is_empty() {
        return Err("replay fired no events".to_string());
    }
    Ok(r)
}

/// Splits the serial crawl's wall time into webgen time and replayed
/// per-call costs multiplied by the crawl's own call counts.
fn crawl_attribution(crawl: &SerialCrawl, replay: &Replay, pages: f64) -> Attribution {
    let s = &crawl.stats;
    let (events, states, transitions) =
        (s.events_fired as f64, s.states as f64, s.transitions as f64);
    let mut a = Attribution::new(crawl.total_ms);
    a.row("webgen.handle_ms", crawl.webgen_ms)
        .row("crawl.analysis_ms", mean(&replay.analysis_us) * pages / 1e3)
        .row(
            "dom.page_parse_ms",
            mean(&replay.page_parse_us) * pages / 1e3,
        )
        .row("js.load_ms", mean(&replay.load_us).max(0.0) * pages / 1e3)
        .row("js.fire_ms", mean(&replay.fire_us).max(0.0) * events / 1e3)
        // One restore per expanded state plus one before every fire.
        .row(
            "dom.restore_ms",
            mean(&replay.restore_us) * (states + events) / 1e3,
        )
        .row("dom.snapshot_ms", mean(&replay.snapshot_us) * states / 1e3)
        .row(
            "dom.hash_ms",
            mean(&replay.hash_us) * (pages + events) / 1e3,
        )
        .row("dom.diff_ms", mean(&replay.diff_us) * transitions / 1e3)
        .row("dom.text_ms", mean(&replay.text_us) * states / 1e3);
    a
}

/// Per-call query-side timings over the serving partitions.
struct QuerySide {
    search_us: Vec<f64>,
    eval_us: Vec<f64>,
    merge_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    /// Per query: encode plus decode of the slower shard's reply frame.
    wire_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    untraced_ms: f64,
    attribution: Attribution,
}

fn query_side(corpus: &Corpus, stream: &[String]) -> Result<QuerySide, String> {
    let broker = corpus.broker();
    let mut search_us = Vec::with_capacity(stream.len());
    let mut want = Vec::with_capacity(stream.len());
    for q in stream {
        let t = Instant::now();
        let results = broker.search(&Query::parse(q));
        search_us.push(us(t));
        want.push(digest(&results));
    }
    let untraced_ms = search_us.iter().sum::<f64>() / 1e3;

    let (mut eval_us, mut merge_us, mut parse_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_ms = 0.0;
    for (q, want) in stream.iter().zip(&want) {
        let total = Instant::now();
        let t = Instant::now();
        let query = Query::parse(q);
        parse_us.push(us(t));
        let mut results = Vec::new();
        let mut stats = Vec::with_capacity(corpus.partitions.len());
        for (shard_idx, shard) in corpus.partitions.iter().enumerate() {
            let t = Instant::now();
            let (r, s) = eval_shard(shard, shard_idx, &query, &corpus.weights);
            eval_us.push(us(t));
            results.extend(r);
            stats.push(s);
        }
        let t = Instant::now();
        let merged = merge_shard_outputs(&query, &corpus.weights, results, &stats);
        merge_us.push(us(t));
        traced_ms += ms(total);
        if digest(&merged) != *want {
            return Err(format!(
                "eval_shard + merge_shard_outputs answered {q:?} differently from QueryBroker::search"
            ));
        }
    }

    // The reply frames the shards send for each query.
    let (mut encode_us, mut decode_us, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut wire_us = Vec::with_capacity(stream.len());
    for (id, q) in stream.iter().enumerate() {
        let query = Query::parse(q);
        let mut slowest = 0.0f64;
        for (shard_idx, shard) in corpus.partitions.iter().enumerate() {
            let (results, stats) = eval_shard(shard, shard_idx, &query, &corpus.weights);
            let msg = Message::Reply(EvalReply {
                id: id as u64,
                results,
                stats,
            });
            let mut frame = Vec::new();
            let t = Instant::now();
            write_message(&mut frame, &msg).map_err(|e| format!("encode reply: {e}"))?;
            encode_us.push(us(t));
            reply_bytes.push(frame.len() as f64);
            let t = Instant::now();
            let back =
                read_message(&mut frame.as_slice()).map_err(|e| format!("decode reply: {e}"))?;
            decode_us.push(us(t));
            slowest = slowest.max(encode_us[encode_us.len() - 1] + decode_us[decode_us.len() - 1]);
            if back != msg {
                return Err(format!("reply frame for {q:?} did not round-trip"));
            }
        }
        wire_us.push(slowest);
    }
    let mut attribution = Attribution::new(traced_ms);
    attribution
        .row("index.query_parse_ms", parse_us.iter().sum::<f64>() / 1e3)
        .row("index.eval_shard_ms", eval_us.iter().sum::<f64>() / 1e3)
        .row("index.merge_ms", merge_us.iter().sum::<f64>() / 1e3);
    Ok(QuerySide {
        search_us,
        eval_us,
        merge_us,
        encode_us,
        decode_us,
        wire_us,
        reply_bytes,
        untraced_ms,
        attribution,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create()?;
    let kind = match args.workload {
        Workload::BuildGallery => SiteKind::Gallery,
        Workload::BuildVidShare | Workload::ServeVidShare => SiteKind::VidShare,
    };
    let site = Site::new(kind, args.seed);
    let (expected, reference_models) = reference_crawl(&site)?;
    let stream = query_stream(&reference_models, args.seed, TRACE_QUERIES);
    drop(reference_models);

    // The untraced build path, then the same path stage by stage.
    let untraced = build_path(&site, &work)?;
    let untraced_ms = untraced.commit_s * 1e3 + untraced.open_ms[0];
    let untraced_virtual_s = untraced.virtual_s;
    drop(untraced);
    let mut build = traced_build(&site, &work)?;
    check_crawl(
        expected,
        Expected {
            states: build.models.iter().map(|m| m.state_count() as u64).sum(),
            signature: graph_signature(&mut build.models),
        },
    )?;
    if build.virtual_s != untraced_virtual_s {
        return Err(format!(
            "traced build took {} virtual s, AjaxSearchEngine::build {}",
            build.virtual_s, untraced_virtual_s
        ));
    }
    build.attribution.check("traced build path")?;
    build.attribution.print("traced build path", "ms");

    // Serial crawl, charged with replayed per-call costs.
    let crawl = serial_crawl(&site, &build.urls)?;
    let replay = replay(&site, &build.urls, &crawl.responses)?;
    let pages = build.urls.len() as f64;
    let crawl_split = crawl_attribution(&crawl, &replay, pages);
    crawl_split.check("serial crawl")?;
    crawl_split.print("serial crawl", "ms");
    let s = &crawl.stats;

    let t = Instant::now();
    for model in &build.models {
        for state in &model.states {
            black_box(tokenize(&state.text));
        }
    }
    let tokenize_ms = ms(t);

    // Query side, then both serving paths on the same stream.
    let corpus = Corpus::new(&build.models, &build.pagerank, site.engine_config().weights);
    let queries = query_side(&corpus, &stream)?;
    queries.attribution.check("query evaluation")?;
    queries.attribution.print("query evaluation", "ms");
    let want = reference_digests(&corpus.broker(), &stream);
    let (local, dist) = serve_corpus(&corpus, &stream, &want, Budget::Queries(stream.len()))?;
    // Both paths answered the same stream in the same order, so each query's
    // TCP latency is its in-process latency, plus the reply frames' wire
    // cost unless the coordinator's cache answered, plus the rest.
    let mut wire = Attribution::new(dist.latency_us.iter().sum::<f64>() / 1e3);
    let mut residual_us = Vec::with_capacity(stream.len());
    let mut wire_ms = 0.0;
    for i in 0..stream.len() {
        let frames = if dist.cached[i] {
            0.0
        } else {
            queries.wire_us[i]
        };
        wire_ms += frames / 1e3;
        residual_us.push(dist.latency_us[i] - local.latency_us[i] - frames);
    }
    wire.row("local serve", local.latency_us.iter().sum::<f64>() / 1e3)
        .row("reply encode+decode", wire_ms);
    wire.check("TCP cluster latency")?;
    wire.print("TCP cluster latency, summed over the stream", "ms");
    let encode_p50 = median(&queries.encode_us);
    let decode_p50 = median(&queries.decode_us);
    let local_p50 = median(&local.latency_us);
    let dist_p50 = median(&dist.latency_us);
    println!(
        "local->TCP median gap {:.1} us: reply encode p50 {encode_p50:.1} us, decode p50 \
         {decode_p50:.1} us, per-query residual (socket, thread handoff, request frame) p50 \
         {:.1} us",
        dist_p50 - local_p50,
        median(&residual_us)
    );
    println!("local latency {}", Tail::of(&local.latency_us).render("us"));
    println!("dist latency {}", Tail::of(&dist.latency_us).render("us"));
    println!(
        "crawl pages {}; indexing (partition + merged build + save) is {:.1}% of the traced \
         build path: no workload isolates it yet",
        Tail::of(&crawl.page_us).render("us"),
        100.0 * (build.partition_ms + build.build_ms + build.save_ms) / build.attribution.total
    );
    let overhead_ms = build.attribution.total - untraced_ms;
    let query_overhead_ms = queries.attribution.total - queries.untraced_ms;
    println!(
        "tracing overhead: build path {overhead_ms:.2} ms of {untraced_ms:.2} ms untraced; \
         query evaluation {query_overhead_ms:.2} ms of {:.2} ms untraced",
        queries.untraced_ms
    );

    let mut out = Outcome {
        attempted: pages as u64 + local.attempted() + dist.attempted(),
        failed: local.failed() + dist.failed(),
        ..Outcome::default()
    };
    let webgen = &build.webgen;
    out.push("webgen.handle_ms", "ms", webgen.handle_ms());
    out.push(
        "webgen.requests",
        "count",
        webgen.requests.load(Ordering::Relaxed) as f64,
    );
    out.push(
        "webgen.bytes",
        "B",
        webgen.bytes.load(Ordering::Relaxed) as f64,
    );
    out.push("crawl.precrawl_ms", "ms", build.precrawl_ms);
    out.push("crawl.mp_crawl_ms", "ms", build.mp_crawl_ms);
    out.push("crawl.serial_ms", "ms", crawl.total_ms);
    out.push("crawl.page_p50_us", "us", median(&crawl.page_us));
    out.push("crawl.page_p95_us", "us", Tail::at(&crawl.page_us, 0.95)?);
    out.push(
        "crawl.analysis_ms",
        "ms",
        replay.analysis_us.iter().sum::<f64>() / 1e3,
    );
    out.push("crawl.events_fired", "count", s.events_fired as f64);
    out.push("crawl.events_pruned", "count", s.pruned_events as f64);
    out.push("crawl.states", "count", s.states as f64);
    out.push(
        "crawl.useful_event_ratio",
        "ratio",
        (s.states as f64 - pages) / s.events_fired.max(1) as f64,
    );
    let xhr_calls = s.ajax_network_calls + s.cache_hits;
    out.push(
        "crawl.hotnode_hit_ratio",
        "ratio",
        s.cache_hits as f64 / xhr_calls.max(1) as f64,
    );
    out.push("crawl.xhr_calls", "count", xhr_calls as f64);
    out.push("crawl.unattributed_ms", "ms", crawl_split.unattributed());
    out.push("dom.parse_ms", "ms", replay.parse_ms);
    out.push("dom.snapshot_us", "us", mean(&replay.snapshot_us));
    out.push("dom.restore_us", "us", mean(&replay.restore_us));
    out.push("dom.hash_us", "us", mean(&replay.hash_us));
    out.push("dom.diff_us", "us", mean(&replay.diff_us));
    out.push("dom.text_us", "us", mean(&replay.text_us));
    out.push("js.load_us", "us", mean(&replay.load_us));
    out.push("js.fire_us", "us", mean(&replay.fire_us));
    out.push("index.partition_ms", "ms", build.partition_ms);
    out.push("index.build_ms", "ms", build.build_ms);
    out.push("index.tokenize_ms", "ms", tokenize_ms);
    out.push("index.save_ms", "ms", build.save_ms);
    out.push("index.disk_bytes", "B", build.disk_bytes as f64);
    out.push("index.open_us", "us", build.open_us);
    out.push("index.first_query_us", "us", build.first_query_us);
    out.push("build.traced_ms", "ms", build.attribution.total);
    out.push(
        "build.unattributed_ms",
        "ms",
        build.attribution.unattributed(),
    );
    out.push("serve.local_p50_us", "us", local_p50);
    out.push(
        "serve.local_p99_us",
        "us",
        Tail::at(&local.latency_us, 0.99)?,
    );
    out.push("serve.dist_p50_us", "us", dist_p50);
    out.push("serve.dist_p99_us", "us", Tail::at(&dist.latency_us, 0.99)?);
    out.push("index.search_p50_us", "us", median(&queries.search_us));
    out.push(
        "index.search_p99_us",
        "us",
        Tail::at(&queries.search_us, 0.99)?,
    );
    out.push("index.eval_shard_p50_us", "us", median(&queries.eval_us));
    out.push("index.merge_p50_us", "us", median(&queries.merge_us));
    out.push(
        "serve.cache_hit_ratio",
        "ratio",
        local.metrics.cache_hit_rate,
    );
    out.push("serve.shed", "count", (local.shed + dist.shed) as f64);
    out.push(
        "serve.degraded",
        "count",
        (local.degraded + dist.degraded) as f64,
    );
    out.push("dist.reply_bytes_p50", "B", median(&queries.reply_bytes));
    out.push(
        "dist.reply_bytes_p99",
        "B",
        percentile(&queries.reply_bytes, 0.99),
    );
    out.push("dist.encode_p50_us", "us", encode_p50);
    out.push("dist.decode_p50_us", "us", decode_p50);
    out.push("dist.unattributed_p50_us", "us", median(&residual_us));
    out.push("trace.build_overhead_ms", "ms", overhead_ms);
    out.push("trace.query_overhead_ms", "ms", query_overhead_ms);
    Ok(out)
}
