//! Runs every ch. 7 experiment (sharing the expensive crawls) and prints all
//! tables/figures. `AJAX_CRAWL_SCALE=paper` for thesis scale.
use ajax_bench::exp::{
    caching, crawl_perf, dataset, distributed, index_perf, parallel, pruning, queries, serving,
    threshold,
};
use ajax_bench::{util, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("=== AJAX Crawl evaluation — scale '{}' ===\n", scale.name);

    // §7.1/§7.2: one pair of serial crawls powers five experiments.
    let perf = crawl_perf::collect(&scale);
    let t71 = dataset::table7_1(&perf);
    println!("{}", t71.render());
    util::write_json("table7_1", &t71);

    let f71 = dataset::fig7_1(&scale);
    println!("{}", f71.render());
    util::write_json("fig7_1", &f71);

    let f72 = dataset::fig7_2(&scale, &perf);
    println!("{}", f72.render());
    util::write_json("fig7_2", &f72);

    let t72 = crawl_perf::table7_2(&perf);
    println!("{}", t72.render());
    util::write_json("table7_2", &t72);

    let f73 = crawl_perf::fig7_3(&perf);
    println!("{}", f73.render());
    util::write_json("fig7_3", &f73);

    let f74 = crawl_perf::fig7_4(&perf);
    println!("{}", f74.render());
    util::write_json("fig7_4", &f74);

    // §7.3: caching.
    let cache = caching::collect(&scale);
    let f75 = caching::fig7_5(&cache);
    println!("{}", f75.render("Fig 7.5", "caching reduces calls ~5x"));
    util::write_json("fig7_5", &f75);
    let f76 = caching::fig7_6(&cache);
    println!(
        "{}",
        f76.render("Fig 7.6", "network time reduced to ~0.37x")
    );
    util::write_json("fig7_6", &f76);
    let f77 = caching::fig7_7(&cache);
    println!("{}", f77.render("Fig 7.7", "throughput improves ~1.6x"));
    util::write_json("fig7_7", &f77);

    // §7.4: parallelization.
    let par = parallel::collect(&scale);
    println!("{}", par.render_table7_3());
    println!("{}", par.render_fig7_8());
    util::write_json("table7_3", &par);
    util::write_json("fig7_8", &par);

    // §7.5: queries.
    let t74 = queries::table7_4(&scale);
    println!("{}", t74.render());
    util::write_json("table7_4", &t74);

    let qdata = queries::collect(&scale);
    let timings = queries::table7_5(&qdata);
    println!("{}", timings.render_table7_5());
    println!("{}", timings.render_fig7_9());
    util::write_json("table7_5", &timings);
    util::write_json("fig7_9", &timings);

    // Serving subsystem (ajax-serve): worker pools, cache, admission.
    let srv = serving::collect(&scale);
    println!("{}", srv.render());
    util::write_json("serving", &srv);

    // Columnar index: build throughput, query percentiles, kernel speedup.
    let iperf = index_perf::collect(scale.query_pages);
    println!("{}", iperf.render());
    util::write_json("index_perf", &iperf);

    // Distributed serving (ajax-dist): QPS scaling, slow-shard hedging, and
    // the double-launch determinism check (same corpus and seeds ⇒ identical
    // merged results — the exp_fault_sweep discipline applied to serving).
    let dist = distributed::collect(
        scale.query_pages.min(40),
        distributed::REPEATS,
        distributed::QUERIES_PER_REPEAT,
    );
    println!("{}", dist.render());
    util::write_json("distributed", &dist);
    assert!(
        dist.all_consistent(),
        "distributed serving diverged from single-process results or \
         across launches"
    );

    // Static crawl planner: events saved + soundness cross-check (small
    // fixed sites — the invariants, not the scale, are the point here).
    let prune = pruning::collect(12, 6);
    println!("{}", prune.render());
    util::write_json("static_prune", &prune);
    assert!(prune.all_sound(), "static-prune soundness violated");

    // §7.6/§7.7: thresholds and recall.
    let th = threshold::collect(&qdata);
    println!("{}", th.render_fig7_10());
    println!("{}", th.render_fig7_11());
    util::write_json("fig7_10", &th);
    util::write_json("fig7_11", &th);

    println!("=== summary ===");
    println!("{}", crawl_perf::summary(&perf));
    println!(
        "caching: calls x{:.2} fewer, net time x{:.2} less, throughput x{:.2} more",
        caching::fig7_5(&cache).final_factor(),
        caching::fig7_6(&cache).final_factor(),
        1.0 / caching::fig7_7(&cache).final_factor().max(1e-9),
    );
    println!(
        "parallel ({} lines): AJAX speedup x{:.2}",
        par.proc_lines,
        par.ajax.serial_micros as f64 / par.ajax.parallel_micros as f64
    );
    println!(
        "recall gain at 11 states: {:.3}",
        th.samples
            .last()
            .map(|s| s.one_minus_rel_recall)
            .unwrap_or(0.0)
    );
    println!(
        "serving ({} workers): virtual speedup x{:.2}, cache hit rate {:.0}%, {} lost",
        srv.workers,
        srv.virtual_speedup,
        srv.repeat_hit_rate * 100.0,
        srv.burst_lost
    );
    println!(
        "index kernel ({}): x{:.2} over pre-columnar reference, p50 {:.1} µs / p95 {:.1} µs",
        iperf.kernel.site,
        iperf.kernel.speedup,
        iperf.sites[0].query_p50_micros,
        iperf.sites[0].query_p95_micros,
    );
    println!(
        "distributed: QPS {} at 1/2/4 shards, slow-shard p99 {:.1} → {:.1} ms \
         with hedging ({} hedges), deterministic: {}",
        dist.scaling
            .iter()
            .map(|s| format!("{:.0}", s.qps.median))
            .collect::<Vec<_>>()
            .join("/"),
        dist.fault.p99_hedge_off_micros / 1e3,
        dist.fault.p99_hedge_on_micros / 1e3,
        dist.fault.hedges_fired,
        dist.deterministic,
    );
}
