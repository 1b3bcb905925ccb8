//! Distributed-serving experiment: QPS scaling across 1/2/4 shard clusters
//! (median and min–max over 5 repeats of 1000 queries each), p99 under an
//! injected slow shard with hedging off vs on, and determinism across
//! launches. Writes `BENCH_distributed.json` in the working directory (the
//! repo's perf baseline) in addition to the usual
//! `target/experiments/distributed.json` dump. Exits nonzero if any
//! consistency invariant fails.
//!
//! ```sh
//! exp_distributed [--videos N]    # default: the scale's query_pages
//! ```
use ajax_bench::exp::distributed;
use ajax_bench::{util, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let videos: u32 = args
        .iter()
        .position(|a| a == "--videos")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--videos must be a number"))
        .unwrap_or_else(|| Scale::from_env().query_pages);

    let data = distributed::collect(
        videos,
        distributed::REPEATS,
        distributed::QUERIES_PER_REPEAT,
    );
    println!("{}", data.render());
    util::write_json("distributed", &data);

    match serde_json::to_string_pretty(&data) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_distributed.json", json) {
                eprintln!("warning: cannot write BENCH_distributed.json: {e}");
            } else {
                eprintln!("(baseline dump: BENCH_distributed.json)");
            }
        }
        Err(e) => eprintln!("warning: cannot serialize baseline: {e}"),
    }

    if data.all_consistent() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: distributed results diverged from single-process serving \
             or across launches"
        );
        ExitCode::FAILURE
    }
}
