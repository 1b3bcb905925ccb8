//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload build-vidshare --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `build-vidshare`, `build-gallery`, `serve-vidshare` (see
//! `perfbench/README.md`). With `--trace 0` the end-to-end metrics are
//! measured; with `--trace 1` the per-layer ones. The last line of standard
//! output is one JSON object; any failed output check exits with status 1
//! before printing it.

mod pipeline;
mod report;
mod stats;
mod traced;
mod untraced;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildVidShare,
    BuildGallery,
    ServeVidShare,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "build-vidshare" => Ok(Self::BuildVidShare),
            "build-gallery" => Ok(Self::BuildGallery),
            "serve-vidshare" => Ok(Self::ServeVidShare),
            other => Err(format!(
                "unknown workload {other:?} (build-vidshare, build-gallery, serve-vidshare)"
            )),
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = Workload::parse(value("--workload").ok_or("--workload NAME is required")?)?;
    let seed = match value("--seed") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seed {s:?} is not a number"))?,
        None => DEFAULT_SEED,
    };
    let seconds: u64 = match value("--seconds") {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--seconds {s:?} is not a number"))?,
        None => 10,
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    report::print_environment(args);
    if args.trace {
        traced::run(args)
    } else {
        untraced::run(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            outcome.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
