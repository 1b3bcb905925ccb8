//! What a run prints: the environment header, one human-readable line per
//! metric, and the final JSON result line.

use crate::Args;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Pages crawled plus queries served.
    pub attempted: u64,
    /// Failed pages plus shed and degraded queries.
    pub failed: u64,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Prints every metric by name and unit, then the JSON result line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("metric {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate {error_rate:.6} ({} failed of {} attempted: failed pages, shed and degraded queries)",
            self.failed, self.attempted
        );
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Prints the host and build facts a result depends on.
pub fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let first_line = |program: &str, argv: &[&str]| -> String {
        Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    println!(
        "workload {:?} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!(
        "host nproc {nproc}; git rev {}; {}",
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        first_line("rustc", &["--version"])
    );
    println!("load: closed loop, one client thread, one process");
}

/// A total split into stage rows plus the unattributed rest.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub total: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Attribution {
    pub fn new(total: f64) -> Self {
        Self {
            total,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.rows.push((name, value));
        self
    }

    /// The part of the total no stage row accounts for.
    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Stage rows plus the unattributed row must sum to the total, and
    /// every row must be a finite, non-negative measurement.
    pub fn check(&self, what: &str) -> Result<(), String> {
        if let Some((name, v)) = self.rows.iter().find(|(_, v)| !v.is_finite() || *v < 0.0) {
            return Err(format!(
                "{what}: stage row {name} = {v} is not a measurement"
            ));
        }
        let sum: f64 = self.rows.iter().map(|(_, v)| v).sum::<f64>() + self.unattributed();
        if !self.total.is_finite() || (sum - self.total).abs() > 1e-9 * self.total.abs().max(1.0) {
            return Err(format!(
                "{what}: stage rows plus unattributed sum to {sum}, not the traced total {}",
                self.total
            ));
        }
        Ok(())
    }

    /// Prints the rows with their shares of the total.
    pub fn print(&self, what: &str, unit: &str) {
        println!("attribution of {what}: total {:.3} {unit}", self.total);
        let share = |v: f64| 100.0 * v / self.total.max(f64::MIN_POSITIVE);
        for (name, v) in &self.rows {
            println!("  {name:<24} {v:>12.3} {unit} {:>6.1}%", share(*v));
        }
        let rest = self.unattributed();
        println!(
            "  {:<24} {rest:>12.3} {unit} {:>6.1}%",
            "unattributed",
            share(rest)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rows_plus_unattributed_sum_to_total() {
        let mut a = Attribution::new(100.0);
        a.row("parse", 12.5).row("fire", 40.25).row("hash", 7.0);
        assert_eq!(a.unattributed(), 40.25);
        assert!(a.check("crawl").is_ok());
        let printed: f64 = a.rows.iter().map(|(_, v)| v).sum::<f64>() + a.unattributed();
        assert_eq!(printed, a.total);
    }

    #[test]
    fn over_attribution_shows_as_negative_unattributed() {
        let mut a = Attribution::new(10.0);
        a.row("parse", 8.0).row("fire", 4.0);
        assert_eq!(a.unattributed(), -2.0);
        assert!(a.check("crawl").is_ok());
    }

    #[test]
    fn rows_that_are_not_measurements_fail_the_check() {
        let mut a = Attribution::new(10.0);
        a.row("parse", -1.0);
        assert!(a.check("crawl").is_err());
        let mut b = Attribution::new(10.0);
        b.row("parse", f64::NAN);
        assert!(b.check("crawl").is_err());
        assert!(Attribution::new(f64::INFINITY).check("crawl").is_err());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.push("latency_ms", "ms", 1.25);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
