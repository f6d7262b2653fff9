//! Collects a run's metrics, counts and checks, and prints them: notes
//! on standard error, the workload's metrics under their descriptive
//! names on one JSON line, and the result object as the last line.

use std::fmt::Write as _;

use crate::wire::FixedRate;

/// One named measurement.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's results.
#[derive(Debug, Default)]
pub struct Report {
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    named: Vec<Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// An end-to-end metric (printed with `--trace 0`).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The end-to-end latency every workload shares: the median, over
    /// every request of the run, of its latency from due time. The
    /// rates (`slo_decides_per_s`, `home_requests_per_s`), the side ops
    /// and the tail percentiles are printed by name only: their
    /// run-to-run spread on a shared host is wider than any bound a
    /// regression check can use.
    pub fn end_to_end(&mut self, fixed: &FixedRate) {
        self.e2e("req_p50_us", fixed.decide_p50_us, "us");
    }

    /// A per-layer metric (printed with `--trace 1`).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// A workload-specific name for an end-to-end reading.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds operations attempted and failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a failed output check; the run is then incorrect.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// A line of context for standard error.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records the generator's lateness and backlog and whether it kept
    /// its schedule: a run is valid when the generator's median
    /// lateness is under a tenth of the median decide latency. An
    /// invalid run is not correct, so its figures are never compared.
    pub fn generator(&mut self, fixed: &FixedRate) {
        let valid = fixed.lateness_p50_us < 0.1 * fixed.decide_p50_us;
        self.named("loadgen.lateness_p50_us", fixed.lateness_p50_us, "us");
        self.named("loadgen.lateness_p99_us", fixed.lateness_p99_us, "us");
        self.named("loadgen.backlog_max", f64::from(fixed.backlog_max), "count");
        self.named("loadgen.valid", f64::from(u8::from(valid)), "bool");
        if !valid {
            self.problem(format!(
                "INVALID RUN: generator lateness p50 {:.2}us is not small next to decide p50 {:.2}us",
                fixed.lateness_p50_us, fixed.decide_p50_us
            ));
        }
    }

    /// Prints the report; returns whether the run was correct.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) -> bool {
        for note in &self.notes {
            eprintln!("{workload}: {note}");
        }
        for problem in &self.problems {
            eprintln!("{workload}: CHECK FAILED: {problem}");
        }
        let shown = if trace { &self.layers } else { &self.e2e };
        let finite = shown.iter().all(|m| m.value.is_finite());
        if !finite {
            eprintln!("{workload}: a metric could not be measured");
        }
        let correct = self.problems.is_empty() && self.failed == 0 && finite && self.attempted > 0;

        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let mut named = format!(
            r#"{{"workload":"{workload}","seed":{seed},"attempted":{},"failed":{},"failed_ratio":{ratio},"named":{}}}"#,
            self.attempted,
            self.failed,
            metrics_object(&self.named)
        );
        if trace {
            named.clear();
            let _ = write!(
                named,
                r#"{{"workload":"{workload}","seed":{seed},"attempted":{},"failed":{},"failed_ratio":{ratio},"named":{},"layers":{}}}"#,
                self.attempted,
                self.failed,
                metrics_object(&self.named),
                metrics_object(&self.layers)
            );
        }
        println!("{named}");
        println!(
            r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
            self.attempted.max(1),
            self.failed,
            metrics_object(shown)
        );
        correct
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
