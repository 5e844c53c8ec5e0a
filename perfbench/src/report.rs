//! The result line and the metric table.

use std::fmt::Write as _;

use crate::stats::{median, quantile};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation measured: operations attempted and failed (the
/// output check), plus the metrics of the requested kind.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why operations failed, for the diagnostic on standard error.
    pub failures: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed operation (the first few reasons are kept).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable metric table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON result.
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
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// rendering gives (non-finite values become 0, which no metric that
/// was actually measured reads).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A latency distribution reduced to the two percentiles a metric
/// family names: the median and its tail (p95 or p99).
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    pub p50: f64,
    pub tail: f64,
}

impl Percentiles {
    /// From raw samples.
    pub fn of(samples: &[f64], tail: f64) -> Percentiles {
        Percentiles {
            p50: median(samples),
            tail: quantile(samples, tail),
        }
    }

    pub fn scaled(self, factor: f64) -> Percentiles {
        Percentiles {
            p50: self.p50 * factor,
            tail: self.tail * factor,
        }
    }

    /// The per-field median over repeated measurements.
    pub fn median_of(runs: &[Percentiles]) -> Percentiles {
        let p50: Vec<f64> = runs.iter().map(|p| p.p50).collect();
        let tail: Vec<f64> = runs.iter().map(|p| p.tail).collect();
        Percentiles {
            p50: median(&p50),
            tail: median(&tail),
        }
    }
}

/// The end-to-end metrics every workload reports, in one place so each
/// workload fills the same nine names.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Unique cells completed per second, one sample per timed slice.
    pub cells_per_s: Vec<f64>,
    /// Peak resident set (MiB) of each timed slice.
    pub peak_rss_mb: Vec<f64>,
    /// Requests completed and the wall time they were completed in.
    pub requests: u64,
    pub timed_s: f64,
    /// Latency (ms) on kept-alive sessions (median, p95) and on fresh
    /// connections (median, p99).
    pub session_ms: Percentiles,
    pub fresh_ms: Percentiles,
}

impl EndToEnd {
    /// Rescales every figure to the host's nominal speed (see
    /// [`crate::clock`]); for workloads whose timed figures are all CPU
    /// work.
    pub fn correct(&mut self, speed: f64) {
        for s in &mut self.setup_s {
            *s *= speed;
        }
        for r in &mut self.cells_per_s {
            *r /= speed;
        }
        self.timed_s *= speed;
        self.session_ms = self.session_ms.scaled(speed);
        self.fresh_ms = self.fresh_ms.scaled(speed);
    }

    pub fn finish(self, report: &mut Report) -> Result<(), String> {
        if self.setup_s.is_empty()
            || self.cells_per_s.is_empty()
            || self.peak_rss_mb.is_empty()
            || self.timed_s <= 0.0
        {
            return Err("a workload finished without timed samples".into());
        }
        let ok_share = if report.attempted == 0 {
            0.0
        } else {
            (report.attempted - report.failed) as f64 / report.attempted as f64
        };
        report.push("setup_s", median(&self.setup_s), "s");
        report.push("cells_per_s", median(&self.cells_per_s), "1/s");
        report.push("ok_share", ok_share, "share");
        report.push("peak_rss_mb", median(&self.peak_rss_mb), "MiB");
        report.push("session_ms_p50", self.session_ms.p50, "ms");
        report.push("session_ms_p95", self.session_ms.tail, "ms");
        report.push("fresh_ms_p50", self.fresh_ms.p50, "ms");
        report.push("fresh_ms_p99", self.fresh_ms.tail, "ms");
        report.push("requests_per_s", self.requests as f64 / self.timed_s, "1/s");
        Ok(())
    }
}
