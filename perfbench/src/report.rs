//! Metric collection, sample statistics and the two output forms: a
//! human-readable table (every metric with its unit, sample count and
//! source) and the final one-line JSON result.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Unit as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: u64,
    /// Where the value comes from (`pass`, `probe`, ...).
    pub source: &'static str,
}

/// Named metrics plus the run's operation tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted (queries, cells, table rows, output checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Records `name`; a later call with the same name replaces it.
    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: u64,
        source: &'static str,
    ) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                unit,
                value,
                samples,
                source,
            },
        );
    }

    /// Counts one operation; `ok == false` counts it failed with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Prints the human-readable table to stdout.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        println!(
            "{:<34} {:>16} {:<6} {:>9}  source",
            "metric", "value", "unit", "samples"
        );
        for (name, m) in &self.metrics {
            println!(
                "{:<34} {:>16.6} {:<6} {:>9}  {}",
                name, m.value, m.unit, m.samples, m.source
            );
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<34} {:>16.6} {:<6} {:>9}  checks",
            "failed_ops", ratio, "ratio", self.attempted
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics named in `wanted` (all of them must be present and
    /// finite, or the run is not correct).
    pub fn json_line(&self, wanted: &[&str]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut parts = Vec::with_capacity(wanted.len());
        for name in wanted {
            match self.metrics.get(*name) {
                Some(m) if m.value.is_finite() => parts.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                )),
                _ => correct = false,
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// A finite float in shortest round-trip form, always with a decimal
/// point or exponent so JSON readers keep it a float.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank quantile of `samples` (`q` in [0, 1]); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5).to_bits(), 3.0f64.to_bits());
        assert_eq!(quantile(&v, 0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(quantile(&v, 1.0).to_bits(), 5.0f64.to_bits());
        assert_eq!(quantile(&[], 0.5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn json_line_requires_every_wanted_metric() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.put("a_s", "s", 1.5, 3, "pass");
        assert!(r.json_line(&["a_s"]).starts_with("{\"correct\": true"));
        assert!(r
            .json_line(&["a_s", "b_s"])
            .starts_with("{\"correct\": false"));
        assert_eq!(json_number(2.0), "2.0");
    }
}
