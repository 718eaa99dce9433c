//! Sample statistics and the result line.

use std::fmt::Write;

/// Linearly interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// The metrics of one run, the operation counts and the verdict of its
/// correctness checks.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub errors: Vec<String>,
    /// Lines printed before the result for a human reader.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric; `samples` is how many measurements it summarizes.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the human-readable lines, then the result object as the last
    /// line of standard output.
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!(
                "{workload:>10} {:<28} {:>14.4} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{workload:>10} attempted={} failed={}",
            self.attempted, self.failed
        );
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
