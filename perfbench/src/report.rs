//! The result line and the human-readable tables.

use crate::workloads::Pass;
use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// An empty set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// One `name value unit` row per metric.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "{name:<32} {value:>18.6} {unit}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with all its digits. A non-finite value cannot be written as JSON
    /// and makes the run incorrect.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite,
            body.join(", ")
        )
    }
}

/// Per-cycle noise record of one process: set-up seconds, the wall and
/// CPU seconds, host speed and involuntary context switches of every
/// pass, and the pool size.
pub fn passes_json(passes: &[Pass], setups: &[f64], pool: usize) -> String {
    let list = |f: &dyn Fn(&Pass) -> String| -> String {
        passes.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\"passes\": {{\"pool_threads\": {pool}, \"setup_s\": [{}], \"wall_s\": [{}], \
         \"cpu_s\": [{}], \"host_speed\": [{}], \"nonvoluntary_ctxt_switches\": [{}]}}}}",
        setups.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>().join(", "),
        list(&|p| format!("{:?}", p.wall_s)),
        list(&|p| format!("{:?}", p.cpu_s)),
        list(&|p| format!("{:?}", p.speed)),
        list(&|p| p.preemptions.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit_and_order() {
        let mut m = Metrics::new();
        m.put("req_per_s", 1234567.891011, "req/s");
        m.put("setup_s", 0.8128, "s");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"req_per_s\": {\"value\": 1234567.891011, \"unit\": \"req/s\"}, \
             \"setup_s\": {\"value\": 0.8128, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let mut m = Metrics::new();
        m.put("x", f64::NAN, "s");
        assert!(m.result_line(true, 1, 0).starts_with("{\"correct\": false"));
    }
}
