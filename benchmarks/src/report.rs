//! The result of one run: metric values checked against the spec table,
//! the correctness verdict, and the line the acceptance driver reads.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER};

#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn spec_of(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the spec table"))
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec_of(name);
        assert!(value.is_finite(), "{name} = {value}");
        match self.values.iter_mut().find(|(n, _)| *n == spec.name) {
            Some((_, v)) => *v = value,
            None => self.values.push((spec.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// A correctness check; a violated one fails the whole run.
    pub fn check(&mut self, holds: bool, what: &str) {
        if !holds {
            eprintln!("CHECK FAILED: {what}");
            self.violations.push(what.to_string());
        }
    }

    /// Adds operations to the attempted / failed tally.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The result object: every end-to-end metric for an untraced run,
    /// every per-layer metric for a traced one. Layers the workload did
    /// not run read 0.
    pub fn result(&self, traced: bool) -> Json {
        let metrics = if traced { PER_LAYER } else { END_TO_END };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|m| {
                    let value = match self.get(m.name) {
                        Some(v) => v,
                        None if traced => 0.0,
                        None => panic!("workload did not report {}", m.name),
                    };
                    assert!(traced || value != 0.0, "end-to-end metric {} is 0", m.name);
                    (
                        m.name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// `name value unit` lines for people, in spec order.
    pub fn print(&self) {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.get(m.name) {
                println!("{:<44} {:>16.6} {}", m.name, v, m.unit);
            }
        }
        println!(
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_untraced() -> Report {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.count(10, 0);
        r
    }

    #[test]
    fn untraced_result_holds_exactly_the_end_to_end_metrics() {
        let r = full_untraced();
        let json = r.result(false);
        let keys = |j: &Json| match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys(&json), ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys(json.get("metrics").unwrap()), names);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(Json::parse(&json.compact()).unwrap(), json);
    }

    #[test]
    fn traced_result_fills_unrun_layers_with_zero() {
        let mut r = Report::default();
        r.set("distsys.sim.events", 2141289.0);
        let json = r.result(true);
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |n: &str| {
            json.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("distsys.sim.events"), Some(2141289.0));
        assert_eq!(value("serve.mean_batch"), Some(0.0));
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut r = full_untraced();
        r.check(true, "holds");
        assert!(r.correct());
        r.check(false, "ledger kinds sum to the total");
        assert!(!r.correct());
        let mut r = full_untraced();
        r.count(5, 1);
        assert_eq!(
            r.result(false).get("failed").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not in the spec table")]
    fn unknown_metric_names_are_rejected() {
        Report::default().set("made.up", 1.0);
    }
}
