//! Judging one result set against another, and a result set against
//! itself: medians, quartiles and the bound logic.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound, so "no change"
    /// cannot be told from a change.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the parent's median by which the change's median is worse
/// (negative when it is better).
fn worsening(parent: f64, change: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        parent - change
    } else {
        change - parent
    };
    delta / parent.abs()
}

pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worsening(median(parent), median(change), higher_is_better);
    if worse_by > bound {
        return Verdict::Worse;
    }
    let noisy = [parent, change]
        .iter()
        .any(|runs| runs.len() >= 2 && spread(runs) > bound);
    if noisy {
        // Wider than the bound, "same" is not a finding; a clean sweep
        // still is.
        let beats = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
        let sweep = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return if sweep {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values of `metric` over the runs of `workload`, untraced or traced.
fn values(results: &Json, workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    runs_of(results, workload, traced)
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn runs_of<'a>(
    results: &'a Json,
    workload: &'a str,
    traced: bool,
) -> impl Iterator<Item = &'a Json> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_bool) == Some(traced)
        })
}

/// Operations failed over operations attempted, summed over a workload's
/// runs.
fn fail_frac(results: &Json, workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        [false, true]
            .iter()
            .flat_map(|&t| runs_of(results, workload, t))
            .filter_map(|run| run.get(key)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    if attempted == 0.0 {
        0.0
    } else {
        sum("failed") / attempted
    }
}

fn quartile_text(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{:>12} {:>12} {:>8}", "-", "-", "-");
    }
    let [q1, _, q3] = quartiles(v);
    format!("{q1:>12.5} {q3:>12.5} {:>7.2}%", spread(v) * 100.0)
}

fn print_rows(results: &Json, workload: &str, metrics: &[Metric], traced: bool) {
    for m in metrics {
        let v = values(results, workload, m.name, traced);
        if v.is_empty() || v.iter().all(|&x| x == 0.0) {
            continue;
        }
        let bound = if m.bound > 0.0 {
            format!("{:>5.0}%", m.bound * 100.0)
        } else {
            format!("{:>6}", "")
        };
        println!(
            "{:<44} {:>3} {:>14.5} {} {bound} {}",
            m.name,
            v.len(),
            median(&v),
            quartile_text(&v),
            m.unit
        );
    }
}

/// Median and quartiles of every metric over the runs of one result set:
/// the self-agreement check.
pub fn summarize(results: &Json) {
    for w in WORKLOADS {
        println!(
            "\n## {}  (fail_frac {})",
            w.name,
            fail_frac(results, w.name)
        );
        println!(
            "{:<44} {:>3} {:>14} {:>12} {:>12} {:>8} {:>6}",
            "metric", "n", "median", "q1", "q3", "spread", "bound"
        );
        print_rows(results, w.name, END_TO_END, false);
        print_rows(results, w.name, PER_LAYER, true);
    }
}

/// One row per workload and end-to-end metric. False on any `worse` and
/// on a higher failure share.
pub fn compare(parent: &Json, change: &Json) -> bool {
    let mut failed = false;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse by", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let (p, c) = (
                values(parent, w.name, m.name, false),
                values(change, w.name, m.name, false),
            );
            if p.is_empty() || c.is_empty() {
                println!("{:<13} {:<12} missing on one side", w.name, m.name);
                failed = true;
                continue;
            }
            let v = verdict(&p, &c, m.higher, m.bound);
            failed |= v == Verdict::Worse;
            println!(
                "{:<13} {:<12} {:>14.5} {:>14.5} {:>7.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                median(&p),
                median(&c),
                worsening(median(&p), median(&c), m.higher) * 100.0,
                m.bound * 100.0,
                v.label()
            );
        }
        let (fp, fc) = (fail_frac(parent, w.name), fail_frac(change, w.name));
        if fc > fp {
            println!("{:<13} fail_frac rose from {fp} to {fc}", w.name);
            failed = true;
        }
    }
    !failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_logic_for_lower_is_better() {
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&parent, &[10.5, 10.4, 10.6], false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&parent, &[11.2, 11.3, 11.1], false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9], false, 0.10),
            Verdict::Better
        );
        // Exactly at the bound is not yet a regression.
        assert_eq!(verdict(&[10.0], &[11.0], false, 0.10), Verdict::Same);
    }

    #[test]
    fn bound_logic_for_higher_is_better() {
        let parent = [1000.0, 1010.0, 990.0];
        assert_eq!(
            verdict(&parent, &[900.0, 880.0, 890.0], true, 0.07),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &[1200.0, 1190.0, 1210.0], true, 0.07),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &[1020.0, 1000.0, 990.0], true, 0.07),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [10.0, 14.0, 8.0, 12.0];
        assert_eq!(
            verdict(&noisy, &[10.5, 9.5, 11.0, 10.0], false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[7.0, 7.5, 6.0, 7.9], false, 0.10),
            Verdict::Better
        );
        // A median beyond the bound is a regression however noisy.
        assert_eq!(
            verdict(&noisy, &[15.0, 16.0, 14.5, 15.5], false, 0.10),
            Verdict::Worse
        );
    }

    fn result_set(job_s: &[f64], failed: f64) -> Json {
        let run = |workload: &str, v: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(42.0)),
                ("trace", Json::Bool(false)),
                ("correct", Json::Bool(failed == 0.0)),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj(END_TO_END.iter().map(|m| {
                        (
                            m.name,
                            Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                        )
                    })),
                ),
            ])
        };
        let runs = WORKLOADS
            .iter()
            .flat_map(|w| job_s.iter().map(move |&v| run(w.name, v)))
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_reads_result_sets_and_gates_on_worse_and_failures() {
        let parent = result_set(&[10.0, 10.1, 9.9], 0.0);
        assert_eq!(
            values(&parent, "customize", "job_s", false),
            vec![10.0, 10.1, 9.9]
        );
        assert!(values(&parent, "customize", "job_s", true).is_empty());
        assert!(compare(&parent, &result_set(&[10.2, 10.0, 10.1], 0.0)));
        assert!(!compare(&parent, &result_set(&[13.0, 13.1, 12.9], 0.0)));
        assert!(!compare(&parent, &result_set(&[10.0, 10.1, 9.9], 1.0)));
        assert_eq!(fail_frac(&result_set(&[1.0], 5.0), "fleet_sim"), 0.05);
    }
}
