//! The five workloads. Each runs in its own process, so peak RSS, the
//! pack cache and the buffer pool start clean.

use std::path::PathBuf;
use std::time::Instant;

use acme_distsys::TransferReport;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Recorder;

pub mod customize;
mod fleet_sim;
mod recustomize;
mod serve;

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed region should measure.
    pub seconds: f64,
    /// Records spans only in the traced pass.
    pub rec: Recorder,
    /// Scratch and trace output, inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.rec.enabled()
    }
}

/// The thread counts a workload pinned, for the environment stamp.
pub struct Threads {
    /// Busy threads of the workload's own pool (generator included).
    pub pool: usize,
    /// `acme_runtime::set_global_threads`: workers inside one GEMM.
    pub kernel: usize,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Threads {
    match ctx.workload {
        "customize" => customize::run(ctx, report),
        "recustomize" => recustomize::run(ctx, report),
        "fleet_sim" => fleet_sim::run(ctx, report),
        "serve_steady" => serve::run(ctx, report, &serve::STEADY),
        "serve_churn" => serve::run(ctx, report, &serve::CHURN),
        other => unreachable!("workload {other} passed the spec lookup"),
    }
}

/// Sets up three times and reports the median, so one slow set-up does
/// not read as a regression. Returns the last set-up's product; each
/// earlier one is dropped before the next is built.
fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut product = None;
    for _ in 0..3 {
        drop(product.take());
        let t = Instant::now();
        product = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), product.expect("three set-ups ran"))
}

/// How often a job that takes about `nominal_s` on the reference sandbox
/// repeats to fill `seconds`, at least `min` times. The count follows
/// from the arguments alone, not from how fast this host or this commit
/// is, so two runs being compared do the same work and allocate alike.
fn reps_for(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).ceil() as usize).max(min)
}

/// Runs `job` `reps` times. Returns each repetition's wall time and
/// output.
fn repeat<T>(reps: usize, mut job: impl FnMut() -> T) -> (Vec<f64>, Vec<T>) {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = job();
            (t.elapsed().as_secs_f64(), out)
        })
        .unzip()
}

/// Ledger rows must add up to the ledger total.
fn kinds_sum_to_total(r: &TransferReport) -> bool {
    r.per_kind.iter().map(|k| k.bytes()).sum::<u64>() == r.total_bytes
        && r.per_kind.iter().map(|k| k.messages).sum::<u64>() == r.messages
}

fn report_ledger(report: &mut Report, r: &TransferReport) {
    report.set("distsys.ledger.total_bytes", r.total_bytes as f64);
    for row in &r.per_kind {
        report.set(
            &format!("distsys.ledger.bytes.{}", row.kind),
            row.bytes() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_count_follows_from_the_arguments() {
        assert_eq!(reps_for(10.0, 3.5, 2), 3);
        assert_eq!(reps_for(10.0, 16.0, 1), 1);
        assert_eq!(reps_for(1.0, 2.0, 3), 3);
        assert_eq!(reps_for(60.0, 2.0, 3), 30);
        let (walls, outs) = repeat(3, || 7);
        assert_eq!((walls.len(), outs), (3, vec![7, 7, 7]));
    }

    #[test]
    fn setup_median_keeps_the_last_product() {
        let mut n = 0;
        let (t, last) = setup_median(|| {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(t >= 0.0);
    }
}
