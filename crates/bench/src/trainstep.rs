//! Training-step harness: times one ViT-block-style fwd+bwd step (GEMM →
//! LayerNorm → GeLU → GEMM → cross-entropy, full backward to every
//! parameter) on the pooled, fused, clone-free engine at each thread
//! count, with the heap allocations a steady-state step makes through
//! the tensor pool, for `BENCH_training_step.json` (the `training_step`
//! bin; `--quick` shrinks the sweep to a CI-sized smoke case). The
//! step's bits are checked against a plain-loop reference of the same
//! arithmetic in `crates/tensor/tests/pool_reuse_props.rs`.
//!
//! [`vit_op_table`] adds the per-op breakdown of a second step: the
//! reference ViT's batch-32 training step, read from the tape's per-op
//! table of self time and tape bytes (`tensor.op.*` in the `acme-obs`
//! registry).

use std::sync::Arc;
use std::time::Instant;

use acme_nn::{Adam, Optimizer, ParamSet};
use acme_tensor::{obs, pool, randn, Array, Graph, SmallRng64};
use acme_vit::{Vit, VitConfig};

/// Problem shape: a tiny-ViT block's MLP path over a token batch.
const ROWS: usize = 128;
const D_IN: usize = 64;
const HIDDEN: usize = 256;
const CLASSES: usize = 10;

/// One timed configuration of the sweep.
#[derive(Debug, Clone)]
pub struct StepMeasurement {
    /// Worker threads handed to the runtime pool.
    pub threads: usize,
    /// Best-of-reps wall time of the step, in ms.
    pub step_ms: f64,
    /// Heap allocations per step on the reused arena, after warmup.
    pub step_allocs: u64,
}

impl StepMeasurement {
    /// The row as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\": \"training_step\", \"threads\": {}, \"step_ms\": {:.4}, \
             \"step_allocs\": {}}}",
            self.threads, self.step_ms, self.step_allocs
        )
    }
}

/// The fixed training-step problem (seeded, deterministic).
struct Problem {
    x: Array,
    w1: Arc<Array>,
    w2: Arc<Array>,
    gamma: Arc<Array>,
    beta: Arc<Array>,
    targets: Vec<usize>,
}

impl Problem {
    fn standard() -> Problem {
        let mut rng = SmallRng64::new(17);
        Problem {
            x: randn(&[ROWS, D_IN], &mut rng),
            w1: Arc::new(randn(&[D_IN, HIDDEN], &mut rng)),
            w2: Arc::new(randn(&[HIDDEN, CLASSES], &mut rng)),
            gamma: Arc::new(randn(&[HIDDEN], &mut rng)),
            beta: Arc::new(randn(&[HIDDEN], &mut rng)),
            targets: (0..ROWS).map(|i| (i * 3 + 1) % CLASSES).collect(),
        }
    }

    /// One step on the autograd engine, reusing `g`'s arena.
    fn step(&self, g: &mut Graph) {
        g.reset();
        let xv = g.leaf(self.x.clone());
        let w1v = g.bind_param(1, &self.w1, true, None);
        let w2v = g.bind_param(2, &self.w2, true, None);
        let gav = g.bind_param(3, &self.gamma, true, None);
        let bev = g.bind_param(4, &self.beta, true, None);
        let h1 = g.matmul(xv, w1v).expect("x @ w1");
        let ln = g.layer_norm(h1, gav, bev, 1e-5);
        let act = g.gelu(ln);
        let logits = g.matmul(act, w2v).expect("act @ w2");
        let loss = g.cross_entropy_logits(logits, &self.targets);
        g.backward(loss);
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures the step at every thread count: three warm-up steps on one
/// arena, then the pool misses of one step and the best of `reps`.
pub fn sweep(thread_counts: &[usize], reps: usize) -> Vec<StepMeasurement> {
    let p = Problem::standard();
    let mut rows = Vec::new();
    for &threads in thread_counts {
        acme_runtime::set_global_threads(threads);
        let mut g = Graph::new();
        for _ in 0..3 {
            p.step(&mut g);
        }
        g.reset();
        let before = pool::stats().misses;
        p.step(&mut g);
        let step_allocs = pool::stats().misses - before;
        let step_ms = best_ms(reps, || p.step(&mut g));
        rows.push(StepMeasurement {
            threads,
            step_ms,
            step_allocs,
        });
    }
    acme_runtime::set_global_threads(1);
    rows
}

// ---- per-op table of the reference ViT step ----------------------------

/// One op's share of a training step, per step.
#[derive(Debug, Clone)]
pub struct OpRow {
    /// The op's name in the tape's table (`attention`, `leaf`, …).
    pub op: String,
    /// Nodes of this op per step.
    pub calls: f64,
    /// Forward self-time per step, in ms.
    pub fwd_ms: f64,
    /// Backward self-time per step, in ms.
    pub bwd_ms: f64,
    /// Bytes this op's nodes put on the tape per step (owned values plus
    /// saved state).
    pub value_bytes: f64,
}

/// The per-op breakdown of the reference ViT's training step.
#[derive(Debug, Clone)]
pub struct OpTable {
    /// Ops by descending forward + backward time.
    pub rows: Vec<OpRow>,
    /// Measured forward wall time per step (recording on), in ms.
    pub fwd_ms: f64,
    /// Measured backward wall time per step (recording on), in ms.
    pub bwd_ms: f64,
}

impl OpTable {
    /// The table as JSON rows (no surrounding array).
    pub fn json_rows(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{{\"bench\": \"training_step_vit\", \"threads\": 1, \"batch\": {VIT_BATCH}, \
             \"fwd_ms\": {:.4}, \"bwd_ms\": {:.4}}}",
            self.fwd_ms, self.bwd_ms
        )];
        out.extend(self.rows.iter().map(|r| {
            format!(
                "{{\"bench\": \"training_step_op\", \"threads\": 1, \"op\": \"{}\", \
                 \"calls\": {:.1}, \"fwd_ms\": {:.4}, \"bwd_ms\": {:.4}, \
                 \"value_bytes\": {:.0}}}",
                r.op, r.calls, r.fwd_ms, r.bwd_ms, r.value_bytes
            )
        }));
        out
    }
}

/// Batch of the reference ViT step.
const VIT_BATCH: usize = 32;

/// Runs `steps` training steps (forward, cross-entropy, backward, Adam)
/// of the reference ViT at batch 32 on one thread with recording on,
/// and reads the tape's per-op table back from the `acme-obs` registry.
/// Recording, and a global thread count that was set, are restored to
/// their previous state afterwards.
pub fn vit_op_table(steps: usize) -> OpTable {
    let threads = acme_runtime::global_threads();
    acme_runtime::set_global_threads(1);
    let cfg = VitConfig::reference(10);
    let mut rng = SmallRng64::new(17);
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    let images = randn(&[VIT_BATCH, cfg.channels, cfg.image, cfg.image], &mut rng);
    let labels: Vec<usize> = (0..VIT_BATCH).map(|i| (i * 7) % cfg.classes).collect();
    #[expect(clippy::disallowed_methods, reason = "times fwd, bwd and step apart")]
    let mut opt = Adam::new(1e-3);
    let mut g = Graph::new();
    let mut step = |g: &mut Graph, ps: &mut ParamSet| {
        g.reset();
        let t0 = Instant::now();
        let logits = vit.logits(g, ps, &images);
        let loss = g.cross_entropy_logits(logits, &labels);
        let t1 = Instant::now();
        g.backward(loss);
        let t2 = Instant::now();
        opt.step(ps, g);
        (t1 - t0, t2 - t1)
    };
    // The first steps fill the buffer pool and the optimizer state.
    for _ in 0..3 {
        step(&mut g, &mut ps);
    }
    let was = obs::enabled();
    obs::trace::set_enabled(true);
    let counters = || {
        acme_tensor::publish_obs_metrics();
        obs::metrics::snapshot().counters
    };
    let before = counters();
    let (mut fwd, mut bwd) = (0.0, 0.0);
    for _ in 0..steps {
        let (f, b) = step(&mut g, &mut ps);
        fwd += f.as_secs_f64();
        bwd += b.as_secs_f64();
    }
    let after = counters();
    obs::trace::set_enabled(was);
    if threads > 0 {
        acme_runtime::set_global_threads(threads);
    }
    let per_step = |name: String| {
        let delta =
            after.get(&name).copied().unwrap_or(0) - before.get(&name).copied().unwrap_or(0);
        delta as f64 / steps as f64
    };
    let mut rows: Vec<OpRow> = after
        .keys()
        .filter_map(|k| k.strip_prefix("tensor.op.")?.strip_suffix(".calls"))
        .map(|op| OpRow {
            op: op.to_string(),
            calls: per_step(format!("tensor.op.{op}.calls")),
            fwd_ms: per_step(format!("tensor.op.{op}.fwd_ns")) * 1e-6,
            bwd_ms: per_step(format!("tensor.op.{op}.bwd_ns")) * 1e-6,
            value_bytes: per_step(format!("tensor.op.{op}.value_bytes")),
        })
        .filter(|r| r.calls > 0.0)
        .collect();
    rows.sort_by(|a, b| (b.fwd_ms + b.bwd_ms).total_cmp(&(a.fwd_ms + a.bwd_ms)));
    OpTable {
        rows,
        fwd_ms: fwd * 1e3 / steps as f64,
        bwd_ms: bwd * 1e3 / steps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_sane_rows() {
        let rows = sweep(&[1], 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.step_ms > 0.0);
        let json = r.json();
        assert!(json.starts_with("{\"bench\": \"training_step\", \"threads\": 1, "));
        assert!(json.ends_with(&format!(", \"step_allocs\": {}}}", r.step_allocs)));
    }
}
