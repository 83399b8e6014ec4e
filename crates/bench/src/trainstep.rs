//! Training-step harness: times one ViT-block-style fwd+bwd step (GEMM →
//! LayerNorm → GeLU → GEMM → cross-entropy, full backward to every
//! parameter) on the pooled, fused, clone-free engine against a verbatim
//! replica of the pre-pool step, and emits `BENCH_training_step.json`
//! (run via `cargo bench -p acme-bench --bench training_step`;
//! `--quick` shrinks the sweep to a CI-sized smoke case).
//!
//! [`vit_op_table`] adds the per-op breakdown of a second step: the
//! reference ViT's batch-32 training step, read from the tape's per-op
//! self-time table (`tensor.op.*` in the `acme-obs` registry).
//!
//! The baseline keeps the engine's *arithmetic* — the same blocked GEMM,
//! the same per-row float-op order — but reproduces the old engine's
//! *memory traffic*: a fresh buffer per op, clone-then-overwrite
//! kernels, cloned tape grads and values in backward, and no buffer
//! pool. Because both paths share every float operation in the same
//! order, the harness asserts their loss and parameter gradients are
//! **bit-identical** before timing anything; a divergence panics, which
//! fails CI.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use acme_nn::{Adam, Optimizer, ParamSet};
use acme_tensor::gemm::{self, MatRef};
use acme_tensor::{fastmath, obs, pool, randn, Array, Graph, SmallRng64};
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
    /// Best-of-reps wall time of the pre-pool replica step, in ms.
    pub baseline_ms: f64,
    /// Best-of-reps wall time of the pooled engine step, in ms.
    pub step_ms: f64,
    /// Heap allocations per step through the tensor pool, replica path.
    pub baseline_allocs: u64,
    /// Heap allocations per step on the reused arena, after warmup.
    pub step_allocs: u64,
}

impl StepMeasurement {
    /// Baseline-over-engine step-time speedup.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.step_ms
    }

    /// Allocation reduction factor (baseline over engine, floor 1 alloc).
    pub fn alloc_drop(&self) -> f64 {
        self.baseline_allocs as f64 / (self.step_allocs.max(1)) as f64
    }
}

/// The fixed training-step problem, shared by both paths.
pub struct Problem {
    x: Array,
    w1: Arc<Array>,
    w2: Arc<Array>,
    gamma: Arc<Array>,
    beta: Arc<Array>,
    targets: Vec<usize>,
}

impl Problem {
    /// The standard harness problem (seeded, deterministic).
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
}

/// The step's observable result: loss bits plus every parameter
/// gradient's bits, for the bitwise cross-check.
#[derive(PartialEq, Eq)]
pub struct StepBits(Vec<u32>);

// ---- pre-pool replica ---------------------------------------------------

/// GELU (tanh approximation) of a scalar — verbatim copy of the engine's
/// kernel, kept here so the replica survives future engine changes. The
/// transcendentals are the engine's own (`acme_tensor::fastmath`), as in
/// the softmax below.
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fastmath::tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu_scalar`], same provenance.
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = fastmath::tanh(u);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// One full step exactly as the pre-pool engine executed it: every op
/// materializes fresh buffers (several via clone-then-overwrite), the
/// backward walk clones each visited node's grad *and* value off the
/// tape — leaves included — and per-row scratch is allocated inside the
/// loops. Dead clones are routed through [`std::hint::black_box`] so
/// the optimizer cannot elide traffic the old engine really paid for.
#[allow(clippy::needless_range_loop)] // index loops mirror the old engine's rules
fn baseline_step(p: &Problem) -> StepBits {
    use std::hint::black_box;
    // Graph build: `leaf`/`bind_param` cloned every input onto the tape.
    let x_n = p.x.clone();
    let w1_n = Array::clone(&p.w1);
    let w2_n = Array::clone(&p.w2);
    let gamma_n = Array::clone(&p.gamma);
    let beta_n = Array::clone(&p.beta);
    // Forward: h1 = x @ w1.
    let mut h1 = Array::zeros(&[ROWS, HIDDEN]);
    gemm::gemm(
        MatRef::row_major(x_n.data(), D_IN),
        MatRef::row_major(w1_n.data(), HIDDEN),
        h1.data_mut(),
        ROWS,
        D_IN,
        HIDDEN,
        &acme_runtime::global_pool(),
    );
    // LayerNorm, old style: clone input, normalize in place, clone again
    // for the affine output, inv_std in a side vector.
    let mut normalized = h1.clone();
    let mut inv_std = Vec::with_capacity(ROWS);
    for r in 0..ROWS {
        let row = &mut normalized.data_mut()[r * HIDDEN..(r + 1) * HIDDEN];
        let mean = row.iter().sum::<f32>() / HIDDEN as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / HIDDEN as f32;
        let is = 1.0 / (var + 1e-5).sqrt();
        inv_std.push(is);
        for v in row.iter_mut() {
            *v = (*v - mean) * is;
        }
    }
    let gv = gamma_n.clone();
    let bv = beta_n.clone();
    let mut ln = normalized.clone();
    for r in 0..ROWS {
        let row = &mut ln.data_mut()[r * HIDDEN..(r + 1) * HIDDEN];
        for (i, v) in row.iter_mut().enumerate() {
            *v = *v * gv.data()[i] + bv.data()[i];
        }
    }
    // GeLU into a fresh map-allocated buffer.
    let act = ln.map(gelu_scalar);
    // logits = act @ w2.
    let mut logits = Array::zeros(&[ROWS, CLASSES]);
    gemm::gemm(
        MatRef::row_major(act.data(), HIDDEN),
        MatRef::row_major(w2_n.data(), CLASSES),
        logits.data_mut(),
        ROWS,
        HIDDEN,
        CLASSES,
        &acme_runtime::global_pool(),
    );
    // Cross-entropy, old style: clone-then-overwrite softmax, then a
    // second saved softmax lives on the tape until backward.
    let mut softmax = logits.clone();
    for r in 0..ROWS {
        let row = &mut softmax.data_mut()[r * CLASSES..(r + 1) * CLASSES];
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = fastmath::exp(*v - m);
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    let mut loss = 0.0f64;
    for (r, &t) in p.targets.iter().enumerate() {
        loss -= (softmax.data()[r * CLASSES + t].max(1e-12) as f64).ln();
    }
    let loss = (loss / ROWS as f64) as f32;
    let loss_node = Array::from_slice(&[loss]);

    // Backward, old style. The walk visited every node carrying a grad —
    // leaves included — and cloned both the grad and the node's value off
    // the tape before applying the rule.
    let seed = Array::ones(&[1]);

    // Visit loss (cross-entropy): grad = seed, value = loss scalar.
    let grad = seed.clone();
    black_box(loss_node.clone());
    let scale = grad.item() / ROWS as f32;
    let mut glogits = softmax.clone();
    for (r, &t) in p.targets.iter().enumerate() {
        glogits.data_mut()[r * CLASSES + t] -= 1.0;
    }
    let glogits = glogits.scale(scale);

    // Visit logits (matmul): gact = glogits @ w2^T, gw2 = act^T @ glogits.
    let grad = glogits.clone();
    black_box(logits.clone());
    let mut gact = Array::zeros(&[ROWS, HIDDEN]);
    gemm::gemm(
        MatRef::row_major(grad.data(), CLASSES),
        MatRef::transposed(w2_n.data(), CLASSES),
        gact.data_mut(),
        ROWS,
        CLASSES,
        HIDDEN,
        &acme_runtime::global_pool(),
    );
    let mut gw2 = Array::zeros(&[HIDDEN, CLASSES]);
    gemm::gemm(
        MatRef::transposed(act.data(), HIDDEN),
        MatRef::row_major(grad.data(), CLASSES),
        gw2.data_mut(),
        HIDDEN,
        ROWS,
        CLASSES,
        &acme_runtime::global_pool(),
    );

    // Visit act (GeLU): the rule clones the grad again, then re-derives
    // the inner tanh from scratch for every element.
    let grad = gact.clone();
    black_box(act.clone());
    let mut gln = grad.clone();
    for (gi, &xi) in gln.data_mut().iter_mut().zip(ln.data()) {
        *gi *= gelu_grad_scalar(xi);
    }

    // Visit ln (LayerNorm): per-row scratch vectors inside the loop.
    let grad = gln.clone();
    black_box(ln.clone());
    let mut gh1 = Array::zeros(&[ROWS, HIDDEN]);
    let mut ggamma = Array::zeros(&[HIDDEN]);
    let mut gbeta = Array::zeros(&[HIDDEN]);
    for r in 0..ROWS {
        let xh = &normalized.data()[r * HIDDEN..(r + 1) * HIDDEN];
        let go = &grad.data()[r * HIDDEN..(r + 1) * HIDDEN];
        for i in 0..HIDDEN {
            ggamma.data_mut()[i] += go[i] * xh[i];
            gbeta.data_mut()[i] += go[i];
        }
        let dxh: Vec<f32> = (0..HIDDEN).map(|i| go[i] * gv.data()[i]).collect();
        let mean_dxh: f32 = dxh.iter().sum::<f32>() / HIDDEN as f32;
        let mean_dxh_xh: f32 =
            dxh.iter().zip(xh).map(|(&a, &b)| a * b).sum::<f32>() / HIDDEN as f32;
        let is = inv_std[r];
        let gxs = &mut gh1.data_mut()[r * HIDDEN..(r + 1) * HIDDEN];
        for i in 0..HIDDEN {
            gxs[i] = is * (dxh[i] - mean_dxh - xh[i] * mean_dxh_xh);
        }
    }

    // Visit h1 (matmul): gx = gh1 @ w1^T, gw1 = x^T @ gh1.
    let grad = gh1.clone();
    black_box(h1.clone());
    let mut gx = Array::zeros(&[ROWS, D_IN]);
    gemm::gemm(
        MatRef::row_major(grad.data(), HIDDEN),
        MatRef::transposed(w1_n.data(), HIDDEN),
        gx.data_mut(),
        ROWS,
        HIDDEN,
        D_IN,
        &acme_runtime::global_pool(),
    );
    let mut gw1 = Array::zeros(&[D_IN, HIDDEN]);
    gemm::gemm(
        MatRef::transposed(x_n.data(), D_IN),
        MatRef::row_major(grad.data(), HIDDEN),
        gw1.data_mut(),
        D_IN,
        ROWS,
        HIDDEN,
        &acme_runtime::global_pool(),
    );

    // Visit the five leaves: the walk still clones each one's grad and
    // value before discovering the leaf rule has no contributions.
    for (g, v) in [
        (&gbeta, &beta_n),
        (&ggamma, &gamma_n),
        (&gw2, &w2_n),
        (&gw1, &w1_n),
        (&gx, &x_n),
    ] {
        black_box(g.clone());
        black_box(v.clone());
    }

    let mut bits = vec![loss.to_bits()];
    for a in [&gx, &gw1, &gw2, &ggamma, &gbeta] {
        bits.extend(a.data().iter().map(|f| f.to_bits()));
    }
    StepBits(bits)
}

// ---- pooled engine ------------------------------------------------------

/// The same step on the autograd engine, reusing `g`'s arena.
fn engine_step(p: &Problem, g: &mut Graph) -> StepBits {
    g.reset();
    let xv = g.leaf(p.x.clone());
    let w1v = g.bind_param(1, &p.w1, true, None);
    let w2v = g.bind_param(2, &p.w2, true, None);
    let gav = g.bind_param(3, &p.gamma, true, None);
    let bev = g.bind_param(4, &p.beta, true, None);
    let h1 = g.matmul(xv, w1v).expect("x @ w1");
    let ln = g.layer_norm(h1, gav, bev, 1e-5);
    let act = g.gelu(ln);
    let logits = g.matmul(act, w2v).expect("act @ w2");
    let loss = g.cross_entropy_logits(logits, &p.targets);
    g.backward(loss);
    let mut bits = vec![g.value(loss).item().to_bits()];
    for v in [xv, w1v, w2v, gav, bev] {
        let grad = g.grad(v).expect("param gradient");
        bits.extend(grad.data().iter().map(|f| f.to_bits()));
    }
    StepBits(bits)
}

// ---- harness ------------------------------------------------------------

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

/// Pool misses (heap allocations through the tensor pool) during `f`.
fn allocs_during(mut f: impl FnMut()) -> u64 {
    let before = pool::stats().misses;
    f();
    pool::stats().misses - before
}

/// Measures the step on both paths for every thread count, asserting
/// bitwise-identical results first.
///
/// # Panics
///
/// Panics when the engine's loss or gradients diverge from the replica's
/// by a single bit at any thread count — the correctness gate.
pub fn sweep(thread_counts: &[usize], reps: usize) -> Vec<StepMeasurement> {
    let p = Problem::standard();
    let mut rows = Vec::new();
    for &threads in thread_counts {
        acme_runtime::set_global_threads(threads);
        let mut g = Graph::new();
        assert!(
            baseline_step(&p) == engine_step(&p, &mut g),
            "engine step diverged from the pre-pool replica at {threads} threads"
        );
        // Baseline: pool off, so every Array hits the allocator like the
        // pre-pool engine did.
        let was = pool::set_enabled(false);
        let baseline_allocs = allocs_during(|| {
            baseline_step(&p);
        });
        let baseline_ms = best_ms(reps, || {
            baseline_step(&p);
        });
        pool::set_enabled(was);
        // Engine: reused arena; warm up, then measure steady state.
        for _ in 0..3 {
            engine_step(&p, &mut g);
        }
        g.reset();
        let step_allocs = allocs_during(|| {
            engine_step(&p, &mut g);
        });
        let step_ms = best_ms(reps, || {
            engine_step(&p, &mut g);
        });
        rows.push(StepMeasurement {
            threads,
            baseline_ms,
            step_ms,
            baseline_allocs,
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
            "  {{\"bench\": \"training_step_vit\", \"threads\": 1, \"batch\": {VIT_BATCH}, \
             \"fwd_ms\": {:.4}, \"bwd_ms\": {:.4}}}",
            self.fwd_ms, self.bwd_ms
        )];
        out.extend(self.rows.iter().map(|r| {
            format!(
                "  {{\"bench\": \"training_step_op\", \"threads\": 1, \"op\": \"{}\", \
                 \"calls\": {:.1}, \"fwd_ms\": {:.4}, \"bwd_ms\": {:.4}}}",
                r.op, r.calls, r.fwd_ms, r.bwd_ms
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

/// Serializes the sweep, followed by `extra` rows, to a JSON array
/// (hand-rolled — the bench crate deliberately has no serialization
/// dependency).
fn to_json(rows: &[StepMeasurement], extra: &[String]) -> String {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"bench\": \"training_step\", \"threads\": {}, \
                 \"baseline_ms\": {:.4}, \"step_ms\": {:.4}, \"speedup\": {:.3}, \
                 \"baseline_allocs\": {}, \"step_allocs\": {}, \"alloc_drop\": {:.1}}}",
                r.threads,
                r.baseline_ms,
                r.step_ms,
                r.speedup(),
                r.baseline_allocs,
                r.step_allocs,
                r.alloc_drop(),
            )
        })
        .collect();
    lines.extend_from_slice(extra);
    format!("[\n{}\n]", lines.join(",\n"))
}

/// Writes the JSON summary (the sweep, then `extra` rows) to `path`,
/// returning the serialized string.
pub fn write_json(
    path: &str,
    rows: &[StepMeasurement],
    extra: &[String],
) -> std::io::Result<String> {
    let json = to_json(rows, extra);
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_and_engine_agree_bitwise() {
        acme_runtime::set_global_threads(1);
        let p = Problem::standard();
        let mut g = Graph::new();
        assert!(baseline_step(&p) == engine_step(&p, &mut g));
        // And again on the reused arena.
        assert!(baseline_step(&p) == engine_step(&p, &mut g));
    }

    #[test]
    fn sweep_produces_sane_rows() {
        let rows = sweep(&[1], 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.baseline_ms > 0.0 && r.step_ms > 0.0);
        assert!(r.baseline_allocs > 0, "replica must allocate");
        assert!(r.alloc_drop() >= 1.0);
    }

    #[test]
    fn json_is_well_formed() {
        let rows = vec![StepMeasurement {
            threads: 1,
            baseline_ms: 2.0,
            step_ms: 1.0,
            baseline_allocs: 40,
            step_allocs: 0,
        }];
        let json = to_json(&rows, &[]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"alloc_drop\": 40.0"));
        assert!(!json.contains("},\n]"), "no trailing comma");
    }
}
