//! Property tests of the allocation discipline and of the training step
//! it serves: a step on a reused (`Graph::reset`) tape arena must be
//! bit-identical to one on a fresh graph over cleared pool free lists,
//! at every thread count; the engine's matmul → layer_norm → gelu →
//! matmul → cross-entropy step must be bit-identical to the same
//! arithmetic written out as plain loops; steady-state steps must stop
//! allocating; and resetting a graph must not invalidate the int8
//! pack cache.

use acme_check::cases;
use acme_tensor::gemm::{self, MatRef};
use acme_tensor::packcache::{self, PackIdent};
use acme_tensor::{fastmath, pool, randn, Array, Graph, Precision, SmallRng64};
use std::sync::{Arc, Mutex, MutexGuard};

/// The pool, the pack cache, and the runtime thread count are all
/// process-global; every test in this binary serializes on this lock.
static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// One representative training step — GEMM, GeLU, LayerNorm,
/// log-softmax, cross-entropy, full backward — returning the exact bit
/// patterns of the loss and every parameter gradient.
fn step_bits(
    g: &mut Graph,
    x: &Array,
    w1: &Arc<Array>,
    w2: &Arc<Array>,
    gamma: &Arc<Array>,
    beta: &Arc<Array>,
    targets: &[usize],
) -> Vec<u32> {
    let xv = g.leaf(x.clone());
    let w1v = g.bind_param(1, w1, true, None);
    let w2v = g.bind_param(2, w2, true, None);
    let gv = g.bind_param(3, gamma, true, None);
    let bv = g.bind_param(4, beta, true, None);
    let h = g.matmul(xv, w1v).expect("x @ w1");
    let h = g.gelu(h);
    let h = g.layer_norm(h, gv, bv, 1e-5);
    let logits = g.matmul(h, w2v).expect("h @ w2");
    let lsm = g.log_softmax_last(logits);
    let total = g.sum_all(lsm);
    let aux = g.scale(total, 1.0 / g.value(lsm).len() as f32);
    let ce = g.cross_entropy_logits(logits, targets);
    let loss = g.add(ce, aux);
    g.backward(loss);
    let mut bits = vec![g.value(loss).item().to_bits()];
    for v in [xv, w1v, w2v, gv, bv] {
        let grad = g.grad(v).expect("gradient reaches every input");
        bits.extend(grad.data().iter().map(|f| f.to_bits()));
    }
    bits
}

/// A step's inputs: `x` is `rows x d_in`, `w1` `d_in x hidden`, `w2`
/// `hidden x classes`, `gamma` and `beta` `hidden`.
struct Problem {
    x: Array,
    w1: Arc<Array>,
    w2: Arc<Array>,
    gamma: Arc<Array>,
    beta: Arc<Array>,
    targets: Vec<usize>,
}

fn problem(seed: u64, rows: usize, d_in: usize, hidden: usize, classes: usize) -> Problem {
    let mut rng = SmallRng64::new(seed);
    Problem {
        x: randn(&[rows, d_in], &mut rng),
        w1: Arc::new(randn(&[d_in, hidden], &mut rng)),
        w2: Arc::new(randn(&[hidden, classes], &mut rng)),
        gamma: Arc::new(randn(&[hidden], &mut rng)),
        beta: Arc::new(randn(&[hidden], &mut rng)),
        targets: (0..rows)
            .map(|i| (i * 7 + seed as usize) % classes)
            .collect(),
    }
}

fn run(p: &Problem, g: &mut Graph) -> Vec<u32> {
    step_bits(g, &p.x, &p.w1, &p.w2, &p.gamma, &p.beta, &p.targets)
}

/// Baseline: a fresh graph at one thread, over free lists emptied first.
/// Buffers dropped during the step (temporaries, the tape's non-leaf
/// grads in backward) are still recycled and taken again within it, so
/// this is not a pool-free run; the reference tests below
/// (`engine_step_matches_the_reference_*`) are the check that does not
/// depend on the pool.
fn baseline_bits(p: &Problem) -> Vec<u32> {
    acme_runtime::set_global_threads(1);
    pool::clear();
    run(p, &mut Graph::new())
}

/// Asserts that `step` on a fresh graph, and on one arena replaying it
/// several times, gives `expected` at `threads`.
fn check_reuse_matches(
    expected: &[u32],
    threads: usize,
    mut step: impl FnMut(&mut Graph) -> Vec<u32>,
) {
    acme_runtime::set_global_threads(threads);
    assert_eq!(
        step(&mut Graph::new()),
        expected,
        "fresh graph diverged at {threads} threads"
    );
    let mut g = Graph::new();
    for rep in 0..3 {
        g.reset();
        assert_eq!(
            step(&mut g),
            expected,
            "reused arena diverged at {threads} threads, step {rep}"
        );
    }
}

#[test]
fn pooled_reuse_is_bit_identical_across_threads() {
    cases(8, |g| {
        let seed = g.u64(0..1 << 32);
        let rows = g.usize(2..24);
        let d_sel = g.usize(0..3);
        let classes = g.usize(2..12);
        let _lock = guard();
        let d = [8, 16, 32][d_sel];
        let p = problem(seed, rows, d, d, classes);
        let baseline = baseline_bits(&p);
        for threads in [1, 2, 4] {
            check_reuse_matches(&baseline, threads, |g| run(&p, g));
        }
        acme_runtime::set_global_threads(1);
    });
}

/// Big enough that every fused row-wise kernel of the step clears its
/// cost cutoff (`rowwise.rs`: the highest class, GELU backward, forks
/// from 560 k elements; the 9216 x 24 logits clear the 62 k of the `exp`
/// class) and really shards across the runtime pool. The kernels' unit
/// tests force the sharded bodies at small sizes; this is the whole step
/// through the public API.
#[test]
fn parallel_kernels_bit_identical_at_1_2_4_threads() {
    let _lock = guard();
    let p = problem(42, 9216, 64, 64, 24);
    let baseline = baseline_bits(&p);
    for threads in [1, 2, 4] {
        check_reuse_matches(&baseline, threads, |g| run(&p, g));
    }
    acme_runtime::set_global_threads(1);
}

// ---- the reference step ------------------------------------------------

/// GELU (tanh approximation) of a scalar, on `fastmath`'s `tanh` as the
/// engine's kernel computes it.
fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fastmath::tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu`].
fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = fastmath::tanh(u);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// `a @ b` (`m x k` by `k x n`) into a zeroed buffer, on the blocked
/// GEMM the engine's matmul runs.
fn product(a: MatRef<'_>, b: MatRef<'_>, m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0; m * n];
    gemm::gemm(a, b, &mut out, m, k, n, &acme_runtime::global_pool());
    out
}

/// The engine's step `matmul → layer_norm → gelu → matmul →
/// cross-entropy`, every float operation written out in the order the
/// engine's kernels perform it: per-row sums ascending, layer norm's
/// column sums in row order, the softmax as max / exp / ascending sum /
/// divide, the loss in f64. Returns the loss bits, then the gradients'
/// bits of `x`, `w1`, `w2`, `gamma` and `beta`.
#[allow(clippy::needless_range_loop)] // index loops keep the engine's order visible
fn reference_bits(p: &Problem) -> Vec<u32> {
    let (rows, d_in) = (p.x.shape()[0], p.x.shape()[1]);
    let (hidden, classes) = (p.w2.shape()[0], p.w2.shape()[1]);
    let (x, w1, w2) = (p.x.data(), p.w1.data(), p.w2.data());
    let (gamma, beta) = (p.gamma.data(), p.beta.data());

    // Forward: h1 = x @ w1, layer norm, GELU, logits = act @ w2.
    let h1 = product(
        MatRef::row_major(x, d_in),
        MatRef::row_major(w1, hidden),
        rows,
        d_in,
        hidden,
    );
    let mut xhat = vec![0.0f32; rows * hidden];
    let mut inv_std = vec![0.0f32; rows];
    let mut ln = vec![0.0f32; rows * hidden];
    for r in 0..rows {
        let row = &h1[r * hidden..(r + 1) * hidden];
        let mean = row.iter().sum::<f32>() / hidden as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / hidden as f32;
        inv_std[r] = 1.0 / (var + 1e-5).sqrt();
        for i in 0..hidden {
            let h = (row[i] - mean) * inv_std[r];
            xhat[r * hidden + i] = h;
            ln[r * hidden + i] = h * gamma[i] + beta[i];
        }
    }
    let act: Vec<f32> = ln.iter().map(|&v| gelu(v)).collect();
    let logits = product(
        MatRef::row_major(&act, hidden),
        MatRef::row_major(w2, classes),
        rows,
        hidden,
        classes,
    );

    // Cross-entropy: softmax rows, mean negative log-likelihood in f64.
    let mut softmax = logits;
    for row in softmax.chunks_mut(classes) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
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
        loss -= (softmax[r * classes + t].max(1e-12) as f64).ln();
    }
    let loss = (loss / rows as f64) as f32;

    // Backward from a unit seed: (softmax - onehot) / rows.
    let scale = 1.0 / rows as f32;
    let mut glogits = softmax;
    for (r, &t) in p.targets.iter().enumerate() {
        glogits[r * classes + t] -= 1.0;
    }
    glogits.iter_mut().for_each(|v| *v *= scale);

    // logits = act @ w2: gact = glogits @ w2^T, gw2 = act^T @ glogits.
    let gact = product(
        MatRef::row_major(&glogits, classes),
        MatRef::transposed(w2, classes),
        rows,
        classes,
        hidden,
    );
    let gw2 = product(
        MatRef::transposed(&act, hidden),
        MatRef::row_major(&glogits, classes),
        hidden,
        rows,
        classes,
    );

    // GELU, then layer norm.
    let gln: Vec<f32> = gact
        .iter()
        .zip(&ln)
        .map(|(&g, &v)| g * gelu_grad(v))
        .collect();
    let mut gh1 = vec![0.0f32; rows * hidden];
    let mut ggamma = vec![0.0f32; hidden];
    let mut gbeta = vec![0.0f32; hidden];
    let mut dxh = vec![0.0f32; hidden];
    for r in 0..rows {
        let xh = &xhat[r * hidden..(r + 1) * hidden];
        let go = &gln[r * hidden..(r + 1) * hidden];
        for i in 0..hidden {
            ggamma[i] += go[i] * xh[i];
            gbeta[i] += go[i];
            dxh[i] = go[i] * gamma[i];
        }
        let mean_dxh = dxh.iter().sum::<f32>() / hidden as f32;
        let mean_dxh_xh = dxh.iter().zip(xh).map(|(&a, &b)| a * b).sum::<f32>() / hidden as f32;
        for i in 0..hidden {
            gh1[r * hidden + i] = inv_std[r] * (dxh[i] - mean_dxh - xh[i] * mean_dxh_xh);
        }
    }

    // h1 = x @ w1: gx = gh1 @ w1^T, gw1 = x^T @ gh1.
    let gx = product(
        MatRef::row_major(&gh1, hidden),
        MatRef::transposed(w1, hidden),
        rows,
        hidden,
        d_in,
    );
    let gw1 = product(
        MatRef::transposed(x, d_in),
        MatRef::row_major(&gh1, hidden),
        d_in,
        rows,
        hidden,
    );

    let mut bits = vec![loss.to_bits()];
    for grad in [&gx, &gw1, &gw2, &ggamma, &gbeta] {
        bits.extend(grad.iter().map(|f| f.to_bits()));
    }
    bits
}

/// [`reference_bits`]' step on the engine, on `g`.
fn engine_bits(p: &Problem, g: &mut Graph) -> Vec<u32> {
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
        let grad = g.grad(v).expect("gradient reaches every input");
        bits.extend(grad.data().iter().map(|f| f.to_bits()));
    }
    bits
}

/// Asserts the engine's step equals [`reference_bits`] on a fresh graph
/// and on a reused arena, at 1, 2 and 4 threads.
fn check_reference(p: &Problem) {
    acme_runtime::set_global_threads(1);
    let expected = reference_bits(p);
    for threads in [1, 2, 4] {
        check_reuse_matches(&expected, threads, |g| engine_bits(p, g));
    }
    acme_runtime::set_global_threads(1);
}

#[test]
fn engine_step_matches_the_reference_bitwise() {
    cases(8, |g| {
        let seed = g.u64(0..1 << 32);
        let rows = g.usize(1..48);
        let d_in = [8, 16, 64][g.usize(0..3)];
        let hidden = [16, 48, 256][g.usize(0..3)];
        let classes = g.usize(2..12);
        let _lock = guard();
        check_reference(&problem(seed, rows, d_in, hidden, classes));
    });
}

/// The shape of a tiny ViT block's MLP path over a token batch, which
/// the `training_step` bench times, and one tall enough (2304 x 256,
/// 590 k elements) that layer norm and GELU, backward included, shard
/// across the runtime pool.
#[test]
fn engine_step_matches_the_reference_at_the_bench_and_sharded_shapes() {
    let _lock = guard();
    check_reference(&problem(17, 128, 64, 256, 10));
    check_reference(&problem(5, 2304, 64, 256, 10));
}

#[test]
fn reused_arena_stops_allocating_after_warmup() {
    let _lock = guard();
    acme_runtime::set_global_threads(1);
    let p = problem(7, 32, 32, 32, 10);
    let mut g = Graph::new();
    for _ in 0..2 {
        g.reset();
        run(&p, &mut g);
    }
    g.reset(); // retire the last step's buffers before sampling
    let before = pool::stats().misses;
    for _ in 0..5 {
        g.reset();
        run(&p, &mut g);
    }
    let after = pool::stats().misses;
    assert_eq!(
        after, before,
        "steady-state steps must be served entirely from the pool"
    );
}

/// An int8 graph quantizes a frozen weight once: `Graph::reset` and a
/// re-bind keep hitting its cached pack.
#[test]
fn graph_reset_keeps_pack_cache_warm() {
    let _lock = guard();
    acme_runtime::set_global_threads(1);
    let mut rng = SmallRng64::new(3);
    // ≥ 64x64 so the packed form is cache-eligible.
    let w = Arc::new(randn(&[64, 64], &mut rng));
    let x = randn(&[8, 64], &mut rng);
    let ident = PackIdent {
        store: packcache::fresh_store_id(),
        slot: 0,
        version: 1,
    };
    let mut g = Graph::new();
    g.set_matmul_precision(Precision::Int8);
    let step = |g: &mut Graph| {
        g.reset();
        let xv = g.leaf(x.clone());
        let wv = g.bind_param(11, &w, true, Some(ident));
        let y = g.matmul(xv, wv).expect("x @ w");
        let loss = g.sum_all(y);
        g.backward(loss);
    };
    step(&mut g); // warm the cache (one pack allowed)
    let (warm, hits) = (packcache::i8_packs(), packcache::i8_hits());
    for _ in 0..5 {
        step(&mut g);
    }
    assert_eq!(packcache::i8_hits(), hits + 5, "every step hits the cache");
    assert_eq!(
        packcache::i8_packs(),
        warm,
        "Graph::reset + re-bind must keep hitting the int8 pack cache"
    );
}
