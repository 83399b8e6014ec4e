//! Property tests of the allocation discipline: a training step on a
//! reused (`Graph::reset`) tape arena must be bit-identical to one on a
//! freshly allocated graph with the buffer pool disabled, at every
//! thread count; steady-state steps must stop allocating; and resetting
//! a graph must not invalidate the packed-weight cache.

use acme_check::cases;
use acme_tensor::packcache::{self, PackIdent};
use acme_tensor::{pool, randn, Array, Graph, SmallRng64};
use std::sync::{Mutex, MutexGuard};

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
    w1: &Array,
    w2: &Array,
    gamma: &Array,
    beta: &Array,
    targets: &[usize],
) -> Vec<u32> {
    let xv = g.leaf(x.clone());
    let w1v = g.bind_param(1, w1);
    let w2v = g.bind_param(2, w2);
    let gv = g.bind_param(3, gamma);
    let bv = g.bind_param(4, beta);
    let h = g.matmul(xv, w1v).expect("x @ w1");
    let h = g.gelu(h);
    let h = g.layer_norm(h, gv, bv, 1e-5);
    let logits = g.matmul(h, w2v).expect("h @ w2");
    let lsm = g.log_softmax_last(logits);
    let aux = g.mean_all(lsm);
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

struct Problem {
    x: Array,
    w1: Array,
    w2: Array,
    gamma: Array,
    beta: Array,
    targets: Vec<usize>,
}

fn problem(seed: u64, rows: usize, d: usize, classes: usize) -> Problem {
    let mut rng = SmallRng64::new(seed);
    Problem {
        x: randn(&[rows, d], &mut rng),
        w1: randn(&[d, d], &mut rng),
        w2: randn(&[d, classes], &mut rng),
        gamma: randn(&[d], &mut rng),
        beta: randn(&[d], &mut rng),
        targets: (0..rows)
            .map(|i| (i * 7 + seed as usize) % classes)
            .collect(),
    }
}

fn run(p: &Problem, g: &mut Graph) -> Vec<u32> {
    step_bits(g, &p.x, &p.w1, &p.w2, &p.gamma, &p.beta, &p.targets)
}

/// Baseline: fresh graph per step, pool off — the pre-pool allocation
/// behaviour.
fn baseline_bits(p: &Problem) -> Vec<u32> {
    acme_runtime::set_global_threads(1);
    let was = pool::set_enabled(false);
    let bits = run(p, &mut Graph::new());
    pool::set_enabled(was);
    bits
}

/// Asserts pooled reuse matches `baseline` at `threads`, including when
/// the same arena replays the step several times.
fn check_reuse_matches(p: &Problem, baseline: &[u32], threads: usize) {
    acme_runtime::set_global_threads(threads);
    assert_eq!(
        run(p, &mut Graph::new()),
        baseline,
        "fresh graph diverged at {threads} threads"
    );
    let mut g = Graph::new();
    for step in 0..3 {
        g.reset();
        assert_eq!(
            run(p, &mut g),
            baseline,
            "reused arena diverged at {threads} threads, step {step}"
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
        let p = problem(seed, rows, d, classes);
        let baseline = baseline_bits(&p);
        for threads in [1, 2, 4] {
            check_reuse_matches(&p, &baseline, threads);
        }
        acme_runtime::set_global_threads(1);
    });
}

/// Big enough that every fused row-wise kernel of the step clears its
/// cost cutoff (`rowwise.rs`: the highest class, GELU backward, forks
/// from 560 k elements; the 9216 x 24 logits clear the 51 k of the `exp`
/// class) and really shards across the runtime pool. The kernels' unit
/// tests force the sharded bodies at small sizes; this is the whole step
/// through the public API.
#[test]
fn parallel_kernels_bit_identical_at_1_2_4_threads() {
    let _lock = guard();
    let p = problem(42, 9216, 64, 24);
    let baseline = baseline_bits(&p);
    for threads in [1, 2, 4] {
        check_reuse_matches(&p, &baseline, threads);
    }
    acme_runtime::set_global_threads(1);
}

#[test]
fn reused_arena_stops_allocating_after_warmup() {
    let _lock = guard();
    acme_runtime::set_global_threads(1);
    let p = problem(7, 32, 32, 10);
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

#[test]
fn graph_reset_keeps_pack_cache_warm() {
    let _lock = guard();
    acme_runtime::set_global_threads(1);
    let mut rng = SmallRng64::new(3);
    // ≥ 64x64 so the packed form is cache-eligible.
    let w = randn(&[64, 64], &mut rng);
    let x = randn(&[8, 64], &mut rng);
    let ident = PackIdent {
        store: packcache::fresh_store_id(),
        slot: 0,
        version: 1,
    };
    let mut g = Graph::new();
    let step = |g: &mut Graph| {
        g.reset();
        let xv = g.leaf(x.clone());
        let wv = g.bind_param_ident(11, ident, &w, true);
        let y = g.matmul(xv, wv).expect("x @ w");
        let loss = g.sum_all(y);
        g.backward(loss);
    };
    step(&mut g); // warm the cache (one pack allowed)
    let warm = packcache::packs();
    for _ in 0..5 {
        step(&mut g);
    }
    assert_eq!(
        packcache::packs(),
        warm,
        "Graph::reset + re-bind must keep hitting the packed-weight cache"
    );
}
