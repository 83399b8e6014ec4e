//! `Graph::linear` is one node bit-identical to the four an affine map
//! over `[.., in]` rows once took: `reshape` to `[rows, in]`, `matmul`,
//! broadcast `add` of the bias, `reshape` back to `[.., out]`. Checked
//! for the forward value and the `x`, `w` and `b` gradients, at inputs of
//! rank 2, 3 and 4 and at one product past the GEMM's sharding cutoff,
//! at 1, 2 and 4 threads; for the forward at `Precision::Int8` against a
//! weight bound with a pack identity; and for one `x` feeding three
//! linears (the q/k/v projections), which pins the order in which their
//! contributions add into `dx`.

use std::sync::{Arc, Mutex, MutexGuard};

use acme_check::Gen;
use acme_tensor::packcache::{fresh_store_id, PackIdent};
use acme_tensor::{Array, Graph, Precision, Var};

/// The runtime thread count and the pack cache are process-global; the
/// tests of this binary take turns.
static GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn draw(gen: &mut Gen, shape: &[usize], lo: f32, hi: f32) -> Array {
    let n = shape.iter().product();
    let data = (0..n).map(|_| gen.f32(lo..hi)).collect();
    Array::from_vec(data, shape).expect("volume")
}

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// The affine map as four nodes: flatten `x`'s rows, `matmul`, `add`
/// the bias, restore the leading dims.
fn four_nodes(g: &mut Graph, x: Var, w: Var, b: Var) -> Var {
    let shape = g.shape(x).to_vec();
    let (&k, lead) = shape.split_last().expect("rank 1 or more");
    let rows: usize = lead.iter().product();
    let flat = g.reshape(x, &[rows, k]);
    let y = g.matmul(flat, w).expect("shapes match");
    let y = g.add(y, b);
    let mut out = lead.to_vec();
    out.push(g.shape(w)[1]);
    g.reshape(y, &out)
}

fn one_node(g: &mut Graph, x: Var, w: Var, b: Var) -> Var {
    g.linear(x, w, b)
}

/// One case's operands: `x` `[.., k]`, `w` `[k, n]`, `b` `[n]` and the
/// backward seed `[.., n]`.
struct Inputs {
    x: Array,
    w: Array,
    b: Array,
    seed: Array,
}

impl Inputs {
    fn draw(gen: &mut Gen, lead: &[usize], k: usize, n: usize) -> Inputs {
        let shape = |last: usize| lead.iter().copied().chain([last]).collect::<Vec<_>>();
        Inputs {
            x: draw(gen, &shape(k), -2.0, 2.0),
            w: draw(gen, &[k, n], -1.0, 1.0),
            b: draw(gen, &[n], -1.0, 1.0),
            seed: draw(gen, &shape(n), -1.0, 1.0),
        }
    }
}

/// Forward plus a backward from `inputs.seed` through `affine`: the
/// output bits, then the `x`, `w` and `b` gradient bits.
fn run(inputs: &Inputs, affine: fn(&mut Graph, Var, Var, Var) -> Var) -> [Vec<u32>; 4] {
    let mut g = Graph::new();
    let x = g.leaf(inputs.x.clone());
    let w = g.leaf(inputs.w.clone());
    let b = g.leaf(inputs.b.clone());
    let y = affine(&mut g, x, w, b);
    g.backward_with(y, inputs.seed.clone());
    let grad = |v: Var| bits(g.grad(v).expect("a gradient leaf upstream"));
    [bits(g.value(y)), grad(x), grad(w), grad(b)]
}

fn assert_same(fused: &[Vec<u32>], oracle: &[Vec<u32>], case: &str) {
    for (what, (f, o)) in ["output", "dx", "dw", "db"]
        .iter()
        .zip(fused.iter().zip(oracle))
    {
        assert!(f == o, "{what} differs: {case}");
    }
}

#[test]
fn linear_is_bit_identical_to_reshape_matmul_add_reshape() {
    let _g = guard();
    let combos: Vec<(usize, usize)> = [2, 3, 4]
        .into_iter()
        .flat_map(|rank| [1, 2, 4].map(|threads| (rank, threads)))
        .collect();
    let mut next = combos.iter().cycle();
    acme_check::cases(2 * combos.len() as u32, |gen| {
        let &(rank, threads) = next.next().expect("cycle");
        acme_runtime::set_global_threads(threads);
        for _ in 0..4 {
            let lead: Vec<usize> = (1..rank).map(|_| gen.usize(1..7)).collect();
            // Widths on both sides of the microkernel's 48-column tile.
            let (k, n) = (gen.usize(1..70), gen.usize(1..70));
            let inputs = Inputs::draw(gen, &lead, k, n);
            let case = format!("x {lead:?} × {k}, w {k} × {n}, {threads} threads");
            assert_same(&run(&inputs, one_node), &run(&inputs, four_nodes), &case);
        }
    });
    acme_runtime::set_global_threads(1);
}

#[test]
fn a_product_sharded_over_threads_keeps_every_bit() {
    let _g = guard();
    // 512 rows × 512 × 288: 75 M multiply-adds, past the blocked GEMM's
    // 2^26 fork cutoff in the forward product and in both backward ones,
    // so 2 and 4 threads really split them.
    acme_check::cases(1, |gen| {
        let inputs = Inputs::draw(gen, &[2, 256], 512, 288);
        let oracle = run(&inputs, four_nodes);
        for threads in [1, 2, 4] {
            acme_runtime::set_global_threads(threads);
            let case = format!("x [2, 256, 512], w 512 × 288, {threads} threads");
            assert_same(&run(&inputs, one_node), &oracle, &case);
        }
    });
    acme_runtime::set_global_threads(1);
}

#[test]
fn int8_linear_over_a_packed_weight_is_the_four_nodes_forward() {
    let _g = guard();
    acme_check::cases(3, |gen| {
        // 96 × 64 floats: large enough for the pack cache.
        let inputs = Inputs::draw(gen, &[3, 17], 96, 64);
        let w = Arc::new(inputs.w.clone());
        let ident = PackIdent {
            store: fresh_store_id(),
            slot: 0,
            version: 0,
        };
        let forward = |affine: fn(&mut Graph, Var, Var, Var) -> Var| {
            let mut g = Graph::new();
            g.set_matmul_precision(Precision::Int8);
            let x = g.constant(inputs.x.clone());
            let wv = g.bind_param(1, &w, false, Some(ident));
            let b = g.constant(inputs.b.clone());
            let y = affine(&mut g, x, wv, b);
            bits(g.value(y))
        };
        let fused = forward(one_node);
        assert!(fused == forward(four_nodes), "int8 output differs");
        // The quantized product is not the f32 one: the pack was used.
        let f32_out = run(&inputs, one_node).into_iter().next().expect("output");
        assert!(fused != f32_out, "the int8 forward ran at f32");
    });
}

/// Three projections of `x`, concatenated along the last axis.
type Qkv = fn(&mut Graph, Var, [(Var, Var); 3]) -> Var;

/// Three `linear` nodes over one `x`.
fn qkv_linear(g: &mut Graph, x: Var, ws: [(Var, Var); 3]) -> Var {
    let parts = ws.map(|(w, b)| g.linear(x, w, b));
    let axis = g.shape(parts[0]).len() - 1;
    g.concat(&parts, axis)
}

/// The two-node-per-map spelling with one shared flatten, as the
/// attention layer wrote its q/k/v projections.
fn qkv_flat(g: &mut Graph, x: Var, ws: [(Var, Var); 3]) -> Var {
    let shape = g.shape(x).to_vec();
    let (&k, lead) = shape.split_last().expect("rank 1 or more");
    let flat = g.reshape(x, &[lead.iter().product(), k]);
    let parts = ws.map(|(w, b)| {
        let y = g.matmul(flat, w).expect("shapes match");
        let y = g.add(y, b);
        let mut out = lead.to_vec();
        out.push(g.shape(w)[1]);
        g.reshape(y, &out)
    });
    g.concat(&parts, lead.len())
}

#[test]
fn one_x_into_three_linears_sums_dx_in_the_same_order() {
    let _g = guard();
    acme_check::cases(6, |gen| {
        let lead = [gen.usize(1..5), gen.usize(1..18)];
        let (k, n) = (gen.usize(1..40), gen.usize(1..40));
        let x = draw(gen, &[lead[0], lead[1], k], -2.0, 2.0);
        let ws: Vec<(Array, Array)> = (0..3)
            .map(|_| (draw(gen, &[k, n], -1.0, 1.0), draw(gen, &[n], -1.0, 1.0)))
            .collect();
        let seed = draw(gen, &[lead[0], lead[1], 3 * n], -1.0, 1.0);
        let run_qkv = |build: Qkv| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let mut leaves = ws
                .iter()
                .map(|(w, b)| (g.leaf(w.clone()), g.leaf(b.clone())));
            let vars = [(); 3].map(|_| leaves.next().expect("three maps"));
            let y = build(&mut g, xv, vars);
            g.backward_with(y, seed.clone());
            let mut out = vec![bits(g.value(y)), bits(g.grad(xv).expect("dx"))];
            for (w, b) in vars {
                out.extend([w, b].map(|v| bits(g.grad(v).expect("dw, db"))));
            }
            out
        };
        let (fused, oracle) = (run_qkv(qkv_linear), run_qkv(qkv_flat));
        assert!(fused[0] == oracle[0], "output differs");
        assert!(fused[1] == oracle[1], "dx differs: x {lead:?} × {k}, n {n}");
        assert!(
            fused[2..] == oracle[2..],
            "a weight or bias gradient differs"
        );
    });
}
