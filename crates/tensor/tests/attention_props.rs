//! `Graph::attention` is bit-identical to the unfused graph it replaced
//! (reshape → permute → `batch_matmul` → `scale` → `softmax_last` →
//! `batch_matmul` → `mul` by the head mask → permute → reshape), forward
//! and backward — the query, key, value and mask gradients — at the
//! model shapes the workspace runs, with and without a mask, with a
//! constant query, and at one and two global threads; and its gradients
//! agree with finite differences.

use acme_check::Gen;
use acme_tensor::{gradcheck, Array, Graph, Var};

/// `(tokens, head_dim, heads)` of the reference ViT, its half-width
/// Phase 1 candidate, the tiny/quick config, `serving_default` and
/// `quantized_default`, plus a head width that is no whole number of
/// register tiles (the kernel's scalar column tail).
const SHAPES: [(usize, usize, usize); 6] = [
    (17, 8, 4),
    (17, 8, 2),
    (5, 8, 2),
    (2, 16, 4),
    (2, 64, 6),
    (7, 12, 3),
];
const BATCHES: [usize; 3] = [1, 3, 32];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mask {
    None,
    /// A constant mask: a `g.constant` var, as the layer tests feed it.
    Constant,
    /// A leaf mask whose gradient is the head importance.
    Leaf,
}

/// The oracle: multi-head attention exactly as the nn layer spelled it
/// before the fused op.
#[allow(clippy::too_many_arguments)]
fn unfused(
    g: &mut Graph,
    [q, k, v]: [Var; 3],
    mask: Option<Var>,
    b: usize,
    t: usize,
    heads: usize,
    dh: usize,
) -> Var {
    let to_heads = |g: &mut Graph, x: Var| {
        let x = g.reshape(x, &[b, t, heads, dh]);
        g.permute(x, &[0, 2, 1, 3])
    };
    let (q, k, v) = (to_heads(g, q), to_heads(g, k), to_heads(g, v));
    let kt = g.permute(k, &[0, 1, 3, 2]);
    let scores = g.batch_matmul(q, kt).expect("score shapes");
    let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
    let attn = g.softmax_last(scores);
    let mut out = g.batch_matmul(attn, v).expect("value shapes");
    if let Some(m) = mask {
        out = g.mul(out, m);
    }
    let out = g.permute(out, &[0, 2, 1, 3]);
    g.reshape(out, &[b * t, heads * dh])
}

/// Inputs of one case, drawn from its stream.
struct Inputs {
    qkv: [Array; 3],
    mask: Array,
    seed: Array,
}

fn draw(gen: &mut Gen, shape: &[usize], lo: f32, hi: f32) -> Array {
    let n = shape.iter().product();
    let data = (0..n).map(|_| gen.f32(lo..hi)).collect();
    Array::from_vec(data, shape).expect("volume")
}

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs forward plus a backward seeded with `seed` through `build`, and
/// returns the output bits and the q, k, v and mask gradient bits (an
/// empty vector where there is no gradient).
fn run(
    inputs: &Inputs,
    mask_mode: Mask,
    q_const: bool,
    build: impl Fn(&mut Graph, [Var; 3], Option<Var>) -> Var,
) -> [Vec<u32>; 5] {
    let mut g = Graph::new();
    let [q, k, v] = &inputs.qkv;
    let q = if q_const {
        g.constant(q.clone())
    } else {
        g.leaf(q.clone())
    };
    let (k, v) = (g.leaf(k.clone()), g.leaf(v.clone()));
    let mask = match mask_mode {
        Mask::None => None,
        Mask::Constant => Some(g.constant(inputs.mask.clone())),
        Mask::Leaf => Some(g.leaf(inputs.mask.clone())),
    };
    let y = build(&mut g, [q, k, v], mask);
    g.backward_with(y, inputs.seed.clone());
    let grad = |x: Option<Var>| x.and_then(|x| g.grad(x)).map(bits).unwrap_or_default();
    [
        bits(g.value(y)),
        grad(Some(q)),
        grad(Some(k)),
        grad(Some(v)),
        grad(mask),
    ]
}

#[test]
fn fused_attention_is_bit_identical_to_the_unfused_graph() {
    let combos: Vec<(Mask, bool, usize)> = [Mask::None, Mask::Constant, Mask::Leaf]
        .into_iter()
        .flat_map(|m| [false, true].map(|q_const| (m, q_const)))
        .flat_map(|(m, q_const)| [1, 2].map(|threads| (m, q_const, threads)))
        .collect();
    let mut next = combos.iter().cycle();
    acme_check::cases(combos.len() as u32, |gen| {
        let &(mask_mode, q_const, threads) = next.next().expect("cycle");
        acme_runtime::set_global_threads(threads);
        for (t, dh, heads) in SHAPES {
            for b in BATCHES {
                let rows = [b * t, heads * dh];
                let inputs = Inputs {
                    qkv: [(); 3].map(|_| draw(gen, &rows, -2.0, 2.0)),
                    mask: draw(gen, &[1, heads, 1, 1], 0.0, 1.5),
                    seed: draw(gen, &rows, -1.0, 1.0),
                };
                let fused = run(&inputs, mask_mode, q_const, |g, qkv, m| {
                    let [q, k, v] = qkv;
                    g.attention(q, k, v, m, t, heads)
                });
                let oracle = run(&inputs, mask_mode, q_const, |g, qkv, m| {
                    unfused(g, qkv, m, b, t, heads, dh)
                });
                for (what, (f, o)) in ["output", "dq", "dk", "dv", "dmask"]
                    .iter()
                    .zip(fused.iter().zip(&oracle))
                {
                    assert!(
                        f == o,
                        "{what} differs: T {t}, head_dim {dh}, heads {heads}, batch {b}, \
                         {mask_mode:?} mask, q constant {q_const}, {threads} threads"
                    );
                }
                assert_eq!(fused[1].is_empty(), q_const, "dq only for a leaf query");
                assert_eq!(fused[4].is_empty(), mask_mode != Mask::Leaf);
            }
        }
    });
    acme_runtime::set_global_threads(1);
}

#[test]
fn batches_sharded_over_threads_keep_every_bit() {
    // 64 × 4 × 17² scores: past the fork cutoff, so two threads split
    // the forward's batches (and the unfused softmax its rows).
    let (b, t, dh, heads) = (64, 17, 8, 4);
    acme_check::cases(2, |gen| {
        let rows = [b * t, heads * dh];
        let inputs = Inputs {
            qkv: [(); 3].map(|_| draw(gen, &rows, -2.0, 2.0)),
            mask: draw(gen, &[1, heads, 1, 1], 0.0, 1.5),
            seed: draw(gen, &rows, -1.0, 1.0),
        };
        let fused_at = |threads| {
            acme_runtime::set_global_threads(threads);
            run(&inputs, Mask::Leaf, false, |g, [q, k, v], m| {
                g.attention(q, k, v, m, t, heads)
            })
        };
        let (one, two) = (fused_at(1), fused_at(2));
        let oracle = run(&inputs, Mask::Leaf, false, |g, qkv, m| {
            unfused(g, qkv, m, b, t, heads, dh)
        });
        assert!(one == two, "fused attention moved with the thread count");
        assert!(
            two == oracle,
            "sharded fused attention differs from the oracle"
        );
    });
    acme_runtime::set_global_threads(1);
}

#[test]
fn attention_gradients_match_finite_differences() {
    let (b, t, dh, heads) = (2, 3, 4, 2);
    acme_check::cases(3, |gen| {
        let rows = [b * t, heads * dh];
        let inputs: Vec<Array> = [(); 3]
            .map(|_| draw(gen, &rows, -1.0, 1.0))
            .into_iter()
            .chain([draw(gen, &[1, heads, 1, 1], 0.5, 1.5)])
            .collect();
        let weights = draw(gen, &rows, -1.0, 1.0);
        let err = gradcheck(&inputs, 1e-2, |g, x| {
            let y = g.attention(x[0], x[1], x[2], Some(x[3]), t, heads);
            let w = g.constant(weights.clone());
            let weighted = g.mul(y, w);
            g.sum_all(weighted)
        });
        assert!(err <= 3e-2, "max relative error {err}");
    });
}

#[test]
#[should_panic(expected = "head mask length")]
fn rejects_a_mask_of_the_wrong_length() {
    let mut g = Graph::new();
    let x = g.constant(Array::zeros(&[4, 8]));
    let m = g.constant(Array::ones(&[3]));
    g.attention(x, x, x, Some(m), 2, 2);
}
