//! `Graph::conv2d` lowers the whole batch once and runs one GEMM per
//! product; this checks it is bit-identical to the per-example loop it
//! replaced — one `im2col` and one naive product per example, padding
//! taps multiplied as zeros — forward and backward (the input, weight
//! and bias gradients), on seeded geometries: batch 1–33, channels
//! 1–17, maps 1–8, kernels 1 / 3 / 5, stride 1 / 2, padding 0–2. Inputs,
//! weights and upstream gradients carry zeros of both signs, nodes run
//! with a constant input or a constant weight (so only some gradients
//! are asked for), and every case runs at one and two global threads.

use acme_check::Gen;
use acme_tensor::gemm::madd;
use acme_tensor::{Array, Graph};

/// One drawn convolution: shapes and the values fed to it.
struct Case {
    x: Array,
    w: Array,
    b: Array,
    seed: Array,
    stride: usize,
    pad: usize,
}

/// A value in `[-2, 2)`, or a zero of either sign one time in four.
fn value(gen: &mut Gen) -> f32 {
    match gen.usize(0..8) {
        0 => 0.0,
        1 => -0.0,
        _ => gen.f32(-2.0..2.0),
    }
}

fn draw(gen: &mut Gen, shape: &[usize]) -> Array {
    let n = shape.iter().product();
    Array::from_vec((0..n).map(|_| value(gen)).collect(), shape).expect("volume")
}

fn case(gen: &mut Gen) -> Case {
    let batch = gen.usize(1..34);
    let (cin, cout) = (gen.usize(1..18), gen.usize(1..18));
    let k: usize = [1, 3, 5][gen.usize(0..3)];
    let stride = gen.usize(1..3);
    let pad = gen.usize(0..3);
    // The padded map must hold the kernel.
    let least = k.saturating_sub(2 * pad).max(1);
    let (h, w) = (gen.usize(least..9), gen.usize(least..9));
    let x = draw(gen, &[batch, cin, h, w]);
    let wt = draw(gen, &[cout, cin, k, k]);
    let b = draw(gen, &[cout]);
    let (oh, ow) = (
        (h + 2 * pad - k) / stride + 1,
        (w + 2 * pad - k) / stride + 1,
    );
    let seed = draw(gen, &[batch, cout, oh, ow]);
    Case {
        x,
        w: wt,
        b,
        seed,
        stride,
        pad,
    }
}

/// The oracle: the per-example loop, written out. Returns the output
/// and the input, weight and bias gradients.
fn per_example(c: &Case) -> [Vec<f32>; 4] {
    let [bn, cin, h, w] = c.x.shape().try_into().expect("rank 4");
    let [o_n, _, kh, kw] = c.w.shape().try_into().expect("rank 4");
    let [_, _, oh, ow] = c.seed.shape().try_into().expect("rank 4");
    let (hw, ck, plane) = (oh * ow, cin * kh * kw, cin * h * w);
    let (x, wt, bias, gout) = (c.x.data(), c.w.data(), c.b.data(), c.seed.data());
    // Input offset of tap (yx, col), or None in the padding.
    let tap = |yx: usize, col: usize| {
        let (oy, ox) = (yx / ow, yx % ow);
        let (ch, ky, kx) = (col / (kh * kw), col / kw % kh, col % kw);
        let iy = (oy * c.stride + ky).checked_sub(c.pad)?;
        let ix = (ox * c.stride + kx).checked_sub(c.pad)?;
        (iy < h && ix < w).then(|| (ch * h + iy) * w + ix)
    };
    let mut out = vec![0.0; bn * o_n * hw];
    let mut gin = vec![0.0; bn * plane];
    let mut gw = vec![0.0; o_n * ck];
    let mut gb = vec![0.0; o_n];
    for b in 0..bn {
        let xb = &x[b * plane..(b + 1) * plane];
        let gb_out = &gout[b * o_n * hw..(b + 1) * o_n * hw];
        let col: Vec<f32> = (0..hw * ck)
            .map(|i| tap(i / ck, i % ck).map_or(0.0, |t| xb[t]))
            .collect();
        for yx in 0..hw {
            for o in 0..o_n {
                let mut acc = 0.0;
                for p in 0..ck {
                    acc = madd(col[yx * ck + p], wt[o * ck + p], acc);
                }
                out[(b * o_n + o) * hw + yx] = acc + bias[o];
            }
        }
        for o in 0..o_n {
            for yx in 0..hw {
                for p in 0..ck {
                    let i = o * ck + p;
                    gw[i] = madd(gb_out[o * hw + yx], col[yx * ck + p], gw[i]);
                }
            }
        }
        let mut gcol = vec![0.0; hw * ck];
        for yx in 0..hw {
            for p in 0..ck {
                for o in 0..o_n {
                    gcol[yx * ck + p] =
                        madd(gb_out[o * hw + yx], wt[o * ck + p], gcol[yx * ck + p]);
                }
            }
        }
        for yx in 0..hw {
            for p in 0..ck {
                if let Some(t) = tap(yx, p) {
                    gin[b * plane + t] += gcol[yx * ck + p];
                }
            }
        }
        for o in 0..o_n {
            let s: f32 = gb_out[o * hw..(o + 1) * hw].iter().sum();
            gb[o] += s;
        }
    }
    [out, gin, gw, gb]
}

/// Which of the node's inputs are leaves (need a gradient); the rest
/// are constants.
#[derive(Debug, Clone, Copy)]
enum Leaves {
    All,
    /// A constant input, as a header's first conv over cached features:
    /// no `dX`.
    WeightAndBias,
    /// Constant weight and bias, as a frozen layer: only `dX`.
    Input,
}

/// `Graph::conv2d` forward and backward; a gradient that was not asked
/// for is `None`.
fn graph(c: &Case, leaves: Leaves) -> [Option<Vec<f32>>; 4] {
    let mut g = Graph::new();
    let (x_leaf, wb_leaf) = match leaves {
        Leaves::All => (true, true),
        Leaves::WeightAndBias => (false, true),
        Leaves::Input => (true, false),
    };
    let bind = |g: &mut Graph, a: &Array, leaf: bool| {
        if leaf {
            g.leaf(a.clone())
        } else {
            g.constant(a.clone())
        }
    };
    let x = bind(&mut g, &c.x, x_leaf);
    let w = bind(&mut g, &c.w, wb_leaf);
    let b = bind(&mut g, &c.b, wb_leaf);
    let y = g.conv2d(x, w, b, c.stride, c.pad);
    g.backward_with(y, c.seed.clone());
    let grad = |v| g.grad(v).map(|a| a.data().to_vec());
    [Some(g.value(y).data().to_vec()), grad(x), grad(w), grad(b)]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn batched_conv_is_bit_identical_to_the_per_example_loop() {
    let modes = [Leaves::All, Leaves::WeightAndBias, Leaves::Input];
    let mut next = modes.iter().cycle();
    acme_check::cases(96, |gen| {
        let c = case(gen);
        let leaves = *next.next().expect("cycle");
        let oracle = per_example(&c);
        for threads in [1, 2] {
            acme_runtime::set_global_threads(threads);
            let got = graph(&c, leaves);
            let asked = match leaves {
                Leaves::All => [true; 4],
                Leaves::WeightAndBias => [true, false, true, true],
                Leaves::Input => [true, true, false, false],
            };
            let what = ["output", "dX", "dW", "db"];
            for i in 0..4 {
                let shapes = (c.x.shape(), c.w.shape(), c.stride, c.pad);
                assert_eq!(
                    got[i].is_some(),
                    asked[i],
                    "{} asked for: {leaves:?} {shapes:?}",
                    what[i]
                );
                if let Some(v) = &got[i] {
                    assert!(
                        bits(v) == bits(&oracle[i]),
                        "{} differs: input {:?}, weight {:?}, stride {}, pad {}, \
                         {leaves:?}, {threads} threads",
                        what[i],
                        c.x.shape(),
                        c.w.shape(),
                        c.stride,
                        c.pad
                    );
                }
            }
        }
    });
    acme_runtime::set_global_threads(1);
}

/// A padding tap multiplies as a zero: on a 1×1 map with a 3×3 kernel
/// and padding 1, each output pixel reads its one input value through
/// the kernel's centre and the padding through the other eight weights.
/// An infinite corner weight makes the pad's product `0·∞ = NaN`, which
/// a kernel that skipped padding taps would never compute.
#[test]
fn padding_taps_stay_in_the_product() {
    let mut w = vec![1.0; 9];
    w[0] = f32::INFINITY;
    let c = Case {
        x: Array::from_vec(vec![2.0], &[1, 1, 1, 1]).expect("volume"),
        w: Array::from_vec(w, &[1, 1, 3, 3]).expect("volume"),
        b: Array::from_vec(vec![0.0], &[1]).expect("volume"),
        seed: Array::from_vec(vec![1.0], &[1, 1, 1, 1]).expect("volume"),
        stride: 1,
        pad: 1,
    };
    let out = graph(&c, Leaves::All)[0].clone().expect("output");
    assert!(out[0].is_nan(), "the padding tap's 0·∞ joins the chain");
    assert!(per_example(&c)[0][0].is_nan());
}
