//! Reverse-mode gradient rules for every [`Op`](crate::graph::Op).

use crate::array::Array;
use crate::conv::{col2im, im2col};
use crate::graph::{Graph, Op, Var};
use crate::linalg::{invert_perm, matmul_a_bt_kernel, matmul_at_b_kernel, matmul_kernel};
use crate::rowwise;

impl Graph {
    /// Runs the backward sweep from `output`, seeding its gradient with
    /// ones. Leaf gradients are afterwards available via [`Graph::grad`].
    ///
    /// Calling `backward` twice on the same graph accumulates gradients
    /// (the tape is not consumed).
    pub fn backward(&mut self, output: Var) {
        let seed = Array::ones(self.values[output.0].shape());
        self.backward_with(output, seed);
    }

    /// Runs the backward sweep with an explicit output gradient seed.
    ///
    /// The sweep visits only nodes downstream of a leaf that requires a
    /// gradient: everything computed from constants alone is skipped,
    /// and a rule with several inputs
    /// computes only the contributions of inputs that require one (no
    /// `dA` for a product whose left side is constant patches or cached
    /// features). Gradients of the nodes that do require one are
    /// bitwise what a sweep over every node would give them.
    ///
    /// The sweep is clone-free: each node's gradient is *taken* out of
    /// its slot (`Option::take`) for the duration of its rule and put
    /// back afterwards, the out-value and parent values are borrowed
    /// straight from the split `values` arena, and contributions land in
    /// parents via in-place [`Array::add_assign`]. Nothing on the hot
    /// path is copied.
    ///
    /// # Panics
    ///
    /// Panics when `seed`'s shape differs from the output value's shape.
    pub fn backward_with(&mut self, output: Var, seed: Array) {
        assert_eq!(
            seed.shape(),
            self.values[output.0].shape(),
            "backward seed shape mismatch"
        );
        self.mark_needs_grad(output.0);
        if !self.needs_grad[output.0] {
            return;
        }
        Self::accumulate_into(&mut self.grads, output.0, seed);
        for id in (0..=output.0).rev() {
            // Take the gradient while its contributions are computed;
            // parents always precede `id`, so no rule touches this slot.
            // A node that needs no gradient never holds one.
            let Some(grad) = self.grads[id].take() else {
                continue;
            };
            let contributions = Self::contributions(
                &self.values,
                &self.needs_grad,
                &self.ops[id],
                &grad,
                &self.values[id],
            );
            for (parent, contrib) in contributions {
                Self::accumulate_into(&mut self.grads, parent, contrib);
            }
            // Restore so repeated backward calls keep accumulating.
            self.grads[id] = Some(grad);
        }
    }

    /// Records for nodes `0..=last` whether a leaf that requires a
    /// gradient lies upstream: a leaf says so itself, any other node iff
    /// one of its inputs (which always precede it) does.
    fn mark_needs_grad(&mut self, last: usize) {
        let needs = &mut self.needs_grad;
        needs.clear();
        for op in &self.ops[..=last] {
            let need = match op {
                Op::Leaf { requires_grad } => *requires_grad,
                _ => op.any_input(|v| needs[v.0]),
            };
            needs.push(need);
        }
    }

    fn accumulate_into(grads: &mut [Option<Array>], id: usize, contrib: Array) {
        match &mut grads[id] {
            Some(g) => g.add_assign(&contrib),
            slot @ None => *slot = Some(contrib),
        }
    }

    /// The gradient contributions of `op`'s inputs that require one.
    #[allow(clippy::needless_range_loop)] // index loops mirror the math of each rule
    fn contributions(
        values: &[Array],
        needs_grad: &[bool],
        op: &Op,
        grad: &Array,
        out_value: &Array,
    ) -> Vec<(usize, Array)> {
        let val = |v: Var| &values[v.0];
        // `Some((v, rule()))` when `v` requires a gradient; the rule is
        // not run otherwise. A node with one input requires a gradient
        // only through it, so single-input rules below need no check.
        let part = |v: Var, rule: &dyn Fn() -> Array| needs_grad[v.0].then(|| (v.0, rule()));
        let pair = |p: [Option<(usize, Array)>; 2]| p.into_iter().flatten().collect();
        match op {
            Op::Leaf { .. } => Vec::new(),
            Op::Add(a, b) => pair([
                part(*a, &|| grad.reduce_to_shape(val(*a).shape())),
                part(*b, &|| grad.reduce_to_shape(val(*b).shape())),
            ]),
            Op::Sub(a, b) => pair([
                part(*a, &|| grad.reduce_to_shape(val(*a).shape())),
                part(*b, &|| grad.scale(-1.0).reduce_to_shape(val(*b).shape())),
            ]),
            Op::Mul(a, b) => pair([
                part(*a, &|| {
                    grad.mul(val(*b))
                        .expect("mul backward")
                        .reduce_to_shape(val(*a).shape())
                }),
                part(*b, &|| {
                    grad.mul(val(*a))
                        .expect("mul backward")
                        .reduce_to_shape(val(*b).shape())
                }),
            ]),
            Op::Div(a, b) => pair([
                part(*a, &|| {
                    grad.div(val(*b))
                        .expect("div backward")
                        .reduce_to_shape(val(*a).shape())
                }),
                part(*b, &|| {
                    let b2 = val(*b).mul(val(*b)).expect("square");
                    grad.mul(val(*a))
                        .expect("div backward")
                        .div(&b2)
                        .expect("div backward")
                        .scale(-1.0)
                        .reduce_to_shape(val(*b).shape())
                }),
            ]),
            Op::Neg(a) => vec![(a.0, grad.scale(-1.0))],
            Op::Scale(a, c) => vec![(a.0, grad.scale(*c))],
            Op::AddScalar(a) => vec![(a.0, grad.clone())],
            Op::PowScalar(a, p) => {
                let x = val(*a);
                let mut g = grad.clone();
                for (gi, &xi) in g.data_mut().iter_mut().zip(x.data()) {
                    *gi *= p * xi.powf(p - 1.0);
                }
                vec![(a.0, g)]
            }
            Op::MatMul(a, b) => {
                let av = val(*a);
                let bv = val(*b);
                let (m, k) = (av.shape()[0], av.shape()[1]);
                let n = bv.shape()[1];
                pair([
                    // ga = grad @ b^T
                    part(*a, &|| {
                        let mut ga = Array::zeros(&[m, k]);
                        matmul_a_bt_kernel(grad.data(), bv.data(), ga.data_mut(), m, n, k);
                        ga
                    }),
                    // gb = a^T @ grad
                    part(*b, &|| {
                        let mut gb = Array::zeros(&[k, n]);
                        matmul_at_b_kernel(av.data(), grad.data(), gb.data_mut(), k, m, n);
                        gb
                    }),
                ])
            }
            Op::BatchMatMul(a, b) => {
                let av = val(*a);
                let bv = val(*b);
                let r = av.rank();
                let batch: usize = av.shape()[..r - 2].iter().product();
                let (m, k) = (av.shape()[r - 2], av.shape()[r - 1]);
                let n = bv.shape()[r - 1];
                let gslice = |bi: usize| &grad.data()[bi * m * n..(bi + 1) * m * n];
                pair([
                    part(*a, &|| {
                        let mut ga = Array::zeros(av.shape());
                        for bi in 0..batch {
                            matmul_a_bt_kernel(
                                gslice(bi),
                                &bv.data()[bi * k * n..(bi + 1) * k * n],
                                &mut ga.data_mut()[bi * m * k..(bi + 1) * m * k],
                                m,
                                n,
                                k,
                            );
                        }
                        ga
                    }),
                    part(*b, &|| {
                        let mut gb = Array::zeros(bv.shape());
                        for bi in 0..batch {
                            matmul_at_b_kernel(
                                &av.data()[bi * m * k..(bi + 1) * m * k],
                                gslice(bi),
                                &mut gb.data_mut()[bi * k * n..(bi + 1) * k * n],
                                k,
                                m,
                                n,
                            );
                        }
                        gb
                    }),
                ])
            }
            Op::Permute(a, perm) => {
                vec![(
                    a.0,
                    grad.permute(&invert_perm(perm))
                        .expect("inverse permutation"),
                )]
            }
            Op::Reshape(a, orig) => vec![(a.0, grad.reshaped(orig).expect("reshape backward"))],
            Op::SumAll(a) => vec![(a.0, Array::full(val(*a).shape(), grad.item()))],
            Op::MeanAll(a) => {
                let n = val(*a).len().max(1) as f32;
                vec![(a.0, Array::full(val(*a).shape(), grad.item() / n))]
            }
            Op::SumAxis(a, axis) => {
                let shape = val(*a).shape();
                let outer: usize = shape[..*axis].iter().product();
                let mid = shape[*axis];
                let inner: usize = shape[*axis + 1..].iter().product();
                let mut g = Array::zeros(shape);
                for o in 0..outer {
                    for m in 0..mid {
                        for i in 0..inner {
                            g.data_mut()[(o * mid + m) * inner + i] = grad.data()[o * inner + i];
                        }
                    }
                }
                vec![(a.0, g)]
            }
            Op::Relu(a) => {
                let mut g = grad.clone();
                for (gi, &xi) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    if xi <= 0.0 {
                        *gi = 0.0;
                    }
                }
                vec![(a.0, g)]
            }
            Op::Gelu { a, saved } => {
                let mut g = Array::zeros(grad.shape());
                rowwise::gelu_bwd(val(*a).data(), saved.data(), grad.data(), g.data_mut());
                vec![(a.0, g)]
            }
            Op::Tanh(a) => {
                let mut g = grad.clone();
                for (gi, &yi) in g.data_mut().iter_mut().zip(out_value.data()) {
                    *gi *= 1.0 - yi * yi;
                }
                vec![(a.0, g)]
            }
            Op::Sigmoid(a) => {
                let mut g = grad.clone();
                for (gi, &yi) in g.data_mut().iter_mut().zip(out_value.data()) {
                    *gi *= yi * (1.0 - yi);
                }
                vec![(a.0, g)]
            }
            Op::Exp(a) => {
                let mut g = grad.clone();
                for (gi, &yi) in g.data_mut().iter_mut().zip(out_value.data()) {
                    *gi *= yi;
                }
                vec![(a.0, g)]
            }
            Op::Ln(a) => {
                let mut g = grad.clone();
                for (gi, &xi) in g.data_mut().iter_mut().zip(val(*a).data()) {
                    *gi /= xi;
                }
                vec![(a.0, g)]
            }
            Op::SoftmaxLast(a) => {
                // dx = y * (g - sum(g*y)) per row (fused, row-parallel)
                let cols = *out_value.shape().last().unwrap_or(&1);
                let mut g = Array::zeros(grad.shape());
                rowwise::softmax_bwd(out_value.data(), grad.data(), g.data_mut(), cols.max(1));
                vec![(a.0, g)]
            }
            Op::LogSoftmaxLast(a) => {
                // dx = g - softmax * sum(g) per row, softmax = exp(out)
                let cols = *out_value.shape().last().unwrap_or(&1);
                let mut g = Array::zeros(grad.shape());
                rowwise::log_softmax_bwd(out_value.data(), grad.data(), g.data_mut(), cols.max(1));
                vec![(a.0, g)]
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                saved,
            } => {
                let d = *val(*x).shape().last().expect("layer_norm rank");
                let mut gx = Array::zeros(val(*x).shape());
                let mut ggamma = Array::zeros(&[d]);
                let mut gbeta = Array::zeros(&[d]);
                rowwise::layer_norm_bwd(
                    saved.data(),
                    val(*gamma).data(),
                    grad.data(),
                    gx.data_mut(),
                    ggamma.data_mut(),
                    gbeta.data_mut(),
                    d,
                );
                // One fused kernel yields all three; keep the needed ones.
                [(*x, gx), (*gamma, ggamma), (*beta, gbeta)]
                    .into_iter()
                    .filter(|(v, _)| needs_grad[v.0])
                    .map(|(v, g)| (v.0, g))
                    .collect()
            }
            Op::CrossEntropyLogits { logits, targets } => {
                let lv = val(*logits);
                let (b, c) = (lv.shape()[0], lv.shape()[1]);
                let scale = grad.item() / b as f32;
                // Recomputes each row's softmax bit-identically to the
                // forward — cheaper than carrying a saved copy on the tape.
                let mut g = Array::zeros(&[b, c]);
                rowwise::cross_entropy_bwd(lv.data(), targets, c, scale, g.data_mut());
                vec![(logits.0, g)]
            }
            Op::MseLoss(a, b) => {
                let av = val(*a);
                let bv = val(*b);
                let n = av.len().max(1) as f32;
                let d = av
                    .sub(bv)
                    .expect("mse backward")
                    .scale(2.0 * grad.item() / n);
                pair([part(*a, &|| d.clone()), part(*b, &|| d.scale(-1.0))])
            }
            Op::Concat { parts, axis, sizes } => {
                let chunks = grad.split(*axis, sizes).expect("concat backward split");
                parts
                    .iter()
                    .zip(chunks)
                    .filter(|(p, _)| needs_grad[p.0])
                    .map(|(p, c)| (p.0, c))
                    .collect()
            }
            Op::SliceAxis {
                input,
                axis,
                start,
                len,
            } => {
                let ishape = val(*input).shape().to_vec();
                let outer: usize = ishape[..*axis].iter().product();
                let mid = ishape[*axis];
                let inner: usize = ishape[*axis + 1..].iter().product();
                let mut g = Array::zeros(&ishape);
                for o in 0..outer {
                    for m in 0..*len {
                        let src = (o * len + m) * inner;
                        let dst = (o * mid + start + m) * inner;
                        g.data_mut()[dst..dst + inner]
                            .copy_from_slice(&grad.data()[src..src + inner]);
                    }
                }
                vec![(input.0, g)]
            }
            Op::Conv2d {
                input,
                weight,
                bias,
                geom,
            } => {
                let g = geom;
                let (ch, cw) = (g.col_height(), g.col_width());
                let in_plane = g.in_ch * g.in_h * g.in_w;
                let iv = val(*input);
                let wv = val(*weight);
                let mut gin = needs_grad[input.0].then(|| Array::zeros(iv.shape()));
                // [out_ch, cw] flat
                let mut gw = needs_grad[weight.0].then(|| Array::zeros(wv.shape()));
                let mut gb = bias
                    .filter(|b| needs_grad[b.0])
                    .map(|_| Array::zeros(&[g.out_ch]));
                let mut col = vec![0.0f32; ch * cw];
                let mut gcol = vec![0.0f32; ch * cw];
                for b in 0..g.batch {
                    // gout for this batch: [out_ch, ch] contiguous
                    let gout = &grad.data()[b * g.out_ch * ch..(b + 1) * g.out_ch * ch];
                    if let Some(gw) = gw.as_mut() {
                        im2col(&iv.data()[b * in_plane..(b + 1) * in_plane], g, &mut col);
                        // gw[o, c] += sum_yx gout[o, yx] * col[yx, c]
                        matmul_kernel(gout, &col, gw.data_mut(), g.out_ch, ch, cw);
                    }
                    if let Some(gin) = gin.as_mut() {
                        // gcol[yx, c] = sum_o gout[o, yx] * w[o, c] = gout^T @ w
                        gcol.iter_mut().for_each(|v| *v = 0.0);
                        matmul_at_b_kernel(gout, wv.data(), &mut gcol, ch, g.out_ch, cw);
                        col2im(
                            &gcol,
                            g,
                            &mut gin.data_mut()[b * in_plane..(b + 1) * in_plane],
                        );
                    }
                    if let Some(gb) = gb.as_mut() {
                        for o in 0..g.out_ch {
                            let s: f32 = gout[o * ch..(o + 1) * ch].iter().sum();
                            gb.data_mut()[o] += s;
                        }
                    }
                }
                [
                    gin.map(|gin| (input.0, gin)),
                    gw.map(|gw| (weight.0, gw)),
                    bias.zip(gb).map(|(b, gb)| (b.0, gb)),
                ]
                .into_iter()
                .flatten()
                .collect()
            }
            Op::MaxPool2d { input, argmax } => {
                let mut g = Array::zeros(val(*input).shape());
                for (oi, &ii) in argmax.iter().enumerate() {
                    g.data_mut()[ii] += grad.data()[oi];
                }
                vec![(input.0, g)]
            }
            Op::AvgPool2d { input, geom } => {
                let g2 = geom;
                let inv = 1.0 / (g2.k * g2.k) as f32;
                let mut g = Array::zeros(val(*input).shape());
                let (ih, iw) = (g2.in_h, g2.in_w);
                for b in 0..g2.batch {
                    for c in 0..g2.ch {
                        let base = (b * g2.ch + c) * ih * iw;
                        for oy in 0..g2.out_h {
                            for ox in 0..g2.out_w {
                                let go = grad.data()
                                    [((b * g2.ch + c) * g2.out_h + oy) * g2.out_w + ox]
                                    * inv;
                                for ky in 0..g2.k {
                                    for kx in 0..g2.k {
                                        g.data_mut()
                                            [base + (oy * g2.k + ky) * iw + (ox * g2.k + kx)] += go;
                                    }
                                }
                            }
                        }
                    }
                }
                vec![(input.0, g)]
            }
            Op::Embedding { weight, indices } => {
                let wv = val(*weight);
                let d = wv.shape()[1];
                let mut g = Array::zeros(wv.shape());
                for (r, &i) in indices.iter().enumerate() {
                    for j in 0..d {
                        g.data_mut()[i * d + j] += grad.data()[r * d + j];
                    }
                }
                vec![(weight.0, g)]
            }
            Op::Dropout { input, mask } => {
                vec![(input.0, grad.mul(mask).expect("dropout backward"))]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{randn, SmallRng64};

    #[test]
    fn add_mul_chain_grads() {
        // s = sum((a + b) * a); ds/da = (a+b) + a = 2a + b; ds/db = a
        let mut g = Graph::new();
        let a = g.leaf(Array::from_slice(&[1.0, 2.0]));
        let b = g.leaf(Array::from_slice(&[3.0, 5.0]));
        let t = g.add(a, b);
        let p = g.mul(t, a);
        let s = g.sum_all(p);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[5.0, 9.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Array::ones(&[2, 3]));
        let b = g.leaf(Array::zeros(&[3]));
        let t = g.add(a, b);
        let s = g.sum_all(t);
        g.backward(s);
        assert_eq!(g.grad(b).unwrap().shape(), &[3]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_grads_match_formula() {
        let mut rng = SmallRng64::new(0);
        let mut g = Graph::new();
        let a = g.leaf(randn(&[3, 4], &mut rng));
        let b = g.leaf(randn(&[4, 2], &mut rng));
        let c = g.matmul(a, b).expect("shapes match");
        let s = g.sum_all(c);
        g.backward(s);
        // ds/da = ones @ b^T
        let ones = Array::ones(&[3, 2]);
        let expect_ga = ones.matmul(&g.value(b).transpose2d().unwrap()).unwrap();
        for (x, y) in g.grad(a).unwrap().data().iter().zip(expect_ga.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Array::from_slice(&[2.0]));
        let c = g.constant(Array::from_slice(&[3.0]));
        let p = g.mul(a, c);
        let s = g.sum_all(p);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().data(), &[3.0]);
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn cross_entropy_grad_is_softmax_minus_onehot() {
        let mut g = Graph::new();
        let x = g.leaf(Array::zeros(&[2, 3]));
        let l = g.cross_entropy_logits(x, &[0, 2]);
        g.backward(l);
        let gx = g.grad(x).unwrap();
        let third = 1.0 / 3.0;
        let expected = [
            (third - 1.0) / 2.0,
            third / 2.0,
            third / 2.0,
            third / 2.0,
            third / 2.0,
            (third - 1.0) / 2.0,
        ];
        for (a, b) in gx.data().iter().zip(&expected) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn relu_masks_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_slice(&[-1.0, 2.0]));
        let y = g.relu(x);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_vec(vec![1.0, 2.0, 3.0, 9.0], &[1, 1, 2, 2]).unwrap());
        let y = g.max_pool2d(x, 2);
        let s = g.sum_all(y);
        g.backward(s);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn embedding_accumulates_repeated_indices() {
        let mut g = Graph::new();
        let w = g.leaf(Array::zeros(&[3, 2]));
        let e = g.embedding(w, &[1, 1, 2]);
        let s = g.sum_all(e);
        g.backward(s);
        assert_eq!(g.grad(w).unwrap().data(), &[0.0, 0.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_twice_accumulates() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_slice(&[1.0]));
        let s = g.sum_all(x);
        g.backward(s);
        g.backward(s);
        // Gradients accumulate across backward calls (grad of s seeds again),
        // and the intermediate node's grad doubles too.
        assert!(g.grad(x).unwrap().data()[0] >= 2.0);
    }
}
