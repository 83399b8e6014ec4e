//! Reverse-mode gradient rules for every [`Op`](crate::graph::Op).

use std::time::Instant;

use acme_obs::mem::{self, Owner};

use crate::array::Array;
use crate::attention;
use crate::conv::conv2d_backward;
use crate::gemm::{self, MatRef};
use crate::graph::{Graph, Op, Value, Var};
use crate::linalg::invert_perm;
use crate::{optable, rowwise};

impl Graph {
    /// Runs the backward sweep from `output`, seeding its gradient with
    /// ones. Leaf gradients are afterwards available via [`Graph::grad`];
    /// every inner node's gradient is released during the sweep.
    ///
    /// Calling `backward` twice on the same graph adds the second sweep's
    /// leaf gradients to the first's (the tape is not consumed): each
    /// sweep starts from its seed alone.
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
    /// its slot (`Option::take`) for the duration of its rule, the
    /// out-value and parent values are borrowed straight from the split
    /// `values` arena, and contributions land in parents via in-place
    /// [`Array::add_assign`]. Nothing on the hot path is copied.
    ///
    /// Only leaves keep their gradient. An inner node's gradient has
    /// reached all of its inputs once its rule has run, so it goes back
    /// to the buffer [`pool`](crate::pool) right then, where the next
    /// rule's contributions find it: a tape holds gradients for its
    /// leaves and for the frontier of the sweep, not for every node.
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
        self.accumulate(output.0, seed);
        let timed = acme_obs::enabled();
        for id in (0..=output.0).rev() {
            // Take the gradient while its contributions are computed;
            // parents always precede `id`, so no rule touches this slot.
            // A node that needs no gradient never holds one.
            let Some(grad) = self.grads[id].take() else {
                continue;
            };
            let start = timed.then(Instant::now);
            let contributions = Self::contributions(
                &self.values,
                &self.needs_grad,
                &self.ops[id],
                &grad,
                &self.values[id],
            );
            for (parent, contrib) in contributions {
                self.accumulate(parent, contrib);
            }
            if let Some(start) = start {
                optable::backward(&self.ops[id], start);
            }
            if matches!(self.ops[id], Op::Leaf { .. }) {
                self.grads[id] = Some(grad);
            } else {
                let bytes = grad.heap_bytes();
                self.grad_bytes -= bytes;
                mem::release(Owner::TapeGrads, bytes);
            }
        }
        self.clock = timed.then(Instant::now);
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

    fn accumulate(&mut self, id: usize, contrib: Array) {
        match &mut self.grads[id] {
            Some(g) => g.add_assign(&contrib),
            slot @ None => {
                let bytes = contrib.heap_bytes();
                self.grad_bytes += bytes;
                mem::charge(Owner::TapeGrads, bytes);
                *slot = Some(contrib);
            }
        }
    }

    /// The gradient contributions of `op`'s inputs that require one.
    #[allow(clippy::needless_range_loop)] // index loops mirror the math of each rule
    fn contributions(
        values: &[Value],
        needs_grad: &[bool],
        op: &Op,
        grad: &Array,
        out_value: &Array,
    ) -> Vec<(usize, Array)> {
        let val = |v: Var| -> &Array { &values[v.0] };
        // `Some((v, rule()))` when `v` requires a gradient; the rule is
        // not run otherwise. A node with one input requires a gradient
        // only through it, so single-input rules below need no check.
        let part = |v: Var, rule: &dyn Fn() -> Array| needs_grad[v.0].then(|| (v.0, rule()));
        let pair = |p: [Option<(usize, Array)>; 2]| p.into_iter().flatten().collect();
        let pool = acme_runtime::global_pool();
        // `da += g · bᵀ` and `db += aᵀ · g` of one `[m, k] x [k, n]`
        // product, all three operands row-major slices.
        let da = |g: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize| {
            let (g, b) = (MatRef::row_major(g, n), MatRef::transposed(b, n));
            gemm::gemm(g, b, out, m, n, k, &pool);
        };
        let db = |a: &[f32], g: &[f32], out: &mut [f32], m: usize, k: usize, n: usize| {
            let (a, g) = (MatRef::transposed(a, k), MatRef::row_major(g, n));
            gemm::gemm(a, g, out, k, m, n, &pool);
        };
        // The gradients of a product over `a`'s rows `[.., k]` (`b` is
        // `[k, n]`).
        let product = |a: Var, b: Var| {
            let (av, bv) = (val(a), val(b));
            let (k, n) = (bv.shape()[0], bv.shape()[1]);
            let m = av.len().checked_div(k).unwrap_or(0);
            [
                part(a, &|| {
                    let mut ga = Array::zeros(av.shape());
                    da(grad.data(), bv.data(), ga.data_mut(), m, k, n);
                    ga
                }),
                part(b, &|| {
                    let mut gb = Array::zeros(&[k, n]);
                    db(av.data(), grad.data(), gb.data_mut(), m, k, n);
                    gb
                }),
            ]
        };
        match op {
            Op::Leaf { .. } => Vec::new(),
            Op::Add(a, b) => pair([
                part(*a, &|| grad.reduce_to_shape(val(*a).shape())),
                part(*b, &|| grad.reduce_to_shape(val(*b).shape())),
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
            Op::Scale(a, c) => vec![(a.0, grad.scale(*c))],
            Op::MatMul(a, b) => pair(product(*a, *b)),
            // The bias first, then the product: the order of the `add`
            // and `matmul` pair this node stands for.
            Op::Linear { x, w, b } => {
                std::iter::once(part(*b, &|| grad.reduce_to_shape(val(*b).shape())))
                    .chain(product(*x, *w))
                    .flatten()
                    .collect()
            }
            Op::BatchMatMul(a, b) => {
                let av = val(*a);
                let bv = val(*b);
                let r = av.rank();
                let batch: usize = av.shape()[..r - 2].iter().product();
                let (m, k) = (av.shape()[r - 2], av.shape()[r - 1]);
                let n = bv.shape()[r - 1];
                let gslice = |bi: usize| &grad.data()[bi * m * n..(bi + 1) * m * n];
                let bslice = |bi: usize| &bv.data()[bi * k * n..(bi + 1) * k * n];
                let aslice = |bi: usize| &av.data()[bi * m * k..(bi + 1) * m * k];
                pair([
                    part(*a, &|| {
                        let mut ga = Array::zeros(av.shape());
                        for bi in 0..batch {
                            let out = &mut ga.data_mut()[bi * m * k..(bi + 1) * m * k];
                            da(gslice(bi), bslice(bi), out, m, k, n);
                        }
                        ga
                    }),
                    part(*b, &|| {
                        let mut gb = Array::zeros(bv.shape());
                        for bi in 0..batch {
                            let out = &mut gb.data_mut()[bi * k * n..(bi + 1) * k * n];
                            db(aslice(bi), gslice(bi), out, m, k, n);
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
                let need = [input, weight, bias].map(|v| needs_grad[v.0]);
                let (x, w) = (val(*input).data(), val(*weight).data());
                #[expect(clippy::disallowed_methods, reason = "the one backward entry")]
                let grads = conv2d_backward(x, w, grad.data(), geom, need);
                [input, weight, bias]
                    .into_iter()
                    .zip(grads)
                    .filter_map(|(v, g)| Some((v.0, g?)))
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
            Op::Attention {
                q,
                k,
                v,
                mask,
                geom,
                probs,
            } => {
                let zeros_if_needed =
                    |x: Var| needs_grad[x.0].then(|| Array::zeros(val(x).shape()));
                let [mut dq, mut dk, mut dv] = [*q, *k, *v].map(zeros_if_needed);
                let mut dmask = mask.and_then(zeros_if_needed);
                attention::backward(
                    geom,
                    [*q, *k, *v].map(|x| val(x).data()),
                    mask.map(|m| val(m).data()),
                    probs.data(),
                    grad.data(),
                    attention::Grads {
                        dq: dq.as_mut().map(Array::data_mut),
                        dk: dk.as_mut().map(Array::data_mut),
                        dv: dv.as_mut().map(Array::data_mut),
                        dmask: dmask.as_mut().map(Array::data_mut),
                    },
                );
                [(*q, dq), (*k, dk), (*v, dv)]
                    .into_iter()
                    .chain(mask.map(|m| (m, dmask)))
                    .filter_map(|(x, d)| Some((x.0, d?)))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{randn, SmallRng64};
    use std::sync::Arc;

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
        let expect_ga = ones.matmul(&g.value(b).permute(&[1, 0]).unwrap()).unwrap();
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
    fn only_leaves_that_require_a_gradient_keep_one() {
        let mut g = Graph::new();
        let x = g.leaf(Array::full(&[4, 8], 0.5));
        let c = g.constant(Array::full(&[8, 8], 0.25));
        let w = g.bind_param(1, &Arc::new(Array::full(&[8, 8], 0.1)), true, None);
        let frozen = g.bind_param(2, &Arc::new(Array::ones(&[8])), false, None);
        let unused = g.leaf(Array::ones(&[3]));
        let h = g.matmul(x, w).unwrap();
        let h = g.add(h, frozen);
        let k = g.matmul(h, c).unwrap();
        let k = g.gelu(k);
        let gamma = g.constant(Array::ones(&[8]));
        let beta = g.constant(Array::zeros(&[8]));
        let k = g.layer_norm(k, gamma, beta, 1e-5);
        let loss = g.sum_all(k);
        g.backward(loss);
        for id in 0..g.values.len() {
            let kept = [x, w].contains(&Var(id));
            assert_eq!(g.grads[id].is_some(), kept, "node {id}: {:?}", g.ops[id]);
        }
        assert!(g.grad(unused).is_none());
        // The tape's gradient gauge holds exactly the leaves' buffers.
        let leaf_bytes = [x, w].map(|v| g.grad(v).unwrap().heap_bytes());
        assert_eq!(g.grad_bytes, leaf_bytes.iter().sum::<usize>());
    }

    #[test]
    fn backward_twice_accumulates() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_slice(&[1.0]));
        let y = g.relu(x);
        let s = g.sum_all(y);
        g.backward(s);
        g.backward(s);
        // Each sweep sends its own seed alone down the chain and the
        // leaf adds the two: no sweep re-sends what an earlier one left
        // on an inner node, because none is left there.
        assert_eq!(g.grad(x).unwrap().data(), &[2.0]);
        assert!(g.grad(y).is_none() && g.grad(s).is_none());
    }
}
