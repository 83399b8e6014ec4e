//! Property-based tests of the autograd engine: gradients checked
//! against finite differences over randomized shapes and compositions.

use acme_check::cases;
use acme_tensor::{gradcheck, Array, Graph, Var};

const TOL: f32 = 5e-2;

fn arr(values: &[f32], shape: &[usize]) -> Array {
    Array::from_vec(values[..shape.iter().product::<usize>()].to_vec(), shape).unwrap()
}

#[test]
fn binary_chain_gradients_match_fd() {
    cases(24, |g| {
        let values_a = g.vec(12..13, |g| g.f32(-2.0..2.0));
        let values_b = g.vec(12..13, |g| g.f32(0.5..2.0));
        let rows = g.usize(1..4);
        let cols = 12 / rows / rows.max(1);
        let cols = cols.max(1).min(12 / rows);
        let shape = [rows, cols];
        let a = arr(&values_a, &shape);
        let b = arr(&values_b, &shape);
        let report = gradcheck(&[a, b], 1e-2, |g, v| {
            let s = g.mul(v[0], v[1]);
            let d = g.div(s, v[1]);
            let t = g.tanh(d);
            g.mean_all(t)
        });
        assert!(report.passes(TOL), "rel err {}", report.max_rel_err);
    });
}

#[test]
fn matmul_grad_matches_fd() {
    cases(24, |g| {
        let values_a = g.vec(12..13, |g| g.f32(-1.0..1.0));
        let values_b = g.vec(12..13, |g| g.f32(-1.0..1.0));
        let m = g.usize(1..4);
        let n = g.usize(1..4);
        let k = (12 / m).min(12 / n).max(1);
        let a = arr(&values_a, &[m, k]);
        let b = arr(&values_b, &[k, n]);
        let report = gradcheck(&[a, b], 1e-2, |g, v| {
            let c = g.matmul(v[0], v[1]).expect("shapes match");
            g.sum_all(c)
        });
        assert!(report.passes(TOL), "rel err {}", report.max_rel_err);
    });
}

#[test]
fn softmax_rows_sum_to_one_for_any_input() {
    cases(24, |g| {
        let values = g.vec(12..13, |g| g.f32(-30.0..30.0));
        let rows = g.usize(1..5);
        let cols = (12 / rows).max(1);
        let a = arr(&values, &[rows, cols]);
        let s = a.softmax_last();
        for r in 0..rows {
            let sum: f32 = s.data()[r * cols..(r + 1) * cols].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(s.data()[r * cols..(r + 1) * cols].iter().all(|&p| p >= 0.0));
        }
    });
}

#[test]
fn concat_split_roundtrip() {
    cases(24, |g| {
        let values = g.vec(24..25, |g| g.f32(-5.0..5.0));
        let left = g.usize(1..4);
        let right = g.usize(1..4);
        let rows = 24 / (left + right);
        if rows == 0 {
            return;
        }
        let a = arr(&values[..rows * left], &[rows, left]);
        let b = arr(&values[rows * left..rows * (left + right)], &[rows, right]);
        let joined = Array::concat(&[&a, &b], 1).unwrap();
        let parts = joined.split(1, &[left, right]).unwrap();
        assert_eq!(&parts[0], &a);
        assert_eq!(&parts[1], &b);
    });
}

#[test]
fn permute_preserves_multiset() {
    cases(24, |g| {
        let values = g.vec(24..25, |g| g.f32(-5.0..5.0));
        let a = arr(&values, &[2, 3, 4]);
        let p = a.permute(&[2, 0, 1]).unwrap();
        let mut x: Vec<f32> = a.data().to_vec();
        let mut y: Vec<f32> = p.data().to_vec();
        x.sort_by(f32::total_cmp);
        y.sort_by(f32::total_cmp);
        assert_eq!(x, y);
    });
}

#[test]
fn cross_entropy_grad_rows_sum_to_zero() {
    cases(24, |g| {
        let values = g.vec(20..21, |g| g.f32(-3.0..3.0));
        let t0 = g.usize(0..5);
        let t1 = g.usize(0..5);
        let logits = arr(&values, &[4, 5]);
        let targets = [t0, t1, (t0 + 1) % 5, (t1 + 2) % 5];
        let mut g = Graph::new();
        let l: Var = g.leaf(logits);
        let loss = g.cross_entropy_logits(l, &targets);
        g.backward(loss);
        let grad = g.grad(l).unwrap();
        // Softmax-minus-onehot rows sum to zero.
        for r in 0..4 {
            let s: f32 = grad.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-5, "row {r} grad sum {s}");
        }
    });
}

#[test]
fn layer_norm_is_shift_invariant() {
    cases(24, |g| {
        let values = g.vec(16..17, |g| g.f32(-2.0..2.0));
        let shift = g.f32(-10.0..10.0);
        let x = arr(&values, &[2, 8]);
        let shifted = x.add_scalar(shift);
        let run = |input: Array| {
            let mut g = Graph::new();
            let xv = g.leaf(input);
            let gamma = g.leaf(Array::ones(&[8]));
            let beta = g.leaf(Array::zeros(&[8]));
            let y = g.layer_norm(xv, gamma, beta, 1e-5);
            g.value(y).clone()
        };
        let a = run(x);
        let b = run(shifted);
        for (p, q) in a.data().iter().zip(b.data()) {
            assert!((p - q).abs() < 1e-3, "{p} vs {q}");
        }
    });
}

#[test]
fn conv_identity_kernel_is_identity() {
    cases(24, |g| {
        let values = g.vec(32..33, |g| g.f32(-3.0..3.0));
        let x = arr(&values, &[1, 2, 4, 4]);
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        // 1x1 kernel = channelwise identity matrix.
        let mut w = Array::zeros(&[2, 2, 1, 1]);
        *w.at_mut(&[0, 0, 0, 0]) = 1.0;
        *w.at_mut(&[1, 1, 0, 0]) = 1.0;
        let wv = g.constant(w);
        let y = g.conv2d(xv, wv, None, 1, 0);
        assert_eq!(g.value(y).data(), x.data());
    });
}
