//! Finite-difference gradient checking used throughout the workspace's
//! test suites.

use crate::array::Array;
use crate::graph::{Graph, Var};

/// Checks analytic gradients of `f` against central finite differences,
/// returning the largest relative difference over every input coordinate
/// (normalized by the larger magnitude + 1e-4).
///
/// `f` must build a scalar output from leaves created from `inputs` inside
/// the graph it is given; it is invoked repeatedly with perturbed copies of
/// the inputs. `eps` around `1e-2` works well for `f32`.
///
/// # Panics
///
/// Panics if `f` returns a non-scalar output.
pub fn gradcheck(inputs: &[Array], eps: f32, f: impl Fn(&mut Graph, &[Var]) -> Var) -> f32 {
    // Analytic pass.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|a| g.leaf(a.clone())).collect();
    let out = f(&mut g, &vars);
    assert_eq!(g.value(out).len(), 1, "gradcheck output must be scalar");
    g.backward(out);
    let analytic: Vec<Array> = vars
        .iter()
        .zip(inputs)
        .map(|(&v, a)| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Array::zeros(a.shape()))
        })
        .collect();

    let eval = |perturbed: &[Array]| -> f32 {
        let mut g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|a| g.leaf(a.clone())).collect();
        let out = f(&mut g, &vars);
        g.value(out).item()
    };

    let mut max_rel = 0.0f32;
    for (i, input) in inputs.iter().enumerate() {
        for j in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[i].data_mut()[j] += eps;
            let mut minus = inputs.to_vec();
            minus[i].data_mut()[j] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic[i].data()[j];
            let rel = (a - numeric).abs() / (a.abs().max(numeric.abs()) + 1e-4);
            max_rel = max_rel.max(rel);
        }
    }
    max_rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{randn, uniform, SmallRng64};

    const TOL: f32 = 3e-2;

    fn check(inputs: &[Array], f: impl Fn(&mut Graph, &[Var]) -> Var) {
        let err = gradcheck(inputs, 1e-2, f);
        assert!(err <= TOL, "gradcheck failed: max relative error {err}");
    }

    #[test]
    fn gc_elementwise_chain() {
        let mut rng = SmallRng64::new(11);
        let a = randn(&[2, 3], &mut rng);
        let b = randn(&[2, 3], &mut rng);
        check(&[a, b], |g, v| {
            let t = g.mul(v[0], v[1]);
            let s = g.scale(t, -0.5);
            let e = g.add(s, v[1]);
            let r = g.tanh(e);
            g.sum_all(r)
        });
    }

    #[test]
    fn gc_broadcast_ops() {
        let mut rng = SmallRng64::new(12);
        let a = randn(&[2, 3], &mut rng);
        let b = randn(&[3], &mut rng);
        check(&[a, b], |g, v| {
            let t = g.add(v[0], v[1]);
            let u = g.mul(t, v[1]);
            g.sum_all(u)
        });
    }

    #[test]
    fn gc_matmul() {
        let mut rng = SmallRng64::new(13);
        let a = randn(&[3, 4], &mut rng);
        let b = randn(&[4, 2], &mut rng);
        check(&[a, b], |g, v| {
            let c = g.matmul(v[0], v[1]).expect("shapes match");
            let t = g.tanh(c);
            g.sum_all(t)
        });
    }

    #[test]
    fn gc_batch_matmul_and_permute() {
        let mut rng = SmallRng64::new(14);
        let a = randn(&[2, 3, 4], &mut rng);
        let b = randn(&[2, 4, 3], &mut rng);
        check(&[a, b], |g, v| {
            let c = g.batch_matmul(v[0], v[1]).expect("shapes match");
            let p = g.permute(c, &[1, 0, 2]);
            let s = g.sigmoid(p);
            g.sum_all(s)
        });
    }

    #[test]
    fn gc_activations() {
        let mut rng = SmallRng64::new(15);
        let a = randn(&[12], &mut rng);
        check(std::slice::from_ref(&a), |g, v| {
            let r = g.gelu(v[0]);
            g.sum_all(r)
        });
        check(std::slice::from_ref(&a), |g, v| {
            let r = g.tanh(v[0]);
            g.sum_all(r)
        });
        check(&[a], |g, v| {
            let r = g.sigmoid(v[0]);
            g.sum_all(r)
        });
    }

    #[test]
    fn gc_softmax_and_log_softmax() {
        let mut rng = SmallRng64::new(17);
        let a = randn(&[3, 5], &mut rng);
        check(std::slice::from_ref(&a), |g, v| {
            let s = g.softmax_last(v[0]);
            let w = g.mul(s, s);
            g.sum_all(w)
        });
        check(&[a], |g, v| {
            let s = g.log_softmax_last(v[0]);
            let sl = g.slice_axis(s, 1, 1, 2);
            g.sum_all(sl)
        });
    }

    #[test]
    fn gc_layer_norm() {
        let mut rng = SmallRng64::new(18);
        let x = randn(&[4, 6], &mut rng);
        let gamma = uniform(&[6], 0.5, 1.5, &mut rng);
        let beta = randn(&[6], &mut rng);
        check(&[x, gamma, beta], |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2], 1e-5);
            let w = g.mul(y, y);
            g.sum_all(w)
        });
    }

    #[test]
    fn gc_cross_entropy() {
        let mut rng = SmallRng64::new(19);
        let x = randn(&[4, 5], &mut rng);
        check(&[x], |g, v| g.cross_entropy_logits(v[0], &[0, 1, 2, 3]));
    }

    #[test]
    fn gc_mse() {
        let mut rng = SmallRng64::new(20);
        let a = randn(&[3, 3], &mut rng);
        let b = randn(&[3, 3], &mut rng);
        check(&[a, b], |g, v| g.mse_loss(v[0], v[1]));
    }

    #[test]
    fn gc_concat_slice() {
        let mut rng = SmallRng64::new(21);
        let a = randn(&[2, 2], &mut rng);
        let b = randn(&[2, 3], &mut rng);
        check(&[a, b], |g, v| {
            let c = g.concat(&[v[0], v[1]], 1);
            let s = g.slice_axis(c, 1, 1, 3);
            let t = g.tanh(s);
            g.sum_all(t)
        });
    }

    #[test]
    fn gc_conv2d_with_bias_and_padding() {
        let mut rng = SmallRng64::new(22);
        let x = randn(&[2, 2, 4, 4], &mut rng);
        let w = randn(&[3, 2, 3, 3], &mut rng).scale(0.5);
        let b = randn(&[3], &mut rng);
        check(&[x, w, b], |g, v| {
            let y = g.conv2d(v[0], v[1], v[2], 1, 1);
            let t = g.tanh(y);
            g.sum_all(t)
        });
    }

    #[test]
    fn gc_conv2d_stride2() {
        let mut rng = SmallRng64::new(23);
        let x = randn(&[1, 1, 6, 6], &mut rng);
        let w = randn(&[2, 1, 2, 2], &mut rng);
        check(&[x, w], |g, v| {
            let b = g.constant(Array::zeros(&[2]));
            let y = g.conv2d(v[0], v[1], b, 2, 0);
            g.sum_all(y)
        });
    }

    #[test]
    fn gc_pools() {
        let mut rng = SmallRng64::new(24);
        let x = randn(&[1, 2, 4, 4], &mut rng);
        check(std::slice::from_ref(&x), |g, v| {
            let y = g.avg_pool2d(v[0], 2);
            let t = g.mul(y, y);
            g.sum_all(t)
        });
        // Max pool: perturbations can flip the argmax at ties; random data
        // makes ties measure-zero but keep eps small relative to gaps.
        check(&[x], |g, v| {
            let y = g.max_pool2d(v[0], 2);
            g.sum_all(y)
        });
    }

    #[test]
    fn gc_embedding() {
        let mut rng = SmallRng64::new(25);
        let w = randn(&[4, 3], &mut rng);
        check(&[w], |g, v| {
            let e = g.embedding(v[0], &[0, 2, 2, 3]);
            let t = g.tanh(e);
            g.sum_all(t)
        });
    }

    #[test]
    fn gc_sum_axis() {
        let mut rng = SmallRng64::new(26);
        let a = randn(&[2, 3, 2], &mut rng);
        check(&[a], |g, v| {
            let s = g.sum_axis(v[0], 1);
            let t = g.mul(s, s);
            g.sum_all(t)
        });
    }

    #[test]
    fn gc_linear_helper() {
        let mut rng = SmallRng64::new(27);
        // Leading dims read as rows: `[2, 2, 3]` is four rows of three.
        let x = randn(&[2, 2, 3], &mut rng);
        let w = randn(&[3, 2], &mut rng);
        let b = randn(&[2], &mut rng);
        check(&[x, w, b], |g, v| {
            let y = g.linear(v[0], v[1], v[2]);
            let r = g.relu(y);
            g.sum_all(r)
        });
    }

    #[test]
    fn gc_shared_variable_used_twice() {
        let mut rng = SmallRng64::new(28);
        let a = randn(&[3, 3], &mut rng);
        check(&[a], |g, v| {
            let sq = g.matmul(v[0], v[0]).expect("shapes match");
            g.sum_all(sq)
        });
    }
}
