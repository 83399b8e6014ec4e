//! Finite-difference gradient verification of every layer, routed through
//! the parameter store exactly as training does.

#![allow(clippy::disallowed_methods)]

use acme_nn::{
    Activation, Conv2dLayer, LayerNorm, Linear, LstmCell, Mlp, MultiHeadSelfAttention, ParamSet,
    TransformerBlock,
};
use acme_tensor::{randn, Array, Graph, SmallRng64, Var};

/// Central-difference check of every *parameter* gradient of a model:
/// perturbs each scalar in the store and compares the loss delta against
/// the analytic gradient harvested from the graph bindings.
fn check_param_grads(
    ps: &ParamSet,
    loss_of: impl Fn(&ParamSet) -> f32,
    grads_of: impl Fn(&ParamSet) -> Vec<(usize, Array)>,
    tol: f32,
) {
    let analytic = grads_of(ps);
    let eps = 1e-2f32;
    let mut checked = 0;
    for (key, grad) in &analytic {
        let id = ps
            .ids()
            .find(|i| i.key() == *key as u64)
            .expect("bound parameter exists in store");
        // Spot-check a handful of coordinates per tensor to stay fast.
        let len = ps.value(id).len();
        let stride = (len / 5).max(1);
        for j in (0..len).step_by(stride) {
            let mut plus = ps.clone();
            plus.value_mut(id).data_mut()[j] += eps;
            let mut minus = ps.clone();
            minus.value_mut(id).data_mut()[j] -= eps;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
            let a = grad.data()[j];
            let rel = (a - numeric).abs() / (a.abs().max(numeric.abs()) + 1e-3);
            assert!(
                rel < tol,
                "param {key} coord {j}: analytic {a} vs numeric {numeric} (rel {rel})"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no coordinates checked");
}

/// Mean of every element of `x` as a scalar node.
fn mean(g: &mut Graph, x: Var) -> Var {
    let n = g.value(x).len() as f32;
    let sum = g.sum_all(x);
    g.scale(sum, 1.0 / n)
}

fn harvest(g: &Graph) -> Vec<(usize, Array)> {
    g.param_bindings()
        .filter_map(|(k, v)| g.grad(v).map(|gr| (k as usize, gr.clone())))
        .collect()
}

#[test]
fn linear_param_grads() {
    let mut rng = SmallRng64::new(0);
    let mut ps = ParamSet::new();
    let layer = Linear::new(&mut ps, "l", 3, 2, &mut rng);
    let x = randn(&[4, 3], &mut rng);
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = layer.forward(&mut g, ps, xv);
        let t = g.tanh(y);
        let loss = mean(&mut g, t);
        (g, loss)
    };
    let loss_of = |ps: &ParamSet| {
        let (g, loss) = run(ps);
        g.value(loss).item()
    };
    let grads_of = |ps: &ParamSet| {
        let (mut g, loss) = run(ps);
        g.backward(loss);
        harvest(&g)
    };
    check_param_grads(&ps, loss_of, grads_of, 5e-2);
}

#[test]
fn mlp_and_layernorm_param_grads() {
    let mut rng = SmallRng64::new(1);
    let mut ps = ParamSet::new();
    let mlp = Mlp::new(&mut ps, "m", 4, 6, 3, Activation::Gelu, &mut rng);
    let ln = LayerNorm::new(&mut ps, "ln", 3);
    let x = randn(&[3, 4], &mut rng);
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let h = mlp.forward(&mut g, ps, xv);
        let y = ln.forward(&mut g, ps, h);
        let zeros = g.constant(Array::zeros(g.shape(y)));
        let loss = g.mse_loss(y, zeros);
        (g, loss)
    };
    check_param_grads(
        &ps,
        |ps| {
            let (g, l) = run(ps);
            g.value(l).item()
        },
        |ps| {
            let (mut g, l) = run(ps);
            g.backward(l);
            harvest(&g)
        },
        5e-2,
    );
}

#[test]
fn attention_param_grads() {
    let mut rng = SmallRng64::new(2);
    let mut ps = ParamSet::new();
    let attn = MultiHeadSelfAttention::with_head_dim(&mut ps, "a", 8, 2, 4, &mut rng);
    let x = randn(&[2, 3, 8], &mut rng);
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = attn.forward(&mut g, ps, xv);
        let t = g.tanh(y);
        let loss = mean(&mut g, t);
        (g, loss)
    };
    check_param_grads(
        &ps,
        |ps| {
            let (g, l) = run(ps);
            g.value(l).item()
        },
        |ps| {
            let (mut g, l) = run(ps);
            g.backward(l);
            harvest(&g)
        },
        8e-2,
    );
}

#[test]
fn transformer_block_param_grads() {
    let mut rng = SmallRng64::new(3);
    let mut ps = ParamSet::new();
    let blk = TransformerBlock::new(&mut ps, "b", 8, 2, 12, &mut rng);
    let x = randn(&[2, 3, 8], &mut rng);
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = blk.forward(&mut g, ps, xv);
        let t = g.tanh(y);
        let loss = mean(&mut g, t);
        (g, loss)
    };
    check_param_grads(
        &ps,
        |ps| {
            let (g, l) = run(ps);
            g.value(l).item()
        },
        |ps| {
            let (mut g, l) = run(ps);
            g.backward(l);
            harvest(&g)
        },
        1e-1,
    );
}

#[test]
fn conv_layer_param_grads() {
    let mut rng = SmallRng64::new(4);
    let mut ps = ParamSet::new();
    let conv = Conv2dLayer::same(&mut ps, "c", 2, 3, 3, &mut rng);
    let x = randn(&[2, 2, 4, 4], &mut rng);
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = conv.forward(&mut g, ps, xv);
        let t = g.tanh(y);
        let loss = mean(&mut g, t);
        (g, loss)
    };
    check_param_grads(
        &ps,
        |ps| {
            let (g, l) = run(ps);
            g.value(l).item()
        },
        |ps| {
            let (mut g, l) = run(ps);
            g.backward(l);
            harvest(&g)
        },
        5e-2,
    );
}

#[test]
fn lstm_param_grads() {
    let mut rng = SmallRng64::new(5);
    let mut ps = ParamSet::new();
    let cell = LstmCell::new(&mut ps, "lstm", 3, 4, &mut rng);
    let xs: Vec<Array> = (0..3).map(|_| randn(&[2, 3], &mut rng)).collect();
    let run = |ps: &ParamSet| {
        let mut g = Graph::new();
        let (mut h, mut c) = cell.zero_state(&mut g, 2);
        for x in &xs {
            let xv = g.constant(x.clone());
            let (h2, c2) = cell.step(&mut g, ps, xv, h, c);
            h = h2;
            c = c2;
        }
        let zeros = g.constant(Array::zeros(g.shape(h)));
        let loss = g.mse_loss(h, zeros);
        (g, loss)
    };
    check_param_grads(
        &ps,
        |ps| {
            let (g, l) = run(ps);
            g.value(l).item()
        },
        |ps| {
            let (mut g, l) = run(ps);
            g.backward(l);
            harvest(&g)
        },
        1e-1,
    );
}
