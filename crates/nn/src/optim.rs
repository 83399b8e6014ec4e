//! Optimizers operating on a [`ParamSet`] with gradients read from a
//! finished [`Graph`].

use std::collections::HashMap;

use acme_tensor::{Array, Graph};

use crate::param::{ParamId, ParamSet};

/// A gradient-descent update rule.
///
/// After `Graph::backward`, call [`Optimizer::step`] with the same graph;
/// the optimizer walks the graph's parameter bindings, reads each bound
/// parameter's gradient, and updates the [`ParamSet`] in place. Parameters
/// frozen via [`ParamSet::set_trainable`] are skipped.
pub trait Optimizer {
    /// Applies one update step from the gradients recorded in `g`.
    fn step(&mut self, ps: &mut ParamSet, g: &Graph);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<ParamId, Array>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds decoupled L2 weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, ps: &mut ParamSet, g: &Graph) {
        for (key, var) in g.param_bindings() {
            let id = ParamId(key as usize);
            if !ps.is_trainable(id) {
                continue;
            }
            let Some(grad) = g.grad(var) else { continue };
            if self.momentum > 0.0 {
                let vel = self
                    .velocity
                    .entry(id)
                    .or_insert_with(|| Array::zeros(grad.shape()));
                for (v, &gr) in vel.data_mut().iter_mut().zip(grad.data()) {
                    *v = self.momentum * *v + gr;
                }
                let vel = vel.clone();
                let value = ps.value_mut(id);
                if self.weight_decay > 0.0 {
                    let wd = self.weight_decay * self.lr;
                    value.map_in_place(|x| x * (1.0 - wd));
                }
                value.add_scaled_assign(&vel, -self.lr);
            } else {
                let value = ps.value_mut(id);
                if self.weight_decay > 0.0 {
                    let wd = self.weight_decay * self.lr;
                    value.map_in_place(|x| x * (1.0 - wd));
                }
                value.add_scaled_assign(grad, -self.lr);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction and optional weight decay.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    moments: HashMap<ParamId, (Array, Array)>,
}

impl Adam {
    /// Adam with the conventional `(0.9, 0.999, 1e-8)` defaults.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            step_count: 0,
            moments: HashMap::new(),
        }
    }

    /// Adds decoupled (AdamW-style) weight decay.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, ps: &mut ParamSet, g: &Graph) {
        self.step_count += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step_count as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step_count as i32);
        for (key, var) in g.param_bindings() {
            let id = ParamId(key as usize);
            if !ps.is_trainable(id) {
                continue;
            }
            let Some(grad) = g.grad(var) else { continue };
            let (m, v) = self
                .moments
                .entry(id)
                .or_insert_with(|| (Array::zeros(grad.shape()), Array::zeros(grad.shape())));
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(grad.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let (m, v) = (m.clone(), v.clone());
            let value = ps.value_mut(id);
            if self.weight_decay > 0.0 {
                let wd = self.weight_decay * self.lr;
                value.map_in_place(|x| x * (1.0 - wd));
            }
            for ((x, &mi), &vi) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *x -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Scales all bound gradients in `g` so their global L2 norm does not
/// exceed `max_norm`, returning the pre-clip norm.
///
/// Only trainable parameters hold gradients — [`ParamSet::bind`] binds a
/// frozen one as a constant — so the norm is theirs alone: a header refit
/// over a frozen backbone is clipped by the header's gradient, not the
/// backbone's.
///
/// Call between `backward` and `Optimizer::step`. Gradient clipping keeps
/// the REINFORCE controller updates (§III-C) stable.
pub fn clip_grad_norm(g: &mut Graph, max_norm: f32) -> f32 {
    let mut total = 0.0f64;
    let bindings: Vec<_> = g.param_bindings().collect();
    for &(_, var) in &bindings {
        if let Some(grad) = g.grad(var) {
            total += grad.sq_norm() as f64;
        }
    }
    let norm = (total as f32).sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for &(_, var) in &bindings {
            if let Some(grad) = g.grad_mut(var) {
                grad.map_in_place(|x| x * scale);
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::Array;

    fn quadratic_step(ps: &mut ParamSet, id: ParamId, opt: &mut dyn Optimizer) -> f32 {
        // loss = mean((w - 3)^2)
        let mut g = Graph::new();
        let w = ps.bind(&mut g, id);
        let target = g.constant(Array::full(ps.value(id).shape(), 3.0));
        let loss = g.mse_loss(w, target);
        g.backward(loss);
        opt.step(ps, &g);
        g.value(loss).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::zeros(&[4]));
        let mut opt = Sgd::new(0.2);
        let mut last = f32::MAX;
        for _ in 0..50 {
            last = quadratic_step(&mut ps, id, &mut opt);
        }
        assert!(last < 1e-3, "loss {last}");
        assert!((ps.value(id).data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::zeros(&[2]));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        for _ in 0..100 {
            quadratic_step(&mut ps, id, &mut opt);
        }
        assert!((ps.value(id).data()[0] - 3.0).abs() < 0.1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::zeros(&[4]));
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            quadratic_step(&mut ps, id, &mut opt);
        }
        assert!((ps.value(id).data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn frozen_params_are_not_updated() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::zeros(&[2]));
        ps.set_trainable(id, false);
        let mut opt = Sgd::new(0.5);
        quadratic_step(&mut ps, id, &mut opt);
        assert_eq!(ps.value(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::full(&[1], 10.0));
        let mut opt = Sgd::new(0.1).with_weight_decay(1.0);
        // Gradient toward 3, decay toward 0.
        quadratic_step(&mut ps, id, &mut opt);
        assert!(ps.value(id).data()[0] < 10.0);
    }

    #[test]
    fn clip_grad_norm_limits_norm() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Array::full(&[4], 100.0));
        let mut g = Graph::new();
        let w = ps.bind(&mut g, id);
        let target = g.constant(Array::zeros(&[4]));
        let loss = g.mse_loss(w, target);
        g.backward(loss);
        let pre = clip_grad_norm(&mut g, 1.0);
        assert!(pre > 1.0);
        let gvar = g.param_bindings().next().unwrap().1;
        let post = g.grad(gvar).unwrap().sq_norm().sqrt();
        assert!((post - 1.0).abs() < 1e-4, "post-clip norm {post}");
    }

    #[test]
    fn clip_grad_norm_counts_trainable_parameters_only() {
        // loss = mean((w + f - 3)^2) over a trainable w and a frozen f.
        let mut ps = ParamSet::new();
        let w = ps.add("w", Array::full(&[4], 1.0));
        let f = ps.add("f", Array::full(&[4], 100.0));
        ps.set_trainable(f, false);
        let mut g = Graph::new();
        let (wv, fv) = (ps.bind(&mut g, w), ps.bind(&mut g, f));
        let sum = g.add(wv, fv);
        let target = g.constant(Array::full(&[4], 3.0));
        let loss = g.mse_loss(sum, target);
        g.backward(loss);
        assert!(g.grad(fv).is_none(), "a frozen parameter holds no gradient");
        // d/dw = 2 (w + f - 3) / 4 = 49 per element, norm 98.
        let trainable = g.grad(wv).unwrap().sq_norm().sqrt();
        assert_eq!(trainable, 98.0);
        assert_eq!(clip_grad_norm(&mut g, 1.0), trainable);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
