//! Multi-head self-attention with per-head masking.

use acme_tensor::{Graph, SmallRng64, Var};

use crate::linear::Linear;
use crate::param::{ParamId, ParamSet};

/// Multi-head self-attention over `[batch, tokens, dim]`.
///
/// The per-head mask hook implements the paper's head-importance protocol
/// (Eqs. 6–8): passing a mask with one head zeroed evaluates
/// `F(O_{h=0})`, and the gradient of the unmasked loss w.r.t. the mask is
/// exactly `∂F/∂O_h · O_h` (the first-order Taylor importance).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    /// Builds attention whose inner width `heads * head_dim` may differ
    /// from the model width `dim` — the shape produced by physically
    /// removing heads (the paper's width pruning, §III-B1).
    ///
    /// # Panics
    ///
    /// Panics when `heads` or `head_dim` is zero.
    pub fn with_head_dim(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        heads: usize,
        head_dim: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        assert!(
            heads > 0 && head_dim > 0,
            "heads and head_dim must be positive"
        );
        let inner = heads * head_dim;
        MultiHeadSelfAttention {
            wq: Linear::new(ps, &format!("{name}.wq"), dim, inner, rng),
            wk: Linear::new(ps, &format!("{name}.wk"), dim, inner, rng),
            wv: Linear::new(ps, &format!("{name}.wv"), dim, inner, rng),
            wo: Linear::new(ps, &format!("{name}.wo"), inner, dim, rng),
            heads,
            dim,
        }
    }

    /// Standard forward over `[batch, tokens, dim]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        self.forward_masked(g, ps, x, None)
    }

    /// Forward with an optional multiplicative per-head mask, a graph
    /// variable shaped `[1, heads, 1, 1]` applied to each head's output
    /// `O_h` before the output projection. With a leaf mask of ones, its
    /// gradient after backward is the per-head Taylor importance
    /// numerator `∂F/∂O_h · O_h` summed over positions.
    ///
    /// The three input projections, one fused [`Graph::attention`] node
    /// (scores, softmax, context and head mask per (batch, head), in the
    /// projections' own `[batch, tokens, heads·head_dim]` layout), then
    /// the output projection, each reading its input's rows in place.
    ///
    /// # Panics
    ///
    /// Panics when input is not `[batch, tokens, dim]`.
    pub fn forward_masked(&self, g: &mut Graph, ps: &ParamSet, x: Var, mask: Option<Var>) -> Var {
        let shape = g.shape(x).to_vec();
        assert_eq!(
            shape.len(),
            3,
            "attention input must be [batch, tokens, dim]"
        );
        assert_eq!(shape[2], self.dim, "attention width mismatch");
        let [q, k, v] = [&self.wq, &self.wk, &self.wv].map(|w| w.forward(g, ps, x));
        let out = g.attention(q, k, v, mask, shape[1], self.heads);
        self.wo.forward(g, ps, out)
    }

    /// All parameter ids (q, k, v, o weights and biases).
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = Vec::with_capacity(8);
        for l in [&self.wq, &self.wk, &self.wv, &self.wo] {
            ids.extend(l.param_ids());
        }
        ids
    }

    /// Projection layers `(wq, wk, wv, wo)` for structured pruning.
    pub fn projections(&self) -> [&Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, Array, SmallRng64};

    #[test]
    fn output_shape_matches_input() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let attn = MultiHeadSelfAttention::with_head_dim(&mut ps, "attn", 8, 2, 4, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[2, 5, 8], &mut rng));
        let y = attn.forward(&mut g, &ps, x);
        assert_eq!(g.shape(y), &[2, 5, 8]);
    }

    #[test]
    fn unit_mask_is_identity() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let attn = MultiHeadSelfAttention::with_head_dim(&mut ps, "attn", 8, 4, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[1, 3, 8], &mut rng));
        let plain = attn.forward(&mut g, &ps, x);
        let ones = g.constant(Array::ones(&[1, 4, 1, 1]));
        let masked = attn.forward_masked(&mut g, &ps, x, Some(ones));
        for (a, b) in g.value(plain).data().iter().zip(g.value(masked).data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_mask_removes_all_value_paths() {
        let mut rng = SmallRng64::new(2);
        let mut ps = ParamSet::new();
        let attn = MultiHeadSelfAttention::with_head_dim(&mut ps, "attn", 8, 2, 4, &mut rng);
        // Zero the output bias so a fully masked attention yields exactly 0.
        let ids = attn.param_ids();
        ps.value_mut(ids[7]).map_in_place(|_| 0.0); // wo bias
        let mut g = Graph::new();
        let x = g.constant(randn(&[1, 3, 8], &mut rng));
        let off = g.constant(Array::zeros(&[1, 2, 1, 1]));
        let y = attn.forward_masked(&mut g, &ps, x, Some(off));
        assert!(g.value(y).data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn mask_var_gradient_is_finite_and_nonzero() {
        let mut rng = SmallRng64::new(3);
        let mut ps = ParamSet::new();
        let attn = MultiHeadSelfAttention::with_head_dim(&mut ps, "attn", 8, 2, 4, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[2, 4, 8], &mut rng));
        let mask = g.leaf(Array::ones(&[1, 2, 1, 1]));
        let y = attn.forward_masked(&mut g, &ps, x, Some(mask));
        let zeros = g.constant(Array::zeros(g.shape(y)));
        let loss = g.mse_loss(y, zeros);
        g.backward(loss);
        let mg = g.grad(mask).expect("mask grad");
        assert_eq!(mg.shape(), &[1, 2, 1, 1]);
        assert!(mg.data().iter().all(|v| v.is_finite()));
        assert!(mg.sq_norm() > 0.0);
    }
}
