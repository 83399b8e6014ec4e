//! Pre-norm Transformer encoder block with head and neuron mask hooks.

use acme_tensor::{Graph, SmallRng64, Var};

use crate::activation::Activation;
use crate::attention::MultiHeadSelfAttention;
use crate::linear::Mlp;
use crate::norm::LayerNorm;
use crate::param::{ParamId, ParamSet};

/// One pre-norm Transformer encoder block:
/// `x + MSA(LN(x))` followed by `x + MLP(LN(x))`.
///
/// Both the attention heads and the MLP hidden neurons accept
/// multiplicative masks, which is how the backbone-generation step of the
/// paper (§III-B1) scores and removes redundant width.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadSelfAttention,
    ln2: LayerNorm,
    mlp: Mlp,
}

impl TransformerBlock {
    /// Builds a block of width `dim` with `heads` attention heads and an
    /// MLP hidden width of `mlp_hidden`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim {dim} not divisible by heads {heads}"
        );
        Self::with_head_dim(ps, name, dim, heads, dim / heads, mlp_hidden, rng)
    }

    /// Builds a block whose attention inner width `heads * head_dim`
    /// differs from `dim` — the shape of a width-pruned backbone layer.
    fn with_head_dim(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        heads: usize,
        head_dim: usize,
        mlp_hidden: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        Self::with_activation(
            ps,
            name,
            dim,
            heads,
            head_dim,
            mlp_hidden,
            Activation::Gelu,
            rng,
        )
    }

    /// Builds a block with an explicit MLP activation. ViT's standard
    /// choice is GELU; latency-sensitive serving deployments may pick the
    /// cheaper ReLU.
    #[allow(clippy::too_many_arguments)]
    pub fn with_activation(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        heads: usize,
        head_dim: usize,
        mlp_hidden: usize,
        activation: Activation,
        rng: &mut SmallRng64,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), dim),
            attn: MultiHeadSelfAttention::with_head_dim(
                ps,
                &format!("{name}.attn"),
                dim,
                heads,
                head_dim,
                rng,
            ),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), dim),
            mlp: Mlp::new(
                ps,
                &format!("{name}.mlp"),
                dim,
                mlp_hidden,
                dim,
                activation,
                rng,
            ),
        }
    }

    /// Standard forward over `[batch, tokens, dim]`.
    #[expect(clippy::disallowed_methods, reason = "forward_masked with no mask")]
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        self.forward_masked(g, ps, x, None)
    }

    /// Forward with optional `(head, neuron)` masks, graph variables of
    /// shapes `[1, heads, 1, 1]` and `[hidden]`. With leaf masks of ones,
    /// their gradients after backward are the Taylor importance
    /// numerators of Eqs. (6)–(8).
    pub fn forward_masked(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: Var,
        masks: Option<(Var, Var)>,
    ) -> Var {
        let shape = g.shape(x).to_vec();
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        let n1 = self.ln1.forward(g, ps, x);
        let a = self.attn.forward_masked(g, ps, n1, masks.map(|m| m.0));
        let x = g.add(x, a);
        let n2 = self.ln2.forward(g, ps, x);
        let flat = g.reshape(n2, &[b * t, d]);
        let m = self.mlp.forward_masked(g, ps, flat, masks.map(|m| m.1));
        let m = g.reshape(m, &[b, t, d]);
        g.add(x, m)
    }

    /// The attention sublayer.
    pub fn attention(&self) -> &MultiHeadSelfAttention {
        &self.attn
    }

    /// The feed-forward sublayer.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The two layer norms `(ln1, ln2)`.
    pub fn norms(&self) -> (&LayerNorm, &LayerNorm) {
        (&self.ln1, &self.ln2)
    }

    /// All parameter ids in the block.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = Vec::new();
        ids.extend(self.ln1.param_ids());
        ids.extend(self.attn.param_ids());
        ids.extend(self.ln2.param_ids());
        ids.extend(self.mlp.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, Array, SmallRng64};

    #[test]
    fn shape_preserved() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let blk = TransformerBlock::new(&mut ps, "b0", 8, 2, 16, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[2, 5, 8], &mut rng));
        let y = blk.forward(&mut g, &ps, x);
        assert_eq!(g.shape(y), &[2, 5, 8]);
    }

    #[test]
    fn masks_change_output() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let blk = TransformerBlock::new(&mut ps, "b0", 8, 2, 16, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[1, 4, 8], &mut rng));
        let plain = blk.forward(&mut g, &ps, x);
        let heads = g.constant(Array::from_vec(vec![0.0, 1.0], &[1, 2, 1, 1]).unwrap());
        let neurons = g.constant(Array::ones(&[16]));
        let head_off = blk.forward_masked(&mut g, &ps, x, Some((heads, neurons)));
        let heads = g.constant(Array::ones(&[1, 2, 1, 1]));
        let neurons = g.constant(Array::zeros(&[16]));
        let neuron_off = blk.forward_masked(&mut g, &ps, x, Some((heads, neurons)));
        assert_ne!(g.value(plain).data(), g.value(head_off).data());
        assert_ne!(g.value(plain).data(), g.value(neuron_off).data());
    }

    #[test]
    fn block_trains_end_to_end() {
        // Minimize the squared output — checks gradients flow through the
        // whole residual structure.
        use crate::optim::{Adam, Optimizer};
        let mut rng = SmallRng64::new(2);
        let mut ps = ParamSet::new();
        let blk = TransformerBlock::new(&mut ps, "b0", 8, 2, 8, &mut rng);
        let input = randn(&[2, 3, 8], &mut rng);
        let mut opt = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let mut g = Graph::new();
            let x = g.constant(input.clone());
            let y = blk.forward(&mut g, &ps, x);
            let zeros = g.constant(Array::zeros(g.shape(y)));
            let loss = g.mse_loss(y, zeros);
            g.backward(loss);
            opt.step(&mut ps, &g);
            last = g.value(loss).item();
            first.get_or_insert(last);
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {first:?} -> {last}"
        );
    }
}
