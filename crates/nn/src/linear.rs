//! Linear, MLP and embedding layers.

use acme_tensor::{kaiming_uniform, Array, Graph, SmallRng64, Var};

use crate::activation::Activation;
use crate::param::{ParamId, ParamSet};

/// Affine layer `y = x W + b` with `x: [.., in_dim]`, one
/// [`Graph::linear`] node.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    out_dim: usize,
}

impl Linear {
    /// Registers weights in `ps` with Kaiming-uniform init.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let w = ps.add(
            format!("{name}.w"),
            kaiming_uniform(&[in_dim, out_dim], in_dim, rng),
        );
        let b = ps.add(format!("{name}.b"), Array::zeros(&[out_dim]));
        Linear { w, b, out_dim }
    }

    /// Applies the layer to `x: [.., in_dim]`, giving `[.., out_dim]`: the
    /// leading dims are read in place as rows.
    ///
    /// # Panics
    ///
    /// Panics when the trailing dimension of `x` is not `in_dim`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let w = ps.bind(g, self.w);
        let b = ps.bind(g, self.b);
        g.linear(x, w, b)
    }

    /// Output width.
    fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter ids `(weight, bias)` for freezing/pruning.
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

/// Two-layer perceptron with a configurable activation, the Transformer
/// feed-forward block. Supports an optional hidden-neuron mask, which the
/// paper's neuron-importance scoring (Eq. 8) differentiates.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    activation: Activation,
}

impl Mlp {
    /// Builds `in_dim -> hidden -> out_dim` with the given activation.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut SmallRng64,
    ) -> Self {
        Mlp {
            fc1: Linear::new(ps, &format!("{name}.fc1"), in_dim, hidden, rng),
            fc2: Linear::new(ps, &format!("{name}.fc2"), hidden, out_dim, rng),
            activation,
        }
    }

    /// Forward over `[.., in_dim]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        self.forward_masked(g, ps, x, None)
    }

    /// Forward with an optional multiplicative mask over the hidden
    /// neurons, a graph variable of shape `[hidden]`. A zero entry
    /// silences a neuron; with a leaf mask of ones, the mask's gradient
    /// after backward is the per-neuron first-order Taylor importance
    /// numerator (Eq. 8 of the ACME paper).
    pub fn forward_masked(&self, g: &mut Graph, ps: &ParamSet, x: Var, mask: Option<Var>) -> Var {
        let h = self.fc1.forward(g, ps, x);
        let mut h = self.activation.apply(g, h);
        if let Some(mask) = mask {
            h = g.mul(h, mask);
        }
        self.fc2.forward(g, ps, h)
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.fc1.out_dim()
    }

    /// All parameter ids of the block.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut v = self.fc1.param_ids().to_vec();
        v.extend(self.fc2.param_ids());
        v
    }

    /// The first linear layer (used by structured pruning).
    pub fn fc1(&self) -> &Linear {
        &self.fc1
    }

    /// The second linear layer (used by structured pruning).
    pub fn fc2(&self) -> &Linear {
        &self.fc2
    }
}

/// Token-embedding table used by the NAS controller.
#[derive(Debug, Clone)]
pub struct EmbeddingLayer {
    w: ParamId,
}

impl EmbeddingLayer {
    /// Registers a `[vocab, dim]` table with small normal init.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let w = ps.add(
            format!("{name}.emb"),
            acme_tensor::randn(&[vocab, dim], rng).scale(0.1),
        );
        EmbeddingLayer { w }
    }

    /// Looks up rows for `indices`, producing `[indices.len(), dim]`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, indices: &[usize]) -> Var {
        let w = ps.bind(g, self.w);
        g.embedding(w, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    #[test]
    fn linear_shapes() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let l = Linear::new(&mut ps, "fc", 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Array::ones(&[2, 3]));
        let y = l.forward(&mut g, &ps, x);
        assert_eq!(g.shape(y), &[2, 5]);
        assert_eq!(l.out_dim(), 5);
    }

    #[test]
    fn mlp_mask_silences_neurons() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let m = Mlp::new(&mut ps, "mlp", 2, 4, 2, Activation::Relu, &mut rng);
        // Zero the second-layer bias so output depends only on hidden units.
        let fc2b = m.fc2().param_ids()[1];
        ps.value_mut(fc2b).map_in_place(|_| 0.0);
        let mut g = Graph::new();
        let x = g.constant(Array::ones(&[1, 2]));
        let off = g.constant(Array::zeros(&[4]));
        let all_off = m.forward_masked(&mut g, &ps, x, Some(off));
        assert_eq!(g.value(all_off).data(), &[0.0, 0.0]);
        let ones = g.constant(Array::ones(&[4]));
        let on = m.forward_masked(&mut g, &ps, x, Some(ones));
        let plain = m.forward(&mut g, &ps, x);
        assert_eq!(g.value(on).data(), g.value(plain).data());
    }

    #[test]
    fn mlp_trains_xor() {
        let mut rng = SmallRng64::new(7);
        let mut ps = ParamSet::new();
        let m = Mlp::new(&mut ps, "mlp", 2, 16, 2, Activation::Gelu, &mut rng);
        let xs = Array::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let ys = [0usize, 1, 1, 0];
        let mut opt = crate::optim::Adam::new(0.05);
        use crate::optim::Optimizer;
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let logits = m.forward(&mut g, &ps, x);
            let loss = g.cross_entropy_logits(logits, &ys);
            g.backward(loss);
            opt.step(&mut ps, &g);
            last = g.value(loss).item();
        }
        assert!(last < 0.1, "xor loss {last}");
    }

    #[test]
    fn embedding_lookup_shapes() {
        let mut rng = SmallRng64::new(2);
        let mut ps = ParamSet::new();
        let e = EmbeddingLayer::new(&mut ps, "tok", 10, 4, &mut rng);
        let mut g = Graph::new();
        let out = e.forward(&mut g, &ps, &[1, 2, 3]);
        assert_eq!(g.shape(out), &[3, 4]);
    }
}
