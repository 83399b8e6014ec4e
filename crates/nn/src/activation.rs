//! Activation selection shared by MLP-style layers.

use acme_tensor::{Graph, Var};

/// Nonlinearity applied inside [`Mlp`](crate::Mlp) and the NAS header
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation) — the ViT default.
    #[default]
    Gelu,
}

impl Activation {
    /// Applies the activation inside a graph.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Gelu => g.gelu(x),
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Activation::Relu => "relu",
            Activation::Gelu => "gelu",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::Array;

    #[test]
    fn relu_clamps_negatives() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_vec(vec![-1.0, 2.0], &[2]).unwrap());
        let r = Activation::Relu.apply(&mut g, x);
        assert_eq!(g.value(r).data(), &[0.0, 2.0]);
    }

    #[test]
    fn default_is_gelu() {
        assert_eq!(Activation::default(), Activation::Gelu);
        assert_eq!(Activation::Gelu.to_string(), "gelu");
    }
}
