//! Layer normalization with learned affine parameters.

use acme_tensor::{Array, Graph, Var};

use crate::param::{ParamId, ParamSet};

/// Layer normalization over the last axis, `gamma * x̂ + beta`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers unit/zero affine parameters for a `dim`-wide last axis.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gamma = ps.add_with(format!("{name}.gamma"), &[dim], Array::ones);
        let beta = ps.add_with(format!("{name}.beta"), &[dim], Array::zeros);
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Normalizes the last axis of `x` (any rank, last axis == `dim`).
    ///
    /// # Panics
    ///
    /// Panics when the last axis of `x` differs from `dim`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let gamma = ps.bind(g, self.gamma);
        let beta = ps.bind(g, self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    /// Parameter ids `(gamma, beta)`.
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.gamma, self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};

    #[test]
    fn normalizes_rows() {
        let mut ps = ParamSet::new();
        let ln = LayerNorm::new(&mut ps, "ln", 6);
        let mut g = Graph::new();
        let x = g.constant(randn(&[4, 6], &mut SmallRng64::new(0)).scale(5.0));
        let y = ln.forward(&mut g, &ps, x);
        for r in 0..4 {
            let row = &g.value(y).data()[r * 6..(r + 1) * 6];
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4);
        }
    }
}
