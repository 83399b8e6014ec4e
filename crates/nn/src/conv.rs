//! Convolution layer wrapper used by the NAS header operations and the
//! CNN-style baselines.

use acme_tensor::{kaiming_uniform, Array, Graph, SmallRng64, Var};

use crate::param::{ParamId, ParamSet};

/// 2-D convolution layer over `[batch, channels, height, width]`.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    w: ParamId,
    b: ParamId,
    stride: usize,
    pad: usize,
}

impl Conv2dLayer {
    /// Builds an `in_ch -> out_ch` convolution with a square `kernel`,
    /// given `stride` and `pad`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let w = ps.add_with(format!("{name}.w"), &[out_ch, in_ch, kernel, kernel], |s| {
            kaiming_uniform(s, fan_in, rng)
        });
        let b = ps.add_with(format!("{name}.b"), &[out_ch], Array::zeros);
        Conv2dLayer { w, b, stride, pad }
    }

    /// Convenience constructor for a "same"-padded stride-1 convolution
    /// with an odd kernel.
    pub fn same(
        ps: &mut ParamSet,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        Self::new(ps, name, in_ch, out_ch, kernel, 1, kernel / 2, rng)
    }

    /// Applies the convolution.
    ///
    /// # Panics
    ///
    /// Panics when the input is not `[batch, in_ch, h, w]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: Var) -> Var {
        let w = ps.bind(g, self.w);
        let b = ps.bind(g, self.b);
        g.conv2d(x, w, b, self.stride, self.pad)
    }

    /// Parameter ids `(weight, bias)`.
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};

    #[test]
    fn same_conv_preserves_spatial_size() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let c = Conv2dLayer::same(&mut ps, "c", 3, 8, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[2, 3, 6, 6], &mut rng));
        let y = c.forward(&mut g, &ps, x);
        assert_eq!(g.shape(y), &[2, 8, 6, 6]);
    }

    #[test]
    fn strided_conv_downsamples() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let c = Conv2dLayer::new(&mut ps, "c", 1, 4, 2, 2, 0, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[1, 1, 8, 8], &mut rng));
        let y = c.forward(&mut g, &ps, x);
        assert_eq!(g.shape(y), &[1, 4, 4, 4]);
    }
}
