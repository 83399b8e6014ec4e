//! Task headers: the four fixed reference designs compared in Fig. 7(b)
//! (Bakhtiarnia et al. styles) and the [`Header`] trait shared with the
//! NAS-generated headers of `acme-nas`.

use acme_nn::{Activation, Conv2dLayer, Linear, Mlp, ParamId, ParamSet};
use acme_tensor::{Graph, Var};
use rand::Rng;

use crate::classifier::ImageClassifier;
use crate::model::{Features, Vit};

/// Maps backbone [`Features`] to class logits within the same graph.
pub trait Header {
    /// Produces `[batch, classes]` logits from backbone features.
    fn forward(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var;

    /// All parameter ids of the header (for freezing / counting / pruning).
    fn param_ids(&self) -> Vec<ParamId>;

    /// A short diagnostic name.
    fn name(&self) -> &str;
}

/// The four fixed header designs used as references in the paper's header
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderKind {
    /// A single affine map on the class token.
    Linear,
    /// A two-layer MLP on the class token.
    Mlp,
    /// Convolutions over the patch-token grid, concatenated with the
    /// class token.
    Cnn,
    /// Learned attention pooling over all tokens.
    AttentionPool,
}

impl HeaderKind {
    /// All four kinds in presentation order.
    pub fn all() -> [HeaderKind; 4] {
        [
            HeaderKind::Linear,
            HeaderKind::Mlp,
            HeaderKind::Cnn,
            HeaderKind::AttentionPool,
        ]
    }

    /// Builds a header of this kind for a backbone of width `dim` with a
    /// `grid x grid` patch layout.
    pub fn build(
        self,
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        grid: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Box<dyn Header> {
        match self {
            HeaderKind::Linear => Box::new(LinearHeader::new(ps, name, dim, classes, rng)),
            HeaderKind::Mlp => Box::new(MlpHeader::new(ps, name, dim, classes, rng)),
            HeaderKind::Cnn => Box::new(CnnHeader::new(ps, name, dim, grid, classes, rng)),
            HeaderKind::AttentionPool => {
                Box::new(AttentionPoolHeader::new(ps, name, dim, classes, rng))
            }
        }
    }
}

impl std::fmt::Display for HeaderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HeaderKind::Linear => "linear",
            HeaderKind::Mlp => "mlp",
            HeaderKind::Cnn => "cnn",
            HeaderKind::AttentionPool => "attn-pool",
        };
        f.write_str(s)
    }
}

/// Affine header on the class token.
#[derive(Debug, Clone)]
pub struct LinearHeader {
    fc: Linear,
}

impl LinearHeader {
    /// Builds the header.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        LinearHeader {
            fc: Linear::new(ps, &format!("{name}.linear"), dim, classes, rng),
        }
    }
}

impl Header for LinearHeader {
    fn forward(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var {
        self.fc.forward(g, ps, features.cls)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        self.fc.param_ids().to_vec()
    }

    fn name(&self) -> &str {
        "linear"
    }
}

/// Two-layer MLP header on the class token.
#[derive(Debug, Clone)]
pub struct MlpHeader {
    mlp: Mlp,
}

impl MlpHeader {
    /// Builds the header (hidden width `2·dim`).
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        MlpHeader {
            mlp: Mlp::new(
                ps,
                &format!("{name}.mlp"),
                dim,
                2 * dim,
                classes,
                Activation::Gelu,
                rng,
            ),
        }
    }
}

impl Header for MlpHeader {
    fn forward(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var {
        self.mlp.forward(g, ps, features.cls)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        self.mlp.param_ids()
    }

    fn name(&self) -> &str {
        "mlp"
    }
}

/// Convolutional header over the patch-token grid; the pooled conv
/// features are concatenated with the class token before the final affine
/// map (the paper's CLS-integration, §III-C1).
#[derive(Debug, Clone)]
pub struct CnnHeader {
    conv: Conv2dLayer,
    fc: Linear,
    dim: usize,
    grid: usize,
}

impl CnnHeader {
    /// Builds the header.
    ///
    /// # Panics
    ///
    /// Panics when `grid < 2` (the pooling stage needs at least 2x2).
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        grid: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(grid >= 2, "CnnHeader needs a grid of at least 2x2");
        let conv = Conv2dLayer::same(ps, &format!("{name}.conv"), dim, dim, 3, rng);
        let pooled = grid / 2;
        let fc = Linear::new(
            ps,
            &format!("{name}.fc"),
            dim * pooled * pooled + dim,
            classes,
            rng,
        );
        CnnHeader {
            conv,
            fc,
            dim,
            grid,
        }
    }
}

impl Header for CnnHeader {
    fn forward(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var {
        let b = g.shape(features.tokens)[0];
        let t = self.grid * self.grid;
        // Drop the class token, reshape to the spatial grid.
        let patches = g.slice_axis(features.tokens, 1, 1, t);
        let chan = g.permute(patches, &[0, 2, 1]); // [B, D, T]
        let map = g.reshape(chan, &[b, self.dim, self.grid, self.grid]);
        let c = self.conv.forward(g, ps, map);
        let c = g.relu(c);
        let p = g.avg_pool2d(c, 2);
        let pooled = self.grid / 2;
        let flat = g.reshape(p, &[b, self.dim * pooled * pooled]);
        let joint = g.concat(&[flat, features.cls], 1);
        self.fc.forward(g, ps, joint)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.conv.param_ids().to_vec();
        ids.extend(self.fc.param_ids());
        ids
    }

    fn name(&self) -> &str {
        "cnn"
    }
}

/// Learned attention pooling: a trainable query scores all tokens, and
/// their softmax-weighted sum feeds an affine classifier.
#[derive(Debug, Clone)]
pub struct AttentionPoolHeader {
    query: ParamId,
    fc: Linear,
    dim: usize,
}

impl AttentionPoolHeader {
    /// Builds the header.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let query = ps.add(
            format!("{name}.query"),
            acme_tensor::randn(&[dim, 1], rng).scale(0.1),
        );
        let fc = Linear::new(ps, &format!("{name}.fc"), dim, classes, rng);
        AttentionPoolHeader { query, fc, dim }
    }
}

impl Header for AttentionPoolHeader {
    fn forward(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var {
        let shape = g.shape(features.tokens).to_vec();
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        let q = ps.bind(g, self.query);
        let flat = g.reshape(features.tokens, &[b * t, d]);
        let scores = g.matmul(flat, q).expect("pool query shapes"); // [B*T, 1]
        let scores = g.reshape(scores, &[b, t]);
        let weights = g.softmax_last(scores);
        let weights = g.reshape(weights, &[b, 1, t]);
        let pooled = g
            .batch_matmul(weights, features.tokens)
            .expect("pool weight shapes"); // [B, 1, D]
        let pooled = g.reshape(pooled, &[b, self.dim]);
        self.fc.forward(g, ps, pooled)
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = vec![self.query];
        ids.extend(self.fc.param_ids());
        ids
    }

    fn name(&self) -> &str {
        "attn-pool"
    }
}

/// A backbone plus a replaceable header, usable as an
/// [`ImageClassifier`]. This is the `θ = (θ^H, θ^B)` decomposition of the
/// paper.
pub struct HeadedVit<'a> {
    backbone: &'a Vit,
    header: &'a dyn Header,
}

impl<'a> HeadedVit<'a> {
    /// Combines a backbone with a header.
    pub fn new(backbone: &'a Vit, header: &'a dyn Header) -> Self {
        HeadedVit { backbone, header }
    }
}

impl ImageClassifier for HeadedVit<'_> {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &acme_tensor::Array) -> Var {
        let f = self.backbone.forward(g, ps, images);
        self.header.forward(g, ps, &f)
    }

    fn name(&self) -> &str {
        self.header.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use acme_tensor::{randn, SmallRng64};

    fn setup() -> (Vit, ParamSet, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let cfg = VitConfig::tiny(5);
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        (vit, ps, rng)
    }

    #[test]
    fn all_headers_produce_logits() {
        let (vit, mut ps, mut rng) = setup();
        let images = randn(&[3, 1, 8, 8], &mut rng);
        for kind in HeaderKind::all() {
            let header = kind.build(&mut ps, &format!("h-{kind}"), 16, 2, 5, &mut rng);
            let mut g = Graph::new();
            let f = vit.forward(&mut g, &ps, &images);
            let logits = header.forward(&mut g, &ps, &f);
            assert_eq!(g.shape(logits), &[3, 5], "header {kind}");
            assert!(g.value(logits).data().iter().all(|v| v.is_finite()));
            assert!(!header.param_ids().is_empty());
        }
    }

    #[test]
    fn header_param_counts_differ_by_design() {
        let (_, mut ps, mut rng) = setup();
        let before = ps.num_scalars();
        let linear = HeaderKind::Linear.build(&mut ps, "l", 16, 2, 5, &mut rng);
        let after_linear = ps.num_scalars();
        let cnn = HeaderKind::Cnn.build(&mut ps, "c", 16, 2, 5, &mut rng);
        let after_cnn = ps.num_scalars();
        assert!(after_linear - before < after_cnn - after_linear);
        assert_eq!(linear.name(), "linear");
        assert_eq!(cnn.name(), "cnn");
    }

    #[test]
    fn headed_vit_trains() {
        use crate::classifier::{fit, TrainConfig};
        use acme_data::{cifar100_like, SyntheticSpec};
        let (vit, mut ps, mut rng) = setup();
        let ds = cifar100_like(&SyntheticSpec::tiny().with_classes(5), &mut rng).unwrap();
        let header = HeaderKind::Mlp.build(&mut ps, "h", 16, 2, 5, &mut rng);
        let model = HeadedVit::new(&vit, header.as_ref());
        let report = fit(&model, &mut ps, &ds, &TrainConfig::quick());
        assert!(report.improved(), "losses {:?}", report.epoch_losses);
    }

    /// A frozen backbone is a constant: after `backward` none of its
    /// parameters or outputs holds a gradient, and every header
    /// gradient is bitwise the one it gets with the backbone trainable.
    #[test]
    fn frozen_backbone_holds_no_gradient_and_moves_no_header_bit() {
        let (vit, mut ps, mut rng) = setup();
        let images = randn(&[3, 1, 8, 8], &mut rng);
        let headers: Vec<Box<dyn Header>> = HeaderKind::all()
            .into_iter()
            .map(|kind| kind.build(&mut ps, &format!("h-{kind}"), 16, 2, 5, &mut rng))
            .collect();
        let bits = |a: &acme_tensor::Array| a.data().iter().map(|v| v.to_bits()).collect();
        // Per header: how many backbone parameters and outputs hold a
        // gradient, and the header's gradient bits.
        let step = |ps: &ParamSet, header: &dyn Header| -> (usize, Vec<Vec<u32>>) {
            let mut g = Graph::new();
            let f = vit.forward(&mut g, ps, &images);
            let logits = header.forward(&mut g, ps, &f);
            let loss = g.cross_entropy_logits(logits, &[0, 3, 4]);
            g.backward(loss);
            let backbone: Vec<Var> = vit
                .backbone_param_ids()
                .into_iter()
                .map(|id| ps.bind(&mut g, id))
                .chain([f.tokens, f.penultimate, f.cls])
                .collect();
            let held = backbone.iter().filter(|&&v| g.grad(v).is_some()).count();
            let grads = header
                .param_ids()
                .into_iter()
                .map(|id| {
                    let v = ps.bind(&mut g, id);
                    bits(g.grad(v).expect("header gradient"))
                })
                .collect();
            (held, grads)
        };
        let trainable: Vec<_> = headers.iter().map(|h| step(&ps, h.as_ref())).collect();
        vit.set_backbone_trainable(&mut ps, false);
        for (header, (held, grads)) in headers.iter().zip(trainable) {
            assert!(
                held > 0,
                "{}: a trainable backbone gets gradients",
                header.name()
            );
            let (frozen_held, frozen_grads) = step(&ps, header.as_ref());
            assert_eq!(
                frozen_held,
                0,
                "{}: frozen backbone nodes hold gradients",
                header.name()
            );
            assert!(
                frozen_grads == grads,
                "{}: header gradients moved",
                header.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn cnn_header_rejects_tiny_grid() {
        let (_, mut ps, mut rng) = setup();
        CnnHeader::new(&mut ps, "c", 16, 1, 5, &mut rng);
    }
}
