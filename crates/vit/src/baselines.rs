//! Scaled-down analogues of the lightweight-ViT baselines compared in
//! Fig. 7(a) and Fig. 13(a) of the paper: Efficient-ViT, MobileViT,
//! Twins-SVT, and the DeViT family (DeViT / DeDeiTs / DeCCTs).
//!
//! Each analogue preserves its original's *structural idea* at the
//! reproduction's CPU scale — CNN-before-ViT for Efficient-ViT, conv/
//! transformer interleaving for MobileViT, lean separable-style attention
//! with a convolutional positional encoding for Twins-SVT, and an
//! ensemble of decomposed small ViTs for DeViT — so the accuracy-vs-size
//! frontier comparison exercises the same trade-offs.

#![expect(
    clippy::disallowed_methods,
    reason = "the comparison models are no Vit: each runs its own block stack"
)]

use acme_nn::{Conv2dLayer, Linear, ParamSet, TransformerBlock};
use acme_tensor::{Array, Graph, SmallRng64, Var};

use crate::classifier::ImageClassifier;
use crate::config::VitConfig;
use crate::model::Vit;

/// Which baseline family to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// CNN stem for local features, Transformer for global (Xie & Liao).
    EfficientVit,
    /// Interleaved convolutions and a Transformer block (Mehta &
    /// Rastegari).
    MobileVit,
    /// Lean attention plus convolutional positional encoding (Chu et
    /// al.).
    TwinsSvt,
    /// Ensemble of two decomposed half-width ViTs (Xu et al.).
    DeVit,
    /// DeViT variant: three shallower decomposed members.
    DeDeiTs,
    /// DeViT variant: two members with convolutional stems.
    DeCcts,
}

impl BaselineKind {
    /// All baselines in the paper's presentation order.
    pub fn all() -> [BaselineKind; 6] {
        [
            BaselineKind::EfficientVit,
            BaselineKind::MobileVit,
            BaselineKind::TwinsSvt,
            BaselineKind::DeVit,
            BaselineKind::DeDeiTs,
            BaselineKind::DeCcts,
        ]
    }

    /// Builds the baseline over a fresh parameter set sized for `classes`
    /// output classes and `channels x image x image` inputs.
    pub fn build(
        self,
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Box<dyn ImageClassifier> {
        match self {
            BaselineKind::EfficientVit => {
                Box::new(EfficientVitLike::new(ps, image, channels, classes, rng))
            }
            BaselineKind::MobileVit => {
                Box::new(MobileVitLike::new(ps, image, channels, classes, rng))
            }
            BaselineKind::TwinsSvt => {
                Box::new(TwinsSvtLike::new(ps, image, channels, classes, rng))
            }
            BaselineKind::DeVit => Box::new(DeVitLike::devit(ps, image, channels, classes, rng)),
            BaselineKind::DeDeiTs => {
                Box::new(DeVitLike::dedeits(ps, image, channels, classes, rng))
            }
            BaselineKind::DeCcts => Box::new(DeVitLike::deccts(ps, image, channels, classes, rng)),
        }
    }
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BaselineKind::EfficientVit => "Efficient-ViT",
            BaselineKind::MobileVit => "MobileViT",
            BaselineKind::TwinsSvt => "Twins-SVT",
            BaselineKind::DeVit => "DeViT",
            BaselineKind::DeDeiTs => "DeDeiTs",
            BaselineKind::DeCcts => "DeCCTs",
        };
        f.write_str(s)
    }
}

/// Shared helper: tokens `[B, T, D]` from a `[B, D, g, g]` feature map.
fn map_to_tokens(g: &mut Graph, map: Var) -> (Var, usize, usize) {
    let s = g.shape(map).to_vec();
    let (b, d, gh, gw) = (s[0], s[1], s[2], s[3]);
    let flat = g.reshape(map, &[b, d, gh * gw]);
    let tok = g.permute(flat, &[0, 2, 1]);
    (tok, b, gh * gw)
}

fn mean_tokens(g: &mut Graph, tokens: Var) -> Var {
    let s = g.shape(tokens).to_vec();
    let (b, t, d) = (s[0], s[1], s[2]);
    let sum = g.sum_axis(tokens, 1);
    let mean = g.scale(sum, 1.0 / t as f32);
    g.reshape(mean, &[b, d])
}

/// Efficient-ViT analogue: two conv+pool stages halve the resolution
/// twice, then two Transformer blocks over the coarse tokens.
#[derive(Debug, Clone)]
struct EfficientVitLike {
    conv1: Conv2dLayer,
    conv2: Conv2dLayer,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    dim: usize,
}

impl EfficientVitLike {
    /// Builds the model (dim 24).
    fn new(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        assert!(
            image.is_multiple_of(4) && image >= 8,
            "image must be a multiple of 4, at least 8"
        );
        let dim = 24;
        EfficientVitLike {
            conv1: Conv2dLayer::same(ps, "effvit.c1", channels, dim / 2, 3, rng),
            conv2: Conv2dLayer::same(ps, "effvit.c2", dim / 2, dim, 3, rng),
            blocks: (0..2)
                .map(|i| TransformerBlock::new(ps, &format!("effvit.b{i}"), dim, 2, 2 * dim, rng))
                .collect(),
            head: Linear::new(ps, "effvit.head", dim, classes, rng),
            dim,
        }
    }
}

impl ImageClassifier for EfficientVitLike {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let x = g.constant(images.clone());
        let c = self.conv1.forward(g, ps, x);
        let c = g.relu(c);
        let c = g.max_pool2d(c, 2);
        let c = self.conv2.forward(g, ps, c);
        let c = g.relu(c);
        let c = g.max_pool2d(c, 2);
        let (mut tok, _b, _t) = map_to_tokens(g, c);
        for blk in &self.blocks {
            tok = blk.forward(g, ps, tok);
        }
        let pooled = mean_tokens(g, tok);
        debug_assert_eq!(g.shape(pooled)[1], self.dim);
        self.head.forward(g, ps, pooled)
    }

    fn name(&self) -> &str {
        "Efficient-ViT"
    }
}

/// MobileViT analogue: conv -> pool -> conv -> pool -> one Transformer
/// block -> mean pool -> affine.
#[derive(Debug, Clone)]
struct MobileVitLike {
    conv1: Conv2dLayer,
    conv2: Conv2dLayer,
    block: TransformerBlock,
    head: Linear,
}

impl MobileVitLike {
    /// Builds the model (dim 20).
    fn new(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        assert!(
            image.is_multiple_of(4) && image >= 8,
            "image must be a multiple of 4, at least 8"
        );
        let dim = 20;
        MobileVitLike {
            conv1: Conv2dLayer::same(ps, "mobilevit.c1", channels, dim, 3, rng),
            conv2: Conv2dLayer::same(ps, "mobilevit.c2", dim, dim, 3, rng),
            block: TransformerBlock::new(ps, "mobilevit.b0", dim, 2, 2 * dim, rng),
            head: Linear::new(ps, "mobilevit.head", dim, classes, rng),
        }
    }
}

impl ImageClassifier for MobileVitLike {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let x = g.constant(images.clone());
        let c = self.conv1.forward(g, ps, x);
        let c = g.relu(c);
        let c = g.max_pool2d(c, 2);
        let c = self.conv2.forward(g, ps, c);
        let c = g.relu(c);
        let c = g.max_pool2d(c, 2);
        let (tok, _, _) = map_to_tokens(g, c);
        let tok = self.block.forward(g, ps, tok);
        let pooled = mean_tokens(g, tok);
        self.head.forward(g, ps, pooled)
    }

    fn name(&self) -> &str {
        "MobileViT"
    }
}

/// Twins-SVT analogue: patch tokens with a *convolutional* positional
/// encoding (instead of a learned table) and two lean attention blocks.
#[derive(Debug, Clone)]
struct TwinsSvtLike {
    patch_proj: Linear,
    pos_conv: Conv2dLayer,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    patch: usize,
    dim: usize,
}

impl TwinsSvtLike {
    /// Builds the model (dim 28, patch 4).
    fn new(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let patch = 4;
        assert!(image.is_multiple_of(patch), "image must be a multiple of 4");
        let dim = 28;
        TwinsSvtLike {
            patch_proj: Linear::new(ps, "twins.patch", channels * patch * patch, dim, rng),
            pos_conv: Conv2dLayer::same(ps, "twins.pos", dim, dim, 3, rng),
            blocks: (0..2)
                .map(|i| TransformerBlock::new(ps, &format!("twins.b{i}"), dim, 2, 2 * dim, rng))
                .collect(),
            head: Linear::new(ps, "twins.head", dim, classes, rng),
            patch,
            dim,
        }
    }
}

impl TwinsSvtLike {
    /// Reorders `[b, grid², d]` tokens so that each consecutive group of
    /// four rows is one 2×2 spatial window (and back, with `inverse`).
    /// Realized as a batched matmul with a constant permutation matrix so
    /// gradients flow.
    fn window_permute(&self, g: &mut Graph, tokens: Var, grid: usize, inverse: bool) -> Var {
        let s = g.shape(tokens).to_vec();
        let (b, t) = (s[0], s[1]);
        let mut p = Array::zeros(&[1, t, t]);
        for y in 0..grid {
            for x in 0..grid {
                let src = y * grid + x;
                let win = (y / 2) * (grid / 2) + x / 2;
                let within = (y % 2) * 2 + x % 2;
                let dst = win * 4 + within;
                if inverse {
                    *p.at_mut(&[0, src, dst]) = 1.0;
                } else {
                    *p.at_mut(&[0, dst, src]) = 1.0;
                }
            }
        }
        // Broadcast the permutation over the batch.
        let rows: Vec<&Array> = std::iter::repeat_n(&p, b).collect();
        let pb = Array::concat(&rows, 0).expect("same shapes");
        let pv = g.constant(pb);
        g.batch_matmul(pv, tokens)
            .expect("window permutation shapes")
    }
}

impl ImageClassifier for TwinsSvtLike {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let b = images.shape()[0];
        let grid = images.shape()[2] / self.patch;
        let patches = crate::model::patchify(images, self.patch);
        let t = patches.shape()[1];
        let pv = g.constant(patches);
        let tokens = self.patch_proj.forward(g, ps, pv);
        // Conditional positional encoding: depth-style conv over the grid,
        // added residually (Twins' CPE idea).
        let chan = g.permute(tokens, &[0, 2, 1]);
        let map = g.reshape(chan, &[b, self.dim, grid, grid]);
        let pe = self.pos_conv.forward(g, ps, map);
        let pe = g.reshape(pe, &[b, self.dim, t]);
        let pe = g.permute(pe, &[0, 2, 1]);
        let mut tok = g.add(tokens, pe);
        // Locally-grouped self-attention (Twins' LSA): when the grid
        // splits into 2x2 windows, attention runs within each window —
        // the accuracy/efficiency compromise of the original design; the
        // CPE is the only cross-window pathway.
        let windowed = grid.is_multiple_of(2) && grid >= 2;
        for blk in &self.blocks {
            if windowed {
                let w = self.window_permute(g, tok, grid, false);
                let w = g.reshape(w, &[b * t / 4, 4, self.dim]);
                let w = blk.forward(g, ps, w);
                let w = g.reshape(w, &[b, t, self.dim]);
                tok = self.window_permute(g, w, grid, true);
            } else {
                tok = blk.forward(g, ps, tok);
            }
        }
        let pooled = mean_tokens(g, tok);
        self.head.forward(g, ps, pooled)
    }

    fn name(&self) -> &str {
        "Twins-SVT"
    }
}

/// DeViT-family analogue: an ensemble of decomposed small ViTs whose
/// logits are averaged at inference (collaborative-inference style).
struct DeVitLike {
    members: Vec<Vit>,
    stems: Vec<Option<Conv2dLayer>>,
    label: &'static str,
}

impl DeVitLike {
    /// DeViT: two half-width members.
    fn devit(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        Self::ensemble(ps, image, channels, classes, 2, 3, false, "DeViT", rng)
    }

    /// DeDeiTs: three shallower members.
    fn dedeits(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        Self::ensemble(ps, image, channels, classes, 3, 2, false, "DeDeiTs", rng)
    }

    /// DeCCTs: two members with convolutional stems (compact conv
    /// tokenization).
    fn deccts(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        Self::ensemble(ps, image, channels, classes, 2, 2, true, "DeCCTs", rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn ensemble(
        ps: &mut ParamSet,
        image: usize,
        channels: usize,
        classes: usize,
        n: usize,
        depth: usize,
        conv_stem: bool,
        label: &'static str,
        rng: &mut SmallRng64,
    ) -> Self {
        let mut members = Vec::with_capacity(n);
        let mut stems = Vec::with_capacity(n);
        for i in 0..n {
            let stem = if conv_stem {
                Some(Conv2dLayer::same(
                    ps,
                    &format!("{label}.{i}.stem"),
                    channels,
                    channels,
                    3,
                    rng,
                ))
            } else {
                None
            };
            let cfg = VitConfig {
                image,
                patch: 4,
                channels,
                dim: 16,
                depth,
                heads: 2,
                head_dim: 8,
                mlp_hidden: 32,
                classes,
            };
            members.push(Vit::new(ps, &cfg, rng));
            stems.push(stem);
        }
        DeVitLike {
            members,
            stems,
            label,
        }
    }

    /// Number of ensemble members.
    #[cfg(test)]
    fn num_members(&self) -> usize {
        self.members.len()
    }
}

impl ImageClassifier for DeVitLike {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let mut acc: Option<Var> = None;
        for (member, stem) in self.members.iter().zip(&self.stems) {
            let logits = match stem {
                Some(conv) => {
                    let x = g.constant(images.clone());
                    let c = conv.forward(g, ps, x);
                    let c = g.relu(c);
                    // Materialize the stem output and feed the member.
                    let stem_out = g.value(c).clone();
                    member.logits(g, ps, &stem_out)
                }
                None => member.logits(g, ps, images),
            };
            acc = Some(match acc {
                Some(a) => g.add(a, logits),
                None => logits,
            });
        }
        let sum = acc.expect("ensemble has members");
        g.scale(sum, 1.0 / self.members.len() as f32)
    }

    fn name(&self) -> &str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{evaluate, fit, TrainConfig};
    use acme_data::{generate, SyntheticSpec};
    use acme_tensor::SmallRng64;

    #[test]
    fn all_baselines_build_and_forward() {
        let mut rng = SmallRng64::new(0);
        let spec = SyntheticSpec {
            classes: 5,
            ..SyntheticSpec::tiny()
        };
        let ds = generate(&spec, &mut rng).unwrap();
        let batch = ds.sample(3, &mut rng).as_batch();
        for kind in BaselineKind::all() {
            let mut ps = ParamSet::new();
            let model = kind.build(&mut ps, 8, 1, 5, &mut rng);
            let mut g = Graph::new();
            let logits = model.logits(&mut g, &ps, &batch.images);
            assert_eq!(g.shape(logits), &[3, 5], "baseline {kind}");
            assert!(
                g.value(logits).data().iter().all(|v| v.is_finite()),
                "baseline {kind}"
            );
            assert!(ps.num_scalars() > 0);
        }
    }

    #[test]
    fn baseline_param_counts_are_distinct() {
        let mut rng = SmallRng64::new(1);
        let mut sizes = Vec::new();
        for kind in BaselineKind::all() {
            let mut ps = ParamSet::new();
            let _ = kind.build(&mut ps, 16, 3, 20, &mut rng);
            sizes.push(ps.num_scalars());
        }
        // Families must not all collapse to the same size.
        let mut unique = sizes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 4, "sizes {sizes:?}");
    }

    #[test]
    fn one_baseline_trains_above_chance() {
        let mut rng = SmallRng64::new(2);
        let ds = generate(&SyntheticSpec::tiny().with_per_class(16), &mut rng).unwrap();
        let mut ps = ParamSet::new();
        let model = BaselineKind::MobileVit.build(&mut ps, 8, 1, ds.num_classes(), &mut rng);
        fit(
            model.as_ref(),
            &mut ps,
            &ds,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::quick()
            },
        );
        let acc = evaluate(model.as_ref(), &ps, &ds, 16);
        assert!(acc > 0.4, "accuracy {acc}");
    }

    #[test]
    fn devit_variants_have_right_member_counts() {
        let mut rng = SmallRng64::new(3);
        let mut ps = ParamSet::new();
        assert_eq!(
            DeVitLike::devit(&mut ps, 8, 1, 5, &mut rng).num_members(),
            2
        );
        assert_eq!(
            DeVitLike::dedeits(&mut ps, 8, 1, 5, &mut rng).num_members(),
            3
        );
        assert_eq!(
            DeVitLike::deccts(&mut ps, 8, 1, 5, &mut rng).num_members(),
            2
        );
    }
}
