//! The ViT backbone model with masking hooks for importance scoring.

use acme_nn::{Activation, LayerNorm, Linear, ParamId, ParamSet, TransformerBlock};
use acme_tensor::{randn, Array, Graph, Var};
use rand::Rng;

use crate::config::VitConfig;

/// Backbone outputs consumed by headers: the normalized token sequence,
/// the class token, and the penultimate layer's tokens (the NAS header
/// input set of §III-C includes both).
#[derive(Debug, Clone, Copy)]
pub struct Features {
    /// Final tokens `[batch, tokens, dim]` (after the last layer norm).
    pub tokens: Var,
    /// The class token `[batch, dim]`.
    pub cls: Var,
    /// Output of the penultimate Transformer layer `[batch, tokens, dim]`.
    pub penultimate: Var,
    /// Spatial grid side of the patch tokens.
    pub grid: usize,
    /// Embedding width.
    pub dim: usize,
}

impl Features {
    /// The features of final tokens `tokens` and penultimate tokens
    /// `penultimate`; the class token is row 0 of `tokens`.
    pub(crate) fn over(
        g: &mut Graph,
        tokens: Var,
        penultimate: Var,
        grid: usize,
        dim: usize,
    ) -> Features {
        let b = g.shape(tokens)[0];
        let cls = g.slice_axis(tokens, 1, 0, 1);
        let cls = g.reshape(cls, &[b, dim]);
        Features {
            tokens,
            cls,
            penultimate,
            grid,
            dim,
        }
    }
}

/// Extracts non-overlapping `patch x patch` patches from `[batch, c, h,
/// w]` images into `[batch, tokens, c*patch*patch]`, row-major over the
/// patch grid. This is a pure preprocessing step (images carry no
/// gradient).
///
/// # Panics
///
/// Panics when the input is not 4-D or `patch` does not divide both
/// spatial dims.
pub fn patchify(images: &Array, patch: usize) -> Array {
    let s = images.shape();
    assert_eq!(s.len(), 4, "patchify expects [batch, c, h, w]");
    let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert!(
        patch > 0 && h % patch == 0 && w % patch == 0,
        "patch must divide image"
    );
    let (gh, gw) = (h / patch, w / patch);
    let pd = c * patch * patch;
    let mut out = Array::zeros(&[b, gh * gw, pd]);
    for bi in 0..b {
        for gy in 0..gh {
            for gx in 0..gw {
                let t = gy * gw + gx;
                let mut k = 0;
                for ci in 0..c {
                    for py in 0..patch {
                        for px in 0..patch {
                            let v = images.at(&[bi, ci, gy * patch + py, gx * patch + px]);
                            *out.at_mut(&[bi, t, k]) = v;
                            k += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

/// A scaled-down Vision Transformer with the structure of ViT-B: patch
/// embedding, class token, learned positional embedding, pre-norm encoder
/// blocks, final layer norm, and a default linear classification header
/// (the paper's `θ₀^H`).
#[derive(Debug, Clone)]
pub struct Vit {
    config: VitConfig,
    patch_embed: Linear,
    cls_token: ParamId,
    pos_embed: ParamId,
    blocks: Vec<TransformerBlock>,
    final_ln: LayerNorm,
    head: Linear,
}

impl Vit {
    /// Registers all parameters of the architecture in `ps`.
    ///
    /// # Panics
    ///
    /// Panics when `config.validate()` fails.
    pub fn new(ps: &mut ParamSet, config: &VitConfig, rng: &mut impl Rng) -> Self {
        Self::with_activation(ps, config, Activation::Gelu, rng)
    }

    /// Like [`Vit::new`] but with an explicit MLP activation for every
    /// block. The standard ViT recipe is GELU; serving deployments that
    /// are elementwise-bound may trade it for the cheaper ReLU.
    ///
    /// # Panics
    ///
    /// Panics when `config.validate()` fails.
    pub fn with_activation(
        ps: &mut ParamSet,
        config: &VitConfig,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        config.validate().expect("invalid ViT config");
        let patch_embed = Linear::new(ps, "vit.patch_embed", config.patch_dim(), config.dim, rng);
        let cls_token = ps.add("vit.cls", randn(&[1, 1, config.dim], rng).scale(0.02));
        let pos_embed = ps.add(
            "vit.pos",
            randn(&[1, config.num_tokens(), config.dim], rng).scale(0.02),
        );
        let blocks = (0..config.depth)
            .map(|i| {
                TransformerBlock::with_activation(
                    ps,
                    &format!("vit.block{i}"),
                    config.dim,
                    config.heads,
                    config.head_dim,
                    config.mlp_hidden,
                    activation,
                    rng,
                )
            })
            .collect();
        let final_ln = LayerNorm::new(ps, "vit.ln_f", config.dim);
        let head = Linear::new(ps, "vit.head", config.dim, config.classes, rng);
        Vit {
            config: config.clone(),
            patch_embed,
            cls_token,
            pos_embed,
            blocks,
            final_ln,
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &VitConfig {
        &self.config
    }

    /// Embeds images into the token sequence `[batch, tokens, dim]`
    /// (patch projection + class token + positional embedding).
    pub fn embed(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let b = images.shape()[0];
        let patches = patchify(images, self.config.patch);
        let t = patches.shape()[1];
        let pd = patches.shape()[2];
        let pv = g.constant(patches);
        let flat = g.reshape(pv, &[b * t, pd]);
        let emb = self.patch_embed.forward(g, ps, flat);
        let emb = g.reshape(emb, &[b, t, self.config.dim]);
        // Broadcast the class token over the batch and prepend it.
        let cls = ps.bind(g, self.cls_token);
        let zeros = g.constant(Array::zeros(&[b, 1, self.config.dim]));
        let cls_b = g.add(zeros, cls);
        let tokens = g.concat(&[cls_b, emb], 1);
        let pos = ps.bind(g, self.pos_embed);
        g.add(tokens, pos)
    }

    /// Full backbone forward: [`Vit::embed`], then the encoder blocks and
    /// the final layer norm.
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Features {
        let x = self.embed(g, ps, images);
        self.encode(g, ps, x)
    }

    /// The encoder blocks and final layer norm over an embedded token
    /// sequence `x` (the output of [`Vit::embed`]).
    pub(crate) fn encode(&self, g: &mut Graph, ps: &ParamSet, mut x: Var) -> Features {
        let mut penultimate = x;
        for (i, blk) in self.blocks.iter().enumerate() {
            if i + 1 == self.blocks.len() {
                penultimate = x;
            }
            x = blk.forward(g, ps, x);
        }
        if self.blocks.len() == 1 {
            penultimate = x;
        }
        self.features_from(g, ps, x, penultimate)
    }

    /// Backbone forward with head/neuron mask *leaves* inserted into every
    /// block; returns the features plus the per-layer mask vars whose
    /// gradients are the Taylor importance numerators of Eqs. (6)–(8).
    pub fn forward_importance(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        images: &Array,
    ) -> (Features, Vec<Var>, Vec<Var>) {
        let mut x = self.embed(g, ps, images);
        let mut penultimate = x;
        let mut head_masks = Vec::with_capacity(self.blocks.len());
        let mut neuron_masks = Vec::with_capacity(self.blocks.len());
        for (i, blk) in self.blocks.iter().enumerate() {
            if i + 1 == self.blocks.len() {
                penultimate = x;
            }
            let hm = g.leaf(Array::ones(&[1, self.config.heads, 1, 1]));
            let nm = g.leaf(Array::ones(&[blk.mlp().hidden_dim()]));
            head_masks.push(hm);
            neuron_masks.push(nm);
            x = blk.forward_importance(g, ps, x, hm, nm);
        }
        if self.blocks.len() == 1 {
            penultimate = x;
        }
        let f = self.features_from(g, ps, x, penultimate);
        (f, head_masks, neuron_masks)
    }

    fn features_from(&self, g: &mut Graph, ps: &ParamSet, x: Var, penultimate: Var) -> Features {
        let tokens = self.final_ln.forward(g, ps, x);
        Features::over(g, tokens, penultimate, self.config.grid(), self.config.dim)
    }

    /// Logits of the default linear header applied to the class token.
    pub fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        let f = self.forward(g, ps, images);
        self.head.forward(g, ps, f.cls)
    }

    /// Logits from precomputed features (reuses a shared backbone pass).
    pub fn logits_from(&self, g: &mut Graph, ps: &ParamSet, features: &Features) -> Var {
        self.head.forward(g, ps, features.cls)
    }

    /// The encoder blocks.
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// The patch embedding projection.
    pub fn patch_embed(&self) -> &Linear {
        &self.patch_embed
    }

    /// Class-token and positional-embedding parameter ids.
    pub fn embed_param_ids(&self) -> [ParamId; 2] {
        [self.cls_token, self.pos_embed]
    }

    /// The default linear header.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// All backbone parameter ids (everything except the default header).
    pub fn backbone_param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.patch_embed.param_ids().to_vec();
        ids.push(self.cls_token);
        ids.push(self.pos_embed);
        for b in &self.blocks {
            ids.extend(b.param_ids());
        }
        ids.extend(self.final_ln.param_ids());
        ids
    }

    /// All parameter ids including the default header.
    pub fn all_param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.backbone_param_ids();
        ids.extend(self.head.param_ids());
        ids
    }

    /// Freezes (or unfreezes) the backbone — devices freeze it during
    /// second-stage header refinement (§III-D).
    pub fn set_backbone_trainable(&self, ps: &mut ParamSet, trainable: bool) {
        for id in self.backbone_param_ids() {
            ps.set_trainable(id, trainable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    fn toy_images(b: usize) -> Array {
        let mut rng = SmallRng64::new(0);
        randn(&[b, 1, 8, 8], &mut rng)
    }

    #[test]
    fn patchify_layout() {
        // 1 image, 1 channel, 4x4 with 2x2 patches -> 4 tokens of 4 values.
        let img = Array::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let p = patchify(&img, 2);
        assert_eq!(p.shape(), &[1, 4, 4]);
        // Token 0 = top-left patch rows (0,1),(4,5).
        assert_eq!(&p.data()[0..4], &[0.0, 1.0, 4.0, 5.0]);
        // Token 3 = bottom-right patch (10,11),(14,15).
        assert_eq!(&p.data()[12..16], &[10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng64::new(1);
        let cfg = VitConfig::tiny(5);
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let mut g = Graph::new();
        let f = vit.forward(&mut g, &ps, &toy_images(3));
        assert_eq!(g.shape(f.tokens), &[3, 5, 16]); // 4 patches + cls
        assert_eq!(g.shape(f.cls), &[3, 16]);
        assert_eq!(g.shape(f.penultimate), &[3, 5, 16]);
        let logits = vit.logits(&mut g, &ps, &toy_images(3));
        assert_eq!(g.shape(logits), &[3, 5]);
    }

    #[test]
    fn exact_params_matches_paramset() {
        let mut rng = SmallRng64::new(2);
        let cfg = VitConfig::tiny(5);
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        assert_eq!(cfg.exact_params(), ps.num_scalars() as u64);
        assert_eq!(vit.all_param_ids().len(), ps.len());
    }

    #[test]
    fn importance_masks_have_grads_after_backward() {
        let mut rng = SmallRng64::new(3);
        let cfg = VitConfig::tiny(4);
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let mut g = Graph::new();
        let (f, hm, nm) = vit.forward_importance(&mut g, &ps, &toy_images(2));
        let logits = vit.logits_from(&mut g, &ps, &f);
        let loss = g.cross_entropy_logits(logits, &[0, 1]);
        g.backward(loss);
        assert_eq!(hm.len(), 2);
        assert_eq!(nm.len(), 2);
        for &m in hm.iter().chain(&nm) {
            let grad = g.grad(m).expect("mask grad");
            assert!(grad.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn freezing_backbone_keeps_header_trainable() {
        let mut rng = SmallRng64::new(4);
        let cfg = VitConfig::tiny(4);
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        vit.set_backbone_trainable(&mut ps, false);
        for id in vit.backbone_param_ids() {
            assert!(!ps.is_trainable(id));
        }
        for id in vit.head().param_ids() {
            assert!(ps.is_trainable(id));
        }
    }

    #[test]
    fn depth_one_penultimate_is_final_preln() {
        let mut rng = SmallRng64::new(5);
        let mut cfg = VitConfig::tiny(4);
        cfg.depth = 1;
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let mut g = Graph::new();
        let f = vit.forward(&mut g, &ps, &toy_images(1));
        assert_eq!(g.shape(f.penultimate), g.shape(f.tokens));
    }
}
