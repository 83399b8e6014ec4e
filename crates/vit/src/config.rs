//! ViT architecture configuration and the `δ(θ₀, w, d)` transform.

/// Architecture of a (scaled-down) Vision Transformer.
///
/// The reference model `θ₀` of the paper is [`VitConfig::reference`]; any
/// device backbone is `δ(θ₀, w, d)` = [`VitConfig::scaled`], which keeps
/// the embedding width and shrinks the number of attention heads and MLP
/// neurons by the width factor `w` while truncating to `d` layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VitConfig {
    /// Input image side length (square images).
    pub image: usize,
    /// Patch side length (must divide `image`).
    pub patch: usize,
    /// Input channels.
    pub channels: usize,
    /// Embedding width (kept fixed under width scaling).
    pub dim: usize,
    /// Number of Transformer layers (`d^B`).
    pub depth: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Per-head width.
    pub head_dim: usize,
    /// MLP hidden width per layer.
    pub mlp_hidden: usize,
    /// Output classes of the default linear header `θ₀^H`.
    pub classes: usize,
}

impl VitConfig {
    /// The reference backbone `θ₀` used across the reproduction: 16×16×3
    /// inputs, 4×4 patches, width 32, 6 layers, 4 heads — the shape of
    /// ViT-B shrunk to CPU scale with all ratios preserved.
    pub fn reference(classes: usize) -> Self {
        VitConfig {
            image: 16,
            patch: 4,
            channels: 3,
            dim: 32,
            depth: 6,
            heads: 4,
            head_dim: 8,
            mlp_hidden: 64,
            classes,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny(classes: usize) -> Self {
        VitConfig {
            image: 8,
            patch: 4,
            channels: 1,
            dim: 16,
            depth: 2,
            heads: 2,
            head_dim: 8,
            mlp_hidden: 32,
            classes,
        }
    }

    /// Applies the paper's transform `δ(θ₀, w, d)`: keeps `w·heads` heads
    /// and `w·mlp_hidden` neurons per layer and truncates to `depth_d`
    /// layers. At least one head/neuron/layer always survives.
    ///
    /// # Panics
    ///
    /// Panics when `w` is outside `(0, 1]`.
    pub fn scaled(&self, w: f64, depth_d: usize) -> VitConfig {
        assert!(w > 0.0 && w <= 1.0, "width fraction must be in (0,1]");
        VitConfig {
            heads: ((self.heads as f64 * w).round() as usize).max(1),
            mlp_hidden: ((self.mlp_hidden as f64 * w).round() as usize).max(1),
            depth: depth_d.clamp(1, self.depth),
            ..self.clone()
        }
    }

    /// Number of patch tokens (excluding the class token).
    fn num_patches(&self) -> usize {
        let side = self.image / self.patch;
        side * side
    }

    /// Token count including the class token.
    pub fn num_tokens(&self) -> usize {
        self.num_patches() + 1
    }

    /// Flattened patch width (`channels * patch²`).
    pub fn patch_dim(&self) -> usize {
        self.channels * self.patch * self.patch
    }

    /// Spatial grid side (`image / patch`).
    pub fn grid(&self) -> usize {
        self.image / self.patch
    }

    pub fn exact_params(&self) -> u64 {
        let inner = self.heads * self.head_dim;
        let attn = 3 * (self.dim * inner + inner) + inner * self.dim + self.dim;
        let mlp =
            self.dim * self.mlp_hidden + self.mlp_hidden + self.mlp_hidden * self.dim + self.dim;
        let norms = 4 * self.dim; // two layer norms per block
        let per_layer = (attn + mlp + norms) as u64;
        let embed = (self.patch_dim() * self.dim + self.dim) as u64; // patch proj
        let cls = self.dim as u64;
        let pos = (self.num_tokens() * self.dim) as u64;
        let final_ln = 2 * self.dim as u64;
        let head = (self.dim * self.classes + self.classes) as u64;
        self.depth as u64 * per_layer + embed + cls + pos + final_ln + head
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the patch size does not divide the image or
    /// any field is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.patch == 0 || !self.image.is_multiple_of(self.patch) {
            return Err(format!(
                "patch {} must divide image {}",
                self.patch, self.image
            ));
        }
        for (name, v) in [
            ("channels", self.channels),
            ("dim", self.dim),
            ("depth", self.depth),
            ("heads", self.heads),
            ("head_dim", self.head_dim),
            ("mlp_hidden", self.mlp_hidden),
            ("classes", self.classes),
        ] {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_consistent() {
        let c = VitConfig::reference(20);
        c.validate().unwrap();
        assert_eq!(c.num_patches(), 16);
        assert_eq!(c.num_tokens(), 17);
        assert_eq!(c.patch_dim(), 48);
        assert_eq!(c.grid(), 4);
    }

    #[test]
    fn scaled_shrinks_heads_neurons_depth() {
        let c = VitConfig::reference(10);
        let s = c.scaled(0.5, 3);
        assert_eq!(s.heads, 2);
        assert_eq!(s.mlp_hidden, 32);
        assert_eq!(s.depth, 3);
        assert_eq!(s.dim, c.dim);
        // Clamps.
        let t = c.scaled(0.01, 0);
        assert_eq!(t.heads, 1);
        assert_eq!(t.mlp_hidden, 1);
        assert_eq!(t.depth, 1);
        let u = c.scaled(1.0, 99);
        assert_eq!(u.depth, c.depth);
    }

    #[test]
    fn exact_params_monotone_in_scale() {
        let c = VitConfig::reference(10);
        let small = c.scaled(0.5, 3).exact_params();
        let large = c.exact_params();
        assert!(small < large);
    }

    #[test]
    fn validate_catches_bad_patch() {
        let mut c = VitConfig::reference(10);
        c.patch = 5;
        assert!(c.validate().is_err());
        c.patch = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "width fraction")]
    fn scaled_rejects_zero_width() {
        VitConfig::reference(10).scaled(0.0, 6);
    }
}
