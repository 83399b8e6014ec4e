//! Pipeline configuration.

use acme_data::{ConfusionLevel, SyntheticSpec};
use acme_energy::EnergyModel;
use acme_nas::SearchConfig;
use acme_runtime::Pool;
use acme_vit::{TrainConfig, VitConfig};

use crate::error::AcmeError;
use crate::refine::RefineConfig;

/// Full configuration of an [`Acme`](crate::Acme) run.
#[derive(Debug, Clone)]
pub struct AcmeConfig {
    /// The reference backbone `θ₀`.
    pub reference: VitConfig,
    /// Synthetic dataset generator settings (classes, image size and
    /// channels must match `reference`'s).
    pub dataset: SyntheticSpec,
    /// Device clusters and devices per cluster.
    pub clusters: usize,
    /// Devices per cluster.
    pub devices_per_cluster: usize,
    /// How device-local data is skewed.
    pub confusion: ConfusionLevel,
    /// Width options `W^B` explored by Phase 1.
    pub widths: Vec<f64>,
    /// Depth options `D^B` explored by Phase 1.
    pub depths: Vec<usize>,
    /// Performance window `γ_p` of the Pareto grid (Eq. 11).
    pub gamma_p: f64,
    /// Energy model coefficients (Eq. 2).
    pub energy: EnergyModel,
    /// Epochs `k` of the energy integral (Eq. 1).
    pub energy_epochs: usize,
    /// Cloud pre-training schedule for `θ₀`.
    pub pretrain: TrainConfig,
    /// Distillation schedule per Phase 1 candidate (Eq. 9).
    pub distill: TrainConfig,
    /// Importance-scoring batches for head/neuron pruning.
    pub importance_batches: usize,
    /// Edge NAS settings (Phase 2-1).
    pub search: SearchConfig,
    /// Fraction of each device's data mirrored on its edge server
    /// (the paper stores 10–20%).
    pub edge_share: f64,
    /// Device-side refinement settings (Phase 2-2 / Algorithm 2).
    pub refine: RefineConfig,
    /// Root RNG seed.
    pub seed: u64,
    /// Worker threads of the [`acme_runtime::Pool`] the pipeline runs
    /// on. `1` reproduces the serial path; the same seed produces the
    /// same outcome at any thread count.
    pub threads: usize,
}

impl AcmeConfig {
    /// The paper-shaped default: 20-class CIFAR-100-like data, the
    /// reference ViT, a 4×6 width/depth grid, and a 10-cluster fleet.
    /// This is sized for the benchmark harness (minutes, release mode).
    pub fn paper_scaled() -> Self {
        let classes = 20;
        AcmeConfig {
            reference: VitConfig::reference(classes),
            dataset: SyntheticSpec::cifar(),
            clusters: 10,
            devices_per_cluster: 5,
            confusion: ConfusionLevel::C1,
            widths: vec![0.25, 0.5, 0.75, 1.0],
            depths: vec![1, 2, 3, 4, 5, 6],
            gamma_p: 0.15,
            energy: EnergyModel::default(),
            energy_epochs: 5,
            pretrain: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            distill: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            importance_batches: 4,
            search: SearchConfig::default(),
            edge_share: 0.15,
            refine: RefineConfig::default(),
            seed: 7,
            threads: Pool::with_available_parallelism().threads(),
        }
    }

    /// A fast configuration for tests and the quickstart example
    /// (seconds, not minutes).
    pub fn quick() -> Self {
        let classes = 6;
        AcmeConfig {
            reference: VitConfig {
                image: 8,
                patch: 4,
                channels: 1,
                dim: 16,
                depth: 2,
                heads: 2,
                head_dim: 8,
                mlp_hidden: 32,
                classes,
            },
            dataset: SyntheticSpec {
                classes,
                per_class: 48,
                channels: 1,
                size: 8,
                grid: 2,
                noise: 0.25,
                confusion: 0.25,
            },
            clusters: 2,
            devices_per_cluster: 3,
            confusion: ConfusionLevel::C1,
            widths: vec![0.5, 1.0],
            depths: vec![1, 2],
            gamma_p: 0.2,
            energy: EnergyModel::default(),
            energy_epochs: 3,
            pretrain: TrainConfig {
                epochs: 4,
                batch_size: 16,
                ..TrainConfig::default()
            },
            distill: TrainConfig {
                epochs: 1,
                batch_size: 16,
                ..TrainConfig::default()
            },
            importance_batches: 2,
            search: SearchConfig::quick(),
            edge_share: 0.15,
            refine: RefineConfig::quick(),
            seed: 7,
            threads: Pool::with_available_parallelism().threads(),
        }
    }

    /// Starts a builder seeded with the [`paper_scaled`] preset; chain
    /// setters and finish with
    /// [`build()`](AcmeConfigBuilder::build), which re-validates every
    /// cross-field invariant.
    ///
    /// [`paper_scaled`]: AcmeConfig::paper_scaled
    pub fn builder() -> AcmeConfigBuilder {
        AcmeConfigBuilder {
            config: AcmeConfig::paper_scaled(),
        }
    }

    /// Sanity-checks cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError::InvalidConfig`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), AcmeError> {
        self.check().map_err(AcmeError::InvalidConfig)
    }

    fn check(&self) -> Result<(), String> {
        self.reference.validate()?;
        header_grid(self.reference.grid())?;
        let (d, r) = (&self.dataset, &self.reference);
        if (d.size, d.channels) != (r.image, r.channels) {
            return Err(format!(
                "dataset images are {}x{} with {} channel(s), the reference model takes {}x{} \
                 with {}",
                d.size, d.size, d.channels, r.image, r.image, r.channels
            ));
        }
        if self.dataset.classes != self.reference.classes {
            return Err(format!(
                "dataset classes {} != model classes {}",
                self.dataset.classes, self.reference.classes
            ));
        }
        if self.clusters == 0 || self.devices_per_cluster == 0 {
            return Err("fleet must be nonempty".to_string());
        }
        if self.widths.is_empty() || self.depths.is_empty() {
            return Err("width/depth grids must be nonempty".to_string());
        }
        if self
            .widths
            .iter()
            .any(|&w| !(0.0..=1.0).contains(&w) || w == 0.0)
        {
            return Err("widths must lie in (0, 1]".to_string());
        }
        if self
            .depths
            .iter()
            .any(|&d| d == 0 || d > self.reference.depth)
        {
            return Err("depths must lie in 1..=reference depth".to_string());
        }
        // A non-positive γ_p fails the Pareto grid, so selection would
        // fall back to the smallest candidate; a non-finite one collapses
        // the grid to one cell.
        if !(self.gamma_p.is_finite() && self.gamma_p > 0.0) {
            return Err(format!(
                "gamma_p must be finite and positive, got {}",
                self.gamma_p
            ));
        }
        // With zero batches every head and neuron scores 0, so Phase 1
        // would keep them in index order instead of by importance.
        if self.importance_batches == 0 {
            return Err("importance scoring needs at least one batch".to_string());
        }
        if self.search.num_blocks == 0 || self.search.u == 0 {
            return Err("header search needs at least one block and one repetition".to_string());
        }
        if !(0.0..=1.0).contains(&self.edge_share) {
            return Err("edge share must lie in [0, 1]".to_string());
        }
        if self.threads == 0 {
            return Err("thread count must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Checks that a backbone's `grid × grid` token map can feed the NAS
/// header supernet, whose pool ops take 2×2 windows: the grid must be
/// even and at least 2.
pub(crate) fn header_grid(grid: usize) -> Result<(), String> {
    if grid < 2 || !grid.is_multiple_of(2) {
        return Err(format!(
            "backbone grid {grid} (image / patch) must be even and at least 2: \
             the header's pool ops take 2x2 windows"
        ));
    }
    Ok(())
}

/// Builder for [`AcmeConfig`] — the validated construction path of the
/// public API. Starts from the [`AcmeConfig::paper_scaled`] preset;
/// every setter replaces one field and [`build`](Self::build) checks the
/// cross-field invariants before handing out the config.
///
/// ```
/// use acme::AcmeConfig;
///
/// let config = AcmeConfig::builder().quick().threads(4).seed(42).build().unwrap();
/// assert_eq!(config.threads, 4);
/// assert!(AcmeConfig::builder().threads(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AcmeConfigBuilder {
    config: AcmeConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty,)*) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl AcmeConfigBuilder {
    /// Replaces every field with the [`AcmeConfig::quick`] preset,
    /// keeping subsequent setters applicable on top of it.
    pub fn quick(mut self) -> Self {
        self.config = AcmeConfig::quick();
        self
    }

    builder_setters! {
        /// The reference backbone `θ₀`.
        reference: VitConfig,
        /// Synthetic dataset generator settings.
        dataset: SyntheticSpec,
        /// Device clusters.
        clusters: usize,
        /// Devices per cluster.
        devices_per_cluster: usize,
        /// How device-local data is skewed.
        confusion: ConfusionLevel,
        /// Width options `W^B` explored by Phase 1.
        widths: Vec<f64>,
        /// Depth options `D^B` explored by Phase 1.
        depths: Vec<usize>,
        /// Performance window `γ_p` of the Pareto grid (Eq. 11).
        gamma_p: f64,
        /// Energy model coefficients (Eq. 2).
        energy: EnergyModel,
        /// Epochs `k` of the energy integral (Eq. 1).
        energy_epochs: usize,
        /// Cloud pre-training schedule for `θ₀`.
        pretrain: TrainConfig,
        /// Distillation schedule per Phase 1 candidate (Eq. 9).
        distill: TrainConfig,
        /// Importance-scoring batches for head/neuron pruning.
        importance_batches: usize,
        /// Edge NAS settings (Phase 2-1).
        search: SearchConfig,
        /// Fraction of each device's data mirrored on its edge server.
        edge_share: f64,
        /// Device-side refinement settings (Phase 2-2 / Algorithm 2).
        refine: RefineConfig,
        /// Root RNG seed.
        seed: u64,
        /// Worker threads of the runtime pool (`1` = serial).
        threads: usize,
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError::InvalidConfig`] on the first cross-field
    /// inconsistency (class mismatch, out-of-range widths/depths,
    /// `edge_share` outside `[0, 1]`, zero threads, …).
    pub fn build(self) -> Result<AcmeConfig, AcmeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl Default for AcmeConfig {
    fn default() -> Self {
        AcmeConfig::paper_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        AcmeConfig::paper_scaled().validate().unwrap();
        AcmeConfig::quick().validate().unwrap();
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut c = AcmeConfig::quick();
        c.dataset.classes = 3;
        assert!(c.validate().is_err());
        let mut c = AcmeConfig::quick();
        c.depths = vec![99];
        assert!(c.validate().is_err());
        let mut c = AcmeConfig::quick();
        c.widths = vec![0.0];
        assert!(c.validate().is_err());
        let mut c = AcmeConfig::quick();
        c.threads = 0;
        assert!(c.validate().is_err());
        for gamma_p in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let mut c = AcmeConfig::quick();
            c.gamma_p = gamma_p;
            assert!(c.validate().is_err(), "gamma_p {gamma_p}");
        }
        let mut c = AcmeConfig::quick();
        c.importance_batches = 0;
        assert!(c.validate().is_err());
    }

    /// Each of the next four used to pass validation and then panic
    /// inside the run: the header supernet (odd grid, grid 1) or the
    /// patch embedding (images unlike the model's).
    fn assert_invalid(c: &AcmeConfig, names: &str) {
        match c.validate() {
            Err(AcmeError::InvalidConfig(m)) => assert!(m.contains(names), "{m}"),
            other => panic!("expected InvalidConfig naming {names}, got {other:?}"),
        }
    }

    #[test]
    fn an_odd_backbone_grid_is_invalid() {
        let mut c = AcmeConfig::quick();
        (c.reference.image, c.dataset.size) = (12, 12);
        assert_invalid(&c, "grid 3");
    }

    #[test]
    fn a_backbone_grid_of_one_is_invalid() {
        let mut c = AcmeConfig::quick();
        c.reference.patch = 8;
        assert_invalid(&c, "grid 1");
    }

    #[test]
    fn a_dataset_size_unlike_the_reference_image_is_invalid() {
        let mut c = AcmeConfig::quick();
        c.dataset.size = 12;
        assert_invalid(&c, "12x12");
    }

    #[test]
    fn dataset_channels_unlike_the_reference_channels_are_invalid() {
        let mut c = AcmeConfig::quick();
        c.dataset.channels = 3;
        assert_invalid(&c, "3 channel(s)");
    }

    #[test]
    fn an_empty_header_search_space_is_invalid() {
        // Either used to pass validation and then panic inside NAS.
        for search in [
            SearchConfig {
                num_blocks: 0,
                ..SearchConfig::quick()
            },
            SearchConfig {
                u: 0,
                ..SearchConfig::quick()
            },
        ] {
            let built = AcmeConfig::builder().quick().search(search).build();
            assert!(matches!(built, Err(AcmeError::InvalidConfig(_))));
        }
    }

    #[test]
    fn builder_applies_presets_and_setters() {
        let c = AcmeConfig::builder()
            .quick()
            .clusters(3)
            .seed(11)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(c.clusters, 3);
        assert_eq!(c.seed, 11);
        assert_eq!(c.threads, 2);
        // Untouched fields come from the quick preset.
        assert_eq!(c.widths, AcmeConfig::quick().widths);
    }

    #[test]
    fn builder_rejects_cross_field_inconsistencies() {
        let err = AcmeConfig::builder()
            .quick()
            .widths(vec![1.5])
            .build()
            .unwrap_err();
        assert!(matches!(err, AcmeError::InvalidConfig(_)));
        assert!(AcmeConfig::builder().edge_share(2.0).build().is_err());
        assert!(AcmeConfig::builder().depths(vec![0]).build().is_err());
        assert!(AcmeConfig::builder().threads(0).build().is_err());
        assert!(AcmeConfig::builder().gamma_p(0.0).build().is_err());
        assert!(AcmeConfig::builder().gamma_p(f64::NAN).build().is_err());
        assert!(AcmeConfig::builder().importance_batches(0).build().is_err());
    }
}
