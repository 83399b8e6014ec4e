//! # acme-data
//!
//! Synthetic image-classification datasets and the non-IID partitioning
//! schemes used by the ACME reproduction.
//!
//! The paper evaluates on CIFAR-100 and Stanford Cars; neither dataset can
//! ship with this repository, so [`cifar100_like`] and
//! [`stanford_cars_like`] generate *structurally equivalent* workloads:
//! Gaussian class prototypes rendered as low-frequency image patterns with
//! controllable class count, intra-class noise, and inter-class confusion
//! (the "fine-grained" axis that makes Stanford Cars harder than
//! CIFAR-100). Non-IID device splits — label shards, Dirichlet skew, and
//! the paper's C1/C2/C3 confusion levels from Fig. 11 — operate on any
//! [`Dataset`].
//!
//! Post-deployment distribution shift is modeled by [`DriftingStream`]:
//! per-device windows whose class prototypes and label mixture drift
//! deterministically after a configured onset (PR 10). All spec and
//! partition validation surfaces as the typed [`DataError`] instead of
//! panicking.
//!
//! ```
//! use acme_data::{cifar100_like, SyntheticSpec};
//! use acme_tensor::SmallRng64;
//!
//! let mut rng = SmallRng64::new(0);
//! let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
//! assert!(ds.len() > 0);
//! let (train, test) = ds.split(0.8, &mut rng);
//! assert!(train.len() > test.len());
//! ```

mod augment;
mod dataset;
mod drift;
mod error;
mod partition;
mod stats;
mod synthetic;

pub use augment::Augment;
pub use dataset::{batch_indices, sample_indices, Batch, Dataset};
pub use drift::{DriftSpec, DriftingStream};
pub use error::DataError;
pub use partition::{
    partition_confusion, partition_dirichlet, partition_iid, partition_shards, ConfusionLevel,
};
pub use stats::{feature_matrix, label_distribution};
pub use synthetic::{cifar100_like, generate, stanford_cars_like, SyntheticSpec};
