//! # acme-vit
//!
//! The Vision-Transformer backbone of the ACME reproduction, together with
//! everything Phase 1 of the paper does to it:
//!
//! * [`Vit`] — a scaled-down ViT with the width/depth transform
//!   `δ(θ₀, w, d)` of §II-C realized by [`VitConfig::scaled`];
//! * [`score_importance`] — first-order Taylor importance of attention
//!   heads and MLP neurons (Eqs. 6–8);
//! * [`prune_width`] — physical structured pruning that removes the least
//!   important heads/neurons, yielding the width-scalable backbone
//!   `θ̂^B`;
//! * [`distill`] — knowledge distillation of the pruned student against
//!   the full teacher (Eq. 9: logits + embeddings + hidden states, MSE),
//!   split into one teacher pass ([`TeacherTargets`]) shared by every
//!   student and the per-student loop ([`distill_from`]);
//! * [`FrozenFeatures`] — a frozen backbone's features, computed once
//!   per example, that header refits ([`fit_header`]) and evaluations
//!   ([`evaluate_header`]) read instead of re-running the backbone;
//! * [`headers`] — the four fixed reference headers of Fig. 7(b)
//!   (Bakhtiarnia et al. styles) and the [`Header`] trait the NAS-found
//!   headers also implement;
//! * [`baselines`] — scaled-down analogues of the lightweight-ViT
//!   baselines of Fig. 7(a): Efficient-ViT, MobileViT, Twins-SVT and the
//!   DeViT family.
//!
//! ```
//! use acme_vit::{Vit, VitConfig};
//! use acme_nn::ParamSet;
//! use acme_tensor::{Graph, SmallRng64};
//! use acme_data::{cifar100_like, SyntheticSpec};
//!
//! let mut rng = SmallRng64::new(0);
//! let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
//! let cfg = VitConfig::tiny(ds.num_classes());
//! let mut ps = ParamSet::new();
//! let vit = Vit::new(&mut ps, &cfg, &mut rng);
//! let mut g = Graph::new();
//! let batch = ds.as_batch();
//! let logits = vit.logits(&mut g, &ps, &batch.images);
//! assert_eq!(g.shape(logits), &[ds.len(), ds.num_classes()]);
//! ```

pub mod baselines;
mod classifier;
mod config;
mod distill;
mod frozen;
pub mod headers;
mod importance;
mod model;
pub mod multi_exit;
mod prune;

pub use classifier::{
    evaluate, evaluate_header, fit, fit_header, ImageClassifier, TrainConfig, TrainReport,
};
pub use config::VitConfig;
pub use distill::{distill, distill_from, DistillConfig, DistillReport, TeacherTargets};
pub use frozen::FrozenFeatures;
pub use headers::{Header, HeaderKind};
pub use importance::{score_importance, ImportanceScores};
pub use model::{patchify, Features, Vit};
pub use multi_exit::{final_exit_accuracy, EarlyExitReport, MultiExitVit};
pub use prune::{prune_width, truncate_depth};
