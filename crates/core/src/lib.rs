//! # acme
//!
//! The end-to-end ACME pipeline: **A**daptive **C**ustomization of
//! Transformer-based large **M**od**E**ls via a bidirectional single-loop
//! cloud–edge–device system (ICDCS 2025).
//!
//! The pipeline composes the workspace substrates:
//!
//! 1. **Cloud pre-training** — the reference backbone `θ₀` is trained on
//!    the cloud's public dataset.
//! 2. **Phase 1, backbone customization** (Algorithm 1) — head/neuron
//!    Taylor importance, width pruning and depth truncation build the
//!    `(w, d)` candidate pool; knowledge distillation polishes each
//!    student; per cluster, a Pareto Front Grid over (loss, energy, size)
//!    truncated by the storage bound selects `δ(θ₀, w_s, d_s)`.
//! 3. **Phase 2-1, coarse header** — each edge server runs the ENAS-style
//!    block search on its shared dataset against the assigned backbone.
//! 4. **Phase 2-2, fine header** (Algorithm 2) — devices freeze the
//!    backbone, train the header locally, upload importance sets; the
//!    edge aggregates them with Wasserstein-similarity weights and the
//!    devices prune accordingly, for `T` single-loop rounds.
//!
//! Every transfer is metered through [`acme_distsys`], so the pipeline
//! reports the Table I upload volumes alongside per-device accuracy.
//!
//! The pipeline runs on an [`acme_runtime::Pool`] sized by
//! `AcmeConfig::threads` (default: available parallelism). Every
//! parallel task draws from an RNG stream forked off the root seed by
//! stable task index, so **the same seed produces the identical outcome
//! at any thread count** — `threads(1)` reproduces the serial path
//! exactly.
//!
//! The public surface is fallible: construction goes through
//! [`AcmeConfig::builder`] or [`Acme::try_new`], and every failure mode
//! (inconsistent configuration, faulted transfer fabric, empty candidate
//! pool) surfaces as [`AcmeError`] instead of a panic.
//!
//! ```no_run
//! use acme::{Acme, AcmeConfig, AcmeError};
//!
//! fn main() -> Result<(), AcmeError> {
//!     let config = AcmeConfig::builder().quick().threads(4).seed(0).build()?;
//!     let outcome = Acme::try_new(config)?.run()?;
//!     println!("mean accuracy: {:.3}", outcome.mean_accuracy());
//!     println!("upload volume: {:.3} MB", outcome.transfers.uplink_megabytes());
//!     Ok(())
//! }
//! ```

mod config;
mod error;
mod outcome;
mod phase1;
mod phase2;
mod pipeline;
mod recustomize;
mod refine;

pub use acme_distsys::{
    DriverKind, DropPoint, FaultAction, FaultPlan, FaultRule, NodeStatus, ProtocolConfig,
    ProtocolOutcome, ProtocolRun, RetryPolicy, SimConfig, SimDriver, SimStats,
};
pub use acme_pareto::SelectError;
pub use acme_runtime::Pool;
pub use config::{AcmeConfig, AcmeConfigBuilder};
pub use error::AcmeError;
pub use outcome::{AcmeOutcome, BackboneAssignment, DeviceResult};
pub use phase1::{build_candidate_pool_on, customize_backbone_for_cluster, CandidateModel};
pub use phase2::{coarse_header_search, EdgeCustomization};
pub use pipeline::Acme;
pub use recustomize::{
    run_recustomization, DeviceRecustomization, RecustomizeConfig, RecustomizeOutcome,
};
pub use refine::{backbone_features, refine_cluster, DeviceSetup, RefineConfig, RefineOutcome};
