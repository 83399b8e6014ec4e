//! # acme-serve
//!
//! Multi-tenant batched inference over per-device ACME variants.
//!
//! After the customization pipeline runs, a deployment holds one pruned
//! backbone per cluster and one personalized, class-pruned header per
//! device. This crate serves a live request stream against that fleet:
//!
//! 1. **[`variant`]** — the variant store resolving a device id to its
//!    shared cluster backbone plus its own pruned exit heads.
//! 2. **[`batcher`]** — shape-aware coalescing: same-shape requests of
//!    every variant on one cluster backbone share a backbone pass,
//!    gathered up to a batch cap or a latency-budget window.
//! 3. **[`engine`]** — the batched early-exit forward: the backbone runs
//!    once per batch, each variant's head scores its own rows at every
//!    exit, confident rows return from shallow exits and the survivors
//!    are row-compacted, so deep blocks only see hard inputs.
//!    Bit-identical to one-at-a-time serving at any batch composition.
//! 4. **[`server`]** — worker loops on an [`acme_runtime::Pool`], each
//!    with a long-lived graph: steady-state serving is free of per-batch
//!    graph allocation, the frozen backbone is bound by reference (no
//!    weight is copied per batch): an f32 product reads it in place, an
//!    int8 one hits the [`acme_tensor::packcache`].
//! 5. **[`loadgen`]** — seeded firehose traces with Zipf device
//!    popularity for benchmarks and tests.
//!
//! Serving counters (`serve.requests`, `serve.batches`,
//! `serve.early_exits`, the `serve.batch_size` histogram) publish into
//! the unified [`acme_obs::metrics`] registry via
//! [`metrics::publish_obs_metrics`], which every [`server::serve`] call
//! runs as it returns, while recording is enabled
//! (`acme_obs::trace::set_enabled`), the one switch of the workspace.

#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod batcher;
pub mod engine;
pub mod loadgen;
pub mod metrics;
pub mod persist;
pub mod server;
pub mod variant;

pub use acme_tensor::Precision;
pub use batcher::{Batcher, BatcherConfig, QueuedRequest};
pub use engine::{BatchEngine, ExitPolicy, Request, Response};
pub use loadgen::trace;
pub use persist::{ManifestVariant, StoreManifest};
pub use server::{serve, Completion, ServeReport, ServerConfig};
pub use variant::{ClusterModel, DeviceVariant, ServeModelConfig, StoreConfig, VariantStore};
