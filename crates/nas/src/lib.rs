//! # acme-nas
//!
//! The coarse-header generation of ACME Phase 2-1 (§III-C): an ENAS-style
//! neural architecture search over block-structured headers.
//!
//! * [`space`] — the DAG search space of Eq. (14): each block is a 5-tuple
//!   `(I₁, I₂, O₁, O₂, +)` whose inputs come from earlier blocks, the
//!   backbone output, or the penultimate layer output, and whose
//!   operations are drawn from conv 1/3/5, identity, downsample, and
//!   average/max pooling.
//! * [`SharedParams`] — the parameter-shared supernet `ω_s`: one set of
//!   operation weights per (block, slot, op) reused by every sampled
//!   child model (Eq. 15 optimizes it by Monte-Carlo sampling).
//! * [`Controller`] — the single-layer, 100-unit LSTM that emits the
//!   `4B`-token architecture sequence, trained with REINFORCE and a
//!   moving-average baseline.
//! * [`NasSearch`] — the alternating optimization driver an edge server
//!   runs on its shared dataset.
//!
//! ```
//! use acme_nas::space::{search_space_size, HeaderArch};
//! use acme_nas::OpKind;
//!
//! // Eq. (14): |B̂_{1:B}| = Π_b (b+1)² · |Ô|²
//! assert_eq!(search_space_size(1, OpKind::all().len()), 4 * 49);
//! let arch = HeaderArch::chain(2, 1);
//! assert_eq!(arch.blocks().len(), 2);
//! ```

pub mod controller;
pub mod header;
pub mod ops;
pub mod predictor;
pub mod search;
pub mod shared;
pub mod space;

pub use controller::Controller;
pub use header::NasHeader;
pub use ops::OpKind;
pub use predictor::AccuracyPredictor;
pub use search::{NasSearch, SearchConfig, SearchOutcome};
pub use shared::SharedParams;
pub use space::{search_space_size, BlockSpec, HeaderArch};
