//! # acme-agg
//!
//! Personalized architecture aggregation (Phase 2-2 of the ACME paper,
//! §III-D): per-parameter importance sets via first-order Taylor
//! expansion (Eqs. 16–18), Wasserstein-distance similarity between device
//! data distributions (Eqs. 19–20), and the weighted convex combination
//! that refines each device's header architecture with knowledge from
//! similar devices (Eq. 21).
//!
//! The Jensen–Shannon divergence is included for the `JS` baseline of
//! Fig. 11; the fixed `Alone` (identity) and `Avg` (uniform) weightings
//! need no metric and are spelled where they are used, in
//! `acme::refine_cluster`.
//!
//! Since PR 10 the crate also hosts the sliding-window [`DriftDetector`]
//! that watches per-device statistics post-deployment, and every metric
//! validates its inputs through the typed [`MetricError`] instead of
//! panicking (or silently returning `0.0` for an empty window).
//!
//! ```
//! use acme_agg::{
//!     aggregate_importance, normalize_similarity_with_temperature, similarity_matrix_wasserstein_on,
//! };
//! use acme_runtime::Pool;
//! use acme_tensor::{Array, SmallRng64};
//!
//! // Two devices with very different feature clouds, one pair similar.
//! let a = Array::from_vec(vec![0.0, 0.0, 0.1, 0.1], &[2, 2]).unwrap();
//! let b = Array::from_vec(vec![0.05, 0.0, 0.12, 0.1], &[2, 2]).unwrap();
//! let c = Array::from_vec(vec![5.0, 5.0, 5.1, 5.2], &[2, 2]).unwrap();
//! let mut rng = SmallRng64::new(0);
//! let sim = similarity_matrix_wasserstein_on(&Pool::serial(), &[a, b, c], 16, &mut rng).unwrap();
//! assert!(sim[0][1] > sim[0][2]); // a is closer to b than to c
//! let weights = normalize_similarity_with_temperature(&sim, 1.0).unwrap();
//! let sets = vec![vec![1.0, 0.0], vec![1.0, 0.2], vec![0.0, 9.0]];
//! let fused = aggregate_importance(&sets, &weights, 0);
//! assert_eq!(fused.len(), 2);
//! ```

mod divergence;
mod drift;
mod error;
mod importance;
mod similarity;
mod wasserstein;

pub use divergence::js_divergence;
pub use drift::{DriftDetector, DriftDetectorConfig, DriftStatus};
pub use error::MetricError;
pub use importance::{aggregate_importance, least_important, AggregationMethod, ImportanceSet};
pub use similarity::{
    normalize_similarity_with_temperature, similarity_matrix_js, similarity_matrix_wasserstein_on,
};
pub use wasserstein::{sliced_wasserstein, wasserstein_1d_samples};
