//! # acme-pareto
//!
//! Grid-based multi-objective model matching: the Pareto Front Grid
//! construction and constrained selection of ACME's backbone
//! customization (Algorithm 1, Eqs. 10–13), plus the matching baselines
//! and efficiency metrics used in Fig. 9 of the paper.
//!
//! A [`Candidate`] is a `(w, d)` backbone with its objective vector
//! `(loss, energy, size)` — the paper's three minimized objectives
//! (Eq. 10). [`GridSpec`] discretizes the objective space
//! into `K` intervals per objective derived from the performance window
//! `γ_p` (Eq. 11); [`pareto_front_grid`] keeps grid-nondominated
//! candidates; [`select_constrained`] applies the storage truncation and
//! the Eq. (13) distance rule.
//!
//! ```
//! use acme_pareto::{Candidate, GridSpec, pareto_front_grid, select_constrained};
//!
//! let candidates = vec![
//!     Candidate::new(1.0, 12, [0.5, 9.0, 9.0]),
//!     Candidate::new(0.5, 6, [0.9, 3.0, 3.0]),
//!     Candidate::new(0.5, 12, [0.8, 5.0, 6.0]),
//!     Candidate::new(1.0, 6, [1.5, 8.0, 8.0]), // dominated
//! ];
//! let spec = GridSpec::from_candidates(&candidates, 0.25).unwrap();
//! let front = pareto_front_grid(&candidates, &spec);
//! assert!(!front.is_empty());
//! // Selection is fallible: a pool whose candidates all carry
//! // non-finite objectives yields a typed `SelectError`.
//! let best = select_constrained(&candidates, &spec, 7.0).unwrap().unwrap();
//! assert!(best.objectives[2] < 7.0);
//! ```

mod candidate;
mod grid;
mod select;

pub use candidate::{dominates, Candidate, NUM_OBJECTIVES};
pub use grid::{pareto_front_grid, GridSpec};
pub use select::{
    select_constrained, select_with, EfficiencyMetrics, MatchOutcome, MatchingMethod, SelectError,
};
