//! Constrained model selection (Eq. 13) and the matching baselines /
//! efficiency metrics of Fig. 9.

use std::time::Instant;

use acme_tensor::SmallRng64;

use crate::candidate::Candidate;
use crate::grid::{pareto_front_grid, GridSpec};

/// Selection failed before any constraint was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectError {
    /// Every candidate in a non-empty pool carried a NaN or infinite
    /// objective (or accuracy) — typically the residue of a diverged
    /// distillation loss. Selection refuses to rank non-finite values;
    /// there is nothing meaningful to pick.
    NoFiniteCandidate {
        /// Size of the rejected pool.
        total: usize,
    },
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::NoFiniteCandidate { total } => write!(
                f,
                "all {total} candidates have non-finite objectives; selection is meaningless"
            ),
        }
    }
}

impl std::error::Error for SelectError {}

/// The finite sub-pool of `candidates`, or [`SelectError`] when a
/// non-empty pool contains no finite candidate at all. An empty pool
/// stays empty (the "nothing fits" outcome, not an error).
fn finite_pool(candidates: &[Candidate]) -> Result<Vec<&Candidate>, SelectError> {
    let finite: Vec<&Candidate> = candidates.iter().filter(|c| c.is_finite()).collect();
    if finite.is_empty() && !candidates.is_empty() {
        return Err(SelectError::NoFiniteCandidate {
            total: candidates.len(),
        });
    }
    Ok(finite)
}

/// ACME's selection rule (Algorithm 1, lines 14–18): truncate the
/// candidate space to models whose size respects `storage_limit` (the
/// paper redefines the worst point `θ̃⁻` at the bound and discards
/// everything above it *before* constructing the PFG), build the Pareto
/// Front Grid over the survivors, locate the highest-performing one, and
/// within its performance grid row pick the candidate minimizing the
/// Euclidean grid distance to the ideal point (Eq. 13).
///
/// Candidates with non-finite objectives are filtered before the
/// truncation — a diverged distillation loss used to panic the
/// comparator here.
///
/// Returns `Ok(None)` when no (finite) candidate fits the storage limit.
///
/// # Errors
///
/// Returns [`SelectError::NoFiniteCandidate`] when the pool is non-empty
/// but every candidate carries a NaN or infinite objective.
pub fn select_constrained<'a>(
    candidates: &'a [Candidate],
    spec: &GridSpec,
    storage_limit: f64,
) -> Result<Option<&'a Candidate>, SelectError> {
    finite_pool(candidates)?;
    let feas_idx: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].is_finite() && candidates[i].size() < storage_limit)
        .collect();
    let truncated: Vec<Candidate> = feas_idx.iter().map(|&i| candidates[i].clone()).collect();
    let front = pareto_front_grid(&truncated, spec);
    let feasible: Vec<&'a Candidate> = front.iter().map(|&i| &candidates[feas_idx[i]]).collect();
    // Every survivor is finite, so total_cmp agrees with the numeric
    // order while staying panic-free by construction.
    let Some(best_perf) = feasible.iter().min_by(|a, b| a.loss().total_cmp(&b.loss())) else {
        return Ok(None);
    };
    let best_row = spec.coords(&best_perf.objectives)[0];
    let ideal = spec.ideal_coords();
    Ok(feasible
        .iter()
        .filter(|c| spec.coords(&c.objectives)[0] == best_row)
        .min_by(|a, b| {
            let da = GridSpec::grid_distance(&spec.coords(&a.objectives), &ideal);
            let db = GridSpec::grid_distance(&spec.coords(&b.objectives), &ideal);
            da.total_cmp(&db)
        })
        .copied())
}

/// The model-matching strategies compared in Fig. 9 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchingMethod {
    /// ACME's truncated-PFG selection (Eq. 13).
    ParetoPfg,
    /// Deploy the most accurate model that fits (Howard et al.).
    GreedyAccuracy,
    /// Deploy the largest model that fits (Gordon et al.).
    GreedySize,
    /// Deploy a uniformly random feasible model.
    Random,
}

impl MatchingMethod {
    /// All methods in the paper's presentation order.
    pub fn all() -> [MatchingMethod; 4] {
        [
            MatchingMethod::ParetoPfg,
            MatchingMethod::GreedyAccuracy,
            MatchingMethod::GreedySize,
            MatchingMethod::Random,
        ]
    }
}

impl std::fmt::Display for MatchingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MatchingMethod::ParetoPfg => "ACME-PFG",
            MatchingMethod::GreedyAccuracy => "Greedy-Accuracy",
            MatchingMethod::GreedySize => "Greedy-Size",
            MatchingMethod::Random => "Random",
        };
        f.write_str(s)
    }
}

/// Result of one matching run, with the selection latency measured.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    /// The chosen candidate, if any fit the constraint.
    pub candidate: Option<Candidate>,
    /// Wall-clock seconds spent selecting (the Fig. 9 latency metric),
    /// plus a simulated evaluation cost per candidate the method had to
    /// evaluate at selection time: greedy methods pay one per feasible
    /// candidate; PFG and Random pay none (the front is prebuilt).
    pub selection_seconds: f64,
}

/// Per-candidate evaluation cost in seconds charged to methods that must
/// measure accuracy at selection time; mirrors the paper's observation
/// that greedy selection pays per-device evaluation latency.
const EVAL_COST_SECONDS: f64 = 2e-4;

/// Runs one matching method over the candidate pool for a device with the
/// given storage limit. `spec` must be prebuilt (that cost is amortized
/// over all devices of a cluster, as in Algorithm 1). Non-finite
/// candidates are filtered out for every method, exactly as in
/// [`select_constrained`].
///
/// # Errors
///
/// Returns [`SelectError::NoFiniteCandidate`] when the pool is non-empty
/// but every candidate carries a NaN or infinite objective.
pub fn select_with(
    method: MatchingMethod,
    candidates: &[Candidate],
    spec: &GridSpec,
    storage_limit: f64,
    rng: &mut SmallRng64,
) -> Result<MatchOutcome, SelectError> {
    let start = Instant::now();
    let feasible: Vec<&Candidate> = finite_pool(candidates)?
        .into_iter()
        .filter(|c| c.size() < storage_limit)
        .collect();
    let (candidate, evaluations) = match method {
        MatchingMethod::ParetoPfg => (select_constrained(candidates, spec, storage_limit)?, 0),
        MatchingMethod::GreedyAccuracy => {
            // Must evaluate every feasible candidate's accuracy.
            let best = feasible
                .iter()
                .max_by(|a, b| a.accuracy.total_cmp(&b.accuracy))
                .copied();
            (best, feasible.len())
        }
        MatchingMethod::GreedySize => {
            // Must measure every feasible candidate's size on device.
            let best = feasible
                .iter()
                .max_by(|a, b| a.size().total_cmp(&b.size()))
                .copied();
            (best, feasible.len())
        }
        MatchingMethod::Random => {
            if feasible.is_empty() {
                (None, 0)
            } else {
                (Some(feasible[rng.usize_in(0..feasible.len())]), 0)
            }
        }
    };
    let selection_seconds = start.elapsed().as_secs_f64() + evaluations as f64 * EVAL_COST_SECONDS;
    Ok(MatchOutcome {
        candidate: candidate.cloned(),
        selection_seconds,
    })
}

/// The efficiency metrics of Fig. 9: accuracy per unit energy, accuracy
/// per unit size, and the additive trade-off score
/// `L + E + ζ` over *normalized* objectives (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyMetrics {
    /// Accuracy / energy.
    pub energy_efficiency: f64,
    /// Accuracy / size.
    pub size_efficiency: f64,
    /// Normalized `L + E + ζ` (lower is better). The additive form of the
    /// paper's trade-off definition; note it rewards corner solutions
    /// (a tiny model zeroes two terms), so read it together with
    /// [`EfficiencyMetrics::ideal_distance`].
    pub tradeoff_score: f64,
    /// Euclidean distance to the population's ideal point in min-max
    /// normalized objective space (lower = better balanced) — the
    /// quantity ACME's Eq. (13) selection minimizes at grid resolution.
    pub ideal_distance: f64,
}

impl EfficiencyMetrics {
    /// Computes the metrics for `chosen`, normalizing each objective by
    /// the population's worst value so the three terms are commensurate
    /// (the paper cites the adaptive-weighted-sum convention).
    ///
    /// # Panics
    ///
    /// Panics on an empty population.
    pub fn for_candidate(chosen: &Candidate, population: &[Candidate]) -> EfficiencyMetrics {
        assert!(!population.is_empty(), "metrics need a population");
        let worst = crate::candidate::worst_point(population);
        let ideal = crate::candidate::ideal_point(population);
        let norm = |v: f64, w: f64| if w > 0.0 { v / w } else { v };
        let unit = |v: f64, l: usize| {
            let span = worst[l] - ideal[l];
            if span > 0.0 {
                (v - ideal[l]) / span
            } else {
                0.0
            }
        };
        let d = (0..crate::candidate::NUM_OBJECTIVES)
            .map(|l| {
                let u = unit(chosen.objectives[l], l);
                u * u
            })
            .sum::<f64>()
            .sqrt();
        EfficiencyMetrics {
            energy_efficiency: chosen.accuracy / chosen.energy().max(1e-12),
            size_efficiency: chosen.accuracy / chosen.size().max(1e-12),
            tradeoff_score: norm(chosen.loss(), worst[0])
                + norm(chosen.energy(), worst[1])
                + norm(chosen.size(), worst[2]),
            ideal_distance: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    fn pool() -> Vec<Candidate> {
        vec![
            Candidate::new(1.0, 12, [0.40, 9.0, 9.0]).with_accuracy(0.80),
            Candidate::new(0.75, 9, [0.55, 6.0, 6.0]).with_accuracy(0.74),
            Candidate::new(0.5, 6, [0.90, 3.0, 3.0]).with_accuracy(0.60),
            Candidate::new(0.25, 3, [1.40, 1.2, 1.2]).with_accuracy(0.40),
        ]
    }

    #[test]
    fn constrained_selection_respects_storage() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let c = select_constrained(&cs, &spec, 7.0).unwrap().unwrap();
        assert!(c.size() < 7.0);
        // Best feasible performance row: the 0.55-loss candidate.
        assert_eq!(c.loss(), 0.55);
        assert!(select_constrained(&cs, &spec, 0.5).unwrap().is_none());
    }

    #[test]
    fn unconstrained_selection_prefers_best_loss_row() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let c = select_constrained(&cs, &spec, f64::INFINITY)
            .unwrap()
            .unwrap();
        assert_eq!(c.loss(), 0.40);
    }

    #[test]
    fn greedy_accuracy_picks_most_accurate_feasible() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let mut rng = SmallRng64::new(0);
        let out = select_with(MatchingMethod::GreedyAccuracy, &cs, &spec, 7.0, &mut rng).unwrap();
        assert_eq!(out.candidate.unwrap().accuracy, 0.74);
        assert!(out.selection_seconds >= 3.0 * EVAL_COST_SECONDS);
    }

    #[test]
    fn greedy_size_picks_largest_feasible() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let mut rng = SmallRng64::new(0);
        let out = select_with(MatchingMethod::GreedySize, &cs, &spec, 7.0, &mut rng).unwrap();
        assert_eq!(out.candidate.unwrap().size(), 6.0);
    }

    #[test]
    fn random_is_feasible_and_cheap() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let mut rng = SmallRng64::new(7);
        for _ in 0..10 {
            let out = select_with(MatchingMethod::Random, &cs, &spec, 7.0, &mut rng).unwrap();
            assert!(out.candidate.unwrap().size() < 7.0);
        }
    }

    #[test]
    fn pfg_selection_is_faster_than_greedy() {
        let cs: Vec<Candidate> = (0..200)
            .map(|i| {
                let w = 0.1 + 0.9 * (i as f64 / 199.0);
                Candidate::new(w, 12, [1.0 / w, 10.0 * w, 10.0 * w]).with_accuracy(w)
            })
            .collect();
        let spec = GridSpec::from_candidates(&cs, 0.2).unwrap();
        let mut rng = SmallRng64::new(0);
        let pfg = select_with(MatchingMethod::ParetoPfg, &cs, &spec, 9.0, &mut rng).unwrap();
        let greedy =
            select_with(MatchingMethod::GreedyAccuracy, &cs, &spec, 9.0, &mut rng).unwrap();
        assert!(pfg.selection_seconds < greedy.selection_seconds);
    }

    #[test]
    fn no_feasible_candidate_yields_none_for_all_methods() {
        let cs = pool();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let mut rng = SmallRng64::new(0);
        for m in MatchingMethod::all() {
            let out = select_with(m, &cs, &spec, 0.1, &mut rng).unwrap();
            assert!(out.candidate.is_none(), "method {m}");
        }
    }

    #[test]
    fn nan_candidates_are_filtered_not_compared() {
        // Regression: a diverged distillation loss used to panic the
        // `partial_cmp().expect("finite loss")` comparators in here.
        let mut cs = pool();
        cs.push(Candidate::new(0.6, 6, [f64::NAN, 2.0, 2.0]).with_accuracy(0.99));
        cs.push(Candidate::new(0.6, 7, [0.2, f64::INFINITY, 2.0]).with_accuracy(0.99));
        cs.push(Candidate::new(0.6, 8, [0.2, 2.0, 2.0]).with_accuracy(f64::NAN));
        let spec = GridSpec::from_candidates(&pool(), 0.1).unwrap();
        let c = select_constrained(&cs, &spec, 7.0).unwrap().unwrap();
        assert!(c.is_finite());
        assert_eq!(c.loss(), 0.55, "NaN candidates must not win selection");
        let mut rng = SmallRng64::new(0);
        for m in MatchingMethod::all() {
            let out = select_with(m, &cs, &spec, 7.0, &mut rng).unwrap();
            let chosen = out.candidate.expect("finite feasible candidates exist");
            assert!(
                chosen.is_finite(),
                "method {m} picked a non-finite candidate"
            );
        }
    }

    #[test]
    fn all_nan_pool_is_a_typed_error_and_empty_pool_is_none() {
        let cs = vec![
            Candidate::new(1.0, 12, [f64::NAN, 9.0, 9.0]),
            Candidate::new(0.5, 6, [0.9, f64::NAN, 3.0]),
        ];
        let spec = GridSpec::from_candidates(&pool(), 0.1).unwrap();
        assert_eq!(
            select_constrained(&cs, &spec, 7.0),
            Err(SelectError::NoFiniteCandidate { total: 2 })
        );
        let mut rng = SmallRng64::new(0);
        let err =
            select_with(MatchingMethod::GreedyAccuracy, &cs, &spec, 7.0, &mut rng).unwrap_err();
        assert!(err.to_string().contains("non-finite"));
        // An empty pool is still the ordinary "nothing fits" outcome,
        // not an error.
        assert!(select_constrained(&[], &spec, 7.0).unwrap().is_none());
    }

    #[test]
    fn efficiency_metrics_make_sense() {
        let cs = pool();
        let m = EfficiencyMetrics::for_candidate(&cs[1], &cs);
        assert!((m.energy_efficiency - 0.74 / 6.0).abs() < 1e-12);
        assert!((m.size_efficiency - 0.74 / 6.0).abs() < 1e-12);
        assert!(m.tradeoff_score > 0.0 && m.tradeoff_score < 3.0);
        // The balanced pick should have a lower (better) trade-off score
        // than the biggest model.
        let big = EfficiencyMetrics::for_candidate(&cs[0], &cs);
        assert!(m.tradeoff_score < big.tradeoff_score);
    }

    #[test]
    fn method_display_names() {
        assert_eq!(MatchingMethod::ParetoPfg.to_string(), "ACME-PFG");
        assert_eq!(MatchingMethod::all().len(), 4);
    }
}
