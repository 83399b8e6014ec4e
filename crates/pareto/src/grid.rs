//! Objective-space discretization (Eq. 11) and the Pareto Front Grid.

use crate::candidate::{ideal_point, worst_point, Candidate, NUM_OBJECTIVES};

/// Discretization of the objective space into `K` intervals per
/// objective, anchored at the ideal point `θ̃*` and the worst point
/// `θ̃⁻` with the performance window `γ_p` (Eq. 11):
///
/// ```text
/// K   = |f¹(θ̃*) − f¹(θ̃⁻)| / γ_p
/// r^l = (f^l(θ̃⁻) − f^l(θ̃*) + 2σ) / K
/// Ψ^l(θ̃) = ⌈(f^l(θ̃) − f^l(θ̃*) + σ) / r^l⌉
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    ideal: [f64; NUM_OBJECTIVES],
    widths: [f64; NUM_OBJECTIVES],
    k: usize,
    sigma: f64,
}

impl GridSpec {
    /// Small constant σ preventing division by zero (Eq. 11).
    const DEFAULT_SIGMA: f64 = 1e-6;

    /// Builds the grid from a candidate population and the performance
    /// window `γ_p` (same scale as the loss objective).
    ///
    /// # Errors
    ///
    /// Returns a message for an empty population or a non-positive
    /// window.
    pub fn from_candidates(candidates: &[Candidate], gamma_p: f64) -> Result<GridSpec, String> {
        if candidates.is_empty() {
            return Err("grid requires at least one candidate".to_string());
        }
        if gamma_p <= 0.0 {
            return Err("performance window must be positive".to_string());
        }
        let ideal = ideal_point(candidates);
        let worst = worst_point(candidates);
        let sigma = Self::DEFAULT_SIGMA;
        let span = (worst[0] - ideal[0]).abs();
        let k = ((span / gamma_p).ceil() as usize).max(1);
        let mut widths = [0.0; NUM_OBJECTIVES];
        for l in 0..NUM_OBJECTIVES {
            widths[l] = (worst[l] - ideal[l] + 2.0 * sigma) / k as f64;
        }
        Ok(GridSpec {
            ideal,
            widths,
            k,
            sigma,
        })
    }

    /// Grid coordinates `Ψ(θ̃)` of an objective vector (Eq. 11); each
    /// coordinate lies in `1..=K` for vectors inside the population's
    /// bounding box.
    pub fn coords(&self, objectives: &[f64; NUM_OBJECTIVES]) -> [usize; NUM_OBJECTIVES] {
        let mut out = [0usize; NUM_OBJECTIVES];
        for l in 0..NUM_OBJECTIVES {
            let raw = ((objectives[l] - self.ideal[l] + self.sigma) / self.widths[l]).ceil();
            out[l] = (raw.max(1.0) as usize).min(self.k);
        }
        out
    }

    /// Grid coordinates of the ideal point itself (the selection target
    /// of Eq. 13).
    pub fn ideal_coords(&self) -> [usize; NUM_OBJECTIVES] {
        self.coords(&self.ideal)
    }

    /// Euclidean distance between two coordinate vectors (Eq. 13).
    pub fn grid_distance(a: &[usize; NUM_OBJECTIVES], b: &[usize; NUM_OBJECTIVES]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Whether grid coordinates `a` dominate `b` (no coordinate larger, one
/// strictly smaller).
fn grid_dominates(a: &[usize; NUM_OBJECTIVES], b: &[usize; NUM_OBJECTIVES]) -> bool {
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Constructs the Pareto Front Grid: the indices of candidates whose grid
/// coordinates are not grid-dominated by any other candidate. Candidates
/// sharing a grid cell are all kept (they are indistinguishable at the
/// `γ_p` resolution).
pub fn pareto_front_grid(candidates: &[Candidate], spec: &GridSpec) -> Vec<usize> {
    let coords: Vec<[usize; NUM_OBJECTIVES]> = candidates
        .iter()
        .map(|c| spec.coords(&c.objectives))
        .collect();
    (0..candidates.len())
        .filter(|&i| {
            !coords
                .iter()
                .enumerate()
                .any(|(j, cj)| j != i && grid_dominates(cj, &coords[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands() -> Vec<Candidate> {
        vec![
            Candidate::new(1.0, 12, [0.5, 9.0, 9.0]),
            Candidate::new(0.5, 6, [0.9, 3.0, 3.0]),
            Candidate::new(0.5, 12, [0.8, 5.0, 6.0]),
            Candidate::new(1.0, 6, [1.5, 9.5, 9.5]), // dominated by #0
        ]
    }

    #[test]
    fn k_scales_inversely_with_window() {
        let cs = cands();
        let fine = GridSpec::from_candidates(&cs, 0.05).unwrap();
        let coarse = GridSpec::from_candidates(&cs, 0.5).unwrap();
        assert!(fine.k > coarse.k);
    }

    #[test]
    fn coords_are_within_bounds_and_monotone() {
        let cs = cands();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        for c in &cs {
            let psi = spec.coords(&c.objectives);
            assert!(psi.iter().all(|&p| p >= 1 && p <= spec.k));
        }
        // Worse loss -> larger first coordinate.
        let lo = spec.coords(&[0.5, 5.0, 5.0]);
        let hi = spec.coords(&[1.5, 5.0, 5.0]);
        assert!(hi[0] > lo[0]);
    }

    #[test]
    fn ideal_maps_to_smallest_cell() {
        // Every axis has a nonzero span, so the ideal point lands in
        // cell 1 everywhere.
        let cs = vec![
            Candidate::new(1.0, 12, [0.5, 9.0, 9.0]),
            Candidate::new(0.5, 6, [0.9, 3.0, 3.0]),
        ];
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        assert_eq!(spec.ideal_coords(), [1, 1, 1]);
    }

    #[test]
    fn pfg_drops_dominated_candidate() {
        let cs = cands();
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let front = pareto_front_grid(&cs, &spec);
        assert!(front.contains(&0));
        assert!(front.contains(&1));
        assert!(front.contains(&2));
        assert!(!front.contains(&3), "front {front:?}");
    }

    #[test]
    fn pfg_of_single_candidate_is_itself() {
        let cs = vec![Candidate::new(1.0, 1, [1.0, 1.0, 1.0])];
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        assert_eq!(pareto_front_grid(&cs, &spec), vec![0]);
    }

    #[test]
    fn identical_candidates_all_survive() {
        let cs = vec![
            Candidate::new(1.0, 1, [1.0, 1.0, 1.0]),
            Candidate::new(0.9, 1, [1.0, 1.0, 1.0]),
        ];
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        assert_eq!(pareto_front_grid(&cs, &spec).len(), 2);
    }

    #[test]
    fn degenerate_equal_objectives_do_not_divide_by_zero() {
        // All candidates identical: spans are zero; σ keeps widths finite.
        let cs = vec![
            Candidate::new(1.0, 1, [2.0, 2.0, 2.0]),
            Candidate::new(0.5, 1, [2.0, 2.0, 2.0]),
        ];
        let spec = GridSpec::from_candidates(&cs, 0.1).unwrap();
        let psi = spec.coords(&[2.0, 2.0, 2.0]);
        assert!(psi.iter().all(|&p| p >= 1));
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(GridSpec::from_candidates(&[], 0.1).is_err());
        assert!(GridSpec::from_candidates(&cands(), 0.0).is_err());
    }

    #[test]
    fn grid_distance_is_euclidean() {
        assert_eq!(GridSpec::grid_distance(&[1, 1, 1], &[1, 1, 1]), 0.0);
        assert!((GridSpec::grid_distance(&[1, 2, 3], &[2, 3, 4]) - 3f64.sqrt()).abs() < 1e-12);
    }
}
