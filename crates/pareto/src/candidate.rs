//! Candidate backbone architectures and plain Pareto dominance.

/// Number of objectives: the paper's loss, energy, and size (Eq. 10).
pub const NUM_OBJECTIVES: usize = 3;

/// A candidate backbone `δ(θ₀, w, d)` with its measured objective vector
/// `f(θ̃) = [L(θ̃, D̃_c), E(θ̃), ζ(θ̃)]` — the paper's three minimized
/// objectives (Eq. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Width scaling factor `w^B ∈ (0, 1]`.
    pub w: f64,
    /// Transformer layer count `d^B`.
    pub d: usize,
    /// `[loss, energy, size]`, all to be minimized.
    pub objectives: [f64; NUM_OBJECTIVES],
    /// Accuracy on the shared dataset (not an objective; used by the
    /// efficiency metrics of Fig. 9).
    pub accuracy: f64,
}

impl Candidate {
    /// Creates a candidate from its objective vector.
    pub fn new(w: f64, d: usize, objectives: [f64; NUM_OBJECTIVES]) -> Self {
        Candidate {
            w,
            d,
            objectives,
            accuracy: 0.0,
        }
    }

    /// Attaches a measured accuracy.
    pub fn with_accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// The loss objective.
    pub fn loss(&self) -> f64 {
        self.objectives[0]
    }

    /// The energy objective.
    pub fn energy(&self) -> f64 {
        self.objectives[1]
    }

    /// The size objective (parameter count).
    pub fn size(&self) -> f64 {
        self.objectives[2]
    }

    /// `true` iff every objective and the accuracy are finite. A
    /// diverged distillation run can hand selection a NaN loss;
    /// selection filters such candidates out instead of comparing them
    /// (see [`crate::SelectError`]).
    pub fn is_finite(&self) -> bool {
        self.objectives.iter().all(|v| v.is_finite()) && self.accuracy.is_finite()
    }
}

/// Whether `a` Pareto-dominates `b`: no objective worse, at least one
/// strictly better.
pub fn dominates(a: &[f64; NUM_OBJECTIVES], b: &[f64; NUM_OBJECTIVES]) -> bool {
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

/// Componentwise minimum of all objective vectors: the ideal point `θ̃*`.
///
/// # Panics
///
/// Panics on an empty candidate list.
pub(crate) fn ideal_point(candidates: &[Candidate]) -> [f64; NUM_OBJECTIVES] {
    assert!(!candidates.is_empty(), "ideal point of empty set");
    let mut out = candidates[0].objectives;
    for c in &candidates[1..] {
        for (o, &v) in out.iter_mut().zip(&c.objectives) {
            *o = o.min(v);
        }
    }
    out
}

/// Componentwise maximum of all objective vectors: the worst point `θ̃⁻`.
///
/// # Panics
///
/// Panics on an empty candidate list.
pub(crate) fn worst_point(candidates: &[Candidate]) -> [f64; NUM_OBJECTIVES] {
    assert!(!candidates.is_empty(), "worst point of empty set");
    let mut out = candidates[0].objectives;
    for c in &candidates[1..] {
        for (o, &v) in out.iter_mut().zip(&c.objectives) {
            *o = o.max(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basic() {
        assert!(dominates(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0, 2.0], &[2.0, 2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0, 1.0], &[2.0, 2.0, 2.0]));
        // Equal vectors do not dominate.
        assert!(!dominates(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]));
    }

    #[test]
    fn ideal_and_worst() {
        let cs = vec![
            Candidate::new(1.0, 1, [1.0, 5.0, 3.0]),
            Candidate::new(0.5, 2, [2.0, 1.0, 4.0]),
        ];
        assert_eq!(ideal_point(&cs), [1.0, 1.0, 3.0]);
        assert_eq!(worst_point(&cs), [2.0, 5.0, 4.0]);
    }

    #[test]
    fn accessors() {
        let c = Candidate::new(0.75, 4, [0.1, 0.2, 0.3]).with_accuracy(0.9);
        assert_eq!(c.loss(), 0.1);
        assert_eq!(c.energy(), 0.2);
        assert_eq!(c.size(), 0.3);
        assert_eq!(c.accuracy, 0.9);
    }
}
