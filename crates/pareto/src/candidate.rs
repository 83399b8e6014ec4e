//! Candidate backbone architectures and plain Pareto dominance.

use acme_tensor::Precision;

/// Number of objectives: the paper's loss, energy, and size (Eq. 10)
/// plus the deployment-precision axis (quantization penalty).
pub const NUM_OBJECTIVES: usize = 4;

/// A candidate backbone `δ(θ₀, w, d)` with its measured objective vector
/// `f(θ̃) = [L(θ̃, D̃_c), E(θ̃), ζ(θ̃), q(θ̃)]` — the paper's three
/// minimized objectives (Eq. 10) extended with `q`, the quantization
/// penalty of the deployed precision (mean absolute weight quantization
/// error; exactly `0.0` for f32 deployments, so f32-only populations
/// reproduce the paper's three-objective geometry unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Width scaling factor `w^B ∈ (0, 1]`.
    pub w: f64,
    /// Transformer layer count `d^B`.
    pub d: usize,
    /// `[loss, energy, size, quantization]`, all to be minimized.
    pub objectives: [f64; NUM_OBJECTIVES],
    /// Accuracy on the shared dataset (not an objective; used by the
    /// efficiency metrics of Fig. 9).
    pub accuracy: f64,
    /// Precision the variant is deployed (and its energy/size measured)
    /// at.
    pub precision: Precision,
}

impl Candidate {
    /// Creates an f32 candidate from the paper's three-objective vector;
    /// the quantization axis starts at `0.0` (exact weights).
    pub fn new(w: f64, d: usize, objectives: [f64; 3]) -> Self {
        let [l, e, s] = objectives;
        Candidate {
            w,
            d,
            objectives: [l, e, s, 0.0],
            accuracy: 0.0,
            precision: Precision::F32,
        }
    }

    /// Attaches a measured accuracy.
    pub fn with_accuracy(mut self, accuracy: f64) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Marks the candidate as deployed at `precision` with the measured
    /// quantization penalty (mean absolute weight error; `0.0` at f32).
    /// Energy and size are *not* rescaled here — callers measure them at
    /// the deployed precision and pass the scaled values to
    /// [`Candidate::new`].
    pub fn with_precision(mut self, precision: Precision, quantization: f64) -> Self {
        self.precision = precision;
        self.objectives[3] = quantization;
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

    /// The quantization-penalty objective (`0.0` for f32 deployments).
    pub fn quantization(&self) -> f64 {
        self.objectives[3]
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
        assert!(dominates(&[1.0, 1.0, 1.0, 0.0], &[2.0, 2.0, 2.0, 0.0]));
        assert!(dominates(&[1.0, 2.0, 2.0, 0.0], &[2.0, 2.0, 2.0, 0.0]));
        assert!(!dominates(&[1.0, 3.0, 1.0, 0.0], &[2.0, 2.0, 2.0, 0.0]));
        // Equal vectors do not dominate.
        assert!(!dominates(&[1.0, 1.0, 1.0, 0.0], &[1.0, 1.0, 1.0, 0.0]));
    }

    #[test]
    fn ideal_and_worst() {
        let cs = vec![
            Candidate::new(1.0, 1, [1.0, 5.0, 3.0]),
            Candidate::new(0.5, 2, [2.0, 1.0, 4.0]),
        ];
        assert_eq!(ideal_point(&cs), [1.0, 1.0, 3.0, 0.0]);
        assert_eq!(worst_point(&cs), [2.0, 5.0, 4.0, 0.0]);
    }

    #[test]
    fn accessors() {
        let c = Candidate::new(0.75, 4, [0.1, 0.2, 0.3]).with_accuracy(0.9);
        assert_eq!(c.loss(), 0.1);
        assert_eq!(c.energy(), 0.2);
        assert_eq!(c.size(), 0.3);
        assert_eq!(c.quantization(), 0.0);
        assert_eq!(c.precision, Precision::F32);
        assert_eq!(c.accuracy, 0.9);
    }

    #[test]
    fn precision_axis_breaks_f32_ties() {
        // Same loss/energy/size: the int8 variant with a nonzero
        // quantization penalty is dominated by its exact f32 twin, and
        // a cheaper int8 deployment dominates an equal-error one.
        let f32_c = Candidate::new(1.0, 4, [1.0, 2.0, 3.0]);
        let i8_c = Candidate::new(1.0, 4, [1.0, 2.0, 3.0]).with_precision(Precision::Int8, 0.01);
        assert!(dominates(&f32_c.objectives, &i8_c.objectives));
        assert!(!dominates(&i8_c.objectives, &f32_c.objectives));
        // But once energy reflects the quantized kernels, neither
        // dominates: the classic accuracy/efficiency trade-off.
        let i8_cheap =
            Candidate::new(1.0, 4, [1.0, 0.5, 0.75]).with_precision(Precision::Int8, 0.01);
        assert!(!dominates(&f32_c.objectives, &i8_cheap.objectives));
        assert!(!dominates(&i8_cheap.objectives, &f32_c.objectives));
        assert_eq!(i8_cheap.precision, Precision::Int8);
        assert_eq!(i8_cheap.quantization(), 0.01);
    }
}
