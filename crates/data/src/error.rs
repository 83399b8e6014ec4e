//! Typed errors of the dataset generator and partitioners.
//!
//! These used to be `assert!`s inside `generate` and the `partition_*`
//! family — reachable from library callers (the `acme` pipeline calls
//! both), so a bad config panicked deep inside a worker instead of
//! surfacing as a value. Matches the metric-error discipline in
//! `acme-agg`.

/// Everything that can go wrong validating a dataset spec, a partition
/// request, or a drifting-stream spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataError {
    /// A [`SyntheticSpec`](crate::SyntheticSpec) field is degenerate
    /// (zero classes or examples per class).
    DegenerateSpec {
        /// Which field failed.
        field: &'static str,
    },
    /// The prototype grid does not divide the image size.
    GridMismatch {
        /// Coarse grid resolution.
        grid: usize,
        /// Image height/width.
        size: usize,
    },
    /// The confusion fraction is outside `[0, 1)`.
    BadConfusion(f32),
    /// A partition into zero parts was requested.
    ZeroParts,
    /// The Dirichlet concentration is not positive and finite.
    BadAlpha(f64),
    /// A [`DriftSpec`](crate::DriftSpec) field is degenerate (zero ramp
    /// windows, or a magnitude / mixture shift outside `[0, 1]`).
    BadDriftSpec {
        /// Which field failed.
        field: &'static str,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::DegenerateSpec { field } => {
                write!(f, "degenerate synthetic spec: {field} must be positive")
            }
            DataError::GridMismatch { grid, size } => {
                write!(f, "prototype grid {grid} must divide image size {size}")
            }
            DataError::BadConfusion(c) => {
                write!(f, "confusion must be in [0, 1), got {c}")
            }
            DataError::ZeroParts => write!(f, "cannot partition into zero parts"),
            DataError::BadAlpha(a) => {
                write!(f, "Dirichlet alpha must be positive and finite, got {a}")
            }
            DataError::BadDriftSpec { field } => {
                write!(f, "invalid drift spec: {field}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(DataError::DegenerateSpec { field: "classes" }
            .to_string()
            .contains("classes"));
        assert!(DataError::GridMismatch { grid: 3, size: 8 }
            .to_string()
            .contains("3"));
        assert!(DataError::BadConfusion(1.5).to_string().contains("1.5"));
        assert!(DataError::ZeroParts.to_string().contains("zero parts"));
        assert!(DataError::BadAlpha(-1.0).to_string().contains("-1"));
        assert!(DataError::BadDriftSpec { field: "magnitude" }
            .to_string()
            .contains("magnitude"));
    }
}
