//! Typed errors of the aggregation metrics.
//!
//! Every input-validation failure the metric functions used to `assert!`
//! on (and the silent empty-window zero of `wasserstein_1d_samples`) is
//! a [`MetricError`] now, matching the NaN-safety discipline of the
//! Pareto selection layer: a degenerate input surfaces as a value the
//! caller must handle, never as a panic deep inside a worker thread —
//! and never as a plausible-looking `0.0`.

/// Everything that can go wrong validating inputs to the distance and
/// similarity functions of this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricError {
    /// Exactly one of the two sample sets is empty. The quantile
    /// coupling is undefined against an empty distribution; returning
    /// `0.0` here (the pre-fix behavior) reads as "no drift" to a
    /// sliding-window detector whose buffer has not filled yet.
    EmptyWindow {
        /// Sample count of the left set.
        left: usize,
        /// Sample count of the right set.
        right: usize,
    },
    /// A sample — or a feature row projected onto a direction — is NaN
    /// or infinite. The quantile coupling sorts its samples, and one
    /// value without an order has no quantile.
    NonFinite,
    /// Histogram supports have different lengths.
    LengthMismatch {
        /// Bin count of the left histogram.
        left: usize,
        /// Bin count of the right histogram.
        right: usize,
    },
    /// A feature cloud is not a rank-2 `[n, d]` matrix.
    BadRank {
        /// Which argument (`"x"` or `"y"`).
        arg: &'static str,
        /// The offending rank.
        rank: usize,
    },
    /// The feature widths of the two clouds differ.
    WidthMismatch {
        /// Feature width of `x`.
        left: usize,
        /// Feature width of `y`.
        right: usize,
    },
    /// The sliced distance was asked for zero random projections.
    ZeroProjections,
    /// A similarity matrix was requested over zero devices.
    NoDevices,
    /// A similarity matrix to normalize is not square.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Length of the first offending row.
        row_len: usize,
    },
    /// The softmax temperature is not a positive finite number.
    BadTemperature(f64),
    /// A drift-detector configuration failed validation (window below
    /// two samples, zero warmup windows, or a non-finite threshold
    /// knob).
    BadDetectorConfig {
        /// Which field failed.
        field: &'static str,
    },
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::EmptyWindow { left, right } => write!(
                f,
                "1-Wasserstein of an empty window against {} samples is undefined \
                 (left {left}, right {right})",
                left.max(right)
            ),
            MetricError::NonFinite => {
                write!(f, "1-Wasserstein of a NaN or infinite sample is undefined")
            }
            MetricError::LengthMismatch { left, right } => {
                write!(f, "histogram length mismatch: {left} vs {right} bins")
            }
            MetricError::BadRank { arg, rank } => {
                write!(f, "feature cloud {arg} must be rank 2, got rank {rank}")
            }
            MetricError::WidthMismatch { left, right } => {
                write!(f, "feature width mismatch: {left} vs {right}")
            }
            MetricError::ZeroProjections => {
                write!(f, "sliced Wasserstein needs at least one projection")
            }
            MetricError::NoDevices => write!(f, "similarity matrix of zero devices"),
            MetricError::NotSquare { rows, row_len } => write!(
                f,
                "similarity matrix must be square: {rows} rows but a row of length {row_len}"
            ),
            MetricError::BadTemperature(t) => {
                write!(
                    f,
                    "softmax temperature must be positive and finite, got {t}"
                )
            }
            MetricError::BadDetectorConfig { field } => {
                write!(f, "invalid drift-detector configuration: {field}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = MetricError::EmptyWindow { left: 0, right: 5 };
        assert!(e.to_string().contains("empty window"));
        assert!(MetricError::NonFinite.to_string().contains("NaN"));
        assert!(MetricError::LengthMismatch { left: 3, right: 4 }
            .to_string()
            .contains("3 vs 4"));
        assert!(MetricError::BadRank { arg: "x", rank: 3 }
            .to_string()
            .contains("rank 3"));
        assert!(MetricError::WidthMismatch { left: 4, right: 5 }
            .to_string()
            .contains("width"));
        assert!(MetricError::ZeroProjections
            .to_string()
            .contains("projection"));
        assert!(MetricError::NoDevices.to_string().contains("zero devices"));
        assert!(MetricError::NotSquare {
            rows: 2,
            row_len: 1
        }
        .to_string()
        .contains("square"));
        assert!(MetricError::BadTemperature(0.0).to_string().contains("0"));
        assert!(MetricError::BadDetectorConfig { field: "window" }
            .to_string()
            .contains("window"));
    }
}
