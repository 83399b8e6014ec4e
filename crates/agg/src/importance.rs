//! Importance sets (Eqs. 16–18) and personalized aggregation (Eq. 21).

/// The importance set `Q_n` of a device's header: one nonnegative score
/// per header parameter (or per prunable unit), computed from the
/// first-order Taylor approximation `Q_{n,r} = (g_{n,r} · v_{n,r})²`
/// (Eq. 17).
pub type ImportanceSet = Vec<f64>;

/// How a device's importance set is refined with the cluster's knowledge
/// — the four methods compared in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationMethod {
    /// Local importance only, no collaboration.
    Alone,
    /// Uniform average over all devices of the cluster.
    Avg,
    /// Convex combination weighted by JS-divergence similarity.
    Js,
    /// ACME: convex combination weighted by Wasserstein similarity
    /// (Eq. 21).
    Wasserstein,
}

impl AggregationMethod {
    /// All methods in the paper's presentation order.
    pub fn all() -> [AggregationMethod; 4] {
        [
            AggregationMethod::Alone,
            AggregationMethod::Avg,
            AggregationMethod::Js,
            AggregationMethod::Wasserstein,
        ]
    }
}

impl std::fmt::Display for AggregationMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AggregationMethod::Alone => "Alone",
            AggregationMethod::Avg => "Avg",
            AggregationMethod::Js => "JS",
            AggregationMethod::Wasserstein => "ACME",
        };
        f.write_str(s)
    }
}

/// Eq. (21): the personalized importance set of device `n` is the convex
/// combination `Q'_n = Σ_i ŵ_{n,i} · Q_i`.
///
/// # Panics
///
/// Panics when sets have inconsistent lengths or `device` is out of
/// range.
pub fn aggregate_importance(
    sets: &[ImportanceSet],
    weights: &[Vec<f64>],
    device: usize,
) -> ImportanceSet {
    assert!(device < sets.len(), "device index out of range");
    assert_eq!(weights.len(), sets.len(), "weights/sets count mismatch");
    let len = sets[device].len();
    assert!(
        sets.iter().all(|s| s.len() == len),
        "importance sets must have equal length"
    );
    let row = &weights[device];
    assert_eq!(row.len(), sets.len(), "weight row length mismatch");
    let mut out = vec![0.0; len];
    for (w, set) in row.iter().zip(sets) {
        for (o, &q) in out.iter_mut().zip(set) {
            *o += w * q;
        }
    }
    out
}

/// Indices of the `drop` *least* important entries of a set — the neurons
/// Algorithm 2 discards. Ties break toward lower indices; the result is
/// ascending.
///
/// A NaN importance ranks above every number, `+∞` included: an entry
/// whose score a device could not compute is kept until every scored
/// entry has been dropped.
///
/// # Panics
///
/// Panics when `drop > set.len()`.
pub fn least_important(set: &ImportanceSet, drop: usize) -> Vec<usize> {
    assert!(drop <= set.len(), "cannot drop more than available");
    let mut idx: Vec<usize> = (0..set.len()).collect();
    idx.sort_by(|&a, &b| {
        set[a]
            .partial_cmp(&set[b])
            .unwrap_or_else(|| set[a].is_nan().cmp(&set[b].is_nan()))
            .then(a.cmp(&b))
    });
    let mut out = idx[..drop].to_vec();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_is_convex_combination() {
        let sets = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let weights = vec![vec![0.75, 0.25], vec![0.25, 0.75]];
        assert_eq!(aggregate_importance(&sets, &weights, 0), vec![0.75, 0.25]);
        assert_eq!(aggregate_importance(&sets, &weights, 1), vec![0.25, 0.75]);
    }

    #[test]
    fn alone_aggregation_returns_own_set() {
        let sets = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let w = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(aggregate_importance(&sets, &w, 1), sets[1]);
    }

    #[test]
    fn least_important_picks_smallest() {
        let set = vec![5.0, 1.0, 3.0, 0.5];
        assert_eq!(least_important(&set, 2), vec![1, 3]);
        assert_eq!(least_important(&set, 0), Vec::<usize>::new());
    }

    #[test]
    fn nan_importance_is_dropped_last() {
        // Regression: the sort's `expect("finite importance")` panicked.
        let set = vec![1.0, f64::NAN, 0.5];
        assert_eq!(least_important(&set, 1), vec![2]);
        assert_eq!(least_important(&set, 2), vec![0, 2]);
        assert_eq!(least_important(&set, 3), vec![0, 1, 2]);
        let set = vec![f64::NAN, f64::INFINITY, f64::NAN, f64::NEG_INFINITY];
        assert_eq!(least_important(&set, 2), vec![1, 3]);
        assert_eq!(least_important(&set, 3), vec![0, 1, 3]);
    }

    #[test]
    fn method_display() {
        assert_eq!(AggregationMethod::Wasserstein.to_string(), "ACME");
        assert_eq!(AggregationMethod::all().len(), 4);
    }
}
