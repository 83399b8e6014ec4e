//! Device partitioning: IID or Dirichlet skew at the paper's C1/C2/C3
//! confusion levels (Fig. 11).

use acme_tensor::SmallRng64;

use crate::dataset::Dataset;
use crate::error::DataError;

/// Data-heterogeneity level from Fig. 11 of the paper: IID plus three
/// increasingly confused non-IID distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfusionLevel {
    /// Uniform random split.
    Iid,
    /// Mild label skew.
    C1,
    /// Moderate label skew.
    C2,
    /// Severe label skew.
    C3,
}

impl ConfusionLevel {
    /// Dirichlet concentration realizing this level (smaller = more
    /// skewed).
    fn dirichlet_alpha(self) -> f64 {
        match self {
            ConfusionLevel::Iid => 1000.0,
            ConfusionLevel::C1 => 1.0,
            ConfusionLevel::C2 => 0.4,
            ConfusionLevel::C3 => 0.1,
        }
    }

    /// All levels in increasing confusion order.
    pub fn all() -> [ConfusionLevel; 4] {
        [
            ConfusionLevel::Iid,
            ConfusionLevel::C1,
            ConfusionLevel::C2,
            ConfusionLevel::C3,
        ]
    }
}

impl std::fmt::Display for ConfusionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConfusionLevel::Iid => "IID",
            ConfusionLevel::C1 => "C1",
            ConfusionLevel::C2 => "C2",
            ConfusionLevel::C3 => "C3",
        };
        f.write_str(s)
    }
}

/// Splits uniformly at random into `n_parts` near-equal shards.
///
/// # Errors
///
/// Returns [`DataError::ZeroParts`] when `n_parts` is zero.
fn partition_iid(
    ds: &Dataset,
    n_parts: usize,
    rng: &mut SmallRng64,
) -> Result<Vec<Dataset>, DataError> {
    if n_parts == 0 {
        return Err(DataError::ZeroParts);
    }
    let mut idx: Vec<usize> = (0..ds.len()).collect();
    rng.shuffle(&mut idx);
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_parts];
    for (i, &e) in idx.iter().enumerate() {
        parts[i % n_parts].push(e);
    }
    Ok(parts.iter().map(|p| ds.subset(p)).collect())
}

/// Samples a Dirichlet(α,…,α) vector of length `k` by normalizing Gamma
/// draws (Marsaglia–Tsang for α ≥ 1, boosted for α < 1).
fn dirichlet(alpha: f64, k: usize, rng: &mut SmallRng64) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / k as f64; k];
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

fn gamma_sample(alpha: f64, rng: &mut SmallRng64) -> f64 {
    if alpha < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
        let u = rng.f64_in(f64::EPSILON..1.0);
        return gamma_sample(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    // Marsaglia–Tsang squeeze method.
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x: f64 = {
            // Standard normal via Box–Muller.
            let u1 = rng.f64_in(f64::EPSILON..1.0);
            let u2 = rng.f64_in(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.f64_in(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Dirichlet label-skew split: for each class, proportions over parts are
/// drawn from `Dirichlet(alpha)`; smaller `alpha` concentrates each class
/// on fewer devices.
///
/// # Errors
///
/// Returns [`DataError::ZeroParts`] when `n_parts` is zero and
/// [`DataError::BadAlpha`] when `alpha` is not positive and finite.
fn partition_dirichlet(
    ds: &Dataset,
    n_parts: usize,
    alpha: f64,
    rng: &mut SmallRng64,
) -> Result<Vec<Dataset>, DataError> {
    if n_parts == 0 {
        return Err(DataError::ZeroParts);
    }
    if !(alpha > 0.0 && alpha.is_finite()) {
        return Err(DataError::BadAlpha(alpha));
    }
    let classes = ds.num_classes();
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
    for i in 0..ds.len() {
        by_class[ds.get(i).1].push(i);
    }
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_parts];
    for mut idxs in by_class {
        rng.shuffle(&mut idxs);
        let props = dirichlet(alpha, n_parts, rng);
        // Cumulative allocation keeps counts exact.
        let n = idxs.len();
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for (p, &w) in props.iter().enumerate() {
            acc += w;
            let end = if p + 1 == n_parts {
                n
            } else {
                ((n as f64) * acc).round() as usize
            };
            let end = end.clamp(start, n);
            parts[p].extend_from_slice(&idxs[start..end]);
            start = end;
        }
    }
    Ok(parts.iter().map(|p| ds.subset(p)).collect())
}

/// Splits according to a [`ConfusionLevel`] (IID or Dirichlet at the
/// level's α).
///
/// # Errors
///
/// Returns [`DataError::ZeroParts`] when `n_parts` is zero.
pub fn partition_confusion(
    ds: &Dataset,
    n_parts: usize,
    level: ConfusionLevel,
    rng: &mut SmallRng64,
) -> Result<Vec<Dataset>, DataError> {
    match level {
        ConfusionLevel::Iid => partition_iid(ds, n_parts, rng),
        other => partition_dirichlet(ds, n_parts, other.dirichlet_alpha(), rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticSpec};
    use acme_tensor::SmallRng64;

    fn toy() -> Dataset {
        generate(
            &SyntheticSpec::tiny().with_per_class(20),
            &mut SmallRng64::new(0),
        )
        .unwrap()
    }

    fn label_entropy(ds: &Dataset) -> f64 {
        let mut counts = vec![0usize; ds.num_classes()];
        for &l in ds.labels() {
            counts[l] += 1;
        }
        let n = ds.len() as f64;
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    }

    #[test]
    fn iid_split_is_near_equal_and_complete() {
        let ds = toy();
        let parts = partition_iid(&ds, 5, &mut SmallRng64::new(1)).unwrap();
        assert_eq!(parts.len(), 5);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, ds.len());
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn dirichlet_preserves_all_examples() {
        let ds = toy();
        let parts = partition_dirichlet(&ds, 5, 0.5, &mut SmallRng64::new(3)).unwrap();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn smaller_alpha_is_more_skewed() {
        let ds = generate(
            &SyntheticSpec {
                classes: 8,
                ..SyntheticSpec::tiny()
            }
            .with_per_class(30),
            &mut SmallRng64::new(7),
        )
        .unwrap();
        let avg_entropy = |alpha: f64, seed: u64| {
            let parts = partition_dirichlet(&ds, 4, alpha, &mut SmallRng64::new(seed)).unwrap();
            parts
                .iter()
                .filter(|p| !p.is_empty())
                .map(label_entropy)
                .sum::<f64>()
                / parts.len() as f64
        };
        // Average over several seeds for stability.
        let skewed: f64 = (0..5).map(|s| avg_entropy(0.1, s)).sum::<f64>() / 5.0;
        let uniform: f64 = (0..5).map(|s| avg_entropy(100.0, s)).sum::<f64>() / 5.0;
        assert!(skewed < uniform, "skewed {skewed} vs uniform {uniform}");
    }

    #[test]
    fn confusion_levels_are_ordered() {
        assert!(ConfusionLevel::C1.dirichlet_alpha() > ConfusionLevel::C2.dirichlet_alpha());
        assert!(ConfusionLevel::C2.dirichlet_alpha() > ConfusionLevel::C3.dirichlet_alpha());
        assert_eq!(ConfusionLevel::all().len(), 4);
        assert_eq!(ConfusionLevel::C2.to_string(), "C2");
    }

    #[test]
    fn partition_confusion_dispatches() {
        let ds = toy();
        for level in ConfusionLevel::all() {
            let parts = partition_confusion(&ds, 3, level, &mut SmallRng64::new(5)).unwrap();
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), ds.len());
        }
    }

    #[test]
    fn degenerate_partitions_are_typed_errors() {
        let ds = toy();
        let mut rng = SmallRng64::new(0);
        assert_eq!(
            partition_iid(&ds, 0, &mut rng).err(),
            Some(DataError::ZeroParts)
        );
        assert_eq!(
            partition_dirichlet(&ds, 3, 0.0, &mut rng).err(),
            Some(DataError::BadAlpha(0.0))
        );
        assert_eq!(
            partition_dirichlet(&ds, 3, f64::NAN, &mut rng)
                .err()
                .map(|e| matches!(e, DataError::BadAlpha(_))),
            Some(true)
        );
        assert_eq!(
            partition_confusion(&ds, 0, ConfusionLevel::C2, &mut rng).err(),
            Some(DataError::ZeroParts)
        );
    }

    #[test]
    fn gamma_sampler_has_right_mean() {
        let mut rng = SmallRng64::new(11);
        for &alpha in &[0.5f64, 1.0, 3.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| gamma_sample(alpha, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < 0.15 * alpha.max(1.0),
                "alpha {alpha} mean {mean}"
            );
        }
    }
}
