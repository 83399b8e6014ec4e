//! Distribution summaries consumed by the similarity machinery in
//! `acme-agg` (Eqs. 19–20 of the paper).

use crate::dataset::Dataset;

/// Normalized label histogram of a dataset over its full class space.
///
/// Returns a uniform distribution for an empty dataset so downstream
/// divergence computations stay well-defined.
pub fn label_distribution(ds: &Dataset) -> Vec<f64> {
    let k = ds.num_classes().max(1);
    if ds.is_empty() {
        return vec![1.0 / k as f64; k];
    }
    let mut counts = vec![0.0f64; k];
    for &l in ds.labels() {
        counts[l] += 1.0;
    }
    let n = ds.len() as f64;
    counts.iter_mut().for_each(|c| *c /= n);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticSpec};
    use acme_tensor::SmallRng64;

    #[test]
    fn label_distribution_sums_to_one() {
        let ds = generate(&SyntheticSpec::tiny(), &mut SmallRng64::new(0)).unwrap();
        let p = label_distribution(&ds);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Balanced dataset -> uniform.
        assert!(p.iter().all(|&x| (x - 0.25).abs() < 1e-9));
    }

    #[test]
    fn empty_dataset_gives_uniform() {
        let ds = generate(&SyntheticSpec::tiny(), &mut SmallRng64::new(0)).unwrap();
        let empty = ds.subset(&[]);
        let p = label_distribution(&empty);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
