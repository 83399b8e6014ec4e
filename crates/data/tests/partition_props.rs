//! Property-based tests of dataset partitioning: completeness,
//! disjointness, and skew ordering.

use acme_check::cases;
use acme_data::{
    generate, partition_confusion, partition_dirichlet, partition_iid, partition_shards,
    ConfusionLevel, SyntheticSpec,
};
use acme_tensor::SmallRng64;

fn dataset(seed: u64, classes: usize, per_class: usize) -> acme_data::Dataset {
    let spec = SyntheticSpec::tiny()
        .with_classes(classes)
        .with_per_class(per_class);
    generate(&spec, &mut SmallRng64::new(seed)).expect("valid spec")
}

#[test]
fn iid_partition_is_complete_and_balanced() {
    cases(16, |g| {
        let seed = g.u64(0..100);
        let parts = g.usize(1..8);
        let ds = dataset(seed, 4, 16);
        let out = partition_iid(&ds, parts, &mut SmallRng64::new(seed + 1)).unwrap();
        assert_eq!(out.len(), parts);
        let total: usize = out.iter().map(|p| p.len()).sum();
        assert_eq!(total, ds.len());
        let max = out.iter().map(|p| p.len()).max().unwrap();
        let min = out.iter().map(|p| p.len()).min().unwrap();
        assert!(max - min <= 1);
    });
}

#[test]
fn dirichlet_partition_is_complete() {
    cases(16, |g| {
        let seed = g.u64(0..100);
        let parts = g.usize(1..6);
        let alpha_x10 = g.u32(1..50);
        let ds = dataset(seed, 5, 12);
        let out = partition_dirichlet(
            &ds,
            parts,
            alpha_x10 as f64 / 10.0,
            &mut SmallRng64::new(seed),
        )
        .unwrap();
        assert_eq!(out.iter().map(|p| p.len()).sum::<usize>(), ds.len());
        // Every example's class space is preserved.
        for p in &out {
            assert_eq!(p.num_classes(), ds.num_classes());
        }
    });
}

#[test]
fn shards_respect_class_budget() {
    cases(16, |g| {
        let seed = g.u64(0..100);
        let parts = g.usize(1..5);
        let cpp = g.usize(1..4);
        let ds = dataset(seed, 6, 10);
        let out = partition_shards(&ds, parts, cpp, &mut SmallRng64::new(seed)).unwrap();
        for p in &out {
            let mut cls: Vec<usize> = p.labels().to_vec();
            cls.sort_unstable();
            cls.dedup();
            assert!(cls.len() <= cpp);
        }
    });
}

#[test]
fn confusion_levels_all_partition_completely() {
    cases(16, |g| {
        let seed = g.u64(0..50);
        let ds = dataset(seed, 4, 12);
        for level in ConfusionLevel::all() {
            let out = partition_confusion(&ds, 4, level, &mut SmallRng64::new(seed)).unwrap();
            assert_eq!(out.iter().map(|p| p.len()).sum::<usize>(), ds.len());
        }
    });
}

#[test]
fn split_and_merge_preserve_examples() {
    cases(16, |g| {
        let seed = g.u64(0..100);
        let frac_pct = g.u32(10..90);
        let ds = dataset(seed, 3, 10);
        let (a, b) = ds.split(frac_pct as f64 / 100.0, &mut SmallRng64::new(seed));
        assert_eq!(a.len() + b.len(), ds.len());
        let merged = a.merged(&b);
        assert_eq!(merged.len(), ds.len());
    });
}
