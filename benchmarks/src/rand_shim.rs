//! Statistical smoke test of the `rand` stand-in in `shims/rand`: the
//! workloads' data, weights and traffic all come out of it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

#[test]
fn streams_are_seeded_and_distinct() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(42), draw(42));
    assert_ne!(draw(42), draw(43));
    // Seed 0 must not collapse into the all-zero state xoshiro cannot leave.
    assert!(draw(0).iter().any(|&x| x != 0));
}

#[test]
fn unit_floats_are_uniform() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 200_000;
    let mut buckets = [0u32; 20];
    let mut sum = 0.0;
    for _ in 0..n {
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        buckets[(x * 20.0) as usize] += 1;
        sum += x;
    }
    // Mean 1/2 with standard error 0.00065; each bucket expects 10 000
    // with standard deviation 97.
    assert!(
        (sum / n as f64 - 0.5).abs() < 0.004,
        "mean {}",
        sum / n as f64
    );
    assert!(
        buckets.iter().all(|&c| (9_500..10_500).contains(&c)),
        "{buckets:?}"
    );
    let x: f32 = rng.gen();
    assert!((0.0..1.0).contains(&x));
}

#[test]
fn gen_range_honours_its_end_points() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut seen = [false; 6];
    for _ in 0..1_000 {
        seen[rng.gen_range(0..6usize)] = true;
        let i: i64 = rng.gen_range(-2..=2);
        assert!((-2..=2).contains(&i));
        let x: f32 = rng.gen_range(f32::EPSILON..1.0);
        assert!((f32::EPSILON..1.0).contains(&x));
        let y: f64 = rng.gen_range(-2.0..2.0);
        assert!((-2.0..2.0).contains(&y));
    }
    assert!(seen.iter().all(|&s| s), "a value of 0..6 never came up");
    let mut ends = [false; 2];
    for _ in 0..200 {
        ends[rng.gen_range(0..=1usize)] = true;
    }
    assert_eq!(ends, [true, true], "an inclusive end never came up");
    assert_eq!(rng.gen_range(7..8u32), 7);
    assert_eq!(rng.gen_range(u64::MAX..=u64::MAX), u64::MAX);
    assert_eq!(rng.gen_range(i8::MIN..=i8::MIN), i8::MIN);
}

#[test]
fn integer_ranges_are_unbiased() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut counts = [0u32; 3];
    for _ in 0..90_000 {
        counts[rng.gen_range(0..3usize)] += 1;
    }
    // 30 000 each, standard deviation 141.
    assert!(
        counts.iter().all(|&c| (29_300..30_700).contains(&c)),
        "{counts:?}"
    );
}

#[test]
fn gen_bool_follows_its_probability() {
    let mut rng = StdRng::seed_from_u64(4);
    let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
    assert!((29_000..31_000).contains(&hits), "{hits}");
    assert!(rng.gen_bool(1.0));
    assert!(!rng.gen_bool(0.0));
}

#[test]
fn shuffle_is_a_permutation_and_choose_stays_inside() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut v: Vec<usize> = (0..100).collect();
    v.shuffle(&mut rng);
    assert_ne!(v, (0..100).collect::<Vec<_>>());
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    // Every position can receive every element: over many shuffles of
    // three items each of the six orders comes up.
    let mut orders = std::collections::BTreeSet::new();
    for _ in 0..200 {
        let mut t = [0, 1, 2];
        t.shuffle(&mut rng);
        orders.insert(t);
    }
    assert_eq!(orders.len(), 6);
    assert!(v.choose(&mut rng).is_some_and(|x| *x < 100));
    assert_eq!(Vec::<u8>::new().choose(&mut rng), None);
}

#[test]
fn fill_bytes_covers_a_ragged_tail() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut buf = [0u8; 13];
    rng.fill_bytes(&mut buf);
    assert!(buf.iter().any(|&b| b != 0));
    assert!(rng.try_fill_bytes(&mut buf).is_ok());
}
