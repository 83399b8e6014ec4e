//! Property-based tests of the energy model (Eqs. 1–2) and ζ (Eq. 3).

use acme_check::cases;
use acme_energy::{ArchShape, Device, EnergyModel, Fleet};

#[test]
fn energy_is_positive_and_monotone() {
    cases(256, |g| {
        let gpu = g.f64(1.0..10.0);
        let w1 = g.f64(0.1..1.0);
        let w2 = g.f64(0.1..1.0);
        let d = g.usize(1..12);
        let k = g.usize(1..10);
        let device = Device::new(0, gpu, 1);
        let m = EnergyModel::default();
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let e_lo = m.energy(&device, lo, d, k);
        let e_hi = m.energy(&device, hi, d, k);
        assert!(e_lo > 0.0);
        assert!(e_lo <= e_hi);
        // Deeper always costs at least as much.
        assert!(m.energy(&device, lo, d, k) <= m.energy(&device, lo, d + 1, k));
    });
}

#[test]
fn param_count_is_monotone_and_linear_in_depth() {
    cases(256, |g| {
        let w = g.f64(0.1..1.0);
        let d = g.usize(1..12);
        let arch = ArchShape::vit_base();
        let a = arch.param_count(w, d);
        let b = arch.param_count(w, d + 1);
        let c = arch.param_count(w, d + 2);
        assert!(a < b && b < c);
        // Linear in d: constant second difference (within rounding).
        let d1 = b - a;
        let d2 = c - b;
        assert!(d1.abs_diff(d2) <= 1);
    });
}

#[test]
fn micro_fleet_invariants() {
    cases(256, |g| {
        let clusters = g.usize(1..8);
        let devices = g.usize(1..6);
        let params = g.u64(1_000..1_000_000);
        let fleet = Fleet::micro_scaled(clusters, devices, params);
        assert_eq!(fleet.num_edges(), clusters);
        assert_eq!(fleet.num_devices(), clusters * devices);
        // Storage is positive and non-decreasing over clusters.
        let mins: Vec<u64> = fleet.clusters().iter().map(|c| c.min_storage()).collect();
        assert!(mins.iter().all(|&m| m > 0));
        assert!(mins.windows(2).all(|w| w[0] <= w[1]));
    });
}

#[test]
fn latency_decreases_with_gpu() {
    cases(256, |g| {
        let g1 = g.f64(1.0..5.0);
        let extra = g.f64(0.5..5.0);
        let w = g.f64(0.1..1.0);
        let d = g.usize(1..12);
        let m = EnergyModel::default();
        let slow = Device::new(0, g1, 1);
        let fast = Device::new(1, g1 + extra, 1);
        assert!(m.latency(&fast, w, d) < m.latency(&slow, w, d));
    });
}
