//! Energy model (Eqs. 1–2).

use crate::device::Device;

/// Coefficients of the energy model (Eq. 2). All proportionality
/// constants of the paper (`ΔG_n ∝ G_n`, `G_n^β ∝ G_n`, `ΔL_n ∝ L_n`) are
/// explicit fields here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// `ΔG_n / G_n`: power increase per unit of `w·d`, relative to `G_n`.
    pub delta_g_ratio: f64,
    /// `G_n^β / (G_n · β)`: batch-dependent GPU power, relative to `G_n`
    /// and scaled by the batch size.
    pub batch_power_ratio: f64,
    /// Base latency `L_n` per epoch at `w·d = 0` for a unit-capacity
    /// device; divided by `G_n` (faster devices are quicker).
    pub base_latency: f64,
    /// `ΔL_n / L_n`: latency increase per unit of `w·d`, relative to
    /// `L_n`.
    pub delta_l_ratio: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Calibrated so a full-size backbone (w=1, d=12) costs roughly
        // 20x an aggressively pruned one on the same device, mirroring
        // the spread in Fig. 1 of the paper.
        EnergyModel {
            delta_g_ratio: 0.15,
            batch_power_ratio: 0.002,
            base_latency: 2.0,
            delta_l_ratio: 0.4,
        }
    }
}

impl EnergyModel {
    /// Power draw `P_n(w, d)` (Eq. 2).
    fn power(&self, device: &Device, w: f64, d: usize) -> f64 {
        let g = device.gpu_capacity();
        let wd = w * d as f64;
        let delta_g = self.delta_g_ratio * g;
        let g_beta = self.batch_power_ratio * g * device.batch_size() as f64;
        (g + delta_g * wd) + device.num_patches() as f64 * g_beta
    }

    /// Per-epoch latency `T_n(w, d)` (Eq. 2).
    pub fn latency(&self, device: &Device, w: f64, d: usize) -> f64 {
        let l = self.base_latency / device.gpu_capacity().max(1e-9);
        let wd = w * d as f64;
        l + self.delta_l_ratio * l * wd
    }

    /// Total energy `E_n(θ)` over `epochs` epochs (Eq. 1).
    pub fn energy(&self, device: &Device, w: f64, d: usize, epochs: usize) -> f64 {
        epochs as f64 * self.power(device, w, d) * self.latency(device, w, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(g: f64) -> Device {
        Device::new(0, g, 1_000_000)
    }

    #[test]
    fn energy_monotone_in_width_and_depth() {
        let m = EnergyModel::default();
        let d = dev(5.0);
        assert!(m.energy(&d, 0.5, 6, 1) < m.energy(&d, 1.0, 6, 1));
        assert!(m.energy(&d, 0.5, 6, 1) < m.energy(&d, 0.5, 12, 1));
        assert!(m.energy(&d, 0.5, 6, 1) < m.energy(&d, 0.5, 6, 2));
    }

    #[test]
    fn faster_device_lower_latency_higher_power() {
        let m = EnergyModel::default();
        let slow = dev(3.0);
        let fast = dev(7.0);
        assert!(m.latency(&fast, 1.0, 12) < m.latency(&slow, 1.0, 12));
        assert!(m.power(&fast, 1.0, 12) > m.power(&slow, 1.0, 12));
    }

    #[test]
    fn energy_scales_linearly_with_epochs() {
        let m = EnergyModel::default();
        let d = dev(4.0);
        let one = m.energy(&d, 0.75, 8, 1);
        let five = m.energy(&d, 0.75, 8, 5);
        assert!((five - 5.0 * one).abs() < 1e-9);
    }

    #[test]
    fn batch_and_patch_terms_enter_power() {
        let m = EnergyModel::default();
        let small = Device::new(0, 5.0, 1).with_patches(1).with_batch_size(1);
        let big = Device::new(0, 5.0, 1).with_patches(64).with_batch_size(64);
        assert!(m.power(&big, 1.0, 1) > m.power(&small, 1.0, 1));
    }
}
