//! # acme-energy
//!
//! Device attributes and the energy-consumption model of the ACME paper
//! (§II-B, §II-C): each device `n` is a tuple `(G_n, C_n, θ_n)` with GPU
//! capacity, a storage limit expressed as a maximum parameter count, and a
//! customized model. The energy of running a backbone scaled by width
//! `w^B` and depth `d^B` for `k` epochs is (Eqs. 1–2):
//!
//! ```text
//! E_n = k · P_n(w, d) · T_n(w, d)
//! P_n = (G_n + ΔG_n · w·d) + p_n · G_n^β
//! T_n = (L_n + ΔL_n · w·d),   ΔG_n, G_n^β ∝ G_n,  ΔL_n ∝ L_n
//! ```
//!
//! ```
//! use acme_energy::{Device, EnergyModel};
//!
//! let device = Device::new(0, 5.0, 50_000_000);
//! let model = EnergyModel::default();
//! let e_small = model.energy(&device, 0.5, 6, 1);
//! let e_large = model.energy(&device, 1.0, 12, 1);
//! assert!(e_small < e_large);
//! ```

mod device;
mod fleet;
mod model;

pub use device::{Device, DeviceId};
pub use fleet::{DeviceCluster, EdgeId, Fleet};
pub use model::EnergyModel;
