//! Drift sweep: online re-customization under distribution drift
//! (drift magnitude × fleet size), recorded to `BENCH_drift.json` at
//! the workspace root.
//!
//! Each row runs [`acme::run_recustomization`] over one fleet: every
//! device streams drifting windows, feeds its per-window statistic into
//! a sliding-window detector, and — on detection — refits its header
//! against the frozen backbone and ships the result as a structural
//! [`acme_store::VariantDelta`]. The row records detection latency, the
//! bytes actually shipped versus the cold-start redeploy baseline, and
//! accuracy before drift / at detection / after adaptation.

use std::io::Write as _;
use std::time::Instant;

use acme::{
    run_recustomization, DeviceRecustomization, Pool, RecustomizeConfig, RecustomizeOutcome,
};
use acme_data::{DriftSpec, SyntheticSpec};
use acme_distsys::Network;

/// One measured (magnitude, fleet) cell.
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// Concept-drift magnitude in `[0, 1]`.
    pub magnitude: f64,
    /// Fleet size.
    pub fleet_devices: usize,
    /// Stream length in windows.
    pub windows: usize,
    /// Drift onset window.
    pub onset: usize,
    /// Devices whose detector fired.
    pub drifted_devices: usize,
    /// Mean windows between onset and detection, over detected devices
    /// (`None` when nothing was detected).
    pub mean_detection_latency: Option<f64>,
    /// Total measured delta bytes shipped to re-customized devices.
    pub total_delta_bytes: u64,
    /// What cold-start redeploys of the same devices would have shipped.
    pub total_cold_start_bytes: u64,
    /// `total_delta_bytes / total_cold_start_bytes` (`None` when nothing
    /// was shipped).
    pub transfer_ratio: Option<f64>,
    /// Fleet-mean accuracy on the pre-drift distribution.
    pub mean_accuracy_before: f64,
    /// Mean accuracy at the detection window (drifted devices only;
    /// falls back to the pre-drift mean when nothing was detected).
    pub mean_accuracy_at_detection: f64,
    /// Fleet-mean accuracy on the final window's distribution. A device
    /// whose detector stayed silent keeps its stale header and stays
    /// degraded, so this recovers only as far as detection reached.
    pub mean_accuracy_final: f64,
    /// Mean pre-drift accuracy of the devices that re-customized (the
    /// fleet's when none did).
    pub recustomized_accuracy_before: f64,
    /// Mean final accuracy of the devices that re-customized (the
    /// fleet's when none did): what adaptation itself recovered.
    pub recustomized_accuracy_final: f64,
    /// Ledger bytes metered for `recustomize-delta` messages.
    pub ledger_bytes: u64,
    /// Wall-clock of the run.
    pub wall_s: f64,
}

/// Sweep settings.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Drift magnitudes to sweep.
    pub magnitudes: Vec<f32>,
    /// Fleet sizes to sweep.
    pub fleets: Vec<usize>,
    /// Worker threads of each run.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The full grid: weak to strong drift across an order of magnitude
    /// of fleet scale.
    pub fn full() -> Self {
        SweepConfig {
            magnitudes: vec![0.3, 0.6, 0.9],
            fleets: vec![4, 8, 16],
            threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            seed: 42,
        }
    }

    /// The CI smoke grid: one strong-drift fleet, where the committed
    /// acceptance numbers (detection happened, delta far cheaper than
    /// cold start, accuracy recovered) must hold.
    pub fn smoke() -> Self {
        SweepConfig {
            magnitudes: vec![0.9],
            fleets: vec![4],
            threads: 2,
            seed: 42,
        }
    }
}

/// The drifting stream measured by the sweep: the standard tiny base
/// distribution, drifting from window 6 over 3 windows.
fn drift_spec(magnitude: f32) -> DriftSpec {
    DriftSpec {
        base: SyntheticSpec::tiny().with_per_class(8),
        onset: 6,
        ramp: 3,
        magnitude,
        mixture_shift: 0.0,
    }
}

/// Runs one (magnitude, fleet) cell.
fn run_cell(magnitude: f32, fleet: usize, threads: usize, seed: u64) -> DriftRow {
    let mut cfg = RecustomizeConfig::standard();
    cfg.devices = fleet;
    let spec = drift_spec(magnitude);
    let net = Network::new();
    let pool = Pool::new(threads);

    let started = Instant::now();
    let out: RecustomizeOutcome =
        run_recustomization(&pool, &cfg, &spec, Some(&net), seed).expect("recustomization runs");
    let wall_s = started.elapsed().as_secs_f64();

    let all: Vec<&DeviceRecustomization> = out.devices.iter().collect();
    let drifted: Vec<&DeviceRecustomization> = out
        .devices
        .iter()
        .filter(|d| d.detected_at.is_some())
        .collect();
    let mean = |of: &[&DeviceRecustomization], field: fn(&DeviceRecustomization) -> f32| {
        of.iter().map(|d| field(d) as f64).sum::<f64>() / of.len() as f64
    };
    let mean_detection_latency = (!drifted.is_empty()).then(|| {
        drifted
            .iter()
            .map(|d| d.detection_latency.unwrap_or(0) as f64)
            .sum::<f64>()
            / drifted.len() as f64
    });
    // The drifted-only means fall back to the fleet's when nothing was
    // detected (a silent device's `accuracy_at_detection` is its
    // `accuracy_before`).
    let recustomized = if drifted.is_empty() { &all } else { &drifted };

    DriftRow {
        magnitude: magnitude as f64,
        fleet_devices: fleet,
        windows: cfg.windows,
        onset: spec.onset,
        drifted_devices: drifted.len(),
        mean_detection_latency,
        total_delta_bytes: out.total_delta_bytes,
        total_cold_start_bytes: out.total_cold_start_bytes,
        transfer_ratio: out.transfer_ratio(),
        mean_accuracy_before: mean(&all, |d| d.accuracy_before),
        mean_accuracy_at_detection: mean(recustomized, |d| d.accuracy_at_detection),
        mean_accuracy_final: mean(&all, |d| d.accuracy_final),
        recustomized_accuracy_before: mean(recustomized, |d| d.accuracy_before),
        recustomized_accuracy_final: mean(recustomized, |d| d.accuracy_final),
        ledger_bytes: net.ledger().total_bytes(),
        wall_s,
    }
}

/// Runs the sweep, one fleet per (magnitude, fleet) cell.
pub fn sweep(cfg: &SweepConfig) -> Vec<DriftRow> {
    let mut rows = Vec::with_capacity(cfg.magnitudes.len() * cfg.fleets.len());
    for &magnitude in &cfg.magnitudes {
        for &fleet in &cfg.fleets {
            rows.push(run_cell(magnitude, fleet, cfg.threads, cfg.seed));
        }
    }
    rows
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.4}"))
}

/// Writes the sweep as a JSON array.
///
/// # Errors
///
/// Returns any I/O error from creating or writing `path`.
pub fn write_json(path: &str, rows: &[DriftRow]) -> std::io::Result<()> {
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"bench\": \"drift\", \"magnitude\": {:.2}, \"fleet_devices\": {}, \
             \"windows\": {}, \"onset\": {}, \"drifted_devices\": {}, \
             \"mean_detection_latency\": {}, \"total_delta_bytes\": {}, \
             \"total_cold_start_bytes\": {}, \"transfer_ratio\": {}, \
             \"mean_accuracy_before\": {:.4}, \"mean_accuracy_at_detection\": {:.4}, \
             \"mean_accuracy_final\": {:.4}, \"recustomized_accuracy_before\": {:.4}, \
             \"recustomized_accuracy_final\": {:.4}, \"ledger_bytes\": {}, \
             \"wall_s\": {:.4}}}{}\n",
            r.magnitude,
            r.fleet_devices,
            r.windows,
            r.onset,
            r.drifted_devices,
            json_opt(r.mean_detection_latency),
            r.total_delta_bytes,
            r.total_cold_start_bytes,
            json_opt(r.transfer_ratio),
            r.mean_accuracy_before,
            r.mean_accuracy_at_detection,
            r.mean_accuracy_final,
            r.recustomized_accuracy_before,
            r.recustomized_accuracy_final,
            r.ledger_bytes,
            r.wall_s,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cell_is_consistent() {
        let row = run_cell(0.9, 3, 1, 42);
        assert_eq!(row.fleet_devices, 3);
        assert!(row.drifted_devices > 0, "strong drift must be detected");
        assert!(row.total_delta_bytes > 0);
        assert!(row.total_delta_bytes < row.total_cold_start_bytes);
        let ratio = row.transfer_ratio.unwrap();
        assert!((0.0..1.0).contains(&ratio));
        // Ledger bytes = deltas + 16-byte routing header per message.
        assert_eq!(
            row.ledger_bytes,
            row.total_delta_bytes + 16 * row.drifted_devices as u64
        );
    }
}
