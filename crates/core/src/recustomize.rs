//! Online re-customization under distribution drift (ROADMAP item 4).
//!
//! The offline pipeline ends with every device holding a frozen cluster
//! backbone and a personalized header. This module keeps the fleet
//! *adapted after deployment*: each device feeds a per-window statistic
//! of its private stream (per-example mean input activation) into a
//! sliding-window [`DriftDetector`]; when the detector
//! fires, only that device re-runs the Phase 2-2 fine tuning — backbone
//! untouched — on the data it just observed, and ships the result as a
//! structural [`VariantDelta`] against the backbone it already stores.
//! The transfer ledger is charged the delta's measured wire size via
//! [`Payload::RecustomizeDelta`], not the cold-start checkpoint the
//! naive fix (redeploy the whole variant) would cost.
//!
//! Devices that do not drift retrain nothing and ship nothing.

use acme_agg::{DriftDetector, DriftDetectorConfig};
use acme_data::{Dataset, DriftSpec, DriftingStream, SyntheticSpec};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::{DeviceId, EdgeId};
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_nn::{wire, ParamSet};
use acme_runtime::Pool;
use acme_store::{ContentHash, VariantDelta};
use acme_tensor::SmallRng64;
use acme_vit::{evaluate_header, fit_header, FrozenFeatures, TrainConfig, Vit, VitConfig};

use crate::config::header_grid;
use crate::error::AcmeError;

/// Hyperparameters of the online re-customization loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecustomizeConfig {
    /// Fleet size.
    pub devices: usize,
    /// Stream windows each device observes.
    pub windows: usize,
    /// Samples per device per window (each contributes one detector
    /// observation).
    pub window_samples: usize,
    /// Per-device drift detector settings. `detector.window` is the
    /// detector's internal comparison window in *observations*; setting
    /// it equal to [`Self::window_samples`] makes one stream window one
    /// detector window.
    pub detector: DriftDetectorConfig,
    /// Samples of the pre-drift stream each device pre-trains its
    /// header on.
    pub pretrain_samples: usize,
    /// Header pre-training epochs.
    pub pretrain_epochs: usize,
    /// Samples drawn from the triggering window for re-personalization
    /// (a superset of the monitored samples — the device adapts on what
    /// it just observed).
    pub adapt_samples: usize,
    /// Re-personalization epochs.
    pub adapt_epochs: usize,
    /// Minibatch size of both fits and of evaluation.
    pub batch_size: usize,
    /// Per-class examples of each accuracy probe.
    pub eval_per_class: usize,
}

impl RecustomizeConfig {
    /// Defaults sized for the drift benchmark sweep.
    pub fn standard() -> Self {
        RecustomizeConfig {
            devices: 8,
            windows: 16,
            window_samples: 32,
            detector: DriftDetectorConfig {
                window: 32,
                warmup_windows: 3,
                sigma: 6.0,
                // The statistic's scale is data-dependent; rely on the
                // warmup calibration rather than an absolute floor.
                min_threshold: 1e-4,
                patience: 2,
            },
            pretrain_samples: 128,
            pretrain_epochs: 4,
            adapt_samples: 96,
            adapt_epochs: 4,
            batch_size: 16,
            eval_per_class: 8,
        }
    }

    /// A short schedule for tests.
    pub fn quick() -> Self {
        RecustomizeConfig {
            devices: 3,
            windows: 12,
            window_samples: 24,
            detector: DriftDetectorConfig {
                window: 24,
                warmup_windows: 2,
                sigma: 6.0,
                min_threshold: 1e-4,
                patience: 2,
            },
            pretrain_samples: 64,
            pretrain_epochs: 3,
            adapt_samples: 64,
            adapt_epochs: 3,
            batch_size: 16,
            eval_per_class: 6,
        }
    }
}

/// One device's passage through the online loop.
#[derive(Debug, Clone)]
pub struct DeviceRecustomization {
    /// Window index at which the detector fired, if it did.
    pub detected_at: Option<usize>,
    /// Windows between the drift onset and detection (`None` when the
    /// detector never fired; saturates at zero when the calibrated
    /// detector fires during the pre-onset stream — a false alarm,
    /// which a stationary stream draws on 1.8 % of device-streams under
    /// [`RecustomizeConfig::standard`] and 6.3 % under
    /// [`RecustomizeConfig::quick`], DESIGN.md §16).
    pub detection_latency: Option<usize>,
    /// Accuracy on the pre-drift distribution after header pre-training.
    pub accuracy_before: f32,
    /// Accuracy at the detection window, before re-personalization
    /// (equals [`Self::accuracy_before`] when the detector never fired).
    pub accuracy_at_detection: f32,
    /// Accuracy on the final window's distribution at the end of the
    /// stream.
    pub accuracy_final: f32,
    /// Measured wire size of the shipped [`VariantDelta`] (0 when the
    /// device never re-customized).
    pub delta_bytes: u64,
    /// What redeploying the full variant checkpoint would have cost.
    pub cold_start_bytes: u64,
}

/// Outcome of [`run_recustomization`] over the whole fleet.
#[derive(Debug, Clone)]
pub struct RecustomizeOutcome {
    /// Per-device trajectories, in device order.
    pub devices: Vec<DeviceRecustomization>,
    /// Total delta bytes actually shipped.
    pub total_delta_bytes: u64,
    /// Total bytes the cold-start alternative would have shipped for
    /// the same (re-customized) devices.
    pub total_cold_start_bytes: u64,
}

impl RecustomizeOutcome {
    /// Devices whose detector fired.
    pub fn drifted_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.detected_at.is_some())
            .count()
    }

    /// Shipped bytes as a fraction of the cold-start alternative
    /// (`None` when nothing was shipped).
    pub fn transfer_ratio(&self) -> Option<f64> {
        (self.total_cold_start_bytes > 0)
            .then(|| self.total_delta_bytes as f64 / self.total_cold_start_bytes as f64)
    }
}

/// The backbone shape used for a drifting stream's spec: patches on the
/// prototype grid so the token count stays small at any image size.
fn backbone_config(spec: &SyntheticSpec) -> VitConfig {
    VitConfig {
        image: spec.size,
        patch: spec.size / spec.grid,
        channels: spec.channels,
        dim: 16,
        depth: 2,
        heads: 2,
        head_dim: 8,
        mlp_hidden: 32,
        classes: spec.classes,
    }
}

/// Per-example mean input activation — the scalar each observed sample
/// contributes to the device's drift detector. The statistic is
/// deliberately computed on the *inputs*, not the backbone features: it
/// costs no forward pass on the device, and the backbone's final
/// LayerNorm pins each feature row's mean and variance, which makes
/// feature-space averages nearly blind to input drift.
fn window_statistics(ds: &Dataset) -> Vec<f32> {
    (0..ds.len())
        .map(|i| {
            let img = ds.get(i).0;
            img.data().iter().sum::<f32>() / img.data().len() as f32
        })
        .collect()
}

struct DeviceSim {
    detected_at: Option<usize>,
    accuracy_before: f32,
    accuracy_at_detection: f32,
    accuracy_final: f32,
    delta: Option<VariantDelta>,
    cold_start_bytes: u64,
}

#[allow(clippy::too_many_arguments)]
fn simulate_device(
    device: u64,
    seed: u64,
    backbone: &Vit,
    header: &NasHeader,
    base_ps: &ParamSet,
    backbone_hash: ContentHash,
    stream: &DriftingStream,
    cfg: &RecustomizeConfig,
) -> DeviceSim {
    let mut rng = SmallRng64::new(seed);
    let mut ps = base_ps.clone();
    backbone.freeze_backbone(&mut ps);
    // The backbone never changes on the device: each window it fits or
    // is evaluated on runs through it once, from the shared base
    // parameters, and the header reads the cached features.
    let features =
        |data: &Dataset| FrozenFeatures::compute(backbone, base_ps, data, cfg.batch_size);
    let accuracy_at = |ps: &ParamSet, t: usize| {
        let eval = features(&stream.eval_set(device, t, cfg.eval_per_class));
        evaluate_header(header, ps, &eval, cfg.batch_size)
    };
    let refit = |ps: &mut ParamSet, window: &FrozenFeatures, epochs: usize, seed: u64| {
        let train_cfg = TrainConfig {
            epochs,
            batch_size: cfg.batch_size,
            seed,
        };
        fit_header(header, ps, window, &train_cfg);
    };

    // Deploy-time personalization: header fit on the pre-drift stream.
    let pretrain = stream.window(device, 0, cfg.pretrain_samples);
    refit(
        &mut ps,
        &features(&pretrain),
        cfg.pretrain_epochs,
        rng.next_u64(),
    );
    let accuracy_before = accuracy_at(&ps, 0);

    let mut detector =
        DriftDetector::new(cfg.detector).expect("config validated by run_recustomization");
    let mut detected_at = None;
    let mut accuracy_at_detection = accuracy_before;
    let mut delta = None;
    for t in 0..cfg.windows {
        let observed = stream.window(device, t, cfg.window_samples);
        for x in window_statistics(&observed) {
            detector.observe(x);
        }
        if detector.has_drifted() && delta.is_none() {
            detected_at = Some(t);
            accuracy_at_detection = accuracy_at(&ps, t);
            // Incremental Phase 2-2: refit the header on the window that
            // tripped the detector, backbone frozen.
            let adapt = stream.window(device, t, cfg.adapt_samples);
            refit(&mut ps, &features(&adapt), cfg.adapt_epochs, rng.next_u64());
            // The frozen backbone encodes to `Same` ops; only the
            // retrained header ships verbatim.
            let all_classes: Vec<usize> = (0..stream.spec().base.classes).collect();
            delta = Some(VariantDelta::encode(
                base_ps,
                backbone_hash,
                &all_classes,
                &ps,
            ));
            detector.rebase();
        }
    }
    let accuracy_final = accuracy_at(&ps, cfg.windows.saturating_sub(1));
    DeviceSim {
        detected_at,
        accuracy_before,
        accuracy_at_detection,
        accuracy_final,
        delta,
        cold_start_bytes: wire::encoded_len(&ps),
    }
}

/// Runs the online re-customization loop over a fleet of devices
/// sharing one drifting stream spec (device streams are independent —
/// each is a pure function of `(seed, device, t)`).
///
/// Per-device simulation runs on `pool` from per-device seeds forked
/// off `seed`, so the outcome is identical at any thread count.
/// Shipped deltas are metered on `network` in device order when
/// provided.
///
/// # Errors
///
/// Returns [`AcmeError::Metric`] on a degenerate detector config,
/// [`AcmeError::Data`] on a degenerate stream spec, and
/// [`AcmeError::InvalidConfig`] when `windows`, `window_samples`,
/// `pretrain_samples`, `adapt_samples`, `eval_per_class` or
/// `batch_size` is zero, or the
/// stream's prototype grid, which is the backbone's token grid, is
/// odd or below 2 (the header's pool ops take 2×2 windows) — all before
/// any device runs.
pub fn run_recustomization(
    pool: &Pool,
    cfg: &RecustomizeConfig,
    spec: &DriftSpec,
    network: Option<&Network>,
    seed: u64,
) -> Result<RecustomizeOutcome, AcmeError> {
    cfg.detector.validate()?;
    // A zero would feed the detector nothing (so every device reports
    // "no drift"), fit a header on nothing, read an empty probe as
    // accuracy 0, or train silently at batch 1.
    for (field, count) in [
        ("windows", cfg.windows),
        ("window_samples", cfg.window_samples),
        ("pretrain_samples", cfg.pretrain_samples),
        ("adapt_samples", cfg.adapt_samples),
        ("eval_per_class", cfg.eval_per_class),
        ("batch_size", cfg.batch_size),
    ] {
        if count == 0 {
            return Err(AcmeError::InvalidConfig(format!("{field} is 0")));
        }
    }
    let stream = DriftingStream::new(spec.clone(), seed)?;
    let vit_cfg = backbone_config(&spec.base);
    header_grid(vit_cfg.grid()).map_err(AcmeError::InvalidConfig)?;

    let mut root = SmallRng64::new(seed ^ 0xAC3E_0417_D21F_7C1D);
    let n = cfg.devices;
    let mut model_rng = root.fork(0);
    let mut base_ps = ParamSet::new();
    let backbone = Vit::new(&mut base_ps, &vit_cfg, &mut model_rng);
    let shared = SharedParams::new(
        &mut base_ps,
        "on",
        2,
        vit_cfg.dim,
        vit_cfg.grid(),
        spec.base.classes,
        &mut model_rng,
    );
    let header = NasHeader::new(HeaderArch::chain(2, 1), shared);
    let backbone_hash = ContentHash::of_sealed(&base_ps);

    let dev_seeds: Vec<u64> = (0..n).map(|i| root.fork(1 + i as u64).next_u64()).collect();
    let sims: Vec<DeviceSim> = pool.par_map((0..n).collect::<Vec<usize>>(), |_, d| {
        simulate_device(
            d as u64,
            dev_seeds[d],
            &backbone,
            &header,
            &base_ps,
            backbone_hash,
            &stream,
            cfg,
        )
    });

    // Shipped deltas are metered in device order.
    let mut devices = Vec::with_capacity(n);
    let mut total_delta_bytes = 0;
    let mut total_cold_start_bytes = 0;
    for (d, sim) in sims.into_iter().enumerate() {
        let delta_bytes = sim.delta.as_ref().map_or(0, VariantDelta::bytes);
        if let (Some(t), Some(_)) = (sim.detected_at, &sim.delta) {
            if let Some(net) = network {
                net.meter(
                    NodeId::Edge(EdgeId(0)),
                    NodeId::Device(DeviceId(d)),
                    Payload::RecustomizeDelta {
                        round: t,
                        bytes: delta_bytes,
                    },
                );
            }
            total_delta_bytes += delta_bytes;
            total_cold_start_bytes += sim.cold_start_bytes;
        }
        devices.push(DeviceRecustomization {
            detected_at: sim.detected_at,
            detection_latency: sim.detected_at.map(|t| t.saturating_sub(spec.onset)),
            accuracy_before: sim.accuracy_before,
            accuracy_at_detection: sim.accuracy_at_detection,
            accuracy_final: sim.accuracy_final,
            delta_bytes,
            cold_start_bytes: sim.cold_start_bytes,
        });
    }
    Ok(RecustomizeOutcome {
        devices,
        total_delta_bytes,
        total_cold_start_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drifting_spec(magnitude: f32) -> DriftSpec {
        DriftSpec {
            base: SyntheticSpec::tiny().with_per_class(8),
            onset: 5,
            ramp: 3,
            magnitude,
            mixture_shift: 0.0,
        }
    }

    /// Whatever the detectors decide, a device whose detector stayed
    /// silent ships nothing and reports no degraded probe, and the
    /// ledger carries one message per device whose detector fired.
    /// (Whether a zero-drift detector *does* stay silent is a rate, not
    /// an invariant: see the next test.)
    #[test]
    fn silent_devices_ship_nothing_and_the_ledger_counts_the_rest() {
        let (mut silent, mut fired) = (0, 0);
        for (magnitude, seed) in [(0.0, 11), (0.0, 12), (0.9, 4)] {
            let net = Network::new();
            let out = run_recustomization(
                &Pool::serial(),
                &RecustomizeConfig::quick(),
                &drifting_spec(magnitude),
                Some(&net),
                seed,
            )
            .unwrap();
            assert_eq!(net.ledger().report().messages, out.drifted_count() as u64);
            assert_eq!(
                out.total_delta_bytes,
                out.devices.iter().map(|d| d.delta_bytes).sum::<u64>()
            );
            assert_eq!(out.transfer_ratio().is_none(), out.drifted_count() == 0);
            for d in out.devices.iter().filter(|d| d.detected_at.is_none()) {
                assert_eq!(d.delta_bytes, 0);
                assert_eq!(
                    d.accuracy_at_detection, d.accuracy_before,
                    "no detection, no degraded probe"
                );
            }
            fired += out.drifted_count();
            silent += out.devices.len() - out.drifted_count();
        }
        assert!(silent > 0 && fired > 0, "the runs must cover both kinds");
    }

    /// Share of the device-streams of 200 fleets (stream seeds 0..200)
    /// on which `cfg`'s detector fires: the detector alone, fed the way
    /// `simulate_device` feeds it, with no model.
    fn fired_share(cfg: &RecustomizeConfig, magnitude: f32) -> f64 {
        const SEEDS: u64 = 200;
        let mut fired = 0;
        for seed in 0..SEEDS {
            let stream = DriftingStream::new(drifting_spec(magnitude), seed).unwrap();
            for device in 0..cfg.devices as u64 {
                let mut detector = DriftDetector::new(cfg.detector).unwrap();
                for t in 0..cfg.windows {
                    for x in window_statistics(&stream.window(device, t, cfg.window_samples)) {
                        detector.observe(x);
                    }
                }
                fired += usize::from(detector.has_drifted());
            }
        }
        fired as f64 / (SEEDS as usize * cfg.devices) as f64
    }

    /// The detector's two rates. Measured: on a zero-drift fleet it
    /// false-alarms on 29 of 1 600 device-streams under `standard()`
    /// (1.8 %) and 38 of 600 under `quick()` (6.3 %); at magnitude 0.9
    /// it fires on 1 156 of 1 600 (72 %) and 438 of 600 (73 %). The run
    /// is deterministic, so the bounds are margins, not flake allowances.
    #[test]
    fn detector_false_alarm_and_detection_rates_hold_over_200_stream_seeds() {
        let (standard, quick) = (RecustomizeConfig::standard(), RecustomizeConfig::quick());
        assert!(fired_share(&standard, 0.0) <= 0.05);
        assert!(fired_share(&quick, 0.0) <= 0.12);
        assert!(fired_share(&standard, 0.9) >= 0.50);
        assert!(fired_share(&quick, 0.9) >= 0.50);
    }

    #[test]
    fn drifted_fleet_is_detected_and_recustomized_cheaply() {
        let cfg = RecustomizeConfig::quick();
        let spec = drifting_spec(0.9);
        let net = Network::new();
        let out = run_recustomization(&Pool::serial(), &cfg, &spec, Some(&net), 4).unwrap();
        assert!(
            out.drifted_count() > 0,
            "strong concept drift must trip detectors: {:?}",
            out.devices
        );
        // Detection happens after the onset, within the stream.
        for d in out.devices.iter().filter(|d| d.detected_at.is_some()) {
            let t = d.detected_at.unwrap();
            assert!(t >= spec.onset, "detector fired pre-onset at {t}");
            assert!(t < cfg.windows);
            assert!(d.detection_latency.unwrap() <= cfg.windows - spec.onset);
            assert!(d.delta_bytes > 0);
            // The structural delta (frozen backbone -> Same ops) is far
            // cheaper than redeploying the checkpoint.
            assert!(
                4 * d.delta_bytes < d.cold_start_bytes,
                "delta {} vs cold start {}",
                d.delta_bytes,
                d.cold_start_bytes
            );
        }
        // One RecustomizeDelta per drifted device, charged at delta size.
        assert_eq!(net.ledger().report().messages, out.drifted_count() as u64);
        let report = net.ledger().report();
        assert!(report.total_bytes <= out.total_delta_bytes + 16 * out.drifted_count() as u64);
        // Re-personalization recovers accuracy on the drifted
        // distribution relative to the stale header.
        let (mut stale, mut recovered) = (0.0f32, 0.0f32);
        let drifted = out.drifted_count().max(1) as f32;
        for d in out.devices.iter().filter(|d| d.detected_at.is_some()) {
            stale += d.accuracy_at_detection;
            recovered += d.accuracy_final;
        }
        assert!(
            recovered / drifted + 1e-6 >= stale / drifted,
            "adaptation must not lose accuracy: stale {} recovered {}",
            stale / drifted,
            recovered / drifted
        );
    }

    #[test]
    fn outcome_is_thread_count_invariant() {
        let cfg = RecustomizeConfig::quick();
        let spec = drifting_spec(0.9);
        let a = run_recustomization(&Pool::new(1), &cfg, &spec, None, 9).unwrap();
        let b = run_recustomization(&Pool::new(4), &cfg, &spec, None, 9).unwrap();
        assert_eq!(a.total_delta_bytes, b.total_delta_bytes);
        assert_eq!(a.total_cold_start_bytes, b.total_cold_start_bytes);
        for (x, y) in a.devices.iter().zip(&b.devices) {
            assert_eq!(x.detected_at, y.detected_at);
            assert_eq!(x.accuracy_before.to_bits(), y.accuracy_before.to_bits());
            assert_eq!(x.accuracy_final.to_bits(), y.accuracy_final.to_bits());
            assert_eq!(x.delta_bytes, y.delta_bytes);
        }
    }

    #[test]
    fn degenerate_configs_surface_as_typed_errors() {
        let mut cfg = RecustomizeConfig::quick();
        cfg.detector.window = 0;
        let err = run_recustomization(&Pool::serial(), &cfg, &drifting_spec(0.5), None, 0)
            .expect_err("zero detector window");
        assert!(matches!(err, AcmeError::Metric(_)), "got {err}");
        let mut spec = drifting_spec(0.5);
        spec.ramp = 0;
        let err = run_recustomization(&Pool::serial(), &RecustomizeConfig::quick(), &spec, None, 0)
            .expect_err("zero ramp");
        assert!(matches!(err, AcmeError::Data(_)), "got {err}");
    }

    /// Both used to panic building the header supernet.
    #[test]
    fn an_odd_or_unit_drift_grid_is_a_typed_error() {
        for (size, grid) in [(9, 3), (8, 1)] {
            let mut spec = drifting_spec(0.9);
            (spec.base.size, spec.base.grid) = (size, grid);
            let err =
                run_recustomization(&Pool::serial(), &RecustomizeConfig::quick(), &spec, None, 4)
                    .expect_err("a grid the header cannot pool");
            assert!(
                matches!(&err, AcmeError::InvalidConfig(m) if m.contains(&format!("grid {grid}"))),
                "got {err}"
            );
        }
    }

    #[test]
    fn zero_pretrain_samples_is_a_typed_error() {
        let cfg = RecustomizeConfig {
            pretrain_samples: 0,
            ..RecustomizeConfig::quick()
        };
        let err = run_recustomization(&Pool::serial(), &cfg, &drifting_spec(0.9), None, 4)
            .expect_err("no pre-training samples");
        assert!(
            matches!(&err, AcmeError::InvalidConfig(m) if m.contains("pretrain_samples")),
            "got {err}"
        );
    }

    /// Both used to run: an empty probe reported accuracy 0 on every
    /// device, and a zero batch trained at batch 1.
    #[test]
    fn zero_eval_per_class_or_batch_size_is_a_typed_error() {
        for (field, cfg) in [
            (
                "eval_per_class",
                RecustomizeConfig {
                    eval_per_class: 0,
                    ..RecustomizeConfig::quick()
                },
            ),
            (
                "batch_size",
                RecustomizeConfig {
                    batch_size: 0,
                    ..RecustomizeConfig::quick()
                },
            ),
        ] {
            let err = run_recustomization(&Pool::serial(), &cfg, &drifting_spec(0.9), None, 42)
                .expect_err(field);
            assert!(
                matches!(&err, AcmeError::InvalidConfig(m) if m.contains(field)),
                "got {err}"
            );
        }
    }

    /// Both used to return `Ok` with 0 of 3 devices drifted on a
    /// 0.9-magnitude stream: the detector never observed a sample.
    #[test]
    fn zero_windows_or_window_samples_is_a_typed_error() {
        for (field, cfg) in [
            (
                "windows",
                RecustomizeConfig {
                    windows: 0,
                    ..RecustomizeConfig::quick()
                },
            ),
            (
                "window_samples",
                RecustomizeConfig {
                    window_samples: 0,
                    ..RecustomizeConfig::quick()
                },
            ),
        ] {
            let err = run_recustomization(&Pool::serial(), &cfg, &drifting_spec(0.9), None, 4)
                .expect_err(field);
            assert!(
                matches!(&err, AcmeError::InvalidConfig(m) if m.contains(field)),
                "got {err}"
            );
        }
    }

    /// Seed 4 at magnitude 0.9 trips detectors (see
    /// `drifted_fleet_is_detected_and_recustomized_cheaply`), so a run
    /// that got that far would refit on an empty window.
    #[test]
    fn zero_adapt_samples_is_a_typed_error() {
        let cfg = RecustomizeConfig {
            adapt_samples: 0,
            ..RecustomizeConfig::quick()
        };
        let err = run_recustomization(&Pool::serial(), &cfg, &drifting_spec(0.9), None, 4)
            .expect_err("no adaptation samples");
        assert!(
            matches!(&err, AcmeError::InvalidConfig(m) if m.contains("adapt_samples")),
            "got {err}"
        );
    }
}
