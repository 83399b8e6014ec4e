//! Sliding-window drift detection over per-device scalar statistics.
//!
//! Each deployed device feeds a scalar summary of every example it sees
//! (this repo uses the mean input activation) into a [`DriftDetector`].
//! The detector captures a *reference window* from the first `window`
//! observations, calibrates a threshold from the exact 1-D Wasserstein
//! distances of the next `warmup_windows` windows against that reference
//! (all drawn from the pre-drift distribution), and afterwards flags
//! drift whenever a window's distance exceeds the calibrated threshold.
//!
//! The threshold is `mean + sigma·std` of the warmup distances, floored
//! at `min_threshold`. The floor is what makes constant (drift-free)
//! streams safe: their warmup distances are exactly zero, so without the
//! floor any rounding jitter would trigger. A NaN or infinite observation
//! is dropped and counted ([`DriftDetector::non_finite_dropped`]), never
//! stored: one would poison every distance of its window, or of the
//! whole run if it landed in the reference. Everything is sequential and
//! allocation-light; a fleet of detectors run under a worker pool is
//! bit-identical at any thread count because each detector owns its
//! stream.

use crate::error::MetricError;
use crate::wasserstein::wasserstein_1d_samples;

/// Configuration of a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetectorConfig {
    /// Observations per window. Must be at least 2.
    pub window: usize,
    /// Full windows (beyond the reference window) used to calibrate the
    /// threshold. Must be at least 1.
    pub warmup_windows: usize,
    /// Threshold is `mean + sigma·std` over the warmup distances.
    pub sigma: f64,
    /// Lower bound on the threshold, so a zero-variance warmup (e.g. a
    /// constant stream) can never produce a hair-trigger detector.
    pub min_threshold: f64,
    /// Consecutive over-threshold windows required before drift is
    /// flagged. Must be at least 1; values above 1 suppress the
    /// single-window tail events a stationary stream produces over a
    /// long run, at the cost of `patience - 1` extra windows of
    /// detection latency under real drift (which keeps every window
    /// above threshold).
    pub patience: usize,
}

impl DriftDetectorConfig {
    /// A conservative default: 64-sample windows, 4 warmup windows,
    /// 6-sigma threshold floored at 0.05.
    pub fn standard() -> Self {
        DriftDetectorConfig {
            window: 64,
            warmup_windows: 4,
            sigma: 6.0,
            min_threshold: 0.05,
            patience: 2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::BadDetectorConfig`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), MetricError> {
        if self.window < 2 {
            return Err(MetricError::BadDetectorConfig { field: "window" });
        }
        if self.warmup_windows == 0 {
            return Err(MetricError::BadDetectorConfig {
                field: "warmup_windows",
            });
        }
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(MetricError::BadDetectorConfig { field: "sigma" });
        }
        if !self.min_threshold.is_finite() || self.min_threshold <= 0.0 {
            return Err(MetricError::BadDetectorConfig {
                field: "min_threshold",
            });
        }
        if self.patience == 0 {
            return Err(MetricError::BadDetectorConfig { field: "patience" });
        }
        Ok(())
    }
}

/// What [`DriftDetector::observe`] concluded after an observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftStatus {
    /// Still filling the reference window or mid-window; no verdict.
    Filling,
    /// A warmup window completed; its distance feeds calibration.
    Calibrating {
        /// Wasserstein distance of the completed window to the reference.
        distance: f64,
    },
    /// A monitored window completed below threshold, or above it but
    /// without `patience` consecutive exceedances yet.
    Stable {
        /// Wasserstein distance of the completed window to the reference.
        distance: f64,
        /// The calibrated threshold it was compared against.
        threshold: f64,
    },
    /// A monitored window completed above threshold: drift.
    Drifted {
        /// Wasserstein distance of the completed window to the reference.
        distance: f64,
        /// The calibrated threshold it exceeded.
        threshold: f64,
    },
}

/// Sequential sliding-window drift detector for one device. See the
/// module docs for the reference/warmup/monitor lifecycle.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    cfg: DriftDetectorConfig,
    reference: Vec<f32>,
    buf: Vec<f32>,
    warmup_distances: Vec<f64>,
    threshold: Option<f64>,
    over_threshold_streak: usize,
    drifted: bool,
    observed: u64,
    non_finite: u64,
}

impl DriftDetector {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::BadDetectorConfig`] on a degenerate
    /// configuration.
    pub fn new(cfg: DriftDetectorConfig) -> Result<Self, MetricError> {
        cfg.validate()?;
        Ok(DriftDetector {
            cfg,
            reference: Vec::with_capacity(cfg.window),
            buf: Vec::with_capacity(cfg.window),
            warmup_distances: Vec::with_capacity(cfg.warmup_windows),
            threshold: None,
            over_threshold_streak: 0,
            drifted: false,
            observed: 0,
            non_finite: 0,
        })
    }

    /// Feeds one scalar observation; returns the verdict for this step.
    /// Window distances are only computed when a window completes, so
    /// all but every `window`-th call return in O(1). A NaN or infinite
    /// `x` is dropped: it enters no window and returns
    /// [`DriftStatus::Filling`].
    pub fn observe(&mut self, x: f32) -> DriftStatus {
        self.observed += 1;
        if !x.is_finite() {
            self.non_finite += 1;
            return DriftStatus::Filling;
        }
        if self.reference.len() < self.cfg.window {
            self.reference.push(x);
            return DriftStatus::Filling;
        }
        self.buf.push(x);
        if self.buf.len() < self.cfg.window {
            return DriftStatus::Filling;
        }
        let distance = wasserstein_1d_samples(&self.buf, &self.reference)
            .expect("both windows are full and hold only finite observations");
        self.buf.clear();
        match self.threshold {
            None => {
                self.warmup_distances.push(distance);
                if self.warmup_distances.len() == self.cfg.warmup_windows {
                    self.threshold = Some(self.calibrate());
                }
                DriftStatus::Calibrating { distance }
            }
            Some(threshold) => {
                if distance > threshold {
                    self.over_threshold_streak += 1;
                } else {
                    self.over_threshold_streak = 0;
                }
                if self.over_threshold_streak >= self.cfg.patience {
                    self.drifted = true;
                    DriftStatus::Drifted {
                        distance,
                        threshold,
                    }
                } else {
                    DriftStatus::Stable {
                        distance,
                        threshold,
                    }
                }
            }
        }
    }

    fn calibrate(&self) -> f64 {
        let n = self.warmup_distances.len() as f64;
        let mean = self.warmup_distances.iter().sum::<f64>() / n;
        let var = self
            .warmup_distances
            .iter()
            .map(|d| (d - mean) * (d - mean))
            .sum::<f64>()
            / n;
        let max = self.warmup_distances.iter().fold(0.0f64, |a, &d| a.max(d));
        // A handful of warmup windows undersells the stationary tail, so
        // the sigma rule alone false-positives on long drift-free runs;
        // doubling the worst warmup distance is a cheap robust floor.
        (mean + self.cfg.sigma * var.sqrt())
            .max(2.0 * max)
            .max(self.cfg.min_threshold)
    }

    /// The calibrated threshold, once warmup has completed.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Whether any monitored window has ever exceeded the threshold.
    pub fn has_drifted(&self) -> bool {
        self.drifted
    }

    /// Total observations fed in so far, dropped ones included.
    pub fn observations(&self) -> u64 {
        self.observed
    }

    /// How many of those observations were NaN or infinite and dropped.
    pub fn non_finite_dropped(&self) -> u64 {
        self.non_finite
    }

    /// Re-anchors the detector after re-customization: drops the
    /// reference, calibration, and drift flag so the detector re-learns
    /// the post-adaptation distribution from scratch. The observation
    /// counters are preserved (they meter detection latency).
    pub fn rebase(&mut self) {
        self.reference.clear();
        self.buf.clear();
        self.warmup_distances.clear();
        self.threshold = None;
        self.over_threshold_streak = 0;
        self.drifted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_runtime::Pool;
    use acme_tensor::SmallRng64;
    use rand::Rng;

    fn feed(det: &mut DriftDetector, xs: impl IntoIterator<Item = f32>) -> Vec<DriftStatus> {
        xs.into_iter().map(|x| det.observe(x)).collect()
    }

    fn cfg_small() -> DriftDetectorConfig {
        DriftDetectorConfig {
            window: 8,
            warmup_windows: 3,
            sigma: 4.0,
            min_threshold: 0.05,
            patience: 2,
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = cfg_small();
        c.window = 1;
        assert_eq!(
            DriftDetector::new(c).err(),
            Some(MetricError::BadDetectorConfig { field: "window" })
        );
        let mut c = cfg_small();
        c.warmup_windows = 0;
        assert_eq!(
            DriftDetector::new(c).err(),
            Some(MetricError::BadDetectorConfig {
                field: "warmup_windows"
            })
        );
        let mut c = cfg_small();
        c.sigma = f64::NAN;
        assert_eq!(
            DriftDetector::new(c).err(),
            Some(MetricError::BadDetectorConfig { field: "sigma" })
        );
        let mut c = cfg_small();
        c.min_threshold = 0.0;
        assert_eq!(
            DriftDetector::new(c).err(),
            Some(MetricError::BadDetectorConfig {
                field: "min_threshold"
            })
        );
        let mut c = cfg_small();
        c.patience = 0;
        assert_eq!(
            DriftDetector::new(c).err(),
            Some(MetricError::BadDetectorConfig { field: "patience" })
        );
    }

    #[test]
    fn constant_streams_never_trigger_across_seeds() {
        // A constant stream has zero warmup variance; the min_threshold
        // floor must keep it silent no matter the constant.
        for seed in 0..20u64 {
            let mut rng = SmallRng64::new(seed);
            let level: f32 = rng.gen_range(-5.0..5.0);
            let mut det = DriftDetector::new(cfg_small()).unwrap();
            for _ in 0..2000 {
                let s = det.observe(level);
                assert!(
                    !matches!(s, DriftStatus::Drifted { .. }),
                    "seed {seed} triggered on a constant stream"
                );
            }
            assert!(!det.has_drifted());
            assert_eq!(det.threshold(), Some(cfg_small().min_threshold));
        }
    }

    #[test]
    fn stationary_noise_never_triggers() {
        // Drift-free but noisy: warmup distances are representative of
        // monitoring distances, so mean + 4·sigma holds across seeds.
        for seed in 0..10u64 {
            let mut rng = SmallRng64::new(seed);
            let mut det = DriftDetector::new(DriftDetectorConfig {
                window: 32,
                warmup_windows: 8,
                sigma: 6.0,
                min_threshold: 0.05,
                patience: 2,
            })
            .unwrap();
            for _ in 0..4000 {
                let x: f32 = rng.gen_range(-1.0..1.0);
                det.observe(x);
            }
            assert!(!det.has_drifted(), "seed {seed} false-positived");
        }
    }

    #[test]
    fn mean_shift_is_detected() {
        let mut rng = SmallRng64::new(7);
        let mut det = DriftDetector::new(cfg_small()).unwrap();
        for _ in 0..640 {
            det.observe(rng.gen_range(-0.1..0.1));
        }
        assert!(!det.has_drifted());
        let mut latency = 0u64;
        for _ in 0..640 {
            latency += 1;
            let s = det.observe(2.0 + rng.gen_range(-0.1..0.1f32));
            if matches!(s, DriftStatus::Drifted { .. }) {
                break;
            }
        }
        assert!(det.has_drifted());
        // Detection needs at most patience + 1 windows after onset (one
        // straddling window may stay under threshold, the next
        // `patience` are fully shifted).
        assert!(latency <= 3 * 8, "latency {latency}");
    }

    #[test]
    fn stream_shorter_than_warmup_never_reaches_a_verdict() {
        // Reference (8) + 3 warmup windows = 32 observations before any
        // Stable/Drifted verdict is possible; a shorter stream only ever
        // sees Filling/Calibrating, even when it is wildly shifted.
        let mut det = DriftDetector::new(cfg_small()).unwrap();
        let statuses = feed(&mut det, (0..31).map(|i| if i < 16 { 0.0 } else { 100.0 }));
        assert!(statuses
            .iter()
            .all(|s| matches!(s, DriftStatus::Filling | DriftStatus::Calibrating { .. })));
        assert!(!det.has_drifted());
        assert_eq!(det.threshold(), None);
    }

    #[test]
    fn single_class_device_behaves_like_constant_stream() {
        // A device holding one class produces near-identical per-example
        // statistics; treat it as a tight cluster rather than a constant.
        let mut rng = SmallRng64::new(11);
        let mut det = DriftDetector::new(cfg_small()).unwrap();
        for _ in 0..1000 {
            let s = det.observe(0.7 + rng.gen_range(-0.01..0.01f32));
            assert!(!matches!(s, DriftStatus::Drifted { .. }));
        }
        assert!(!det.has_drifted());
    }

    #[test]
    fn non_finite_observations_are_dropped_and_counted() {
        // Regression: a NaN panicked inside the distance's sort at the
        // next window boundary. Dropped, the verdicts are those of the
        // same stream without the bad observations.
        let stream: Vec<f32> = (0..96)
            .map(|i| if i < 48 { 0.0 } else { 5.0 } + (i % 7) as f32 * 0.01)
            .collect();
        let mut clean = DriftDetector::new(cfg_small()).unwrap();
        let expected = feed(&mut clean, stream.iter().copied());
        assert!(clean.has_drifted());

        let mut det = DriftDetector::new(cfg_small()).unwrap();
        let mut verdicts = Vec::new();
        for (i, &x) in stream.iter().enumerate() {
            if i % 5 == 0 {
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
                assert_eq!(det.observe(bad), DriftStatus::Filling);
            }
            verdicts.push(det.observe(x));
        }
        assert_eq!(verdicts, expected);
        assert_eq!(det.non_finite_dropped(), 20);
        assert_eq!(det.observations(), 96 + 20);
        assert_eq!(clean.non_finite_dropped(), 0);
    }

    #[test]
    fn rebase_clears_the_drift_flag_and_relearns() {
        let mut det = DriftDetector::new(cfg_small()).unwrap();
        feed(&mut det, std::iter::repeat_n(0.0, 64));
        feed(&mut det, std::iter::repeat_n(5.0, 64));
        assert!(det.has_drifted());
        det.rebase();
        assert!(!det.has_drifted());
        assert_eq!(det.threshold(), None);
        // The new distribution is now "normal": no re-trigger.
        feed(&mut det, std::iter::repeat_n(5.0, 256));
        assert!(!det.has_drifted());
        assert!(det.observations() > 0);
    }

    #[test]
    fn fleet_of_detectors_is_thread_count_invariant() {
        // Each device owns its detector and stream, so running the fleet
        // under a pool must be bit-identical at 1, 2, and 4 threads.
        let run = |threads: usize| -> Vec<(bool, Option<f64>)> {
            let pool = Pool::new(threads);
            let devices: Vec<u64> = (0..12).collect();
            pool.par_map(devices, |_, dev| {
                let mut rng = SmallRng64::new(1000 + dev);
                let mut det = DriftDetector::new(cfg_small()).unwrap();
                let shift = if dev % 3 == 0 { 3.0 } else { 0.0 };
                for t in 0..512 {
                    let base = if t >= 256 { shift } else { 0.0 };
                    det.observe(base + rng.gen_range(-0.1..0.1f32));
                }
                (det.has_drifted(), det.threshold())
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        // And the drifted devices are exactly the shifted ones.
        for (dev, (drifted, _)) in one.iter().enumerate() {
            assert_eq!(*drifted, dev % 3 == 0, "device {dev}");
        }
    }
}
