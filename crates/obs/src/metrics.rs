//! Metrics registry: named counters, gauges and fixed-bound
//! histograms.
//!
//! This is the single home for the workspace's operational counters —
//! tensor pool hits/misses, pack-cache packs, ledger retransmissions,
//! protocol retries — which individual crates publish here (see
//! `acme_tensor::publish_obs_metrics` and the protocol runtime).
//! Mutation is gated on [`crate::trace::enabled`], so a run that never
//! opts into observability pays one relaxed atomic load per call site.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Default microsecond bucket upper bounds used by [`observe_us`] (an
/// implicit overflow bucket follows the last bound).
const DEFAULT_US_BOUNDS: [f64; 16] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 1e5, 1e6, 1e7,
];

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, fixed at first observation.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the last
    /// is the overflow bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }
}

struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Sets the named counter to an absolute value — the bridge for
/// counters maintained elsewhere (tensor pool statics, ledger
/// totals) that are published into the registry at snapshot points.
pub fn set_counter(name: &'static str, value: u64) {
    if !crate::enabled() {
        return;
    }
    registry().lock().unwrap().counters.insert(name, value);
}

/// Sets the named gauge.
pub fn set_gauge(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    registry().lock().unwrap().gauges.insert(name, value);
}

/// Records `value` into the named histogram with explicit bucket
/// bounds (fixed at the first observation; later `bounds` arguments
/// are ignored).
pub fn observe(name: &'static str, bounds: &[f64], value: f64) {
    if !crate::enabled() {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .histograms
        .entry(name)
        .or_insert_with(|| Histogram::new(bounds))
        .observe(value);
}

/// Records a microsecond duration with [`DEFAULT_US_BOUNDS`].
pub fn observe_us(name: &'static str, us: f64) {
    observe(name, &DEFAULT_US_BOUNDS, us);
}

/// Copies the registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap();
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        counts: h.counts.clone(),
                        count: h.count,
                        sum: h.sum,
                    },
                )
            })
            .collect(),
    }
}

/// Clears every metric (used between runs and by tests).
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    reg.counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}
