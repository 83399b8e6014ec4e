//! Seeded heavy-traffic load generation.
//!
//! A trace is a firehose: every request is available at once, and
//! device popularity follows a classic Zipf law (exponent 1), so a few
//! hot variants dominate. Every draw comes from one [`SmallRng64`], so a
//! seed fully determines the trace. Paced open-loop arrivals are the
//! caller's to schedule.

use acme_tensor::{pool, Array, SmallRng64};

use crate::engine::Request;
use crate::variant::VariantStore;

/// Generates a firehose trace of `requests` arrivals for `store` up
/// front, one exact trace per `seed` (inputs are uniform noise images
/// drawn into pooled buffers, which return to the [`pool`] when a served
/// request is dropped; ids are sequential).
pub fn trace(store: &VariantStore, requests: usize, seed: u64) -> Vec<Request> {
    let mut rng = SmallRng64::new(seed);
    let devices = store.num_devices();
    // Zipf CDF over devices ranked by index: weight 1 / rank.
    let weights: Vec<f64> = (0..devices).map(|d| 1.0 / (d + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(devices);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let [c, h, w] = store.input_shape();
    (0..requests)
        .map(|id| {
            let u = rng.unit_f64();
            let device = cdf.partition_point(|&p| p < u).min(devices - 1);
            let mut data = pool::take(c * h * w);
            data.extend((0..c * h * w).map(|_| rng.unit_f32()));
            Request {
                id,
                device,
                input: Array::from_vec(data, &[c, h, w]).expect("input volume"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{ServeModelConfig, StoreConfig, VariantStore};
    use acme_tensor::Precision;

    fn store(devices: usize) -> VariantStore {
        VariantStore::build(
            &StoreConfig {
                clusters: 2,
                devices,
                keep_classes: 4,
                model: ServeModelConfig::tiny(),
                precision: Precision::F32,
            },
            5,
        )
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let store = store(6);
        let a = trace(&store, 40, 9);
        let b = trace(&store, 40, 9);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.device, y.device);
            assert_eq!(x.input.data(), y.input.data());
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranked_devices() {
        let store = store(8);
        let reqs = trace(&store, 400, 3);
        let mut counts = vec![0usize; 8];
        for r in &reqs {
            counts[r.device] += 1;
        }
        assert!(
            counts[0] > counts[7] * 2,
            "rank-0 device should dominate: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c <= 400));
    }

    #[test]
    fn devices_stay_in_range() {
        let store = store(3);
        let reqs = trace(&store, 100, 1);
        assert!(reqs.iter().all(|r| r.device < 3));
    }
}
