//! Phase 2-2: the edge–device single-loop refinement (Algorithm 2).

use acme_agg::{
    aggregate_importance, aggregation_weights, least_important,
    normalize_similarity_with_temperature, similarity_matrix_js, similarity_matrix_wasserstein_on,
    AggregationMethod,
};
use acme_data::{batch_indices, label_distribution, sample_indices, Dataset};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::{DeviceId, EdgeId};
use acme_nas::NasHeader;
use acme_nn::ParamSet;
use acme_runtime::Pool;
use acme_tensor::{Array, Graph, SmallRng64};
use acme_vit::headers::Header;
use acme_vit::{evaluate_header, fit_header, FrozenFeatures, TrainConfig, Vit};

use crate::error::AcmeError;
use crate::outcome::DeviceResult;

/// Hyperparameters of the refinement loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineConfig {
    /// Single-loop iterations `T`.
    pub loop_rounds: usize,
    /// Local header-training epochs per round.
    pub local_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate of local header training.
    pub lr: f32,
    /// Tail neurons discarded per round ("the preset number").
    pub drop_per_round: usize,
    /// How importance sets are fused across devices (Fig. 11's Alone /
    /// Avg / JS / ACME).
    pub method: AggregationMethod,
    /// Feature rows sampled per device for the similarity matrix
    /// (the paper's tiny random sample `D̃_i`).
    pub sim_sample: usize,
    /// Random projections of the sliced Wasserstein distance.
    pub sim_projections: usize,
    /// Softmax temperature of the Eq. (20) normalization (see
    /// [`acme_agg::normalize_similarity_with_temperature`]).
    pub sim_temperature: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            loop_rounds: 3,
            local_epochs: 2,
            batch_size: 16,
            lr: 3e-3,
            drop_per_round: 2,
            method: AggregationMethod::Wasserstein,
            sim_sample: 24,
            sim_projections: 12,
            sim_temperature: 0.02,
        }
    }
}

impl RefineConfig {
    /// A short schedule for tests.
    pub fn quick() -> Self {
        RefineConfig {
            loop_rounds: 2,
            local_epochs: 1,
            ..Self::default()
        }
    }
}

/// One participating device: its identity and local data split.
#[derive(Debug, Clone)]
pub struct DeviceSetup {
    /// The device.
    pub device: DeviceId,
    /// Private training data.
    pub train: Dataset,
    /// Private evaluation data.
    pub test: Dataset,
}

/// Outcome of [`refine_cluster`].
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// Per-device accuracies before/after the loop.
    pub results: Vec<DeviceResult>,
    /// The row-normalized aggregation weights used (devices × devices).
    pub weights: Vec<Vec<f64>>,
}

/// Extracts class-token features of up to `n` sampled examples — the
/// pre-trained-model embedding `P(D̃_i)` the Wasserstein similarity of
/// Eq. (20) is computed on.
pub fn backbone_features(
    backbone: &Vit,
    ps: &ParamSet,
    data: &Dataset,
    n: usize,
    rng: &mut SmallRng64,
) -> Array {
    let sample = data.sample(n, rng);
    let features = FrozenFeatures::compute(backbone, ps, &sample, sample.len());
    class_tokens(&features, &(0..sample.len()).collect::<Vec<_>>())
}

/// The class tokens `[indices.len(), dim]` of examples `indices`. With
/// `indices` drawn by [`sample_indices`] over features of a whole
/// dataset, this is [`backbone_features`] of that dataset — the same
/// examples, the same bits — with no backbone pass.
fn class_tokens(features: &FrozenFeatures, indices: &[usize]) -> Array {
    let mut g = Graph::new();
    let f = features.gather(&mut g, indices);
    g.value(f.cls).clone()
}

/// Per-tail-neuron importance of the header on the examples `features`
/// covers (Eqs. 16–18): for neuron `j`, the joint importance of its
/// incoming parameters, `Σ_i (g_ij · v_ij)² + (g_bj · v_bj)²`,
/// accumulated over up to `batches` minibatches.
#[allow(clippy::needless_range_loop)] // index loops mirror Eq. (17)'s per-parameter sums
pub fn header_neuron_importance(
    header: &NasHeader,
    ps: &ParamSet,
    features: &FrozenFeatures,
    batch_size: usize,
    batches: usize,
    rng: &mut SmallRng64,
) -> Vec<f64> {
    let hidden = header.shared().tail_hidden();
    let [w_id, b_id] = header.shared().tail_fc1().param_ids();
    let mut scores = vec![0.0f64; hidden];
    let mut g = Graph::new();
    for indices in batch_indices(features.len(), batch_size, rng)
        .iter()
        .take(batches)
    {
        g.reset();
        let feats = features.gather(&mut g, indices);
        let logits = header.forward(&mut g, ps, &feats);
        let labels: Vec<usize> = indices.iter().map(|&i| features.labels()[i]).collect();
        let loss = g.cross_entropy_logits(logits, &labels);
        g.backward(loss);
        let w_var = ps.bind(&mut g, w_id);
        let b_var = ps.bind(&mut g, b_id);
        let wv = ps.value(w_id);
        let bv = ps.value(b_id);
        if let Some(gw) = g.grad(w_var) {
            let (rows, cols) = (wv.shape()[0], wv.shape()[1]);
            for i in 0..rows {
                for j in 0..cols {
                    let x = (gw.data()[i * cols + j] as f64) * (wv.data()[i * cols + j] as f64);
                    scores[j] += x * x;
                }
            }
        }
        if let Some(gb) = g.grad(b_var) {
            for j in 0..hidden {
                let x = (gb.data()[j] as f64) * (bv.data()[j] as f64);
                scores[j] += x * x;
            }
        }
    }
    scores
}

/// Physically silences tail neurons: zeroes the fc1 column + bias and the
/// fc2 row of every index in `drops`. Call again after local training to
/// keep revived weights dead (the optimizer does not know about the
/// architectural decision).
pub fn apply_neuron_drops(ps: &mut ParamSet, header: &NasHeader, drops: &[usize]) {
    let [w1, b1] = header.shared().tail_fc1().param_ids();
    let [w2, _b2] = header.shared().tail_fc2().param_ids();
    let hidden = header.shared().tail_hidden();
    {
        let w = ps.value_mut(w1);
        let cols = w.shape()[1];
        let rows = w.shape()[0];
        for &j in drops {
            debug_assert!(j < hidden);
            for i in 0..rows {
                w.data_mut()[i * cols + j] = 0.0;
            }
        }
    }
    {
        let b = ps.value_mut(b1);
        for &j in drops {
            b.data_mut()[j] = 0.0;
        }
    }
    {
        let w = ps.value_mut(w2);
        let cols = w.shape()[1];
        for &j in drops {
            for c in 0..cols {
                w.data_mut()[j * cols + c] = 0.0;
            }
        }
    }
}

/// Runs Algorithm 2 for one cluster: every device receives the coarse
/// header (weights cloned from `base_ps`), freezes the backbone, and for
/// `T` rounds trains locally, uploads its importance set, receives the
/// personalized aggregate (Eq. 21), and discards its least important
/// neurons. Transfers are metered on `network` when provided; the
/// Wasserstein similarity matrix is computed pairwise on `pool`.
///
/// # Errors
///
/// Returns [`AcmeError::InvalidConfig`] when `devices` is empty or any
/// device has no train or no test data, and [`AcmeError::Metric`] when
/// the devices' features or label distributions yield no valid
/// similarity matrix.
#[allow(clippy::too_many_arguments)]
pub fn refine_cluster(
    pool: &Pool,
    edge: EdgeId,
    backbone: &Vit,
    header: &NasHeader,
    base_ps: &ParamSet,
    devices: &[DeviceSetup],
    cfg: &RefineConfig,
    network: Option<&Network>,
    rng: &mut SmallRng64,
) -> Result<RefineOutcome, AcmeError> {
    if devices.is_empty() {
        return Err(AcmeError::InvalidConfig("refinement needs devices".into()));
    }
    if let Some(d) = devices
        .iter()
        .find(|d| d.train.is_empty() || d.test.is_empty())
    {
        return Err(AcmeError::InvalidConfig(format!(
            "{} of {edge} has {} train and {} test samples",
            d.device,
            d.train.len(),
            d.test.len()
        )));
    }
    let n = devices.len();

    // The backbone is frozen throughout, so each device's train and test
    // features are computed once and serve the similarity sample, every
    // round's local training and importance scoring, and both
    // evaluations.
    let features: Vec<(FrozenFeatures, FrozenFeatures)> =
        pool.par_map(devices.iter().collect(), |_, d: &DeviceSetup| {
            let of = |data| FrozenFeatures::compute(backbone, base_ps, data, cfg.batch_size);
            (of(&d.train), of(&d.test))
        });

    // Eq. (19)–(20): similarity of the devices' data distributions,
    // measured on features extracted by the pre-trained backbone (the
    // paper's `P(D̃_i)`).
    let weights = match cfg.method {
        AggregationMethod::Wasserstein => {
            let feats: Vec<_> = features
                .iter()
                .map(|(train, _)| {
                    class_tokens(train, &sample_indices(train.len(), cfg.sim_sample, rng))
                })
                .collect();
            let sim = similarity_matrix_wasserstein_on(pool, &feats, cfg.sim_projections, rng)?;
            normalize_similarity_with_temperature(&sim, cfg.sim_temperature)?
        }
        AggregationMethod::Js => {
            let dists: Vec<_> = devices
                .iter()
                .map(|d| label_distribution(&d.train))
                .collect();
            let sim = similarity_matrix_js(&dists)?;
            normalize_similarity_with_temperature(&sim, cfg.sim_temperature)?
        }
        other => aggregation_weights(other, n, None),
    };

    // Device state: private parameter copies. The backbone reaches the
    // header only through the cached features, so it stays frozen.
    let mut device_ps: Vec<ParamSet> = (0..n).map(|_| base_ps.clone()).collect();
    let mut dropped: Vec<Vec<usize>> = vec![Vec::new(); n];
    let hidden = header.shared().tail_hidden();

    let before: Vec<f32> = features
        .iter()
        .zip(&device_ps)
        .map(|((_, test), ps)| evaluate_header(header, ps, test, cfg.batch_size))
        .collect();

    for round in 0..cfg.loop_rounds {
        // Local training + importance sets (device side).
        let mut sets = Vec::with_capacity(n);
        for (i, dev) in devices.iter().enumerate() {
            let seed = {
                use rand::RngCore;
                rng.fork(i as u64).next_u64()
            };
            let train_cfg = TrainConfig {
                epochs: cfg.local_epochs,
                batch_size: cfg.batch_size,
                lr: cfg.lr,
                clip: Some(5.0),
                seed,
                ..TrainConfig::default()
            };
            let train = &features[i].0;
            fit_header(header, &mut device_ps[i], train, &train_cfg);
            // Keep architecturally removed neurons dead.
            apply_neuron_drops(&mut device_ps[i], header, &dropped[i]);
            let set =
                header_neuron_importance(header, &device_ps[i], train, cfg.batch_size, 2, rng);
            if let Some(net) = network {
                net.meter(
                    NodeId::Device(dev.device),
                    NodeId::Edge(edge),
                    Payload::ImportanceUpload {
                        round,
                        values: set.iter().map(|&v| v as f32).collect(),
                    },
                );
            }
            sets.push(set);
        }
        // Personalized aggregation (edge side, Eq. 21) and distribution.
        for (i, dev) in devices.iter().enumerate() {
            let fused = aggregate_importance(&sets, &weights, i);
            if let Some(net) = network {
                net.meter(
                    NodeId::Edge(edge),
                    NodeId::Device(dev.device),
                    Payload::PersonalizedImportance {
                        round,
                        values: fused.iter().map(|&v| v as f32).collect(),
                    },
                );
            }
            // Device side: discard the least important *active* neurons,
            // keeping at least a quarter of the tail alive.
            let active: Vec<usize> = (0..hidden).filter(|j| !dropped[i].contains(j)).collect();
            let min_alive = (hidden / 4).max(1);
            let droppable = active
                .len()
                .saturating_sub(min_alive)
                .min(cfg.drop_per_round);
            if droppable > 0 {
                let active_scores: Vec<f64> = active.iter().map(|&j| fused[j]).collect();
                let worst = least_important(&active_scores, droppable);
                let new_drops: Vec<usize> = worst.iter().map(|&k| active[k]).collect();
                apply_neuron_drops(&mut device_ps[i], header, &new_drops);
                dropped[i].extend(new_drops);
            }
        }
    }

    let results = devices
        .iter()
        .zip(&features)
        .zip(&device_ps)
        .zip(before)
        .map(|(((dev, (_, test)), ps), acc_before)| DeviceResult {
            device: dev.device,
            edge,
            accuracy_before: acc_before,
            accuracy_after: evaluate_header(header, ps, test, cfg.batch_size),
        })
        .collect();
    Ok(RefineOutcome { results, weights })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_data::{cifar100_like, partition_iid, SyntheticSpec};
    use acme_nas::{HeaderArch, SharedParams};
    use acme_vit::VitConfig;

    fn setup() -> (Vit, NasHeader, ParamSet, Vec<DeviceSetup>, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(48), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(
            &mut ps,
            "sn",
            2,
            cfg.dim,
            cfg.grid(),
            ds.num_classes(),
            &mut rng,
        );
        let header = NasHeader::new(HeaderArch::chain(2, 1), shared);
        let parts = partition_iid(&ds, 3, &mut rng).unwrap();
        let devices = parts
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let (train, test) = p.split(0.7, &mut rng);
                DeviceSetup {
                    device: DeviceId(i),
                    train,
                    test,
                }
            })
            .collect();
        (vit, header, ps, devices, rng)
    }

    #[test]
    fn importance_scores_cover_all_neurons() {
        let (vit, header, ps, devices, mut rng) = setup();
        let train = FrozenFeatures::compute(&vit, &ps, &devices[0].train, 8);
        let scores = header_neuron_importance(&header, &ps, &train, 8, 2, &mut rng);
        assert_eq!(scores.len(), header.shared().tail_hidden());
        assert!(scores.iter().all(|&s| s >= 0.0 && s.is_finite()));
        assert!(scores.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn dropping_neurons_zeroes_their_weights() {
        let (_vit, header, mut ps, _devices, _rng) = setup();
        apply_neuron_drops(&mut ps, &header, &[0, 3]);
        let [w1, b1] = header.shared().tail_fc1().param_ids();
        let w = ps.value(w1);
        let cols = w.shape()[1];
        for i in 0..w.shape()[0] {
            assert_eq!(w.data()[i * cols], 0.0);
            assert_eq!(w.data()[i * cols + 3], 0.0);
        }
        assert_eq!(ps.value(b1).data()[0], 0.0);
    }

    #[test]
    fn refinement_improves_devices_and_meters_transfers() {
        let (vit, header, ps, devices, mut rng) = setup();
        let net = Network::new();
        let out = refine_cluster(
            &Pool::serial(),
            EdgeId(0),
            &vit,
            &header,
            &ps,
            &devices,
            &RefineConfig {
                local_epochs: 2,
                ..RefineConfig::quick()
            },
            Some(&net),
            &mut rng,
        )
        .expect("refine");
        assert_eq!(out.results.len(), 3);
        // With an untrained header, local training must help on average.
        let mean_impr: f32 = out
            .results
            .iter()
            .map(DeviceResult::improvement)
            .sum::<f32>()
            / 3.0;
        assert!(mean_impr > 0.0, "improvements {:?}", out.results);
        // Two rounds x 3 devices x (upload + downlink).
        assert_eq!(net.ledger().message_count(), 2 * 3 * 2);
        // Weight rows are convex.
        for row in &out.weights {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn all_aggregation_methods_run() {
        let (vit, header, ps, devices, mut rng) = setup();
        for method in AggregationMethod::all() {
            let cfg = RefineConfig {
                method,
                loop_rounds: 1,
                local_epochs: 1,
                ..RefineConfig::quick()
            };
            let out = refine_cluster(
                &Pool::serial(),
                EdgeId(0),
                &vit,
                &header,
                &ps,
                &devices,
                &cfg,
                None,
                &mut rng,
            )
            .expect("refine");
            assert_eq!(out.results.len(), 3, "method {method}");
        }
    }
}
