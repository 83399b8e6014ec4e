//! The batched early-exit inference engine.
//!
//! A batch of same-shape requests for any variants of one cluster
//! backbone runs that backbone once. At each exit every variant in the
//! batch scores the `[CLS]` tokens of its own rows still in flight with
//! its pruned head; confident rows return immediately and the survivors
//! are *compacted* (a row gather) before the next block, so deep blocks
//! only ever see the hard inputs.
//!
//! Every operation along this path is row-independent and accumulates in
//! a batch-size-invariant order, so a batched run is **bit-identical**
//! to serving the same requests one at a time — batching composition is
//! a pure scheduling decision, never an accuracy one.

use acme_tensor::{pool, Array, Graph};

use crate::variant::VariantStore;

/// One inference request against a device variant.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-assigned id, echoed in the [`Response`].
    pub id: usize,
    /// Device variant to serve (resolved via [`VariantStore::device`]).
    pub device: usize,
    /// Input image, shape `[channels, image, image]`.
    pub input: Array,
}

/// The served result for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: usize,
    /// Echo of [`Request::device`].
    pub device: usize,
    /// Which exit produced the answer (index into the variant's exits).
    pub exit: usize,
    /// Predicted *global* class id (mapped through the device's kept
    /// class list).
    pub class: usize,
    /// Softmax confidence of the prediction.
    pub confidence: f32,
    /// Raw logits over the device's kept classes.
    pub logits: Vec<f32>,
}

/// When a row may leave at a non-final exit: as soon as its softmax
/// confidence reaches `confidence`. The final exit takes whatever
/// remains. Calibrate against observed traffic with
/// [`ExitPolicy::calibrated`].
#[derive(Debug, Clone, Copy)]
pub struct ExitPolicy {
    /// Minimum softmax maximum to leave early.
    pub confidence: f32,
}

impl ExitPolicy {
    /// A policy that never exits early (every row runs the full depth).
    pub fn never() -> Self {
        ExitPolicy { confidence: 2.0 }
    }

    /// A policy that always takes the first exit.
    pub fn always() -> Self {
        ExitPolicy {
            confidence: f32::NEG_INFINITY,
        }
    }

    /// Sets the threshold at the `quantile`-th first-exit confidence of
    /// `probe` requests, so roughly `1 - quantile` of comparable traffic
    /// leaves at the first exit. Self-calibrating: no assumption about
    /// the absolute confidence scale of the (possibly untrained) model.
    ///
    /// # Panics
    ///
    /// Panics when `probe` is empty or `quantile` is outside `[0, 1]`.
    pub fn calibrated(store: &VariantStore, probe: &[Request], quantile: f64) -> Self {
        assert!(!probe.is_empty(), "need probe traffic to calibrate");
        assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
        let engine = BatchEngine::new(store, ExitPolicy::always());
        let mut g = Graph::new();
        let mut confs: Vec<f32> = probe
            .iter()
            .map(|r| engine.serve_batch(&mut g, std::slice::from_ref(r))[0].confidence)
            .collect();
        confs.sort_by(f32::total_cmp);
        let idx = ((confs.len() - 1) as f64 * quantile).round() as usize;
        ExitPolicy {
            confidence: confs[idx],
        }
    }
}

/// Serves batches of same-shape requests on one cluster backbone against
/// a [`VariantStore`].
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine<'a> {
    store: &'a VariantStore,
    policy: ExitPolicy,
}

impl<'a> BatchEngine<'a> {
    /// An engine over `store` with the given exit policy.
    pub fn new(store: &'a VariantStore, policy: ExitPolicy) -> Self {
        BatchEngine { store, policy }
    }

    /// Runs one coalesced batch. All requests must target variants of the
    /// same cluster backbone and share an input shape; responses come back
    /// in request order.
    ///
    /// The embedding and the blocks run once for the whole batch. At each
    /// exit the live rows are grouped by variant, in order of first
    /// appearance, and each group's `[CLS]` rows go through that
    /// variant's head; survivors keep their row order.
    ///
    /// The graph is `reset` and reused, so a long-lived caller performs
    /// no per-batch graph allocation, and the frozen backbone weights are
    /// bound by reference and hit the pack cache on every product.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, mixed backbones, or a shape mismatch with
    /// the store's model.
    pub fn serve_batch(&self, g: &mut Graph, requests: &[Request]) -> Vec<Response> {
        assert!(!requests.is_empty(), "serve_batch: empty batch");
        let cluster = self.store.cluster_of(requests[0].device);
        assert!(
            requests
                .iter()
                .all(|r| std::ptr::eq(self.store.cluster_of(r.device), cluster)),
            "serve_batch: batch mixes backbones"
        );
        let shape = self.store.input_shape();
        assert!(
            requests.iter().all(|r| r.input.shape() == shape),
            "serve_batch: batch mixes input shapes"
        );

        // The batch's devices in order of first appearance, and each
        // row's index into them.
        let mut devices: Vec<usize> = Vec::new();
        let variant_of: Vec<usize> = requests
            .iter()
            .map(|r| match devices.iter().position(|&d| d == r.device) {
                Some(v) => v,
                None => {
                    devices.push(r.device);
                    devices.len() - 1
                }
            })
            .collect();
        let variants: Vec<_> = devices.iter().map(|&d| self.store.device(d)).collect();

        let cfg = cluster.vit.config();
        let (b, dim, tokens) = (requests.len(), cfg.dim, cfg.num_tokens());

        let mut pixels = pool::take(b * shape.iter().product::<usize>());
        for r in requests {
            pixels.extend_from_slice(r.input.data());
        }
        let images = Array::from_vec(pixels, &[b, shape[0], shape[1], shape[2]])
            .expect("stacked batch volume");

        g.reset();
        // Deploy precision of the store: int8 stores route every
        // pack-cache-eligible frozen product through the quantized
        // engine; f32 stores leave the graph exactly as before (the
        // knob survives reset, but re-asserting it keeps a shared graph
        // correct across stores of different precisions).
        g.set_matmul_precision(self.store.precision());
        let mut x = cluster.vit.embed(g, &cluster.params, &images);
        let exits = cluster.exits.exit_layers();
        let last_exit = exits.len() - 1;
        let mut next_exit = 0usize;
        // Original row index (into `requests`) of each still-alive row.
        let mut alive: Vec<usize> = (0..b).collect();
        let mut out: Vec<Option<Response>> = vec![None; b];

        for (l, blk) in cluster.vit.blocks().iter().enumerate() {
            x = blk.forward(g, &cluster.params, x);
            if next_exit >= exits.len() || exits[next_exit] != l {
                continue;
            }
            let e = next_exit;
            next_exit += 1;
            let k = alive.len();
            let normed = cluster.exits.norms()[e].forward(g, &cluster.params, x);
            let cls = g.slice_axis(normed, 1, 0, 1);
            let cls = g.reshape(cls, &[k, dim]);
            let mut stays = vec![false; k];
            for (v, variant) in variants.iter().enumerate() {
                let rows: Vec<usize> = (0..k).filter(|&row| variant_of[alive[row]] == v).collect();
                if rows.is_empty() {
                    continue;
                }
                let own = if rows.len() == k {
                    cls
                } else {
                    g.embedding(cls, &rows)
                };
                let [wid, bid] = variant.head_ids[e];
                let w = variant.bind(g, wid);
                let bias = variant.bind(g, bid);
                let logits = g.linear(own, w, bias);
                let classes = variant.classes.len();
                let logit_rows = g.value(logits).data();
                for (i, &row) in rows.iter().enumerate() {
                    let row_logits = &logit_rows[i * classes..(i + 1) * classes];
                    let (top, confidence) = softmax_top(row_logits);
                    if e == last_exit || confidence >= self.policy.confidence {
                        let orig = alive[row];
                        out[orig] = Some(Response {
                            id: requests[orig].id,
                            device: devices[v],
                            exit: e,
                            class: variant.classes[top],
                            confidence,
                            logits: row_logits.to_vec(),
                        });
                    } else {
                        stays[row] = true;
                    }
                }
            }
            let keep: Vec<usize> = (0..k).filter(|&row| stays[row]).collect();
            if keep.is_empty() {
                break;
            }
            if keep.len() < k {
                // Compact: gather surviving rows so the remaining blocks
                // only process the hard inputs.
                let flat = g.reshape(x, &[k, tokens * dim]);
                let gathered = g.embedding(flat, &keep);
                x = g.reshape(gathered, &[keep.len(), tokens, dim]);
                alive = keep.into_iter().map(|row| alive[row]).collect();
            }
        }

        out.into_iter()
            .map(|r| r.expect("final exit answers every row"))
            .collect()
    }

    /// Reference path: serves each request in its own batch of one.
    /// Differential tests compare [`Self::serve_batch`] against this
    /// bitwise.
    pub fn serve_sequential(&self, g: &mut Graph, requests: &[Request]) -> Vec<Response> {
        requests
            .iter()
            .flat_map(|r| self.serve_batch(g, std::slice::from_ref(r)))
            .collect()
    }
}

/// Top class and softmax confidence of one logit row. Shared by the
/// batched and sequential paths so the comparison is bit-exact; the
/// in-tree `exp` keeps the confidence (and so every early-exit decision)
/// independent of the host's libm.
fn softmax_top(logits: &[f32]) -> (usize, f32) {
    let mut top = 0usize;
    let mut max = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > max {
            max = v;
            top = i;
        }
    }
    (top, 1.0 / acme_tensor::fastmath::exp_sum(logits, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{ServeModelConfig, StoreConfig, VariantStore};
    use acme_tensor::{Precision, SmallRng64};
    use rand::RngCore;

    fn store() -> VariantStore {
        VariantStore::build(
            &StoreConfig {
                clusters: 2,
                devices: 3,
                keep_classes: 4,
                model: ServeModelConfig::tiny(),
                precision: Precision::F32,
            },
            11,
        )
    }

    fn requests(store: &VariantStore, device: usize, n: usize, seed: u64) -> Vec<Request> {
        let [c, h, w] = store.input_shape();
        let mut rng = SmallRng64::new(seed);
        (0..n)
            .map(|id| {
                let data = (0..c * h * w)
                    .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
                    .collect();
                Request {
                    id,
                    device,
                    input: Array::from_vec(data, &[c, h, w]).expect("input volume"),
                }
            })
            .collect()
    }

    #[test]
    fn int8_store_serves_and_hits_quantized_cache() {
        let cfg = StoreConfig {
            clusters: 1,
            keep_classes: 4,
            ..StoreConfig::quantized_default(2, Precision::Int8)
        };
        let store_i8 = VariantStore::build(&cfg, 21);
        let f32_cfg = StoreConfig {
            precision: Precision::F32,
            ..cfg.clone()
        };
        let store_f32 = VariantStore::build(&f32_cfg, 21);
        let reqs = requests(&store_i8, 0, 4, 13);
        let mut g = Graph::new();
        let packs0 = acme_tensor::packcache::i8_packs();
        let i8_batched =
            BatchEngine::new(&store_i8, ExitPolicy::never()).serve_batch(&mut g, &reqs);
        assert!(
            acme_tensor::packcache::i8_packs() > packs0,
            "int8 serving must quantize-and-pack the frozen weights"
        );
        // Int8 batched serving keeps the engine's batch-invariance
        // contract: identical to serving the rows one at a time.
        let i8_seq =
            BatchEngine::new(&store_i8, ExitPolicy::never()).serve_sequential(&mut g, &reqs);
        assert_eq!(i8_batched, i8_seq);
        // Same variants at f32 produce close (not identical) logits:
        // quantization perturbs values without breaking the ranking on
        // this well-separated toy input.
        let f32_out = BatchEngine::new(&store_f32, ExitPolicy::never()).serve_batch(&mut g, &reqs);
        for (a, b) in i8_batched.iter().zip(&f32_out) {
            assert_eq!(a.logits.len(), b.logits.len());
            for (x, y) in a.logits.iter().zip(&b.logits) {
                assert!((x - y).abs() < 0.15, "quantized logit drifted: {x} vs {y}");
            }
        }
        // A second int8 pass over the same store is all cache hits.
        let hits0 = acme_tensor::packcache::i8_hits();
        let packs1 = acme_tensor::packcache::i8_packs();
        BatchEngine::new(&store_i8, ExitPolicy::never()).serve_batch(&mut g, &reqs);
        assert!(acme_tensor::packcache::i8_hits() > hits0);
        assert_eq!(
            acme_tensor::packcache::i8_packs(),
            packs1,
            "steady-state int8 serving re-packs nothing"
        );
    }

    #[test]
    fn batched_matches_sequential_bitwise() {
        let store = store();
        let reqs = requests(&store, 1, 6, 5);
        let policy = ExitPolicy::calibrated(&store, &reqs, 0.5);
        let engine = BatchEngine::new(&store, policy);
        let mut g = Graph::new();
        let batched = engine.serve_batch(&mut g, &reqs);
        let sequential = engine.serve_sequential(&mut g, &reqs);
        assert_eq!(batched, sequential);
        let bits = |r: &Response| {
            (
                r.confidence.to_bits(),
                r.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        for (a, b) in batched.iter().zip(&sequential) {
            assert_eq!(bits(a), bits(b), "request {} drifted", a.id);
        }
    }

    #[test]
    fn calibrated_policy_splits_traffic_across_exits() {
        let store = store();
        let reqs = requests(&store, 0, 16, 9);
        let policy = ExitPolicy::calibrated(&store, &reqs, 0.5);
        let engine = BatchEngine::new(&store, policy);
        let mut g = Graph::new();
        let responses = engine.serve_batch(&mut g, &reqs);
        let early = responses.iter().filter(|r| r.exit == 0).count();
        assert!(early > 0, "no request exited early");
        assert!(early < responses.len(), "every request exited early");
    }

    #[test]
    fn exit_extremes() {
        let store = store();
        let reqs = requests(&store, 2, 4, 3);
        let mut g = Graph::new();
        let never = BatchEngine::new(&store, ExitPolicy::never()).serve_batch(&mut g, &reqs);
        assert!(never.iter().all(|r| r.exit == 1));
        let always = BatchEngine::new(&store, ExitPolicy::always()).serve_batch(&mut g, &reqs);
        assert!(always.iter().all(|r| r.exit == 0));
    }

    #[test]
    fn responses_map_to_kept_classes() {
        let store = store();
        let reqs = requests(&store, 0, 5, 1);
        let engine = BatchEngine::new(&store, ExitPolicy::never());
        let mut g = Graph::new();
        for r in engine.serve_batch(&mut g, &reqs) {
            assert!(store.device(0).classes.contains(&r.class));
            assert_eq!(r.logits.len(), store.device(0).classes.len());
        }
    }
}
