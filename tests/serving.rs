//! End-to-end serving integration: the batched multi-tenant server must
//! be bit-identical to the one-at-a-time reference at any worker count —
//! including which exit answered each request — and its counters must
//! publish through the unified observability registry.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use acme_nn::ParamSet;
use acme_serve::{
    serve, BatchEngine, BatcherConfig, ExitPolicy, Request, Response, ServeModelConfig,
    ServerConfig, StoreConfig, VariantStore,
};
use acme_store::{ContentHash, VariantDelta};
use acme_tensor::{Array, Graph, Precision, SmallRng64};

/// The serve counters and the obs registry are process-wide, so the
/// tests in this file must not interleave.
fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn test_store(devices: usize) -> VariantStore {
    VariantStore::build(
        &StoreConfig {
            clusters: 2,
            devices,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        },
        17,
    )
}

/// Seeded request mix over every device in the store.
fn test_requests(store: &VariantStore, n: usize, seed: u64) -> Vec<Request> {
    let [c, h, w] = store.input_shape();
    let devices = store.num_devices();
    let mut rng = SmallRng64::new(seed);
    (0..n)
        .map(|id| {
            let device = (rng.next_u64() as usize) % devices;
            let data = (0..c * h * w).map(|_| rng.unit_f32()).collect();
            Request {
                id,
                device,
                input: Array::from_vec(data, &[c, h, w]).expect("input volume"),
            }
        })
        .collect()
}

/// Bit pattern of everything numeric in a response.
fn bits(r: &Response) -> (usize, usize, usize, usize, u32, Vec<u32>) {
    (
        r.id,
        r.device,
        r.exit,
        r.class,
        r.confidence.to_bits(),
        r.logits.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn batched_server_is_bitwise_identical_to_sequential_reference() {
    let _g = serialize();
    let store = test_store(3);
    let reqs = test_requests(&store, 48, 5);
    // Calibrated threshold so the workload genuinely splits across exits;
    // otherwise the early-exit half of the claim is vacuous.
    let policy = ExitPolicy::calibrated(&store, &reqs[..16], 0.5);

    let mut g = Graph::new();
    let reference = BatchEngine::new(&store, policy).serve_sequential(&mut g, &reqs);
    let early = reference.iter().filter(|r| r.exit == 0).count();
    assert!(
        early > 0 && early < reference.len(),
        "reference traffic must mix exit decisions (early {early}/{})",
        reference.len()
    );

    for workers in [1usize, 2, 4] {
        let cfg = ServerConfig {
            workers,
            batcher: BatcherConfig {
                max_batch: 8,
                window: Duration::from_millis(1),
            },
            policy,
        };
        let report = serve(&store, &cfg, |b| {
            for r in &reqs {
                b.push(r.clone());
            }
        });
        assert_eq!(report.requests(), reqs.len(), "every request answered");
        // Completions are sorted by request id, matching the reference.
        for (c, r) in report.completions.iter().zip(&reference) {
            assert_eq!(
                bits(&c.response),
                bits(r),
                "request {} drifted at {workers} workers",
                r.id
            );
        }
    }
}

#[test]
fn a_mixed_variant_batch_equals_the_sequential_reference_bitwise() {
    let _g = serialize();
    // Devices 0, 2 and 4 run on backbone 0.
    let mut store = test_store(6);
    // Device 2 is hot-swapped to a re-personalized head first.
    let (classes, nudged) = {
        let v = store.device(2);
        let mut nudged = ParamSet::new();
        for id in v.params.ids() {
            let src = v.params.value(id);
            let data = src.data().iter().map(|&x| x + 0.125).collect();
            nudged.add(
                v.params.name(id),
                Array::from_vec(data, src.shape()).unwrap(),
            );
        }
        (v.classes.clone(), nudged)
    };
    let backbone = &store.clusters()[0].params;
    let hash = ContentHash::of_sealed(backbone);
    let delta = VariantDelta::encode(backbone, hash, &classes, &nudged);
    store.hot_swap(2, delta).unwrap();

    let mut reqs = test_requests(&store, 24, 31);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.device = [0, 2, 4, 2][i % 4];
    }
    let policy = ExitPolicy::calibrated(&store, &reqs, 0.5);
    let engine = BatchEngine::new(&store, policy);
    let mut g = Graph::new();
    let batched = engine.serve_batch(&mut g, &reqs);
    let reference = engine.serve_sequential(&mut g, &reqs);
    let early = reference.iter().filter(|r| r.exit == 0).count();
    assert!(
        early > 0 && early < reference.len(),
        "the batch must mix exit decisions (early {early}/{})",
        reference.len()
    );
    assert_eq!(batched.len(), reference.len());
    for (a, b) in batched.iter().zip(&reference) {
        assert_eq!(bits(a), bits(b), "request {} drifted", b.id);
    }
}

#[test]
fn serving_counters_publish_into_obs_registry() {
    let _g = serialize();
    let store = test_store(2);
    let reqs = test_requests(&store, 24, 9);
    let policy = ExitPolicy::calibrated(&store, &reqs[..8], 0.5);

    let req0 = acme_serve::metrics::requests();
    let batch0 = acme_serve::metrics::batches();
    acme_obs::trace::set_enabled(true);
    let report = serve(
        &store,
        &ServerConfig {
            workers: 2,
            batcher: BatcherConfig {
                max_batch: 8,
                window: Duration::from_millis(1),
            },
            policy,
        },
        |b| {
            for r in &reqs {
                b.push(r.clone());
            }
        },
    );
    // No publish call here: `serve()` publishes the serving counters as
    // it returns.
    acme_tensor::publish_obs_metrics();
    acme_obs::trace::set_enabled(false);

    assert_eq!(
        acme_serve::metrics::requests() - req0,
        reqs.len() as u64,
        "request counter advanced by the run"
    );
    assert_eq!(
        acme_serve::metrics::batches() - batch0,
        report.batches,
        "batch counter matches the report"
    );

    let snap = acme_obs::metrics::snapshot();
    assert_eq!(
        snap.counter("serve.requests"),
        acme_serve::metrics::requests(),
        "registry mirrors the process-wide request total"
    );
    assert_eq!(
        snap.counter("serve.early_exits"),
        acme_serve::metrics::early_exits()
    );
    let hist = snap
        .histograms
        .get("serve.batch_size")
        .expect("batch-size histogram registered");
    assert!(
        hist.count >= report.batches,
        "histogram saw this run's batches"
    );
    assert!(
        snap.counters.contains_key("tensor.packcache.hits"),
        "pack-cache counters ride along on the serve path"
    );
}
