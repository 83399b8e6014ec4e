//! The int8 pack cache forgets a parameter store when the store is
//! dropped: a `ParamSet` clone bound and multiplied on an int8 graph
//! leaves nothing behind, and a hot-swapped int8 serving variant takes
//! its packed heads with it.
//!
//! This file holds a single test so it owns its test process — the pack
//! cache is process-wide, and an unrelated test's stores would move
//! `packcache::len()` under it.

use acme_nn::ParamSet;
use acme_serve::{BatchEngine, ExitPolicy, Request, StoreConfig, VariantStore};
use acme_store::{ContentHash, VariantDelta};
use acme_tensor::{packcache, randn, Array, Graph, Precision, SmallRng64};

#[test]
fn dropped_stores_leave_no_packed_weights_behind() {
    let mut rng = SmallRng64::new(3);

    // A clone packs under its own store id; dropping it frees the entry.
    let mut params = ParamSet::new();
    let w = params.add("w", randn(&[64, 64], &mut rng));
    let before = packcache::len();
    {
        let clone = params.clone();
        let mut g = Graph::new();
        g.set_matmul_precision(Precision::Int8);
        let x = g.constant(Array::ones(&[2, 64]));
        let wv = clone.bind(&mut g, w);
        g.matmul(x, wv).unwrap();
        assert_eq!(packcache::len(), before + 1, "the clone's weight packs");
    }
    assert_eq!(packcache::len(), before, "a dropped store is forgotten");

    // Heads of `[64, 64]` sit at the cache floor, so a device's int8
    // variant owns cache entries of its own.
    let mut cfg = StoreConfig {
        clusters: 1,
        keep_classes: 64,
        precision: Precision::Int8,
        ..StoreConfig::serving_default(2)
    };
    cfg.model.vit.classes = 64;
    let mut store = VariantStore::build(&cfg, 11);
    let [c, h, w] = store.input_shape();
    let batch = [Request {
        id: 0,
        device: 0,
        input: randn(&[c, h, w], &mut rng),
    }];
    let serve = |s: &VariantStore| {
        let engine = BatchEngine::new(s, ExitPolicy::never());
        engine.serve_batch(&mut Graph::new(), &batch)
    };
    serve(&store);
    let warm = packcache::len();

    let backbone = &store.clusters()[0].params;
    let hash = ContentHash::of_sealed(backbone);
    let v = store.device(0);
    let delta = VariantDelta::encode(backbone, hash, &v.classes, &v.params);
    store.hot_swap(0, delta).unwrap();
    assert!(
        packcache::len() < warm,
        "the replaced variant's packed heads go with it"
    );
    serve(&store);
    assert_eq!(
        packcache::len(),
        warm,
        "the new variant packs in their place"
    );
}
