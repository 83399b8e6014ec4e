//! f32 serving is pack-free from its first batch and allocation-free at
//! steady state: the engine reads every frozen weight in place, so no
//! batch packs a weight or leaves a packed copy behind, and after a
//! warmup pass, replaying the same batch schedule performs zero
//! tensor-buffer heap allocations. And the frozen backbone is bound by
//! reference: a served batch leaves no copy of its weights in the
//! buffer pool.
//!
//! This file holds a single test so it owns its test process — the pool,
//! the pack cache and the kernel timers are process-wide, and tensor
//! traffic from an unrelated test would perturb them.

use std::collections::BTreeMap;

use acme_obs::{metrics, trace};
use acme_serve::{loadgen, BatchEngine, ExitPolicy, Request, StoreConfig, VariantStore};
use acme_tensor::{packcache, pool, Graph};

/// Calls recorded so far of the f32 products (`gemm::gemm`'s naive and
/// blocked timers) and of the f32 packs (`tensor.gemm.pack_b`).
fn products_and_packs() -> (u64, u64) {
    let snap = metrics::snapshot();
    let count = |name| snap.histograms.get(name).map_or(0, |h| h.count);
    (
        count("tensor.gemm.naive") + count("tensor.gemm.blocked"),
        count("tensor.gemm.pack_b"),
    )
}

#[test]
fn steady_state_serving_is_pack_free_and_allocation_free() {
    acme_runtime::set_global_threads(1);

    // The bench-default store: every backbone weight sits at the
    // int8 cache's size floor, so an f32 copy would be kept if any were.
    let store = VariantStore::build(&StoreConfig::serving_default(4), 7);
    let requests = loadgen::trace(&store, 192, 7);
    let policy = ExitPolicy::calibrated(&store, &requests[..32], 0.6);
    let engine = BatchEngine::new(&store, policy);

    // A deterministic batch schedule (the server's coalescing depends on
    // wall-clock timing): per-device runs of up to 8 rows, so the warmup
    // and measured passes replay the identical buffer traffic.
    let mut by_device: BTreeMap<usize, Vec<Request>> = BTreeMap::new();
    for r in requests {
        by_device.entry(r.device).or_default().push(r);
    }
    let schedule: Vec<Vec<Request>> = by_device
        .into_values()
        .flat_map(|reqs| reqs.chunks(8).map(<[Request]>::to_vec).collect::<Vec<_>>())
        .collect();

    trace::set_enabled(true);
    let (products0, packs0) = products_and_packs();
    let mut g = Graph::new();
    for batch in &schedule {
        let _ = engine.serve_batch(&mut g, batch);
    }
    let (products1, packs1) = products_and_packs();
    assert_eq!(
        packs1, packs0,
        "f32 serving packed a weight in its first pass"
    );
    assert!(products1 > products0, "the weights' products must have run");
    assert_eq!(packcache::len(), 0, "f32 serving holds packed weights");

    pool::reset_stats();
    for batch in &schedule {
        let _ = engine.serve_batch(&mut g, batch);
    }
    trace::set_enabled(false);

    let (products2, packs2) = products_and_packs();
    assert_eq!(
        packs2, packs0,
        "steady-state serving packed a frozen weight"
    );
    assert_eq!(
        products2 - products1,
        products1 - products0,
        "the replayed schedule runs the same products"
    );
    assert_eq!(
        packcache::len(),
        0,
        "steady-state serving holds packed weights"
    );
    let stats = pool::stats();
    assert_eq!(
        stats.misses, 0,
        "steady-state serving allocated tensor buffers: {stats:?}"
    );
    assert!(stats.hits > 0, "steady-state takes are pool hits");

    // A batch of one run to the last exit binds every backbone weight; a
    // copied bind would return each copy to the pool at the reset.
    let backbone_bytes = 4 * store.clusters()[0].params.num_scalars() as u64;
    g.reset();
    pool::clear();
    let _ = BatchEngine::new(&store, ExitPolicy::never()).serve_batch(&mut g, &schedule[0][..1]);
    g.reset();
    let retained = pool::stats().retained_bytes;
    assert!(
        retained < backbone_bytes,
        "a served batch left {retained} B in the pool, one backbone is {backbone_bytes} B"
    );
}
