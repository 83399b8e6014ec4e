//! Steady-state serving is pack-free and allocation-free: after a warmup
//! pass, replaying the same batch schedule inserts nothing into the
//! pack cache and performs zero tensor-buffer heap allocations. And the
//! frozen backbone is bound by reference: a served batch leaves no copy
//! of its weights in the buffer pool.
//!
//! This file holds a single test so it owns its test process — the pool
//! and pack-cache counters are process-wide, and tensor traffic from an
//! unrelated test would perturb them.

use std::collections::BTreeMap;

use acme_serve::{loadgen, BatchEngine, ExitPolicy, Request, StoreConfig, VariantStore};
use acme_tensor::{packcache, pool, Graph};

#[test]
fn steady_state_serving_is_pack_free_and_allocation_free() {
    acme_runtime::set_global_threads(1);

    // The bench-default store: every backbone weight sits at the
    // pack-cache size floor, so the serve path genuinely exercises it.
    let store = VariantStore::build(&StoreConfig::serving_default(4), 7);
    let trace = loadgen::trace(&store, 192, 7);
    let policy = ExitPolicy::calibrated(&store, &trace[..32], 0.6);
    let engine = BatchEngine::new(&store, policy);

    // A deterministic batch schedule (the server's coalescing depends on
    // wall-clock timing): per-device runs of up to 8 rows, so the warmup
    // and measured passes replay the identical buffer traffic.
    let mut by_device: BTreeMap<usize, Vec<Request>> = BTreeMap::new();
    for r in trace {
        by_device.entry(r.device).or_default().push(r);
    }
    let schedule: Vec<Vec<Request>> = by_device
        .into_values()
        .flat_map(|reqs| reqs.chunks(8).map(<[Request]>::to_vec).collect::<Vec<_>>())
        .collect();

    let mut g = Graph::new();
    for batch in &schedule {
        let _ = engine.serve_batch(&mut g, batch);
    }
    assert!(
        packcache::packs() > 0,
        "warmup must populate the pack cache, or the steady-state claim is vacuous"
    );

    let packs0 = packcache::packs();
    let hits0 = packcache::hits();
    pool::reset_stats();
    for batch in &schedule {
        let _ = engine.serve_batch(&mut g, batch);
    }

    assert_eq!(
        packcache::packs(),
        packs0,
        "steady-state serving re-packed a frozen weight"
    );
    assert!(
        packcache::hits() > hits0,
        "steady-state products must be served from the pack cache"
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
