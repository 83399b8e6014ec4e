//! Restoring and dropping a serving store leaves the buffer pool no
//! larger than the first restore did: the pool keeps only buffers it can
//! hand back, so a process that restores, serves and drops model stores
//! over and over does not keep every dropped backbone resident.
//!
//! This file holds a single test so it owns its test process — the pool
//! is process-wide, and an unrelated test's tensors would move
//! `retained_bytes` under it.

use acme_serve::{StoreConfig, VariantStore};
use acme_store::ModelStore;
use acme_tensor::pool;

#[test]
fn repeated_restores_retain_no_more_pool_bytes_than_the_first() {
    acme_runtime::set_global_threads(1);

    // Both kinds of capacity a buffer born outside the pool (a decoded
    // checkpoint value, a `kaiming_uniform` initialisation) can have: the
    // MLP's 64×96 and 96×64 weights are not a bucket size, the
    // attention's 64×64 weights are.
    let mut cfg = StoreConfig {
        keep_classes: 8,
        ..StoreConfig::serving_default(6)
    };
    cfg.model.vit.mlp_hidden = 96;
    // Only the persisted blobs outlive a cycle: each cycle restores the
    // fleet, materializes every variant, persists it again and drops it.
    let mut blobs = ModelStore::in_memory();
    let first = VariantStore::build(&cfg, 5).persist(&mut blobs).unwrap();
    let mut root = first;
    let mut retained = Vec::new();
    for _ in 0..3 {
        let restored = VariantStore::from_store(&blobs, root).unwrap();
        restored.materialize_all();
        let mut next = ModelStore::in_memory();
        root = restored.persist(&mut next).unwrap();
        drop(restored);
        blobs = next;
        retained.push(pool::stats().retained_bytes);
    }
    assert_eq!(root, first, "a restored fleet persists to the same bytes");
    assert!(
        retained[0] > 0,
        "the restore must route buffers through the pool"
    );
    assert_eq!(
        retained[2], retained[0],
        "pool bytes after each restore-and-drop cycle: {retained:?}"
    );
}
