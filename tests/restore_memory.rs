//! A restore lays each cluster out over its decoded backbone: no cluster
//! is first built with a random backbone that the decoded one replaces,
//! so rebuilding a cluster holds one backbone where it used to hold two.
//!
//! This file holds a single test so it owns its process: it installs the
//! counting allocator and reads the process-wide high-water mark.

use acme_obs::mem::{self, CountingAlloc};
use acme_serve::{StoreConfig, VariantStore};
use acme_store::ModelStore;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_restore_draws_no_throwaway_backbone() {
    let cfg = StoreConfig::serving_default(4);
    let built = VariantStore::build(&cfg, 7);
    let mut models = ModelStore::in_memory();
    let root = built.persist(&mut models).unwrap();
    let backbone = 4 * built.clusters()[0].params.num_scalars();
    drop(built);

    mem::reset_peak();
    let before = mem::peak().peak_bytes;
    let restored = VariantStore::from_store(&models, root).unwrap();
    let grew = mem::peak().peak_bytes - before;
    assert_eq!(restored.clusters().len(), cfg.clusters);
    // The restored clusters' backbones stay, and decoding costs a little
    // on top; a rebuild that drew a throwaway backbone held a whole one
    // more (3.1 backbones over the start, against 2.1 laid out).
    let bound = cfg.clusters * backbone + backbone / 2;
    assert!(
        grew < bound,
        "from_store peaked {grew} B over its start, past {bound} B ({} clusters of {backbone} B)",
        cfg.clusters
    );
}
