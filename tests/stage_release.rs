//! Phase 1 hands its buffers back: once the candidate pool is built, the
//! tensor pool's free lists are empty, and a run through the stages
//! still equals `Acme::run` field for field.
//!
//! This file holds a single test so it owns its test process — the pool
//! is process-wide, and another test's tensors would refill the free
//! lists under it.

use acme::{Acme, AcmeConfig};
use acme_tensor::pool;

#[test]
fn phase1_releases_the_pool_and_the_run_is_unchanged() {
    let config = AcmeConfig::builder()
        .quick()
        .seed(42)
        .threads(2)
        .build()
        .expect("quick preset is valid");
    let acme = Acme::try_new(config).expect("validated config");

    let pre = acme.pretrain().expect("quick pretraining");
    assert!(
        pool::stats().retained_bytes > 0,
        "pretraining leaves buffers on the free lists"
    );
    let candidates = acme.candidate_pool(&pre);
    assert!(!candidates.candidates.is_empty());
    assert_eq!(
        pool::stats().retained_bytes,
        0,
        "free-list bytes right after Phase 1"
    );

    let staged = acme.run_from(&pre).expect("run from pretraining");
    let whole = acme.run().expect("quick run");
    assert_eq!(staged.assignments, whole.assignments);
    assert_eq!(staged.devices, whole.devices);
    assert_eq!(staged.transfers, whole.transfers);
    assert_eq!(staged.header_search_space, whole.header_search_space);
}
