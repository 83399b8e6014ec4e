//! Property tests of the structural delta codec: bitwise reconstruction,
//! encode∘apply identity, and wire round-trips over randomized
//! backbone/variant pairs.

use acme_check::cases;
use acme_nn::{save_params, ParamSet};
use acme_store::{ContentHash, DeltaOp, VariantDelta};
use acme_tensor::{randn, Array, SmallRng64};
use rand::RngCore;

/// A random backbone: a trunk matrix plus one head over `total` classes.
fn make_backbone(seed: u64, dim: usize, total: usize) -> (ParamSet, ContentHash) {
    let mut rng = SmallRng64::new(seed);
    let mut ps = ParamSet::new();
    ps.add("trunk.w", randn(&[dim, dim], &mut rng));
    ps.add("head.w", randn(&[dim, total], &mut rng));
    let b = ps.add("head.b", randn(&[total], &mut rng));
    ps.set_trainable(b, false);
    let hash = ContentHash::of(&save_params(&ps));
    (ps, hash)
}

/// A variant derived the way serving does: shared trunk, class-pruned
/// head, optionally personalized (which flips the op from PrunedCols to
/// Changed).
fn make_variant(backbone: &ParamSet, classes: &[usize], personalize: bool, seed: u64) -> ParamSet {
    let mut rng = SmallRng64::new(seed);
    let ids: Vec<_> = backbone.ids().collect();
    let mut v = ParamSet::new();
    v.add("trunk.w", backbone.value(ids[0]).clone());
    let w_full = backbone.value(ids[1]);
    let b_full = backbone.value(ids[2]);
    let (dim, total) = (w_full.shape()[0], w_full.shape()[1]);
    let mut w = Vec::with_capacity(dim * classes.len());
    for row in 0..dim {
        for &c in classes {
            let mut x = w_full.data()[row * total + c];
            if personalize {
                x += ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.1;
            }
            w.push(x);
        }
    }
    let b: Vec<f32> = classes.iter().map(|&c| b_full.data()[c]).collect();
    v.add("head.w", Array::from_vec(w, &[dim, classes.len()]).unwrap());
    let bid = v.add("head.b", Array::from_vec(b, &[classes.len()]).unwrap());
    v.set_trainable(bid, false);
    v
}

fn pick_classes(seed: u64, total: usize, keep: usize) -> Vec<usize> {
    let mut rng = SmallRng64::new(seed ^ 0xc1a55);
    let mut ids: Vec<usize> = (0..total).collect();
    for i in 0..keep {
        let j = i + (rng.next_u64() as usize) % (total - i);
        ids.swap(i, j);
    }
    let mut classes = ids[..keep].to_vec();
    classes.sort_unstable();
    classes
}

fn assert_bitwise_equal(a: &ParamSet, b: &ParamSet) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.ids().zip(b.ids()) {
        assert_eq!(a.name(x), b.name(y));
        assert_eq!(a.is_trainable(x), b.is_trainable(y));
        assert_eq!(a.value(x).shape(), b.value(y).shape());
        for (p, q) in a.value(x).data().iter().zip(b.value(y).data()) {
            assert_eq!(p.to_bits(), q.to_bits(), "value drift in {}", a.name(x));
        }
    }
}

#[test]
fn apply_of_encode_is_bitwise_identity() {
    cases(32, |g| {
        let seed = g.u64(0..1_000);
        let dim = g.usize(2..8);
        let total = g.usize(4..12);
        let personalize = g.u32(0..2) == 1;
        let keep = 2 + (seed as usize) % (total - 1).min(5);
        let classes = pick_classes(seed, total, keep.min(total));
        let (backbone, hash) = make_backbone(seed, dim, total);
        let variant = make_variant(&backbone, &classes, personalize, seed);
        let delta = VariantDelta::encode(&backbone, hash, &classes, &variant);
        let rebuilt = delta.apply(&backbone).unwrap();
        assert_bitwise_equal(&variant, &rebuilt);
    });
}

#[test]
fn encode_apply_encode_is_identity() {
    cases(32, |g| {
        let seed = g.u64(0..1_000);
        let dim = g.usize(2..8);
        let total = g.usize(4..12);
        let personalize = g.u32(0..2) == 1;
        let keep = 2 + (seed as usize) % (total - 1).min(5);
        let classes = pick_classes(seed, total, keep.min(total));
        let (backbone, hash) = make_backbone(seed, dim, total);
        let variant = make_variant(&backbone, &classes, personalize, seed);
        let delta = VariantDelta::encode(&backbone, hash, &classes, &variant);
        let redelta =
            VariantDelta::encode(&backbone, hash, &classes, &delta.apply(&backbone).unwrap());
        assert!(redelta == delta, "encode ∘ apply must be a fixpoint");
    });
}

#[test]
fn wire_roundtrip_is_exact() {
    cases(32, |g| {
        let seed = g.u64(0..1_000);
        let dim = g.usize(2..8);
        let total = g.usize(4..12);
        let classes = pick_classes(seed, total, 2.min(total));
        let (backbone, hash) = make_backbone(seed, dim, total);
        let variant = make_variant(&backbone, &classes, true, seed);
        let delta = VariantDelta::encode(&backbone, hash, &classes, &variant);
        let bytes = delta.to_bytes();
        assert_eq!(bytes.len() as u64, delta.bytes());
        let back = VariantDelta::from_bytes(&bytes).unwrap();
        assert!(back == delta);
        // And the reconstruction through the wire is still bitwise.
        assert_bitwise_equal(&variant, &back.apply(&backbone).unwrap());
    });
}

#[test]
fn unpersonalized_variant_ships_no_weights() {
    cases(32, |g| {
        let seed = g.u64(0..200);
        let dim = g.usize(2..8);
        let total = g.usize(4..12);
        // A pure structural prune must encode to Same/PrunedCols ops
        // only — no Changed payload, so the delta stays near-constant
        // size no matter how large the backbone is.
        let classes = pick_classes(seed, total, 3.min(total));
        let (backbone, hash) = make_backbone(seed, dim, total);
        let variant = make_variant(&backbone, &classes, false, seed);
        let delta = VariantDelta::encode(&backbone, hash, &classes, &variant);
        assert!(delta
            .ops
            .iter()
            .all(|op| !matches!(op, DeltaOp::Changed { .. })));
        assert!(
            delta.bytes() < 200,
            "structural delta too big: {}",
            delta.bytes()
        );
    });
}
