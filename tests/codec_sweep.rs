//! One hostile-input sweep over every framed format (`ACME` checkpoint,
//! `ACMD` delta, `ACMS` manifest, `ACMR` run checkpoint): the generic
//! [`codec_sweep`] harness, the golden bytes that pin each encoder's
//! output, and the named regressions as re-sealed bodies.
//!
//! "Re-sealed" is the point: a mutated body is framed again with a valid
//! digest, so hostile counts, ranks, name lengths, tags and dims reach
//! the parser instead of dying at the checksum.

use std::fmt::Debug;
use std::time::Duration;

use acme_distsys::protocol::{DropPoint, NodeStatus, RetryPolicy};
use acme_distsys::{
    DriverKind, KindRow, Link, LinkClass, LinkModel, NodeId, ProtocolConfig, RunCheckpoint,
    SimConfig, TransferReport,
};
use acme_energy::{Device, DeviceCluster, DeviceId, EdgeId, Fleet};
use acme_nn::wire::{digest128, encoded_len, open, seal, ByteWriter, Codec, WireError};
use acme_nn::{Activation, ParamSet};
use acme_obs::mem::{thread_allocs, CountingAlloc};
use acme_serve::{ManifestVariant, Precision, ServeModelConfig, StoreManifest};
use acme_store::{ContentHash, DeltaOp, VariantDelta};
use acme_tensor::Array;
use acme_vit::VitConfig;

/// Records the largest single allocation each thread requests, so the
/// sweep can assert that no decode sizes a buffer from a length the
/// stream merely declares.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_alloc_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (out, allocs) = thread_allocs(f);
    (out, allocs.largest)
}

/// A decode may allocate at most this many times the blob's length: the
/// widest in-memory element over its narrowest wire form is `DeltaOp`
/// (80 bytes) over an empty-named op (6 bytes).
const ALLOC_FACTOR: usize = 16;

/// splitmix64, apart from `SmallRng64`, so the goldens pin the formats
/// and nothing of the workspace's generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| (self.next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    }

    fn hash(&mut self) -> ContentHash {
        let mut h = [0u8; 16];
        h[..8].copy_from_slice(&self.next().to_le_bytes());
        h[8..].copy_from_slice(&self.next().to_le_bytes());
        ContentHash(h)
    }
}

fn sample_params() -> ParamSet {
    let mut m = Mix(0xace1);
    let mut ps = ParamSet::new();
    ps.add("w", Array::from_vec(m.f32s(12), &[3, 4]).unwrap());
    let mut bias = m.f32s(4);
    bias[0] = f32::NAN;
    bias[1] = -0.0;
    let b = ps.add("ünïcode.bias", Array::from_vec(bias, &[4]).unwrap());
    ps.set_trainable(b, false);
    ps.add("scalar", Array::scalar(7.5));
    ps
}

fn sample_delta() -> VariantDelta {
    let mut m = Mix(0xace2);
    let mut values = m.f32s(12);
    values[0] = f32::NAN;
    values[1] = -0.0;
    VariantDelta {
        backbone: m.hash(),
        classes: vec![1, 3, 6],
        ops: vec![
            DeltaOp::Same {
                name: "trunk.w".into(),
                trainable: false,
            },
            DeltaOp::PrunedCols {
                name: "exit1.head.b".into(),
                trainable: true,
            },
            DeltaOp::Changed {
                name: "exit1.head.w".into(),
                shape: vec![4, 3],
                values,
                trainable: true,
            },
        ],
    }
}

fn sample_manifest() -> StoreManifest {
    let mut m = Mix(0xace3);
    StoreManifest {
        model: ServeModelConfig {
            vit: VitConfig {
                image: 16,
                patch: 4,
                channels: 3,
                dim: 32,
                depth: 4,
                heads: 4,
                head_dim: 8,
                mlp_hidden: 64,
                classes: 10,
            },
            exit_layers: vec![1, 3],
            activation: Activation::Gelu,
        },
        precision: Precision::Int8,
        backbones: vec![m.hash(), m.hash()],
        variants: (0..5)
            .map(|d| ManifestVariant {
                cluster: d % 2,
                delta: m.hash(),
            })
            .collect(),
    }
}

fn sample_run() -> RunCheckpoint {
    let status = |node, completed_rounds, dropped_at, retries| NodeStatus {
        node,
        completed_rounds,
        dropped_at,
        retries,
    };
    RunCheckpoint {
        fleet: Fleet::new(vec![
            DeviceCluster::new(
                EdgeId(0),
                vec![
                    Device::new(0, 3.5, 50_000_000)
                        .with_patches(4)
                        .with_batch_size(8),
                    Device::new(1, 4.25, 60_000_000),
                ],
            ),
            DeviceCluster::new(EdgeId(1), vec![]),
            DeviceCluster::new(EdgeId(2), vec![Device::new(2, 7.0, 110_000_000)]),
        ]),
        config: ProtocolConfig {
            loop_rounds: 4,
            backbone_params: 40_000,
            header_params: 4_000,
            header_tokens: 12,
            importance_len: 4_000,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(20),
                cap: Duration::from_millis(200),
            },
            min_quorum: 1,
        },
        rounds_done: 2,
        report: TransferReport {
            messages: 40,
            total_bytes: 1_234_567,
            uplink_bytes: 234_567,
            retransmissions: 2,
            retransmitted_bytes: 8_032,
            per_kind: vec![
                KindRow {
                    kind: "importance-upload".into(),
                    messages: 6,
                    uplink_bytes: 96_096,
                    downlink_bytes: 0,
                    link: LinkClass::DeviceEdge,
                },
                KindRow {
                    kind: "backbone-assignment".into(),
                    messages: 3,
                    uplink_bytes: 0,
                    downlink_bytes: 1_314_048,
                    link: LinkClass::EdgeCloud,
                },
            ],
        },
        nodes: vec![
            status(NodeId::Cloud, 3, None, 0),
            status(NodeId::Edge(EdgeId(0)), 2, None, 1),
            status(NodeId::Device(DeviceId(0)), 1, Some(DropPoint::Round(1)), 2),
            status(NodeId::Device(DeviceId(1)), 2, None, 0),
            status(NodeId::Edge(EdgeId(1)), 0, Some(DropPoint::Setup), 0),
            status(NodeId::Edge(EdgeId(2)), 2, None, 0),
            status(NodeId::Device(DeviceId(2)), 2, None, 0),
        ],
        driver: DriverKind::Sim,
        sim: SimConfig {
            links: LinkModel {
                device_edge: Link::try_new(SAMPLE_BANDWIDTH, 0.0075).unwrap(),
                edge_cloud: Link::try_new(1.5e6, 0.055).unwrap(),
            },
            seed: 7,
            jitter: 0.05,
        },
    }
}

/// The sample run's device-edge bandwidth, a bit pattern the body holds
/// once.
const SAMPLE_BANDWIDTH: f64 = 3.25e6;

/// Frames an arbitrary body as a `T` blob with a valid digest.
fn reseal<T: Codec>(body: &[u8]) -> Vec<u8> {
    let mut out = T::MAGIC.to_vec();
    out.extend_from_slice(&T::VERSION.to_le_bytes());
    out.extend_from_slice(body);
    let digest = digest128(&out);
    out.extend_from_slice(&digest);
    out
}

/// The body bytes of a sealed blob.
fn body_of(sealed: &[u8]) -> &[u8] {
    &sealed[8..sealed.len() - 16]
}

fn err_of<T: Codec + Debug>(blob: &[u8]) -> WireError {
    open::<T>(blob).expect_err("hostile blob must not open")
}

fn codec_sweep<T: Codec + PartialEq + Debug>(sample: T) {
    let tag = String::from_utf8_lossy(&T::MAGIC).into_owned();
    let good = seal(&sample);
    let body = body_of(&good);

    // Round trip, and the one byte count.
    assert_eq!(open::<T>(&good).unwrap(), sample, "{tag}: round trip");
    assert_eq!(encoded_len(&sample), good.len() as u64, "{tag}: length");
    assert_eq!(reseal::<T>(body), good, "{tag}: reseal is the real frame");

    // Every truncation point and a bit flip at every byte err.
    for cut in 0..good.len() {
        assert!(open::<T>(&good[..cut]).is_err(), "{tag}: cut at {cut}");
    }
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 1 << (pos % 8);
        assert!(open::<T>(&bad).is_err(), "{tag}: flip at {pos}");
    }

    // The frame's named errors, in the documented order: a blob wrong in
    // magic, version and digest at once reports the magic; with the
    // magic restored, the version; then the digest; a body with one
    // well-sealed extra byte, the trailing byte.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    bad[4..8].copy_from_slice(&(T::VERSION + 1).to_le_bytes());
    assert_eq!(err_of::<T>(&bad), WireError::BadMagic, "{tag}");
    bad[0] ^= 0xff;
    assert_eq!(
        err_of::<T>(&bad),
        WireError::UnsupportedVersion(T::VERSION + 1),
        "{tag}"
    );
    bad[4..8].copy_from_slice(&T::VERSION.to_le_bytes());
    bad.push(0);
    assert_eq!(err_of::<T>(&bad), WireError::BadChecksum, "{tag}");
    let mut longer = body.to_vec();
    longer.push(0);
    assert_eq!(
        err_of::<T>(&reseal::<T>(&longer)),
        WireError::TrailingBytes,
        "{tag}"
    );

    // Seeded mutation storm over the body, re-sealed so every mutant
    // reaches the parser: no panic, no allocation sized from a declared
    // length, and whatever still opens re-seals to something that opens.
    let mut rng = Mix(u64::from(u32::from_le_bytes(T::MAGIC)));
    for round in 0..4000 {
        let mut mutant = body.to_vec();
        for _ in 0..1 + rng.below(4) {
            let pos = rng.below(mutant.len());
            match rng.below(4) {
                0 => mutant[pos] = rng.next() as u8,
                1 => mutant[pos] ^= 1 << rng.below(8),
                // Saturate a whole field: counts, ranks and dims are
                // 4 or 8 bytes wide.
                2 => mutant.iter_mut().skip(pos).take(4).for_each(|b| *b = 0xff),
                _ => mutant.iter_mut().skip(pos).take(8).for_each(|b| *b = 0xff),
            }
        }
        let blob = reseal::<T>(&mutant);
        let (opened, largest) = largest_alloc_during(|| open::<T>(&blob));
        assert!(
            largest <= ALLOC_FACTOR * blob.len(),
            "{tag}: round {round} allocated {largest} bytes decoding a {}-byte blob",
            blob.len()
        );
        if let Ok(value) = opened {
            assert!(open::<T>(&seal(&value)).is_ok(), "{tag}: round {round}");
        }
    }
}

#[test]
fn sweep_acme_checkpoint() {
    codec_sweep(sample_params());
}

#[test]
fn sweep_acmd_delta() {
    codec_sweep(sample_delta());
}

#[test]
fn sweep_acms_manifest() {
    codec_sweep(sample_manifest());
}

#[test]
fn sweep_acmr_run_checkpoint() {
    codec_sweep(sample_run());
}

/// Captured at the commit before the four encoders moved onto the shared
/// frame (`ACMR` re-captured at its v2 body: sim links in, deploy tag
/// out); a mismatch means an encoder's bytes changed.
#[test]
fn golden_bytes() {
    for (sealed, golden) in [
        (seal(&sample_params()), "31851f99b6497d98bb33d49ff848bec9"),
        (seal(&sample_delta()), "16be6e150ef35f57a335c3838c23b717"),
        (seal(&sample_manifest()), "4d0a19da6b4a757ea03c60c977a66ec0"),
        (seal(&sample_run()), "fb44cb95d5485511bae6f10d63b3508f"),
    ] {
        assert_eq!(ContentHash::of(&sealed).to_hex(), golden);
    }
}

#[test]
fn checkpoint_downgraded_to_v1_is_rejected() {
    // v1 was the same stream without the digest; its reader is gone, so
    // rewriting the version field must not buy an unverified parse.
    let mut blob = acme_nn::save_params(&sample_params());
    blob[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        acme_nn::load_params(&blob).unwrap_err(),
        WireError::UnsupportedVersion(1)
    );
}

/// One `ACME` parameter record up to its rank field, named "w".
fn param_record_head(w: &mut ByteWriter, rank: u32) {
    w.str("w");
    w.u8(1);
    w.u32(rank);
}

#[test]
fn checkpoint_hostile_lengths_fail_before_allocating() {
    let err = |body: ByteWriter| {
        let blob = reseal::<ParamSet>(&body.into_vec());
        let (e, largest) = largest_alloc_during(|| err_of::<ParamSet>(&blob));
        assert!(largest <= ALLOC_FACTOR * blob.len(), "allocated {largest}");
        e
    };
    // A parameter count the stream cannot carry.
    for count in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let mut w = ByteWriter::default();
        w.u64(count);
        w.bytes(&[0u8; 64]);
        assert_eq!(err(w), WireError::Truncated);
    }
    // A 4 GiB name against a 2-byte remainder.
    let mut w = ByteWriter::default();
    w.u64(1);
    w.u32(u32::MAX);
    w.bytes(b"ab");
    assert_eq!(err(w), WireError::Truncated);
    // A rank of ~4 billion.
    let mut w = ByteWriter::default();
    w.u64(1);
    param_record_head(&mut w, u32::MAX);
    w.bytes(&[0u8; 32]);
    assert_eq!(err(w), WireError::Truncated);
    // Dims whose product wraps u64.
    let mut w = ByteWriter::default();
    w.u64(1);
    param_record_head(&mut w, 3);
    for d in [1u64 << 32, 1 << 32, 16] {
        w.u64(d);
    }
    assert_eq!(err(w), WireError::BadShape);
    // A volume that fits u64 but not the stream.
    let mut w = ByteWriter::default();
    w.u64(1);
    param_record_head(&mut w, 2);
    for d in [1u64 << 20, 1 << 20] {
        w.u64(d);
    }
    assert_eq!(err(w), WireError::Truncated);
}

#[test]
fn delta_hostile_bodies_are_typed_errors() {
    let err = |body: ByteWriter| err_of::<VariantDelta>(&reseal::<VariantDelta>(&body.into_vec()));
    // A class count the stream cannot carry.
    let mut w = ByteWriter::default();
    w.bytes(&[0u8; 16]);
    w.u32(u32::MAX);
    assert_eq!(err(w), WireError::Truncated);
    // A Changed op (tag 2) whose dims wrap.
    let mut w = ByteWriter::default();
    w.bytes(&[0u8; 16]);
    w.u32(0);
    w.u32(1);
    w.u8(2);
    param_record_head(&mut w, 3);
    for d in [1u64 << 32, 1 << 32, 16] {
        w.u64(d);
    }
    assert_eq!(err(w), WireError::BadShape);
    // An op tag with no meaning.
    let mut w = ByteWriter::default();
    w.bytes(&[0u8; 16]);
    w.u32(0);
    w.u32(1);
    w.u8(9);
    w.str("w");
    w.u8(1);
    assert_eq!(err(w), WireError::BadTag(9));
}

#[test]
fn manifest_that_would_panic_the_model_constructors_is_bad_shape() {
    // Each of these decoded fine before and then divided by zero in
    // `VitConfig::num_patches` or tripped `MultiExitVit::new`'s asserts
    // inside `VariantStore::from_store`, or (an empty fleet) restored a
    // store that panicked on first use: `input_shape` indexes cluster 0,
    // `loadgen::trace` draws from `devices - 1`.
    let rejects = |edit: fn(&mut StoreManifest)| {
        let mut m = sample_manifest();
        edit(&mut m);
        assert_eq!(err_of::<StoreManifest>(&seal(&m)), WireError::BadShape);
    };
    rejects(|m| m.model.vit.patch = 0);
    rejects(|m| m.model.vit.patch = 5);
    rejects(|m| m.model.vit.heads = 0);
    rejects(|m| m.model.exit_layers.clear());
    rejects(|m| m.model.exit_layers = vec![3, 3]);
    rejects(|m| m.model.exit_layers = vec![1, 2]);
    rejects(|m| m.model.exit_layers = vec![1, 4]);
    rejects(|m| m.variants.clear());
    rejects(|m| {
        m.backbones.clear();
        m.variants.clear();
    });
}

#[test]
fn manifest_activation_tags_past_gelu_are_bad_tags() {
    // Tags 2 and 3 were tanh and identity, which no program deploys; the
    // manifest now knows only relu (0) and gelu (1).
    let m = sample_manifest();
    let mut body = body_of(&seal(&m)).to_vec();
    // Nine u64 model dims, the u32 exit count, one u64 per exit.
    let at = 9 * 8 + 4 + 8 * m.model.exit_layers.len();
    assert_eq!(body[at], 1, "the sample deploys gelu");
    for tag in [2u8, 3] {
        body[at] = tag;
        assert_eq!(
            err_of::<StoreManifest>(&reseal::<StoreManifest>(&body)),
            WireError::BadTag(tag)
        );
    }
}

#[test]
fn run_checkpoint_that_would_panic_on_resume_is_bad_shape() {
    // Zero clusters used to reach `Fleet::new`'s assert.
    let mut body = body_of(&seal(&sample_run())).to_vec();
    body[..4].copy_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        err_of::<RunCheckpoint>(&reseal::<RunCheckpoint>(&body)),
        WireError::BadShape
    );
    // Node statuses that are not the fleet's own (one missing; two out
    // of order) used to decode and then trip `merge_statuses`' asserts
    // inside `resume_segment`.
    let rejects = |edit: fn(&mut RunCheckpoint)| {
        let mut ck = sample_run();
        edit(&mut ck);
        assert_eq!(err_of::<RunCheckpoint>(&seal(&ck)), WireError::BadShape);
    };
    rejects(|ck| {
        ck.nodes.pop();
    });
    rejects(|ck| ck.nodes.swap(2, 3));
    rejects(|ck| ck.nodes.clear());
}

#[test]
fn run_checkpoint_with_a_negative_bandwidth_is_bad_shape() {
    // `Link`'s fields are private, so only a hostile body can carry a
    // link `Link::try_new` rejects; decoding checks it the same way.
    let mut body = body_of(&seal(&sample_run())).to_vec();
    let good = SAMPLE_BANDWIDTH.to_le_bytes();
    let at = body
        .windows(8)
        .position(|w| w == good)
        .expect("the sample's bandwidth is in the body");
    body[at..at + 8].copy_from_slice(&(-SAMPLE_BANDWIDTH).to_le_bytes());
    assert_eq!(
        err_of::<RunCheckpoint>(&reseal::<RunCheckpoint>(&body)),
        WireError::BadShape
    );
}
