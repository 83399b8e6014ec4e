//! Persisting a [`VariantStore`] into a content-addressed
//! [`ModelStore`] and rebuilding it from blobs.
//!
//! The storage layout is the paper's economics made literal: each
//! cluster backbone is checkpointed **once** as a content-hashed blob
//! (every device of the cluster references the same address), and each
//! device variant is a [`VariantDelta`] — kept-class prune mask plus
//! its personalized exit heads, a few kilobytes against a backbone of
//! hundreds. A [`StoreManifest`] blob ties the fleet together; its
//! address is all a serving process needs to come back up.
//!
//! Reconstruction is lazy and bit-exact: [`VariantStore::from_store`]
//! rebuilds the cluster backbones eagerly (they are shared) but leaves
//! every device slot as a validated delta; the first request against a
//! device materializes it, and the materialized variant is bitwise
//! identical to the one [`VariantStore::persist`] saw — serving outputs
//! cannot drift across a persist/restore cycle.
//!
//! `ACMS` manifest body grammar (inside the [`acme_store::wire`] frame):
//!
//! ```text
//! model: image, patch, channels, dim, depth, heads, head_dim,
//!        mlp_hidden, classes (u64 x 9)
//! exit count u32 | exit layer u64 x count
//! activation u8 | precision u8
//! backbone count u32 | backbone hash 16 x count
//! variant count u32 | per variant: cluster u32 | delta hash 16
//! ```

use acme_nn::{Activation, LayoutError, ParamSet};
use acme_runtime::Pool;
use acme_store::wire::Sealed;
use acme_store::{
    wire, ByteReader, ByteWriter, Codec, ContentHash, ModelStore, StoreError, VariantDelta,
    WireError,
};
use acme_tensor::{Precision, SmallRng64};
use acme_vit::{MultiExitVit, VitConfig};

use crate::variant::{admit, ClusterModel, ServeModelConfig, VariantSlot, VariantStore};

/// One device entry in a [`StoreManifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestVariant {
    /// Index into [`StoreManifest::backbones`].
    pub cluster: u32,
    /// Address of the device's [`VariantDelta`] blob.
    pub delta: ContentHash,
}

/// The root object of a persisted fleet: model shape, deploy precision,
/// backbone blob addresses, and one delta address per device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreManifest {
    /// The served model shape (needed to rebuild backbone skeletons).
    pub model: ServeModelConfig,
    /// Deploy precision of the fleet.
    pub precision: Precision,
    /// Per-cluster backbone checkpoint addresses.
    pub backbones: Vec<ContentHash>,
    /// Per-device delta addresses, in device order.
    pub variants: Vec<ManifestVariant>,
}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Gelu => 1,
    }
}

fn activation_from_tag(t: u8) -> Result<Activation, WireError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::Gelu,
        t => return Err(WireError::BadTag(t)),
    })
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::Int8 => 1,
    }
}

fn precision_from_tag(t: u8) -> Result<Precision, WireError> {
    Ok(match t {
        0 => Precision::F32,
        1 => Precision::Int8,
        t => return Err(WireError::BadTag(t)),
    })
}

impl StoreManifest {
    /// Parses a sealed `ACMS` blob; see [`wire::open`] for the check
    /// order.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreManifest, WireError> {
        wire::open(bytes)
    }
}

impl Codec for StoreManifest {
    const MAGIC: [u8; 4] = *b"ACMS";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut ByteWriter) {
        let v = &self.model.vit;
        for dim in [
            v.image,
            v.patch,
            v.channels,
            v.dim,
            v.depth,
            v.heads,
            v.head_dim,
            v.mlp_hidden,
            v.classes,
        ] {
            w.usize(dim);
        }
        w.count(self.model.exit_layers.len());
        for &e in &self.model.exit_layers {
            w.usize(e);
        }
        w.u8(activation_tag(self.model.activation));
        w.u8(precision_tag(self.precision));
        w.count(self.backbones.len());
        for h in &self.backbones {
            w.bytes(&h.0);
        }
        w.count(self.variants.len());
        for v in &self.variants {
            w.u32(v.cluster);
            w.bytes(&v.delta.0);
        }
    }

    /// Also checks what [`VariantStore::from_store`] builds a model
    /// from — a [`VitConfig`] that validates, exit layers
    /// [`MultiExitVit::check_layout`] accepts, and at least one backbone
    /// and one variant — so a manifest that decodes cannot trip the model
    /// constructors' asserts or leave a store with nothing to serve.
    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let vit = VitConfig {
            image: r.usize()?,
            patch: r.usize()?,
            channels: r.usize()?,
            dim: r.usize()?,
            depth: r.usize()?,
            heads: r.usize()?,
            head_dim: r.usize()?,
            mlp_hidden: r.usize()?,
            classes: r.usize()?,
        };
        let n_exits = r.count(8)?;
        let mut exit_layers = Vec::with_capacity(n_exits);
        for _ in 0..n_exits {
            exit_layers.push(r.usize()?);
        }
        if vit.validate().is_err() || MultiExitVit::check_layout(&exit_layers, vit.depth).is_err() {
            return Err(WireError::BadShape);
        }
        let activation = activation_from_tag(r.u8()?)?;
        let precision = precision_from_tag(r.u8()?)?;
        let n_backbones = r.count(16)?;
        if n_backbones == 0 {
            return Err(WireError::BadShape);
        }
        let mut backbones = Vec::with_capacity(n_backbones);
        for _ in 0..n_backbones {
            backbones.push(ContentHash::read(r)?);
        }
        let n_variants = r.count(20)?;
        if n_variants == 0 {
            return Err(WireError::BadShape);
        }
        let mut variants = Vec::with_capacity(n_variants);
        for _ in 0..n_variants {
            variants.push(ManifestVariant {
                cluster: r.u32()?,
                delta: ContentHash::read(r)?,
            });
        }
        Ok(StoreManifest {
            model: ServeModelConfig {
                vit,
                exit_layers,
                activation,
            },
            precision,
            backbones,
            variants,
        })
    }
}

/// Rebuilds a [`ClusterModel`] from a checkpointed backbone
/// [`ParamSet`]: the cluster is laid out over the decoded values
/// ([`ParamSet::lay_out`], which assigns `ParamId`s in save order), so
/// no decoded value is copied and no initialization is drawn: one
/// backbone is live per cluster rebuilt.
fn rebuild_cluster(model: &ServeModelConfig, loaded: ParamSet) -> Result<ClusterModel, StoreError> {
    // No registration draws from the RNG unless the blob holds fewer
    // parameters than the model, an error either way.
    let built = ParamSet::lay_out(loaded, |ps| {
        ClusterModel::register(ps, model, &mut SmallRng64::new(0))
    });
    let ((vit, exits), params) = built.map_err(|e| {
        StoreError::Mismatch(match e {
            LayoutError::Count { decoded, model } => {
                format!("backbone blob has {decoded} params, model shape implies {model}")
            }
            LayoutError::Name { decoded, model } => {
                format!("backbone param {decoded:?} where model expects {model:?}")
            }
            LayoutError::Shape {
                name,
                decoded,
                model,
            } => format!("backbone param {name:?} has shape {decoded:?}, model expects {model:?}"),
        })
    })?;
    Ok(ClusterModel { vit, exits, params })
}

impl VariantStore {
    /// Persists the fleet into `store`: one checkpoint blob per cluster
    /// backbone (deduplicated by content), one [`VariantDelta`] blob per
    /// device, and a [`StoreManifest`] blob tying them together.
    /// Returns the manifest's address.
    pub fn persist(&self, store: &mut ModelStore) -> Result<ContentHash, StoreError> {
        self.persist_on(store, &Pool::new(1))
    }

    /// Like [`VariantStore::persist`], sealing the backbones, then
    /// encoding and sealing the per-device deltas, on `pool`. Each blob
    /// takes its address from its seal. The result is byte-identical at
    /// any thread count: blobs are sealed in parallel but inserted in
    /// cluster, then device, order.
    pub fn persist_on(
        &self,
        store: &mut ModelStore,
        pool: &Pool,
    ) -> Result<ContentHash, StoreError> {
        let sealed = pool.par_map(self.clusters().iter().collect(), |_, c: &ClusterModel| {
            Sealed::of(&c.params)
        });
        let backbones = sealed
            .into_iter()
            .map(|blob| store.insert(blob))
            .collect::<Result<Vec<_>, _>>()?;
        let deltas = pool.par_map((0..self.num_devices()).collect(), |_, d| {
            let v = self.device(d);
            Sealed::of(&VariantDelta::encode(
                &self.clusters()[v.cluster].params,
                backbones[v.cluster],
                &v.classes,
                &v.params,
            ))
        });
        let mut variants = Vec::with_capacity(deltas.len());
        for (slot, blob) in self.slots.iter().zip(deltas) {
            variants.push(ManifestVariant {
                cluster: slot.cluster as u32,
                delta: store.insert(blob)?,
            });
        }
        let manifest = StoreManifest {
            model: self.model_config().clone(),
            precision: self.precision(),
            backbones,
            variants,
        };
        store.insert(Sealed::of(&manifest))
    }

    /// Rebuilds a serving store from a persisted manifest. Backbones
    /// load eagerly (they are shared by whole clusters); device slots
    /// stay as validated deltas and materialize on first
    /// [`VariantStore::device`] access, bit-identical to the variants
    /// that were persisted.
    pub fn from_store(
        store: &ModelStore,
        manifest: ContentHash,
    ) -> Result<VariantStore, StoreError> {
        let manifest: StoreManifest = store.get_decoded(manifest)?;
        let mut clusters = Vec::with_capacity(manifest.backbones.len());
        for &h in &manifest.backbones {
            let loaded = store.get_params(h)?;
            clusters.push(rebuild_cluster(&manifest.model, loaded)?);
        }
        let mut slots = Vec::with_capacity(manifest.variants.len());
        for entry in &manifest.variants {
            let cluster = entry.cluster as usize;
            let Some(cm) = clusters.get(cluster) else {
                return Err(StoreError::Mismatch(format!(
                    "variant references cluster {cluster} of {}",
                    clusters.len()
                )));
            };
            let delta = store.get_delta(entry.delta)?;
            admit(&delta, manifest.backbones[cluster], cm)?;
            slots.push(VariantSlot::lazy(cluster, delta));
        }
        Ok(VariantStore::from_parts(
            clusters,
            manifest.backbones,
            slots,
            manifest.precision,
            manifest.model,
        ))
    }

    /// Materializes every device slot (used by benchmarks that want to
    /// exclude first-touch materialization from steady-state timing).
    pub fn materialize_all(&self) {
        for d in 0..self.num_devices() {
            let _ = self.device(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchEngine, ExitPolicy, Request};
    use crate::variant::StoreConfig;
    use acme_tensor::{randn, Array, Graph};

    fn tiny_store(devices: usize) -> VariantStore {
        let cfg = StoreConfig {
            clusters: 2,
            devices,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        };
        VariantStore::build(&cfg, 42)
    }

    fn sample_requests(store: &VariantStore, n: usize) -> Vec<Request> {
        let [c, h, w] = store.input_shape();
        let mut rng = SmallRng64::new(7);
        (0..n)
            .map(|id| Request {
                id,
                device: id % store.num_devices(),
                input: randn(&[c, h, w], &mut rng),
            })
            .collect()
    }

    #[test]
    fn manifest_wire_roundtrip() {
        let store = tiny_store(5);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let manifest = StoreManifest::from_bytes(&blobs.get(root).unwrap()).unwrap();
        assert_eq!(manifest.backbones.len(), 2);
        assert_eq!(manifest.variants.len(), 5);
        let again = StoreManifest::from_bytes(&wire::seal(&manifest)).unwrap();
        assert_eq!(again, manifest);
    }

    #[test]
    fn restoring_an_unbuildable_model_is_a_typed_error() {
        // Well-sealed manifests whose model shape used to reach
        // `VitConfig::num_patches` (division by zero) or
        // `MultiExitVit::new`'s asserts inside `from_store`, or whose
        // empty fleet restored a store that panicked on first use.
        let store = tiny_store(2);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let good = StoreManifest::from_bytes(&blobs.get(root).unwrap()).unwrap();
        let edits: [fn(&mut StoreManifest); 6] = [
            |m| m.model.vit.patch = 0,
            |m| m.model.exit_layers.clear(),
            |m| m.model.exit_layers.reverse(),
            |m| *m.model.exit_layers.last_mut().unwrap() += 1,
            |m| m.variants.clear(),
            |m| {
                m.backbones.clear();
                m.variants.clear();
            },
        ];
        for edit in edits {
            let mut bad = good.clone();
            edit(&mut bad);
            let bad_root = blobs.put(wire::seal(&bad)).unwrap();
            assert!(matches!(
                VariantStore::from_store(&blobs, bad_root),
                Err(StoreError::Wire(WireError::BadShape))
            ));
        }
    }

    #[test]
    fn backbones_are_stored_once_per_cluster() {
        let store = tiny_store(12);
        let mut blobs = ModelStore::in_memory();
        let _ = store.persist(&mut blobs).unwrap();
        // 2 backbone blobs + 12 distinct deltas + 1 manifest. If
        // backbones were stored per device this would be 12 + 12 + 1.
        assert_eq!(blobs.hashes().len(), 2 + 12 + 1);
    }

    #[test]
    fn restored_store_is_lazy_and_bit_identical() {
        let store = tiny_store(6);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();

        let restored = VariantStore::from_store(&blobs, root).unwrap();
        assert_eq!(restored.num_devices(), store.num_devices());
        assert_eq!(
            restored.materialized_count(),
            0,
            "restore must not materialize variants"
        );

        // Touch one device: exactly one slot materializes.
        let _ = restored.device(3);
        assert_eq!(restored.materialized_count(), 1);

        // Every variant is bitwise identical to the source store's.
        for d in 0..store.num_devices() {
            let a = store.device(d);
            let b = restored.device(d);
            assert_eq!(a.cluster, b.cluster);
            assert_eq!(a.classes, b.classes);
            assert_eq!(a.head_ids.len(), b.head_ids.len());
            for (x, y) in a.params.ids().zip(b.params.ids()) {
                assert_eq!(a.params.name(x), b.params.name(y));
                assert_eq!(a.params.is_trainable(x), b.params.is_trainable(y));
                let (av, bv) = (a.params.value(x), b.params.value(y));
                assert_eq!(av.shape(), bv.shape());
                for (p, q) in av.data().iter().zip(bv.data()) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    #[test]
    fn serving_from_blobs_matches_in_memory_bitwise() {
        let store = tiny_store(4);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let restored = VariantStore::from_store(&blobs, root).unwrap();

        let requests = sample_requests(&store, 24);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::always());
            let mut out = Vec::new();
            for device in 0..s.num_devices() {
                let batch: Vec<Request> = requests
                    .iter()
                    .filter(|r| r.device == device)
                    .cloned()
                    .collect();
                let mut g = Graph::new();
                out.extend(engine.serve_batch(&mut g, &batch));
            }
            out
        };
        let a = serve(&store);
        let b = serve(&restored);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.exit, y.exit);
            assert_eq!(x.class, y.class);
            assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
            assert_eq!(x.logits.len(), y.logits.len());
            for (p, q) in x.logits.iter().zip(&y.logits) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn hot_swap_serves_the_new_head_bit_identically_to_a_fresh_build() {
        let mut store = tiny_store(4);
        let device = 1;
        let requests = sample_requests(&store, 24);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::always());
            let batch: Vec<Request> = requests
                .iter()
                .filter(|r| r.device == device)
                .cloned()
                .collect();
            let mut g = Graph::new();
            engine.serve_batch(&mut g, &batch)
        };
        let before = serve(&store);

        // Re-personalize the device's head the way the online Phase 2-2
        // refinement would: same classes, nudged weights.
        let (classes, fresh) = {
            let v = store.device(device);
            let mut fresh = ParamSet::new();
            for id in v.params.ids() {
                let src = v.params.value(id);
                let data: Vec<f32> = src.data().iter().map(|&x| x + 0.125).collect();
                let nid = fresh.add(
                    v.params.name(id),
                    acme_tensor::Array::from_vec(data, src.shape()).unwrap(),
                );
                fresh.set_trainable(nid, v.params.is_trainable(id));
            }
            (v.classes.clone(), fresh)
        };
        let cluster = store.device(device).cluster;
        let backbone_hash = ContentHash::of_sealed(&store.clusters()[cluster].params);
        let delta = VariantDelta::encode(
            &store.clusters()[cluster].params,
            backbone_hash,
            &classes,
            &fresh,
        );
        store.hot_swap(device, delta).unwrap();

        // The swapped head is bitwise the re-personalized ParamSet.
        let v = store.device(device);
        assert_eq!(v.classes, classes);
        for (x, y) in fresh.ids().zip(v.params.ids()) {
            assert_eq!(fresh.name(x), v.params.name(y));
            for (p, q) in fresh.value(x).data().iter().zip(v.params.value(y).data()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }

        // Serving picks the new head up immediately...
        let after = serve(&store);
        assert!(
            before.iter().zip(&after).any(|(a, b)| a
                .logits
                .iter()
                .zip(&b.logits)
                .any(|(p, q)| p != q)),
            "swapped head must change served logits"
        );
        // ...and is bit-identical to a store freshly built from blobs
        // containing the swapped variant.
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let restored = VariantStore::from_store(&blobs, root).unwrap();
        let rebuilt = serve(&restored);
        assert_eq!(after.len(), rebuilt.len());
        for (x, y) in after.iter().zip(&rebuilt) {
            assert_eq!(x.exit, y.exit);
            assert_eq!(x.class, y.class);
            for (p, q) in x.logits.iter().zip(&y.logits) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn hot_swap_fails_closed_on_a_mismatched_delta() {
        use acme_store::DeltaOp;
        let mut store = tiny_store(2);
        let device = 0;
        let requests = sample_requests(&store, 8);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::always());
            let batch: Vec<Request> = requests
                .iter()
                .filter(|r| r.device == device)
                .cloned()
                .collect();
            let mut g = Graph::new();
            engine.serve_batch(&mut g, &batch)
        };
        let before = serve(&store);
        // Both deltas carry the right address, so the op checks reject them.
        let backbone = &store.clusters()[store.device(device).cluster].params;
        let address = ContentHash::of_sealed(backbone);

        // Odd op count: heads come in (w, b) pairs.
        let odd = VariantDelta {
            backbone: address,
            classes: vec![0, 1],
            ops: vec![DeltaOp::Same {
                name: "exit0.head.w".into(),
                trainable: true,
            }],
        };
        assert!(matches!(
            store.hot_swap(device, odd),
            Err(StoreError::Mismatch(_))
        ));

        // A delta referencing a parameter this backbone does not have.
        let wrong = VariantDelta {
            backbone: address,
            classes: vec![0, 1],
            ops: vec![
                DeltaOp::Same {
                    name: "no.such.param".into(),
                    trainable: true,
                },
                DeltaOp::Same {
                    name: "also.missing".into(),
                    trainable: true,
                },
            ],
        };
        assert!(store.hot_swap(device, wrong).is_err());

        // The old variant keeps serving, bit for bit.
        let after = serve(&store);
        for (x, y) in before.iter().zip(&after) {
            for (p, q) in x.logits.iter().zip(&y.logits) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn admission_rejects_a_variant_the_engine_cannot_serve() {
        // Each delta carries the right address and resolves against the
        // backbone, with an even op count; it used to be admitted, and the
        // next request then panicked (one exit pair of two, no kept class)
        // or answered from a head that does not fit its classes.
        let mut store = tiny_store(4);
        let device = 0;
        let heads = |pairs: usize, k: usize| {
            let mut ps = ParamSet::new();
            for e in 0..pairs {
                ps.add(format!("exit{e}.head.w"), Array::full(&[16, k], 0.5));
                ps.add(format!("exit{e}.head.b"), Array::full(&[k], 0.25));
            }
            ps
        };
        let bad: Vec<VariantDelta> = {
            let backbone = &store.clusters()[store.device(device).cluster].params;
            let address = ContentHash::of_sealed(backbone);
            [
                (vec![0, 1, 2, 3], heads(1, 4)), // one exit pair of two
                (vec![0, 1, 2], heads(2, 4)),    // heads wider than the classes
                (vec![0, 1, 2, 8], heads(2, 4)), // class 8 of an 8-class model
                (vec![0, 2, 2, 3], heads(2, 4)), // class 2 answers for two columns
                (vec![], heads(2, 0)),           // no kept class
            ]
            .iter()
            .map(|(classes, params)| VariantDelta::encode(backbone, address, classes, params))
            .collect()
        };
        let requests = sample_requests(&store, 16);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::never());
            (0..s.num_devices())
                .flat_map(|d| {
                    let batch: Vec<Request> =
                        requests.iter().filter(|r| r.device == d).cloned().collect();
                    engine.serve_batch(&mut Graph::new(), &batch)
                })
                .collect::<Vec<_>>()
        };
        let before = serve(&store);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let manifest = StoreManifest::from_bytes(&blobs.get(root).unwrap()).unwrap();
        for delta in bad {
            let classes = delta.classes.clone();
            // At restore: a manifest naming the delta does not load.
            let mut edited = manifest.clone();
            edited.variants[device].delta = blobs.insert(Sealed::of(&delta)).unwrap();
            let edited_root = blobs.put(wire::seal(&edited)).unwrap();
            assert!(
                matches!(
                    VariantStore::from_store(&blobs, edited_root),
                    Err(StoreError::Mismatch(_))
                ),
                "restore admitted classes {classes:?}"
            );
            // At hot swap: fails closed.
            assert!(
                matches!(store.hot_swap(device, delta), Err(StoreError::Mismatch(_))),
                "hot swap admitted classes {classes:?}"
            );
            // Every variant keeps serving, bit for bit.
            let after = serve(&store);
            assert_eq!(before.len(), after.len());
            for (x, y) in before.iter().zip(&after) {
                assert_eq!((x.id, x.exit, x.class), (y.id, y.exit, y.class));
                assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
                for (p, q) in x.logits.iter().zip(&y.logits) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    #[test]
    fn hot_swap_rejects_a_delta_encoded_against_another_cluster() {
        // Both clusters share one model shape, so device 1's head, encoded
        // against cluster 1's backbone, fits cluster 0's names and shapes
        // as well: only its backbone address tells the two apart.
        let mut store = tiny_store(4);
        let device = 0;
        let donor = store.device(1);
        assert_ne!(store.device(device).cluster, donor.cluster);
        let delta = {
            let backbone = &store.clusters()[donor.cluster].params;
            let address = ContentHash::of_sealed(backbone);
            VariantDelta::encode(backbone, address, &donor.classes, &donor.params)
        };
        let requests = sample_requests(&store, 16);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::always());
            let batch: Vec<Request> = requests
                .iter()
                .filter(|r| r.device == device)
                .cloned()
                .collect();
            engine.serve_batch(&mut Graph::new(), &batch)
        };
        let before = serve(&store);

        // A built store learns its addresses on this first swap; a
        // restored one reads them from its manifest.
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        let mut restored = VariantStore::from_store(&blobs, root).unwrap();
        for s in [&mut store, &mut restored] {
            assert!(matches!(
                s.hot_swap(device, delta.clone()),
                Err(StoreError::Mismatch(_))
            ));
            // The old variant keeps serving, bit for bit.
            let after = serve(s);
            assert_eq!(before.len(), after.len());
            for (x, y) in before.iter().zip(&after) {
                assert_eq!((x.id, x.exit, x.class), (y.id, y.exit, y.class));
                for (p, q) in x.logits.iter().zip(&y.logits) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
            // Device 3 runs on the donor's cluster and takes the delta.
            s.hot_swap(3, delta.clone()).unwrap();
        }
    }

    #[test]
    fn hot_swap_fails_closed_on_an_out_of_range_device() {
        let mut store = tiny_store(3);
        let requests = sample_requests(&store, 18);
        let serve = |s: &VariantStore| {
            let engine = BatchEngine::new(s, ExitPolicy::always());
            let mut out = Vec::new();
            for device in 0..s.num_devices() {
                let batch: Vec<Request> = requests
                    .iter()
                    .filter(|r| r.device == device)
                    .cloned()
                    .collect();
                out.extend(engine.serve_batch(&mut Graph::new(), &batch));
            }
            out
        };
        let before = serve(&store);

        // A delta that would fit: device 0's own head against its backbone.
        let delta = {
            let v = store.device(0);
            let backbone = &store.clusters()[v.cluster].params;
            let hash = ContentHash::of_sealed(backbone);
            VariantDelta::encode(backbone, hash, &v.classes, &v.params)
        };
        assert!(matches!(
            store.hot_swap(store.num_devices(), delta),
            Err(StoreError::Mismatch(_))
        ));

        // Every variant keeps serving, bit for bit.
        let after = serve(&store);
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            assert_eq!((x.id, x.exit, x.class), (y.id, y.exit, y.class));
            for (p, q) in x.logits.iter().zip(&y.logits) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn persist_is_deterministic_across_thread_counts() {
        let store = tiny_store(9);
        let mut roots = Vec::new();
        let mut contents = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut blobs = ModelStore::in_memory();
            let root = store.persist_on(&mut blobs, &Pool::new(threads)).unwrap();
            roots.push(root);
            contents.push(blobs.hashes());
        }
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[0], roots[2]);
        assert_eq!(contents[0], contents[1]);
        assert_eq!(contents[0], contents[2]);
    }

    #[test]
    fn persist_twice_adds_nothing() {
        let store = tiny_store(3);
        let mut blobs = ModelStore::in_memory();
        let a = store.persist(&mut blobs).unwrap();
        let before = blobs.hashes().len();
        let b = store.persist(&mut blobs).unwrap();
        assert_eq!(a, b, "persist must be content-determined");
        assert_eq!(blobs.hashes().len(), before);
    }

    #[test]
    fn restore_against_wrong_backbone_fails_closed() {
        let store = tiny_store(2);
        let mut blobs = ModelStore::in_memory();
        let root = store.persist(&mut blobs).unwrap();
        // Hand the manifest a backbone from a different seed: the delta
        // hash check must reject the mix-up.
        let other = {
            let cfg = StoreConfig {
                clusters: 2,
                devices: 2,
                keep_classes: 4,
                model: ServeModelConfig::tiny(),
                precision: Precision::F32,
            };
            VariantStore::build(&cfg, 777)
        };
        let mut manifest = StoreManifest::from_bytes(&blobs.get(root).unwrap()).unwrap();
        let mut other_blobs = ModelStore::in_memory();
        let other_root = other.persist(&mut other_blobs).unwrap();
        let other_manifest =
            StoreManifest::from_bytes(&other_blobs.get(other_root).unwrap()).unwrap();
        manifest.backbones = other_manifest.backbones.clone();
        for h in other_blobs.hashes() {
            blobs.put(other_blobs.get(h).unwrap()).unwrap();
        }
        let bad_root = blobs.put(wire::seal(&manifest)).unwrap();
        assert!(matches!(
            VariantStore::from_store(&blobs, bad_root),
            Err(StoreError::Mismatch(_))
        ));
    }
}
