//! The variant store: shared cluster backbones plus per-device pruned,
//! personalized exit headers.
//!
//! ACME's customization pipeline leaves each cluster with one pruned
//! backbone and each device with a small personalized header (§III).
//! Serving therefore resolves a request's `device` to a *variant*: the
//! cluster backbone (shared by every device in the cluster, frozen, so
//! its weights pack once into the [`acme_tensor::packcache`]) and the
//! device's own exit heads, class-pruned to the label subset the device
//! actually observes.

use std::sync::OnceLock;

use acme_nn::{Activation, ParamId, ParamSet};
use acme_store::{ContentHash, StoreError, VariantDelta};
use acme_tensor::{Array, Graph, Precision, SmallRng64, Var};
use acme_vit::{MultiExitVit, Vit, VitConfig};

/// Model shape served by a cluster: the ViT backbone plus its exit
/// positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeModelConfig {
    /// Backbone architecture.
    pub vit: VitConfig,
    /// Multi-exit positions (0-based block indices; strictly increasing,
    /// ending at the final block).
    pub exit_layers: Vec<usize>,
    /// MLP activation of every block. Training-side configs use the ViT
    /// default (GELU); the serving default picks ReLU because the tanh
    /// inside GELU is per-element work that batching cannot amortize.
    pub activation: Activation,
}

impl ServeModelConfig {
    /// The serving-bench default: a backbone shaped so serving cost is
    /// dominated by per-dispatch work that batching amortizes. One patch
    /// plus `[CLS]` (patch == image) keeps the per-row token math small,
    /// while every weight matrix is `[64, 64]` — exactly the pack-cache
    /// floor, so all frozen products pack once and run prepacked
    /// thereafter. Unbatched serving re-pays graph construction and
    /// parameter binding per request; coalesced batches pay it once per
    /// batch. Two exits: one shallow, one final.
    fn serving_default() -> Self {
        ServeModelConfig {
            vit: VitConfig {
                image: 8,
                patch: 8,
                channels: 1,
                dim: 64,
                depth: 4,
                heads: 4,
                head_dim: 16,
                mlp_hidden: 64,
                classes: 16,
            },
            exit_layers: vec![1, 3],
            activation: Activation::Relu,
        }
    }

    /// The precision-bench default: a backbone shaped so serving cost is
    /// dominated by the frozen weight products themselves — the work the
    /// int8 engine accelerates. Two tokens (one patch plus `[CLS]`)
    /// put most of each request's flops into the backbone products while
    /// `dim = 384` makes every weight matrix (`[384, 384]` attention
    /// projections, `[384, 1536]`/`[1536, 384]` MLP, patch embed) far
    /// above the pack-cache floor, so GEMM time is the serving time.
    /// Both 384 and 1536 are multiples of the `NR = 48` register-tile
    /// width, so the products run entirely on full-width microkernel
    /// tiles at either precision. This is the config the
    /// `BENCH_serving.json` precision rows sweep at f32 vs int8.
    fn quantized_default() -> Self {
        ServeModelConfig {
            vit: VitConfig {
                image: 16,
                patch: 16,
                channels: 1,
                dim: 384,
                depth: 4,
                heads: 6,
                head_dim: 64,
                mlp_hidden: 1536,
                classes: 16,
            },
            exit_layers: vec![1, 3],
            activation: Activation::Relu,
        }
    }

    /// An even smaller config for unit tests.
    pub fn tiny() -> Self {
        ServeModelConfig {
            vit: VitConfig {
                image: 8,
                patch: 4,
                channels: 1,
                dim: 16,
                depth: 2,
                heads: 2,
                head_dim: 8,
                mlp_hidden: 32,
                classes: 8,
            },
            exit_layers: vec![0, 1],
            activation: Activation::Gelu,
        }
    }
}

/// How to populate a [`VariantStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of cluster backbones.
    pub clusters: usize,
    /// Number of device variants (assigned to clusters round-robin).
    pub devices: usize,
    /// Classes kept per device header (pruned from the cluster's full
    /// class set; clamped to at least 2 and at most `classes`, so a
    /// one-class model keeps its single class).
    pub keep_classes: usize,
    /// The served model shape.
    pub model: ServeModelConfig,
    /// Precision the variants are deployed at. `F32` (the default)
    /// serves exactly the historical path; `Int8` quantizes every
    /// pack-cache-eligible frozen weight once at first bind and runs
    /// backbone products through the quantized engine
    /// (see [`acme_tensor::qgemm`]). Training is unaffected — this knob
    /// exists only on the serving store.
    pub precision: Precision,
}

impl StoreConfig {
    /// The serving-bench default store: 2 clusters, `devices` variants,
    /// 6-class headers over [`ServeModelConfig::serving_default`], f32.
    pub fn serving_default(devices: usize) -> Self {
        StoreConfig {
            clusters: 2,
            devices,
            keep_classes: 6,
            model: ServeModelConfig::serving_default(),
            precision: Precision::F32,
        }
    }

    /// The precision-bench store: like [`StoreConfig::serving_default`]
    /// but over the GEMM-heavy [`ServeModelConfig::quantized_default`]
    /// backbone, at the given precision.
    pub fn quantized_default(devices: usize, precision: Precision) -> Self {
        StoreConfig {
            clusters: 2,
            devices,
            keep_classes: 6,
            model: ServeModelConfig::quantized_default(),
            precision,
        }
    }
}

/// One cluster's shared, frozen backbone: the ViT trunk plus the
/// exit-point norms (devices replace only the classifier heads).
#[derive(Debug)]
pub struct ClusterModel {
    /// The backbone trunk.
    pub vit: Vit,
    /// Exit positions and shared pre-head norms.
    pub exits: MultiExitVit,
    /// Parameters of the trunk and exit norms (frozen while serving).
    pub params: ParamSet,
}

impl ClusterModel {
    /// Lays out a cluster of shape `model`: the trunk, then the exit
    /// norms and heads, registered in that order and initialized from
    /// `rng`.
    pub(crate) fn new(model: &ServeModelConfig, rng: &mut SmallRng64) -> Self {
        let mut params = ParamSet::new();
        let vit = Vit::with_activation(&mut params, &model.vit, model.activation, rng);
        let exits = MultiExitVit::new(&mut params, &vit, &model.exit_layers, rng);
        ClusterModel { vit, exits, params }
    }
}

/// One device's serving variant: which cluster backbone it runs on and
/// its personalized, class-pruned exit heads.
#[derive(Debug)]
pub struct DeviceVariant {
    /// Index of the cluster backbone this device runs on.
    pub cluster: usize,
    /// Global class ids kept by the pruned header, in head-column order.
    pub classes: Vec<usize>,
    /// Parameters of the pruned heads (one weight + bias per exit).
    pub params: ParamSet,
    /// Per-exit `[weight, bias]` parameter ids into [`Self::params`].
    pub head_ids: Vec<[ParamId; 2]>,
}

impl DeviceVariant {
    /// Binds one of this variant's parameters into `g` under a key of its
    /// own: the variant's store id in the high 32 bits and the parameter's
    /// key (its slot) in the low. Heads of different variants therefore
    /// never share a node in one graph, and no head takes a backbone's key
    /// (the raw slot, below 2^32; store ids start at 1).
    pub fn bind(&self, g: &mut Graph, id: ParamId) -> Var {
        let store = self.params.pack_ident(id).store;
        self.params.bind_keyed(g, id, store << 32 | id.key())
    }
}

/// One device slot in the [`VariantStore`]: the variant itself when it
/// has been materialized, or the structural delta to materialize it
/// from (stores loaded from an [`acme_store::ModelStore`] start with
/// every slot unmaterialized — see [`VariantStore::from_store`]).
#[derive(Debug)]
pub(crate) struct VariantSlot {
    pub(crate) cluster: usize,
    /// Present iff the slot can (re)materialize lazily; slots built
    /// in-memory are seeded directly into `cell` and carry no delta.
    pub(crate) delta: Option<VariantDelta>,
    pub(crate) cell: OnceLock<DeviceVariant>,
}

impl VariantSlot {
    pub(crate) fn materialized(cluster: usize, variant: DeviceVariant) -> Self {
        let cell = OnceLock::new();
        cell.set(variant).expect("fresh cell");
        VariantSlot {
            cluster,
            delta: None,
            cell,
        }
    }

    pub(crate) fn lazy(cluster: usize, delta: VariantDelta) -> Self {
        VariantSlot {
            cluster,
            delta: Some(delta),
            cell: OnceLock::new(),
        }
    }
}

/// All variants a serving process can resolve: cluster backbones plus
/// per-device pruned headers.
#[derive(Debug)]
pub struct VariantStore {
    clusters: Vec<ClusterModel>,
    /// Each cluster backbone's blob address, the one a delta for it must
    /// be encoded against. A restored store knows them from its
    /// manifest; a built one learns them on its first hot swap.
    addresses: Option<Vec<ContentHash>>,
    pub(crate) slots: Vec<VariantSlot>,
    precision: Precision,
    /// The served model shape, kept so the store can be persisted (the
    /// manifest records it) and rebuilt from blobs.
    model: ServeModelConfig,
}

impl VariantStore {
    /// Builds a store of `cfg.clusters` backbones and `cfg.devices`
    /// pruned variants, deterministically from `seed`.
    ///
    /// Each device keeps a seeded choice of `keep_classes` global
    /// classes; its head weights start from the cluster's exit heads
    /// (column-pruned to the kept classes) with a small per-device
    /// personalization delta, standing in for the fine header tuning of
    /// Phase 2-2.
    ///
    /// # Panics
    ///
    /// Panics when `clusters` or `devices` is zero.
    pub fn build(cfg: &StoreConfig, seed: u64) -> Self {
        assert!(cfg.clusters > 0, "need at least one cluster");
        assert!(cfg.devices > 0, "need at least one device");
        let mut root = SmallRng64::new(seed);
        let clusters: Vec<ClusterModel> = (0..cfg.clusters)
            .map(|c| ClusterModel::new(&cfg.model, &mut root.fork(c as u64)))
            .collect();
        let slots = (0..cfg.devices)
            .map(|d| {
                let cluster = d % cfg.clusters;
                let mut rng = root.fork(0xdec1_ce00 + d as u64);
                let variant = Self::prune_variant(&clusters[cluster], cluster, cfg, &mut rng);
                VariantSlot::materialized(cluster, variant)
            })
            .collect();
        VariantStore {
            clusters,
            addresses: None,
            slots,
            precision: cfg.precision,
            model: cfg.model.clone(),
        }
    }

    /// Assembles a store from already-constructed parts (used by the
    /// persistence path when rebuilding from blobs, which knows every
    /// backbone's address).
    pub(crate) fn from_parts(
        clusters: Vec<ClusterModel>,
        addresses: Vec<ContentHash>,
        slots: Vec<VariantSlot>,
        precision: Precision,
        model: ServeModelConfig,
    ) -> Self {
        VariantStore {
            clusters,
            addresses: Some(addresses),
            slots,
            precision,
            model,
        }
    }

    /// The served model shape.
    pub fn model_config(&self) -> &ServeModelConfig {
        &self.model
    }

    /// The precision this store's variants are deployed at. The batch
    /// engine configures each serving graph with it, so all
    /// pack-cache-eligible backbone products run quantized when this is
    /// [`Precision::Int8`].
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Derives one device variant from its cluster backbone.
    fn prune_variant(
        cm: &ClusterModel,
        cluster: usize,
        cfg: &StoreConfig,
        rng: &mut SmallRng64,
    ) -> DeviceVariant {
        let total = cfg.model.vit.classes;
        // At least two classes where the model has them; a one-class
        // model degrades to one-class headers instead of panicking.
        let keep = cfg.keep_classes.max(2).min(total);
        // Seeded class subset: partial Fisher-Yates over the class ids.
        let mut ids: Vec<usize> = (0..total).collect();
        for i in 0..keep {
            let j = i + (rng.next_u64() as usize) % (total - i);
            ids.swap(i, j);
        }
        let mut classes = ids[..keep].to_vec();
        classes.sort_unstable();

        let dim = cfg.model.vit.dim;
        let mut params = ParamSet::new();
        for (e, head) in cm.exits.heads().iter().enumerate() {
            let [wid, bid] = head.param_ids();
            let w_full = cm.params.value(wid); // [dim, total]
            let b_full = cm.params.value(bid); // [total]
            let mut w = Vec::with_capacity(dim * keep);
            for row in 0..dim {
                for &c in &classes {
                    let delta = personalization_delta(rng);
                    w.push(w_full.data()[row * total + c] + delta);
                }
            }
            let mut b = Vec::with_capacity(keep);
            for &c in &classes {
                b.push(b_full.data()[c] + personalization_delta(rng));
            }
            let w = Array::from_vec(w, &[dim, keep]).expect("pruned head volume");
            let b = Array::from_vec(b, &[keep]).expect("pruned bias volume");
            params.add(format!("exit{e}.head.w"), w);
            params.add(format!("exit{e}.head.b"), b);
        }
        device_variant_from_params(cluster, classes, params)
    }

    /// The cluster backbones.
    pub fn clusters(&self) -> &[ClusterModel] {
        &self.clusters
    }

    /// Number of device variants; a request's `device` field is bounded
    /// by this.
    pub fn num_devices(&self) -> usize {
        self.slots.len()
    }

    /// How many device variants are currently materialized. A store
    /// freshly loaded from blobs ([`VariantStore::from_store`]) starts
    /// at zero and materializes per device on first request.
    #[cfg(test)]
    pub(crate) fn materialized_count(&self) -> usize {
        self.slots.iter().filter(|s| s.cell.get().is_some()).count()
    }

    /// The variant for `device`, materializing it from backbone + delta
    /// on first access (thread-safe; concurrent first accesses race
    /// benignly and all observe one winner).
    ///
    /// # Panics
    ///
    /// Panics when `device` is out of range.
    pub fn device(&self, device: usize) -> &DeviceVariant {
        let slot = &self.slots[device];
        slot.cell.get_or_init(|| {
            let delta = slot
                .delta
                .as_ref()
                .expect("unmaterialized slot must carry a delta");
            let params = delta
                .apply(&self.clusters[slot.cluster].params)
                .expect("delta validated against its backbone at load time");
            let classes = delta.classes.iter().map(|&c| c as usize).collect();
            device_variant_from_params(slot.cluster, classes, params)
        })
    }

    /// The cluster index of every device, indexed by device: the table
    /// `serve()` keys its batches by.
    pub(crate) fn backbone_table(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.cluster).collect()
    }

    /// The backbone the given device runs on (does not materialize the
    /// variant).
    ///
    /// # Panics
    ///
    /// Panics when `device` is out of range.
    pub fn cluster_of(&self, device: usize) -> &ClusterModel {
        &self.clusters[self.slots[device].cluster]
    }

    /// Hot-swaps `device`'s variant to the re-personalized head
    /// described by `delta` (online re-customization after drift). The
    /// delta is applied against the device's current cluster backbone —
    /// exactly the materialization path a store loaded from blobs runs —
    /// so the swapped variant is bit-identical to a fresh build from the
    /// same delta. The old head is dropped and takes its pack-cache
    /// entries with it (they are keyed by the old `ParamSet`'s store id),
    /// so no stale packed weights can leak into the new head's products.
    ///
    /// # Errors
    ///
    /// Fails closed (every variant keeps serving) when `device` is out of
    /// range or the delta fails the admission check
    /// [`VariantStore::from_store`] runs too: it was encoded against
    /// another backbone's address, does not match this backbone's names
    /// and shapes, or does not resolve to one `[dim, k]` / `[k]` head
    /// pair per exit over `k ≥ 1` ascending kept classes of the model.
    pub fn hot_swap(&mut self, device: usize, delta: VariantDelta) -> Result<(), StoreError> {
        let Some(slot) = self.slots.get(device) else {
            return Err(StoreError::Mismatch(format!(
                "device {device} is out of range for a fleet of {}",
                self.slots.len()
            )));
        };
        let cluster = slot.cluster;
        let clusters = &self.clusters;
        let addresses = self.addresses.get_or_insert_with(|| {
            clusters
                .iter()
                .map(|c| ContentHash::of_sealed(&c.params))
                .collect()
        });
        admit(&delta, addresses[cluster], &clusters[cluster])?;
        let params = delta.apply(&clusters[cluster].params)?;
        let classes = delta.classes.iter().map(|&c| c as usize).collect();
        let variant = device_variant_from_params(cluster, classes, params);
        self.slots[device] = VariantSlot::materialized(cluster, variant);
        Ok(())
    }

    /// Input shape `[channels, image, image]` every request must carry.
    pub fn input_shape(&self) -> [usize; 3] {
        let c = self.clusters[0].vit.config();
        [c.channels, c.image, c.image]
    }
}

/// The one admission check for a device delta, at restore
/// ([`VariantStore::from_store`]) and at hot swap: `delta` must be
/// encoded against `address`, the blob address of `cluster`'s backbone,
/// resolve against that backbone ([`VariantDelta::validate`]), and
/// describe a variant the batch engine can serve: one `(w, b)` head pair
/// per exit, shaped `[dim, k]` and `[k]` for its `k ≥ 1` kept classes,
/// whose ids ascend and stay below the model's class count.
pub(crate) fn admit(
    delta: &VariantDelta,
    address: ContentHash,
    cluster: &ClusterModel,
) -> Result<(), StoreError> {
    if delta.backbone != address {
        return Err(StoreError::Mismatch(format!(
            "delta encoded against backbone {}, its cluster's is {address}",
            delta.backbone
        )));
    }
    let shapes = delta.validate(&cluster.params)?;
    let (exits, cfg) = (cluster.exits.exit_layers().len(), cluster.vit.config());
    let (classes, k) = (&delta.classes, delta.classes.len());
    let head = [vec![cfg.dim, k], vec![k]];
    let heads_fit = k > 0 && shapes.len() == 2 * exits && shapes.chunks(2).all(|p| p == head);
    let ascending = classes.windows(2).all(|w| w[0] < w[1]);
    if !heads_fit || !ascending || classes.iter().any(|&c| c as usize >= cfg.classes) {
        return Err(StoreError::Mismatch(format!(
            "variant delta keeps classes {classes:?} with params shaped {shapes:?}; the \
             model serves {exits} head pairs [{}, k], [k] over k ≥ 1 ascending ids below {}",
            cfg.dim, cfg.classes
        )));
    }
    Ok(())
}

/// Small personalized weight delta in `[-0.05, 0.05)`.
fn personalization_delta(rng: &mut SmallRng64) -> f32 {
    (rng.unit_f32() - 0.5) * 0.1
}

/// Assembles a [`DeviceVariant`] from its kept `classes` and its head
/// parameters, registered as one `exit{e}.head.w` / `exit{e}.head.b`
/// pair per exit (the order [`VariantStore::build`] adds them in and a
/// delta replays), so consecutive id pairs are the per-exit
/// `[weight, bias]` bindings.
pub(crate) fn device_variant_from_params(
    cluster: usize,
    classes: Vec<usize>,
    params: ParamSet,
) -> DeviceVariant {
    debug_assert_eq!(params.len() % 2, 0, "head params come in (w, b) pairs");
    let ids: Vec<ParamId> = params.ids().collect();
    let head_ids = ids.chunks_exact(2).map(|c| [c[0], c[1]]).collect();
    DeviceVariant {
        cluster,
        classes,
        params,
        head_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let cfg = StoreConfig {
            clusters: 2,
            devices: 5,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        };
        let a = VariantStore::build(&cfg, 7);
        let b = VariantStore::build(&cfg, 7);
        assert_eq!(a.device(3).classes, b.device(3).classes);
        let [wid, _] = a.device(3).head_ids[0];
        let [wid_b, _] = b.device(3).head_ids[0];
        assert_eq!(
            a.device(3).params.value(wid).data(),
            b.device(3).params.value(wid_b).data()
        );
    }

    #[test]
    fn variants_are_pruned_and_assigned_round_robin() {
        let cfg = StoreConfig {
            clusters: 2,
            devices: 4,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        };
        let store = VariantStore::build(&cfg, 1);
        assert_eq!(store.num_devices(), 4);
        assert_eq!(store.materialized_count(), 4, "built stores are eager");
        for d in 0..store.num_devices() {
            let v = store.device(d);
            assert_eq!(v.cluster, d % 2);
            assert_eq!(v.classes.len(), 4);
            assert!(v.classes.windows(2).all(|w| w[0] < w[1]));
            let [wid, bid] = v.head_ids[0];
            assert_eq!(v.params.value(wid).shape(), &[16, 4]);
            assert_eq!(v.params.value(bid).shape(), &[4]);
        }
    }

    #[test]
    fn two_variants_bind_their_own_heads_into_one_graph() {
        let cfg = StoreConfig {
            clusters: 1,
            devices: 2,
            keep_classes: 4,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        };
        let store = VariantStore::build(&cfg, 9);
        let mut g = Graph::new();
        let backbone = &store.clusters()[0].params;
        let trunk: Vec<Var> = backbone.ids().map(|id| backbone.bind(&mut g, id)).collect();
        for d in 0..2 {
            let v = store.device(d);
            for &[wid, bid] in &v.head_ids {
                for id in [wid, bid] {
                    let node = v.bind(&mut g, id);
                    assert!(!trunk.contains(&node), "device {d} took a backbone node");
                    let bound = g.value(node).data();
                    assert_eq!(
                        bound,
                        v.params.value(id).data(),
                        "device {d} got another head"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_devices_differ() {
        let cfg = StoreConfig {
            clusters: 1,
            devices: 2,
            keep_classes: 8,
            model: ServeModelConfig::tiny(),
            precision: Precision::F32,
        };
        let store = VariantStore::build(&cfg, 3);
        let [w0, _] = store.device(0).head_ids[0];
        let [w1, _] = store.device(1).head_ids[0];
        assert_ne!(
            store.device(0).params.value(w0).data(),
            store.device(1).params.value(w1).data(),
            "personalization deltas must differ per device"
        );
    }

    #[test]
    fn one_class_model_keeps_its_single_class() {
        // `keep_classes.clamp(2, classes)` used to panic here (min > max).
        let mut model = ServeModelConfig::tiny();
        model.vit.classes = 1;
        let cfg = StoreConfig {
            clusters: 1,
            devices: 2,
            keep_classes: 4,
            model,
            precision: Precision::F32,
        };
        let store = VariantStore::build(&cfg, 5);
        for d in 0..store.num_devices() {
            let v = store.device(d);
            assert_eq!(v.classes, vec![0]);
            let [wid, bid] = v.head_ids[0];
            assert_eq!(v.params.value(wid).shape(), &[16, 1]);
            assert_eq!(v.params.value(bid).shape(), &[1]);
        }
        let [c, h, w] = store.input_shape();
        let request = crate::engine::Request {
            id: 0,
            device: 1,
            input: Array::zeros(&[c, h, w]),
        };
        let engine = crate::engine::BatchEngine::new(&store, crate::engine::ExitPolicy::never());
        let out = engine.serve_batch(&mut Graph::new(), &[request]);
        assert_eq!((out[0].class, out[0].logits.len()), (0, 1));
    }
}
