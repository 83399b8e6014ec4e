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
use acme_store::{StoreError, VariantDelta};
use acme_tensor::{Array, Graph, Precision, SmallRng64, Var};
use acme_vit::{MultiExitVit, Vit, VitConfig};
use rand::RngCore;

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
    pub fn serving_default() -> Self {
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
    pub fn quantized_default() -> Self {
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
    /// class set; clamped to at least 2 and at most `classes`).
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

    /// The same store at a different deploy precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
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

/// Graph binding keys for device-variant parameters are offset so they
/// can never collide with cluster-backbone bindings (which use the raw
/// `ParamId::key`, i.e. the slot index) within the same [`Graph`].
pub const DEVICE_PARAM_KEY_OFFSET: u64 = 1 << 32;

impl DeviceVariant {
    /// Binds one of this variant's parameters into `g` under the
    /// device-offset key space.
    pub fn bind(&self, g: &mut Graph, id: ParamId) -> Var {
        g.bind_param_ident(
            DEVICE_PARAM_KEY_OFFSET + id.key(),
            self.params.pack_ident(id),
            self.params.value(id),
            self.params.is_trainable(id),
        )
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
            .map(|c| {
                let mut rng = root.fork(c as u64);
                let mut params = ParamSet::new();
                let vit = Vit::with_activation(
                    &mut params,
                    &cfg.model.vit,
                    cfg.model.activation,
                    &mut rng,
                );
                let exits = MultiExitVit::new(&mut params, &vit, &cfg.model.exit_layers, &mut rng);
                ClusterModel { vit, exits, params }
            })
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
            slots,
            precision: cfg.precision,
            model: cfg.model.clone(),
        }
    }

    /// Assembles a store from already-constructed parts (used by the
    /// persistence path when rebuilding from blobs).
    pub(crate) fn from_parts(
        clusters: Vec<ClusterModel>,
        slots: Vec<VariantSlot>,
        precision: Precision,
        model: ServeModelConfig,
    ) -> Self {
        VariantStore {
            clusters,
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
        let keep = cfg.keep_classes.clamp(2, total);
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
        let mut head_ids = Vec::with_capacity(cm.exits.heads().len());
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
            let wid = params.add(format!("exit{e}.head.w"), w);
            let bid = params.add(format!("exit{e}.head.b"), b);
            head_ids.push([wid, bid]);
        }
        DeviceVariant {
            cluster,
            classes,
            params,
            head_ids,
        }
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
    pub fn materialized_count(&self) -> usize {
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
            device_variant_from_params(slot.cluster, delta, params)
        })
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
    /// range, the delta does not match the backbone, or its ops do not
    /// come in per-exit `(w, b)` pairs.
    pub fn hot_swap(&mut self, device: usize, delta: VariantDelta) -> Result<(), StoreError> {
        let Some(slot) = self.slots.get(device) else {
            return Err(StoreError::Mismatch(format!(
                "device {device} is out of range for a fleet of {}",
                self.slots.len()
            )));
        };
        let cluster = slot.cluster;
        if !delta.ops.len().is_multiple_of(2) {
            return Err(StoreError::Mismatch(format!(
                "variant delta has {} ops; exit heads come in (w, b) pairs",
                delta.ops.len()
            )));
        }
        let params = delta.apply(&self.clusters[cluster].params)?;
        let variant = device_variant_from_params(cluster, &delta, params);
        self.slots[device] = VariantSlot::materialized(cluster, variant);
        Ok(())
    }

    /// Input shape `[channels, image, image]` every request must carry.
    pub fn input_shape(&self) -> [usize; 3] {
        let c = self.clusters[0].vit.config();
        [c.channels, c.image, c.image]
    }
}

/// Small personalized weight delta in `[-0.05, 0.05)`, derived from the
/// raw RNG stream (bit-stable across `rand` backend versions).
fn personalization_delta(rng: &mut SmallRng64) -> f32 {
    ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.1
}

/// Rebuilds a [`DeviceVariant`] from a delta-applied [`ParamSet`]. The
/// delta's ops are in the variant's original registration order (one
/// `exit{e}.head.w` / `exit{e}.head.b` pair per exit), so consecutive id
/// pairs are the per-exit `[weight, bias]` bindings.
pub(crate) fn device_variant_from_params(
    cluster: usize,
    delta: &VariantDelta,
    params: ParamSet,
) -> DeviceVariant {
    debug_assert_eq!(params.len() % 2, 0, "head params come in (w, b) pairs");
    let ids: Vec<ParamId> = params.ids().collect();
    let head_ids = ids.chunks_exact(2).map(|c| [c[0], c[1]]).collect();
    DeviceVariant {
        cluster,
        classes: delta.classes.iter().map(|&c| c as usize).collect(),
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
}
