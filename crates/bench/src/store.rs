//! Store sweep: the storage footprint of a fleet persisted into the
//! content-addressed [`acme_store::ModelStore`] versus the naive layout
//! that writes one full checkpoint per device, recorded to
//! `BENCH_store.json` at the workspace root.
//!
//! Each row persists one fleet (shared cluster backbones checkpointed
//! once, one structural [`acme_store::VariantDelta`] per device, one
//! manifest), restores it from blobs, materializes every variant, and
//! verifies the restored fleet is bitwise identical to the source. The
//! naive baseline is computed exactly: for every device, the serialized
//! size of a single checkpoint holding the device's full personalized
//! model (cluster backbone plus its pruned exit heads).

use std::time::Instant;

use acme_nn::{save_params, ParamSet};
use acme_serve::{StoreConfig, StoreManifest, VariantStore};
use acme_store::ModelStore;

/// One measured fleet size.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Device variants in the fleet.
    pub fleet_devices: usize,
    /// Cluster backbones shared across the fleet.
    pub clusters: usize,
    /// Weight scalars per cluster backbone.
    pub backbone_params: usize,
    /// Serialized size of one backbone checkpoint blob.
    pub backbone_blob_bytes: u64,
    /// Mean serialized size of a per-device delta blob.
    pub mean_delta_bytes: f64,
    /// Serialized size of the fleet manifest blob.
    pub manifest_bytes: u64,
    /// Total content-addressed footprint (backbones + deltas + manifest).
    pub store_bytes: u64,
    /// One-full-checkpoint-per-device baseline footprint.
    pub naive_bytes: u64,
    /// `naive_bytes / store_bytes` — the delta scheme's saving.
    pub ratio: f64,
    /// Wall-clock of persisting the fleet into the store.
    pub persist_s: f64,
    /// Wall-clock of restoring from blobs and materializing every slot.
    pub restore_s: f64,
    /// Whether every restored variant matched the source bitwise.
    pub bitwise_identical: bool,
}

/// Sweep settings.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fleet sizes (device-variant counts) to measure.
    pub fleets: Vec<usize>,
    /// Fleet build seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The full sweep: the delta scheme's saving grows linearly in fleet
    /// size (backbones are stored once regardless), so sweep an order of
    /// magnitude of fleet scale.
    pub fn full() -> Self {
        SweepConfig {
            fleets: vec![32, 128, 512],
            seed: 42,
        }
    }

    /// The CI smoke sweep: one fleet, large enough that the committed
    /// acceptance ratio (>= 10x) must hold.
    pub fn smoke() -> Self {
        SweepConfig {
            fleets: vec![32],
            seed: 42,
        }
    }
}

/// Serialized size of the naive per-device checkpoint: the device's full
/// personalized model (backbone plus pruned heads) in one file.
fn naive_device_bytes(store: &VariantStore, device: usize) -> u64 {
    let cluster = store.cluster_of(device);
    let variant = store.device(device);
    let mut full = ParamSet::new();
    for src in [&cluster.params, &variant.params] {
        for id in src.ids() {
            let nid = full.add(src.name(id), src.value(id).clone());
            full.set_trainable(nid, src.is_trainable(id));
        }
    }
    save_params(&full).len() as u64
}

/// Whether every restored variant matches the source store bitwise.
fn fleets_match_bitwise(a: &VariantStore, b: &VariantStore) -> bool {
    if a.num_devices() != b.num_devices() {
        return false;
    }
    (0..a.num_devices()).all(|d| {
        let (va, vb) = (a.device(d), b.device(d));
        va.cluster == vb.cluster
            && va.classes == vb.classes
            && va.params.len() == vb.params.len()
            && va.params.ids().zip(vb.params.ids()).all(|(x, y)| {
                va.params.name(x) == vb.params.name(y)
                    && va.params.value(x).shape() == vb.params.value(y).shape()
                    && va
                        .params
                        .value(x)
                        .data()
                        .iter()
                        .zip(vb.params.value(y).data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    })
}

/// Persists, restores, and measures one fleet size.
fn run_fleet(fleet: usize, seed: u64) -> StoreRow {
    let store = VariantStore::build(&StoreConfig::serving_default(fleet), seed);

    let mut blobs = ModelStore::in_memory();
    let persist_started = Instant::now();
    let root = store.persist(&mut blobs).expect("persist fleet");
    let persist_s = persist_started.elapsed().as_secs_f64();

    let restore_started = Instant::now();
    let restored = VariantStore::from_store(&blobs, root).expect("restore fleet");
    restored.materialize_all();
    let restore_s = restore_started.elapsed().as_secs_f64();

    let manifest = StoreManifest::from_bytes(&blobs.get(root).expect("manifest blob"))
        .expect("manifest parses");
    let backbone_blob_bytes = blobs
        .blob_bytes(manifest.backbones[0])
        .expect("backbone blob");
    let delta_total: u64 = manifest
        .variants
        .iter()
        .map(|v| blobs.blob_bytes(v.delta).expect("delta blob"))
        .sum();
    let manifest_bytes = blobs.blob_bytes(root).expect("manifest blob size");

    let naive_bytes: u64 = (0..fleet).map(|d| naive_device_bytes(&store, d)).sum();
    let store_bytes = blobs.total_bytes();
    let backbone_params = store.clusters()[0]
        .params
        .ids()
        .map(|id| store.clusters()[0].params.value(id).data().len())
        .sum();

    StoreRow {
        fleet_devices: fleet,
        clusters: store.clusters().len(),
        backbone_params,
        backbone_blob_bytes,
        mean_delta_bytes: delta_total as f64 / fleet as f64,
        manifest_bytes,
        store_bytes,
        naive_bytes,
        ratio: naive_bytes as f64 / store_bytes as f64,
        persist_s,
        restore_s,
        bitwise_identical: fleets_match_bitwise(&store, &restored),
    }
}

/// Runs the sweep, one store per fleet size.
pub fn sweep(cfg: &SweepConfig) -> Vec<StoreRow> {
    cfg.fleets
        .iter()
        .map(|&fleet| run_fleet(fleet, cfg.seed))
        .collect()
}

impl StoreRow {
    /// The row as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\": \"store\", \"fleet_devices\": {}, \"clusters\": {}, \
         \"backbone_params\": {}, \"backbone_blob_bytes\": {}, \
         \"mean_delta_bytes\": {:.1}, \"manifest_bytes\": {}, \
         \"store_bytes\": {}, \"naive_bytes\": {}, \"ratio\": {:.2}, \
         \"persist_s\": {:.4}, \"restore_s\": {:.4}, \
         \"bitwise_identical\": {}}}",
            self.fleet_devices,
            self.clusters,
            self.backbone_params,
            self.backbone_blob_bytes,
            self.mean_delta_bytes,
            self.manifest_bytes,
            self.store_bytes,
            self.naive_bytes,
            self.ratio,
            self.persist_s,
            self.restore_s,
            self.bitwise_identical,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_row_is_consistent() {
        let row = run_fleet(8, 7);
        assert_eq!(row.fleet_devices, 8);
        assert!(row.bitwise_identical);
        assert!(row.store_bytes < row.naive_bytes);
        assert!(row.mean_delta_bytes * 10.0 < row.backbone_blob_bytes as f64);
        assert!((row.ratio - row.naive_bytes as f64 / row.store_bytes as f64).abs() < 1e-9);
    }
}
