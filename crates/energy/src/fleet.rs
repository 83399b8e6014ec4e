//! Device clusters and the fleet of the paper's system settings (§IV-A):
//! 10 clusters of 5 devices each, vCPUs 3–7, storage 200–400 MB.

use serde::{Deserialize, Serialize};

use crate::device::Device;

/// Identifier of an edge server / device cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "edge-{}", self.0)
    }
}

/// The device cluster `N_s` managed by one edge server. Devices within a
/// cluster have similar compute and storage (the paper partitions by
/// attribute similarity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceCluster {
    edge: EdgeId,
    devices: Vec<Device>,
}

impl DeviceCluster {
    /// Creates a cluster. An empty device list is allowed: clusters can
    /// drain as devices drop out, and the protocol runtime treats a
    /// deviceless cluster as trivially complete.
    pub fn new(edge: EdgeId, devices: Vec<Device>) -> Self {
        DeviceCluster { edge, devices }
    }

    /// The owning edge server id.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The devices of the cluster.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// `min_{n in N_s} C_n`: the binding storage constraint used in
    /// Eq. (10). Zero for an empty cluster (nothing can be stored on no
    /// devices).
    pub fn min_storage(&self) -> u64 {
        self.devices
            .iter()
            .map(Device::storage_limit)
            .min()
            .unwrap_or(0)
    }

    /// The binding storage constraint in bytes: `4·min_n C_n` at 4
    /// bytes per `f32` parameter. A measured deploy artifact (backbone
    /// blob + variant delta) must fit under this for every device of
    /// the cluster to hold its model.
    pub fn min_storage_bytes(&self) -> u64 {
        self.min_storage().saturating_mul(4)
    }

    /// The device with the largest energy footprint proxy (lowest GPU
    /// capacity): the paper uses the cluster's max energy as the
    /// representative metric in Eq. (10). Ties go to the earlier device.
    /// A NaN capacity ranks above every number, so a device whose
    /// capacity is unknown is returned only when no device has a known
    /// one (then the first).
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster.
    pub fn weakest_device(&self) -> &Device {
        self.devices
            .iter()
            .min_by(|a, b| {
                let (a, b) = (a.gpu_capacity(), b.gpu_capacity());
                a.partial_cmp(&b)
                    .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            })
            .expect("nonempty")
    }
}

/// The whole fleet: all clusters under the cloud server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fleet {
    clusters: Vec<DeviceCluster>,
}

impl Fleet {
    /// Wraps explicit clusters.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster list.
    pub fn new(clusters: Vec<DeviceCluster>) -> Self {
        assert!(!clusters.is_empty(), "fleet must contain clusters");
        Fleet { clusters }
    }

    /// Builds the paper's evaluation fleet: `n_clusters` clusters of
    /// `devices_per_cluster` devices; within cluster `s`, GPU capacities
    /// cycle over 3–7 "vCPUs" and storage over 200–400 MB, with a mild
    /// per-cluster offset so clusters are internally homogeneous but
    /// mutually heterogeneous.
    ///
    /// # Panics
    ///
    /// Panics when either count is zero.
    pub fn paper_default(n_clusters: usize, devices_per_cluster: usize) -> Self {
        assert!(
            n_clusters > 0 && devices_per_cluster > 0,
            "degenerate fleet"
        );
        let storage_mb = [200.0, 250.0, 300.0, 350.0, 400.0];
        let mut clusters = Vec::with_capacity(n_clusters);
        let mut next_id = 0usize;
        for s in 0..n_clusters {
            // Cluster-level attribute bands: clusters are sorted from weak
            // to strong, devices inside a cluster are similar.
            let base_gpu = 3.0 + 4.0 * (s as f64) / (n_clusters.max(2) - 1) as f64;
            let base_mb = storage_mb[s % storage_mb.len()];
            let devices = (0..devices_per_cluster)
                .map(|i| {
                    let gpu = base_gpu + 0.2 * (i as f64);
                    let mb = base_mb + 10.0 * (i as f64);
                    let d = Device::new(next_id, gpu, Device::params_from_megabytes(mb));
                    next_id += 1;
                    d
                })
                .collect();
            clusters.push(DeviceCluster::new(EdgeId(s), devices));
        }
        Fleet { clusters }
    }

    /// Builds a fleet whose storage limits are scaled to a micro model:
    /// cluster `s` can hold between 30% and 110% of `full_params`
    /// (linearly over clusters), the same *relative* band the paper's
    /// 200–400 MB limits span against ViT-B's 86M parameters. GPU
    /// capacities follow [`Fleet::paper_default`].
    ///
    /// # Panics
    ///
    /// Panics when either count is zero or `full_params` is zero.
    pub fn micro_scaled(n_clusters: usize, devices_per_cluster: usize, full_params: u64) -> Self {
        assert!(
            n_clusters > 0 && devices_per_cluster > 0,
            "degenerate fleet"
        );
        assert!(full_params > 0, "full_params must be positive");
        let mut clusters = Vec::with_capacity(n_clusters);
        let mut next_id = 0usize;
        for s in 0..n_clusters {
            let frac = if n_clusters == 1 {
                1.1
            } else {
                0.3 + 0.8 * (s as f64) / (n_clusters - 1) as f64
            };
            let base_gpu = 3.0 + 4.0 * (s as f64) / (n_clusters.max(2) - 1) as f64;
            let devices = (0..devices_per_cluster)
                .map(|i| {
                    let gpu = base_gpu + 0.2 * (i as f64);
                    let storage =
                        ((full_params as f64) * frac * (1.0 + 0.02 * i as f64)).round() as u64;
                    let d = Device::new(next_id, gpu, storage.max(1));
                    next_id += 1;
                    d
                })
                .collect();
            clusters.push(DeviceCluster::new(EdgeId(s), devices));
        }
        Fleet { clusters }
    }

    /// All clusters.
    pub fn clusters(&self) -> &[DeviceCluster] {
        &self.clusters
    }

    /// Total number of devices `N`.
    pub fn num_devices(&self) -> usize {
        self.clusters.iter().map(|c| c.devices().len()).sum()
    }

    /// Number of edge servers `S`.
    pub fn num_edges(&self) -> usize {
        self.clusters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;

    #[test]
    fn paper_default_matches_system_settings() {
        let fleet = Fleet::paper_default(10, 5);
        assert_eq!(fleet.num_edges(), 10);
        assert_eq!(fleet.num_devices(), 50);
        for c in fleet.clusters() {
            assert_eq!(c.devices().len(), 5);
            // vCPU band 3..=7-ish.
            for d in c.devices() {
                assert!(d.gpu_capacity() >= 3.0 && d.gpu_capacity() <= 8.0);
                // Storage band 200..=440 MB worth of parameters.
                assert!(d.storage_limit() >= 50_000_000);
                assert!(d.storage_limit() <= 110_000_000);
            }
        }
    }

    #[test]
    fn weakest_device_ranks_a_nan_capacity_above_every_number() {
        let cluster = |caps: &[f64]| {
            let devices = caps.iter().enumerate();
            DeviceCluster::new(
                EdgeId(0),
                devices.map(|(i, &g)| Device::new(i, g, 1)).collect(),
            )
        };
        let c = cluster(&[f64::NAN, 5.0, 3.0, f64::NAN, 3.0]);
        assert_eq!(
            c.weakest_device().id(),
            DeviceId(2),
            "first of the tied minima"
        );
        let c = cluster(&[f64::NAN, f64::INFINITY]);
        assert_eq!(
            c.weakest_device().id(),
            DeviceId(1),
            "+inf is still a number"
        );
        let c = cluster(&[f64::NAN, f64::NAN]);
        assert_eq!(
            c.weakest_device().id(),
            DeviceId(0),
            "nothing known: the first"
        );
    }

    #[test]
    fn min_storage_and_weakest() {
        let c = DeviceCluster::new(
            EdgeId(0),
            vec![
                Device::new(0, 5.0, 300),
                Device::new(1, 3.0, 100),
                Device::new(2, 7.0, 200),
            ],
        );
        assert_eq!(c.min_storage(), 100);
        assert_eq!(c.min_storage_bytes(), 400);
        assert_eq!(c.weakest_device().id().0, 1);
        assert_eq!(c.edge(), EdgeId(0));
    }

    #[test]
    fn empty_cluster_is_allowed_and_stores_nothing() {
        let c = DeviceCluster::new(EdgeId(3), Vec::new());
        assert_eq!(c.devices().len(), 0);
        assert_eq!(c.min_storage(), 0);
    }

    #[test]
    fn device_ids_are_globally_unique() {
        let fleet = Fleet::paper_default(4, 3);
        let mut ids: Vec<usize> = fleet
            .clusters()
            .iter()
            .flat_map(|c| c.devices().iter().map(|d| d.id().0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn micro_scaled_bounds_span_the_model() {
        let fleet = Fleet::micro_scaled(5, 3, 10_000);
        let mins: Vec<u64> = fleet.clusters().iter().map(|c| c.min_storage()).collect();
        assert!(
            mins[0] < 10_000,
            "tightest cluster must constrain the full model"
        );
        assert!(
            *mins.last().unwrap() > 10_000,
            "loosest cluster must fit the full model"
        );
        assert!(mins.windows(2).all(|w| w[0] <= w[1]));
        // Single-cluster fleets fit everything.
        let one = Fleet::micro_scaled(1, 2, 10_000);
        assert!(one.clusters()[0].min_storage() > 10_000);
    }

    #[test]
    fn clusters_are_heterogeneous() {
        let fleet = Fleet::paper_default(10, 5);
        let first = fleet.clusters()[0].devices()[0].gpu_capacity();
        let last = fleet.clusters()[9].devices()[0].gpu_capacity();
        assert!(last > first + 2.0);
    }
}
