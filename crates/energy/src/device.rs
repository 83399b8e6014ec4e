//! Device attributes `(G_n, C_n)` from §II-C of the paper.

/// Identifier of a device in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device-{}", self.0)
    }
}

/// A device with the attribute tuple `(G_n, C_n)` of the paper: GPU
/// capacity and a storage limit measured in model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    id: DeviceId,
    /// GPU capacity `G_n` (abstract compute units; the paper's VMs use
    /// 3–7 vCPUs).
    gpu_capacity: f64,
    /// Storage limit `C_n`: the maximum number of storable parameters.
    storage_limit: u64,
    /// Number of input patches `p_n` (Eq. 2).
    num_patches: usize,
    /// Training batch size `β` used in the `G_n^β` term.
    batch_size: usize,
}

impl Device {
    /// Creates a device with default patch/batch geometry (16 patches,
    /// batch 32, matching the scaled-down ViT of this reproduction).
    pub fn new(id: usize, gpu_capacity: f64, storage_limit: u64) -> Self {
        Device {
            id: DeviceId(id),
            gpu_capacity,
            storage_limit,
            num_patches: 16,
            batch_size: 32,
        }
    }

    /// Overrides the patch count.
    pub fn with_patches(mut self, num_patches: usize) -> Self {
        self.num_patches = num_patches;
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// The device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// GPU capacity `G_n`.
    pub fn gpu_capacity(&self) -> f64 {
        self.gpu_capacity
    }

    /// Storage limit `C_n` in parameters.
    pub fn storage_limit(&self) -> u64 {
        self.storage_limit
    }

    /// Patch count `p_n`.
    pub fn num_patches(&self) -> usize {
        self.num_patches
    }

    /// Batch size `β`.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Converts a storage budget in megabytes to a parameter count
    /// (4-byte `f32` weights), the unit the paper uses for `C_n`.
    pub fn params_from_megabytes(mb: f64) -> u64 {
        (mb * 1e6 / 4.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let d = Device::new(3, 5.0, 1000).with_patches(4).with_batch_size(8);
        assert_eq!(d.id(), DeviceId(3));
        assert_eq!(d.gpu_capacity(), 5.0);
        assert_eq!(d.storage_limit(), 1000);
        assert_eq!(d.num_patches(), 4);
        assert_eq!(d.batch_size(), 8);
        assert_eq!(d.id().to_string(), "device-3");
    }

    #[test]
    fn megabyte_conversion() {
        // 200 MB of f32 weights = 50M parameters.
        assert_eq!(Device::params_from_megabytes(200.0), 50_000_000);
    }
}
