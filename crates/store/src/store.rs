//! The deduplicating blob store, in-memory or directory-backed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use acme_nn::{load_params, save_params, ParamSet};

use crate::delta::{ApplyError, VariantDelta};
use crate::hash::ContentHash;
use acme_nn::wire::WireError;

/// Error from a [`ModelStore`] operation.
#[derive(Debug)]
pub enum StoreError {
    /// No blob with this address is known.
    NotFound(ContentHash),
    /// The blob on disk no longer digests to its address.
    Corrupt(ContentHash),
    /// Filesystem failure (directory-backed stores only).
    Io(std::io::Error),
    /// A blob failed to parse as the framed type it was fetched as.
    Wire(WireError),
    /// A delta does not fit the backbone it was resolved against.
    Apply(ApplyError),
    /// Stored content disagrees with what the caller expected of it
    /// (wrong parameter layout, wrong counts, …).
    Mismatch(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(h) => write!(f, "blob {h} not in store"),
            StoreError::Corrupt(h) => write!(f, "blob {h} is corrupt on disk"),
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Wire(e) => write!(f, "blob does not parse: {e}"),
            StoreError::Apply(e) => write!(f, "delta does not fit its backbone: {e}"),
            StoreError::Mismatch(what) => write!(f, "stored content mismatch: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ApplyError> for StoreError {
    fn from(e: ApplyError) -> Self {
        StoreError::Apply(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// A content-addressed blob store.
///
/// Blobs are keyed by [`ContentHash`] of their bytes, so identical
/// content is stored once: a cluster backbone referenced by thousands of
/// device deltas costs its bytes a single time, which is the whole
/// storage argument of the delta scheme.
///
/// Two flavors share the type: [`ModelStore::in_memory`] keeps
/// everything in a map; [`ModelStore::open`] additionally mirrors every
/// blob to `<dir>/<hex-hash>.blob` and indexes what a previous process
/// left there (content is read back lazily, with the digest re-verified
/// against the address on every disk read).
#[derive(Debug)]
pub struct ModelStore {
    /// Blobs resident in memory.
    blobs: BTreeMap<ContentHash, Vec<u8>>,
    /// Blobs known on disk but not (yet) resident, with their sizes.
    disk: BTreeMap<ContentHash, u64>,
    dir: Option<PathBuf>,
}

const BLOB_EXT: &str = "blob";

impl ModelStore {
    /// A store holding everything in memory.
    pub fn in_memory() -> Self {
        ModelStore {
            blobs: BTreeMap::new(),
            disk: BTreeMap::new(),
            dir: None,
        }
    }

    /// Opens (creating if needed) a directory-backed store. Existing
    /// `<hex-hash>.blob` files are indexed without reading their
    /// content; files that do not look like blob names are ignored.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut disk = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(BLOB_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(hash) = ContentHash::from_hex(stem) else {
                continue;
            };
            disk.insert(hash, entry.metadata()?.len());
        }
        Ok(ModelStore {
            blobs: BTreeMap::new(),
            disk,
            dir: Some(dir),
        })
    }

    fn blob_path(dir: &Path, hash: ContentHash) -> PathBuf {
        dir.join(format!("{}.{BLOB_EXT}", hash.to_hex()))
    }

    /// Stores `bytes`, returning their address. Content already present
    /// (in memory or on disk) is not written again.
    pub fn put(&mut self, bytes: Vec<u8>) -> Result<ContentHash, StoreError> {
        let hash = ContentHash::of(&bytes);
        if self.blobs.contains_key(&hash) || self.disk.contains_key(&hash) {
            return Ok(hash);
        }
        if let Some(dir) = &self.dir {
            let path = Self::blob_path(dir, hash);
            // Write-then-rename so a crash mid-write can never leave a
            // plausible-looking partial blob under a valid address.
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &bytes)?;
            std::fs::rename(&tmp, &path)?;
            self.disk.insert(hash, bytes.len() as u64);
        }
        self.blobs.insert(hash, bytes);
        Ok(hash)
    }

    /// Fetches a blob's bytes by address, reading (and digest-verifying)
    /// from disk when it is not resident.
    pub fn get(&self, hash: ContentHash) -> Result<Vec<u8>, StoreError> {
        if let Some(bytes) = self.blobs.get(&hash) {
            return Ok(bytes.clone());
        }
        if self.disk.contains_key(&hash) {
            let dir = self.dir.as_ref().expect("disk index implies a directory");
            let bytes = std::fs::read(Self::blob_path(dir, hash))?;
            if ContentHash::of(&bytes) != hash {
                return Err(StoreError::Corrupt(hash));
            }
            return Ok(bytes);
        }
        Err(StoreError::NotFound(hash))
    }

    /// Whether a blob with this address is known.
    pub fn contains(&self, hash: ContentHash) -> bool {
        self.blobs.contains_key(&hash) || self.disk.contains_key(&hash)
    }

    /// Stores a checkpointed [`ParamSet`], returning its address.
    pub fn put_params(&mut self, ps: &ParamSet) -> Result<ContentHash, StoreError> {
        self.put(save_params(ps))
    }

    /// Loads a [`ParamSet`] blob.
    pub fn get_params(&self, hash: ContentHash) -> Result<ParamSet, StoreError> {
        Ok(load_params(&self.get(hash)?)?)
    }

    /// Stores a serialized [`VariantDelta`], returning its address.
    pub fn put_delta(&mut self, delta: &VariantDelta) -> Result<ContentHash, StoreError> {
        self.put(delta.to_bytes())
    }

    /// Loads a [`VariantDelta`] blob.
    pub fn get_delta(&self, hash: ContentHash) -> Result<VariantDelta, StoreError> {
        Ok(VariantDelta::from_bytes(&self.get(hash)?)?)
    }

    /// Number of distinct blobs known.
    pub fn len(&self) -> usize {
        let mut keys: BTreeSet<ContentHash> = self.blobs.keys().copied().collect();
        keys.extend(self.disk.keys().copied());
        keys.len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty() && self.disk.is_empty()
    }

    /// Total bytes across all distinct blobs — the fleet's storage
    /// footprint under delta encoding.
    pub fn total_bytes(&self) -> u64 {
        let mut total = 0;
        for (h, b) in &self.blobs {
            if !self.disk.contains_key(h) {
                total += b.len() as u64;
            }
        }
        total + self.disk.values().sum::<u64>()
    }

    /// Size in bytes of one blob.
    pub fn blob_bytes(&self, hash: ContentHash) -> Result<u64, StoreError> {
        if let Some(b) = self.blobs.get(&hash) {
            return Ok(b.len() as u64);
        }
        self.disk
            .get(&hash)
            .copied()
            .ok_or(StoreError::NotFound(hash))
    }

    /// Addresses of all known blobs, in address order.
    pub fn hashes(&self) -> Vec<ContentHash> {
        let mut keys: BTreeSet<ContentHash> = self.blobs.keys().copied().collect();
        keys.extend(self.disk.keys().copied());
        keys.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("acme-store-test-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn put_is_deduplicating() {
        let mut s = ModelStore::in_memory();
        let a = s.put(vec![1, 2, 3]).unwrap();
        let b = s.put(vec![1, 2, 3]).unwrap();
        let c = s.put(vec![4]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 4);
        assert_eq!(s.get(a).unwrap(), vec![1, 2, 3]);
        assert!(matches!(
            s.get(ContentHash::of(b"missing")),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn params_roundtrip_through_the_store() {
        let mut rng = SmallRng64::new(3);
        let mut ps = ParamSet::new();
        ps.add("w", randn(&[5, 5], &mut rng));
        let mut s = ModelStore::in_memory();
        let h = s.put_params(&ps).unwrap();
        let back = s.get_params(h).unwrap();
        assert_eq!(
            ps.value(ps.ids().next().unwrap()),
            back.value(back.ids().next().unwrap())
        );
    }

    #[test]
    fn directory_store_survives_reopen() {
        let dir = scratch_dir("reopen");
        let mut rng = SmallRng64::new(4);
        let mut ps = ParamSet::new();
        ps.add("w", randn(&[3, 3], &mut rng));
        let h = {
            let mut s = ModelStore::open(&dir).unwrap();
            s.put_params(&ps).unwrap()
        };
        let s = ModelStore::open(&dir).unwrap();
        assert!(s.contains(h));
        assert_eq!(s.len(), 1);
        assert!(s.total_bytes() > 0);
        let back = s.get_params(h).unwrap();
        assert_eq!(
            ps.value(ps.ids().next().unwrap()),
            back.value(back.ids().next().unwrap())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_corruption_is_detected_on_read() {
        let dir = scratch_dir("corrupt");
        let h = {
            let mut s = ModelStore::open(&dir).unwrap();
            s.put(b"precious weights".to_vec()).unwrap()
        };
        let path = dir.join(format!("{}.blob", h.to_hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let s = ModelStore::open(&dir).unwrap();
        assert!(matches!(s.get(h), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_blob_files_are_ignored_on_open() {
        let dir = scratch_dir("ignore");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), b"not a blob").unwrap();
        std::fs::write(dir.join("zzzz.blob"), b"bad name").unwrap();
        let s = ModelStore::open(&dir).unwrap();
        assert!(s.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
