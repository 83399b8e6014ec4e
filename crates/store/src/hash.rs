//! Content addresses: the 128-bit FNV-1a digest of a blob.

use acme_nn::wire::{digest128, ByteReader, Codec, Sealed, WireError};

/// Address of a blob in a [`ModelStore`](crate::ModelStore): the
/// [`digest128`] of its bytes. Two identical serializations share one
/// address (deduplication); a blob that fails to re-digest to its
/// address is corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub [u8; 16]);

impl ContentHash {
    /// The address of raw `bytes`. A blob the tree seals takes its
    /// address from its seal instead ([`ModelStore::insert`](crate::ModelStore::insert),
    /// [`ContentHash::of_sealed`]); the root `clippy.toml` holds this to
    /// the store's raw-bytes `put` and `get`.
    pub fn of(bytes: &[u8]) -> Self {
        ContentHash(digest128(bytes))
    }

    /// The address `value`'s sealed blob is filed under, from the one
    /// digest pass of its seal.
    pub fn of_sealed<T: Codec>(value: &T) -> Self {
        ContentHash(Sealed::of(value).digest())
    }

    /// Reads the 16 raw address bytes a framed body embeds.
    pub fn read(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ContentHash(r.array()?))
    }

    /// Lowercase-hex form, 32 characters — also the on-disk file name a
    /// directory-backed store uses for this blob.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
        }
        s
    }

    /// Parses the [`ContentHash::to_hex`] form. Returns `None` for
    /// anything that is not exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let mut out = [0u8; 16];
        let b = s.as_bytes();
        for (i, chunk) in b.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(ContentHash(out))
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let h = ContentHash::of(b"acme backbone blob");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ContentHash::from_hex(&hex), Some(h));
        assert_eq!(format!("{h}"), hex);
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert!(ContentHash::from_hex("").is_none());
        assert!(ContentHash::from_hex("zz").is_none());
        assert!(ContentHash::from_hex(&"a".repeat(31)).is_none());
        assert!(ContentHash::from_hex(&"g".repeat(32)).is_none());
        assert!(ContentHash::from_hex("ZZ000000000000000000000000000000").is_none());
    }

    #[test]
    fn address_is_content_determined() {
        assert_eq!(ContentHash::of(b"x"), ContentHash::of(b"x"));
        assert_ne!(ContentHash::of(b"x"), ContentHash::of(b"y"));
    }
}
