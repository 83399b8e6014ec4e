//! The one framed codec behind every binary format this tree persists:
//! nn checkpoints (`ACME`, here), variant deltas (`ACMD`, `acme-store`),
//! serving manifests (`ACMS`, `acme-serve`) and run checkpoints (`ACMR`,
//! `acme-distsys`).
//!
//! A type implements [`Codec`] — a magic, a version and a body grammar —
//! and this module supplies the only frame around it (little-endian):
//!
//! ```text
//! magic 4 bytes | version u32 | body | fnv1a-128 digest (16 bytes) of every preceding byte
//! ```
//!
//! [`open`] checks, in this order and for every format: magic → version
//! → digest trailer → body → no trailing bytes. The digest is the same
//! [`digest128`] the content-addressed model store keys blobs by, so a
//! blob's address doubles as its integrity check.
//!
//! [`ByteReader`] enforces the repo-wide robustness rule: every length a
//! stream declares is validated against the bytes actually remaining
//! *before* any allocation is sized from it, so a corrupt or adversarial
//! body (a multi-exabyte count, a 4 GiB name, a dimension product that
//! wraps) is rejected cheaply instead of triggering a huge allocation.

const DIGEST_LEN: usize = 16;
/// Bytes the frame adds around a body: magic, version, digest trailer.
const FRAME_LEN: usize = 4 + 4 + DIGEST_LEN;

/// Error from [`open`] or a [`ByteReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the declared content, or declares more
    /// content than it carries.
    Truncated,
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The stream declares an unsupported format version.
    UnsupportedVersion(u32),
    /// The trailing integrity digest does not match the content.
    BadChecksum,
    /// An enum tag byte has no defined meaning.
    BadTag(u8),
    /// A string field is not valid UTF-8.
    BadName,
    /// A declared shape, count or field value is unrepresentable or
    /// inconsistent with the rest of the body.
    BadShape,
    /// The body parsed but did not consume every byte before the digest.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream truncated"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            WireError::BadChecksum => write!(f, "integrity digest mismatch"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            WireError::BadName => write!(f, "string field is not valid utf-8"),
            WireError::BadShape => write!(f, "declared shape or value is invalid"),
            WireError::TrailingBytes => write!(f, "unconsumed bytes after the body"),
        }
    }
}

impl std::error::Error for WireError {}

/// 128-bit FNV-1a digest: the frame trailer and the content-addressed
/// model store's blob address — one function, so an object's address
/// *is* its checksum.
pub fn digest128(bytes: &[u8]) -> [u8; 16] {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h.to_le_bytes()
}

/// A type with a framed binary form.
pub trait Codec: Sized {
    /// First four bytes of every blob of this type.
    const MAGIC: [u8; 4];
    /// The one format version written and accepted.
    const VERSION: u32;

    /// Writes the body (everything between version and digest).
    fn encode_body(&self, w: &mut ByteWriter);

    /// Parses and validates a body. Need not check for trailing bytes;
    /// [`open`] does.
    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self, WireError>;
}

/// Exact length of [`seal`]'s output, from running the same
/// [`Codec::encode_body`] into a counting sink.
pub fn encoded_len<T: Codec>(value: &T) -> u64 {
    let mut w = ByteWriter(Sink::Count(0));
    value.encode_body(&mut w);
    (FRAME_LEN + w.len()) as u64
}

/// Serializes `value` inside the frame.
pub fn seal<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&T::MAGIC);
    w.u32(T::VERSION);
    value.encode_body(&mut w);
    let mut out = w.into_vec();
    let digest = digest128(&out);
    out.extend_from_slice(&digest);
    out
}

/// Parses a framed blob, applying the module-level check order.
pub fn open<T: Codec>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(bytes);
    if r.array::<4>()? != T::MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u32()?;
    if version != T::VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let body_len = r
        .remaining()
        .checked_sub(DIGEST_LEN)
        .ok_or(WireError::Truncated)?;
    let (digested, trailer) = bytes.split_at(bytes.len() - DIGEST_LEN);
    if digest128(digested)[..] != *trailer {
        return Err(WireError::BadChecksum);
    }
    let mut body = ByteReader::new(r.bytes(body_len)?);
    let value = T::decode_body(&mut body)?;
    if !body.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

#[derive(Debug)]
enum Sink {
    Buffer(Vec<u8>),
    /// Only the byte count is kept: the sink behind [`encoded_len`].
    Count(usize),
}

/// Append-only little-endian writer.
#[derive(Debug)]
pub struct ByteWriter(Sink);

impl Default for ByteWriter {
    fn default() -> Self {
        ByteWriter::new()
    }
}

impl ByteWriter {
    /// An empty buffering writer.
    pub fn new() -> Self {
        ByteWriter(Sink::Buffer(Vec::new()))
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        match &mut self.0 {
            Sink::Buffer(buf) => buf.extend_from_slice(b),
            Sink::Count(n) => *n += b.len(),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a collection length as the `u32` count field
    /// [`ByteReader::count`] reads.
    ///
    /// # Panics
    ///
    /// Panics when `n` does not fit the field.
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("count fits the u32 wire field"));
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// Appends raw little-endian `f32` bits.
    fn f32s(&mut self, vals: &[f32]) {
        match &mut self.0 {
            Sink::Buffer(buf) => {
                buf.reserve(4 * vals.len());
                for v in vals {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            Sink::Count(n) => *n += 4 * vals.len(),
        }
    }

    /// Appends a tensor record: `rank u32 | dims u64 x rank | f32 x
    /// volume`.
    pub fn tensor(&mut self, shape: &[usize], data: &[f32]) {
        self.count(shape.len());
        for &d in shape {
            self.usize(d);
        }
        self.f32s(data);
    }

    fn len(&self) -> usize {
        match &self.0 {
            Sink::Buffer(buf) => buf.len(),
            Sink::Count(n) => *n,
        }
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Sink::Buffer(buf) => buf,
            Sink::Count(_) => Vec::new(),
        }
    }
}

/// Length-validating little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `N` raw bytes as an array (a 16-byte hash, the
    /// bytes of a fixed-width number).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64` that must fit this platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadShape)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a length-prefixed (u32) UTF-8 string. The declared length
    /// is bounded by the remaining input before anything is copied.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.count(1)?;
        let raw = self.bytes(len)?;
        Ok(std::str::from_utf8(raw)
            .map_err(|_| WireError::BadName)?
            .to_string())
    }

    /// Validates a declared element count against the remaining input
    /// (`count · elem_bytes` must still be readable) and converts it to
    /// `usize`. Call this before sizing any collection from a count the
    /// stream declares.
    pub fn checked_count(&self, count: u64, elem_bytes: usize) -> Result<usize, WireError> {
        debug_assert!(elem_bytes > 0);
        if count > (self.remaining() / elem_bytes) as u64 {
            return Err(WireError::Truncated);
        }
        usize::try_from(count).map_err(|_| WireError::BadShape)
    }

    /// Reads a `u32` count field and validates it with
    /// [`ByteReader::checked_count`] against `elem_bytes`, the fewest
    /// bytes one element can occupy.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let declared = self.u32()?;
        self.checked_count(u64::from(declared), elem_bytes)
    }

    /// Reads `n` raw little-endian `f32`s.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let raw = self.bytes(n.checked_mul(4).ok_or(WireError::BadShape)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect())
    }

    /// Reads a tensor record written by [`ByteWriter::tensor`]. Rank and
    /// volume are bounded by the remaining input before either buffer is
    /// sized, and the dimension product is overflow-checked.
    pub fn tensor(&mut self) -> Result<(Vec<usize>, Vec<f32>), WireError> {
        let rank = self.count(8)?;
        let mut shape = Vec::with_capacity(rank);
        let mut volume: u64 = 1;
        for _ in 0..rank {
            let d = self.u64()?;
            volume = volume.checked_mul(d).ok_or(WireError::BadShape)?;
            shape.push(usize::try_from(d).map_err(|_| WireError::BadShape)?);
        }
        let volume = self.checked_count(volume, 4)?;
        Ok((shape, self.f32s(volume)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(12);
        w.f64(2.5);
        w.str("ünïcode");
        w.tensor(&[2, 2], &[1.0, f32::NAN, -0.0, 4.0]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "ünïcode");
        let (shape, data) = r.tensor().unwrap();
        assert_eq!(shape, [2, 2]);
        let bits: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [1.0f32, f32::NAN, -0.0, 4.0].map(f32::to_bits),
            "tensor values must round-trip bitwise"
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32().unwrap_err(), WireError::Truncated);
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn oversized_declared_string_is_rejected_before_copy() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        w.bytes(b"ab");
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn checked_count_bounds_against_remaining() {
        let r = ByteReader::new(&[0u8; 40]);
        assert_eq!(r.checked_count(10, 4).unwrap(), 10);
        assert_eq!(r.checked_count(11, 4).unwrap_err(), WireError::Truncated);
        assert_eq!(
            r.checked_count(u64::MAX, 1).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn invalid_utf8_is_bad_name() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_vec();
        assert_eq!(
            ByteReader::new(&bytes).str().unwrap_err(),
            WireError::BadName
        );
    }

    #[test]
    fn digest128_is_stable_and_sensitive() {
        let a = digest128(b"acme");
        assert_eq!(a, digest128(b"acme"));
        assert_ne!(a, digest128(b"acmf"));
        assert_ne!(digest128(b""), [0u8; 16]);
    }
}
