//! Binary checkpointing of a [`ParamSet`]: the `ACME` format, a
//! [`Codec`] body inside the shared [`wire`](crate::wire) frame.
//!
//! ```text
//! param count u64
//! per parameter:
//!   name len u32 | name bytes (UTF-8) | trainable u8
//!   rank u32 | dims u64 x rank | f32 values x volume
//! ```
//!
//! In the ACME system this is what a cloud → edge `BackboneAssignment`
//! or edge → device `HeaderSpec` weight payload would contain; the
//! distributed-system simulation meters `4 · param_count` bytes, which
//! [`save_params`] matches up to the fixed header overhead.

use acme_tensor::Array;

use crate::param::ParamSet;
use crate::wire::{self, ByteReader, ByteWriter, Codec, WireError};

/// Minimum bytes one parameter record can occupy: name len (4) +
/// trainable (1) + rank (4). Used to sanity-bound a declared count.
const MIN_RECORD_BYTES: usize = 9;

impl Codec for ParamSet {
    const MAGIC: [u8; 4] = *b"ACME";
    const VERSION: u32 = 2;

    fn encode_body(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        for id in self.ids() {
            w.str(self.name(id));
            w.u8(u8::from(self.is_trainable(id)));
            let value = self.value(id);
            w.tensor(value.shape(), value.data());
        }
    }

    /// Parameter ids are assigned in stream order, so a set saved and
    /// reloaded is structurally identical (same ids, names, shapes,
    /// flags, values).
    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let declared = r.u64()?;
        let count = r.checked_count(declared, MIN_RECORD_BYTES)?;
        let mut ps = ParamSet::new();
        for _ in 0..count {
            let name = r.str()?;
            let trainable = r.u8()? != 0;
            let (shape, data) = r.tensor()?;
            let array = Array::from_vec(data, &shape).map_err(|_| WireError::BadShape)?;
            let id = ps.add(name, array);
            ps.set_trainable(id, trainable);
        }
        Ok(ps)
    }
}

/// Serializes every parameter (values, names, trainable flags) as a
/// sealed `ACME` blob.
pub fn save_params(ps: &ParamSet) -> Vec<u8> {
    wire::seal(ps)
}

/// Restores a [`ParamSet`] written by [`save_params`].
///
/// # Errors
///
/// Returns a [`WireError`] for malformed input; see [`wire::open`] for
/// the check order.
pub fn load_params(bytes: &[u8]) -> Result<ParamSet, WireError> {
    wire::open(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};

    fn sample_set() -> ParamSet {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        ps.add("w", randn(&[3, 4], &mut rng));
        let b = ps.add("ünïcode.bias", randn(&[4], &mut rng));
        ps.set_trainable(b, false);
        ps.add("scalar", Array::scalar(7.5));
        ps
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ps = sample_set();
        assert_eq!(load_params(&save_params(&ps)).unwrap(), ps);
        let empty = ParamSet::new();
        assert!(load_params(&save_params(&empty)).unwrap().is_empty());
    }

    #[test]
    fn size_is_dominated_by_weights() {
        let ps = sample_set();
        let bytes = save_params(&ps);
        let weight_bytes = ps.num_scalars() * 4;
        assert!(bytes.len() >= weight_bytes);
        assert!(
            bytes.len() < weight_bytes + 200,
            "overhead too large: {}",
            bytes.len()
        );
        assert_eq!(bytes.len() as u64, wire::encoded_len(&ps));
    }

    #[test]
    fn model_survives_checkpointing() {
        // A trained linear layer predicts identically after reload.
        use crate::linear::Linear;
        use acme_tensor::Graph;
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let layer = Linear::new(&mut ps, "fc", 4, 2, &mut rng);
        let x = randn(&[3, 4], &mut rng);
        let run = |ps: &ParamSet| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let y = layer.forward(&mut g, ps, xv);
            g.value(y).clone()
        };
        let before = run(&ps);
        let reloaded = load_params(&save_params(&ps)).unwrap();
        let after = run(&reloaded);
        assert_eq!(before, after);
    }
}
