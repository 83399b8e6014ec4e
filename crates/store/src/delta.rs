//! Structural deltas: a variant [`ParamSet`] expressed against its
//! backbone as a prune mask plus per-parameter ops.
//!
//! ACME's per-device variants share their cluster backbone and differ
//! only in class-pruned, personalized exit heads (§III). A
//! [`VariantDelta`] captures exactly that structure: the kept-class ids
//! (the prune mask over the backbone's class axis) and one [`DeltaOp`]
//! per variant parameter. Reconstruction is **bitwise**: changed values
//! are stored verbatim rather than as arithmetic residuals, because f32
//! `a + (b - a)` does not round-trip — so
//! `apply(backbone, encode(backbone, …, variant)) == variant` holds
//! exactly, NaNs and signed zeros included.
//!
//! `ACMD` body grammar (inside the [`acme_nn::wire`] frame):
//!
//! ```text
//! backbone hash 16 bytes
//! class count u32 | class id u32 x count
//! op count u32
//! per op: tag u8 | name len u32 | name | trainable u8
//!         tag 2 (Changed) adds: rank u32 | dims u64 x rank | f32 x volume
//! ```

use std::collections::HashMap;

use acme_nn::wire::{self, ByteReader, ByteWriter, Codec, WireError};
use acme_nn::ParamSet;
use acme_tensor::Array;

use crate::hash::ContentHash;

const TAG_SAME: u8 = 0;
const TAG_PRUNED: u8 = 1;
const TAG_CHANGED: u8 = 2;

/// How one variant parameter relates to the backbone keyspace.
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// Bitwise-identical to the backbone parameter of the same name.
    Same {
        /// Parameter name in both sets.
        name: String,
        /// Trainable flag of the variant's copy.
        trainable: bool,
    },
    /// The backbone parameter of the same name with its last axis
    /// gathered at the delta's kept classes (a pure structural prune —
    /// no weight change).
    PrunedCols {
        /// Parameter name in both sets.
        name: String,
        /// Trainable flag of the variant's copy.
        trainable: bool,
    },
    /// A parameter whose values differ from anything derivable from the
    /// backbone; stored verbatim (personalized exit heads land here).
    Changed {
        /// Parameter name in the variant set.
        name: String,
        /// Shape of the stored value.
        shape: Vec<usize>,
        /// Raw f32 values, bit-exact.
        values: Vec<f32>,
        /// Trainable flag of the variant's copy.
        trainable: bool,
    },
}

impl DeltaOp {
    fn name(&self) -> &str {
        match self {
            DeltaOp::Same { name, .. }
            | DeltaOp::PrunedCols { name, .. }
            | DeltaOp::Changed { name, .. } => name,
        }
    }

    fn trainable(&self) -> bool {
        match self {
            DeltaOp::Same { trainable, .. }
            | DeltaOp::PrunedCols { trainable, .. }
            | DeltaOp::Changed { trainable, .. } => *trainable,
        }
    }
}

/// Where one op's value comes from, once [`VariantDelta::resolve`] has
/// checked that it can be built.
enum Source<'a> {
    /// The named backbone parameter, as is.
    Backbone(&'a Array),
    /// The named backbone parameter, its last axis gathered at the kept
    /// classes.
    Gathered(&'a Array),
    /// The op's own stored shape and values.
    Stored(&'a [usize], &'a [f32]),
}

/// Bitwise equality — NaN-safe, unlike f32 `==` (a delta holding a NaN
/// weight must still compare equal to its round-tripped self).
impl PartialEq for DeltaOp {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                DeltaOp::Same {
                    name: a,
                    trainable: ta,
                },
                DeltaOp::Same {
                    name: b,
                    trainable: tb,
                },
            )
            | (
                DeltaOp::PrunedCols {
                    name: a,
                    trainable: ta,
                },
                DeltaOp::PrunedCols {
                    name: b,
                    trainable: tb,
                },
            ) => a == b && ta == tb,
            (
                DeltaOp::Changed {
                    name: a,
                    shape: sa,
                    values: va,
                    trainable: ta,
                },
                DeltaOp::Changed {
                    name: b,
                    shape: sb,
                    values: vb,
                    trainable: tb,
                },
            ) => {
                a == b
                    && sa == sb
                    && ta == tb
                    && va.len() == vb.len()
                    && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

impl Eq for DeltaOp {}

/// Error applying a [`VariantDelta`] to a backbone it does not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// An op references a backbone parameter that does not exist.
    MissingParam(String),
    /// A [`DeltaOp::PrunedCols`] op cannot gather: the named backbone
    /// parameter is rank 0 or a kept class exceeds its last axis.
    BadGather(String),
    /// A [`DeltaOp::Changed`] op's shape does not match its value count.
    BadValue(String),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::MissingParam(n) => write!(f, "backbone has no parameter {n:?}"),
            ApplyError::BadGather(n) => write!(f, "cannot class-gather backbone parameter {n:?}"),
            ApplyError::BadValue(n) => write!(f, "stored value for {n:?} does not fit its shape"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// A variant expressed as backbone reference + prune mask + ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantDelta {
    /// Address of the backbone blob this delta is relative to.
    pub backbone: ContentHash,
    /// Kept global class ids, ascending — the prune mask over the
    /// backbone's class axis.
    pub classes: Vec<u32>,
    /// One op per variant parameter, in the variant's registration
    /// order (so [`VariantDelta::apply`] reproduces identical
    /// [`acme_nn::ParamId`] assignment).
    pub ops: Vec<DeltaOp>,
}

fn bits_eq(a: &Array, b: &Array) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Gathers `arr`'s last axis at `classes`, or `None` when `arr` is rank
/// 0 or a class id is out of range.
fn gather_last_axis(arr: &Array, classes: &[u32]) -> Option<Array> {
    let shape = arr.shape();
    let &last = shape.last()?;
    if classes.iter().any(|&c| c as usize >= last) {
        return None;
    }
    let rows = arr.data().len() / last.max(1);
    let mut out = Vec::with_capacity(rows * classes.len());
    for row in 0..rows {
        let base = row * last;
        for &c in classes {
            out.push(arr.data()[base + c as usize]);
        }
    }
    let mut new_shape = shape.to_vec();
    *new_shape.last_mut()? = classes.len();
    Array::from_vec(out, &new_shape).ok()
}

impl VariantDelta {
    /// Encodes `variant` against `backbone`. Per parameter (in the
    /// variant's registration order) the cheapest faithful op wins:
    /// bitwise-identical → [`DeltaOp::Same`]; an exact last-axis gather
    /// of the same-named backbone parameter at `classes` →
    /// [`DeltaOp::PrunedCols`]; anything else → [`DeltaOp::Changed`]
    /// verbatim. The precedence is fixed, so encoding is deterministic
    /// and `encode(b, …, apply(b, d)) == d` for any encoder-produced
    /// `d`.
    pub fn encode(
        backbone: &ParamSet,
        backbone_hash: ContentHash,
        classes: &[usize],
        variant: &ParamSet,
    ) -> VariantDelta {
        let classes: Vec<u32> = classes.iter().map(|&c| c as u32).collect();
        let by_name: HashMap<&str, _> = backbone.ids().map(|id| (backbone.name(id), id)).collect();
        let ops = variant
            .ids()
            .map(|vid| {
                let name = variant.name(vid).to_string();
                let value = variant.value(vid);
                let trainable = variant.is_trainable(vid);
                if let Some(&bid) = by_name.get(name.as_str()) {
                    let bval = backbone.value(bid);
                    if bits_eq(bval, value) {
                        return DeltaOp::Same { name, trainable };
                    }
                    if let Some(gathered) = gather_last_axis(bval, &classes) {
                        if bits_eq(&gathered, value) {
                            return DeltaOp::PrunedCols { name, trainable };
                        }
                    }
                }
                DeltaOp::Changed {
                    name,
                    shape: value.shape().to_vec(),
                    values: value.data().to_vec(),
                    trainable,
                }
            })
            .collect();
        VariantDelta {
            backbone: backbone_hash,
            classes,
            ops,
        }
    }

    /// Resolves every op against `backbone`, in op order, checking the
    /// one set of rules [`VariantDelta::apply`] relies on: a `Same` or
    /// `PrunedCols` op names a backbone parameter
    /// ([`ApplyError::MissingParam`]), a `PrunedCols` parameter has a
    /// last axis every kept class indexes ([`ApplyError::BadGather`]),
    /// and a `Changed` op's values fill its shape exactly
    /// ([`ApplyError::BadValue`]).
    fn resolve<'a>(&'a self, backbone: &'a ParamSet) -> Result<Vec<Source<'a>>, ApplyError> {
        let by_name: HashMap<&str, _> = backbone.ids().map(|id| (backbone.name(id), id)).collect();
        let named = |name: &String| {
            by_name
                .get(name.as_str())
                .map(|&id| backbone.value(id))
                .ok_or_else(|| ApplyError::MissingParam(name.clone()))
        };
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Same { name, .. } => named(name).map(Source::Backbone),
                DeltaOp::PrunedCols { name, .. } => {
                    let value = named(name)?;
                    match value.shape().last() {
                        Some(&last) if self.classes.iter().all(|&c| (c as usize) < last) => {
                            Ok(Source::Gathered(value))
                        }
                        _ => Err(ApplyError::BadGather(name.clone())),
                    }
                }
                DeltaOp::Changed {
                    name,
                    shape,
                    values,
                    ..
                } => {
                    let volume = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
                    if volume == Some(values.len()) {
                        Ok(Source::Stored(shape, values))
                    } else {
                        Err(ApplyError::BadValue(name.clone()))
                    }
                }
            })
            .collect()
    }

    /// Reconstructs the variant [`ParamSet`] from `backbone` —
    /// bit-identical to the set [`VariantDelta::encode`] saw, with the
    /// same parameter order, names, and trainable flags.
    ///
    /// # Errors
    ///
    /// Returns an [`ApplyError`] when the delta references parameters
    /// or class columns `backbone` does not have (i.e. the delta was
    /// encoded against a different backbone), or a stored value does not
    /// fit its shape.
    pub fn apply(&self, backbone: &ParamSet) -> Result<ParamSet, ApplyError> {
        let mut out = ParamSet::new();
        for (op, source) in self.ops.iter().zip(self.resolve(backbone)?) {
            let value = match source {
                Source::Backbone(value) => value.clone(),
                Source::Gathered(value) => {
                    gather_last_axis(value, &self.classes).expect("resolved gather")
                }
                Source::Stored(shape, values) => {
                    Array::from_vec(values.to_vec(), shape).expect("resolved volume")
                }
            };
            let id = out.add(op.name(), value);
            out.set_trainable(id, op.trainable());
        }
        Ok(out)
    }

    /// Checks that [`VariantDelta::apply`] against `backbone` would
    /// succeed, without materializing anything — the structural
    /// validation a lazy store runs once at load time so later
    /// on-demand materialization is infallible — and returns the shape
    /// of each parameter `apply` would build, in op order.
    ///
    /// # Errors
    ///
    /// The [`ApplyError`] `apply` would return.
    pub fn validate(&self, backbone: &ParamSet) -> Result<Vec<Vec<usize>>, ApplyError> {
        let sources = self.resolve(backbone)?;
        Ok(sources
            .into_iter()
            .map(|source| match source {
                Source::Backbone(value) => value.shape().to_vec(),
                Source::Gathered(value) => {
                    let mut shape = value.shape().to_vec();
                    *shape.last_mut().expect("resolved gather") = self.classes.len();
                    shape
                }
                Source::Stored(shape, _) => shape.to_vec(),
            })
            .collect())
    }

    /// Serialized size in bytes — the *measured* deploy cost of shipping
    /// this variant to a device that already holds the backbone (the
    /// quantity the transfer ledger meters instead of the
    /// `4·param_count` estimate).
    pub fn bytes(&self) -> u64 {
        wire::encoded_len(self)
    }
}

impl Codec for VariantDelta {
    const MAGIC: [u8; 4] = *b"ACMD";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut ByteWriter) {
        w.bytes(&self.backbone.0);
        w.count(self.classes.len());
        for &c in &self.classes {
            w.u32(c);
        }
        w.count(self.ops.len());
        for op in &self.ops {
            w.u8(match op {
                DeltaOp::Same { .. } => TAG_SAME,
                DeltaOp::PrunedCols { .. } => TAG_PRUNED,
                DeltaOp::Changed { .. } => TAG_CHANGED,
            });
            w.str(op.name());
            w.u8(u8::from(op.trainable()));
            if let DeltaOp::Changed { shape, values, .. } = op {
                w.tensor(shape, values);
            }
        }
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let backbone = ContentHash::read(r)?;
        let n_classes = r.count(4)?;
        let mut classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            classes.push(r.u32()?);
        }
        // Smallest op: tag + empty name len + trainable = 6 bytes.
        let n_ops = r.count(6)?;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let tag = r.u8()?;
            let name = r.str()?;
            let trainable = r.u8()? != 0;
            ops.push(match tag {
                TAG_SAME => DeltaOp::Same { name, trainable },
                TAG_PRUNED => DeltaOp::PrunedCols { name, trainable },
                TAG_CHANGED => {
                    let (shape, values) = r.tensor()?;
                    DeltaOp::Changed {
                        name,
                        shape,
                        values,
                        trainable,
                    }
                }
                t => return Err(WireError::BadTag(t)),
            });
        }
        Ok(VariantDelta {
            backbone,
            classes,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, SmallRng64};

    fn backbone() -> (ParamSet, ContentHash) {
        let mut rng = SmallRng64::new(9);
        let mut ps = ParamSet::new();
        ps.add("trunk.w", randn(&[16, 16], &mut rng));
        ps.add("exit1.head.w", randn(&[4, 8], &mut rng));
        ps.add("exit1.head.b", randn(&[8], &mut rng));
        let h = ContentHash::of_sealed(&ps);
        (ps, h)
    }

    fn sample_variant(b: &ParamSet) -> (Vec<usize>, ParamSet) {
        let classes = vec![1usize, 3, 6];
        let mut v = ParamSet::new();
        // Shared trunk: bitwise copy.
        let trunk = b.value(b.ids().next().unwrap()).clone();
        let t = v.add("trunk.w", trunk);
        v.set_trainable(t, false);
        // Pure structural prune of the bias.
        let bias_id = b.ids().nth(2).unwrap();
        let pruned = gather_last_axis(b.value(bias_id), &[1, 3, 6]).unwrap();
        v.add("exit1.head.b", pruned);
        // Personalized head: changed values (including a NaN and -0.0 to
        // pin bitwise fidelity).
        let mut w = gather_last_axis(b.value(b.ids().nth(1).unwrap()), &[1, 3, 6])
            .unwrap()
            .data()
            .to_vec();
        w[0] += 0.25;
        w[1] = f32::NAN;
        w[2] = -0.0;
        v.add("exit1.head.w", Array::from_vec(w, &[4, 3]).unwrap());
        (classes, v)
    }

    #[test]
    fn encode_picks_cheapest_faithful_op() {
        let (b, h) = backbone();
        let (classes, v) = sample_variant(&b);
        let d = VariantDelta::encode(&b, h, &classes, &v);
        assert!(matches!(&d.ops[0], DeltaOp::Same { name, trainable: false } if name == "trunk.w"));
        assert!(matches!(&d.ops[1], DeltaOp::PrunedCols { name, .. } if name == "exit1.head.b"));
        assert!(matches!(&d.ops[2], DeltaOp::Changed { name, .. } if name == "exit1.head.w"));
    }

    #[test]
    fn apply_reconstructs_bitwise() {
        let (b, h) = backbone();
        let (classes, v) = sample_variant(&b);
        let d = VariantDelta::encode(&b, h, &classes, &v);
        let back = d.apply(&b).unwrap();
        assert_eq!(back.len(), v.len());
        // One op of each kind: validate's shapes are the built ones.
        let built: Vec<Vec<usize>> = back
            .ids()
            .map(|id| back.value(id).shape().to_vec())
            .collect();
        assert_eq!(d.validate(&b).unwrap(), built);
        for (x, y) in v.ids().zip(back.ids()) {
            assert_eq!(v.name(x), back.name(y));
            assert_eq!(v.is_trainable(x), back.is_trainable(y));
            assert_eq!(v.value(x).shape(), back.value(y).shape());
            for (a, c) in v.value(x).data().iter().zip(back.value(y).data()) {
                assert_eq!(a.to_bits(), c.to_bits());
            }
        }
    }

    #[test]
    fn wire_roundtrip_and_measured_bytes() {
        let (b, h) = backbone();
        let (classes, v) = sample_variant(&b);
        let d = VariantDelta::encode(&b, h, &classes, &v);
        let bytes = wire::seal(&d);
        assert_eq!(bytes.len() as u64, d.bytes(), "bytes() must match the wire");
        let back: VariantDelta = wire::open(&bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn delta_is_much_smaller_than_full_checkpoint() {
        let (b, h) = backbone();
        let (classes, v) = sample_variant(&b);
        let d = VariantDelta::encode(&b, h, &classes, &v);
        let full = acme_nn::save_params(&v).len() as u64;
        assert!(d.bytes() * 2 < full, "delta {} vs full {full}", d.bytes());
    }

    #[test]
    fn a_stored_shape_whose_volume_overflows_is_bad_value() {
        // 2^32 · 2^32 wraps to 0 = the stored value count, so a product
        // that is not checked takes the shape as filled.
        let (b, h) = backbone();
        let d = VariantDelta {
            backbone: h,
            classes: vec![],
            ops: vec![DeltaOp::Changed {
                name: "w".into(),
                shape: vec![1 << 32, 1 << 32],
                values: vec![],
                trainable: true,
            }],
        };
        assert_eq!(d.validate(&b), Err(ApplyError::BadValue("w".into())));
        assert_eq!(d.apply(&b).unwrap_err(), ApplyError::BadValue("w".into()));
    }

    #[test]
    fn apply_against_wrong_backbone_is_a_typed_error() {
        let (b, h) = backbone();
        let (classes, v) = sample_variant(&b);
        let d = VariantDelta::encode(&b, h, &classes, &v);
        let mut other = ParamSet::new();
        other.add("unrelated", Array::ones(&[2]));
        assert!(matches!(d.apply(&other), Err(ApplyError::MissingParam(_))));
        // A backbone whose class axis is too short for the mask.
        let mut short = ParamSet::new();
        short.add("trunk.w", b.value(b.ids().next().unwrap()).clone());
        short.add("exit1.head.w", Array::ones(&[4, 2]));
        short.add("exit1.head.b", Array::ones(&[2]));
        assert!(matches!(d.apply(&short), Err(ApplyError::BadGather(_))));
    }
}
