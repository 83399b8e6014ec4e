//! # acme-store
//!
//! Content-addressed model store with structural delta encoding — the
//! storage layer ACME's fleet economics assume (ROADMAP item 5).
//!
//! A fleet of millions of per-device variants is only shippable if each
//! variant travels as a *delta* against its cluster's shared backbone,
//! not as a full weight copy. This crate provides the three pieces:
//!
//! - [`ContentHash`]: 128-bit FNV-1a address of a blob
//!   ([`wire::digest128`], the same digest every framed format's trailer
//!   carries — a blob's address doubles as its integrity check).
//! - [`ModelStore`]: a deduplicating blob store, in-memory or backed by
//!   a directory of hash-named files. A backbone [`ParamSet`]
//!   serialized by [`acme_nn::save_params`] is stored *once* no matter
//!   how many devices reference it.
//! - [`VariantDelta`]: a structural delta from a backbone `ParamSet` to
//!   a variant `ParamSet` — the kept-class prune mask plus per-parameter
//!   ops ([`DeltaOp`]). [`VariantDelta::apply`] reconstructs the variant
//!   **bitwise** (changed values are stored verbatim, never as f32
//!   residuals, so `apply(backbone, encode(backbone, variant)) ==
//!   variant` exactly).
//!
//! Every serialized form — checkpoints, deltas, and the serving manifest
//! and run checkpoint the crates above this one keep in the store — is a
//! [`Codec`] body inside the one frame [`acme_nn::wire`] defines
//! (re-exported here as [`wire`]): one check order, one digest, and every
//! declared length checked against the remaining input before any
//! allocation is sized from it.
//!
//! ```
//! use acme_nn::ParamSet;
//! use acme_store::{wire::Sealed, ModelStore, VariantDelta};
//! use acme_tensor::Array;
//!
//! let mut backbone = ParamSet::new();
//! backbone.add("w", Array::ones(&[4, 8]));
//! let mut variant = ParamSet::new();
//! variant.add("w", Array::ones(&[4, 2]));
//!
//! let mut store = ModelStore::in_memory();
//! let backbone_hash = store.insert(Sealed::of(&backbone)).unwrap();
//! let delta = VariantDelta::encode(&backbone, backbone_hash, &[0, 5], &variant);
//! let delta_hash = store.insert(Sealed::of(&delta)).unwrap();
//!
//! let back = store.get_delta(delta_hash).unwrap();
//! let rebuilt = back.apply(&backbone).unwrap();
//! assert_eq!(rebuilt.value(rebuilt.ids().next().unwrap()).shape(), &[4, 2]);
//! assert!(delta.bytes() < acme_nn::save_params(&variant).len() as u64 + 64);
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod delta;
mod hash;
mod store;

pub use acme_nn::wire::{self, ByteReader, ByteWriter, Codec, WireError};
pub use delta::{ApplyError, DeltaOp, VariantDelta};
pub use hash::ContentHash;
pub use store::{ModelStore, StoreError};
