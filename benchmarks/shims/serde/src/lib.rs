//! The crates derive `Serialize`/`Deserialize` but no serializer exists
//! anywhere in the tree, so the derives expand to nothing.
#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
