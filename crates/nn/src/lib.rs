//! # acme-nn
//!
//! Neural-network building blocks on top of [`acme_tensor`]: a parameter
//! store, the Adam optimizer, and the layers the ACME reproduction needs — linear
//! and convolutional layers, layer normalization, multi-head self-attention,
//! an MLP, Transformer encoder blocks, and an LSTM cell for the NAS
//! controller. Attention, MLP and block each have one forward body,
//! `forward_masked`, whose head / neuron masks are optional graph
//! variables; `forward` passes none, and the paper's importance scoring
//! (Eqs. 6–8) passes mask leaves and reads their gradients.
//!
//! The calling convention is *stateless forward over an external parameter
//! store*: layers hold only [`ParamId`]s and hyperparameters; each training
//! step builds a fresh [`Graph`](acme_tensor::Graph), binds parameters via
//! [`ParamSet::bind`], and the optimizer folds gradients back into the
//! store. Binding is memoized per graph, so parameter sharing (as in the
//! paper's ENAS-style header search, §III-C) is gradient-correct for free,
//! and it is by reference: the store keeps each value in shared storage and
//! copies it on write only while a graph still holds it, so frozen weights
//! are never copied.
//!
//! ```
//! use acme_nn::{Adam, Linear, Optimizer, ParamSet};
//! use acme_tensor::{Array, Graph, SmallRng64};
//!
//! let mut rng = SmallRng64::new(0);
//! let mut ps = ParamSet::new();
//! let layer = Linear::new(&mut ps, "fc", 4, 2, &mut rng);
//! let mut opt = Adam::new(0.1);
//! for _ in 0..10 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Array::ones(&[3, 4]));
//!     let y = layer.forward(&mut g, &ps, x);
//!     let target = g.constant(Array::zeros(&[3, 2]));
//!     let loss = g.mse_loss(y, target);
//!     g.backward(loss);
//!     opt.step(&mut ps, &g);
//! }
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod activation;
mod attention;
mod checkpoint;
mod conv;
mod linear;
mod lstm;
mod metrics;
mod norm;
mod optim;
mod param;
mod transformer;
pub mod wire;

pub use activation::Activation;
pub use attention::MultiHeadSelfAttention;
pub use checkpoint::{load_params, save_params};
pub use conv::Conv2dLayer;
pub use linear::{EmbeddingLayer, Linear, Mlp};
pub use lstm::LstmCell;
pub use metrics::accuracy;
pub use norm::LayerNorm;
pub use optim::{clip_grad_norm, Adam, Optimizer};
pub use param::{LayoutError, ParamId, ParamSet};
pub use transformer::TransformerBlock;
