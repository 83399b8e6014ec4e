//! # acme-nn
//!
//! Neural-network building blocks on top of [`acme_tensor`]: a parameter
//! store, optimizers, and the layers the ACME reproduction needs — linear
//! and convolutional layers, layer normalization, multi-head self-attention
//! with per-head masking (the hook for the paper's head-importance
//! pruning), Transformer encoder blocks with MLP-neuron masking, and an
//! LSTM cell for the NAS controller.
//!
//! The calling convention is *stateless forward over an external parameter
//! store*: layers hold only [`ParamId`]s and hyperparameters; each training
//! step builds a fresh [`Graph`](acme_tensor::Graph), binds parameters via
//! [`ParamSet::bind`], and the optimizer folds gradients back into the
//! store. Binding is memoized per graph, so parameter sharing (as in the
//! paper's ENAS-style header search, §III-C) is gradient-correct for free.
//!
//! ```
//! use acme_nn::{Linear, Optimizer, ParamSet, Sgd};
//! use acme_tensor::{Array, Graph, SmallRng64};
//!
//! let mut rng = SmallRng64::new(0);
//! let mut ps = ParamSet::new();
//! let layer = Linear::new(&mut ps, "fc", 4, 2, &mut rng);
//! let mut opt = Sgd::new(0.1);
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
mod schedule;
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
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use param::{ParamId, ParamSet};
pub use schedule::LrSchedule;
pub use transformer::TransformerBlock;
