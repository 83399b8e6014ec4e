//! # acme-tensor
//!
//! A small, self-contained n-dimensional `f32` array library with
//! reverse-mode automatic differentiation, built for the ACME
//! reproduction. It provides exactly the operations the paper's workloads
//! need — broadcast arithmetic, (batched) matrix multiplication, common
//! activations, layer normalization, 2-D convolution/pooling and losses —
//! with gradients for all of them.
//!
//! The two central types are:
//!
//! * [`Array`] — an owned, row-major `f32` tensor with shape metadata and
//!   pure (non-differentiable) numeric operations.
//! * [`Graph`] / [`Var`] — a tape: every differentiable operation appends a
//!   node to the [`Graph`] arena and returns a [`Var`] handle. Calling
//!   [`Graph::backward`] propagates gradients to every leaf.
//!
//! ```
//! use acme_tensor::{Array, Graph};
//!
//! # fn main() -> acme_tensor::Result<()> {
//! let mut g = Graph::new();
//! let x = g.leaf(Array::from_vec(vec![1.0, 2.0, 3.0], &[3])?);
//! let y = g.mul(x, x); // y = x^2
//! let s = g.sum_all(y);
//! g.backward(s);
//! assert_eq!(g.grad(x).unwrap().data(), &[2.0, 4.0, 6.0]); // dy/dx = 2x
//! # Ok(())
//! # }
//! ```

mod array;
mod backward;
mod conv;
mod error;
pub mod gemm;
mod gradcheck;
mod graph;
mod linalg;
mod ops;
pub mod packcache;
pub mod pool;
pub mod qgemm;
mod random;
mod rowwise;
mod shape;

pub use array::Array;
pub use error::{Result, TensorError};

/// Publishes the tensor substrate's ad-hoc counters into the
/// [`acme_obs::metrics`] registry: pool hits/misses/recycled/dropped
/// (as `tensor.pool.*` counters), pack-cache packs
/// (`tensor.packcache.packs` / `tensor.packcache.hits`, plus the
/// `i8_packs` / `i8_hits` pair for the quantized side) and its size
/// (`tensor.packcache.entries`, both dtypes, and
/// `tensor.packcache.cached_floats`, the f32 side, as gauges), and the
/// mean weight-quantization error over every int8
/// pack performed (`tensor.packcache.i8_mean_quant_error`). Call at a
/// snapshot point (end of run, before `metrics::snapshot`); the hot
/// paths keep their dependency-free atomics, so observation costs
/// nothing per allocation. No-op unless observability is compiled in
/// and runtime-enabled.
pub fn publish_obs_metrics() {
    if !acme_obs::enabled() {
        return;
    }
    let stats = pool::stats();
    acme_obs::metrics::set_counter("tensor.pool.hits", stats.hits);
    acme_obs::metrics::set_counter("tensor.pool.misses", stats.misses);
    acme_obs::metrics::set_counter("tensor.pool.recycled", stats.recycled);
    acme_obs::metrics::set_counter("tensor.pool.dropped", stats.dropped);
    acme_obs::metrics::set_counter("tensor.packcache.packs", packcache::packs());
    acme_obs::metrics::set_counter("tensor.packcache.hits", packcache::hits());
    acme_obs::metrics::set_counter("tensor.packcache.i8_packs", packcache::i8_packs());
    acme_obs::metrics::set_counter("tensor.packcache.i8_hits", packcache::i8_hits());
    acme_obs::metrics::set_gauge("tensor.packcache.entries", packcache::len() as f64);
    acme_obs::metrics::set_gauge(
        "tensor.packcache.cached_floats",
        packcache::cached_floats() as f64,
    );
    acme_obs::metrics::set_gauge(
        "tensor.packcache.i8_mean_quant_error",
        packcache::i8_mean_quant_error(),
    );
}
pub use gradcheck::{gradcheck, GradCheckReport};
pub use graph::{Graph, Var};
pub use packcache::PackIdent;
pub use qgemm::Precision;
pub use random::{kaiming_uniform, randn, uniform, SmallRng64};
pub use shape::{broadcast_shapes, strides_for};
