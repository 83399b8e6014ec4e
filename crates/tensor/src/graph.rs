//! The autograd tape: [`Graph`] arena, [`Var`] handles, and forward
//! builders for every differentiable operation.

use std::collections::HashMap;

use crate::array::Array;
use crate::conv::{avgpool_forward, im2col, maxpool_forward, ConvGeom, PoolGeom};
use crate::error::Result;
use crate::packcache::{self, PackIdent};
use crate::qgemm::Precision;
use crate::{pool, rowwise};

/// Handle to a node in a [`Graph`].
///
/// `Var` is a cheap copyable index; it is only meaningful together with the
/// graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Recorded operation of a node, holding parent ids plus whatever forward
/// state the backward pass needs.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input node; `requires_grad` controls whether a gradient is kept.
    Leaf {
        requires_grad: bool,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    PowScalar(Var, f32),
    MatMul(Var, Var),
    BatchMatMul(Var, Var),
    Permute(Var, Vec<usize>),
    Reshape(Var, Vec<usize>),
    SumAll(Var),
    MeanAll(Var),
    SumAxis(Var, usize),
    Relu(Var),
    Gelu {
        a: Var,
        /// Per-element inner `tanh` from the forward pass; the backward
        /// reuses it instead of re-evaluating the transcendental.
        saved: Array,
    },
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    Ln(Var),
    SoftmaxLast(Var),
    LogSoftmaxLast(Var),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        /// Backward state packed into one pooled buffer: per input row,
        /// the `d` normalized values `(x - mean) * inv_std` followed by
        /// that row's `1 / sqrt(var + eps)` (stride `d + 1`).
        saved: Array,
    },
    /// The backward pass recomputes the row softmax from the logits
    /// (bit-identical to the forward), so no saved state is carried.
    CrossEntropyLogits {
        logits: Var,
        targets: Vec<usize>,
    },
    MseLoss(Var, Var),
    Concat {
        parts: Vec<Var>,
        axis: usize,
        sizes: Vec<usize>,
    },
    SliceAxis {
        input: Var,
        axis: usize,
        start: usize,
        len: usize,
    },
    Conv2d {
        input: Var,
        weight: Var,
        bias: Option<Var>,
        geom: ConvGeom,
    },
    MaxPool2d {
        input: Var,
        argmax: Vec<usize>,
    },
    AvgPool2d {
        input: Var,
        geom: PoolGeom,
    },
    Embedding {
        weight: Var,
        indices: Vec<usize>,
    },
    Dropout {
        input: Var,
        /// Kept-mask already scaled by `1/keep_prob`.
        mask: Array,
    },
}

impl Op {
    /// Whether `f` holds for any input of this op (none for a leaf).
    pub(crate) fn any_input(&self, mut f: impl FnMut(Var) -> bool) -> bool {
        match self {
            Op::Leaf { .. } => false,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::MatMul(a, b)
            | Op::BatchMatMul(a, b)
            | Op::MseLoss(a, b) => f(*a) || f(*b),
            Op::Neg(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::PowScalar(a, _)
            | Op::Permute(a, _)
            | Op::Reshape(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumAxis(a, _)
            | Op::Relu(a)
            | Op::Gelu { a, .. }
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::SoftmaxLast(a)
            | Op::LogSoftmaxLast(a)
            | Op::CrossEntropyLogits { logits: a, .. }
            | Op::SliceAxis { input: a, .. }
            | Op::MaxPool2d { input: a, .. }
            | Op::AvgPool2d { input: a, .. }
            | Op::Embedding { weight: a, .. }
            | Op::Dropout { input: a, .. } => f(*a),
            Op::LayerNorm { x, gamma, beta, .. } => f(*x) || f(*gamma) || f(*beta),
            Op::Concat { parts, .. } => parts.iter().any(|&p| f(p)),
            Op::Conv2d {
                input,
                weight,
                bias,
                ..
            } => f(*input) || f(*weight) || bias.is_some_and(f),
        }
    }
}

/// A reverse-mode autodiff tape.
///
/// Every builder method appends a node holding the forward value and enough
/// saved state for its backward rule, then returns a [`Var`] handle.
/// [`Graph::backward`] seeds the output gradient with 1 and sweeps the tape
/// in reverse; leaf gradients are then available through [`Graph::grad`].
///
/// Parameters live outside the graph and are bound each step via
/// [`Graph::bind_param`]. Training loops should allocate one `Graph` and
/// call [`Graph::reset`] between steps: the tape arena (and, through the
/// buffer [`pool`](crate::pool), every node's backing) is then reused
/// instead of reallocated.
///
/// Node storage is split into parallel `values` / `grads` / `ops` arrays
/// so the backward sweep can hold a node's gradient and value while
/// mutating other nodes' gradients — the basis of the clone-free
/// backward pass in `backward.rs`.
///
/// Backward first records per node whether any leaf upstream of it
/// requires a gradient. A node built only from constants — input
/// patches, cached features, parameters bound as constants because they
/// are frozen — gets no gradient: the sweep skips it, and rules with
/// several inputs compute only the contributions of inputs that require
/// one.
///
/// # Panics
///
/// Most builder methods panic when operand shapes are incompatible —
/// shapes are structural programmer errors, not runtime data errors. Each
/// method documents its requirements. The exceptions are
/// [`Graph::matmul`] and [`Graph::batch_matmul`], whose operand shapes
/// routinely come from searched/pruned architectures: they propagate
/// [`crate::TensorError`] instead, consistent with the fallible pipeline
/// API.
#[derive(Debug, Default)]
pub struct Graph {
    /// Forward value of each node.
    pub(crate) values: Vec<Array>,
    /// Accumulated gradient of each node (populated by backward).
    pub(crate) grads: Vec<Option<Array>>,
    /// Recorded operation of each node.
    pub(crate) ops: Vec<Op>,
    /// Whether each node lies downstream of a leaf that requires a
    /// gradient: marked by backward before its sweep (forward-only
    /// graphs never pay for it), its capacity reused across steps.
    pub(crate) needs_grad: Vec<bool>,
    /// Key → node of every bound parameter: the lookup behind
    /// [`Graph::bind_param`].
    param_bindings: HashMap<u64, Var>,
    /// The same bindings in the order they were made, which is the order
    /// [`Graph::param_bindings`] yields: a hash map's iteration order
    /// differs per map and per process, and an optimizer that sums over
    /// parameters must not inherit it.
    bind_order: Vec<(u64, Var)>,
    /// Pack-cache identity of bound parameter nodes (node index →
    /// ident), recorded by [`Graph::bind_param_ident`] and consumed by
    /// [`Graph::matmul`] to reuse packed frozen weights.
    param_idents: HashMap<usize, PackIdent>,
    /// Precision the pack-cache-eligible weight products run at (see
    /// [`Graph::set_matmul_precision`]). Defaults to f32 and survives
    /// [`Graph::reset`] — it is serving configuration, not tape state.
    matmul_precision: Precision,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clears the tape for the next training step while keeping the
    /// arena's capacity.
    ///
    /// Every node value, gradient, and op-saved buffer is dropped — and
    /// therefore recycled through the buffer [`pool`](crate::pool) — so
    /// the following step's allocations become pool hits. All
    /// previously returned [`Var`] handles are invalidated; parameter
    /// bindings are cleared (parameters themselves live outside the
    /// graph and are simply re-bound). Pack-cache identities recorded
    /// via [`Graph::bind_param_ident`] are keyed on the external
    /// parameter store, not on this graph, so re-binding after a reset
    /// keeps hitting the same packed entries.
    pub fn reset(&mut self) {
        self.values.clear();
        self.grads.clear();
        self.ops.clear();
        self.param_bindings.clear();
        self.bind_order.clear();
        self.param_idents.clear();
        // `matmul_precision` is intentionally kept: it configures the
        // graph's serving mode, not the recorded tape.
    }

    /// Sets the precision at which pack-cache-eligible weight products
    /// (parameters bound via [`Graph::bind_param_ident`] and large
    /// enough to cache) execute. [`Precision::F32`] — the default —
    /// leaves every product exactly as it has always been.
    /// [`Precision::Int8`] routes them through the quantized engine
    /// ([`crate::qgemm`]): per-row activation scales, per-output-channel
    /// weight scales quantized once at bind time, i32 accumulation,
    /// dequantized f32 outputs.
    ///
    /// This is an inference-mode knob: the tape still records
    /// `Op::MatMul` over the f32 operands, so a backward pass computes
    /// gradients as if the product were exact. Serving never
    /// backpropagates; training graphs should stay at f32.
    pub fn set_matmul_precision(&mut self, p: Precision) {
        self.matmul_precision = p;
    }

    /// The precision configured via [`Graph::set_matmul_precision`].
    pub fn matmul_precision(&self) -> Precision {
        self.matmul_precision
    }

    fn push(&mut self, value: Array, op: Op) -> Var {
        self.values.push(value);
        self.grads.push(None);
        self.ops.push(op);
        Var(self.values.len() - 1)
    }

    /// Adds a differentiable input node.
    pub fn leaf(&mut self, value: Array) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Adds a non-differentiable input node (no gradient is accumulated).
    pub fn constant(&mut self, value: Array) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// Binds an external parameter identified by `key` as a leaf that
    /// requires a gradient, returning the same [`Var`] for repeated
    /// bindings of the same key within this graph.
    ///
    /// This is the hook used by the `acme-nn` parameter store: after
    /// [`Graph::backward`], the gradient of each bound parameter can be
    /// read back via [`Graph::grad`] using the var recorded here. Binding
    /// the same key twice reuses the node, which is what makes NAS
    /// parameter sharing (§III-C of the paper) gradient-correct.
    pub fn bind_param(&mut self, key: u64, value: &Array) -> Var {
        self.bind(key, value, true)
    }

    /// [`Graph::bind_param`] carrying the parameter's pack-cache identity
    /// (see [`crate::packcache`]), bound as a gradient leaf when
    /// `requires_grad` and as a constant otherwise. When such a node
    /// later appears as the right-hand side of [`Graph::matmul`], its
    /// packed microkernel layout is fetched from — or installed into —
    /// the process-wide packed-weight cache, so repeated products against
    /// frozen weights skip re-packing. Results are unaffected (the packed
    /// path is bit-identical); only 2-D values are recorded.
    pub fn bind_param_ident(
        &mut self,
        key: u64,
        ident: PackIdent,
        value: &Array,
        requires_grad: bool,
    ) -> Var {
        let v = self.bind(key, value, requires_grad);
        if value.rank() == 2 {
            self.param_idents.insert(v.0, ident);
        }
        v
    }

    fn bind(&mut self, key: u64, value: &Array, requires_grad: bool) -> Var {
        if let Some(&v) = self.param_bindings.get(&key) {
            return v;
        }
        let v = self.push(value.clone(), Op::Leaf { requires_grad });
        self.param_bindings.insert(key, v);
        self.bind_order.push((key, v));
        v
    }

    /// All `(key, var)` parameter bindings recorded by
    /// [`Graph::bind_param`] and [`Graph::bind_param_ident`] (constants
    /// included), in the order the keys were first bound — the same on
    /// every graph and in every process that runs the same model.
    pub fn param_bindings(&self) -> impl Iterator<Item = (u64, Var)> + '_ {
        self.bind_order.iter().copied()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Array {
        &self.values[v.0]
    }

    /// The accumulated gradient of `v`, if any was produced by
    /// [`Graph::backward`] — never for a node computed from constants
    /// alone.
    pub fn grad(&self, v: Var) -> Option<&Array> {
        self.grads[v.0].as_ref()
    }

    /// Mutable access to the accumulated gradient of `v` (for gradient
    /// clipping and similar post-backward transforms).
    pub fn grad_mut(&mut self, v: Var) -> Option<&mut Array> {
        self.grads[v.0].as_mut()
    }

    /// The shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> &[usize] {
        self.values[v.0].shape()
    }

    // ---- arithmetic ----

    /// Broadcast addition.
    ///
    /// # Panics
    ///
    /// Panics when shapes cannot broadcast.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .add(self.value(b))
            .expect("add: incompatible shapes");
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast subtraction.
    ///
    /// # Panics
    ///
    /// Panics when shapes cannot broadcast.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .sub(self.value(b))
            .expect("sub: incompatible shapes");
        self.push(v, Op::Sub(a, b))
    }

    /// Broadcast elementwise multiplication.
    ///
    /// # Panics
    ///
    /// Panics when shapes cannot broadcast.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .mul(self.value(b))
            .expect("mul: incompatible shapes");
        self.push(v, Op::Mul(a, b))
    }

    /// Broadcast elementwise division.
    ///
    /// # Panics
    ///
    /// Panics when shapes cannot broadcast.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .div(self.value(b))
            .expect("div: incompatible shapes");
        self.push(v, Op::Div(a, b))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).scale(-1.0);
        self.push(v, Op::Neg(a))
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push(v, Op::Scale(a, c))
    }

    /// Adds a constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).add_scalar(c);
        self.push(v, Op::AddScalar(a))
    }

    /// Elementwise power with a constant exponent.
    pub fn pow_scalar(&mut self, a: Var, p: f32) -> Var {
        let v = self.value(a).map(|x| x.powf(p));
        self.push(v, Op::PowScalar(a, p))
    }

    // ---- linear algebra ----

    /// 2-D matrix multiplication `[m,k] x [k,n] -> [m,n]`.
    ///
    /// When `b` is a parameter bound with [`Graph::bind_param_ident`],
    /// the product runs against its cached packed form (bit-identical,
    /// skips the per-call packing copy).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError`] unless both operands are 2-D with
    /// matching inner dimension.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = match self.param_idents.get(&b.0) {
            Some(&ident) if packcache::worth_caching(self.value(b)) => {
                match self.matmul_precision {
                    Precision::F32 => {
                        let packed = packcache::F32_CACHE.lookup_or_pack(ident, self.value(b));
                        self.value(a).matmul_prepacked(&*packed)?
                    }
                    Precision::Int8 => {
                        let packed = packcache::I8_CACHE.lookup_or_pack(ident, self.value(b));
                        self.value(a).matmul_prepacked(&*packed)?
                    }
                }
            }
            _ => self.value(a).matmul(self.value(b))?,
        };
        Ok(self.push(v, Op::MatMul(a, b)))
    }

    /// Batched matmul over matching leading dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError`] when batch or inner dimensions
    /// disagree.
    pub fn batch_matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.value(a).batch_matmul(self.value(b))?;
        Ok(self.push(v, Op::BatchMatMul(a, b)))
    }

    /// Axis permutation; output axis `i` is input axis `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics when `perm` is not a permutation of `0..rank`.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let v = self
            .value(a)
            .permute(perm)
            .expect("permute: invalid permutation");
        self.push(v, Op::Permute(a, perm.to_vec()))
    }

    /// Reshape to `shape` (same volume).
    ///
    /// # Panics
    ///
    /// Panics when volumes differ.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let orig = self.shape(a).to_vec();
        let v = self
            .value(a)
            .reshaped(shape)
            .expect("reshape: volume mismatch");
        self.push(v, Op::Reshape(a, orig))
    }

    // ---- reductions ----

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Array::scalar(self.value(a).sum());
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Array::scalar(self.value(a).mean());
        self.push(v, Op::MeanAll(a))
    }

    /// Sum along one axis (the axis is removed).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range axis.
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let v = self
            .value(a)
            .sum_axis(axis)
            .expect("sum_axis: axis out of range");
        self.push(v, Op::SumAxis(a, axis))
    }

    // ---- activations ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// GELU with the tanh approximation (thread-parallel elementwise).
    /// The forward saves each element's inner `tanh` so the backward
    /// pass skips the second transcendental evaluation.
    pub fn gelu(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let mut v = Array::zeros(x.shape());
        let mut saved = Array::zeros(x.shape());
        rowwise::gelu_fwd(x.data(), v.data_mut(), saved.data_mut());
        self.push(v, Op::Gelu { a, saved })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        self.push(v, Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::ln);
        self.push(v, Op::Ln(a))
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&mut self, a: Var) -> Var {
        let v = self.value(a).softmax_last();
        self.push(v, Op::SoftmaxLast(a))
    }

    /// Log-softmax over the last axis (numerically stable, fused and
    /// row-parallel).
    pub fn log_softmax_last(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let cols = *x.shape().last().unwrap_or(&1);
        let mut v = Array::zeros(x.shape());
        rowwise::log_softmax_fwd(x.data(), v.data_mut(), cols.max(1));
        self.push(v, Op::LogSoftmaxLast(a))
    }

    // ---- normalization ----

    /// Layer normalization over the last axis with affine parameters.
    ///
    /// `gamma` and `beta` must be 1-D of length equal to the last axis of
    /// `x`.
    ///
    /// # Panics
    ///
    /// Panics when the affine parameter shapes do not match the last axis.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let d = *self
            .value(x)
            .shape()
            .last()
            .expect("layer_norm: scalar input");
        assert_eq!(self.shape(gamma), &[d], "layer_norm: gamma shape");
        assert_eq!(self.shape(beta), &[d], "layer_norm: beta shape");
        let xv = &self.values[x.0];
        let rows = xv.len() / d;
        let mut out = Array::zeros(xv.shape());
        let mut saved = Array::zeros(&[rows, rowwise::ln_saved_stride(d)]);
        rowwise::layer_norm_fwd(
            xv.data(),
            self.values[gamma.0].data(),
            self.values[beta.0].data(),
            eps,
            out.data_mut(),
            saved.data_mut(),
            d,
        );
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                saved,
            },
        )
    }

    // ---- losses ----

    /// Mean cross-entropy of `logits` (`[batch, classes]`) against integer
    /// `targets`, as a scalar node.
    ///
    /// # Panics
    ///
    /// Panics unless `logits` is 2-D, `targets.len()` equals the batch
    /// size, and every target is a valid class index.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.rank(), 2, "cross_entropy_logits: logits must be 2-D");
        let (b, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(targets.len(), b, "cross_entropy_logits: target count");
        assert!(
            targets.iter().all(|&t| t < c),
            "cross_entropy_logits: target out of range"
        );
        // Fused kernel: per-row log-probs computed in parallel (each row
        // repeating the exact float sequence of materializing the row
        // softmax first), then summed serially in row order.
        let mut losses = vec![0.0f64; b];
        rowwise::cross_entropy_fwd(lv.data(), targets, c, &mut losses);
        let mut loss = 0.0f64;
        for l in &losses {
            loss -= *l;
        }
        let v = Array::scalar((loss / b as f64) as f32);
        self.push(
            v,
            Op::CrossEntropyLogits {
                logits,
                targets: targets.to_vec(),
            },
        )
    }

    /// Mean squared error between two identically shaped tensors, as a
    /// scalar node.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn mse_loss(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "mse_loss: shape mismatch");
        let diff = self.value(a).sub(self.value(b)).expect("shapes equal");
        let v = Array::scalar(diff.sq_norm() / diff.len().max(1) as f32);
        self.push(v, Op::MseLoss(a, b))
    }

    // ---- structure ----

    /// Concatenation along `axis`.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or shapes are incompatible.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        assert!(!parts.is_empty(), "concat: no parts");
        let arrays: Vec<&Array> = parts.iter().map(|&p| self.value(p)).collect();
        let sizes: Vec<usize> = arrays.iter().map(|a| a.shape()[axis]).collect();
        let v = Array::concat(&arrays, axis).expect("concat: incompatible shapes");
        self.push(
            v,
            Op::Concat {
                parts: parts.to_vec(),
                axis,
                sizes,
            },
        )
    }

    /// Copies `len` entries starting at `start` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics when the slice range exceeds the axis length.
    pub fn slice_axis(&mut self, input: Var, axis: usize, start: usize, len: usize) -> Var {
        let iv = self.value(input);
        assert!(axis < iv.rank(), "slice_axis: axis out of range");
        let end = start + len;
        assert!(end <= iv.shape()[axis], "slice_axis: range out of bounds");
        let before = start;
        let after = iv.shape()[axis] - end;
        let mut sizes = Vec::new();
        if before > 0 {
            sizes.push(before);
        }
        sizes.push(len);
        if after > 0 {
            sizes.push(after);
        }
        let parts = iv.split(axis, &sizes).expect("sizes sum to axis length");
        let v = parts[usize::from(before > 0)].clone();
        self.push(
            v,
            Op::SliceAxis {
                input,
                axis,
                start,
                len,
            },
        )
    }

    // ---- convolution / pooling ----

    /// 2-D convolution: input `[B,C,H,W]`, weight `[O,C,kh,kw]`, optional
    /// bias `[O]`, producing `[B,O,H',W']`.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`crate::TensorError`] variants for
    /// the conditions).
    #[allow(clippy::needless_range_loop)]
    pub fn conv2d(
        &mut self,
        input: Var,
        weight: Var,
        bias: Option<Var>,
        stride: usize,
        pad: usize,
    ) -> Var {
        let geom = ConvGeom::new(self.shape(input), self.shape(weight), stride, pad)
            .expect("conv2d: invalid geometry");
        if let Some(b) = bias {
            assert_eq!(self.shape(b), &[geom.out_ch], "conv2d: bias shape");
        }
        let (ch, cw) = (geom.col_height(), geom.col_width());
        let in_plane = geom.in_ch * geom.in_h * geom.in_w;
        let mut out = Array::zeros(&[geom.batch, geom.out_ch, geom.out_h, geom.out_w]);
        let mut col = vec![0.0f32; ch * cw];
        // weight viewed as [out_ch, cw]; out rows per batch: col @ w^T -> [ch, out_ch]
        let wv = self.value(weight).data().to_vec();
        for b in 0..geom.batch {
            im2col(
                &self.value(input).data()[b * in_plane..(b + 1) * in_plane],
                &geom,
                &mut col,
            );
            // out[b, o, y, x] = sum_c col[yx, c] * w[o, c]
            let mut tmp = vec![0.0f32; ch * geom.out_ch];
            crate::linalg::matmul_a_bt_kernel(&col, &wv, &mut tmp, ch, cw, geom.out_ch);
            let ob = &mut out.data_mut()[b * geom.out_ch * ch..(b + 1) * geom.out_ch * ch];
            for yx in 0..ch {
                for o in 0..geom.out_ch {
                    ob[o * ch + yx] = tmp[yx * geom.out_ch + o];
                }
            }
        }
        if let Some(bias) = bias {
            let bv = self.value(bias).data().to_vec();
            for b in 0..geom.batch {
                for o in 0..geom.out_ch {
                    let base = (b * geom.out_ch + o) * ch;
                    for i in 0..ch {
                        out.data_mut()[base + i] += bv[o];
                    }
                }
            }
        }
        self.push(
            out,
            Op::Conv2d {
                input,
                weight,
                bias,
                geom,
            },
        )
    }

    /// Max pooling with a `k x k` window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics for non-4-D input or windows larger than the input.
    pub fn max_pool2d(&mut self, input: Var, k: usize) -> Var {
        let geom = PoolGeom::new(self.shape(input), k).expect("max_pool2d: invalid geometry");
        let (out, argmax) = maxpool_forward(self.value(input), &geom);
        self.push(out, Op::MaxPool2d { input, argmax })
    }

    /// Average pooling with a `k x k` window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics for non-4-D input or windows larger than the input.
    pub fn avg_pool2d(&mut self, input: Var, k: usize) -> Var {
        let geom = PoolGeom::new(self.shape(input), k).expect("avg_pool2d: invalid geometry");
        let out = avgpool_forward(self.value(input), &geom);
        self.push(out, Op::AvgPool2d { input, geom })
    }

    // ---- lookup / regularization ----

    /// Row lookup: `weight[indices[i], :]` stacked into `[n, d]`.
    ///
    /// # Panics
    ///
    /// Panics unless `weight` is 2-D and indices are in range.
    pub fn embedding(&mut self, weight: Var, indices: &[usize]) -> Var {
        let wv = self.value(weight);
        assert_eq!(wv.rank(), 2, "embedding: weight must be 2-D");
        let (v, d) = (wv.shape()[0], wv.shape()[1]);
        assert!(
            indices.iter().all(|&i| i < v),
            "embedding: index out of range"
        );
        let mut data = pool::take(indices.len() * d);
        for &i in indices {
            data.extend_from_slice(&wv.data()[i * d..(i + 1) * d]);
        }
        let out = Array::from_vec(data, &[indices.len(), d]).expect("volume matches");
        self.push(
            out,
            Op::Embedding {
                weight,
                indices: indices.to_vec(),
            },
        )
    }

    /// Inverted dropout: keeps each element with probability `keep`, scaling
    /// kept elements by `1/keep`. Pass an externally sampled uniform array
    /// `u` in `[0,1)` of the same shape to keep the graph deterministic.
    ///
    /// # Panics
    ///
    /// Panics when `keep` is not in `(0, 1]` or `u` shape differs.
    pub fn dropout(&mut self, input: Var, u: &Array, keep: f32) -> Var {
        assert!(keep > 0.0 && keep <= 1.0, "dropout: keep must be in (0,1]");
        assert_eq!(u.shape(), self.shape(input), "dropout: mask shape");
        let mask = u.map(|x| if x < keep { 1.0 / keep } else { 0.0 });
        let out = self.value(input).mul(&mask).expect("shapes equal");
        self.push(out, Op::Dropout { input, mask })
    }

    // ---- composite helpers ----

    /// Affine map `x @ w + b` with `x: [n, in]`, `w: [in, out]`,
    /// `b: [out]`.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes (use [`Graph::matmul`] directly for
    /// a fallible variant).
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let y = self.matmul(x, w).expect("linear: incompatible shapes");
        self.add(y, b)
    }
}

/// GELU (tanh approximation) of a scalar — the reference the fused
/// parallel kernels in [`crate::rowwise`] are tested against.
#[cfg(test)]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_scalar`].
#[cfg(test)]
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{randn, SmallRng64};

    #[test]
    fn forward_values_match_array_ops() {
        let mut g = Graph::new();
        let a = g.leaf(Array::from_slice(&[1.0, 2.0]));
        let b = g.leaf(Array::from_slice(&[3.0, 4.0]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
        let p = g.mul(a, b);
        assert_eq!(g.value(p).data(), &[3.0, 8.0]);
    }

    #[test]
    fn reset_reuses_arena_and_replays_identically() {
        let mut g = Graph::new();
        let w = Array::from_slice(&[1.0, 2.0]);
        let run = |g: &mut Graph| {
            let a = g.leaf(Array::from_slice(&[3.0, 4.0]));
            let wv = g.bind_param(7, &w);
            let p = g.mul(a, wv);
            let loss = g.sum_all(p);
            g.backward(loss);
            (g.value(loss).item(), g.grad(wv).unwrap().clone())
        };
        let (loss1, grad1) = run(&mut g);
        g.reset();
        assert_eq!(g.param_bindings().count(), 0, "reset clears bindings");
        let (loss2, grad2) = run(&mut g);
        assert_eq!(loss1.to_bits(), loss2.to_bits());
        assert_eq!(grad1, grad2);
    }

    #[test]
    fn param_bindings_come_back_in_bind_order() {
        // 16 keys, scrambled (5 is a unit mod 16 and a multiplier that
        // spreads them): no hash order, nor key order, reproduces this.
        let keys: Vec<u64> = (0..16u64).map(|i| (i * 5 + 3) % 16 * 1_000_003).collect();
        let w = Array::ones(&[1]);
        let bound = |g: &mut Graph| -> Vec<u64> {
            for &k in keys.iter().chain(&keys[..4]) {
                g.bind_param(k, &w);
            }
            g.param_bindings().map(|(k, _)| k).collect()
        };
        let mut g = Graph::new();
        assert_eq!(bound(&mut g), keys);
        g.reset();
        assert_eq!(bound(&mut g), keys, "after reset");
        assert_eq!(bound(&mut Graph::new()), keys, "on a second graph");
    }

    #[test]
    fn bind_param_reuses_node() {
        let mut g = Graph::new();
        let w = Array::from_slice(&[1.0]);
        let v1 = g.bind_param(42, &w);
        let v2 = g.bind_param(42, &w);
        assert_eq!(v1, v2);
        let v3 = g.bind_param(43, &w);
        assert_ne!(v1, v3);
        assert_eq!(g.param_bindings().count(), 2);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap());
        let ls = g.log_softmax_last(x);
        let s = g.softmax_last(x);
        for (a, b) in g.value(ls).data().iter().zip(g.value(s).data()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_uniform_logits_is_ln_c() {
        let mut g = Graph::new();
        let x = g.leaf(Array::zeros(&[4, 10]));
        let l = g.cross_entropy_logits(x, &[0, 3, 5, 9]);
        assert!((g.value(l).item() - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let mut rng = SmallRng64::new(5);
        let mut g = Graph::new();
        let x = g.leaf(randn(&[3, 8], &mut rng));
        let gamma = g.leaf(Array::ones(&[8]));
        let beta = g.leaf(Array::zeros(&[8]));
        let y = g.layer_norm(x, gamma, beta, 1e-5);
        for r in 0..3 {
            let row = &g.value(y).data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn slice_axis_middle() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap());
        let s = g.slice_axis(x, 1, 1, 2);
        assert_eq!(g.shape(s), &[3, 2]);
        assert_eq!(g.value(s).data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        let s0 = g.slice_axis(x, 0, 2, 1);
        assert_eq!(g.value(s0).data(), &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut g = Graph::new();
        let w = g.leaf(Array::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap());
        let e = g.embedding(w, &[2, 0, 2]);
        assert_eq!(g.value(e).shape(), &[3, 2]);
        assert_eq!(g.value(e).data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        let mut g = Graph::new();
        let x =
            g.leaf(Array::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap());
        let w = g.leaf(Array::ones(&[1, 1, 1, 1]));
        let y = g.conv2d(x, w, None, 1, 0);
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let mut g = Graph::new();
        let x = g.leaf(Array::zeros(&[1, 1, 2, 2]));
        let w = g.leaf(Array::zeros(&[2, 1, 1, 1]));
        let b = g.leaf(Array::from_slice(&[1.5, -2.0]));
        let y = g.conv2d(x, w, Some(b), 1, 0);
        assert_eq!(
            g.value(y).data(),
            &[1.5, 1.5, 1.5, 1.5, -2.0, -2.0, -2.0, -2.0]
        );
    }

    #[test]
    fn dropout_keep_one_is_identity() {
        let mut g = Graph::new();
        let x = g.leaf(Array::from_slice(&[1.0, 2.0, 3.0]));
        let u = Array::from_slice(&[0.1, 0.5, 0.9]);
        let y = g.dropout(x, &u, 1.0);
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn gelu_matches_known_values() {
        assert!(gelu_scalar(0.0).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Derivative at 0 is 0.5.
        assert!((gelu_grad_scalar(0.0) - 0.5).abs() < 1e-6);
    }
}
