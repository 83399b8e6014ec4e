//! The autograd tape: [`Graph`] arena, [`Var`] handles, and forward
//! builders for every differentiable operation.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use acme_obs::mem::{self, Owner};

use crate::array::Array;
use crate::attention::{self, Geom};
use crate::conv::{avgpool_forward, conv2d_forward, maxpool_forward, ConvGeom, PoolGeom};
use crate::error::Result;
use crate::packcache::{self, PackIdent};
use crate::qgemm::Precision;
use crate::{fastmath, optable, pool, rowwise};

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
    Mul(Var, Var),
    Scale(Var, f32),
    MatMul(Var, Var),
    /// `x · w + b` over `x`'s rows: the affine map as one node, which
    /// keeps only its output (the product is never a node of its own).
    Linear {
        x: Var,
        w: Var,
        b: Var,
    },
    BatchMatMul(Var, Var),
    Permute(Var, Vec<usize>),
    Reshape(Var, Vec<usize>),
    SumAll(Var),
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
        bias: Var,
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
    Attention {
        q: Var,
        k: Var,
        v: Var,
        mask: Option<Var>,
        geom: Geom,
        /// The softmax probabilities `[batch, heads, T, T]`: the backward
        /// reads them rather than re-evaluating every `exp`.
        probs: Array,
    },
}

impl Op {
    /// Whether `f` holds for any input of this op (none for a leaf).
    pub(crate) fn any_input(&self, mut f: impl FnMut(Var) -> bool) -> bool {
        match self {
            Op::Leaf { .. } => false,
            Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::BatchMatMul(a, b)
            | Op::MseLoss(a, b) => f(*a) || f(*b),
            Op::Scale(a, _)
            | Op::Permute(a, _)
            | Op::Reshape(a, _)
            | Op::SumAll(a)
            | Op::SumAxis(a, _)
            | Op::Relu(a)
            | Op::Gelu { a, .. }
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::SoftmaxLast(a)
            | Op::LogSoftmaxLast(a)
            | Op::CrossEntropyLogits { logits: a, .. }
            | Op::SliceAxis { input: a, .. }
            | Op::MaxPool2d { input: a, .. }
            | Op::AvgPool2d { input: a, .. }
            | Op::Embedding { weight: a, .. } => f(*a),
            Op::LayerNorm { x, gamma, beta, .. } => f(*x) || f(*gamma) || f(*beta),
            Op::Linear { x, w, b } => f(*x) || f(*w) || f(*b),
            Op::Attention { q, k, v, mask, .. } => f(*q) || f(*k) || f(*v) || mask.is_some_and(f),
            Op::Concat { parts, .. } => parts.iter().any(|&p| f(p)),
            Op::Conv2d {
                input,
                weight,
                bias,
                ..
            } => f(*input) || f(*weight) || f(*bias),
        }
    }

    /// The forward state this op keeps for its backward rule.
    fn saved(&self) -> Option<&Array> {
        match self {
            Op::Gelu { saved, .. } | Op::LayerNorm { saved, .. } => Some(saved),
            Op::Attention { probs, .. } => Some(probs),
            _ => None,
        }
    }
}

/// A node's forward value: computed on the tape, or a parameter bound by
/// reference and shared with the store that owns it.
#[derive(Debug)]
pub(crate) enum Value {
    Owned(Array),
    Shared(Arc<Array>),
}

impl Deref for Value {
    type Target = Array;

    fn deref(&self) -> &Array {
        match self {
            Value::Owned(a) => a,
            Value::Shared(a) => a,
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
/// [`Graph::bind_param`], by reference: the node shares the store's
/// `Arc<Array>`, so binding copies nothing, and a store that writes a
/// value while a tape still holds it copies on write. Training loops
/// should allocate one `Graph` and call [`Graph::reset`] between steps:
/// the tape arena (and, through the buffer [`pool`](crate::pool), every
/// node's backing) is then reused instead of reallocated.
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
/// While [`acme_obs::trace::enabled`], every pushed node and every
/// backward rule adds its wall time to a process-wide per-op table
/// (forward ns, backward ns, node count and tape bytes per op), which
/// [`crate::publish_obs_metrics`] publishes as `tensor.op.<name>.*`
/// counters. A node's forward time runs from the previous push, so host
/// work between two builders (patchifying images before their
/// `constant`) lands on the next node. Recording off costs one relaxed
/// load per push and one per backward sweep.
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
    pub(crate) values: Vec<Value>,
    /// Accumulated gradient of each node: set by backward, and kept
    /// after it only for leaves.
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
    /// ident), recorded by [`Graph::bind_param`] and consumed by
    /// [`Graph::matmul`] to reuse int8-packed frozen weights.
    param_idents: HashMap<usize, PackIdent>,
    /// Precision the pack-cache-eligible weight products run at (see
    /// [`Graph::set_matmul_precision`]). Defaults to f32 and survives
    /// [`Graph::reset`] — it is serving configuration, not tape state.
    matmul_precision: Precision,
    /// While recording is on, when the last node was pushed (or the tape
    /// reset, or a backward sweep ended): the start of the next node's
    /// forward self-time in the per-op table (see [`crate::optable`]).
    pub(crate) clock: Option<Instant>,
    /// Heap bytes of the owned values and saved op state on the tape,
    /// and of the gradients it holds: this tape's share of the
    /// [`Owner::TapeValues`] / [`Owner::TapeGrads`] gauges.
    value_bytes: usize,
    pub(crate) grad_bytes: usize,
}

impl Drop for Graph {
    fn drop(&mut self) {
        self.release_bytes();
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
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
    /// by [`Graph::bind_param`] are keyed on the external
    /// parameter store, not on this graph, so re-binding after a reset
    /// keeps hitting the same packed entries. A bound parameter's shared
    /// value is released here, so its store writes in place again.
    pub fn reset(&mut self) {
        self.release_bytes();
        self.values.clear();
        self.grads.clear();
        self.ops.clear();
        self.param_bindings.clear();
        self.bind_order.clear();
        self.param_idents.clear();
        // `matmul_precision` is intentionally kept: it configures the
        // graph's serving mode, not the recorded tape.
        self.clock = acme_obs::enabled().then(Instant::now);
    }

    /// Sets the precision at which pack-cache-eligible weight products
    /// (parameters bound with a pack identity and large
    /// enough to cache) execute. [`Precision::F32`] — the default —
    /// runs them as every other product, reading the weight in place.
    /// [`Precision::Int8`] routes them through the quantized engine
    /// ([`crate::qgemm`]): per-row activation scales, per-output-channel
    /// weight scales quantized once at bind time, i32 accumulation,
    /// dequantized f32 outputs.
    ///
    /// This is an inference-mode knob: the tape still records
    /// `Op::MatMul` / `Op::Linear` over the f32 operands, so a backward pass computes
    /// gradients as if the product were exact. Serving never
    /// backpropagates; training graphs should stay at f32.
    pub fn set_matmul_precision(&mut self, p: Precision) {
        self.matmul_precision = p;
    }

    fn push(&mut self, value: Array, op: Op) -> Var {
        self.push_value(Value::Owned(value), op)
    }

    /// Takes this tape's bytes off the owner gauges.
    fn release_bytes(&mut self) {
        mem::release(Owner::TapeValues, std::mem::take(&mut self.value_bytes));
        mem::release(Owner::TapeGrads, std::mem::take(&mut self.grad_bytes));
    }

    fn push_value(&mut self, value: Value, op: Op) -> Var {
        let owned = match &value {
            Value::Owned(a) => a.heap_bytes(),
            Value::Shared(_) => 0,
        };
        let bytes = owned + op.saved().map_or(0, Array::heap_bytes);
        // Off, the clock is dropped, so a node pushed after recording
        // turns back on is never charged the time it was off.
        self.clock = acme_obs::enabled().then(|| optable::forward(&op, self.clock, bytes));
        self.value_bytes += bytes;
        mem::charge(Owner::TapeValues, bytes);
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

    /// Binds the external parameter `value`, identified by `key`, as a
    /// leaf — a gradient leaf when `requires_grad`, a constant otherwise —
    /// and returns the same [`Var`] for repeated bindings of the same key
    /// within this graph.
    ///
    /// The node holds a reference to `value`, never a copy: binding a
    /// frozen backbone costs nothing per step, and a store that writes a
    /// parameter while a tape still holds it copies on write (`acme-nn`'s
    /// `ParamSet::value_mut`), so what the tape recorded never changes
    /// under it.
    ///
    /// This is the hook used by the `acme-nn` parameter store: after
    /// [`Graph::backward`], the gradient of each bound parameter can be
    /// read back via [`Graph::grad`] using the var recorded here. Binding
    /// the same key twice reuses the node, which is what makes NAS
    /// parameter sharing (§III-C of the paper) gradient-correct.
    ///
    /// With a pack-cache identity `ident` (see [`crate::packcache`]), a
    /// 2-D value that later appears as the right-hand side of
    /// [`Graph::matmul`] or [`Graph::linear`] on an int8 graph has its
    /// quantized pack fetched from — or installed into — the
    /// process-wide int8 cache, so repeated products against frozen
    /// weights quantize once. At f32 the identity is unused: the f32
    /// engine reads the weight in place.
    pub fn bind_param(
        &mut self,
        key: u64,
        value: &Arc<Array>,
        requires_grad: bool,
        ident: Option<PackIdent>,
    ) -> Var {
        if let Some(&v) = self.param_bindings.get(&key) {
            return v;
        }
        let v = self.push_value(Value::Shared(Arc::clone(value)), Op::Leaf { requires_grad });
        self.param_bindings.insert(key, v);
        self.bind_order.push((key, v));
        if let Some(ident) = ident.filter(|_| value.rank() == 2) {
            self.param_idents.insert(v.0, ident);
        }
        v
    }

    /// All `(key, var)` parameter bindings recorded by
    /// [`Graph::bind_param`] (constants included), in the order the keys were first bound — the same on
    /// every graph and in every process that runs the same model.
    pub fn param_bindings(&self) -> impl Iterator<Item = (u64, Var)> + '_ {
        self.bind_order.iter().copied()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Array {
        &self.values[v.0]
    }

    /// The accumulated gradient of `v`: `Some` after [`Graph::backward`]
    /// only for a leaf that requires a gradient and lies upstream of the
    /// output. Inner nodes' gradients are released during the sweep, and
    /// a node computed from constants alone never gets one.
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

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push(v, Op::Scale(a, c))
    }

    // ---- linear algebra ----

    /// Matrix multiplication over `a`'s rows: `[.., k] x [k, n] ->
    /// [.., n]`. `a`'s leading dims are read as the rows of one product,
    /// in place, so a `[batch, tokens, k]` input needs no flattening
    /// reshape (and its tape no flattened copy).
    ///
    /// On an int8 graph (see [`Graph::set_matmul_precision`]), a `b`
    /// bound with a pack-cache identity runs against its cached int8
    /// pack; every other product is the f32 one, which reads `b` in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError`] unless `b` is 2-D and `a`'s last
    /// dimension is `b`'s first.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.product(a, b)?;
        Ok(self.push(v, Op::MatMul(a, b)))
    }

    /// The value of `a · b` over `a`'s rows: on an int8 graph, against
    /// `b`'s cached int8 pack when `b` is a parameter bound with a
    /// pack-cache identity and large enough to cache; otherwise the f32
    /// product, which reads `b` in place.
    fn product(&self, a: Var, b: Var) -> Result<Array> {
        let (av, bv) = (self.value(a), self.value(b));
        match self.param_idents.get(&b.0) {
            Some(&ident)
                if self.matmul_precision == Precision::Int8 && packcache::worth_caching(bv) =>
            {
                av.matmul_prepacked(&packcache::I8_CACHE.lookup_or_pack(ident, bv))
            }
            _ => av.matmul(bv),
        }
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
        let v = self.value(a).map(fastmath::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + fastmath::exp(-x)));
        self.push(v, Op::Sigmoid(a))
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

    /// Multi-head self-attention over projections `q`, `k`, `v`, each
    /// `[.., heads·head_dim]` (the outputs of the three input
    /// projections). By the rows rule of [`Graph::linear`], the leading
    /// dims are read in place as `batch·tokens` rows, row `b·tokens + t`,
    /// head `h` in columns `h·head_dim ..`: `[batch, tokens, inner]` and
    /// `[batch·tokens, inner]` are the same input. Per (batch, head) it
    /// computes `softmax(Q·Kᵀ / √head_dim) · V`, times `mask[h]` when a
    /// mask is given, and writes the context back in `q`'s shape and
    /// layout, ready for the output projection. `head_dim` is the
    /// projection width over `heads`.
    ///
    /// One node replaces the unfused reshape / permute / `batch_matmul`
    /// / `scale` / `softmax_last` / `batch_matmul` / `mul` / permute
    /// sequence and is bit-identical to it, forward and backward, at any
    /// thread count (see [`crate::attention`] for the contract). The
    /// backward produces gradients only for the inputs that need one;
    /// the mask's is the per-head `Σ dO_h · O_h`, the Taylor importance
    /// numerator.
    ///
    /// # Panics
    ///
    /// Panics unless `q`, `k` and `v` have one shape of rank ≥ 1 whose
    /// rows divide into `tokens` and whose width divides into `heads`, and a
    /// mask, if given, holds `heads` values (e.g. `[1, heads, 1, 1]`).
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        mask: Option<Var>,
        tokens: usize,
        heads: usize,
    ) -> Var {
        let shape = self.shape(q).to_vec();
        let (&inner, lead) = shape
            .split_last()
            .expect("attention: projections must have rank 1 or more");
        assert!(
            self.shape(k) == shape && self.shape(v) == shape,
            "attention: q, k, v shapes differ"
        );
        let rows: usize = lead.iter().product();
        assert!(
            tokens > 0 && rows.is_multiple_of(tokens),
            "attention: {rows} rows are not batches of {tokens} tokens"
        );
        assert!(
            heads > 0 && inner.is_multiple_of(heads),
            "attention: width {inner} not divisible by {heads} heads"
        );
        let geom = Geom {
            batch: rows / tokens,
            tokens,
            heads,
            head_dim: inner / heads,
        };
        if let Some(m) = mask {
            assert_eq!(self.value(m).len(), heads, "attention: head mask length");
        }
        let mut out = Array::zeros(&shape);
        let mut probs = Array::zeros(&[geom.batch, heads, tokens, tokens]);
        attention::forward(
            &geom,
            [q, k, v].map(|x| self.values[x.0].data()),
            mask.map(|m| self.values[m.0].data()),
            out.data_mut(),
            probs.data_mut(),
        );
        self.push(
            out,
            Op::Attention {
                q,
                k,
                v,
                mask,
                geom,
                probs,
            },
        )
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

    /// 2-D convolution: input `[B,C,H,W]`, weight `[O,C,kh,kw]`, bias
    /// `[O]`, producing `[B,O,H',W']`. The node lowers the whole batch
    /// once and runs one GEMM per product, forward and backward; every
    /// element keeps the chain of a per-example naive loop, so no bit
    /// depends on the batch size or the thread count.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`crate::TensorError`] variants for
    /// the conditions).
    pub fn conv2d(&mut self, input: Var, weight: Var, bias: Var, stride: usize, pad: usize) -> Var {
        let geom = ConvGeom::new(self.shape(input), self.shape(weight), stride, pad)
            .expect("conv2d: invalid geometry");
        assert_eq!(self.shape(bias), &[geom.out_ch], "conv2d: bias shape");
        #[expect(clippy::disallowed_methods, reason = "the one forward entry")]
        let out = conv2d_forward(
            self.value(input).data(),
            self.value(weight).data(),
            self.value(bias).data(),
            &geom,
        );
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

    // ---- composite helpers ----

    /// Affine map `x @ w + b` over `x`'s rows, one node: `x: [.., in]`,
    /// `w: [in, out]`, `b: [out]`, giving `[.., out]`. The leading dims of
    /// `x` are read in place as the rows of one product (the rows rule
    /// [`Graph::matmul`] and [`Graph::attention`] share), so a `[batch,
    /// tokens, in]` input needs no flattening reshape. The product runs
    /// as [`Graph::matmul`]'s (f32 in place, or an int8 pack) and `b` is added
    /// over it in place, so the tape stores one value per affine map.
    ///
    /// Bit-identical, forward and backward, to `matmul` then a
    /// broadcast `add` over the flattened rows: the backward gives `db`,
    /// then `dx = g · wᵀ` and `dw = xᵀ · g`, in the order that pair gave
    /// them.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes (use [`Graph::matmul`] directly for
    /// a fallible variant) and unless `b` is `[out]`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let mut y = self.product(x, w).expect("linear: incompatible shapes");
        let bias = self.value(b).data();
        let out = *y.shape().last().expect("a product has rank 1 or more");
        assert_eq!(self.shape(b), &[out], "linear: bias shape");
        for row in y.data_mut().chunks_exact_mut(out.max(1)) {
            for (o, &c) in row.iter_mut().zip(bias) {
                *o += c;
            }
        }
        self.push(y, Op::Linear { x, w, b })
    }
}

/// GELU (tanh approximation) of a scalar — the reference the fused
/// parallel kernels in [`crate::rowwise`] are tested against.
#[cfg(test)]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + fastmath::tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of [`gelu_scalar`].
#[cfg(test)]
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = fastmath::tanh(u);
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
        let w = Arc::new(Array::from_slice(&[1.0, 2.0]));
        let run = |g: &mut Graph| {
            let a = g.leaf(Array::from_slice(&[3.0, 4.0]));
            let wv = g.bind_param(7, &w, true, None);
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
        let w = Arc::new(Array::ones(&[1]));
        let bound = |g: &mut Graph| -> Vec<u64> {
            for &k in keys.iter().chain(&keys[..4]) {
                g.bind_param(k, &w, true, None);
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
        let w = Arc::new(Array::from_slice(&[1.0]));
        let v1 = g.bind_param(42, &w, true, None);
        let v2 = g.bind_param(42, &w, true, None);
        assert_eq!(v1, v2);
        let v3 = g.bind_param(43, &w, true, None);
        assert_ne!(v1, v3);
        assert_eq!(g.param_bindings().count(), 2);
    }

    #[test]
    fn bind_param_shares_the_bound_buffer() {
        let w = Arc::new(Array::from_slice(&[1.0, 2.0]));
        let mut g = Graph::new();
        let v = g.bind_param(1, &w, false, None);
        assert!(std::ptr::eq(g.value(v), &*w), "the tape holds a reference");
        assert_eq!(Arc::strong_count(&w), 2);
        g.reset();
        assert_eq!(Arc::strong_count(&w), 1, "reset releases the value");
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
        let b = g.constant(Array::zeros(&[1]));
        let y = g.conv2d(x, w, b, 1, 0);
        assert_eq!(g.value(y).data(), g.value(x).data());
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let mut g = Graph::new();
        let x = g.leaf(Array::zeros(&[1, 1, 2, 2]));
        let w = g.leaf(Array::zeros(&[2, 1, 1, 1]));
        let b = g.leaf(Array::from_slice(&[1.5, -2.0]));
        let y = g.conv2d(x, w, b, 1, 0);
        assert_eq!(
            g.value(y).data(),
            &[1.5, 1.5, 1.5, 1.5, -2.0, -2.0, -2.0, -2.0]
        );
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
