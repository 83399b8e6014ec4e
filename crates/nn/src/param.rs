//! External parameter storage shared across training steps.

use std::sync::Arc;

use acme_tensor::{packcache, Array, Graph, PackIdent, Var};

/// Identifier of a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Stable key used to bind this parameter into a graph.
    pub fn key(self) -> u64 {
        self.0 as u64
    }
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    /// Shared with every graph the value is bound into and with every
    /// clone of the store, until one of them writes it.
    value: Arc<Array>,
    trainable: bool,
    /// Mutation counter: bumped on every mutable access so the int8
    /// pack cache (`acme_tensor::packcache`) can tell frozen values
    /// (cache hits) from updated ones (invalidation).
    version: u64,
}

/// Owning store of model parameters, living across training steps.
///
/// Layers allocate parameters here at construction time and keep only the
/// returned [`ParamId`]s. During a forward pass, [`ParamSet::bind`] places
/// a parameter into the active [`Graph`] (memoized per graph), and after
/// `backward` an [`Optimizer`](crate::Optimizer) walks the graph's
/// bindings to update values.
///
/// Each value lives in shared storage (`Arc<Array>`). A bind hands the
/// graph a reference, not a copy, and [`ParamSet::value_mut`] copies on
/// write only while a graph or a clone of this store still holds the
/// value. So a frozen parameter is never copied — a serving backbone, a
/// frozen-backbone pass and the distillation teacher bind for free —
/// while a training step copies each updated parameter once, at the
/// optimizer's write instead of at the bind.
#[derive(Debug)]
pub struct ParamSet {
    entries: Vec<Entry>,
    /// Process-unique id of this store instance, part of the
    /// pack-cache key. Clones get a fresh id (see
    /// [`Clone`] impl) so stores that diverge after a clone — e.g.
    /// per-cluster Phase 2 copies — can never alias cache entries.
    store: u64,
    /// The decoded values registrations take, while
    /// [`ParamSet::lay_out`] runs; `None` otherwise.
    layout: Option<Layout>,
}

/// How a model's registrations departed from the decoded store
/// [`ParamSet::lay_out`] laid it over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The decoded store holds `decoded` parameters; the model registers
    /// `model`.
    Count { decoded: usize, model: usize },
    /// A decoded parameter's name is not the one the model registers in
    /// its place.
    Name { decoded: String, model: String },
    /// A decoded parameter's shape is not the one the model registers.
    Shape {
        name: String,
        decoded: Vec<usize>,
        model: Vec<usize>,
    },
}

/// The decoded entries a store being laid out hands to registrations,
/// in order, and the first departure from them.
#[derive(Debug)]
struct Layout {
    decoded: std::vec::IntoIter<Entry>,
    mismatch: Option<LayoutError>,
}

impl Layout {
    /// The entry registered as `name` of `shape`: the next decoded one
    /// (its value and trainable flag), its initializer left unrun. Past
    /// the decoded entries — a count mismatch [`ParamSet::lay_out`]
    /// reports — `init` runs.
    fn take(
        &mut self,
        name: String,
        shape: &[usize],
        init: impl FnOnce(&[usize]) -> Array,
    ) -> Entry {
        let Some(decoded) = self.decoded.next() else {
            return Entry::new(name, init(shape));
        };
        if self.mismatch.is_none() {
            if decoded.name != name {
                self.mismatch = Some(LayoutError::Name {
                    decoded: decoded.name.clone(),
                    model: name.clone(),
                });
            } else if decoded.value.shape() != shape {
                self.mismatch = Some(LayoutError::Shape {
                    name: name.clone(),
                    decoded: decoded.value.shape().to_vec(),
                    model: shape.to_vec(),
                });
            }
        }
        Entry {
            name,
            version: 0,
            ..decoded
        }
    }
}

impl Entry {
    fn new(name: String, value: Array) -> Self {
        Entry {
            name,
            value: Arc::new(value),
            trainable: true,
            version: 0,
        }
    }
}

/// A clone shares every value with its source until either side writes
/// it ([`ParamSet::value_mut`] copies on write).
impl Clone for ParamSet {
    fn clone(&self) -> Self {
        ParamSet {
            entries: self.entries.clone(),
            store: packcache::fresh_store_id(),
            layout: None,
        }
    }
}

/// Store ids are never reused, so the packed weights cached under this
/// one could never be hit again.
impl Drop for ParamSet {
    fn drop(&mut self) {
        packcache::forget_store(self.store);
    }
}

/// Content equality: same names, trainable flags, shapes and value
/// *bits* in the same order (NaN-safe, so a checkpointed set equals its
/// reloaded self). Store identity and mutation counters do not take part.
impl PartialEq for ParamSet {
    fn eq(&self, other: &Self) -> bool {
        fn bits(a: &Array) -> impl Iterator<Item = u32> + '_ {
            a.data().iter().map(|v| v.to_bits())
        }
        self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|(a, b)| {
                a.name == b.name
                    && a.trainable == b.trainable
                    && a.value.shape() == b.value.shape()
                    && bits(&a.value).eq(bits(&b.value))
            })
    }
}

impl Default for ParamSet {
    fn default() -> Self {
        ParamSet::new()
    }
}

impl ParamSet {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamSet {
            entries: Vec::new(),
            store: packcache::fresh_store_id(),
            layout: None,
        }
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Array) -> ParamId {
        let shape = value.shape().to_vec();
        self.add_with(name, &shape, |_| value)
    }

    /// Registers a parameter of `shape` whose initial value `init`
    /// computes from the shape, returning its id. While the store is laid
    /// out over decoded values ([`ParamSet::lay_out`]) the next decoded
    /// value takes its place and `init` does not run, so a model's
    /// constructor can rebuild it from a checkpoint without drawing a
    /// random initialization only to drop it.
    pub fn add_with(
        &mut self,
        name: impl Into<String>,
        shape: &[usize],
        init: impl FnOnce(&[usize]) -> Array,
    ) -> ParamId {
        let name = name.into();
        let entry = match &mut self.layout {
            Some(layout) => layout.take(name, shape, init),
            None => Entry::new(name, init(shape)),
        };
        self.entries.push(entry);
        ParamId(self.entries.len() - 1)
    }

    /// Lays a model out over `decoded`, the values of a store of the same
    /// model in registration order (a loaded checkpoint): `build`
    /// registers the model as it would into a fresh store, and each
    /// registration takes the next decoded value and trainable flag
    /// without running its initializer. No value is copied, and no other
    /// initialization is drawn.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] when the model registers a different
    /// number of parameters than `decoded` holds, or else at the first
    /// registration whose name, then shape, differs from its decoded
    /// counterpart's.
    pub fn lay_out<M>(
        mut decoded: ParamSet,
        build: impl FnOnce(&mut ParamSet) -> M,
    ) -> Result<(M, ParamSet), LayoutError> {
        let count = decoded.len();
        let mut ps = ParamSet::new();
        ps.layout = Some(Layout {
            decoded: std::mem::take(&mut decoded.entries).into_iter(),
            mismatch: None,
        });
        let model = build(&mut ps);
        let layout = ps.layout.take().expect("set above");
        if ps.len() != count {
            return Err(LayoutError::Count {
                decoded: count,
                model: ps.len(),
            });
        }
        match layout.mismatch {
            Some(mismatch) => Err(mismatch),
            None => Ok((model, ps)),
        }
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters, i.e. the model size `ζ(θ)` used
    /// throughout the paper's storage constraints.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Total scalars over the subset of parameters in `ids`.
    pub fn num_scalars_of(&self, ids: &[ParamId]) -> usize {
        ids.iter().map(|id| self.value(*id).len()).sum()
    }

    /// The current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics for an id from a different store.
    pub fn value(&self, id: ParamId) -> &Array {
        &self.entries[id.0].value
    }

    /// Mutable access to a parameter value (used by optimizers and by the
    /// structured-pruning code in `acme-vit`).
    ///
    /// While a graph or a clone of this store still holds the value, it is
    /// copied first, so what they hold never changes; otherwise it is
    /// written in place.
    ///
    /// # Panics
    ///
    /// Panics for an id from a different store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Array {
        let entry = &mut self.entries[id.0];
        // Pessimistically treat every mutable access as a write: a stale
        // packed copy must never survive an update, while an unnecessary
        // bump only costs one re-pack.
        entry.version += 1;
        Arc::make_mut(&mut entry.value)
    }

    /// The pack-cache identity of a parameter: store instance,
    /// slot, and current mutation version (see
    /// [`acme_tensor::packcache`]).
    pub fn pack_ident(&self, id: ParamId) -> PackIdent {
        PackIdent {
            store: self.store,
            slot: id.0 as u64,
            version: self.entries[id.0].version,
        }
    }

    /// The diagnostic name given at registration.
    ///
    /// # Panics
    ///
    /// Panics for an id from a different store.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Marks a parameter as frozen (or trainable again). A frozen
    /// parameter is a constant: [`ParamSet::bind`] places it in a graph
    /// as one, so no gradient is computed for it or for anything
    /// computed from constants alone, optimizers skip it, and
    /// [`clip_grad_norm`](crate::clip_grad_norm) does not count it. The
    /// paper freezes backbone parameters during device-side header
    /// refinement (§III-D).
    pub fn set_trainable(&mut self, id: ParamId, trainable: bool) {
        self.entries[id.0].trainable = trainable;
    }

    /// Whether the optimizer may update this parameter.
    pub fn is_trainable(&self, id: ParamId) -> bool {
        self.entries[id.0].trainable
    }

    /// Binds the parameter into `g`, returning the graph node. Repeated
    /// binds of the same parameter within one graph return the same node.
    ///
    /// A trainable parameter is bound as a gradient leaf; a frozen one
    /// (see [`ParamSet::set_trainable`]) as a constant, so a header
    /// refit over a frozen backbone differentiates the header alone.
    /// Either way the bind carries the parameter's pack-cache identity,
    /// so on an int8 serving graph matmuls against it reuse the
    /// process-wide int8 pack while the value stays unchanged; an f32
    /// product reads the value in place. The graph holds a reference to
    /// the value, never a copy.
    ///
    /// The graph key is [`ParamId::key`], the one an
    /// [`Optimizer`](crate::Optimizer) reads back.
    pub fn bind(&self, g: &mut Graph, id: ParamId) -> Var {
        self.bind_keyed(g, id, id.key())
    }

    /// [`ParamSet::bind`] under a caller-chosen graph `key`, for a graph
    /// that binds parameters of several stores whose slots would
    /// otherwise share keys (a serving batch's backbone and its variants'
    /// heads). No optimizer maps such a key back to a [`ParamId`].
    pub fn bind_keyed(&self, g: &mut Graph, id: ParamId, key: u64) -> Var {
        let entry = &self.entries[id.0];
        g.bind_param(
            key,
            &entry.value,
            entry.trainable,
            Some(self.pack_ident(id)),
        )
    }

    /// Iterates over all ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[2, 3]));
        let b = ps.add("b", Array::zeros(&[3]));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_scalars(), 9);
        assert_eq!(ps.name(a), "w");
        assert_eq!(ps.value(b).len(), 3);
        assert_eq!(ps.num_scalars_of(&[a]), 6);
    }

    #[test]
    fn bind_is_memoized_per_graph() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[2]));
        let mut g = Graph::new();
        let v1 = ps.bind(&mut g, a);
        let v2 = ps.bind(&mut g, a);
        assert_eq!(v1, v2);
    }

    #[test]
    fn a_bound_value_shares_the_stores_buffer() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[2, 3]));
        let mut g = Graph::new();
        let v = ps.bind(&mut g, a);
        assert!(std::ptr::eq(g.value(v), ps.value(a)), "bound by reference");
    }

    #[test]
    fn a_write_after_a_bind_copies_and_leaves_the_tape_alone() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[64, 64]));
        // x · w[:, 0], the 64 x 64 weight read where the store holds it.
        let product = |ps: &ParamSet| {
            let mut g = Graph::new();
            let x = g.constant(Array::ones(&[1, 64]));
            let w = ps.bind(&mut g, a);
            let y = g.matmul(x, w).unwrap();
            g.value(y).data()[0]
        };
        assert_eq!(product(&ps), 64.0);
        let mut g = Graph::new();
        let v = ps.bind(&mut g, a);
        let bits =
            |g: &Graph| -> Vec<u32> { g.value(v).data().iter().map(|x| x.to_bits()).collect() };
        let recorded = bits(&g);
        let before = ps.pack_ident(a).version;
        ps.value_mut(a).data_mut()[0] = 5.0;
        assert_eq!(ps.pack_ident(a).version, before + 1, "version bumped");
        assert_eq!(bits(&g), recorded, "the tape's value is bitwise unchanged");
        assert!(!std::ptr::eq(g.value(v), ps.value(a)), "copied on write");
        assert_eq!(product(&ps), 68.0, "the written value: 5 + 63 ones");
        // With no tape left holding it, a write is in place.
        drop(g);
        let at = ps.value(a).data().as_ptr();
        ps.value_mut(a).data_mut()[1] = 2.0;
        assert_eq!(ps.value(a).data().as_ptr(), at, "written in place");
    }

    #[test]
    fn a_clone_written_after_the_clone_leaves_the_original_untouched() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[4]));
        let mut copy = ps.clone();
        assert!(
            std::ptr::eq(copy.value(a), ps.value(a)),
            "shared until written"
        );
        copy.value_mut(a).data_mut()[2] = 9.0;
        assert_eq!(ps.value(a).data(), &[1.0; 4]);
        assert_eq!(copy.value(a).data(), &[1.0, 1.0, 9.0, 1.0]);
    }

    #[test]
    fn trainable_flag_roundtrips() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[1]));
        assert!(ps.is_trainable(a));
        ps.set_trainable(a, false);
        assert!(!ps.is_trainable(a));
    }

    /// Registers `a: [2, 3]` and `b: [3]`, counting initializer runs.
    fn two_params(ps: &mut ParamSet, runs: &std::cell::Cell<usize>) -> (ParamId, ParamId) {
        let counted = |s: &[usize]| {
            runs.set(runs.get() + 1);
            Array::ones(s)
        };
        (
            ps.add_with("a", &[2, 3], counted),
            ps.add_with("b", &[3], counted),
        )
    }

    #[test]
    fn lay_out_takes_the_decoded_values_and_runs_no_initializer() {
        let runs = std::cell::Cell::new(0);
        let mut saved = ParamSet::new();
        let (a, b) = two_params(&mut saved, &runs);
        saved.value_mut(a).data_mut()[4] = 7.0;
        saved.set_trainable(b, false);
        let value_a: *const Array = saved.value(a);
        let expect = saved.clone();
        runs.set(0);
        let ((a2, b2), laid) = ParamSet::lay_out(saved, |ps| two_params(ps, &runs)).unwrap();
        assert_eq!(runs.get(), 0, "no initializer ran");
        assert!(laid == expect, "the decoded names, flags and values");
        assert_eq!((a2, b2), (a, b));
        assert!(std::ptr::eq(laid.value(a2), value_a), "no value copied");

        // Departures: a missing parameter, a renamed one, a reshaped one.
        let mut short = ParamSet::new();
        short.add("a", Array::ones(&[2, 3]));
        let err = ParamSet::lay_out(short, |ps| two_params(ps, &runs));
        assert_eq!(
            err.err(),
            Some(LayoutError::Count {
                decoded: 1,
                model: 2
            })
        );
        let mut renamed = expect.clone();
        renamed.entries[1].name = "c".into();
        let err = ParamSet::lay_out(renamed, |ps| two_params(ps, &runs));
        assert_eq!(
            err.err(),
            Some(LayoutError::Name {
                decoded: "c".into(),
                model: "b".into()
            })
        );
        let mut reshaped = ParamSet::new();
        reshaped.add("a", Array::ones(&[3, 2]));
        reshaped.add("b", Array::ones(&[3]));
        let err = ParamSet::lay_out(reshaped, |ps| two_params(ps, &runs));
        assert_eq!(
            err.err(),
            Some(LayoutError::Shape {
                name: "a".into(),
                decoded: vec![3, 2],
                model: vec![2, 3]
            })
        );
    }
}
