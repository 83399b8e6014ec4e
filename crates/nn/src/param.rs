//! External parameter storage shared across training steps.

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
    value: Array,
    trainable: bool,
    /// Mutation counter: bumped on every mutable access so the
    /// packed-weight cache (`acme_tensor::packcache`) can tell frozen
    /// values (cache hits) from updated ones (invalidation).
    version: u64,
}

/// Owning store of model parameters, living across training steps.
///
/// Layers allocate parameters here at construction time and keep only the
/// returned [`ParamId`]s. During a forward pass, [`ParamSet::bind`] places
/// a parameter into the active [`Graph`] (memoized per graph), and after
/// `backward` an [`Optimizer`](crate::Optimizer) walks the graph's
/// bindings to update values.
#[derive(Debug)]
pub struct ParamSet {
    entries: Vec<Entry>,
    /// Process-unique id of this store instance, part of the
    /// packed-weight-cache key. Clones get a fresh id (see
    /// [`Clone`] impl) so stores that diverge after a clone — e.g.
    /// per-cluster Phase 2 copies — can never alias cache entries.
    store: u64,
}

impl Clone for ParamSet {
    fn clone(&self) -> Self {
        ParamSet {
            entries: self.entries.clone(),
            store: packcache::fresh_store_id(),
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
        }
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Array) -> ParamId {
        self.entries.push(Entry {
            name: name.into(),
            value,
            trainable: true,
            version: 0,
        });
        ParamId(self.entries.len() - 1)
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
    /// # Panics
    ///
    /// Panics for an id from a different store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Array {
        // Pessimistically treat every mutable access as a write: a stale
        // packed copy must never survive an update, while an unnecessary
        // bump only costs one re-pack.
        self.entries[id.0].version += 1;
        &mut self.entries[id.0].value
    }

    /// The packed-weight-cache identity of a parameter: store instance,
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
    /// so matmuls against it reuse the process-wide packed form while
    /// the value stays unchanged (frozen backbones during PFG evaluation
    /// and header refinement hit this every step).
    pub fn bind(&self, g: &mut Graph, id: ParamId) -> Var {
        g.bind_param_ident(
            id.key(),
            self.pack_ident(id),
            self.value(id),
            self.is_trainable(id),
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
    fn trainable_flag_roundtrips() {
        let mut ps = ParamSet::new();
        let a = ps.add("w", Array::ones(&[1]));
        assert!(ps.is_trainable(a));
        ps.set_trainable(a, false);
        assert!(!ps.is_trainable(a));
    }
}
