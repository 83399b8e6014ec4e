//! A frozen backbone's features, computed once per example and reused by
//! every header step that reads them.

use acme_data::Dataset;
use acme_nn::ParamSet;
use acme_tensor::{pool, Array, Graph};

use crate::model::{Features, Vit};

/// A frozen backbone's outputs for every example of a dataset: final
/// tokens `[N, T, D]` (after the last layer norm), penultimate tokens
/// `[N, T, D]`, and the examples' labels.
///
/// A header trained over a frozen backbone never changes what the
/// backbone computes, so one [`FrozenFeatures::compute`] serves every
/// epoch of a refit ([`fit_header`](crate::fit_header)), every
/// evaluation of the same examples
/// ([`evaluate_header`](crate::evaluate_header)) and any other reader of
/// the features, instead of a backbone forward per minibatch. As with
/// [`TeacherTargets`](crate::TeacherTargets), every op of the backbone
/// forward is per-example, so a gathered row is bitwise the value a
/// backbone pass over any batch holding that example yields.
#[derive(Debug)]
pub struct FrozenFeatures {
    tokens: usize,
    dim: usize,
    grid: usize,
    last: Vec<f32>,
    penultimate: Vec<f32>,
    labels: Vec<usize>,
}

impl FrozenFeatures {
    /// Runs `backbone` once over `data`, in example order, `batch_size`
    /// examples at a time, and keeps its features.
    pub fn compute(backbone: &Vit, ps: &ParamSet, data: &Dataset, batch_size: usize) -> Self {
        let cfg = backbone.config();
        let (tokens, dim) = (cfg.num_tokens(), cfg.dim);
        let mut last = Vec::with_capacity(data.len() * tokens * dim);
        let mut penultimate = Vec::with_capacity(data.len() * tokens * dim);
        let order: Vec<usize> = (0..data.len()).collect();
        let mut g = Graph::new();
        for chunk in order.chunks(batch_size.max(1)) {
            let batch = data.batch(chunk);
            g.reset();
            let f = backbone.forward(&mut g, ps, &batch.images);
            last.extend_from_slice(g.value(f.tokens).data());
            penultimate.extend_from_slice(g.value(f.penultimate).data());
        }
        FrozenFeatures {
            tokens,
            dim,
            grid: cfg.grid(),
            last,
            penultimate,
            labels: data.labels().to_vec(),
        }
    }

    /// Number of examples covered.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no example is covered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of every example, in example order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The features of examples `indices`, stacked in that order, as
    /// constants in `g`: what a header reads from a backbone forward over
    /// those examples, with nothing upstream to differentiate.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn gather(&self, g: &mut Graph, indices: &[usize]) -> Features {
        let seq = self.tokens * self.dim;
        let shape = [indices.len(), self.tokens, self.dim];
        let mut rows = |all: &[f32]| {
            let mut out = pool::take(indices.len() * seq);
            for &i in indices {
                out.extend_from_slice(&all[i * seq..(i + 1) * seq]);
            }
            g.constant(Array::from_vec(out, &shape).expect("feature volume"))
        };
        let last = rows(&self.last);
        let penultimate = rows(&self.penultimate);
        Features::over(g, last, penultimate, self.grid, self.dim)
    }
}
