//! First-order Taylor importance of heads and neurons (Eqs. 6–8).

use acme_data::Dataset;
use acme_nn::ParamSet;
use acme_tensor::{Graph, SmallRng64};

use crate::model::Vit;

/// Per-layer importance of every attention head and MLP neuron, as
/// measured by `I = |∂F/∂O · O|` (Eq. 8): the gradient of the training
/// loss with respect to a multiplicative unit mask on the component's
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceScores {
    /// `heads[layer][head]`.
    pub heads: Vec<Vec<f32>>,
    /// `neurons[layer][neuron]`.
    pub neurons: Vec<Vec<f32>>,
}

impl ImportanceScores {
    /// Indices of the `keep` most-important heads in `layer`, ascending.
    /// A NaN score ranks below every number, `-∞` included: a head whose
    /// importance could not be computed is kept only once every scored
    /// one is.
    ///
    /// # Panics
    ///
    /// Panics when `keep` is zero or exceeds the head count.
    pub fn top_heads(&self, layer: usize, keep: usize) -> Vec<usize> {
        top_k(&self.heads[layer], keep)
    }

    /// Indices of the `keep` most-important neurons in `layer`, ascending;
    /// NaN scores rank last, as in [`ImportanceScores::top_heads`].
    ///
    /// # Panics
    ///
    /// Panics when `keep` is zero or exceeds the neuron count.
    pub fn top_neurons(&self, layer: usize, keep: usize) -> Vec<usize> {
        top_k(&self.neurons[layer], keep)
    }
}

fn top_k(scores: &[f32], keep: usize) -> Vec<usize> {
    assert!(
        keep > 0 && keep <= scores.len(),
        "keep {keep} out of range for {}",
        scores.len()
    );
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or_else(|| scores[a].is_nan().cmp(&scores[b].is_nan()))
    });
    let mut kept = idx[..keep].to_vec();
    kept.sort_unstable();
    kept
}

/// Scores head and neuron importance of `vit` on (a sample of) `dataset`
/// — the small calibration set `D_C` of §III-B1.
///
/// Importance accumulates `|mask-gradient|` over `batches` minibatches of
/// `batch_size`.
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn score_importance(
    vit: &Vit,
    ps: &ParamSet,
    dataset: &Dataset,
    batches: usize,
    batch_size: usize,
    rng: &mut SmallRng64,
) -> ImportanceScores {
    assert!(!dataset.is_empty(), "importance scoring needs data");
    let depth = vit.blocks().len();
    let mut heads = vec![vec![0.0f32; vit.config().heads]; depth];
    let mut neurons: Vec<Vec<f32>> = vit
        .blocks()
        .iter()
        .map(|b| vec![0.0f32; b.mlp().hidden_dim()])
        .collect();
    let mut done = 0usize;
    while done < batches {
        for batch in dataset.batches(batch_size, rng) {
            if done >= batches {
                break;
            }
            let mut g = Graph::new();
            let (f, hm, nm) = vit.forward_importance(&mut g, ps, &batch.images);
            let logits = vit.logits_from(&mut g, ps, &f);
            let loss = g.cross_entropy_logits(logits, &batch.labels);
            g.backward(loss);
            for (l, &m) in hm.iter().enumerate() {
                if let Some(grad) = g.grad(m) {
                    for (h, &v) in grad.data().iter().enumerate() {
                        heads[l][h] += v.abs();
                    }
                }
            }
            for (l, &m) in nm.iter().enumerate() {
                if let Some(grad) = g.grad(m) {
                    for (n, &v) in grad.data().iter().enumerate() {
                        neurons[l][n] += v.abs();
                    }
                }
            }
            done += 1;
        }
    }
    ImportanceScores { heads, neurons }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_nn::ParamSet;

    #[test]
    fn top_k_orders_and_sorts() {
        let s = ImportanceScores {
            heads: vec![vec![0.1, 0.9, 0.5, 0.7]],
            neurons: vec![vec![1.0, 0.0]],
        };
        assert_eq!(s.top_heads(0, 2), vec![1, 3]);
        assert_eq!(s.top_heads(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(s.top_neurons(0, 1), vec![0]);
    }

    #[test]
    fn top_k_ranks_nan_below_every_number() {
        let s = ImportanceScores {
            heads: vec![vec![f32::NAN, 0.2, f32::NEG_INFINITY, f32::NAN, 0.9]],
            neurons: vec![vec![f32::NAN, f32::NAN]],
        };
        assert_eq!(s.top_heads(0, 2), vec![1, 4]);
        assert_eq!(s.top_heads(0, 3), vec![1, 2, 4], "-inf still outranks NaN");
        // NaNs are taken last, earlier index first.
        assert_eq!(s.top_heads(0, 4), vec![0, 1, 2, 4]);
        assert_eq!(s.top_neurons(0, 1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn top_k_rejects_zero() {
        let s = ImportanceScores {
            heads: vec![vec![0.1]],
            neurons: vec![],
        };
        s.top_heads(0, 0);
    }

    #[test]
    fn scores_have_expected_shape_and_are_nonnegative() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let scores = score_importance(&vit, &ps, &ds, 2, 8, &mut rng);
        assert_eq!(scores.heads.len(), 2);
        assert_eq!(scores.heads[0].len(), 2);
        assert_eq!(scores.neurons[0].len(), 32);
        assert!(scores
            .heads
            .iter()
            .flatten()
            .all(|&v| v >= 0.0 && v.is_finite()));
        assert!(scores
            .neurons
            .iter()
            .flatten()
            .all(|&v| v >= 0.0 && v.is_finite()));
        // Something should be nonzero: the model is untrained, gradients flow.
        let total: f32 = scores.heads.iter().flatten().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn scoring_is_deterministic_under_seed() {
        let mut rng = SmallRng64::new(1);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut SmallRng64::new(5));
        let a = score_importance(&vit, &ps, &ds, 2, 8, &mut SmallRng64::new(7));
        let b = score_importance(&vit, &ps, &ds, 2, 8, &mut SmallRng64::new(7));
        assert_eq!(a, b);
    }
}
