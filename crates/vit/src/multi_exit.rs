//! Multi-exit / early-exit inference — the extension direction the
//! paper's related work (§V) motivates: intermediate classifiers let a
//! deployed backbone stop early on easy inputs, trading accuracy for
//! energy exactly along the axis ACME's energy model (Eq. 1) prices.

use acme_data::Dataset;
use acme_nn::{LayerNorm, Linear, ParamSet};
use acme_tensor::{Array, Graph, SmallRng64, Var};
use rand::Rng;

use crate::classifier::{train_on, TrainConfig, TrainReport};
use crate::model::Vit;

/// A backbone with one classifier per exit depth. Exit `i` sits after
/// block `exit_layers[i]` (0-based, strictly increasing; the last entry
/// must be the final layer).
#[derive(Debug, Clone)]
pub struct MultiExitVit {
    exit_layers: Vec<usize>,
    norms: Vec<LayerNorm>,
    heads: Vec<Linear>,
    dim: usize,
}

/// Outcome of confidence-thresholded inference over a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyExitReport {
    /// Classification accuracy with early exits active.
    pub accuracy: f32,
    /// Fraction of examples leaving at each exit.
    pub exit_fractions: Vec<f64>,
    /// Mean number of Transformer blocks executed per example.
    pub mean_blocks: f64,
    /// Blocks of the full model (the no-exit cost).
    pub full_blocks: usize,
}

impl EarlyExitReport {
    /// Fraction of block compute saved vs always running the full model.
    pub fn compute_saved(&self) -> f64 {
        1.0 - self.mean_blocks / self.full_blocks.max(1) as f64
    }
}

impl MultiExitVit {
    /// Attaches an exit (layer norm + linear classifier) after each layer
    /// in `exit_layers`.
    ///
    /// # Panics
    ///
    /// Panics when `exit_layers` is empty, not strictly increasing, out
    /// of range, or does not end at the final layer.
    pub fn new(ps: &mut ParamSet, vit: &Vit, exit_layers: &[usize], rng: &mut impl Rng) -> Self {
        let depth = vit.config().depth;
        assert!(!exit_layers.is_empty(), "need at least one exit");
        assert!(
            exit_layers.windows(2).all(|w| w[0] < w[1]),
            "exit layers must be strictly increasing"
        );
        assert!(
            *exit_layers.last().expect("nonempty") == depth - 1,
            "last exit must sit at the final layer {}",
            depth - 1
        );
        assert!(
            exit_layers.iter().all(|&l| l < depth),
            "exit layer out of range"
        );
        let dim = vit.config().dim;
        let classes = vit.config().classes;
        let mut norms = Vec::with_capacity(exit_layers.len());
        let mut heads = Vec::with_capacity(exit_layers.len());
        for &l in exit_layers {
            norms.push(LayerNorm::new(ps, &format!("exit{l}.ln"), dim));
            heads.push(Linear::new(ps, &format!("exit{l}.head"), dim, classes, rng));
        }
        MultiExitVit {
            exit_layers: exit_layers.to_vec(),
            norms,
            heads,
            dim,
        }
    }

    /// The exit positions.
    pub fn exit_layers(&self) -> &[usize] {
        &self.exit_layers
    }

    /// The pre-head layer norm at each exit (parallel to
    /// [`exit_layers`](Self::exit_layers)).
    pub fn norms(&self) -> &[LayerNorm] {
        &self.norms
    }

    /// The classifier head at each exit (parallel to
    /// [`exit_layers`](Self::exit_layers)).
    pub fn heads(&self) -> &[Linear] {
        &self.heads
    }

    /// Forward pass producing logits at *every* exit.
    fn all_exit_logits(&self, g: &mut Graph, ps: &ParamSet, vit: &Vit, images: &Array) -> Vec<Var> {
        let mut x = vit.embed(g, ps, images);
        let b = images.shape()[0];
        let mut logits = Vec::with_capacity(self.exit_layers.len());
        let mut next_exit = 0;
        for (l, blk) in vit.blocks().iter().enumerate() {
            x = blk.forward(g, ps, x);
            if next_exit < self.exit_layers.len() && self.exit_layers[next_exit] == l {
                let n = self.norms[next_exit].forward(g, ps, x);
                let cls = g.slice_axis(n, 1, 0, 1);
                let cls = g.reshape(cls, &[b, self.dim]);
                logits.push(self.heads[next_exit].forward(g, ps, cls));
                next_exit += 1;
            }
        }
        logits
    }

    /// Jointly trains all exits (sum of cross-entropies, backbone not
    /// frozen) in the training loop [`fit`](crate::fit) runs.
    ///
    /// # Panics
    ///
    /// Panics on an empty training set.
    pub fn fit_exits(
        &self,
        ps: &mut ParamSet,
        vit: &Vit,
        train: &Dataset,
        cfg: &TrainConfig,
    ) -> TrainReport {
        train_on(train.len(), ps, cfg, |g, ps, indices| {
            let batch = train.batch(indices);
            let all = self.all_exit_logits(g, ps, vit, &batch.images);
            let (first, rest) = all.split_first().expect("at least one exit");
            let mut loss = g.cross_entropy_logits(*first, &batch.labels);
            for &logits in rest {
                let exit_loss = g.cross_entropy_logits(logits, &batch.labels);
                loss = g.add(loss, exit_loss);
            }
            loss
        })
    }

    /// Confidence-thresholded inference: each example leaves at the first
    /// exit whose softmax maximum reaches `threshold` (the final exit
    /// takes whatever remains).
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or a threshold outside `[0, 1]`.
    pub fn evaluate_early_exit(
        &self,
        ps: &ParamSet,
        vit: &Vit,
        test: &Dataset,
        threshold: f32,
        batch_size: usize,
    ) -> EarlyExitReport {
        assert!(!test.is_empty(), "early-exit evaluation needs data");
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        let full_blocks = vit.config().depth;
        let mut exit_counts = vec![0usize; self.exit_layers.len()];
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut blocks_run = 0usize;
        let mut rng = SmallRng64::new(0);
        for batch in test.batches(batch_size, &mut rng) {
            let mut g = Graph::new();
            let all = self.all_exit_logits(&mut g, ps, vit, &batch.images);
            let probs: Vec<Array> = all.iter().map(|&l| g.value(l).softmax_last()).collect();
            for (row, &label) in batch.labels.iter().enumerate() {
                let mut taken = self.exit_layers.len() - 1;
                for (e, p) in probs.iter().enumerate() {
                    let r = p.row(row);
                    if e + 1 == probs.len() || r.max() >= threshold {
                        taken = e;
                        break;
                    }
                }
                exit_counts[taken] += 1;
                blocks_run += self.exit_layers[taken] + 1;
                let pred = probs[taken].row(row).argmax();
                if pred == label {
                    correct += 1;
                }
                total += 1;
            }
        }
        EarlyExitReport {
            accuracy: correct as f32 / total.max(1) as f32,
            exit_fractions: exit_counts
                .iter()
                .map(|&c| c as f64 / total.max(1) as f64)
                .collect(),
            mean_blocks: blocks_run as f64 / total.max(1) as f64,
            full_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use acme_data::{cifar100_like, SyntheticSpec};

    fn setup() -> (Vit, ParamSet, Dataset, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(24), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        (vit, ps, ds, rng)
    }

    #[test]
    fn exits_produce_logits_at_each_depth() {
        let (vit, mut ps, ds, mut rng) = setup();
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        let batch = ds.sample(3, &mut rng).as_batch();
        let mut g = Graph::new();
        let all = me.all_exit_logits(&mut g, &ps, &vit, &batch.images);
        assert_eq!(all.len(), 2);
        for l in all {
            assert_eq!(g.shape(l), &[3, ds.num_classes()]);
        }
    }

    #[test]
    fn constructor_validates_layout() {
        let (vit, mut ps, _, mut rng) = setup();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MultiExitVit::new(&mut ps, &vit, &[1, 0], &mut rng);
        }));
        assert!(r.is_err(), "non-increasing exits must panic");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MultiExitVit::new(&mut ps, &vit, &[0], &mut rng);
        }));
        assert!(r.is_err(), "missing final exit must panic");
    }

    #[test]
    fn threshold_one_runs_everything_to_the_end() {
        let (vit, mut ps, ds, mut rng) = setup();
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        // Untrained confidences are well below 1.0, so nothing leaves early
        // except by the mandatory final exit.
        let report = me.evaluate_early_exit(&ps, &vit, &ds, 1.0, 16);
        assert!(report.exit_fractions[0] < 0.05);
        assert!((report.mean_blocks - 2.0).abs() < 0.1);
        assert!(report.compute_saved() < 0.05);
        let _ = rng;
    }

    #[test]
    fn training_exits_enables_compute_savings() {
        let (vit, mut ps, ds, mut rng) = setup();
        let (train, test) = ds.split(0.75, &mut rng);
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::quick()
        };
        me.fit_exits(&mut ps, &vit, &train, &cfg);
        let strict = me.evaluate_early_exit(&ps, &vit, &test, 0.99, 16);
        let lenient = me.evaluate_early_exit(&ps, &vit, &test, 0.5, 16);
        // A lower threshold exits earlier on average.
        assert!(lenient.mean_blocks <= strict.mean_blocks + 1e-9);
        assert!(lenient.compute_saved() >= 0.0);
        // Accuracy with exits at threshold 1.0 (an example leaves early
        // only on an exit that is certain) is above chance after joint
        // training.
        let final_acc = me.evaluate_early_exit(&ps, &vit, &test, 1.0, 16).accuracy;
        assert!(final_acc > 1.0 / 4.0, "final exit accuracy {final_acc}");
        // Exit fractions sum to 1.
        let s: f64 = lenient.exit_fractions.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_exits_rejects_an_empty_training_set() {
        let (vit, mut ps, ds, mut rng) = setup();
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        me.fit_exits(&mut ps, &vit, &ds.subset(&[]), &TrainConfig::quick());
    }
}
