//! Multi-exit / early-exit inference — the extension direction the
//! paper's related work (§V) motivates: intermediate classifiers let a
//! deployed backbone stop early on easy inputs, trading accuracy for
//! energy exactly along the axis ACME's energy model (Eq. 1) prices.

use acme_data::{batch_indices, Dataset};
use acme_nn::{LayerNorm, Linear, ParamSet};
use acme_tensor::{Array, Graph, SmallRng64, Var};

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
    /// Panics when `exit_layers` breaks [`MultiExitVit::check_layout`].
    pub fn new(ps: &mut ParamSet, vit: &Vit, exit_layers: &[usize], rng: &mut SmallRng64) -> Self {
        Self::check_layout(exit_layers, vit.config().depth).unwrap_or_else(|msg| panic!("{msg}"));
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
        }
    }

    /// The exit-layer rule of a backbone `depth` blocks deep: at least
    /// one exit, strictly increasing, the last at the final block.
    ///
    /// # Errors
    ///
    /// Returns a message stating the rule when `exit_layers` breaks it.
    pub fn check_layout(exit_layers: &[usize], depth: usize) -> Result<(), String> {
        let increasing = exit_layers.windows(2).all(|w| w[0] < w[1]);
        match exit_layers.last() {
            Some(&last) if increasing && Some(last) == depth.checked_sub(1) => Ok(()),
            _ => Err(format!(
                "exit layers {exit_layers:?} must be non-empty, strictly increasing \
                 and end at the last of {depth} blocks"
            )),
        }
    }

    /// The exit positions.
    pub fn exit_layers(&self) -> &[usize] {
        &self.exit_layers
    }

    /// The classifier head at each exit (parallel to
    /// [`exit_layers`](Self::exit_layers)).
    pub fn heads(&self) -> &[Linear] {
        &self.heads
    }

    /// Runs `vit` over `images` exit by exit: the one block loop of
    /// multi-exit training, the early-exit evaluation and serving. After
    /// block `exit_layers[e]` it applies exit `e`'s norm and calls
    /// `at_exit(g, e, cls, rows)` with the `[k, dim]` `[CLS]` tokens of
    /// the `k` live rows and each one's index into `images`. The closure
    /// returns the ascending positions, among the `k`, of the rows that
    /// continue (`None`: all); the walk gathers them before the next
    /// block and stops once none does. Every op is row-independent, so a
    /// row's values do not depend on which rows ran beside it.
    pub fn walk(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        vit: &Vit,
        images: &Array,
        mut at_exit: impl FnMut(&mut Graph, usize, Var, &[usize]) -> Option<Vec<usize>>,
    ) {
        let (tokens, dim) = (vit.config().num_tokens(), vit.config().dim);
        let mut rows: Vec<usize> = (0..images.shape()[0]).collect();
        let mut e = 0;
        let mut x = vit.embed(g, ps, images);
        for (l, blk) in vit.blocks().iter().enumerate() {
            #[expect(clippy::disallowed_methods, reason = "the one block loop with exits")]
            {
                x = blk.forward(g, ps, x);
            }
            if self.exit_layers.get(e) != Some(&l) {
                continue;
            }
            let k = rows.len();
            let normed = self.norms[e].forward(g, ps, x);
            let cls = g.slice_axis(normed, 1, 0, 1);
            let cls = g.reshape(cls, &[k, dim]);
            match at_exit(g, e, cls, &rows) {
                Some(keep) if keep.is_empty() => return,
                Some(keep) if keep.len() < k => {
                    let flat = g.reshape(x, &[k, tokens * dim]);
                    let gathered = g.embedding(flat, &keep);
                    x = g.reshape(gathered, &[keep.len(), tokens, dim]);
                    rows = keep.into_iter().map(|row| rows[row]).collect();
                }
                _ => {}
            }
            e += 1;
        }
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
            let mut all = Vec::with_capacity(self.heads.len());
            self.walk(g, ps, vit, &batch.images, |g, e, cls, _| {
                all.push(self.heads[e].forward(g, ps, cls));
                None
            });
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
        let mut blocks_run = 0usize;
        let mut rng = SmallRng64::new(0);
        for indices in batch_indices(test.len(), batch_size, &mut rng) {
            let batch = test.batch(&indices);
            let mut g = Graph::new();
            self.walk(&mut g, ps, vit, &batch.images, |g, e, cls, rows| {
                let logits = self.heads[e].forward(g, ps, cls);
                let probs = g.value(logits).softmax_last();
                let last = e + 1 == self.exit_layers.len();
                let mut keep = Vec::new();
                for (i, &row) in rows.iter().enumerate() {
                    let p = probs.row(i);
                    if last || p.max() >= threshold {
                        exit_counts[e] += 1;
                        blocks_run += self.exit_layers[e] + 1;
                        correct += usize::from(p.argmax() == batch.labels[row]);
                    } else {
                        keep.push(i);
                    }
                }
                Some(keep)
            });
        }
        let total = test.len();
        EarlyExitReport {
            accuracy: correct as f32 / total as f32,
            exit_fractions: exit_counts
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect(),
            mean_blocks: blocks_run as f64 / total as f64,
            full_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use acme_data::{generate, SyntheticSpec};

    fn setup() -> (Vit, ParamSet, Dataset, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let ds = generate(&SyntheticSpec::tiny().with_per_class(24), &mut rng).unwrap();
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
        let mut seen = Vec::new();
        me.walk(&mut g, &ps, &vit, &batch.images, |g, e, cls, rows| {
            seen.push((e, g.shape(cls).to_vec(), rows.to_vec()));
            None
        });
        assert_eq!(
            seen,
            [
                (0, vec![3, 16], vec![0, 1, 2]),
                (1, vec![3, 16], vec![0, 1, 2])
            ]
        );
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
        assert_eq!(MultiExitVit::check_layout(&[0, 1], 2), Ok(()));
        assert_eq!(MultiExitVit::check_layout(&[3], 4), Ok(()));
        for (exits, depth) in [
            (&[][..], 2),
            (&[1, 1], 2),
            (&[1, 0], 2),
            (&[0], 2),
            (&[0, 2], 2),
            (&[0], 0),
        ] {
            assert!(
                MultiExitVit::check_layout(exits, depth).is_err(),
                "{exits:?} at depth {depth}"
            );
        }
    }

    #[test]
    fn the_walk_runs_deeper_blocks_on_the_kept_rows_only() {
        let (vit, mut ps, ds, mut rng) = setup();
        let me = MultiExitVit::new(&mut ps, &vit, &[0, 1], &mut rng);
        let batch = ds.sample(4, &mut rng).as_batch();
        let final_cls = |keep: Option<Vec<usize>>| {
            let mut g = Graph::new();
            let mut out = None;
            me.walk(&mut g, &ps, &vit, &batch.images, |g, e, cls, rows| {
                if e == 1 {
                    out = Some((rows.to_vec(), g.value(cls).clone()));
                }
                keep.clone()
            });
            out.expect("every walk reaches the final exit here")
        };
        let (all_rows, all) = final_cls(None);
        let (kept_rows, kept) = final_cls(Some(vec![1, 3]));
        assert_eq!(
            (all_rows, kept_rows.clone()),
            (vec![0, 1, 2, 3], vec![1, 3])
        );
        assert_eq!(kept.shape(), &[2, 16]);
        for (i, &row) in kept_rows.iter().enumerate() {
            let bits = |a: &Array, r: usize| {
                a.row(r)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&kept, i), bits(&all, row), "row {row}");
        }
        // No row continues: the final exit is never reached.
        let mut exits = Vec::new();
        me.walk(&mut Graph::new(), &ps, &vit, &batch.images, |_, e, _, _| {
            exits.push(e);
            Some(Vec::new())
        });
        assert_eq!(exits, [0]);
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
