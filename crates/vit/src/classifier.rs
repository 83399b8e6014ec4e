//! The one minibatch training loop — cloud pre-training, Phase 1
//! distillation, Phase 2 header refits and multi-exit training all step
//! through `train_on` with their own loss — and the evaluation loop
//! shared by the ViT, the NAS-headed models and the lightweight baselines.

use acme_data::{batch_indices, Dataset};
use acme_nn::{accuracy, clip_grad_norm, Adam, Optimizer, ParamSet};
use acme_tensor::{Array, Graph, SmallRng64, Var};

use crate::frozen::FrozenFeatures;
use crate::headers::Header;

/// Anything that maps an image batch to class logits inside a graph.
pub trait ImageClassifier {
    /// Produces `[batch, classes]` logits for `images: [batch, c, h, w]`.
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var;

    /// A short diagnostic name.
    fn name(&self) -> &str {
        "classifier"
    }
}

impl ImageClassifier for crate::model::Vit {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        crate::model::Vit::logits(self, g, ps, images)
    }

    fn name(&self) -> &str {
        "vit"
    }
}

/// Hyperparameters of [`fit`], [`fit_header`],
/// [`distill`](crate::distill), [`distill_from`](crate::distill_from) and
/// [`MultiExitVit::fit_exits`](crate::MultiExitVit::fit_exits).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A short schedule for unit tests.
    pub fn quick() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            ..Self::default()
        }
    }
}

/// Outcome of a training run: [`fit`], [`fit_header`],
/// [`distill_from`](crate::distill_from) or
/// [`MultiExitVit::fit_exits`](crate::MultiExitVit::fit_exits).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Whether the loss decreased from first to last epoch.
    #[cfg(test)]
    pub(crate) fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

/// Where [`fit`] and [`evaluate`] (and their cached-feature twins) draw
/// minibatches from: examples addressed by index, turned into logits
/// inside a graph. One training loop and one evaluation loop serve every
/// source.
trait BatchSource {
    /// Number of examples.
    fn len(&self) -> usize;

    /// Records the logits of examples `indices` in `g` and returns them
    /// with the examples' labels.
    fn logits(&self, g: &mut Graph, ps: &ParamSet, indices: &[usize]) -> (Var, Vec<usize>);
}

/// Images through a whole model.
struct Images<'a, M: ?Sized> {
    model: &'a M,
    data: &'a Dataset,
}

impl<M: ImageClassifier + ?Sized> BatchSource for Images<'_, M> {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn logits(&self, g: &mut Graph, ps: &ParamSet, indices: &[usize]) -> (Var, Vec<usize>) {
        let batch = self.data.batch(indices);
        (self.model.logits(g, ps, &batch.images), batch.labels)
    }
}

/// Cached frozen-backbone features through a header.
struct Cached<'a> {
    header: &'a dyn Header,
    features: &'a FrozenFeatures,
}

impl BatchSource for Cached<'_> {
    fn len(&self) -> usize {
        self.features.len()
    }

    fn logits(&self, g: &mut Graph, ps: &ParamSet, indices: &[usize]) -> (Var, Vec<usize>) {
        let features = self.features.gather(g, indices);
        let labels = self.features.labels();
        (
            self.header.forward(g, ps, &features),
            indices.iter().map(|&i| labels[i]).collect(),
        )
    }
}

/// Trains `model` on `train` with Adam + cross-entropy.
///
/// Only trainable parameters learn, and only they are differentiated:
/// frozen ones are constants in the graph (see [`ParamSet::bind`]), so
/// the gradient clip sees the trainable parameters' gradient alone. A
/// header refit over a frozen backbone reads the same minibatches, bit
/// for bit, from [`fit_header`] on [`FrozenFeatures`] of `train`, which
/// runs the backbone once per example instead of once per step.
///
/// # Panics
///
/// Panics on an empty training set.
pub fn fit(
    model: &(impl ImageClassifier + ?Sized),
    ps: &mut ParamSet,
    train: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    fit_source(&Images { model, data: train }, ps, cfg)
}

/// Trains `header` on cached frozen-backbone `features` with Adam +
/// cross-entropy: [`fit`] of the header over that backbone, on the
/// dataset the features were computed from, bit for bit — every epoch
/// loss and every parameter — without running the backbone.
///
/// # Panics
///
/// Panics when `features` covers no example.
pub fn fit_header(
    header: &dyn Header,
    ps: &mut ParamSet,
    features: &FrozenFeatures,
    cfg: &TrainConfig,
) -> TrainReport {
    fit_source(&Cached { header, features }, ps, cfg)
}

/// Cross-entropy of `source`'s logits through [`train_on`].
fn fit_source(source: &dyn BatchSource, ps: &mut ParamSet, cfg: &TrainConfig) -> TrainReport {
    train_on(source.len(), ps, cfg, |g, ps, indices| {
        let (logits, labels) = source.logits(g, ps, indices);
        g.cross_entropy_logits(logits, &labels)
    })
}

/// Adam's learning rate in every run of [`train_on`].
const LR: f32 = 3e-3;

/// The minibatch training loop every trainer of this crate and of
/// `acme-core` runs (the NAS searches keep their own, whose draws share
/// the caller's RNG): per epoch, one seeded shuffle of
/// `0..len` cut into `cfg.batch_size` chunks; per chunk, `loss` records
/// the minibatch's scalar loss on a reset tape, then backward, a global
/// gradient-norm clip at 5 and one Adam step at the constant [`LR`].
/// Each epoch reports the f64 mean of its minibatch losses.
///
/// # Panics
///
/// Panics when `len` is zero.
pub(crate) fn train_on(
    len: usize,
    ps: &mut ParamSet,
    cfg: &TrainConfig,
    mut loss: impl FnMut(&mut Graph, &ParamSet, &[usize]) -> Var,
) -> TrainReport {
    assert!(len > 0, "fit on empty dataset");
    let mut rng = SmallRng64::new(cfg.seed);
    #[expect(clippy::disallowed_methods, reason = "the one training loop")]
    let mut opt = Adam::new(LR);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    // One tape arena for the whole run: reset per step recycles every
    // node buffer through the pool instead of reallocating.
    let mut g = Graph::new();
    for _ in 0..cfg.epochs {
        let batches = batch_indices(len, cfg.batch_size, &mut rng);
        let mut total = 0.0f64;
        for indices in &batches {
            g.reset();
            let loss = loss(&mut g, ps, indices);
            g.backward(loss);
            #[expect(clippy::disallowed_methods, reason = "the one training loop")]
            clip_grad_norm(&mut g, 5.0);
            opt.step(ps, &g);
            total += g.value(loss).item() as f64;
        }
        epoch_losses.push((total / batches.len() as f64) as f32);
    }
    TrainReport { epoch_losses }
}

/// Mean accuracy of `model` over `test`, evaluated in batches.
pub fn evaluate(
    model: &(impl ImageClassifier + ?Sized),
    ps: &ParamSet,
    test: &Dataset,
    batch_size: usize,
) -> f32 {
    evaluate_on(&Images { model, data: test }, ps, batch_size)
}

/// Mean accuracy of `header` over cached frozen-backbone `features`:
/// [`evaluate`] of the header over that backbone, on the dataset the
/// features were computed from, bit for bit.
pub fn evaluate_header(
    header: &dyn Header,
    ps: &ParamSet,
    features: &FrozenFeatures,
    batch_size: usize,
) -> f32 {
    evaluate_on(&Cached { header, features }, ps, batch_size)
}

fn evaluate_on(source: &dyn BatchSource, ps: &ParamSet, batch_size: usize) -> f32 {
    let mut rng = SmallRng64::new(0);
    let mut correct = 0.0f64;
    let mut total = 0usize;
    let mut g = Graph::new();
    for indices in batch_indices(source.len(), batch_size, &mut rng) {
        g.reset();
        let (logits, labels) = source.logits(&mut g, ps, &indices);
        let acc = accuracy(g.value(logits), &labels);
        correct += acc as f64 * labels.len() as f64;
        total += labels.len();
    }
    (correct / total.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use crate::model::Vit;
    use acme_data::{cifar100_like, SyntheticSpec};

    #[test]
    fn vit_learns_tiny_dataset_above_chance() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(16), &mut rng).unwrap();
        let (train, test) = ds.split(0.75, &mut rng);
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let before = evaluate(&vit, &ps, &test, 16);
        let report = fit(
            &vit,
            &mut ps,
            &train,
            &TrainConfig {
                epochs: 8,
                ..TrainConfig::quick()
            },
        );
        let after = evaluate(&vit, &ps, &test, 16);
        assert!(report.improved(), "losses {:?}", report.epoch_losses);
        // 4 classes: chance = 0.25. The structured synthetic data is
        // learnable well above chance in a few epochs.
        assert!(after > 0.4, "accuracy before {before} after {after}");
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        assert_eq!(evaluate(&vit, &ps, &ds.subset(&[]), 8), 0.0);
    }

    #[test]
    fn report_helpers() {
        let r = TrainReport {
            epoch_losses: vec![2.0, 1.0],
        };
        assert!(r.improved());
        let flat = TrainReport {
            epoch_losses: vec![],
        };
        assert!(!flat.improved());
    }
}
