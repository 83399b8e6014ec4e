//! The alternating ENAS-style search driver an edge server runs
//! (§III-C2): shared-parameter steps (Eq. 15) interleaved with
//! REINFORCE controller steps.

use acme_data::Dataset;
use acme_nn::{accuracy, clip_grad_norm, Adam, Optimizer, ParamSet};
use acme_tensor::{Graph, SmallRng64};
use acme_vit::headers::Header;
use acme_vit::Vit;

use crate::controller::{Controller, ControllerConfig};
use crate::header::NasHeader;
use crate::predictor::AccuracyPredictor;
use crate::shared::SharedParams;
use crate::space::HeaderArch;

/// Hyperparameters of [`NasSearch::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Blocks per module (`B`).
    pub num_blocks: usize,
    /// Module repetitions (`U`).
    pub u: usize,
    /// Alternation rounds.
    pub rounds: usize,
    /// Shared-parameter minibatch steps per round.
    pub shared_steps: usize,
    /// Child models sampled per shared step (the Monte-Carlo `M` of
    /// Eq. 15).
    pub child_samples: usize,
    /// Controller REINFORCE steps per round.
    pub controller_steps: usize,
    /// Minibatch size for both phases.
    pub batch_size: usize,
    /// Learning rate of the shared parameters.
    pub shared_lr: f32,
    /// Learning rate of the controller.
    pub controller_lr: f32,
    /// Candidate architectures evaluated for the final selection.
    pub final_candidates: usize,
    /// Epochs each final candidate is briefly fine-tuned (on its own
    /// parameter copy) before scoring. Counters the ENAS bias toward
    /// parameterless children whose shared weights need no training.
    pub final_finetune_epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            num_blocks: 3,
            u: 2,
            rounds: 3,
            shared_steps: 8,
            child_samples: 2,
            controller_steps: 6,
            batch_size: 16,
            shared_lr: 3e-3,
            controller_lr: 5e-3,
            final_candidates: 4,
            final_finetune_epochs: 2,
            seed: 0,
        }
    }
}

impl SearchConfig {
    /// A very small schedule for unit tests.
    pub fn quick() -> Self {
        SearchConfig {
            rounds: 1,
            shared_steps: 3,
            controller_steps: 3,
            final_candidates: 2,
            final_finetune_epochs: 1,
            num_blocks: 2,
            u: 1,
            ..Self::default()
        }
    }
}

/// Result of a search run.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The selected architecture (best validation accuracy among the
    /// final candidates, ties broken by the earlier candidate).
    pub best_arch: HeaderArch,
    /// Its validation accuracy under the shared weights.
    pub best_accuracy: f32,
    /// Mean controller reward per round.
    pub reward_history: Vec<f32>,
    /// Total number of child evaluations performed.
    pub evaluations: usize,
}

/// The Phase 2-1 search: owns the controller and drives the alternating
/// optimization over a caller-provided backbone + supernet. An
/// [`AccuracyPredictor`] (the paper's LSTM-with-sigmoid performance
/// estimator, §III-C2) is trained on every observed `(architecture,
/// reward)` pair and pre-screens the final candidate pool.
#[derive(Debug)]
pub struct NasSearch {
    controller: Controller,
    predictor: AccuracyPredictor,
    config: SearchConfig,
}

impl NasSearch {
    /// Registers the controller in `ps` (the same store that holds the
    /// backbone and supernet — different graphs bind disjoint subsets).
    pub fn new(ps: &mut ParamSet, config: SearchConfig, rng: &mut SmallRng64) -> Self {
        let controller = Controller::new(
            ps,
            ControllerConfig {
                num_blocks: config.num_blocks,
                u: config.u,
                lr: config.controller_lr,
                ..ControllerConfig::default()
            },
            rng,
        );
        let predictor = AccuracyPredictor::new(ps, config.num_blocks, rng);
        NasSearch {
            controller,
            predictor,
            config,
        }
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Runs the alternating optimization. `train` optimizes the shared
    /// parameters `ω_s` (the backbone is *not* frozen, per §III-C);
    /// `val` provides controller rewards and the final selection metric.
    ///
    /// # Panics
    ///
    /// Panics on empty datasets.
    pub fn run(
        &mut self,
        vit: &Vit,
        shared: &SharedParams,
        ps: &mut ParamSet,
        train: &Dataset,
        val: &Dataset,
        rng: &mut SmallRng64,
    ) -> SearchOutcome {
        assert!(!train.is_empty() && !val.is_empty(), "search needs data");
        let mut shared_opt = Adam::new(self.config.shared_lr);
        let mut reward_history = Vec::with_capacity(self.config.rounds);
        let mut evaluations = 0usize;
        // One tape arena per phase, reused across every step of the
        // alternating optimization.
        let mut g = Graph::new();
        let mut cg = Graph::new();
        for _round in 0..self.config.rounds {
            // Phase A: optimize shared parameters with Monte-Carlo
            // sampled children (Eq. 15).
            let mut steps = 0;
            'outer: loop {
                for batch in train.batches(self.config.batch_size, rng) {
                    if steps >= self.config.shared_steps {
                        break 'outer;
                    }
                    g.reset();
                    let feats = vit.forward(&mut g, ps, &batch.images);
                    let mut loss_acc = None;
                    for _ in 0..self.config.child_samples {
                        let arch = HeaderArch::random(self.config.num_blocks, self.config.u, rng);
                        let header = NasHeader::new(arch, shared.clone());
                        let logits = header.forward(&mut g, ps, &feats);
                        let loss = g.cross_entropy_logits(logits, &batch.labels);
                        loss_acc = Some(match loss_acc {
                            Some(acc) => g.add(acc, loss),
                            None => loss,
                        });
                    }
                    let total = loss_acc.expect("at least one child");
                    let mean = g.scale(total, 1.0 / self.config.child_samples as f32);
                    g.backward(mean);
                    clip_grad_norm(&mut g, 5.0);
                    shared_opt.step(ps, &g);
                    steps += 1;
                }
            }
            // Phase B: REINFORCE on the controller with validation-batch
            // accuracy as the reward.
            let mut round_reward = 0.0f32;
            for _ in 0..self.config.controller_steps {
                cg.reset();
                let (arch, logp) = self.controller.sample(&mut cg, ps, rng, false);
                let reward = self.eval_arch(vit, shared, ps, &arch, val, rng);
                evaluations += 1;
                self.controller.reinforce(&mut cg, ps, logp, reward);
                self.predictor.observe(ps, &arch, reward);
                round_reward += reward;
            }
            reward_history.push(round_reward / self.config.controller_steps.max(1) as f32);
        }
        // Final selection: the controller's greedy decode plus sampled
        // candidates pre-screened by the accuracy predictor (sample a
        // 3x-larger pool, keep the predicted-best), scored on the full
        // validation set after a brief fine-tune.
        let mut candidates = Vec::with_capacity(self.config.final_candidates + 1);
        {
            let mut cg = Graph::new();
            let (greedy, _) = self.controller.sample(&mut cg, ps, rng, true);
            candidates.push(greedy);
        }
        let mut pool = Vec::with_capacity(3 * self.config.final_candidates);
        for _ in 0..3 * self.config.final_candidates {
            cg.reset();
            let (arch, _) = self.controller.sample(&mut cg, ps, rng, false);
            let score = self.predictor.predict(ps, &arch);
            pool.push((arch, score));
        }
        // A NaN prediction (a diverged predictor) ranks below every
        // number, so such a candidate is taken only when nothing scored
        // is left; finite predictions compare exactly as before.
        pool.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or_else(|| a.1.is_nan().cmp(&b.1.is_nan()))
        });
        candidates.extend(
            pool.into_iter()
                .take(self.config.final_candidates)
                .map(|(a, _)| a),
        );
        let mut best_arch = candidates[0].clone();
        let mut best_accuracy = f32::MIN;
        let mut seen = std::collections::HashSet::new();
        for arch in candidates {
            if !seen.insert(arch.clone()) {
                continue;
            }
            let acc = self.eval_finetuned(vit, shared, ps, &arch, train, val, rng);
            evaluations += 1;
            if acc > best_accuracy {
                best_accuracy = acc;
                best_arch = arch;
            }
        }
        SearchOutcome {
            best_arch,
            best_accuracy,
            reward_history,
            evaluations,
        }
    }

    /// Accuracy of one child on a single validation batch (the cheap
    /// controller reward).
    fn eval_arch(
        &self,
        vit: &Vit,
        shared: &SharedParams,
        ps: &ParamSet,
        arch: &HeaderArch,
        val: &Dataset,
        rng: &mut SmallRng64,
    ) -> f32 {
        let batch = val
            .sample(self.config.batch_size.min(val.len()), rng)
            .as_batch();
        let header = NasHeader::new(arch.clone(), shared.clone());
        let mut g = Graph::new();
        let feats = vit.forward(&mut g, ps, &batch.images);
        let logits = header.forward(&mut g, ps, &feats);
        accuracy(g.value(logits), &batch.labels)
    }

    /// Accuracy of one child on the full validation set after a brief
    /// fine-tune of a private parameter copy (the shared weights are not
    /// disturbed).
    #[allow(clippy::too_many_arguments)]
    fn eval_finetuned(
        &self,
        vit: &Vit,
        shared: &SharedParams,
        ps: &ParamSet,
        arch: &HeaderArch,
        train: &Dataset,
        val: &Dataset,
        rng: &mut SmallRng64,
    ) -> f32 {
        if self.config.final_finetune_epochs == 0 {
            return self.eval_full(vit, shared, ps, arch, val, rng);
        }
        let mut local = ps.clone();
        let header = NasHeader::new(arch.clone(), shared.clone());
        let model = acme_vit::headers::HeadedVit::new(vit, &header);
        acme_vit::fit(
            &model,
            &mut local,
            train,
            &acme_vit::TrainConfig {
                epochs: self.config.final_finetune_epochs,
                batch_size: self.config.batch_size,
                ..acme_vit::TrainConfig::default()
            },
        );
        self.eval_full_with(vit, shared, &local, arch, val, rng)
    }

    /// Accuracy of one child on the full validation set.
    fn eval_full(
        &self,
        vit: &Vit,
        shared: &SharedParams,
        ps: &ParamSet,
        arch: &HeaderArch,
        val: &Dataset,
        rng: &mut SmallRng64,
    ) -> f32 {
        self.eval_full_with(vit, shared, ps, arch, val, rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_full_with(
        &self,
        vit: &Vit,
        shared: &SharedParams,
        ps: &ParamSet,
        arch: &HeaderArch,
        val: &Dataset,
        rng: &mut SmallRng64,
    ) -> f32 {
        let mut correct = 0.0f64;
        let mut total = 0usize;
        let header = NasHeader::new(arch.clone(), shared.clone());
        let mut g = Graph::new();
        for batch in val.batches(self.config.batch_size, rng) {
            g.reset();
            let feats = vit.forward(&mut g, ps, &batch.images);
            let logits = header.forward(&mut g, ps, &feats);
            correct += accuracy(g.value(logits), &batch.labels) as f64 * batch.labels.len() as f64;
            total += batch.labels.len();
        }
        (correct / total.max(1) as f64) as f32
    }
}

/// Random-search baseline at a matched evaluation budget: trains the
/// shared parameters exactly like [`NasSearch::run`]'s phase A, then
/// evaluates `budget` uniformly sampled architectures on the validation
/// set and returns the best. The classic control for learned NAS
/// controllers.
///
/// # Panics
///
/// Panics on empty datasets or a zero budget.
#[allow(clippy::too_many_arguments)]
pub fn random_search(
    vit: &Vit,
    shared: &SharedParams,
    ps: &mut ParamSet,
    train: &Dataset,
    val: &Dataset,
    cfg: &SearchConfig,
    budget: usize,
    rng: &mut SmallRng64,
) -> (HeaderArch, f32) {
    assert!(
        !train.is_empty() && !val.is_empty(),
        "random search needs data"
    );
    assert!(budget > 0, "budget must be positive");
    let mut shared_opt = Adam::new(cfg.shared_lr);
    let mut steps = 0;
    let mut g = Graph::new();
    'outer: loop {
        for batch in train.batches(cfg.batch_size, rng) {
            if steps >= cfg.rounds * cfg.shared_steps {
                break 'outer;
            }
            g.reset();
            let feats = vit.forward(&mut g, ps, &batch.images);
            let arch = HeaderArch::random(cfg.num_blocks, cfg.u, rng);
            let header = NasHeader::new(arch, shared.clone());
            let logits = header.forward(&mut g, ps, &feats);
            let loss = g.cross_entropy_logits(logits, &batch.labels);
            g.backward(loss);
            clip_grad_norm(&mut g, 5.0);
            shared_opt.step(ps, &g);
            steps += 1;
        }
    }
    let mut best_arch = HeaderArch::random(cfg.num_blocks, cfg.u, rng);
    let mut best_acc = f32::MIN;
    for _ in 0..budget {
        let arch = HeaderArch::random(cfg.num_blocks, cfg.u, rng);
        let header = NasHeader::new(arch.clone(), shared.clone());
        let batch = val.sample(cfg.batch_size.min(val.len()), rng).as_batch();
        g.reset();
        let feats = vit.forward(&mut g, ps, &batch.images);
        let logits = header.forward(&mut g, ps, &feats);
        let acc = accuracy(g.value(logits), &batch.labels);
        if acc > best_acc {
            best_acc = acc;
            best_arch = arch;
        }
    }
    (best_arch, best_acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_vit::VitConfig;

    #[test]
    fn quick_search_finds_a_working_header() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(
            &mut ps,
            "sn",
            2,
            cfg.dim,
            cfg.grid(),
            ds.num_classes(),
            &mut rng,
        );
        let mut search = NasSearch::new(&mut ps, SearchConfig::quick(), &mut rng);
        let outcome = search.run(&vit, &shared, &mut ps, &train, &val, &mut rng);
        assert_eq!(outcome.best_arch.blocks().len(), 2);
        assert!(outcome.best_accuracy >= 0.0 && outcome.best_accuracy <= 1.0);
        assert_eq!(outcome.reward_history.len(), 1);
        assert!(outcome.evaluations >= 3);
    }

    #[test]
    fn diverged_predictor_does_not_panic_the_final_selection() {
        let mut rng = SmallRng64::new(2);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(
            &mut ps,
            "sn",
            2,
            cfg.dim,
            cfg.grid(),
            ds.num_classes(),
            &mut rng,
        );
        // No alternation rounds: the run is the final selection alone,
        // pre-screened by a predictor whose every output is NaN.
        let config = SearchConfig {
            rounds: 0,
            ..SearchConfig::quick()
        };
        let mut search = NasSearch::new(&mut ps, config, &mut rng);
        let readout: Vec<_> = ps
            .ids()
            .filter(|&id| ps.name(id).starts_with("pred.read"))
            .collect();
        assert!(!readout.is_empty());
        for id in readout {
            ps.value_mut(id).data_mut().fill(f32::NAN);
        }
        let probe = HeaderArch::chain(2, 1);
        assert!(search.predictor.predict(&ps, &probe).is_nan());
        let outcome = search.run(&vit, &shared, &mut ps, &train, &val, &mut rng);
        assert_eq!(outcome.best_arch.blocks().len(), 2);
        assert!((0.0..=1.0).contains(&outcome.best_accuracy));
    }

    #[test]
    fn random_search_returns_valid_architecture() {
        let mut rng = SmallRng64::new(4);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(
            &mut ps,
            "sn",
            2,
            cfg.dim,
            cfg.grid(),
            ds.num_classes(),
            &mut rng,
        );
        let (arch, acc) = random_search(
            &vit,
            &shared,
            &mut ps,
            &train,
            &val,
            &SearchConfig::quick(),
            4,
            &mut rng,
        );
        assert_eq!(arch.blocks().len(), 2);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn shared_training_improves_child_loss() {
        // Train shared params for several rounds and verify a fixed
        // child's loss decreases.
        let mut rng = SmallRng64::new(1);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        let shared = SharedParams::new(
            &mut ps,
            "sn",
            2,
            cfg.dim,
            cfg.grid(),
            ds.num_classes(),
            &mut rng,
        );
        let arch = HeaderArch::chain(2, 1);
        let header = NasHeader::new(arch.clone(), shared.clone());
        let batch = ds.as_batch();
        let child_loss = |ps: &ParamSet| {
            let mut g = Graph::new();
            let feats = vit.forward(&mut g, ps, &batch.images);
            let logits = header.forward(&mut g, ps, &feats);
            let loss = g.cross_entropy_logits(logits, &batch.labels);
            g.value(loss).item()
        };
        let before = child_loss(&ps);
        let mut search = NasSearch::new(
            &mut ps,
            SearchConfig {
                rounds: 2,
                shared_steps: 6,
                controller_steps: 1,
                ..SearchConfig::quick()
            },
            &mut rng,
        );
        let (train, val) = ds.split(0.8, &mut rng);
        search.run(&vit, &shared, &mut ps, &train, &val, &mut rng);
        let after = child_loss(&ps);
        assert!(after < before, "child loss {before} -> {after}");
    }
}
