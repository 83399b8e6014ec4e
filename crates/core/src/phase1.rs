//! Phase 1: backbone generation and cluster-level customization
//! (Algorithm 1).

use acme_data::Dataset;
use acme_energy::{DeviceCluster, EnergyModel};
use acme_nn::{accuracy, ParamSet};
use acme_pareto::{select_constrained, Candidate, GridSpec, SelectError};
use acme_runtime::Pool;
use acme_tensor::{Graph, SmallRng64};
use acme_vit::{distill_from, score_importance, sub_network, TeacherTargets, TrainConfig, Vit};

/// One `(w, d)` candidate with its trained weights and cloud-side loss.
pub struct CandidateModel {
    /// Width factor.
    pub w: f64,
    /// Depth.
    pub d: usize,
    /// The student backbone.
    pub vit: Vit,
    /// Its parameters.
    pub ps: ParamSet,
    /// Cross-entropy on the cloud's public validation set.
    pub loss: f64,
    /// Accuracy on the same set (for the Fig. 9 efficiency metrics).
    pub accuracy: f64,
    /// Exact parameter count.
    pub params: u64,
}

impl std::fmt::Debug for CandidateModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateModel")
            .field("w", &self.w)
            .field("d", &self.d)
            .field("loss", &self.loss)
            .field("params", &self.params)
            .finish()
    }
}

/// Mean cross-entropy and accuracy of `vit`'s default head on `data`,
/// from one forward pass per batch. The batches and the accuracy's
/// rounding through `f32` are [`acme_vit::evaluate`]'s.
fn validate(vit: &Vit, ps: &ParamSet, data: &Dataset, batch_size: usize) -> (f64, f64) {
    let mut rng = SmallRng64::new(0);
    let mut loss = 0.0f64;
    let mut correct = 0.0f64;
    let mut count = 0usize;
    let mut g = Graph::new();
    for batch in data.batches(batch_size, &mut rng) {
        g.reset();
        let n = batch.labels.len() as f64;
        let logits = vit.logits(&mut g, ps, &batch.images);
        correct += accuracy(g.value(logits), &batch.labels) as f64 * n;
        let ce = g.cross_entropy_logits(logits, &batch.labels);
        loss += g.value(ce).item() as f64 * n;
        count += batch.labels.len();
    }
    let count = count.max(1) as f64;
    (loss / count, (correct / count) as f32 as f64)
}

/// Builds the backbone candidate pool: for every `(w, d)` of the grids,
/// cut `δ(θ₀, w, d)` out of the teacher (its most important heads and
/// neurons by Eqs. 6–8, its first `d` blocks), distill against the
/// teacher (Eq. 9; the teacher's targets are computed once and shared by
/// every candidate), and measure loss and accuracy on the cloud's public
/// validation split.
///
/// Every candidate is cut, distilled, and evaluated as one task on
/// `pool`. Candidates are returned in width-major, depth-minor grid
/// order regardless of thread count, and no task consumes the shared
/// RNG (importance scoring drains `rng` serially before the fan-out;
/// distillation and evaluation seed their own streams), so the result
/// is identical at any parallelism; `Pool::serial()` runs it on one
/// thread.
///
/// Once the fan-out has joined, the tensor pool's free lists are freed
/// ([`acme_tensor::pool::clear`]): they hold the retired buffers of the
/// distillation tapes, shapes no later stage asks for, and would
/// otherwise sit idle through Phase 2. The pool only moves buffers, so
/// no result changes.
///
/// # Panics
///
/// Panics on empty grids or datasets.
#[allow(clippy::too_many_arguments)]
pub fn build_candidate_pool_on(
    pool: &Pool,
    teacher: &Vit,
    teacher_ps: &ParamSet,
    public_train: &Dataset,
    public_val: &Dataset,
    widths: &[f64],
    depths: &[usize],
    distill_cfg: &TrainConfig,
    importance_batches: usize,
    rng: &mut SmallRng64,
) -> Vec<CandidateModel> {
    assert!(
        !widths.is_empty() && !depths.is_empty(),
        "empty candidate grid"
    );
    assert!(
        !public_train.is_empty() && !public_val.is_empty(),
        "empty public data"
    );
    let scores = score_importance(
        teacher,
        teacher_ps,
        public_train,
        importance_batches,
        distill_cfg.batch_size,
        rng,
    );
    // Handed over largest first and turned back below: the grid is sorted
    // by cost and the pool starts tasks in index order, so as listed the
    // two heaviest distillations would run together, last, and set the
    // makespan (measured: +7 % `job_s` on `customize`).
    let grid: Vec<(f64, usize)> = widths
        .iter()
        .flat_map(|&w| depths.iter().map(move |&d| (w, d)))
        .rev()
        .collect();
    // The Eq. (9) targets depend only on θ₀ and the example: one teacher
    // pass, borrowed by every candidate.
    let targets = (distill_cfg.epochs > 0).then(|| {
        TeacherTargets::compute(teacher, teacher_ps, public_train, distill_cfg.batch_size)
    });
    let mut candidates = pool.par_map(grid, |_, (w, d)| {
        let (vit, mut ps) = sub_network(teacher, teacher_ps, &scores, w, d);
        if let Some(targets) = &targets {
            distill_from(targets, &vit, &mut ps, public_train, distill_cfg);
        }
        let (loss, accuracy) = validate(&vit, &ps, public_val, distill_cfg.batch_size);
        let params = ps.num_scalars() as u64;
        CandidateModel {
            w,
            d,
            vit,
            ps,
            loss,
            accuracy,
            params,
        }
    });
    acme_tensor::pool::clear();
    candidates.reverse();
    candidates
}

/// Algorithm 1's objective vector of candidate `c` for `cluster`:
/// `f_s = [L, E_s, ζ]`, where `E_s` is the cluster's representative
/// energy (Eq. 10), the maximum over its devices, i.e. the weakest
/// (slowest) one. Carries the candidate's accuracy for the Fig. 9
/// efficiency metrics.
pub fn cluster_objective(
    c: &CandidateModel,
    cluster: &DeviceCluster,
    energy: &EnergyModel,
    energy_epochs: usize,
) -> Candidate {
    let e = cluster
        .devices()
        .iter()
        .map(|dev| energy.energy(dev, c.w, c.d, energy_epochs))
        .fold(f64::NEG_INFINITY, f64::max);
    Candidate::new(c.w, c.d, [c.loss, e, c.params as f64]).with_accuracy(c.accuracy)
}

/// Algorithm 1's per-cluster selection: builds every candidate's
/// [`cluster_objective`], constructs the Pareto Front Grid, truncates by
/// `min_n C_n`, and applies the Eq. (13) selection rule.
///
/// Returns the index into `pool` of the chosen candidate, or `Ok(None)`
/// when nothing fits the cluster's storage bound.
///
/// # Errors
///
/// Returns [`SelectError::NoFiniteCandidate`] when the pool is non-empty
/// but every candidate carries a non-finite objective (e.g. a diverged
/// distillation loss) — selection refuses to rank NaNs instead of
/// panicking.
pub fn customize_backbone_for_cluster(
    pool: &[CandidateModel],
    cluster: &DeviceCluster,
    energy: &EnergyModel,
    energy_epochs: usize,
    gamma_p: f64,
) -> Result<Option<usize>, SelectError> {
    let candidates: Vec<Candidate> = pool
        .iter()
        .map(|c| cluster_objective(c, cluster, energy, energy_epochs))
        .collect();
    // The grid is built over the finite sub-pool so a single NaN loss
    // cannot poison the interval bounds for everyone else.
    let finite: Vec<Candidate> = candidates
        .iter()
        .filter(|c| c.is_finite())
        .cloned()
        .collect();
    if finite.is_empty() {
        if candidates.is_empty() {
            return Ok(None);
        }
        return Err(SelectError::NoFiniteCandidate {
            total: candidates.len(),
        });
    }
    let Ok(spec) = GridSpec::from_candidates(&finite, gamma_p) else {
        return Ok(None);
    };
    let chosen = select_constrained(&finite, &spec, cluster.min_storage() as f64)?;
    Ok(chosen.and_then(|chosen| pool.iter().position(|c| c.w == chosen.w && c.d == chosen.d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_energy::{Device, EdgeId};
    use acme_vit::VitConfig;

    fn setup() -> (Vit, ParamSet, Dataset, Dataset, SmallRng64) {
        setup_at(0)
    }

    fn setup_at(seed: u64) -> (Vit, ParamSet, Dataset, Dataset, SmallRng64) {
        let mut rng = SmallRng64::new(seed);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(12), &mut rng).unwrap();
        let (train, val) = ds.split(0.7, &mut rng);
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        (vit, ps, train, val, rng)
    }

    #[test]
    fn pool_covers_grid_with_monotone_sizes() {
        let (vit, ps, train, val, mut rng) = setup();
        let pool = build_candidate_pool_on(
            &Pool::serial(),
            &vit,
            &ps,
            &train,
            &val,
            &[0.5, 1.0],
            &[1, 2],
            &TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
            1,
            &mut rng,
        );
        assert_eq!(pool.len(), 4);
        let full = pool.iter().find(|c| c.w == 1.0 && c.d == 2).unwrap();
        let tiny = pool.iter().find(|c| c.w == 0.5 && c.d == 1).unwrap();
        assert!(tiny.params < full.params);
        assert!(pool.iter().all(|c| c.loss.is_finite() && c.loss > 0.0));
    }

    #[test]
    fn cluster_selection_respects_storage() {
        let (vit, ps, train, val, mut rng) = setup();
        let pool = build_candidate_pool_on(
            &Pool::serial(),
            &vit,
            &ps,
            &train,
            &val,
            &[0.5, 1.0],
            &[1, 2],
            &TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
            1,
            &mut rng,
        );
        let max_params = pool.iter().map(|c| c.params).max().unwrap();
        let min_params = pool.iter().map(|c| c.params).min().unwrap();
        // A storage bound between min and max forces a smaller model.
        let tight = DeviceCluster::new(
            EdgeId(0),
            vec![Device::new(0, 5.0, (min_params + max_params) / 2)],
        );
        let i = customize_backbone_for_cluster(&pool, &tight, &EnergyModel::default(), 3, 0.2)
            .expect("finite pool")
            .expect("feasible");
        assert!(pool[i].params < (min_params + max_params) / 2);
        // An infeasible bound yields None.
        let hopeless = DeviceCluster::new(EdgeId(1), vec![Device::new(1, 5.0, 1)]);
        assert!(
            customize_backbone_for_cluster(&pool, &hopeless, &EnergyModel::default(), 3, 0.2)
                .expect("finite pool")
                .is_none()
        );
    }

    #[test]
    fn nan_losses_are_skipped_and_all_nan_pool_is_an_error() {
        let (vit, ps, train, val, mut rng) = setup();
        let mut pool = build_candidate_pool_on(
            &Pool::serial(),
            &vit,
            &ps,
            &train,
            &val,
            &[0.5, 1.0],
            &[1, 2],
            &TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
            1,
            &mut rng,
        );
        let roomy = DeviceCluster::new(EdgeId(0), vec![Device::new(0, 5.0, u64::MAX / 2)]);
        // A single diverged candidate is skipped, not compared.
        pool[0].loss = f64::NAN;
        let i = customize_backbone_for_cluster(&pool, &roomy, &EnergyModel::default(), 3, 0.2)
            .expect("finite candidates remain")
            .expect("feasible");
        assert!(pool[i].loss.is_finite());
        // A fully diverged pool is a typed error, not a panic.
        for c in &mut pool {
            c.loss = f64::NAN;
        }
        assert!(
            customize_backbone_for_cluster(&pool, &roomy, &EnergyModel::default(), 3, 0.2).is_err()
        );
    }

    #[test]
    fn parallel_pool_matches_serial() {
        let (vit, ps, train, val, rng) = setup();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let serial = build_candidate_pool_on(
            &Pool::serial(),
            &vit,
            &ps,
            &train,
            &val,
            &[0.5, 1.0],
            &[1, 2],
            &cfg,
            1,
            &mut rng.clone(),
        );
        // Width-major, depth-minor, whichever end the pool is handed first.
        let order: Vec<(f64, usize)> = serial.iter().map(|c| (c.w, c.d)).collect();
        assert_eq!(order, [(0.5, 1), (0.5, 2), (1.0, 1), (1.0, 2)]);
        for threads in [2, 4] {
            let parallel = build_candidate_pool_on(
                &Pool::new(threads),
                &vit,
                &ps,
                &train,
                &val,
                &[0.5, 1.0],
                &[1, 2],
                &cfg,
                1,
                &mut rng.clone(),
            );
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!((a.w, a.d, a.params), (b.w, b.d, b.params));
                assert_eq!(a.loss, b.loss, "candidate ({}, {})", a.w, a.d);
                assert_eq!(a.accuracy, b.accuracy);
            }
        }
    }

    /// Every candidate's `(w, d, params, loss bits, accuracy bits)` after
    /// one distillation epoch, pinned across builds: a change that moves
    /// any bit of Phase 1 fails here, where `parallel_pool_matches_serial`
    /// only compares two runs of the same build.
    #[test]
    fn golden_pool_pins_every_bit() {
        type Row = (f64, usize, u64, u64, u64);
        let pinned: [(u64, [Row; 4]); 2] = [
            (
                0,
                [
                    (0.5, 1, 1628, 4609178954211786752, 4601392076498665472),
                    (0.5, 2, 2788, 4608772528972759040, 4601392076498665472),
                    (1.0, 1, 2692, 4609420558470217728, 4601392076498665472),
                    (1.0, 2, 4916, 4610808926512873472, 4598818591150702592),
                ],
            ),
            (
                1,
                [
                    (0.5, 1, 1628, 4614647816063549440, 4589811391895961600),
                    (0.5, 2, 2788, 4614461814451732480, 4589811391895961600),
                    (1.0, 1, 2692, 4612473717040087040, 0),
                    (1.0, 2, 4916, 4613174273450704896, 4589811391895961600),
                ],
            ),
        ];
        for (seed, want) in pinned {
            let (vit, ps, train, val, mut rng) = setup_at(seed);
            let pool = build_candidate_pool_on(
                &Pool::serial(),
                &vit,
                &ps,
                &train,
                &val,
                &[0.5, 1.0],
                &[1, 2],
                &TrainConfig {
                    epochs: 1,
                    ..TrainConfig::default()
                },
                1,
                &mut rng,
            );
            let got: Vec<Row> = pool
                .iter()
                .map(|c| (c.w, c.d, c.params, c.loss.to_bits(), c.accuracy.to_bits()))
                .collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn distillation_improves_candidate_loss() {
        let (vit, mut ps, train, val, mut rng) = setup();
        // Train the teacher so distillation has signal.
        acme_vit::fit(
            &vit,
            &mut ps,
            &train,
            &acme_vit::TrainConfig {
                epochs: 6,
                ..acme_vit::TrainConfig::quick()
            },
        );
        let mk_pool = |epochs: usize, rng: &mut SmallRng64| {
            build_candidate_pool_on(
                &Pool::serial(),
                &vit,
                &ps,
                &train,
                &val,
                &[1.0],
                &[1],
                &TrainConfig {
                    epochs,
                    ..TrainConfig::default()
                },
                1,
                rng,
            )
        };
        let raw = mk_pool(0, &mut rng.clone());
        let distilled = mk_pool(3, &mut rng);
        assert!(
            distilled[0].loss < raw[0].loss,
            "distilled {} vs raw {}",
            distilled[0].loss,
            raw[0].loss
        );
    }
}
