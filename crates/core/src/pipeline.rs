//! The end-to-end orchestration of all three ACME stages, as a chain of
//! stage values: [`Acme::pretrain`] → [`Pretrained`] →
//! [`Acme::candidate_pool`] → [`CandidatePool`] → [`Acme::select`] →
//! [`Selection`] → [`Acme::search_clusters`] → [`SearchedCluster`]s →
//! [`SearchedCluster::refine`]. Each value carries the RNG streams the
//! stages after it draw from, so a stage run from a value draws what it
//! draws inside [`Acme::run`], and one value can feed many runs.

use acme_data::{generate, partition_confusion, Dataset};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::{EdgeId, Fleet};
use acme_nas::{search_space_size, NasHeader, OpKind};
use acme_nn::ParamSet;
use acme_runtime::Pool;
use acme_tensor::SmallRng64;
use acme_vit::headers::Header;
use acme_vit::{fit, Vit};

use crate::config::AcmeConfig;
use crate::error::AcmeError;
use crate::outcome::{AcmeOutcome, BackboneAssignment};
use crate::phase1::{
    build_candidate_pool_on, cluster_objective, customize_backbone_for_cluster, CandidateModel,
};
use crate::phase2::{check_search_split, coarse_header_search};
use crate::refine::{refine_cluster, DeviceSetup, RefineConfig, RefineOutcome};

/// The pipeline runner. Construct with [`Acme::try_new`] and call
/// [`Acme::run`], or run its stages one by one.
///
/// The run executes on an [`acme_runtime::Pool`] with
/// [`AcmeConfig::threads`] workers: Phase 1 candidates, per-cluster
/// backbone selection, and the per-cluster Phase 2 searches each fan out
/// one task per independent unit. Every task draws from an RNG stream
/// forked off the root seed by stable task index, so a given seed
/// produces the identical outcome at any thread count.
#[derive(Debug, Clone)]
pub struct Acme {
    config: AcmeConfig,
}

/// Cloud pretraining's value: the public splits, the devices' pool, the
/// fleet and the trained `θ₀`, with the data stream as the two datasets
/// left it and the pipeline stream not yet drawn.
///
/// A stage reads its settings from the [`Acme`] it is called on, which
/// may differ from the one that pretrained in anything pretraining does
/// not read (the seed, dataset, reference model and its schedule, and
/// the fleet's shape).
pub struct Pretrained {
    /// The cloud's public training split.
    pub public_train: Dataset,
    /// The cloud's public validation split.
    pub public_val: Dataset,
    /// The device fleet.
    pub fleet: Fleet,
    /// The trained reference model `θ₀`.
    pub teacher: Vit,
    /// Its parameters.
    pub teacher_ps: ParamSet,
    device_pool: Dataset,
    data_rng: SmallRng64,
    pipe_rng: SmallRng64,
}

/// Phase 1's candidate pool, with the pipeline stream as importance
/// scoring left it.
pub struct CandidatePool {
    /// One distilled backbone per `(w, d)` cell, width-major.
    pub candidates: Vec<CandidateModel>,
    pipe_rng: SmallRng64,
}

/// Algorithm 1's per-cluster selection over a [`CandidatePool`].
pub struct Selection {
    /// The backbone each cluster was assigned, in cluster order.
    pub assignments: Vec<BackboneAssignment>,
    choice: Vec<usize>,
}

/// One cluster after Phase 2-1: the assigned backbone, the edge's
/// parameters holding it and the searched header, the devices' splits,
/// and the cluster's pipeline stream as the search left it.
pub struct SearchedCluster {
    edge: EdgeId,
    backbone: Vit,
    ps: ParamSet,
    header: NasHeader,
    devices: Vec<DeviceSetup>,
    pipe_rng: SmallRng64,
}

impl SearchedCluster {
    /// Phase 2-2 on this cluster ([`refine_cluster`] over the searched
    /// header), from a copy of the cluster's stream: every call, under
    /// any configuration, starts from the same state.
    ///
    /// # Errors
    ///
    /// As [`refine_cluster`].
    pub fn refine(
        &self,
        pool: &Pool,
        cfg: &RefineConfig,
        network: Option<&Network>,
    ) -> Result<RefineOutcome, AcmeError> {
        refine_cluster(
            pool,
            self.edge,
            &self.backbone,
            &self.header,
            &self.ps,
            &self.devices,
            cfg,
            network,
            &mut self.pipe_rng.clone(),
        )
    }
}

impl Acme {
    /// Wraps a configuration, validating it first.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError::InvalidConfig`] when the configuration is
    /// inconsistent (see [`AcmeConfig::validate`]).
    pub fn try_new(config: AcmeConfig) -> Result<Self, AcmeError> {
        config.validate()?;
        Ok(Acme { config })
    }

    /// Executes the full pipeline, seeding every stream from
    /// [`AcmeConfig::seed`], and returns per-cluster assignments,
    /// per-device accuracies, and the metered transfer report.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError`] when the configured dataset or partition is
    /// degenerate, a similarity metric is undefined, or Phase 1 yields
    /// no candidate to assign.
    pub fn run(&self) -> Result<AcmeOutcome, AcmeError> {
        self.run_from(&self.pretrain()?)
    }

    /// Every stage after pretraining, as [`Acme::run`] runs them, metered
    /// on one network: Phase 1, then one task per cluster for Phases 2-1
    /// and 2-2.
    ///
    /// # Errors
    ///
    /// As [`Acme::run`].
    pub fn run_from(&self, pre: &Pretrained) -> Result<AcmeOutcome, AcmeError> {
        let cfg = &self.config;
        // The payloads travel in-process: sends are only metered.
        let net = Network::new();
        let phase1 = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.phase1");
        let pool = self.candidate_pool(pre);
        let selection = self.select(pre, &pool, Some(&net))?;
        drop(phase1);
        let pool_rt = self.pool();
        let per_cluster = self.per_cluster(pre, &pool, &selection, Some(&net), |s, cluster| {
            let _span = acme_obs::span!(
                acme_obs::Detail::Phase,
                "pipeline.phase2_2",
                "cluster" => s as u64,
            );
            Ok(cluster.refine(&pool_rt, &cfg.refine, Some(&net))?.results)
        })?;
        Ok(AcmeOutcome {
            assignments: selection.assignments,
            devices: per_cluster.into_iter().flatten().collect(),
            transfers: net.ledger().report(),
            header_search_space: search_space_size(cfg.search.num_blocks, OpKind::all().len()),
        })
    }

    /// The stages' pool. `threads` also sets the kernels' process-wide
    /// budget: kernels are bit-deterministic at any thread count, and a
    /// task of a fan-out over the pool keeps its kernels within its
    /// share of the budget, so the two never multiply.
    fn pool(&self) -> Pool {
        acme_runtime::set_global_threads(self.config.threads);
        Pool::new(self.config.threads)
    }

    /// Cloud pretraining: draws the public data and the devices' pool,
    /// builds the fleet, and trains `θ₀` on the public training split.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError`] when the dataset spec is degenerate or the
    /// public split leaves no training or validation example.
    pub fn pretrain(&self) -> Result<Pretrained, AcmeError> {
        let cfg = &self.config;
        self.pool();
        let mut rng = SmallRng64::new(cfg.seed);
        let mut data_rng = rng.fork(1);
        let mut model_rng = rng.fork(2);
        let pipe_rng = rng.fork(3);

        let public = generate(&cfg.dataset, &mut data_rng)?;
        let (public_train, public_val) = public.split(0.8, &mut data_rng);
        // A thin dataset can leave Phase 1 nothing to distil on or
        // nothing to rank candidates by.
        if public_train.is_empty() || public_val.is_empty() {
            return Err(AcmeError::InvalidConfig(format!(
                "the cloud's 0.8 public split of {} examples leaves {} train and {} \
                 validation examples; use more data per class",
                public.len(),
                public_train.len(),
                public_val.len()
            )));
        }
        let device_pool = generate(&cfg.dataset, &mut data_rng)?;
        let fleet = Fleet::micro_scaled(
            cfg.clusters,
            cfg.devices_per_cluster,
            cfg.reference.exact_params(),
        );
        let mut teacher_ps = ParamSet::new();
        let teacher = Vit::new(&mut teacher_ps, &cfg.reference, &mut model_rng);
        {
            let _phase = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.pretrain");
            fit(&teacher, &mut teacher_ps, &public_train, &cfg.pretrain);
        }
        Ok(Pretrained {
            public_train,
            public_val,
            fleet,
            teacher,
            teacher_ps,
            device_pool,
            data_rng,
            pipe_rng,
        })
    }

    /// Phase 1's candidate pool: every `(w, d)` cell cut from `θ₀`,
    /// distilled and validated, one task per candidate.
    pub fn candidate_pool(&self, pre: &Pretrained) -> CandidatePool {
        let cfg = &self.config;
        let mut pipe_rng = pre.pipe_rng.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the pipeline's Phase 1 stage builds the pool"
        )]
        let candidates = build_candidate_pool_on(
            &self.pool(),
            &pre.teacher,
            &pre.teacher_ps,
            &pre.public_train,
            &pre.public_val,
            &cfg.widths,
            &cfg.depths,
            &cfg.distill,
            cfg.importance_batches,
            &mut pipe_rng,
        );
        CandidatePool {
            candidates,
            pipe_rng,
        }
    }

    /// Algorithm 1's selection, one task per cluster, falling back to the
    /// smallest candidate where nothing fits. Each cluster's attribute
    /// report and assignment are metered on `network`, in cluster order.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError::EmptyCandidatePool`] on an empty pool, and a
    /// selection error when every candidate's objectives are non-finite.
    pub fn select(
        &self,
        pre: &Pretrained,
        pool: &CandidatePool,
        network: Option<&Network>,
    ) -> Result<Selection, AcmeError> {
        let cfg = &self.config;
        let pool = &pool.candidates;
        let clusters = pre.fleet.clusters();
        let choices = self.pool().par_map((0..clusters.len()).collect(), |_, s| {
            customize_backbone_for_cluster(
                pool,
                &clusters[s],
                &cfg.energy,
                cfg.energy_epochs,
                cfg.gamma_p,
            )
        });
        let smallest = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.params)
            .map(|(i, _)| i)
            .ok_or(AcmeError::EmptyCandidatePool)?;
        let mut assignments = Vec::with_capacity(clusters.len());
        let mut choice = Vec::with_capacity(clusters.len());
        for (cluster, chosen_idx) in clusters.iter().zip(choices) {
            // A fully diverged candidate pool surfaces as a typed
            // selection error instead of panicking inside the comparator.
            let idx = chosen_idx?.unwrap_or(smallest);
            let (edge, chosen) = (cluster.edge(), &pool[idx]);
            if let Some(net) = network {
                net.meter(
                    NodeId::Edge(edge),
                    NodeId::Cloud,
                    Payload::attribute_report(cluster),
                );
                net.meter(
                    NodeId::Cloud,
                    NodeId::Edge(edge),
                    Payload::BackboneAssignment {
                        w: chosen.w,
                        d: chosen.d,
                        param_count: chosen.params,
                        measured_bytes: None,
                    },
                );
            }
            let objective = cluster_objective(chosen, cluster, &cfg.energy, cfg.energy_epochs);
            assignments.push(BackboneAssignment {
                edge,
                w: chosen.w,
                d: chosen.d,
                params: chosen.params,
                loss: chosen.loss,
                energy: objective.energy(),
            });
            choice.push(idx);
        }
        Ok(Selection {
            assignments,
            choice,
        })
    }

    /// Phase 2-1 for every cluster, one task each: partitions the
    /// devices' pool, splits each device's data, and searches each edge's
    /// header on its shared slice, metering the header's spec to every
    /// device of the cluster on `network`.
    ///
    /// # Errors
    ///
    /// Returns [`AcmeError`] when the partition is degenerate, or a
    /// device or an edge's search split is left without data.
    pub fn search_clusters(
        &self,
        pre: &Pretrained,
        pool: &CandidatePool,
        selection: &Selection,
        network: Option<&Network>,
    ) -> Result<Vec<SearchedCluster>, AcmeError> {
        self.per_cluster(pre, pool, selection, network, |_, cluster| Ok(cluster))
    }

    /// Phase 2's one fan-out: each cluster's task runs Phase 2-1 and hands
    /// the result to `then`. Results come back in cluster order, or the
    /// first cluster's error.
    fn per_cluster<R: Send>(
        &self,
        pre: &Pretrained,
        pool: &CandidatePool,
        selection: &Selection,
        network: Option<&Network>,
        then: impl Fn(usize, SearchedCluster) -> Result<R, AcmeError> + Sync,
    ) -> Result<Vec<R>, AcmeError> {
        let cfg = &self.config;
        let clusters = pre.fleet.clusters();
        // The partition is the data stream's next draw after the two
        // datasets: nothing else draws from that stream in between.
        let mut data_rng = pre.data_rng.clone();
        let mut pipe_rng = pool.pipe_rng.clone();
        let parts = partition_confusion(
            &pre.device_pool,
            pre.fleet.num_devices(),
            cfg.confusion,
            &mut data_rng,
        )?;
        let mut offsets = Vec::with_capacity(clusters.len());
        let mut acc = 0usize;
        for cluster in clusters {
            offsets.push(acc);
            acc += cluster.devices().len();
        }
        // Each task owns streams forked in cluster order *before* the
        // fan-out, so scheduling cannot perturb any stream.
        let cluster_streams: Vec<(usize, SmallRng64, SmallRng64)> = (0..clusters.len())
            .map(|s| (s, data_rng.fork(s as u64), pipe_rng.fork(s as u64)))
            .collect();
        let _phase2 = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.phase2");
        let pool_rt = self.pool();
        let tasks = pool_rt.par_map(cluster_streams, |_, (s, mut c_data_rng, mut c_pipe_rng)| {
            let cluster = &clusters[s];
            let edge = cluster.edge();
            let chosen = &pool.candidates[selection.choice[s]];
            // Device data for this cluster, plus the edge's shared
            // slice.
            let mut devices = Vec::with_capacity(cluster.devices().len());
            let mut edge_data = Dataset::default();
            for (i, dev) in cluster.devices().iter().enumerate() {
                let part = &parts[offsets[s] + i];
                let (train, test) = part.split(0.75, &mut c_data_rng);
                // Dirichlet skew or a thin pool can leave a device
                // nothing to train or test on.
                if train.is_empty() || test.is_empty() {
                    return Err(AcmeError::InvalidConfig(format!(
                        "{} of {edge} has {} train and {} test samples; \
                         use fewer devices per cluster or more data",
                        dev.id(),
                        train.len(),
                        test.len()
                    )));
                }
                let share = train.sample(
                    (cfg.edge_share * train.len() as f64).ceil() as usize,
                    &mut c_data_rng,
                );
                edge_data = if edge_data.is_empty() {
                    share
                } else {
                    edge_data.merged(&share)
                };
                devices.push(DeviceSetup {
                    device: dev.id(),
                    train,
                    test,
                });
            }
            // Phase 2-1: NAS on the edge's shared dataset, over the
            // edge's own copy of the assigned backbone.
            check_search_split(edge, &edge_data)?;
            let mut ps = chosen.ps.clone();
            let customization = {
                let _span = acme_obs::span!(
                    acme_obs::Detail::Phase,
                    "pipeline.phase2_1",
                    "cluster" => s as u64,
                );
                coarse_header_search(
                    edge,
                    &chosen.vit,
                    &mut ps,
                    &edge_data,
                    &cfg.search,
                    &mut c_pipe_rng,
                )
            };
            let header = customization.header;
            if let Some(net) = network {
                let header_params = ps.num_scalars_of(&Header::param_ids(&header)) as u64;
                for dev in cluster.devices() {
                    net.meter(
                        NodeId::Edge(edge),
                        NodeId::Device(dev.id()),
                        Payload::HeaderSpec {
                            tokens: header.arch().to_tokens(),
                            u: header.arch().u(),
                            param_count: header_params + chosen.params,
                            measured_bytes: None,
                        },
                    );
                }
            }
            let searched = SearchedCluster {
                edge,
                backbone: chosen.vit.clone(),
                ps,
                header,
                devices,
                pipe_rng: c_pipe_rng,
            };
            then(s, searched)
        });
        tasks.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_end_to_end() {
        let acme = Acme::try_new(AcmeConfig::quick()).expect("quick preset is valid");
        let outcome = acme.run().expect("quick run");
        let cfg = &acme.config;
        assert_eq!(outcome.assignments.len(), cfg.clusters);
        assert_eq!(
            outcome.devices.len(),
            cfg.clusters * cfg.devices_per_cluster
        );
        // Storage constraints hold (quick fleet storage is far above the
        // tiny models, but the invariant must not be violated).
        for a in &outcome.assignments {
            assert!(a.params > 0 && a.loss.is_finite() && a.energy > 0.0);
        }
        // Devices end above chance (6 classes -> 1/6).
        let mean = outcome.mean_accuracy();
        assert!(mean > 1.0 / 6.0, "mean accuracy {mean}");
        // The pipeline never uploads raw data.
        assert!(outcome
            .transfers
            .per_kind
            .iter()
            .all(|r| r.kind != "raw-data-upload"));
        assert!(outcome.transfers.uplink_bytes > 0);
        assert!(outcome.header_search_space > 0);
    }

    #[test]
    fn try_new_reports_invalid_config() {
        let mut cfg = AcmeConfig::quick();
        cfg.widths.clear();
        assert!(matches!(
            Acme::try_new(cfg),
            Err(AcmeError::InvalidConfig(_))
        ));
    }
}
