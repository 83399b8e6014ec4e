//! The end-to-end orchestration of all three ACME stages.

use acme_data::{generate, partition_confusion, Dataset};
use acme_distsys::{Network, NodeId, Payload};
use acme_energy::Fleet;
use acme_nas::search_space_size;
use acme_nas::OpKind;
use acme_nn::ParamSet;
use acme_runtime::Pool;
use acme_tensor::SmallRng64;
use acme_vit::{fit, Vit};

use crate::config::AcmeConfig;
use crate::error::AcmeError;
use crate::outcome::{AcmeOutcome, BackboneAssignment};
use crate::phase1::{build_candidate_pool_on, customize_backbone_for_cluster};
use crate::phase2::{check_search_split, coarse_header_search};
use crate::refine::{refine_cluster, DeviceSetup};

/// The pipeline runner. Construct with [`Acme::try_new`] and call
/// [`Acme::run`].
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

    /// The configuration.
    pub fn config(&self) -> &AcmeConfig {
        &self.config
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
        self.run_with_rng(&mut SmallRng64::new(self.config.seed))
    }

    /// [`Acme::run`] with a caller-supplied root RNG, for harnesses that
    /// thread their own stream across repetitions.
    ///
    /// # Errors
    ///
    /// Same as [`Acme::run`].
    pub fn run_with_rng(&self, rng: &mut SmallRng64) -> Result<AcmeOutcome, AcmeError> {
        let cfg = &self.config;
        let pool_rt = Pool::new(cfg.threads);
        // `--threads` also governs kernel-level parallelism: the GEMM
        // engine inside `acme-tensor` picks up its workers from the
        // process-wide pool. Kernels are bit-deterministic at any thread
        // count, so this only affects wall-clock time. The two do not
        // multiply: a phase fanned out over `pool_rt` hands each task its
        // share of the `cfg.threads` budget, and kernels (and nested
        // `par_map`s) inside the task stay within it — serial when the
        // fan-out already uses every thread, as in the stages below.
        acme_runtime::set_global_threads(cfg.threads);
        let mut data_rng = rng.fork(1);
        let mut model_rng = rng.fork(2);
        let mut pipe_rng = rng.fork(3);

        // Data: the cloud's public dataset and the devices' private pool.
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
        let parts = partition_confusion(
            &device_pool,
            fleet.num_devices(),
            cfg.confusion,
            &mut data_rng,
        )?;

        // Transfer metering fabric: the pipeline carries its payloads
        // in-process, so sends are only metered and no node needs an inbox.
        let net = Network::new();

        // Cloud pre-training of the reference model θ0.
        let mut teacher_ps = ParamSet::new();
        let teacher = Vit::new(&mut teacher_ps, &cfg.reference, &mut model_rng);
        {
            let _phase = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.pretrain");
            fit(&teacher, &mut teacher_ps, &public_train, &cfg.pretrain);
        }

        // Phase 1: candidate pool (one task per candidate) and
        // per-cluster backbone customization (one task per cluster).
        let phase1 = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.phase1");
        let pool = build_candidate_pool_on(
            &pool_rt,
            &teacher,
            &teacher_ps,
            &public_train,
            &public_val,
            &cfg.widths,
            &cfg.depths,
            &cfg.distill,
            cfg.importance_batches,
            &mut pipe_rng,
        );
        let choices = pool_rt.par_map((0..fleet.clusters().len()).collect(), |_, s| {
            customize_backbone_for_cluster(
                &pool,
                &fleet.clusters()[s],
                &cfg.energy,
                cfg.energy_epochs,
                cfg.gamma_p,
            )
        });
        // Fall back to the smallest candidate when nothing fits.
        let smallest = pool
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.params)
            .map(|(i, _)| i)
            .ok_or(AcmeError::EmptyCandidatePool)?;
        // Metered attribute/assignment exchanges stay in cluster order.
        let mut assignments = Vec::with_capacity(cfg.clusters);
        let mut cluster_choice = Vec::with_capacity(cfg.clusters);
        for (cluster, choice) in fleet.clusters().iter().zip(choices) {
            // A fully diverged candidate pool surfaces as a typed
            // selection error instead of panicking inside the comparator.
            let choice = choice?;
            let edge = cluster.edge();
            net.meter(
                NodeId::Edge(edge),
                NodeId::Cloud,
                Payload::AttributeReport {
                    device_count: cluster.devices().len(),
                    min_storage: cluster.min_storage(),
                    min_gpu: cluster.weakest_device().gpu_capacity(),
                    max_gpu: cluster
                        .devices()
                        .iter()
                        .map(|d| d.gpu_capacity())
                        .fold(f64::NEG_INFINITY, f64::max),
                },
            );
            let idx = choice.unwrap_or(smallest);
            let chosen = &pool[idx];
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
            let energy = cluster
                .devices()
                .iter()
                .map(|d| cfg.energy.energy(d, chosen.w, chosen.d, cfg.energy_epochs))
                .fold(f64::NEG_INFINITY, f64::max);
            assignments.push(BackboneAssignment {
                edge,
                w: chosen.w,
                d: chosen.d,
                params: chosen.params,
                loss: chosen.loss,
                energy,
            });
            cluster_choice.push(idx);
        }
        drop(phase1);

        // Phases 2-1 and 2-2: one task per cluster. Each task owns RNG
        // streams forked off the roots in cluster order *before* the
        // fan-out, so scheduling cannot perturb any stream.
        let mut offsets = Vec::with_capacity(fleet.clusters().len());
        let mut acc = 0usize;
        for cluster in fleet.clusters() {
            offsets.push(acc);
            acc += cluster.devices().len();
        }
        let cluster_streams: Vec<(usize, SmallRng64, SmallRng64)> = (0..fleet.clusters().len())
            .map(|s| (s, data_rng.fork(s as u64), pipe_rng.fork(s as u64)))
            .collect();
        let phase2 = acme_obs::span!(acme_obs::Detail::Phase, "pipeline.phase2");
        let per_cluster = pool_rt.par_map(
            cluster_streams,
            |_, (s, mut c_data_rng, mut c_pipe_rng)| -> Result<_, AcmeError> {
                let cluster = &fleet.clusters()[s];
                let edge = cluster.edge();
                let chosen = &pool[cluster_choice[s]];
                // Each edge works on its own copy of the assigned
                // backbone.
                let mut edge_ps = chosen.ps.clone();
                let backbone = chosen.vit.clone();
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
                // Phase 2-1: NAS on the edge's shared dataset.
                check_search_split(edge, &edge_data)?;
                let customization = {
                    let _span = acme_obs::span!(
                        acme_obs::Detail::Phase,
                        "pipeline.phase2_1",
                        "cluster" => s as u64,
                    );
                    coarse_header_search(
                        edge,
                        &backbone,
                        &mut edge_ps,
                        &edge_data,
                        &cfg.search,
                        &mut c_pipe_rng,
                    )
                };
                let header = customization.header;
                let header_params =
                    edge_ps.num_scalars_of(&acme_vit::headers::Header::param_ids(&header)) as u64;
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
                // Phase 2-2: the single-loop refinement.
                let _span = acme_obs::span!(
                    acme_obs::Detail::Phase,
                    "pipeline.phase2_2",
                    "cluster" => s as u64,
                );
                let refine = refine_cluster(
                    &pool_rt,
                    edge,
                    &backbone,
                    &header,
                    &edge_ps,
                    &devices,
                    &cfg.refine,
                    Some(&net),
                    &mut c_pipe_rng,
                )?;
                Ok(refine.results)
            },
        );
        let mut device_results = Vec::with_capacity(fleet.num_devices());
        for cluster_results in per_cluster {
            device_results.extend(cluster_results?);
        }
        drop(phase2);

        Ok(AcmeOutcome {
            assignments,
            devices: device_results,
            transfers: net.ledger().report(),
            header_search_space: search_space_size(cfg.search.num_blocks, OpKind::all().len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_end_to_end() {
        let acme = Acme::try_new(AcmeConfig::quick()).expect("quick preset is valid");
        let outcome = acme.run().expect("quick run");
        let cfg = acme.config();
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
