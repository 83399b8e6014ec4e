//! Per-layer probes of the traced pass: each times one public call into
//! one crate, in isolation, at the shape a workload runs it. A probe sits
//! with the workload whose end-to-end time its layer should move.

use std::hint::black_box;
use std::time::Instant;

use acme::{
    build_candidate_pool_on, coarse_header_search, customize_backbone_for_cluster, AcmeConfig, Pool,
};
use acme_agg::{similarity_matrix_wasserstein_on, wasserstein_1d_samples, DriftDetector};
use acme_data::{generate, Dataset, DriftingStream};
use acme_energy::EdgeId;
use acme_nn::{load_params, save_params, Adam, Optimizer, ParamSet};
use acme_serve::{BatchEngine, Batcher, BatcherConfig, ExitPolicy, Request, VariantStore};
use acme_store::{ContentHash, ModelStore, VariantDelta};
use acme_tensor::gemm::{self, MatRef};
use acme_tensor::{packcache, qgemm, randn, Graph, SmallRng64};
use acme_vit::{distill, evaluate, fit, TrainConfig, Vit, VitConfig};

use crate::report::Report;
use crate::stats::{median, time_median};
use crate::trace::{Recorder, SpanId};
use crate::workloads::customize::{Inner, THREADS};

/// Seconds per call: the median of seven samples of `iters` calls each.
fn per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    time_median(7, || (0..iters).for_each(|_| f())) / iters as f64
}

/// Pack-cache counters at one moment.
pub struct PackCounts {
    lookups: u64,
    hits: u64,
}

impl PackCounts {
    pub fn now() -> Self {
        let hits = packcache::hits() + packcache::i8_hits();
        PackCounts {
            lookups: hits + packcache::packs() + packcache::i8_packs(),
            hits,
        }
    }

    /// Reports hits over lookups since `self` was taken.
    pub fn report_ratio_since(&self, report: &mut Report) {
        let now = PackCounts::now();
        let lookups = now.lookups - self.lookups;
        if lookups > 0 {
            report.set(
                "tensor.packcache.hit_ratio",
                (now.hits - self.hits) as f64 / lookups as f64,
            );
        }
    }
}

/// Candidate pool on one thread against the traced run's two: how much of
/// Phase 1's fan-out the second core buys.
pub fn pool_par_eff(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    cfg: &AcmeConfig,
    inner: &Inner,
    two_thread_s: f64,
) {
    acme_runtime::set_global_threads(1);
    let t = Instant::now();
    rec.span("core.phase1_pool.serial", parent, 0, |_| {
        build_candidate_pool_on(
            &Pool::new(1),
            &inner.teacher,
            &inner.teacher_ps,
            &inner.public_train,
            &inner.public_val,
            &cfg.widths,
            &cfg.depths,
            &cfg.distill,
            cfg.importance_batches,
            &mut SmallRng64::new(cfg.seed),
        )
    });
    let one_thread_s = t.elapsed().as_secs_f64();
    acme_runtime::set_global_threads(THREADS);
    report.set(
        "core.phase1_pool.par_eff",
        one_thread_s / (THREADS as f64 * two_thread_s),
    );
}

/// GEMM, row-wise kernels and one training step at the reference ViT's
/// shapes, batch 32.
pub fn training_kernels(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    vit_cfg: &VitConfig,
    train: &Dataset,
) {
    let mut rng = SmallRng64::new(17);
    let pool = acme_runtime::global_pool();
    let rows = 32 * vit_cfg.num_tokens();

    rec.span("tensor.gemm_f32", parent, 0, |_| {
        let (m, k, n) = (rows, vit_cfg.dim, vit_cfg.mlp_hidden);
        let (a, b) = (randn(&[m, k], &mut rng), randn(&[k, n], &mut rng));
        let mut out = vec![0.0f32; m * n];
        let s = per_call(50, || {
            gemm::gemm(
                MatRef::row_major(a.data(), k),
                MatRef::row_major(b.data(), n),
                black_box(&mut out),
                m,
                k,
                n,
                &pool,
            )
        });
        report.set("tensor.gemm_f32.train_us", s * 1e6);

        // Far larger than anything a workload multiplies: whether two
        // threads help a GEMM at all.
        let d = 512;
        let (a, b) = (randn(&[d, d], &mut rng), randn(&[d, d], &mut rng));
        let mut out = vec![0.0f32; d * d];
        let mut timed = |threads: usize| {
            let pool = Pool::new(threads);
            per_call(3, || {
                gemm::gemm(
                    MatRef::row_major(a.data(), d),
                    MatRef::row_major(b.data(), d),
                    black_box(&mut out),
                    d,
                    d,
                    d,
                    &pool,
                )
            })
        };
        let (t1, t2) = (timed(1), timed(2));
        report.set("tensor.gemm_f32.par_eff_512", t1 / (2.0 * t2));
    });

    rec.span("tensor.rowwise", parent, 0, |_| {
        let mut g = Graph::new();
        let scores = randn(
            &[
                32 * vit_cfg.heads * vit_cfg.num_tokens(),
                vit_cfg.num_tokens(),
            ],
            &mut rng,
        );
        let tokens = randn(&[rows, vit_cfg.dim], &mut rng);
        let gamma = randn(&[vit_cfg.dim], &mut rng);
        let beta = randn(&[vit_cfg.dim], &mut rng);
        let mut timed = |op: &mut dyn FnMut(&mut Graph)| {
            let samples: Vec<f64> = (0..50)
                .map(|_| {
                    g.reset();
                    let t = Instant::now();
                    op(&mut g);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        // Binding the inputs is part of each sample; it is a copy of the
        // same size as the kernel's own output.
        let softmax = timed(&mut |g| {
            let x = g.constant(scores.clone());
            black_box(g.softmax_last(x));
        });
        let layernorm = timed(&mut |g| {
            let x = g.constant(tokens.clone());
            let (ga, be) = (g.constant(gamma.clone()), g.constant(beta.clone()));
            black_box(g.layer_norm(x, ga, be, 1e-5));
        });
        report.set("tensor.rowwise.softmax_us", softmax * 1e6);
        report.set("tensor.rowwise.layernorm_us", layernorm * 1e6);
    });

    rec.span("tensor.train_step", parent, 0, |_| {
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, vit_cfg, &mut rng);
        let batch = train.sample(32, &mut rng).as_batch();
        let mut opt = Adam::new(1e-3);
        let mut g = Graph::new();
        let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..12 {
            g.reset();
            let t0 = Instant::now();
            let logits = vit.logits(&mut g, &ps, &batch.images);
            let loss = g.cross_entropy_logits(logits, &batch.labels);
            let t1 = Instant::now();
            g.backward(loss);
            let t2 = Instant::now();
            opt.step(&mut ps, &g);
            let t3 = Instant::now();
            fwd.push((t1 - t0).as_secs_f64());
            bwd.push((t2 - t1).as_secs_f64());
            step.push((t3 - t2).as_secs_f64());
        }
        // The first two steps fill the buffer pool and the optimizer state.
        report.set("tensor.train_step.fwd_ms", median(&fwd[2..]) * 1e3);
        report.set("tensor.train_step.bwd_ms", median(&bwd[2..]) * 1e3);
        report.set("tensor.train_step.opt_ms", median(&step[2..]) * 1e3);
    });
}

/// One call into each training-side crate, on the data the traced
/// pipeline just used.
pub fn training_layers(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    cfg: &AcmeConfig,
    inner: &Inner,
) {
    let mut rng = SmallRng64::new(cfg.seed);
    let one_epoch = TrainConfig {
        epochs: 1,
        ..cfg.pretrain.clone()
    };

    let s = rec.span("vit.fit_epoch", parent, 0, |_| {
        let mut ps = inner.teacher_ps.clone();
        time_median(1, || {
            drop(fit(
                &inner.teacher,
                &mut ps,
                &inner.public_train,
                &one_epoch,
            ))
        })
    });
    report.set("vit.fit_epoch_s", s);

    let s = rec.span("vit.distill_epoch", parent, 0, |_| {
        let mut ps = ParamSet::new();
        let student = Vit::new(&mut ps, &cfg.reference.scaled(0.5, 4), &mut rng);
        let mut one = cfg.distill.clone();
        one.epochs = 1;
        time_median(1, || {
            drop(distill(
                &inner.teacher,
                &inner.teacher_ps,
                &student,
                &mut ps,
                &inner.public_train,
                &one,
            ))
        })
    });
    report.set("vit.distill_epoch_s", s);

    let s = rec.span("vit.evaluate", parent, 0, |_| {
        time_median(5, || {
            black_box(evaluate(
                &inner.teacher,
                &inner.teacher_ps,
                &inner.public_val,
                cfg.pretrain.batch_size,
            ));
        })
    });
    report.set("vit.evaluate_ms", s * 1e3);

    rec.span("nas.search", parent, 0, |_| {
        let candidate = &inner.pool[0];
        let mut ps = candidate.ps.clone();
        let t = Instant::now();
        let found = coarse_header_search(
            EdgeId(0),
            &candidate.vit,
            &mut ps,
            &inner.edge_data,
            &cfg.search,
            &mut rng,
        );
        report.set("nas.search_s", t.elapsed().as_secs_f64());
        report.set("nas.evaluations", found.evaluations as f64);
    });

    rec.span("agg.similarity", parent, 0, |_| {
        let candidate = &inner.pool[0];
        let feats: Vec<_> = inner
            .devices
            .iter()
            .map(|d| {
                acme::backbone_features(
                    &candidate.vit,
                    &candidate.ps,
                    &d.train,
                    cfg.refine.sim_sample,
                    &mut rng,
                )
            })
            .collect();
        let pool = Pool::new(THREADS);
        let s = per_call(3, || {
            black_box(
                similarity_matrix_wasserstein_on(
                    &pool,
                    &feats,
                    cfg.refine.sim_projections,
                    &mut rng,
                )
                .expect("feature clouds are valid"),
            );
        });
        report.set("agg.similarity_matrix_ms", s * 1e3);
        let (xs, ys) = (randn(&[256], &mut rng), randn(&[256], &mut rng));
        let s = per_call(200, || {
            black_box(wasserstein_1d_samples(xs.data(), ys.data()).expect("non-empty samples"));
        });
        report.set("agg.wasserstein_1d_us", s * 1e6);
    });

    let s = rec.span("pareto.select", parent, 0, |_| {
        per_call(50, || {
            black_box(
                customize_backbone_for_cluster(
                    &inner.pool,
                    &inner.fleet.clusters()[0],
                    &cfg.energy,
                    cfg.energy_epochs,
                    cfg.gamma_p,
                )
                .expect("a finite candidate exists"),
            );
        })
    });
    report.set("pareto.select_us", s * 1e6);

    let s = rec.span("data.generate", parent, 0, |_| {
        time_median(3, || {
            drop(generate(&cfg.dataset, &mut rng).expect("valid dataset spec"))
        })
    });
    report.set("data.generate_ms", s * 1e3);
}

/// Fork/join cost of the pool itself: 64 tasks that do nothing.
pub fn runtime(report: &mut Report, rec: &Recorder, parent: Option<SpanId>) {
    let s = rec.span("runtime.par_map_empty", parent, 0, |_| {
        let pool = Pool::new(THREADS);
        per_call(20, || {
            black_box(pool.par_map((0..64usize).collect(), |_, i| i));
        })
    });
    report.set("runtime.par_map_empty_us", s * 1e6);
}

/// Drift-stream generation and the detector, per call.
pub fn drift(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    stream: &DriftingStream,
    detector: &acme_agg::DriftDetectorConfig,
    window_samples: usize,
) {
    rec.span("data.drift_window", parent, 0, |_| {
        let mut t = 0;
        let s = per_call(20, || {
            t += 1;
            black_box(stream.window(0, t % 16, window_samples));
        });
        report.set("data.drift_window_us", s * 1e6);
    });
    rec.span("agg.drift.observe", parent, 0, |_| {
        let mut det = DriftDetector::new(*detector).expect("valid detector settings");
        let mut rng = SmallRng64::new(3);
        let xs = randn(&[4096], &mut rng);
        let mut i = 0;
        let s = per_call(4096, || {
            black_box(det.observe(xs.data()[i % 4096]));
            i += 1;
        });
        report.set("agg.drift.observe_us", s * 1e6);
    });
}

/// The serving backbone's GEMMs and weight packing, at one row of tokens
/// (2 x 384 x 1536) and a full batch (64 x 384 x 1536).
pub fn serving_kernels(report: &mut Report, rec: &Recorder, parent: Option<SpanId>, int8: bool) {
    rec.span("tensor.gemm_serve", parent, 0, |_| {
        let mut rng = SmallRng64::new(17);
        let pool = acme_runtime::global_pool();
        let (k, n) = (384, 1536);
        let b = randn(&[k, n], &mut rng);
        let b_ref = || MatRef::row_major(b.data(), n);
        if int8 {
            let pb = qgemm::pack_b_i8(b_ref(), k, n);
            for (m, metric) in [
                (2, "tensor.gemm_i8.serve_b1_us"),
                (64, "tensor.gemm_i8.serve_b32_us"),
            ] {
                let a = randn(&[m, k], &mut rng);
                let mut out = vec![0.0f32; m * n];
                let s = per_call(20, || {
                    qgemm::gemm_i8_dequant(a.data(), &pb, black_box(&mut out), m, &pool)
                });
                report.set(metric, s * 1e6);
            }
            let s = per_call(3, || drop(black_box(qgemm::pack_b_i8(b_ref(), k, n))));
            report.set("tensor.pack_b_i8_us", s * 1e6);
        } else {
            let pb = gemm::pack_b(b_ref(), k, n);
            for (m, metric) in [
                (2, "tensor.gemm_f32.serve_b1_us"),
                (64, "tensor.gemm_f32.serve_b32_us"),
            ] {
                let a = randn(&[m, k], &mut rng);
                let mut out = vec![0.0f32; m * n];
                let s = per_call(20, || {
                    gemm::gemm_prepacked(
                        MatRef::row_major(a.data(), k),
                        &pb,
                        black_box(&mut out),
                        m,
                        &pool,
                    )
                });
                report.set(metric, s * 1e6);
            }
            let s = per_call(3, || drop(black_box(gemm::pack_b(b_ref(), k, n))));
            report.set("tensor.pack_b_f32_us", s * 1e6);
        }
    });
}

/// The engine alone (no batcher, no queue) at three batch sizes, and the
/// batcher alone. The engine runs every row to the last exit: with early
/// exits on, a batch of one costs half or all of that depending on its
/// one row.
pub fn serving_layers(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    store: &VariantStore,
    batcher: BatcherConfig,
    sample: &[Request],
) {
    rec.span("serve.engine", parent, 0, |_| {
        let engine = BatchEngine::new(store, ExitPolicy::never());
        let mut g = Graph::new();
        // One variant, as a coalesced batch is.
        let rows: Vec<Request> = sample
            .iter()
            .cycle()
            .take(32)
            .map(|r| Request {
                device: 0,
                ..r.clone()
            })
            .collect();
        for (b, metric) in [
            (1, "serve.engine.b1_ms"),
            (8, "serve.engine.b8_ms"),
            (32, "serve.engine.b32_ms"),
        ] {
            let s = per_call(3, || {
                drop(black_box(engine.serve_batch(&mut g, &rows[..b])))
            });
            report.set(metric, s * 1e3);
        }
    });
    rec.span("serve.batcher", parent, 0, |_| {
        let queue = Batcher::new(BatcherConfig {
            window: std::time::Duration::ZERO,
            ..batcher
        });
        let s = per_call(200, || {
            queue.push(sample[0].clone());
            black_box(queue.pop_batch());
        });
        report.set("serve.batcher.push_pop_us", s * 1e6);
    });
}

/// Checkpoint and delta codecs and the blob store, on one cluster's
/// backbone and one device's variant. `blobs` is the directory-backed
/// store holding that backbone at `backbone_hash`.
pub fn store_layers(
    report: &mut Report,
    rec: &Recorder,
    parent: Option<SpanId>,
    store: &VariantStore,
    blobs: &ModelStore,
    backbone_hash: ContentHash,
) {
    let backbone = &store.clusters()[0].params;
    rec.span("nn.checkpoint", parent, 0, |_| {
        let mut bytes = Vec::new();
        let save = per_call(1, || bytes = save_params(backbone));
        let load = per_call(1, || {
            drop(black_box(
                load_params(&bytes).expect("checkpoint reads back"),
            ))
        });
        report.set("nn.checkpoint.save_ms", save * 1e3);
        report.set("nn.checkpoint.load_ms", load * 1e3);
        report.set("nn.checkpoint.bytes", bytes.len() as f64);
    });
    rec.span("store.delta", parent, 0, |_| {
        let variant = store.device(0);
        let encode =
            || VariantDelta::encode(backbone, backbone_hash, &variant.classes, &variant.params);
        let delta = encode();
        let s = per_call(20, || drop(black_box(encode())));
        report.set("store.delta_encode_us", s * 1e6);
        let s = per_call(20, || {
            drop(black_box(
                delta.apply(backbone).expect("delta fits its backbone"),
            ))
        });
        report.set("store.delta_apply_us", s * 1e6);
    });
    rec.span("store.blob_get", parent, 0, |_| {
        let mb = blobs.blob_bytes(backbone_hash).expect("backbone blob") as f64 / 1e6;
        let s = per_call(1, || {
            drop(black_box(blobs.get(backbone_hash).expect("backbone blob")))
        });
        report.set("store.blob_get_mb_per_s", mb / s);
    });
}
