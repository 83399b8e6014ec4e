//! What the benchmark measures: its workloads and metrics, by name, with
//! unit, direction and bound. `BENCHMARK.json` is this table printed by
//! the `manifest` subcommand; a test keeps the two in step.

use crate::json::Json;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "customize",
        why: "Cold-start Acme::run on a 2x3 fleet: full forward+backward at small GEMM shapes, NAS, aggregation, Pareto, pool fork/join. No serving, no simulator.",
    },
    Workload {
        name: "recustomize",
        why: "Drift loop on 16 fleets of 8 devices: frozen backbone, header-only refits, so forward passes dominate instead of backprop; drift streams, detector, delta encode.",
    },
    Workload {
        name: "fleet_sim",
        why: "Protocol at 100k simulated devices with 1% loss: node state machines, event heap, ledger, fault plan, run-checkpoint codec. Zero tensor work; kernel changes must leave it flat.",
    },
    Workload {
        name: "serve_steady",
        why: "16 hot f32 variants, Zipf 1.0: firehose throughput, and (traced) an open loop at 500 rps between unbatched and batched capacity, where coalescing sets latency; large-k f32 GEMM.",
    },
    Workload {
        name: "serve_churn",
        why: "512 int8 variants restored lazily from disk and served cold, uniform draw: first touch, cold pack, hot swaps; (traced) open loop at 150 rps with mean batch 1, where batching changes must not show.",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end metrics only: share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher: false,
        bound,
        what,
    }
}

/// Every workload reports every one of these, with tracing off. The
/// bounds are what the shared two-core sandbox allows: over four sets of
/// ten runs of one commit, the quartile distance over the median reached
/// 20 % on `job_s` and 8.5 % on `peak_rss_mb` (README "End-to-end
/// metrics").
pub const END_TO_END: &[Metric] = &[
    e2e(
        "job_s",
        "s",
        0.25,
        "wall time of the workload's fixed job, median over repetitions: Acme::run / run_recustomization over 16 fleets / one 100k-device simulation / a firehose of 3000 (steady) or 1500 (churn) requests queued at once",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        0.20,
        "VmHWM of the workload's process at exit",
    ),
    e2e(
        "setup_s",
        "s",
        0.25,
        "everything before the timed region (store/fleet/trace generation, calibration, warm-up), median of three set-ups",
    ),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
        what,
    }
}

/// Reported by the traced pass. A workload that does not run a layer
/// reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    // acme (crates/core)
    layer("core.data_s", "s", false, "generate + split + partition the datasets Acme::run trains on"),
    layer("core.pretrain_s", "s", false, "acme_vit::fit on the reference model"),
    layer("core.phase1_pool_s", "s", false, "build_candidate_pool_on: prune + distil every (w, d) candidate"),
    layer("core.phase1_select_s", "s", false, "customize_backbone_for_cluster over all clusters"),
    layer("core.phase2_1_s", "s", false, "coarse_header_search, slowest cluster"),
    layer("core.phase2_2_s", "s", false, "refine_cluster, slowest cluster"),
    layer("core.phase1_pool.par_eff", "ratio", true, "candidate pool on 1 thread / (2 x on 2 threads)"),
    layer("core.accuracy", "fraction", true, "mean device accuracy after (re-)customization; exact for a seed"),
    layer("core.recustomize.per_drifted_device_ms", "ms", false, "run_recustomization wall / devices that drifted"),
    layer("core.recustomize.drifted_devices", "count", true, "devices whose detector fired; exact for a seed"),
    // acme-tensor
    layer("tensor.gemm_f32.train_us", "us", false, "gemm 544x32x64, the training-step shape"),
    layer("tensor.train_step.fwd_ms", "ms", false, "reference ViT batch-32 forward through Graph"),
    layer("tensor.train_step.bwd_ms", "ms", false, "its backward"),
    layer("tensor.train_step.opt_ms", "ms", false, "its optimizer step"),
    layer("tensor.rowwise.softmax_us", "us", false, "softmax over 2176x17 attention rows"),
    layer("tensor.rowwise.layernorm_us", "us", false, "layer norm over 544x32 token rows"),
    layer("tensor.pool.misses", "count", false, "buffer-pool misses during the timed job"),
    layer("tensor.gemm_f32.serve_b1_us", "us", false, "f32 gemm 2x384x1536 (one request)"),
    layer("tensor.gemm_f32.serve_b32_us", "us", false, "f32 gemm 64x384x1536 (full batch)"),
    layer("tensor.gemm_i8.serve_b1_us", "us", false, "int8 gemm_i8_dequant 2x384x1536"),
    layer("tensor.gemm_i8.serve_b32_us", "us", false, "int8 gemm_i8_dequant 64x384x1536"),
    layer("tensor.pack_b_f32_us", "us", false, "pack a 384x1536 f32 weight"),
    layer("tensor.pack_b_i8_us", "us", false, "quantize + pack a 384x1536 weight to int8"),
    layer("tensor.packcache.hit_ratio", "ratio", true, "pack-cache hits / lookups during the timed job"),
    layer("tensor.gemm_f32.par_eff_512", "ratio", true, "512^3 gemm on 1 thread / (2 x on 2 threads); no workload runs one this large"),
    // acme-nn
    layer("nn.checkpoint.save_ms", "ms", false, "save_params on one serving backbone"),
    layer("nn.checkpoint.load_ms", "ms", false, "load_params of the same bytes"),
    layer("nn.checkpoint.bytes", "bytes", false, "size of that checkpoint"),
    // acme-vit, acme-nas, acme-agg, acme-data, acme-pareto, acme-energy, acme-runtime
    layer("vit.fit_epoch_s", "s", false, "one epoch of fit on the reference model"),
    layer("vit.distill_epoch_s", "s", false, "one epoch of distill into a (0.5, 4) student"),
    layer("vit.evaluate_ms", "ms", false, "evaluate on the public validation split"),
    layer("nas.search_s", "s", false, "one coarse_header_search on an edge-sized dataset"),
    layer("nas.evaluations", "count", false, "architectures that search evaluated"),
    layer("agg.similarity_matrix_ms", "ms", false, "wasserstein_similarity_matrix over 3 devices' features"),
    layer("agg.wasserstein_1d_us", "us", false, "wasserstein_1d on two 256-sample sets"),
    layer("agg.drift.observe_us", "us", false, "DriftDetector::observe, per observation"),
    layer("data.drift_window_us", "us", false, "DriftingStream::window of 32 samples"),
    layer("data.generate_ms", "ms", false, "generate the workload's synthetic dataset"),
    layer("pareto.select_us", "us", false, "customize_backbone_for_cluster on a 6-candidate pool"),
    layer("energy.fleet_build_ms", "ms", false, "Fleet::paper_default(100, 1000)"),
    layer("runtime.par_map_empty_us", "us", false, "par_map of 64 no-op tasks on 2 threads"),
    // acme-distsys
    layer("distsys.sim.wall_s", "s", false, "one 100k-device simulation"),
    layer("distsys.sim.events_per_s", "1/s", true, "events / wall at 100k devices"),
    layer("distsys.sim.events", "count", false, "events processed; exact for a seed"),
    layer("distsys.sim.messages", "count", false, "messages delivered; exact for a seed"),
    layer("distsys.sim.retransmissions", "count", false, "retransmitted messages; exact for a seed"),
    layer("distsys.sim.dropped_nodes", "count", false, "nodes the injected loss dropped; exact for a seed"),
    layer("distsys.sim.virtual_s", "s", false, "simulated time to finish the schedule; exact for a seed"),
    layer("distsys.sim.scale_ratio", "ratio", false, "events/s at 10k devices / events/s at 100k"),
    layer("distsys.sim.rss_per_device_b", "bytes", false, "peak RSS growth of the 100k run / devices"),
    layer("distsys.ledger.total_bytes", "bytes", false, "bytes on the wire (Table I); exact for a seed"),
    layer("distsys.ledger.bytes.attribute-report", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.backbone-assignment", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.header-spec", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.importance-upload", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.personalized-importance", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.recustomize-delta", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.ledger.bytes.ack", "bytes", false, "ledger bytes of this payload kind"),
    layer("distsys.persist.encode_ms", "ms", false, "RunCheckpoint::to_bytes at 10k devices"),
    layer("distsys.persist.decode_ms", "ms", false, "RunCheckpoint::from_bytes of the same"),
    layer("distsys.persist.bytes", "bytes", false, "size of that checkpoint"),
    // acme-serve
    layer("serve.engine.b1_ms", "ms", false, "BatchEngine::serve_batch, 1 row run to the last exit, at the workload's precision"),
    layer("serve.engine.b8_ms", "ms", false, "serve_batch, 8 rows"),
    layer("serve.engine.b32_ms", "ms", false, "serve_batch, 32 rows"),
    layer("serve.batcher.push_pop_us", "us", false, "Batcher push + pop_batch of one request"),
    layer("serve.mean_batch", "count", true, "rows per dispatched batch in the open loop"),
    layer("serve.batches", "count", false, "batches dispatched in the open loop"),
    layer("serve.early_exit_frac", "fraction", true, "requests answered at a non-final exit"),
    layer("serve.open_loop.p50_ms", "ms", false, "open-loop latency from the due time at the workload's rate, median"),
    layer("serve.open_loop.p95_ms", "ms", false, "its 95th percentile"),
    layer("serve.open_loop.p99_ms", "ms", false, "its 99th; set by scheduler stalls on a shared host and by the cold start on churn"),
    layer("serve.queue_wait_p50_ms", "ms", false, "estimate: open-loop p50 minus engine time at the observed mean batch"),
    layer("serve.gen_late_max_ms", "ms", false, "latest the generator pushed a request after its due time"),
    layer("serve.capacity_rps", "1/s", true, "firehose requests / job_s"),
    layer("serve.ladder.p95_ms_at_0.5x", "ms", false, "open-loop p95 at half the workload's rate"),
    layer("serve.ladder.p95_ms_at_1x", "ms", false, "open-loop p95 at the workload's rate"),
    layer("serve.ladder.p95_ms_at_1.5x", "ms", false, "open-loop p95 at 1.5 times the workload's rate"),
    layer("serve.slo_rate_rps", "1/s", true, "highest rung with 95% of requests under the limit (150 ms f32, 30 ms int8) and no growing backlog"),
    layer("serve.first_touch_ms", "ms", false, "first request to a lazily restored variant"),
    layer("serve.hot_swap_ms", "ms", false, "VariantStore::hot_swap, median"),
    layer("serve.calibrate_ms", "ms", false, "ExitPolicy::calibrated on 96 probe requests"),
    // acme-store
    layer("store.persist_s", "s", false, "VariantStore::persist_on to a directory"),
    layer("store.from_store_s", "s", false, "ModelStore::open + VariantStore::from_store (lazy slots)"),
    layer("store.materialize_all_ms", "ms", false, "materialize every lazy slot"),
    layer("store.restore_s", "s", false, "open + from_store + materialize_all, median"),
    layer("store.delta_encode_us", "us", false, "VariantDelta::encode of one variant"),
    layer("store.delta_apply_us", "us", false, "VariantDelta::apply onto its backbone"),
    layer("store.blob_get_mb_per_s", "MB/s", true, "ModelStore::get of a backbone blob, digest check included"),
    layer("store.bytes_total", "bytes", false, "bytes the persisted fleet occupies"),
    // the benchmark itself
    layer("bench.trace_overhead_frac", "fraction", false, "(traced job - untraced job) / untraced job"),
    layer("bench.trace_coverage_frac", "fraction", true, "share of the traced job's root span covered by child spans"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn better(m: &Metric) -> Json {
    Json::str(if m.higher { "higher" } else { "lower" })
}

/// The metric tables of `README.md`, as markdown.
pub fn describe() -> String {
    let mut out = String::from(
        "### End-to-end\n\n| name | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let better = if m.higher { "higher" } else { "lower" };
        out += &format!(
            "| `{}` | {} | {better} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.bound * 100.0,
            m.what
        );
    }
    out += "\n### Per layer\n\n| name | unit | better | what |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        let better = if m.higher { "higher" } else { "lower" };
        out += &format!("| `{}` | {} | {better} | {} |\n", m.name, m.unit, m.what);
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmarks/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmarks")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `benchmarks/run.sh manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn readme_carries_the_metric_tables_and_names_every_workload() {
        let readme = include_str!("../README.md");
        for line in describe().lines().filter(|l| l.starts_with("| `")) {
            assert!(
                readme.contains(line),
                "README.md lacks the row {line:?}; see `run.sh describe`"
            );
        }
        for w in WORKLOADS {
            assert!(
                readme.contains(&format!("| `{}` |", w.name)),
                "README.md lacks {}",
                w.name
            );
        }
    }

    #[test]
    fn table_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
