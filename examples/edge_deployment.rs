//! Attribute-aware model matching (Phase 1): build the backbone candidate
//! pool once on the "cloud", then match models to a heterogeneous fleet
//! with the Pareto Front Grid and compare against the greedy/random
//! matching baselines of Fig. 9 — including the metered transfer volume
//! of the full protocol (Table I's flavor).
//!
//! ```sh
//! cargo run --release --example edge_deployment
//! # with a fault-injection trace:
//! cargo run --release --example edge_deployment -- --quick --trace-out /tmp/trace.json
//! ```

use acme::{cluster_objective, Acme, AcmeConfig};
use acme_data::SyntheticSpec;
use acme_distsys::protocol::{centralized_transfers, ProtocolConfig, ProtocolRun, RetryPolicy};
use acme_distsys::{FaultPlan, NodeId};
use acme_pareto::{select_with, Candidate, EfficiencyMetrics, GridSpec, MatchingMethod};
use acme_tensor::SmallRng64;
use acme_vit::{TrainConfig, VitConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_out: Option<String> = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace-out" => {
                i += 1;
                trace_out = Some(args.get(i).expect("--trace-out needs a path").clone());
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown option '{other}' (supported: --trace-out <PATH>, --quick)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Cloud: pretrain the reference model, derive the candidate pool and
    // match it to the fleet with the pipeline's own Phase 1 stages.
    let spec = SyntheticSpec {
        classes: 10,
        per_class: if quick { 10 } else { 25 },
        ..SyntheticSpec::cifar()
    };
    let config = AcmeConfig::builder()
        .reference(VitConfig::reference(10))
        .dataset(spec.clone())
        .clusters(5)
        .devices_per_cluster(5)
        .pretrain(TrainConfig {
            epochs: if quick { 1 } else { 5 },
            ..TrainConfig::default()
        })
        .widths(if quick {
            vec![0.5, 1.0]
        } else {
            vec![0.25, 0.5, 0.75, 1.0]
        })
        .depths(if quick { vec![2, 4] } else { vec![2, 4, 6] })
        .distill(TrainConfig {
            epochs: if quick { 0 } else { 1 },
            ..TrainConfig::default()
        })
        .importance_batches(2)
        .seed(5)
        .build()
        .expect("the example's configuration is valid");
    let acme = Acme::try_new(config.clone()).expect("validated configuration");
    println!("cloud: pre-training reference backbone...");
    let pre = acme.pretrain().expect("pretraining");
    println!("cloud: building (w, d) candidate pool...");
    let pool = acme.candidate_pool(&pre);
    for c in &pool.candidates {
        println!(
            "  w={:.2} d={}: {:>6} params, val loss {:.3}, val acc {:.3}",
            c.w, c.d, c.params, c.loss, c.accuracy
        );
    }

    // Fleet matching.
    let fleet = &pre.fleet;
    let selection = acme
        .select(&pre, &pool, None)
        .expect("candidate losses are finite");
    println!("\ncluster assignments (ACME PFG selection, the smallest where nothing fits):");
    for (cluster, a) in fleet.clusters().iter().zip(&selection.assignments) {
        println!(
            "  {}: storage bound {:>9} params -> w={:.2} d={} ({} params)",
            cluster.edge(),
            cluster.min_storage(),
            a.w,
            a.d,
            a.params
        );
    }

    // Matching-method comparison on one representative cluster.
    let cluster = &fleet.clusters()[2];
    let candidates: Vec<Candidate> = pool
        .candidates
        .iter()
        .map(|c| cluster_objective(c, cluster, &config.energy, config.energy_epochs))
        .collect();
    let grid = GridSpec::from_candidates(&candidates, config.gamma_p).expect("nonempty pool");
    let mut rng = SmallRng64::new(5);
    println!(
        "\nmatching methods on {} (storage {} params):",
        cluster.edge(),
        cluster.min_storage()
    );
    for method in MatchingMethod::all() {
        let out = select_with(
            method,
            &candidates,
            &grid,
            cluster.min_storage() as f64,
            &mut rng,
        )
        .expect("candidate objectives are finite");
        match out.candidate {
            Some(c) => {
                let m = EfficiencyMetrics::for_candidate(&c, &candidates);
                println!(
                    "  {method:>15}: w={:.2} d={} | latency {:>8.1} us | energy-eff {:.4} | size-eff {:.3e} | trade-off {:.3}",
                    c.w,
                    c.d,
                    out.selection_seconds * 1e6,
                    m.energy_efficiency,
                    m.size_efficiency,
                    m.tradeoff_score
                );
            }
            None => println!("  {method:>15}: infeasible"),
        }
    }

    // Transfer volume of the full protocol vs the centralized system.
    let proto = ProtocolConfig {
        backbone_params: pool.candidates.iter().map(|c| c.params).max().unwrap_or(0),
        ..ProtocolConfig::default()
    };
    let acme_run = ProtocolRun::new(fleet)
        .config(proto.clone())
        .execute()
        .expect("protocol run");
    let image_bytes = (spec.channels * spec.size * spec.size * 4) as u64;
    let cs = centralized_transfers(fleet, 500, image_bytes, proto.backbone_params);
    println!("\ntransfer volume ({} devices):", fleet.num_devices());
    println!(
        "  ACME upload: {:.3} MB",
        acme_run.report.uplink_megabytes()
    );
    println!("  CS upload:   {:.3} MB", cs.uplink_megabytes());
    println!(
        "  ratio: {:.1}%",
        100.0 * acme_run.report.uplink_bytes as f64 / cs.uplink_bytes.max(1) as f64
    );

    // Graceful degradation: kill one device outright and drop the first
    // importance upload of another; the surviving fleet still finishes
    // every round, with the recovery overhead metered separately.
    let victim = fleet.clusters()[0].devices()[0].id();
    let faults = FaultPlan::seeded(7).kill(NodeId::Device(victim), 0).rule(
        acme_distsys::FaultRule::on(acme_distsys::FaultAction::Drop)
            .kind("importance-upload")
            .nth(1),
    );
    let faulty_cfg = ProtocolConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base: std::time::Duration::from_millis(50),
            cap: std::time::Duration::from_millis(200),
        },
        ..proto.clone()
    };
    // Record the degraded run: per-round protocol spans plus retry and
    // device-drop events end up in the drained trace.
    if trace_out.is_some() {
        acme_obs::trace::set_enabled(true);
    }
    let degraded = ProtocolRun::new(fleet)
        .config(faulty_cfg)
        .faults(faults)
        .execute()
        .expect("degraded run");
    println!("\nfault-injected run (1 dead device, 1 dropped upload):");
    println!(
        "  rounds completed by all survivors: {}",
        degraded
            .nodes
            .iter()
            .filter(|s| s.dropped_at.is_none() && matches!(s.node, NodeId::Device(_)))
            .map(|s| s.completed_rounds)
            .min()
            .unwrap_or(0)
    );
    for s in degraded.dropped_nodes() {
        println!(
            "  dropped: {} at {}",
            s.node,
            s.dropped_at.expect("dropped")
        );
    }
    // The threaded driver retries on wall-clock timeouts, so how many
    // sends it repeats depends on scheduling, not only on the faults.
    println!(
        "  retransmissions (timing-dependent, varies run to run): {} ({} bytes)",
        degraded.report.retransmissions, degraded.report.retransmitted_bytes
    );

    if let Some(path) = trace_out {
        // The kernel-side pool/pack-cache counters accumulated all run;
        // publish them into the registry before snapshotting.
        acme_tensor::publish_obs_metrics();
        let mut trace = degraded.trace.clone().unwrap_or_default();
        trace.merge(acme_obs::trace::drain());
        let json = acme_obs::export::trace_json(&trace, &acme_obs::metrics::snapshot());
        std::fs::write(&path, json).expect("write trace");
        println!("  trace written to {path}");
    }
}
