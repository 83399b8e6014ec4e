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

use acme::{build_candidate_pool_on, customize_backbone_for_cluster, Pool};
use acme_data::{cifar100_like, SyntheticSpec};
use acme_distsys::protocol::{centralized_transfers, ProtocolConfig, ProtocolRun, RetryPolicy};
use acme_distsys::{FaultPlan, NodeId};
use acme_energy::{EnergyModel, Fleet};
use acme_nn::ParamSet;
use acme_pareto::{select_with, Candidate, EfficiencyMetrics, GridSpec, MatchingMethod};
use acme_tensor::SmallRng64;
use acme_vit::{fit, TrainConfig, Vit, VitConfig};

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

    let mut rng = SmallRng64::new(5);
    let spec = SyntheticSpec {
        classes: 10,
        per_class: if quick { 10 } else { 25 },
        ..SyntheticSpec::cifar()
    };
    let ds = cifar100_like(&spec, &mut rng).expect("valid spec");
    let (train, val) = ds.split(0.8, &mut rng);

    // Cloud: train the reference model and derive the candidate pool.
    let cfg = VitConfig {
        classes: 10,
        ..VitConfig::reference(10)
    };
    let mut ps = ParamSet::new();
    let teacher = Vit::new(&mut ps, &cfg, &mut rng);
    println!("cloud: pre-training reference backbone...");
    fit(
        &teacher,
        &mut ps,
        &train,
        &TrainConfig {
            epochs: if quick { 1 } else { 5 },
            ..TrainConfig::default()
        },
    );
    println!("cloud: building (w, d) candidate pool...");
    let widths: &[f64] = if quick {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0]
    };
    let depths: &[usize] = if quick { &[2, 4] } else { &[2, 4, 6] };
    let pool = build_candidate_pool_on(
        &Pool::default(),
        &teacher,
        &ps,
        &train,
        &val,
        widths,
        depths,
        &TrainConfig {
            epochs: if quick { 0 } else { 1 },
            ..TrainConfig::default()
        },
        2,
        &mut rng,
    );
    for c in &pool {
        println!(
            "  w={:.2} d={}: {:>6} params, val loss {:.3}, val acc {:.3}",
            c.w, c.d, c.params, c.loss, c.accuracy
        );
    }

    // Fleet matching.
    let full_params = cfg.exact_params();
    let fleet = Fleet::micro_scaled(5, 5, full_params);
    let energy = EnergyModel::default();
    println!("\ncluster assignments (ACME PFG selection):");
    for cluster in fleet.clusters() {
        let idx = customize_backbone_for_cluster(&pool, cluster, &energy, 5, 0.15)
            .expect("candidate losses are finite");
        match idx {
            Some(i) => println!(
                "  {}: storage bound {:>9} params -> w={:.2} d={} ({} params)",
                cluster.edge(),
                cluster.min_storage(),
                pool[i].w,
                pool[i].d,
                pool[i].params
            ),
            None => println!("  {}: no feasible candidate", cluster.edge()),
        }
    }

    // Matching-method comparison on one representative cluster.
    let cluster = &fleet.clusters()[2];
    let candidates: Vec<Candidate> = pool
        .iter()
        .map(|c| {
            let e = cluster
                .devices()
                .iter()
                .map(|d| energy.energy(d, c.w, c.d, 5))
                .fold(f64::NEG_INFINITY, f64::max);
            Candidate::new(c.w, c.d, [c.loss, e, c.params as f64]).with_accuracy(c.accuracy)
        })
        .collect();
    let grid = GridSpec::from_candidates(&candidates, 0.15).expect("nonempty pool");
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
        backbone_params: pool.iter().map(|c| c.params).max().unwrap_or(0),
        ..ProtocolConfig::default()
    };
    let acme_run = ProtocolRun::new(&fleet)
        .config(proto.clone())
        .execute()
        .expect("protocol run");
    let image_bytes = (spec.channels * spec.size * spec.size * 4) as u64;
    let cs = centralized_transfers(&fleet, 500, image_bytes, proto.backbone_params)
        .expect("baseline run");
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
    let degraded = ProtocolRun::new(&fleet)
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
    println!(
        "  retransmissions: {} ({} bytes)",
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
