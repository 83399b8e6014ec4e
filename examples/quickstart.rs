//! Quickstart: run the full ACME pipeline on a small synthetic
//! federation and print what each stage produced.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acme::{Acme, AcmeConfig, AcmeError};

fn main() -> Result<(), AcmeError> {
    // Give devices enough local data for readable accuracies while
    // staying CI-fast; see `AcmeConfig::paper_scaled` for the full setup.
    let base = AcmeConfig::quick();
    let config = AcmeConfig::builder()
        .quick()
        .dataset(acme_data::SyntheticSpec {
            per_class: 60,
            ..base.dataset
        })
        .pretrain(acme_vit::TrainConfig {
            epochs: 6,
            ..base.pretrain
        })
        .refine(acme::RefineConfig {
            loop_rounds: 3,
            local_epochs: 2,
            ..base.refine
        })
        .seed(42)
        .build()?;
    println!("ACME quickstart");
    println!(
        "  fleet: {} clusters x {} devices, {} classes, non-IID level {}",
        config.clusters, config.devices_per_cluster, config.reference.classes, config.confusion
    );
    println!(
        "  phase-1 grid: widths {:?} x depths {:?}",
        config.widths, config.depths
    );

    let acme = Acme::try_new(config)?;
    let pre = acme.pretrain()?;
    println!("\nCloud pre-training of the reference model:");
    println!(
        "  {} params, accuracy {:.3} on {} public validation examples",
        pre.teacher_ps.num_scalars(),
        acme_vit::evaluate(&pre.teacher, &pre.teacher_ps, &pre.public_val, 32),
        pre.public_val.len()
    );
    let outcome = acme.run_from(&pre)?;

    println!("\nPhase 1 — backbone assignments (Algorithm 1):");
    for a in &outcome.assignments {
        println!(
            "  {:>7}: w={:.2} d={} -> {:>6} params, cloud loss {:.3}, cluster energy {:.1}",
            a.edge.to_string(),
            a.w,
            a.d,
            a.params,
            a.loss,
            a.energy
        );
    }

    println!("\nPhase 2 — per-device refinement (Algorithm 2):");
    for d in &outcome.devices {
        println!(
            "  {:>9} @ {}: accuracy {:.3} -> {:.3} ({:+.3})",
            d.device.to_string(),
            d.edge,
            d.accuracy_before,
            d.accuracy_after,
            d.improvement()
        );
    }

    println!("\nSystem cost:");
    println!(
        "  header search space per edge: {:.1}k architectures",
        outcome.header_search_space as f64 / 1e3
    );
    println!(
        "  total transfer: {:.3} MB ({} messages)",
        outcome.transfers.total_bytes as f64 / 1e6,
        outcome.transfers.messages
    );
    println!(
        "  upload volume: {:.3} MB",
        outcome.transfers.uplink_megabytes()
    );
    println!(
        "\nMean device accuracy: {:.3} (mean improvement {:+.3})",
        outcome.mean_accuracy(),
        outcome.mean_improvement()
    );
    Ok(())
}
