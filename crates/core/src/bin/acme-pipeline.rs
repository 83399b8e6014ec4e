//! Command-line runner for the full ACME pipeline.
//!
//! ```sh
//! cargo run -p acme --release --bin acme-pipeline -- \
//!     --clusters 4 --devices 5 --confusion c2 --loops 3 --seed 7
//! ```

use acme::{Acme, AcmeConfig};
use acme_data::ConfusionLevel;

const USAGE: &str = "\
acme-pipeline — run the ACME customization pipeline on a synthetic federation

USAGE:
    acme-pipeline [OPTIONS]

OPTIONS:
    --paper               paper-scaled configuration (20 classes, 10x5 fleet; minutes)
    --clusters <N>        number of edge clusters           [default: preset]
    --devices <N>         devices per cluster               [default: preset]
    --confusion <LEVEL>   iid | c1 | c2 | c3                [default: c1]
    --loops <T>           Algorithm 2 single-loop rounds    [default: preset]
    --seed <S>            root RNG seed                     [default: 7]
    --threads <N>         worker threads (1 = serial)       [default: all cores]
    --trace-out <PATH>    write an acme-obs-trace-v1 JSON document
                          (pipeline phase spans, metrics registry and
                          per-phase totals)
    --chrome-out <PATH>   also write chrome://tracing trace-event JSON
    --help                print this help
";

/// Everything the CLI parses: the pipeline configuration plus the
/// observability output paths.
struct CliOptions {
    config: AcmeConfig,
    trace_out: Option<String>,
    chrome_out: Option<String>,
}

fn parse_args() -> Result<CliOptions, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = if args.iter().any(|a| a == "--paper") {
        AcmeConfig::paper_scaled()
    } else {
        AcmeConfig::quick()
    };
    config.seed = 7;
    let mut trace_out = None;
    let mut chrome_out = None;
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--paper" => {}
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--clusters" => {
                config.clusters = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--clusters: {e}"))?;
            }
            "--devices" => {
                config.devices_per_cluster = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--devices: {e}"))?;
            }
            "--loops" => {
                config.refine.loop_rounds = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--loops: {e}"))?;
            }
            "--seed" => {
                config.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                config.threads = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--trace-out" => {
                trace_out = Some(take_value(&mut i)?);
            }
            "--chrome-out" => {
                chrome_out = Some(take_value(&mut i)?);
            }
            "--confusion" => {
                config.confusion = match take_value(&mut i)?.to_lowercase().as_str() {
                    "iid" => ConfusionLevel::Iid,
                    "c1" => ConfusionLevel::C1,
                    "c2" => ConfusionLevel::C2,
                    "c3" => ConfusionLevel::C3,
                    other => return Err(format!("unknown confusion level '{other}'")),
                };
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
        i += 1;
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(CliOptions {
        config,
        trace_out,
        chrome_out,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let config = opts.config;
    let tracing = opts.trace_out.is_some() || opts.chrome_out.is_some();
    if tracing {
        acme_obs::trace::set_enabled(true);
    }
    println!(
        "running ACME: {} clusters x {} devices, {} classes, confusion {}, T={}, seed {}, {} threads",
        config.clusters,
        config.devices_per_cluster,
        config.reference.classes,
        config.confusion,
        config.refine.loop_rounds,
        config.seed,
        config.threads
    );
    let acme = Acme::try_new(config).expect("configuration already validated");
    let outcome = match acme.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!("\nbackbone assignments:");
    for a in &outcome.assignments {
        println!(
            "  {}: w={:.2} d={} ({} params, loss {:.3}, energy {:.1})",
            a.edge, a.w, a.d, a.params, a.loss, a.energy
        );
    }
    println!("\ndevices:");
    for d in &outcome.devices {
        println!(
            "  {} @ {}: {:.3} -> {:.3} ({:+.3})",
            d.device,
            d.edge,
            d.accuracy_before,
            d.accuracy_after,
            d.improvement()
        );
    }
    println!(
        "\ntransfers: {} messages, {:.3} MB total, {:.3} MB uplink",
        outcome.transfers.messages,
        outcome.transfers.total_bytes as f64 / 1e6,
        outcome.transfers.uplink_megabytes()
    );
    println!(
        "mean accuracy {:.3} (improvement {:+.3}); header search space {:.1}k",
        outcome.mean_accuracy(),
        outcome.mean_improvement(),
        outcome.header_search_space as f64 / 1e3
    );

    if tracing {
        // Publish the kernel-side pool/pack-cache counters into the
        // registry so the exported snapshot is complete.
        acme_tensor::publish_obs_metrics();
        let trace = acme_obs::trace::drain();
        let metrics = acme_obs::metrics::snapshot();
        let write = |path: &str, doc: String, what: &str| {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("error: failed to write {what} to {path}: {e}");
                std::process::exit(1);
            }
            println!("{what} written to {path}");
        };
        if let Some(path) = &opts.trace_out {
            write(
                path,
                acme_obs::export::trace_json(&trace, &metrics),
                "trace",
            );
        }
        if let Some(path) = &opts.chrome_out {
            write(path, acme_obs::export::chrome_json(&trace), "chrome trace");
        }
    }
}
