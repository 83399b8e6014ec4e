//! Extension — multi-exit / early-exit inference (the direction §V of
//! the paper motivates): accuracy vs compute saved as the confidence
//! threshold varies, on the customized backbone.
//!
//! Varies the exit threshold on the backbone Algorithm 1 assigns to a
//! five-device cluster: its exits train jointly with it on the public
//! training split and are scored on the public validation split.

use acme_bench::{assigned_backbone, cifar_spec, f3, pipeline_config, print_table, RunScale};
use acme_tensor::SmallRng64;
use acme_vit::{MultiExitVit, TrainConfig};

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 59)
        .clusters(1)
        .devices_per_cluster(5)
        .widths(vec![0.5, 1.0])
        .depths(scale.pick(vec![4, 6], vec![2, 4]))
        .build()
        .expect("the harness pipeline is valid");
    let (pre, backbone) = assigned_backbone(config);
    let (vit, mut ps) = (&backbone.vit, backbone.ps.clone());
    let depth = backbone.d;

    let exits: Vec<usize> = if depth >= 6 {
        vec![1, 3, depth - 1]
    } else {
        vec![0, depth - 1]
    };
    let me = MultiExitVit::new(&mut ps, vit, &exits, &mut SmallRng64::new(59));
    let train_cfg = TrainConfig {
        epochs: scale.pick(6, 3),
        ..TrainConfig::default()
    };
    me.fit_exits(&mut ps, vit, &pre.public_train, &train_cfg);

    let mut rows = Vec::new();
    for &threshold in &[0.5f32, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let report = me.evaluate_early_exit(&ps, vit, &pre.public_val, threshold, 32);
        let fr: Vec<String> = report
            .exit_fractions
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect();
        rows.push(vec![
            format!("{threshold:.2}"),
            f3(report.accuracy as f64),
            format!("{:.2}", report.mean_blocks),
            format!("{:.0}%", report.compute_saved() * 100.0),
            fr.join("/"),
        ]);
    }
    print_table(
        &format!(
            "Extension: early-exit inference (assigned backbone w={:.2} d={depth}, exits after blocks {exits:?})",
            backbone.w
        ),
        &[
            "threshold",
            "accuracy",
            "mean blocks",
            "compute saved",
            "exit fractions",
        ],
        &rows,
    );
    println!("\nexpected: lower thresholds save compute at a modest accuracy cost;");
    println!("threshold 1.0 recovers the full model exactly.");
}
