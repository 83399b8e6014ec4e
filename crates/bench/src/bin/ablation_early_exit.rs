//! Extension — multi-exit / early-exit inference (the direction §V of
//! the paper motivates): accuracy vs compute saved as the confidence
//! threshold varies, on the customized backbone.

use acme_bench::{eval_cifar, f3, print_table, RunScale};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{fit, MultiExitVit, TrainConfig, Vit, VitConfig};

fn main() {
    let scale = RunScale::from_args();
    let mut rng = SmallRng64::new(59);
    let ds = eval_cifar(scale, &mut rng);
    let (train, test) = ds.split(0.8, &mut rng);
    let classes = ds.num_classes();

    let depth = scale.pick(6, 2);
    let cfg = VitConfig {
        depth,
        ..VitConfig::reference(classes)
    };
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &cfg, &mut rng);
    let train_cfg = TrainConfig {
        epochs: scale.pick(6, 3),
        ..TrainConfig::default()
    };
    fit(&vit, &mut ps, &train, &train_cfg);

    let exits: Vec<usize> = if depth >= 6 {
        vec![1, 3, depth - 1]
    } else {
        vec![0, depth - 1]
    };
    let me = MultiExitVit::new(&mut ps, &vit, &exits, &mut rng);
    me.fit_exits(&mut ps, &vit, &train, &train_cfg);

    let mut rows = Vec::new();
    for &threshold in &[0.5f32, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let report = me.evaluate_early_exit(&ps, &vit, &test, threshold, 32);
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
        &format!("Extension: early-exit inference (exits after blocks {exits:?})"),
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
