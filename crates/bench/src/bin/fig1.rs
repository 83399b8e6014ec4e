//! Fig. 1 — motivation: model size, fine-grained architecture, and
//! accuracy on the CIFAR-100-like workload.
//!
//! Reproduces the two observations of the paper's introduction:
//! (a) larger models do not monotonically improve accuracy but do
//! monotonically raise energy; (b) models of *similar size* but
//! different fine-grained architecture differ by several accuracy points
//! (the paper reports up to 4.9%).
//!
//! Its `(w, d)` models train from scratch, the comparison the pipeline's
//! customization is measured against: on cloud pretraining's public
//! splits, with the teacher's schedule. The pretrained `θ₀` closes (a)
//! as the reference row.

use acme::{Acme, AcmeConfig, Pretrained};
use acme_bench::{cifar_spec, f1, f3, pipeline_config, print_table, RunScale};
use acme_energy::{Device, EnergyModel};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{evaluate, fit, Vit};

/// Trains a `(w, d)` scaling of the reference model from scratch:
/// its parameter count and public validation accuracy.
fn from_scratch(
    config: &AcmeConfig,
    pre: &Pretrained,
    (w, d): (f64, usize),
    rng: &mut SmallRng64,
) -> (usize, f64) {
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &config.reference.scaled(w, d), rng);
    fit(&vit, &mut ps, &pre.public_train, &config.pretrain);
    (
        ps.num_scalars(),
        evaluate(&vit, &ps, &pre.public_val, 32) as f64,
    )
}

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 1)
        .clusters(1)
        .devices_per_cluster(1)
        .build()
        .expect("the harness pipeline is valid");
    let pre = Acme::try_new(config.clone())
        .expect("validated configuration")
        .pretrain()
        .expect("pretraining");
    let mut rng = SmallRng64::new(1);
    let energy = EnergyModel::default();
    let device = Device::new(0, 5.0, u64::MAX);

    // (a) size sweep: same aspect ratio, growing scale.
    let grid: Vec<(f64, usize)> = scale.pick(
        vec![(0.25, 2), (0.5, 3), (0.75, 4), (1.0, 5), (1.0, 6)],
        vec![(0.5, 2), (1.0, 3)],
    );
    let mut rows = Vec::new();
    for &(w, d) in &grid {
        let (params, acc) = from_scratch(&config, &pre, (w, d), &mut rng);
        rows.push(vec![
            format!("w={w:.2} d={d}"),
            params.to_string(),
            f3(acc),
            f1(energy.energy(&device, w, d, 5)),
        ]);
    }
    let depth = config.reference.depth;
    rows.push(vec![
        format!("teacher w=1.00 d={depth}"),
        pre.teacher_ps.num_scalars().to_string(),
        f3(evaluate(&pre.teacher, &pre.teacher_ps, &pre.public_val, 32) as f64),
        f1(energy.energy(&device, 1.0, depth, 5)),
    ]);
    print_table(
        "Fig. 1(a): model size vs accuracy vs energy (last row: the pipeline's teacher θ₀)",
        &["architecture", "params", "accuracy", "energy"],
        &rows,
    );

    // (b) similar-size architectures: trade width against depth at a
    // near-constant parameter budget.
    let iso: Vec<(f64, usize)> = vec![(1.0, 3), (0.75, 4), (0.5, 6)];
    let mut rows = Vec::new();
    let mut accs = Vec::new();
    for &(w, d) in &iso {
        let (params, acc) = from_scratch(&config, &pre, (w, d), &mut rng);
        accs.push(acc);
        rows.push(vec![format!("w={w:.2} d={d}"), params.to_string(), f3(acc)]);
    }
    print_table(
        "Fig. 1(b): similar size, different fine-grained architecture",
        &["architecture", "params", "accuracy"],
        &rows,
    );
    let spread = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - accs.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\naccuracy spread across similar-size architectures: {:.1} points (paper reports up to 4.9)",
        spread * 100.0
    );
}
