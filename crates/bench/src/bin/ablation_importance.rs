//! Ablation — Taylor importance (Eqs. 6–8) vs magnitude vs random
//! selection for width pruning: accuracy of the pruned model *before*
//! any distillation recovers it.
//!
//! Varies Phase 1's importance criterion on the pipeline's pretrained
//! teacher `θ₀`: scored on the public training split, each cut scored on
//! the public validation split.

use acme::Acme;
use acme_bench::{cifar_spec, f3, pipeline_config, print_table, RunScale};
use acme_nn::ParamSet;
use acme_tensor::SmallRng64;
use acme_vit::{evaluate, score_importance, sub_network, ImportanceScores, Vit};

/// Magnitude scores: per head, the squared norm of its value-projection
/// columns; per neuron, the squared norm of its fc1 column.
#[allow(clippy::needless_range_loop)]
fn magnitude_scores(vit: &Vit, ps: &ParamSet) -> ImportanceScores {
    let cfg = vit.config();
    let mut heads = Vec::with_capacity(cfg.depth);
    let mut neurons = Vec::with_capacity(cfg.depth);
    for blk in vit.blocks() {
        let wv = ps.value(blk.attention().projections()[2].param_ids()[0]);
        let cols = wv.shape()[1];
        let rows = wv.shape()[0];
        let dh = cfg.head_dim;
        let mut h = vec![0.0f32; cfg.heads];
        for r in 0..rows {
            for c in 0..cols {
                let v = wv.data()[r * cols + c];
                h[c / dh] += v * v;
            }
        }
        heads.push(h);
        let w1 = ps.value(blk.mlp().fc1().param_ids()[0]);
        let hid = w1.shape()[1];
        let mut n = vec![0.0f32; hid];
        for r in 0..w1.shape()[0] {
            for c in 0..hid {
                let v = w1.data()[r * hid + c];
                n[c] += v * v;
            }
        }
        neurons.push(n);
    }
    ImportanceScores { heads, neurons }
}

fn random_scores(vit: &Vit, rng: &mut SmallRng64) -> ImportanceScores {
    let cfg = vit.config();
    let heads = (0..cfg.depth)
        .map(|_| {
            (0..cfg.heads)
                .map(|_| ((rng.next_u64() >> 32) as f32) / u32::MAX as f32)
                .collect()
        })
        .collect();
    let neurons = (0..cfg.depth)
        .map(|_| {
            (0..cfg.mlp_hidden)
                .map(|_| ((rng.next_u64() >> 32) as f32) / u32::MAX as f32)
                .collect()
        })
        .collect();
    ImportanceScores { heads, neurons }
}

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cifar_spec(scale), 41)
        .clusters(1)
        .devices_per_cluster(1)
        .build()
        .expect("the harness pipeline is valid");
    let pre = Acme::try_new(config)
        .expect("validated configuration")
        .pretrain()
        .expect("pretraining");
    let (vit, ps, test) = (&pre.teacher, &pre.teacher_ps, &pre.public_val);
    let depth = vit.config().depth;
    let mut rng = SmallRng64::new(41);
    let dense_acc = evaluate(vit, ps, test, 32) as f64;

    let widths: Vec<f64> = scale.pick(vec![0.25, 0.5, 0.75], vec![0.5]);
    let taylor = score_importance(vit, ps, &pre.public_train, scale.pick(4, 2), 32, &mut rng);
    let magnitude = magnitude_scores(vit, ps);
    let mut rows = Vec::new();
    let mut seeds = rng.fork(9);
    for &w in &widths {
        let mut row = vec![format!("w={w:.2}")];
        for scores in [&taylor, &magnitude] {
            let (pvit, pps) = sub_network(vit, ps, scores, w, depth);
            row.push(f3(evaluate(&pvit, &pps, test, 32) as f64));
        }
        // Random: average over a few draws.
        let mut acc = 0.0;
        let draws = scale.pick(3, 2);
        for _ in 0..draws {
            let scores = random_scores(vit, &mut seeds);
            let (pvit, pps) = sub_network(vit, ps, &scores, w, depth);
            acc += evaluate(&pvit, &pps, test, 32) as f64;
        }
        row.push(f3(acc / draws as f64));
        rows.push(row);
    }
    print_table(
        &format!(
            "Ablation: width-pruning criterion (dense accuracy {})",
            f3(dense_acc)
        ),
        &["width", "Taylor (Eq. 8)", "magnitude", "random"],
        &rows,
    );
    println!("\nexpected: Taylor >= magnitude >> random at every width (the paper builds");
    println!("its backbone generation on the first-order Taylor criterion).");
}
