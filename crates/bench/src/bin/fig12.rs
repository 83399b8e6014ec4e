//! Fig. 12 — impact of header search-space complexity: sweep the block
//! count `B` and module repetitions `U` for a large backbone (a) and a
//! small backbone (b), on the *same* workload.
//!
//! Varies the header space over two cells of Phase 1's pool, `(1.0, 6)`
//! and `(0.25, 1)`: each `B × U` chain header fine-tunes jointly with a
//! copy of the backbone on the public training split and is scored on
//! the public validation split. The paper's reading: a large backbone
//! prefers a simple header (too much header hurts), while a small
//! backbone gains accuracy as B and U grow.

use acme::{Acme, CandidateModel, Pretrained};
use acme_bench::{cars_spec, f3, pipeline_config, print_table, RunScale};
use acme_nas::{HeaderArch, NasHeader, SharedParams};
use acme_tensor::SmallRng64;
use acme_vit::headers::HeadedVit;
use acme_vit::{evaluate, fit, TrainConfig};

fn run_backbone(
    label: &str,
    pre: &Pretrained,
    backbone: &CandidateModel,
    scale: RunScale,
    rng: &mut SmallRng64,
) -> Vec<Vec<String>> {
    let (vit, cfg) = (&backbone.vit, backbone.vit.config());
    let bs: Vec<usize> = scale.pick(vec![1, 2, 3], vec![1, 2]);
    let us: Vec<usize> = scale.pick(vec![1, 2, 3], vec![1, 2]);
    let mut rows = Vec::new();
    for &b in &bs {
        let mut row = vec![format!("{label} B={b}")];
        for &u in &us {
            let mut hps = backbone.ps.clone();
            let shared = SharedParams::new(
                &mut hps,
                &format!("sn-{b}-{u}"),
                b,
                cfg.dim,
                cfg.grid(),
                cfg.classes,
                rng,
            );
            let header = NasHeader::new(HeaderArch::chain(b, u), shared);
            let model = HeadedVit::new(vit, &header);
            fit(
                &model,
                &mut hps,
                &pre.public_train,
                &TrainConfig {
                    epochs: scale.pick(6, 3),
                    ..TrainConfig::default()
                },
            );
            row.push(f3(evaluate(&model, &hps, &pre.public_val, 32) as f64));
        }
        rows.push(row);
    }
    rows
}

fn main() {
    let scale = RunScale::from_args();
    let config = pipeline_config(scale, cars_spec(scale), 29)
        .clusters(1)
        .devices_per_cluster(1)
        .widths(vec![0.25, 1.0])
        .depths(vec![1, 6])
        .build()
        .expect("the harness pipeline is valid");
    let acme = Acme::try_new(config).expect("validated configuration");
    let pre = acme.pretrain().expect("pretraining");
    let pool = acme.candidate_pool(&pre).candidates;
    let cell = |w: f64, d: usize| {
        pool.iter()
            .find(|c| (c.w, c.d) == (w, d))
            .expect("a pool cell")
    };
    let mut rng = SmallRng64::new(29);
    let us: Vec<String> = scale
        .pick(vec![1, 2, 3], vec![1, 2])
        .iter()
        .map(|u| format!("U={u}"))
        .collect();
    let mut header: Vec<&str> = vec!["header"];
    header.extend(us.iter().map(String::as_str));

    let large = run_backbone("large", &pre, cell(1.0, 6), scale, &mut rng);
    print_table("Fig. 12(a): large backbone (w=1, d=6)", &header, &large);

    let small = run_backbone("small", &pre, cell(0.25, 1), scale, &mut rng);
    print_table("Fig. 12(b): small backbone (w=0.25, d=1)", &header, &small);

    println!("\npaper: (a) accuracy flat-to-declining as the header grows on the large");
    println!("backbone; (b) accuracy improves with B and U on the small backbone.");
}
