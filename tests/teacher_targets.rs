//! The property Phase 1's shared teacher pass rests on: a teacher output
//! row does not depend on the batch that computed it. `TeacherTargets`
//! rows, gathered for the shuffled minibatches distillation draws, are
//! bitwise the values a per-batch teacher pass over the same examples
//! yields — at batch sizes on both sides of the naive/blocked GEMM
//! dispatch, at one and two kernel threads.
//!
//! This file holds a single test so it owns its test process: the kernel
//! thread count is process-wide.

use acme_data::{cifar100_like, SyntheticSpec};
use acme_nn::ParamSet;
use acme_tensor::{Array, Graph, SmallRng64};
use acme_vit::{TeacherTargets, Vit, VitConfig};

fn bits(a: &Array) -> (Vec<usize>, Vec<u32>) {
    (
        a.shape().to_vec(),
        a.data().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn gathered_rows_match_a_per_batch_teacher_pass_bitwise() {
    let mut rng = SmallRng64::new(5);
    let data = cifar100_like(
        &SyntheticSpec {
            classes: 4,
            ..SyntheticSpec::cifar()
        }
        .with_per_class(12),
        &mut rng,
    )
    .unwrap();
    // The reference geometry: at batch 32 its projections take the
    // blocked GEMM; at batch 1 the head and attention products take the
    // naive one.
    let mut ps = ParamSet::new();
    let teacher = Vit::new(&mut ps, &VitConfig::reference(data.num_classes()), &mut rng);
    for threads in [1, 2] {
        acme_runtime::set_global_threads(threads);
        for compute_bs in [1, 7, 32] {
            let targets = TeacherTargets::compute(&teacher, &ps, &data, compute_bs);
            assert_eq!(targets.len(), data.len());
            for pass_bs in [1, 7, 32] {
                let mut g = Graph::new();
                for chunk in data.batch_indices(pass_bs, &mut SmallRng64::new(pass_bs as u64)) {
                    let images = data.batch(&chunk).images;
                    g.reset();
                    let emb = teacher.embed(&mut g, &ps, &images);
                    let feats = teacher.forward(&mut g, &ps, &images);
                    let logits = teacher.logits_from(&mut g, &ps, &feats);
                    let (t_logits, t_embed, t_hidden) = targets.gather(&chunk);
                    let at = format!("threads {threads}, compute {compute_bs}, pass {pass_bs}");
                    assert_eq!(bits(&t_logits), bits(g.value(logits)), "logits, {at}");
                    assert_eq!(bits(&t_embed), bits(g.value(emb)), "embeddings, {at}");
                    assert_eq!(bits(&t_hidden), bits(g.value(feats.tokens)), "hidden, {at}");
                }
            }
        }
    }
}
