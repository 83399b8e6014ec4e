//! What a training tape holds. After backward only the gradients of the
//! leaves that require one are left, and a training step repeated on one
//! tape takes every buffer of its second step from the pool: the
//! gradients the sweep releases come back as the next step's buffers.
//!
//! This file holds a single test so it owns its test process — the pool
//! and its miss counter are process-wide.

use std::cell::RefCell;

use acme_data::{generate, SyntheticSpec};
use acme_nn::ParamSet;
use acme_tensor::{pool, Array, Graph, SmallRng64, Var};
use acme_vit::{fit, ImageClassifier, TrainConfig, Vit, VitConfig};

/// The reference ViT, noting the pool's miss count as each step starts
/// (the training loop asks for logits right after resetting the tape).
struct Stepwise<'a> {
    vit: &'a Vit,
    misses_at_step: RefCell<Vec<u64>>,
}

impl ImageClassifier for Stepwise<'_> {
    fn logits(&self, g: &mut Graph, ps: &ParamSet, images: &Array) -> Var {
        self.misses_at_step.borrow_mut().push(pool::stats().misses);
        self.vit.logits(g, ps, images)
    }
}

#[test]
fn a_training_tape_keeps_leaf_gradients_and_its_second_step_allocates_nothing() {
    acme_runtime::set_global_threads(1);
    let spec = SyntheticSpec {
        per_class: 2,
        ..SyntheticSpec::cifar()
    };
    let mut rng = SmallRng64::new(3);
    let data = generate(&spec, &mut rng).unwrap();
    let mut ps = ParamSet::new();
    let vit = Vit::new(&mut ps, &VitConfig::reference(spec.classes), &mut rng);

    let mut g = Graph::new();
    let batch = data.batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let logits = vit.logits(&mut g, &ps, &batch.images);
    let loss = g.cross_entropy_logits(logits, &batch.labels);
    g.backward(loss);
    assert!(g.grad(loss).is_none() && g.grad(logits).is_none());
    let params: Vec<Var> = g.param_bindings().map(|(_, v)| v).collect();
    assert_eq!(params.len(), ps.ids().count());
    assert!(params.iter().all(|&p| g.grad(p).is_some()));
    // This tape binds the initial values. Kept, it would hold each one
    // past the first optimizer write, and the second step would allocate
    // a buffer per parameter to replace what it did not give back.
    drop(g);

    let stepwise = Stepwise {
        vit: &vit,
        misses_at_step: RefCell::default(),
    };
    // One batch per epoch: three steps on the loop's one tape.
    let three_steps = TrainConfig {
        epochs: 3,
        batch_size: data.len(),
        seed: 0,
    };
    fit(&stepwise, &mut ps, &data, &three_steps);
    let at = stepwise.misses_at_step.into_inner();
    assert_eq!(at.len(), 3);
    assert_eq!(at[2] - at[1], 0, "misses in the second step");
}
