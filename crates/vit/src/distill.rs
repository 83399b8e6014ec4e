//! Knowledge distillation of a scaled student against the full teacher
//! (Eq. 9): MSE over logits, patch embeddings, and final hidden states.

use acme_data::Dataset;
use acme_nn::ParamSet;
use acme_tensor::obs::mem::{self, Owner};
use acme_tensor::{pool, Array, Graph};

use crate::classifier::{train_on, TrainConfig, TrainReport};
use crate::model::Vit;

/// Weight λ₁ of Eq. (9)'s logit-matching term.
const LAMBDA1: f32 = 1.0;
/// Weight λ₂ of Eq. (9)'s embedding-matching term (the hidden-state term
/// has weight 1).
const LAMBDA2: f32 = 0.5;

/// The teacher's side of Eq. (9) for every example of a transfer set:
/// logits `ý` `[N, classes]`, token embeddings `É` `[N, T, D]` and final
/// hidden states `H́` `[N, T, D]`.
///
/// They depend only on the teacher and the example, so one
/// [`TeacherTargets::compute`] serves every student distilled against the
/// same teacher on the same data — Phase 1 pays for one teacher pass, not
/// one per candidate per epoch. Every op of the teacher forward is
/// per-example (GEMM rows with a fixed k-order, row-wise kernels,
/// per-(batch, head) attention, elementwise activations), so a row does
/// not depend on which batch computed it: gathered rows are bitwise the
/// values a per-batch teacher pass over the same examples yields.
#[derive(Debug)]
pub struct TeacherTargets {
    len: usize,
    classes: usize,
    tokens: usize,
    dim: usize,
    logits: Vec<f32>,
    embed: Vec<f32>,
    hidden: Vec<f32>,
}

impl Drop for TeacherTargets {
    fn drop(&mut self) {
        mem::release(Owner::TeacherTargets, self.heap_bytes());
    }
}

impl TeacherTargets {
    /// Runs `teacher` once over `transfer`, in example order, `batch_size`
    /// examples at a time, and keeps its outputs.
    pub fn compute(
        teacher: &Vit,
        teacher_ps: &ParamSet,
        transfer: &Dataset,
        batch_size: usize,
    ) -> Self {
        let cfg = teacher.config();
        let (len, classes, tokens, dim) = (transfer.len(), cfg.classes, cfg.num_tokens(), cfg.dim);
        let mut logits = Vec::with_capacity(len * classes);
        let mut embed = Vec::with_capacity(len * tokens * dim);
        let mut hidden = Vec::with_capacity(len * tokens * dim);
        let order: Vec<usize> = (0..len).collect();
        let mut g = Graph::new();
        for chunk in order.chunks(batch_size.max(1)) {
            let batch = transfer.batch(chunk);
            g.reset();
            let emb = teacher.embed(&mut g, teacher_ps, &batch.images);
            let feats = teacher.encode(&mut g, teacher_ps, emb, None);
            let out = teacher.logits_from(&mut g, teacher_ps, &feats);
            logits.extend_from_slice(g.value(out).data());
            embed.extend_from_slice(g.value(emb).data());
            hidden.extend_from_slice(g.value(feats.tokens).data());
        }
        let targets = TeacherTargets {
            len,
            classes,
            tokens,
            dim,
            logits,
            embed,
            hidden,
        };
        mem::charge(Owner::TeacherTargets, targets.heap_bytes());
        targets
    }

    fn heap_bytes(&self) -> usize {
        let floats = self.logits.capacity() + self.embed.capacity() + self.hidden.capacity();
        floats * std::mem::size_of::<f32>()
    }

    /// Number of examples covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no example is covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The targets of examples `indices`, stacked in that order: logits
    /// `[b, classes]`, embeddings `[b, T, D]` and hidden states
    /// `[b, T, D]`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn gather(&self, indices: &[usize]) -> (Array, Array, Array) {
        let b = indices.len();
        let rows = |all: &[f32], width: usize| {
            let mut out = pool::take(b * width);
            for &i in indices {
                out.extend_from_slice(&all[i * width..(i + 1) * width]);
            }
            out
        };
        let seq = self.tokens * self.dim;
        let shaped = |data, shape: &[usize]| Array::from_vec(data, shape).expect("target volume");
        (
            shaped(rows(&self.logits, self.classes), &[b, self.classes]),
            shaped(rows(&self.embed, seq), &[b, self.tokens, self.dim]),
            shaped(rows(&self.hidden, seq), &[b, self.tokens, self.dim]),
        )
    }
}

/// Distills `student` against a frozen `teacher` on `transfer` data:
/// [`TeacherTargets::compute`] followed by [`distill_from`].
///
/// The student must share the teacher's embedding width and token count
/// (depth and per-layer width may differ — that is the point). Callers
/// distilling several students against one teacher compute the targets
/// once and call [`distill_from`] per student.
///
/// # Panics
///
/// Panics on an empty transfer set or mismatched embedding geometry.
pub fn distill(
    teacher: &Vit,
    teacher_ps: &ParamSet,
    student: &Vit,
    student_ps: &mut ParamSet,
    transfer: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    let targets = TeacherTargets::compute(teacher, teacher_ps, transfer, cfg.batch_size);
    distill_from(&targets, student, student_ps, transfer, cfg)
}

/// Distills `student` toward precomputed teacher `targets` on `transfer`
/// (Eq. 9): every minibatch gathers its examples' teacher logits `ý`,
/// token embeddings `É` and final hidden states `H́` by index, and the
/// student minimizes `λ₁·MSE(ý, y) + λ₂·MSE(É, E) + MSE(H́, H)` in the
/// training loop [`fit`](crate::fit) runs.
///
/// # Panics
///
/// Panics on an empty transfer set, targets computed over a transfer set
/// of another size, or a student whose embedding width or token count
/// differs from the teacher's.
pub fn distill_from(
    targets: &TeacherTargets,
    student: &Vit,
    student_ps: &mut ParamSet,
    transfer: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!transfer.is_empty(), "distill on empty dataset");
    assert_eq!(
        targets.len(),
        transfer.len(),
        "distill targets cover another transfer set"
    );
    assert_eq!(targets.dim, student.config().dim, "distill width mismatch");
    assert_eq!(
        targets.tokens,
        student.config().num_tokens(),
        "distill token-count mismatch"
    );
    train_on(transfer.len(), student_ps, cfg, |g, ps, indices| {
        let batch = transfer.batch(indices);
        let (t_logits, t_embed, t_hidden) = targets.gather(indices);
        // Two student embeddings on purpose: feeding `s_embed` into
        // `encode` would sum the patch projection's two gradients in
        // another order and move the student's bits.
        let s_embed = student.embed(g, ps, &batch.images);
        let s_feats = student.forward(g, ps, &batch.images);
        let s_logits = student.logits_from(g, ps, &s_feats);
        let ty = g.constant(t_logits);
        let te = g.constant(t_embed);
        let th = g.constant(t_hidden);
        let l_logit = g.mse_loss(s_logits, ty);
        let l_embed = g.mse_loss(s_embed, te);
        let l_hidden = g.mse_loss(s_feats.tokens, th);
        let l1 = g.scale(l_logit, LAMBDA1);
        let l2 = g.scale(l_embed, LAMBDA2);
        let partial = g.add(l1, l2);
        g.add(partial, l_hidden)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{evaluate, fit};
    use crate::config::VitConfig;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_tensor::SmallRng64;

    #[test]
    fn distillation_reduces_loss_and_transfers_signal() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(16), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut tps = ParamSet::new();
        let teacher = Vit::new(&mut tps, &cfg, &mut rng);
        fit(
            &teacher,
            &mut tps,
            &ds,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::quick()
            },
        );
        let t_acc = evaluate(&teacher, &tps, &ds, 16);

        // Student: half the depth.
        let s_cfg = cfg.scaled(1.0, 1);
        let mut sps = ParamSet::new();
        let student = Vit::new(&mut sps, &s_cfg, &mut rng);
        let before = evaluate(&student, &sps, &ds, 16);
        let report = distill(
            &teacher,
            &tps,
            &student,
            &mut sps,
            &ds,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
        );
        let after = evaluate(&student, &sps, &ds, 16);
        assert!(
            report.improved(),
            "distill losses {:?}",
            report.epoch_losses
        );
        assert!(
            after > before,
            "student accuracy should improve: before {before}, after {after} (teacher {t_acc})"
        );
    }

    #[test]
    fn distill_is_shared_targets_then_the_student_loop() {
        let mut rng = SmallRng64::new(3);
        let ds = cifar100_like(&SyntheticSpec::tiny().with_per_class(10), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut tps = ParamSet::new();
        let teacher = Vit::new(&mut tps, &cfg, &mut rng);
        let mut sps = ParamSet::new();
        let student = Vit::new(&mut sps, &cfg.scaled(0.5, 1), &mut rng);
        let dcfg = TrainConfig {
            epochs: 2,
            batch_size: 7,
            ..TrainConfig::default()
        };
        let mut a = sps.clone();
        let ra = distill(&teacher, &tps, &student, &mut a, &ds, &dcfg);
        // Targets computed at another batch size serve the same loop.
        let targets = TeacherTargets::compute(&teacher, &tps, &ds, 32);
        let mut b = sps.clone();
        let rb = distill_from(&targets, &student, &mut b, &ds, &dcfg);
        let bits = |r: &TrainReport| {
            r.epoch_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&ra), bits(&rb));
        let ids = student.all_param_ids();
        assert!(
            ids.iter().any(|&id| a.value(id) != sps.value(id)),
            "distillation moved no parameter"
        );
        for id in ids {
            let (x, y) = (a.value(id).data(), b.value(id).data());
            assert!(
                x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()),
                "parameter {id:?} differs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_mismatched_width() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut tps = ParamSet::new();
        let teacher = Vit::new(&mut tps, &cfg, &mut rng);
        let mut s_cfg = cfg.clone();
        s_cfg.dim = 8;
        s_cfg.head_dim = 4;
        let mut sps = ParamSet::new();
        let student = Vit::new(&mut sps, &s_cfg, &mut rng);
        distill(
            &teacher,
            &tps,
            &student,
            &mut sps,
            &ds,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "token-count mismatch")]
    fn rejects_mismatched_token_count() {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut tps = ParamSet::new();
        let teacher = Vit::new(&mut tps, &cfg, &mut rng);
        let mut s_cfg = cfg.clone();
        s_cfg.patch = 2;
        let mut sps = ParamSet::new();
        let student = Vit::new(&mut sps, &s_cfg, &mut rng);
        distill(
            &teacher,
            &tps,
            &student,
            &mut sps,
            &ds,
            &TrainConfig {
                epochs: 4,
                ..TrainConfig::default()
            },
        );
    }
}
