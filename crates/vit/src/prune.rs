//! The transform `δ(θ₀, w, d)` with trained weights: cutting a candidate
//! backbone out of the teacher (§III-B1, Algorithm 1).

use acme_nn::{Linear, ParamSet};
use acme_tensor::{Array, SmallRng64};

use crate::importance::ImportanceScores;
use crate::model::Vit;

/// Copies the `rows` (axis 0 of a matrix) and `cols` (the last axis) of a
/// 1-D or 2-D `src` into a fresh array; `None` keeps the whole axis.
fn gather(src: &Array, rows: Option<&[usize]>, cols: Option<&[usize]>) -> Array {
    let c = src.shape()[src.rank() - 1];
    let all = |n: usize| (0..n).collect::<Vec<_>>();
    let rows = rows.map_or_else(|| all(src.len() / c), <[usize]>::to_vec);
    let cols = cols.map_or_else(|| all(c), <[usize]>::to_vec);
    let data = rows
        .iter()
        .flat_map(|&r| cols.iter().map(move |&k| src.data()[r * c + k]))
        .collect();
    let shape = match src.rank() {
        1 => vec![cols.len()],
        _ => vec![rows.len(), cols.len()],
    };
    Array::from_vec(data, &shape).expect("volume matches")
}

/// Expands per-head keep indices into per-column indices for an
/// `[*, heads*head_dim]` projection.
fn head_cols(keep_heads: &[usize], head_dim: usize) -> Vec<usize> {
    keep_heads
        .iter()
        .flat_map(|&h| h * head_dim..(h + 1) * head_dim)
        .collect()
}

/// Copies `src`'s weight rows `keep_in` and output columns `keep_out`
/// (bias entries too) into `dst`.
fn copy_linear(
    src_ps: &ParamSet,
    dst_ps: &mut ParamSet,
    src: &Linear,
    dst: &Linear,
    keep_in: Option<&[usize]>,
    keep_out: Option<&[usize]>,
) {
    let [sw, sb] = src.param_ids();
    let [dw, db] = dst.param_ids();
    let w = gather(src_ps.value(sw), keep_in, keep_out);
    let b = gather(src_ps.value(sb), None, keep_out);
    assert_eq!(w.shape(), dst_ps.value(dw).shape(), "cut weight shape");
    assert_eq!(b.shape(), dst_ps.value(db).shape(), "cut bias shape");
    *dst_ps.value_mut(dw) = w;
    *dst_ps.value_mut(db) = b;
}

/// Cuts the candidate `δ(θ₀, w, d)` out of `vit` in one copy. Its shape
/// is `vit.config().scaled(w, d)`; in each of the first `d` blocks the
/// most important heads and neurons (by `scores`, Eqs. 6–8) survive with
/// their trained weights, and every unscaled parameter (embeddings, layer
/// norms, default header) copies over verbatim. The cut student is then
/// refined by distillation (Eq. 9).
///
/// Returns the sub-network and its own fresh [`ParamSet`].
///
/// # Panics
///
/// Panics when `w` is outside `(0, 1]`, `d` is outside `1..=depth`, or
/// `scores` does not match the model's geometry.
pub fn sub_network(
    vit: &Vit,
    ps: &ParamSet,
    scores: &ImportanceScores,
    w: f64,
    d: usize,
) -> (Vit, ParamSet) {
    let cfg = vit.config();
    assert!(
        d >= 1 && d <= cfg.depth,
        "depth {d} out of range 1..={}",
        cfg.depth
    );
    assert_eq!(scores.heads.len(), cfg.depth, "scores depth mismatch");
    let sub_cfg = cfg.scaled(w, d);
    let mut sub_ps = ParamSet::new();
    // Seed value is irrelevant: every parameter is overwritten below.
    let sub = Vit::new(&mut sub_ps, &sub_cfg, &mut SmallRng64::new(0));
    for (s, t) in vit.outer_param_ids().into_iter().zip(sub.outer_param_ids()) {
        *sub_ps.value_mut(t) = ps.value(s).clone();
    }
    for (l, (sb, tb)) in vit.blocks().iter().zip(sub.blocks()).enumerate() {
        let heads = head_cols(&scores.top_heads(l, sub_cfg.heads), cfg.head_dim);
        let neurons = scores.top_neurons(l, sub_cfg.mlp_hidden);
        let [sq, sk, sv, so] = sb.attention().projections();
        let [tq, tk, tv, to] = tb.attention().projections();
        let (h, n) = (Some(heads.as_slice()), Some(neurons.as_slice()));
        for (s, t, keep_in, keep_out) in [
            (sq, tq, None, h),
            (sk, tk, None, h),
            (sv, tv, None, h),
            (so, to, h, None),
            (sb.mlp().fc1(), tb.mlp().fc1(), None, n),
            (sb.mlp().fc2(), tb.mlp().fc2(), n, None),
        ] {
            copy_linear(ps, &mut sub_ps, s, t, keep_in, keep_out);
        }
        // Layer norms keep their width (`dim` is unscaled).
        let ((s1, s2), (t1, t2)) = (sb.norms(), tb.norms());
        for (s, t) in s1
            .param_ids()
            .into_iter()
            .zip(t1.param_ids())
            .chain(s2.param_ids().into_iter().zip(t2.param_ids()))
        {
            *sub_ps.value_mut(t) = ps.value(s).clone();
        }
    }
    (sub, sub_ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VitConfig;
    use crate::importance::score_importance;
    use acme_data::{cifar100_like, SyntheticSpec};
    use acme_tensor::Graph;

    fn setup() -> (Vit, ParamSet, acme_data::Dataset, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let ds = cifar100_like(&SyntheticSpec::tiny(), &mut rng).unwrap();
        let cfg = VitConfig::tiny(ds.num_classes());
        let mut ps = ParamSet::new();
        let vit = Vit::new(&mut ps, &cfg, &mut rng);
        (vit, ps, ds, rng)
    }

    /// The value of the parameter called `name` in `ps`.
    fn by_name<'a>(ps: &'a ParamSet, name: &str) -> &'a Array {
        let id = ps.ids().find(|&id| ps.name(id) == name).expect(name);
        ps.value(id)
    }

    #[test]
    fn full_cut_reproduces_the_teachers_logits_bitwise() {
        let (vit, ps, ds, mut rng) = setup();
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        let (full, full_ps) = sub_network(&vit, &ps, &scores, 1.0, vit.config().depth);
        assert_eq!(full.config(), vit.config());
        let batch = ds.sample(4, &mut rng).as_batch();
        let mut g = Graph::new();
        let a = vit.logits(&mut g, &ps, &batch.images);
        let b = full.logits(&mut g, &full_ps, &batch.images);
        let bits = |v| {
            g.value(v)
                .data()
                .iter()
                .map(|x: &f32| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn width_cut_shrinks_params_and_keeps_the_most_important_head() {
        let (vit, ps, ds, mut rng) = setup();
        let mut scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        // Force layer 0: head 1 most important.
        scores.heads[0] = vec![0.0, 1.0];
        let (sub, sub_ps) = sub_network(&vit, &ps, &scores, 0.5, vit.config().depth);
        assert!(sub_ps.num_scalars() < ps.num_scalars());
        assert_eq!(sub.config().heads, 1);
        assert_eq!(sub.config().mlp_hidden, 16);
        assert_eq!(sub.config().depth, 2);
        // The kept wq columns equal head 1's columns from the source.
        let src_w = ps.value(vit.blocks()[0].attention().projections()[0].param_ids()[0]);
        let dst_w = sub_ps.value(sub.blocks()[0].attention().projections()[0].param_ids()[0]);
        let dh = vit.config().head_dim;
        for r in 0..vit.config().dim {
            for j in 0..dh {
                assert_eq!(
                    src_w.data()[r * (2 * dh) + dh + j],
                    dst_w.data()[r * dh + j]
                );
            }
        }
        let batch = ds.sample(4, &mut rng).as_batch();
        let mut g = Graph::new();
        let logits = sub.logits(&mut g, &sub_ps, &batch.images);
        assert!(g.value(logits).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn depth_cut_keeps_the_teachers_prefix_verbatim() {
        let (vit, ps, ds, mut rng) = setup();
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        let (sub, sub_ps) = sub_network(&vit, &ps, &scores, 1.0, 1);
        assert_eq!(sub.config().depth, 1);
        assert!(sub_ps.num_scalars() < ps.num_scalars());
        // Every surviving parameter is the teacher's namesake, bit for bit.
        for id in sub_ps.ids() {
            assert_eq!(sub_ps.value(id), by_name(&ps, sub_ps.name(id)));
        }
    }

    #[test]
    fn width_and_depth_cut_is_a_width_cut_of_the_depth_cut() {
        let (vit, ps, ds, mut rng) = setup();
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        let (both, both_ps) = sub_network(&vit, &ps, &scores, 0.5, 1);
        assert_eq!((both.config().heads, both.config().depth), (1, 1));
        let (shallow, shallow_ps) = sub_network(&vit, &ps, &scores, 1.0, 1);
        let prefix = ImportanceScores {
            heads: scores.heads[..1].to_vec(),
            neurons: scores.neurons[..1].to_vec(),
        };
        let (two_step, two_step_ps) = sub_network(&shallow, &shallow_ps, &prefix, 0.5, 1);
        assert_eq!(two_step.config(), both.config());
        for id in both_ps.ids() {
            assert_eq!(both_ps.value(id), by_name(&two_step_ps, both_ps.name(id)));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_network_validates_depth() {
        let (vit, ps, ds, mut rng) = setup();
        let scores = score_importance(&vit, &ps, &ds, 1, 8, &mut rng);
        sub_network(&vit, &ps, &scores, 1.0, 0);
    }

    #[test]
    fn gather_helpers() {
        let a = Array::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(
            gather(&a, None, Some(&[0, 2])).data(),
            &[0.0, 2.0, 3.0, 5.0]
        );
        assert_eq!(gather(&a, Some(&[1]), None).data(), &[3.0, 4.0, 5.0]);
        assert_eq!(gather(&a, Some(&[1]), Some(&[2, 0])).shape(), &[1, 2]);
        let v = Array::from_vec(vec![5.0, 6.0, 7.0], &[3]).unwrap();
        assert_eq!(gather(&v, None, Some(&[2, 0])).data(), &[7.0, 5.0]);
        assert_eq!(head_cols(&[0, 2], 2), vec![0, 1, 4, 5]);
    }
}
