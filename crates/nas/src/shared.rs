//! The parameter-shared supernet `ω_s` (§III-C2): one set of operation
//! weights per (block, slot, learned-op) reused by every sampled child.

use acme_nn::{Conv2dLayer, Linear, ParamId, ParamSet};
use acme_tensor::Var;
use acme_tensor::{Graph, SmallRng64};

use crate::ops::{upsample2, OpKind};

/// Shared child-model parameters for a search space with `num_blocks`
/// blocks over `dim`-channel backbone feature maps on a `grid × grid`
/// layout, plus the fixed classifier tail (pooling → `[CLS]` concat → MLP).
///
/// Header operations run at a reduced channel width `op_dim` behind a
/// shared 1×1 input projection — the paper inserts 1×1 adapter
/// convolutions for dimension matching (§III-C1), and the reduction keeps
/// `|θ^H| ≪ |θ^B|` (§II-C) at this reproduction\'s scale.
#[derive(Debug, Clone)]
pub struct SharedParams {
    /// Shared 1×1 projection from `dim` to `op_dim` channels applied to
    /// every module input.
    in_proj: Conv2dLayer,
    /// `convs[block][slot][op-slot]` — learned ops keyed by kernel.
    convs: Vec<[Vec<Conv2dLayer>; 2]>,
    fc1: Linear,
    fc2: Linear,
    num_blocks: usize,
    op_dim: usize,
    grid: usize,
}

impl SharedParams {
    /// Registers the supernet weights in `ps`.
    ///
    /// # Panics
    ///
    /// Panics when `grid` is not even (pool ops need 2×2 windows) or any
    /// dimension is zero.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        num_blocks: usize,
        dim: usize,
        grid: usize,
        classes: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let op_dim = (dim / 2).max(1);
        assert!(
            num_blocks > 0 && dim > 0 && classes > 0,
            "degenerate supernet"
        );
        assert!(
            grid >= 2 && grid.is_multiple_of(2),
            "grid must be even and >= 2"
        );
        let learned: Vec<OpKind> = OpKind::all()
            .into_iter()
            .filter(|o| o.is_learned())
            .collect();
        let mut convs = Vec::with_capacity(num_blocks);
        for b in 0..num_blocks {
            let mut slots: [Vec<Conv2dLayer>; 2] = [Vec::new(), Vec::new()];
            for (slot, bucket) in slots.iter_mut().enumerate() {
                for op in &learned {
                    let k = op.kernel().expect("learned op has kernel");
                    let layer = if *op == OpKind::Downsample {
                        Conv2dLayer::new(
                            ps,
                            &format!("{name}.b{b}.s{slot}.{op}"),
                            op_dim,
                            op_dim,
                            1,
                            2,
                            0,
                            rng,
                        )
                    } else {
                        Conv2dLayer::same(
                            ps,
                            &format!("{name}.b{b}.s{slot}.{op}"),
                            op_dim,
                            op_dim,
                            k,
                            rng,
                        )
                    };
                    bucket.push(layer);
                }
            }
            convs.push(slots);
        }
        let in_proj = Conv2dLayer::same(ps, &format!("{name}.in_proj"), dim, op_dim, 1, rng);
        // The tail pools to a 2x2 map (not a single vector) so spatial
        // information survives into the classifier, then concatenates the
        // `[CLS]` token (§III-C1).
        let fc1 = Linear::new(
            ps,
            &format!("{name}.fc1"),
            4 * op_dim + dim,
            2 * op_dim,
            rng,
        );
        let fc2 = Linear::new(ps, &format!("{name}.fc2"), 2 * op_dim, classes, rng);
        SharedParams {
            in_proj,
            convs,
            fc1,
            fc2,
            num_blocks,
            op_dim,
            grid,
        }
    }

    /// Projects a `[b, dim, g, g]` backbone map into the header\'s
    /// operating width `[b, op_dim, g, g]` (the shared 1×1 adapter).
    pub fn project_input(&self, g: &mut Graph, ps: &ParamSet, map: Var) -> Var {
        let y = self.in_proj.forward(g, ps, map);
        g.relu(y)
    }

    /// Applies operation `op` of `(block, slot)` to a `[b, op_dim, g, g]`
    /// map, preserving its shape.
    ///
    /// # Panics
    ///
    /// Panics when `block` or `slot` is out of range.
    pub fn apply_op(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        block: usize,
        slot: usize,
        op: OpKind,
        x: Var,
    ) -> Var {
        assert!(block < self.num_blocks && slot < 2, "op slot out of range");
        let learned_index = |op: OpKind| {
            OpKind::all()
                .into_iter()
                .filter(|o| o.is_learned())
                .position(|o| o == op)
                .expect("learned op")
        };
        match op {
            OpKind::Conv1 | OpKind::Conv3 | OpKind::Conv5 => {
                let conv = &self.convs[block][slot][learned_index(op)];
                let y = conv.forward(g, ps, x);
                g.relu(y)
            }
            OpKind::Identity => x,
            OpKind::Downsample => {
                let conv = &self.convs[block][slot][learned_index(op)];
                let y = conv.forward(g, ps, x);
                let y = g.relu(y);
                upsample2(g, y)
            }
            OpKind::AvgPool => {
                let y = g.avg_pool2d(x, 2);
                upsample2(g, y)
            }
            OpKind::MaxPool => {
                let y = g.max_pool2d(x, 2);
                upsample2(g, y)
            }
        }
    }

    /// The classifier tail: global-average-pools the module output,
    /// concatenates the `[CLS]` token (§III-C1's CLS integration), and
    /// applies the two-layer MLP.
    pub fn classify(&self, g: &mut Graph, ps: &ParamSet, map: Var, cls: Var) -> Var {
        let b = g.shape(map)[0];
        let pooled = g.avg_pool2d(map, self.grid / 2);
        let flat = g.reshape(pooled, &[b, 4 * self.op_dim]);
        let joint = g.concat(&[flat, cls], 1);
        let h = self.fc1.forward(g, ps, joint);
        let h = g.gelu(h);
        self.fc2.forward(g, ps, h)
    }

    /// Parameter ids of one learned op slot.
    ///
    /// # Panics
    ///
    /// Panics when the op is parameterless or indices are out of range.
    pub fn op_param_ids(&self, block: usize, slot: usize, op: OpKind) -> Vec<ParamId> {
        assert!(op.is_learned(), "op {op} has no parameters");
        let idx = OpKind::all()
            .into_iter()
            .filter(|o| o.is_learned())
            .position(|o| o == op)
            .expect("learned op");
        self.convs[block][slot][idx].param_ids().to_vec()
    }

    /// The first classifier-tail layer (its outputs are the header
    /// neurons Algorithm 2 scores and prunes).
    pub fn tail_fc1(&self) -> &Linear {
        &self.fc1
    }

    /// The second classifier-tail layer.
    pub fn tail_fc2(&self) -> &Linear {
        &self.fc2
    }

    /// Number of prunable tail neurons.
    pub fn tail_hidden(&self) -> usize {
        2 * self.op_dim
    }

    /// Parameter ids of the classifier tail (the two MLP layers) plus the
    /// shared input projection.
    pub fn tail_param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.in_proj.param_ids().to_vec();
        ids.extend(self.fc1.param_ids());
        ids.extend(self.fc2.param_ids());
        ids
    }

    /// Block capacity of the supernet.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Spatial grid side.
    pub fn grid(&self) -> usize {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::{randn, Array, SmallRng64};

    #[test]
    fn all_ops_preserve_shape() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let sp = SharedParams::new(&mut ps, "sn", 2, 8, 4, 5, &mut rng);
        let mut g = Graph::new();
        let raw = g.constant(randn(&[2, 8, 4, 4], &mut rng));
        let x = sp.project_input(&mut g, &ps, raw);
        assert_eq!(g.shape(x), &[2, 4, 4, 4]);
        for op in OpKind::all() {
            let y = sp.apply_op(&mut g, &ps, 0, 1, op, x);
            assert_eq!(g.shape(y), &[2, 4, 4, 4], "op {op}");
        }
    }

    #[test]
    fn classify_produces_logits() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let sp = SharedParams::new(&mut ps, "sn", 1, 8, 4, 5, &mut rng);
        let mut g = Graph::new();
        let map = g.constant(randn(&[3, 4, 4, 4], &mut rng));
        let cls = g.constant(randn(&[3, 8], &mut rng));
        let logits = sp.classify(&mut g, &ps, map, cls);
        assert_eq!(g.shape(logits), &[3, 5]);
    }

    #[test]
    fn identity_shares_no_weights_and_convs_do() {
        let mut rng = SmallRng64::new(2);
        let mut ps = ParamSet::new();
        let sp = SharedParams::new(&mut ps, "sn", 2, 8, 4, 5, &mut rng);
        // in_proj (w+b) + 2 blocks * 2 slots * 4 learned ops * (w+b) + 2 fc * (w+b)
        assert_eq!(ps.len(), 2 + 2 * 2 * 4 * 2 + 4);
        let mut g = Graph::new();
        let x = g.constant(Array::ones(&[1, 4, 4, 4]));
        let y = sp.apply_op(&mut g, &ps, 0, 0, OpKind::Identity, x);
        assert_eq!(x, y);
    }

    #[test]
    #[should_panic(expected = "grid must be even")]
    fn rejects_odd_grid() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        SharedParams::new(&mut ps, "sn", 1, 8, 3, 5, &mut rng);
    }
}
