//! LSTM cell for the NAS controller (§III-C of the paper).

use acme_tensor::{Array, Graph, SmallRng64, Var};

use crate::linear::Linear;
use crate::param::ParamSet;

/// A single LSTM cell with input width `in_dim` and hidden width `hidden`.
///
/// Gate order in the fused projection is `(input, forget, cell, output)`.
/// The forget-gate bias is initialized to 1, the usual trick for stable
/// training of small recurrent controllers.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wx: Linear,
    wh: Linear,
    hidden: usize,
}

impl LstmCell {
    /// Registers the cell's fused projections in `ps`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut SmallRng64,
    ) -> Self {
        let wx = Linear::new(ps, &format!("{name}.wx"), in_dim, 4 * hidden, rng);
        let wh = Linear::new(ps, &format!("{name}.wh"), hidden, 4 * hidden, rng);
        // Forget-gate bias = 1.
        let bias_id = wx.param_ids()[1];
        let bias = ps.value_mut(bias_id);
        for i in hidden..2 * hidden {
            bias.data_mut()[i] = 1.0;
        }
        LstmCell { wx, wh, hidden }
    }

    /// One step: `x: [batch, in_dim]`, state `(h, c): [batch, hidden]`,
    /// returning the next `(h, c)`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched widths.
    pub fn step(&self, g: &mut Graph, ps: &ParamSet, x: Var, h: Var, c: Var) -> (Var, Var) {
        let gx = self.wx.forward(g, ps, x);
        let gh = self.wh.forward(g, ps, h);
        let gates = g.add(gx, gh);
        let hsz = self.hidden;
        let i = g.slice_axis(gates, 1, 0, hsz);
        let f = g.slice_axis(gates, 1, hsz, hsz);
        let cc = g.slice_axis(gates, 1, 2 * hsz, hsz);
        let o = g.slice_axis(gates, 1, 3 * hsz, hsz);
        let i = g.sigmoid(i);
        let f = g.sigmoid(f);
        let cc = g.tanh(cc);
        let o = g.sigmoid(o);
        let fc = g.mul(f, c);
        let ic = g.mul(i, cc);
        let c_next = g.add(fc, ic);
        let tc = g.tanh(c_next);
        let h_next = g.mul(o, tc);
        (h_next, c_next)
    }

    /// A zero `(h, c)` state for a given batch size.
    pub fn zero_state(&self, g: &mut Graph, batch: usize) -> (Var, Var) {
        let h = g.constant(Array::zeros(&[batch, self.hidden]));
        let c = g.constant(Array::zeros(&[batch, self.hidden]));
        (h, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use acme_tensor::{randn, SmallRng64};

    #[test]
    fn step_shapes() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let cell = LstmCell::new(&mut ps, "lstm", 4, 8, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(randn(&[3, 4], &mut rng));
        let (h, c) = cell.zero_state(&mut g, 3);
        let (h1, c1) = cell.step(&mut g, &ps, x, h, c);
        assert_eq!(g.shape(h1), &[3, 8]);
        assert_eq!(g.shape(c1), &[3, 8]);
    }

    #[test]
    fn state_stays_bounded() {
        // |h| <= 1 because of the tanh/sigmoid gating.
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let cell = LstmCell::new(&mut ps, "lstm", 2, 4, &mut rng);
        let mut g = Graph::new();
        let (mut h, mut c) = cell.zero_state(&mut g, 1);
        for _ in 0..20 {
            let x = g.constant(randn(&[1, 2], &mut rng).scale(10.0));
            let (h2, c2) = cell.step(&mut g, &ps, x, h, c);
            h = h2;
            c = c2;
        }
        assert!(g.value(h).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn learns_to_remember_first_token() {
        // Sequence of 3 random inputs; target is a linear readout of the
        // first input. The cell must carry information across steps.
        let mut rng = SmallRng64::new(2);
        let mut ps = ParamSet::new();
        let cell = LstmCell::new(&mut ps, "lstm", 2, 8, &mut rng);
        let readout = Linear::new(&mut ps, "read", 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let seqs: Vec<[Array; 3]> = (0..8)
            .map(|_| {
                [
                    randn(&[1, 2], &mut rng),
                    randn(&[1, 2], &mut rng),
                    randn(&[1, 2], &mut rng),
                ]
            })
            .collect();
        let targets: Vec<f32> = seqs.iter().map(|s| s[0].data()[0]).collect();
        let mut last = f32::MAX;
        for _ in 0..150 {
            let mut total = 0.0;
            for (seq, &t) in seqs.iter().zip(&targets) {
                let mut g = Graph::new();
                let (mut h, mut c) = cell.zero_state(&mut g, 1);
                for x in seq {
                    let xv = g.constant(x.clone());
                    let (h2, c2) = cell.step(&mut g, &ps, xv, h, c);
                    h = h2;
                    c = c2;
                }
                let y = readout.forward(&mut g, &ps, h);
                let target = g.constant(Array::from_vec(vec![t], &[1, 1]).unwrap());
                let loss = g.mse_loss(y, target);
                g.backward(loss);
                opt.step(&mut ps, &g);
                total += g.value(loss).item();
            }
            last = total / seqs.len() as f32;
        }
        assert!(last < 0.1, "memory loss {last}");
    }
}
