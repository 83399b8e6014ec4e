//! The validation-accuracy predictor of §III-C2: an LSTM over the
//! architecture token sequence whose final hidden state feeds a fully
//! connected layer and a sigmoid.

use acme_nn::{Adam, EmbeddingLayer, Linear, LstmCell, Optimizer, ParamSet};
use acme_tensor::{Array, Graph, SmallRng64, Var};

use crate::ops::OpKind;
use crate::space::HeaderArch;

/// Predicts a child architecture's validation accuracy from its token
/// sequence. Used to pre-screen candidates without training them
/// (progressive-NAS style).
#[derive(Debug)]
pub struct AccuracyPredictor {
    cell: LstmCell,
    embed: EmbeddingLayer,
    readout: Linear,
    opt: Adam,
}

impl AccuracyPredictor {
    /// Registers the predictor's parameters in `ps` for architectures of
    /// up to `max_blocks` blocks.
    pub fn new(ps: &mut ParamSet, max_blocks: usize, rng: &mut SmallRng64) -> Self {
        let vocab = 1 + (max_blocks + 1).max(OpKind::all().len());
        #[expect(
            clippy::disallowed_methods,
            reason = "one regression step per observed (architecture, accuracy) pair, no dataset to batch"
        )]
        let opt = Adam::new(1e-2);
        AccuracyPredictor {
            cell: LstmCell::new(ps, "pred.lstm", 16, 64, rng),
            embed: EmbeddingLayer::new(ps, "pred.embed", vocab, 16, rng),
            readout: Linear::new(ps, "pred.read", 64, 1, rng),
            opt,
        }
    }

    fn forward(&self, g: &mut Graph, ps: &ParamSet, arch: &HeaderArch) -> Var {
        let (mut h, mut c) = self.cell.zero_state(g, 1);
        for &tok in &arch.to_tokens() {
            let x = self.embed.forward(g, ps, &[1 + tok]);
            let (h2, c2) = self.cell.step(g, ps, x, h, c);
            h = h2;
            c = c2;
        }
        let y = self.readout.forward(g, ps, h);
        g.sigmoid(y)
    }

    /// Predicted accuracy in `[0, 1]`.
    pub fn predict(&self, ps: &ParamSet, arch: &HeaderArch) -> f32 {
        let mut g = Graph::new();
        let y = self.forward(&mut g, ps, arch);
        g.value(y).item()
    }

    /// One regression step on an observed `(architecture, accuracy)`
    /// pair; returns the squared error before the update.
    pub fn observe(&mut self, ps: &mut ParamSet, arch: &HeaderArch, accuracy: f32) -> f32 {
        let mut g = Graph::new();
        let y = self.forward(&mut g, ps, arch);
        let target = g.constant(Array::from_vec(vec![accuracy], &[1, 1]).expect("scalar target"));
        let loss = g.mse_loss(y, target);
        g.backward(loss);
        self.opt.step(ps, &g);
        g.value(loss).item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let pred = AccuracyPredictor::new(&mut ps, 4, &mut rng);
        for _ in 0..5 {
            let arch = HeaderArch::random(4, 1, &mut rng);
            let p = pred.predict(&ps, &arch);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn learns_to_separate_two_architectures() {
        let mut rng = SmallRng64::new(1);
        let mut ps = ParamSet::new();
        let mut pred = AccuracyPredictor::new(&mut ps, 2, &mut rng);
        let good = HeaderArch::chain(2, 1);
        let bad = HeaderArch::random(2, 1, &mut rng);
        if good == bad {
            return; // measure-zero collision guard
        }
        for _ in 0..80 {
            pred.observe(&mut ps, &good, 0.9);
            pred.observe(&mut ps, &bad, 0.2);
        }
        let pg = pred.predict(&ps, &good);
        let pb = pred.predict(&ps, &bad);
        assert!(pg > pb + 0.2, "good {pg} vs bad {pb}");
    }
}
