//! The LSTM controller (§III-C2): samples architecture token sequences
//! and learns with REINFORCE + a moving-average baseline.

use acme_nn::{clip_grad_norm, Adam, EmbeddingLayer, Linear, LstmCell, Optimizer, ParamSet};
use acme_tensor::{Graph, SmallRng64, Var};

use crate::ops::OpKind;
use crate::space::{BlockSpec, HeaderArch};

/// LSTM hidden units: the paper follows Zoph et al. / Pham et al., a
/// single LSTM layer with 100 hidden units.
const HIDDEN: usize = 100;
/// Embedding width of decision tokens.
const EMBED_DIM: usize = 16;
/// Moving-average decay of the REINFORCE baseline.
const BASELINE_DECAY: f32 = 0.9;
/// Learning rate of the controller's Adam optimizer.
const LR: f32 = 5e-3;

/// The architecture-sampling LSTM. Decisions alternate
/// `in1, in2, op1, op2` per block (sequence length `4B`); input
/// selections are masked to the `b + 2` legal choices of block `b`.
#[derive(Debug)]
pub struct Controller {
    cell: LstmCell,
    embed: EmbeddingLayer,
    input_head: Linear,
    op_head: Linear,
    num_blocks: usize,
    u: usize,
    baseline: Option<f32>,
    opt: Adam,
}

impl Controller {
    /// Registers the controller's parameters in `ps`. It emits
    /// architectures of `num_blocks` blocks per module (`B`) and `u`
    /// module repetitions (`U`).
    ///
    /// # Panics
    ///
    /// Panics for zero blocks.
    pub fn new(ps: &mut ParamSet, num_blocks: usize, u: usize, rng: &mut SmallRng64) -> Self {
        assert!(num_blocks > 0, "controller needs at least one block");
        let num_ops = OpKind::all().len();
        let max_inputs = num_blocks + 1;
        // Token vocabulary: one start token + the largest decision space.
        let vocab = 1 + max_inputs.max(num_ops);
        let cell = LstmCell::new(ps, "ctrl.lstm", EMBED_DIM, HIDDEN, rng);
        let embed = EmbeddingLayer::new(ps, "ctrl.embed", vocab, EMBED_DIM, rng);
        let input_head = Linear::new(ps, "ctrl.in_head", HIDDEN, max_inputs, rng);
        let op_head = Linear::new(ps, "ctrl.op_head", HIDDEN, num_ops, rng);
        #[expect(
            clippy::disallowed_methods,
            reason = "REINFORCE: one update per sampled architecture, no dataset to batch"
        )]
        let opt = Adam::new(LR);
        Controller {
            cell,
            embed,
            input_head,
            op_head,
            num_blocks,
            u,
            baseline: None,
            opt,
        }
    }

    /// Samples one architecture, returning it together with the summed
    /// log-probability node (differentiable w.r.t. the controller
    /// parameters bound in `g`). Pass `greedy = true` for argmax decoding
    /// instead of sampling.
    pub fn sample(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        rng: &mut SmallRng64,
        greedy: bool,
    ) -> (HeaderArch, Var) {
        let (mut h, mut c) = self.cell.zero_state(g, 1);
        let mut prev_token = 0usize; // start token
        let mut logp_total: Option<Var> = None;
        let mut blocks = Vec::with_capacity(self.num_blocks);
        for b in 0..self.num_blocks {
            let mut decisions = [0usize; 4];
            for (slot, d) in decisions.iter_mut().enumerate() {
                let x = self.embed.forward(g, ps, &[prev_token]);
                let (h2, c2) = self.cell.step(g, ps, x, h, c);
                h = h2;
                c = c2;
                let is_input = slot < 2;
                let logits = if is_input {
                    let full = self.input_head.forward(g, ps, h);
                    // Mask to the b + 2 legal input selectors.
                    g.slice_axis(full, 1, 0, b + 2)
                } else {
                    self.op_head.forward(g, ps, h)
                };
                let logprobs = g.log_softmax_last(logits);
                let probs = g.value(logprobs).map(acme_tensor::fastmath::exp);
                let choice = if greedy {
                    probs.argmax()
                } else {
                    sample_categorical(probs.data(), rng)
                };
                *d = choice;
                let chosen = g.slice_axis(logprobs, 1, choice, 1);
                let chosen = g.sum_all(chosen);
                logp_total = Some(match logp_total {
                    Some(acc) => g.add(acc, chosen),
                    None => chosen,
                });
                // Next LSTM input embeds this decision (offset past the
                // start token).
                prev_token = 1 + choice;
            }
            blocks.push(BlockSpec {
                in1: decisions[0],
                in2: decisions[1],
                op1: OpKind::from_index(decisions[2]),
                op2: OpKind::from_index(decisions[3]),
            });
        }
        (
            HeaderArch::new(blocks, self.u),
            logp_total.expect("at least one decision"),
        )
    }

    /// One REINFORCE update: `∇ = -(R - baseline) · ∇ log π(arch)`, with
    /// the moving-average baseline updated afterwards. `g` must be the
    /// graph in which [`Controller::sample`] produced `logp`.
    pub fn reinforce(&mut self, g: &mut Graph, ps: &mut ParamSet, logp: Var, reward: f32) {
        let advantage = reward - self.baseline.unwrap_or(reward);
        let loss = g.scale(logp, -advantage);
        g.backward(loss);
        #[expect(
            clippy::disallowed_methods,
            reason = "REINFORCE: one update per sampled architecture, no dataset to batch"
        )]
        clip_grad_norm(g, 1.0);
        self.opt.step(ps, g);
        self.baseline = Some(match self.baseline {
            Some(b) => BASELINE_DECAY * b + (1.0 - BASELINE_DECAY) * reward,
            None => reward,
        });
    }
}

/// Samples an index from unnormalized probabilities.
fn sample_categorical(probs: &[f32], rng: &mut SmallRng64) -> usize {
    let total: f32 = probs.iter().sum();
    let mut t = rng.f32_in(0.0..total.max(f32::MIN_POSITIVE));
    for (i, &p) in probs.iter().enumerate() {
        if t < p {
            return i;
        }
        t -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Controller, ParamSet, SmallRng64) {
        let mut rng = SmallRng64::new(0);
        let mut ps = ParamSet::new();
        let ctrl = Controller::new(&mut ps, 3, 2, &mut rng);
        (ctrl, ps, rng)
    }

    #[test]
    fn samples_are_valid_architectures() {
        let (ctrl, ps, mut rng) = setup();
        for _ in 0..20 {
            let mut g = Graph::new();
            let (arch, logp) = ctrl.sample(&mut g, &ps, &mut rng, false);
            assert_eq!(arch.blocks().len(), 3);
            assert!(g.value(logp).item() <= 0.0, "log-prob must be nonpositive");
        }
    }

    #[test]
    fn greedy_decode_is_deterministic() {
        let (ctrl, ps, mut rng) = setup();
        let mut g1 = Graph::new();
        let (a1, _) = ctrl.sample(&mut g1, &ps, &mut rng, true);
        let mut g2 = Graph::new();
        let (a2, _) = ctrl.sample(&mut g2, &ps, &mut rng, true);
        assert_eq!(a1, a2);
    }

    #[test]
    fn reinforce_shifts_policy_toward_rewarded_arch() {
        // Reward architectures whose first decision is input 0; after
        // training, greedy decode should pick in1 == 0.
        let (mut ctrl, mut ps, mut rng) = setup();
        for _ in 0..60 {
            let mut g = Graph::new();
            let (arch, logp) = ctrl.sample(&mut g, &ps, &mut rng, false);
            let reward = if arch.blocks()[0].in1 == 0 { 1.0 } else { 0.0 };
            ctrl.reinforce(&mut g, &mut ps, logp, reward);
        }
        let mut g = Graph::new();
        let (arch, _) = ctrl.sample(&mut g, &ps, &mut rng, true);
        assert_eq!(
            arch.blocks()[0].in1,
            0,
            "policy should prefer rewarded choice"
        );
        assert!(ctrl.baseline.unwrap() > 0.0);
    }

    #[test]
    fn categorical_sampler_respects_support() {
        let mut rng = SmallRng64::new(1);
        for _ in 0..50 {
            let i = sample_categorical(&[0.0, 1.0, 0.0], &mut rng);
            assert_eq!(i, 1);
        }
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_categorical(&[0.3, 0.3, 0.4], &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
