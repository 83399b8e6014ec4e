//! The block-structured header search space (Eq. 14).

use acme_tensor::SmallRng64;

use crate::ops::OpKind;

/// One block of the header DAG: the 5-tuple
/// `(Î₁, Î₂, Ô₁, Ô₂, Ĉ)` of §III-C1 with the combination `Ĉ` fixed to
/// elementwise addition.
///
/// Input indices address the block's input set `Î_b`, which for block
/// `b` (1-based) holds `b + 1` tensors: index 0 is the module input
/// (backbone output for the first underlying module), index 1 the
/// auxiliary input (the penultimate backbone layer), and indices `2..`
/// the outputs of blocks `1..b-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSpec {
    /// First input selector, `< b + 1`.
    pub in1: usize,
    /// Second input selector, `< b + 1`.
    pub in2: usize,
    /// Operation applied to the first input.
    pub op1: OpKind,
    /// Operation applied to the second input.
    pub op2: OpKind,
}

/// A sampled header architecture: `B` blocks forming one underlying
/// module, repeated `U` times (§III-C1's `N` repetitions), followed by
/// pooling, `[CLS]` integration, and an MLP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderArch {
    blocks: Vec<BlockSpec>,
    u: usize,
}

impl HeaderArch {
    /// Wraps validated blocks.
    ///
    /// # Panics
    ///
    /// Panics when `blocks` is empty, `u` is zero, or an input selector
    /// is out of range for its block position.
    pub fn new(blocks: Vec<BlockSpec>, u: usize) -> Self {
        assert!(!blocks.is_empty(), "header needs at least one block");
        assert!(u > 0, "module must repeat at least once");
        for (b, blk) in blocks.iter().enumerate() {
            let limit = b + 2; // |Î_b| = b + 1 with 1-based b, i.e. index < b + 2 at 0-based b
            assert!(
                blk.in1 < limit && blk.in2 < limit,
                "block {b} inputs ({}, {}) exceed limit {limit}",
                blk.in1,
                blk.in2
            );
        }
        HeaderArch { blocks, u }
    }

    /// A simple chain architecture (each block convolves the previous
    /// output) — a deterministic default for tests and warm-starts.
    pub fn chain(num_blocks: usize, u: usize) -> Self {
        let blocks = (0..num_blocks)
            .map(|b| BlockSpec {
                in1: if b == 0 { 0 } else { b + 1 },
                in2: 1,
                op1: OpKind::Conv3,
                op2: OpKind::Identity,
            })
            .collect();
        HeaderArch::new(blocks, u)
    }

    /// Samples a uniformly random architecture with `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics when `num_blocks` or `u` is zero.
    pub fn random(num_blocks: usize, u: usize, rng: &mut SmallRng64) -> Self {
        assert!(num_blocks > 0 && u > 0, "degenerate architecture");
        let ops = OpKind::all();
        let blocks = (0..num_blocks)
            .map(|b| BlockSpec {
                in1: rng.usize_in(0..b + 2),
                in2: rng.usize_in(0..b + 2),
                op1: ops[rng.usize_in(0..ops.len())],
                op2: ops[rng.usize_in(0..ops.len())],
            })
            .collect();
        HeaderArch::new(blocks, u)
    }

    /// The block specifications.
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// The module repetition count `U`.
    pub fn u(&self) -> usize {
        self.u
    }

    /// Serializes to the controller's token sequence of length `4B`:
    /// `(in1, in2, op1, op2)` per block.
    pub fn to_tokens(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .flat_map(|b| [b.in1, b.in2, b.op1.index(), b.op2.index()])
            .collect()
    }
}

impl std::fmt::Display for HeaderArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "U={} [", self.u)?;
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "({},{},{},{})", b.in1, b.in2, b.op1, b.op2)?;
        }
        write!(f, "]")
    }
}

/// Cardinality of the search space for `B` blocks (Eq. 14):
/// `Π_{b=1..B} (b+1)² · |Ô|²`.
pub fn search_space_size(num_blocks: usize, num_ops: usize) -> u128 {
    (1..=num_blocks as u128)
        .map(|b| (b + 1) * (b + 1) * (num_ops as u128) * (num_ops as u128))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_tensor::SmallRng64;

    #[test]
    fn eq14_matches_formula() {
        let o = OpKind::all().len(); // 7
        assert_eq!(search_space_size(1, o), 4 * 49);
        assert_eq!(search_space_size(2, o), 4 * 49 * 9 * 49);
        assert_eq!(search_space_size(0, o), 1);
    }

    #[test]
    fn tokens_are_four_per_block() {
        let mut rng = SmallRng64::new(0);
        for _ in 0..20 {
            let arch = HeaderArch::random(4, 2, &mut rng);
            let tokens = arch.to_tokens();
            assert_eq!(tokens.len(), 16);
            for (b, t) in arch.blocks().iter().zip(tokens.chunks(4)) {
                assert_eq!(t, [b.in1, b.in2, b.op1.index(), b.op2.index()]);
            }
        }
    }

    #[test]
    fn random_respects_input_limits() {
        let mut rng = SmallRng64::new(1);
        for _ in 0..50 {
            let arch = HeaderArch::random(5, 1, &mut rng);
            for (b, blk) in arch.blocks().iter().enumerate() {
                assert!(blk.in1 < b + 2);
                assert!(blk.in2 < b + 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed limit")]
    fn new_validates_inputs() {
        HeaderArch::new(
            vec![BlockSpec {
                in1: 5,
                in2: 0,
                op1: OpKind::Conv1,
                op2: OpKind::Conv1,
            }],
            1,
        );
    }

    #[test]
    fn chain_is_valid_and_displayable() {
        let arch = HeaderArch::chain(3, 2);
        assert_eq!(arch.blocks().len(), 3);
        assert_eq!(arch.u(), 2);
        let s = arch.to_string();
        assert!(s.contains("U=2"));
        assert!(s.contains("conv3"));
    }
}
