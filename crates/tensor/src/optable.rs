//! The tape's per-op table: forward nanoseconds, backward nanoseconds,
//! node count and tape bytes per [`Op`] variant, accumulated
//! process-wide while [`acme_obs::trace::enabled`] and published by
//! [`crate::publish_obs_metrics`] as `tensor.op.<name>.{fwd_ns, bwd_ns,
//! calls, value_bytes}` counters.
//!
//! A node's forward time is the wall time since the graph's previous
//! node was pushed (or since [`Graph::reset`](crate::Graph::reset) /
//! the end of a backward sweep) while recording stayed on; a node pushed
//! right after recording turns on mid-tape is counted but charged no
//! time. It covers the builder's kernel and whatever host code prepared
//! its inputs: a `constant` over freshly patchified images carries the
//! patchify. A node's backward time is its
//! gradient rule plus the accumulation of its contributions. The rows of
//! one step therefore sum to the step's forward and backward wall time.
//! A node's bytes are what it puts on the tape: its owned value (a
//! parameter bound by reference has none) plus the state its op saves
//! for the backward rule, the node's share of the
//! [`Owner::TapeValues`](acme_obs::mem::Owner::TapeValues) gauge.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use crate::graph::Op;

macro_rules! op_table {
    ($($op:ident => $name:literal),* $(,)?) => {
        /// Number of rows: one per variant.
        const ROWS: usize = [$($name),*].len();

        /// Row of each variant in [`TABLE`].
        enum Row {
            $($op),*
        }

        /// Registry names of each row's `fwd_ns`, `bwd_ns`, `calls` and
        /// `value_bytes`.
        const METRICS: [[&str; COLUMNS]; ROWS] = [$([
            concat!("tensor.op.", $name, ".fwd_ns"),
            concat!("tensor.op.", $name, ".bwd_ns"),
            concat!("tensor.op.", $name, ".calls"),
            concat!("tensor.op.", $name, ".value_bytes"),
        ]),*];

        impl Op {
            /// This op's row in the self-time table.
            fn row(&self) -> usize {
                match self {
                    $(Op::$op { .. } => Row::$op as usize),*
                }
            }
        }
    };
}

op_table! {
    Leaf => "leaf",
    Add => "add",
    Mul => "mul",
    Scale => "scale",
    MatMul => "matmul",
    Linear => "linear",
    BatchMatMul => "batch_matmul",
    Permute => "permute",
    Reshape => "reshape",
    SumAll => "sum_all",
    SumAxis => "sum_axis",
    Relu => "relu",
    Gelu => "gelu",
    Tanh => "tanh",
    Sigmoid => "sigmoid",
    SoftmaxLast => "softmax_last",
    LogSoftmaxLast => "log_softmax_last",
    LayerNorm => "layer_norm",
    CrossEntropyLogits => "cross_entropy_logits",
    MseLoss => "mse_loss",
    Concat => "concat",
    SliceAxis => "slice_axis",
    Conv2d => "conv2d",
    MaxPool2d => "max_pool2d",
    AvgPool2d => "avg_pool2d",
    Embedding => "embedding",
    Attention => "attention",
}

const FWD: usize = 0;
const BWD: usize = 1;
const CALLS: usize = 2;
const BYTES: usize = 3;
const COLUMNS: usize = 4;

/// `[fwd_ns, bwd_ns, calls, value_bytes]` per row.
static TABLE: [[AtomicU64; COLUMNS]; ROWS] =
    [const { [const { AtomicU64::new(0) }; COLUMNS] }; ROWS];

fn add(row: usize, column: usize, by: u64) {
    TABLE[row][column].fetch_add(by, Relaxed);
}

fn ns_since(t: Instant, now: Instant) -> u64 {
    now.duration_since(t).as_nanos() as u64
}

/// Counts one pushed `op` holding `bytes` on the tape and charges it
/// the time since `since` (the graph's previous push), returning the new
/// clock.
pub(crate) fn forward(op: &Op, since: Option<Instant>, bytes: usize) -> Instant {
    let now = Instant::now();
    let row = op.row();
    if let Some(t) = since {
        add(row, FWD, ns_since(t, now));
    }
    add(row, CALLS, 1);
    add(row, BYTES, bytes as u64);
    now
}

/// Charges `op`'s backward rule the time since `start`.
pub(crate) fn backward(op: &Op, start: Instant) {
    add(op.row(), BWD, ns_since(start, Instant::now()));
}

/// Sets the registry counters of every row that has recorded a node.
pub(crate) fn publish() {
    for (row, names) in TABLE.iter().zip(&METRICS) {
        if row[CALLS].load(Relaxed) > 0 {
            for (cell, &name) in row.iter().zip(names) {
                acme_obs::metrics::set_counter(name, cell.load(Relaxed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_its_own_metric_names() {
        let mut names: Vec<&str> = METRICS.iter().flatten().copied().collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COLUMNS * ROWS);
    }
}
