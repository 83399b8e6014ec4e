//! GEMM sweep harness: times the blocked f32 engine and the int8
//! quantized engine on the same operands across sizes and thread counts,
//! for `BENCH_kernels.json` (the `kernels` bin; `--quick` shrinks the
//! sweep to a CI-sized smoke case). The engines' values are checked
//! against their oracles, `gemm_naive` and `gemm_i8_naive`, in
//! `crates/tensor/tests/gemm_props.rs`, not here.

use std::time::Instant;

use acme_runtime::Pool;
use acme_tensor::gemm::{self, MatRef};
use acme_tensor::qgemm;

/// One timed configuration of the sweep: both engines on the same
/// operands, weights prepacked for int8 (the serving steady state,
/// where the pack cache has already paid the one-time quantization).
#[derive(Debug, Clone)]
pub struct GemmMeasurement {
    /// Cubic problem size (`m = k = n = size`).
    pub size: usize,
    /// Worker threads handed to both engines.
    pub threads: usize,
    /// Best-of-reps wall time of the blocked f32 engine, in ms.
    pub f32_ms: f64,
    /// Best-of-reps wall time of the int8 engine — activation
    /// quantization, i32 GEMM, and f32 dequantization included — in ms.
    pub int8_ms: f64,
    /// Mean absolute weight quantization error of the packed panels.
    pub mean_quant_error: f64,
}

impl GemmMeasurement {
    /// f32-engine throughput in GFLOP/s (2·n³ flops).
    pub fn gflops(&self) -> f64 {
        2.0 * (self.size as f64).powi(3) / (self.f32_ms / 1e3) / 1e9
    }

    /// The row as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"bench\": \"gemm\", \"size\": {}, \"threads\": {}, \"f32_ms\": {:.4}, \
             \"int8_ms\": {:.4}, \"gflops\": {:.2}, \"mean_quant_error\": {:.6}}}",
            self.size,
            self.threads,
            self.f32_ms,
            self.int8_ms,
            self.gflops(),
            self.mean_quant_error
        )
    }
}

fn fill(buf: &mut [f32], seed: u64) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in buf.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = ((s >> 40) as f32 / (1u64 << 22) as f32) - 2.0;
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds. `f` must leave its
/// output observable (the harness reads a sink element after each call).
fn best_ms(reps: usize, mut f: impl FnMut() -> f32) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0f32;
    for _ in 0..reps {
        let t = Instant::now();
        sink += f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);
    best
}

/// Times `size³` products on both engines for every `(size, threads)`
/// combination. Repetitions scale down with the cube of the size so the
/// sweep stays bounded.
pub fn sweep(sizes: &[usize], thread_counts: &[usize]) -> Vec<GemmMeasurement> {
    let mut rows = Vec::new();
    for &size in sizes {
        let (m, k, n) = (size, size, size);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, size as u64);
        fill(&mut b, size as u64 ^ 0xBEEF);
        let mut out = vec![0.0f32; m * n];
        let packed = qgemm::pack_b_i8(MatRef::row_major(&b, n), k, n);
        let reps = (256 / (size / 64).max(1).pow(2)).clamp(3, 20);
        for &threads in thread_counts {
            let pool = Pool::new(threads);
            let f32_ms = best_ms(reps, || {
                out.iter_mut().for_each(|v| *v = 0.0);
                gemm::gemm(
                    MatRef::row_major(&a, k),
                    MatRef::row_major(&b, n),
                    &mut out,
                    m,
                    k,
                    n,
                    &pool,
                );
                out[0]
            });
            let int8_ms = best_ms(reps, || {
                qgemm::gemm_i8_dequant(&a, &packed, &mut out, m, &pool);
                out[0]
            });
            rows.push(GemmMeasurement {
                size,
                threads,
                f32_ms,
                int8_ms,
                mean_quant_error: packed.mean_abs_error() as f64,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_sane_rows() {
        let rows = sweep(&[64], &[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.size, 64);
            assert!(r.f32_ms > 0.0 && r.int8_ms > 0.0);
            assert!(r.gflops() > 0.0);
            assert!(r.mean_quant_error > 0.0 && r.mean_quant_error < 0.1);
        }
    }

    #[test]
    fn json_row_carries_every_column() {
        let row = GemmMeasurement {
            size: 100,
            threads: 2,
            f32_ms: 2.0,
            int8_ms: 1.0,
            mean_quant_error: 0.004,
        };
        assert_eq!(
            row.json(),
            "{\"bench\": \"gemm\", \"size\": 100, \"threads\": 2, \"f32_ms\": 2.0000, \
             \"int8_ms\": 1.0000, \"gflops\": 1.00, \"mean_quant_error\": 0.004000}"
        );
    }
}
