//! GEMM sweep harness: times the blocked engine against the pre-blocking
//! naive kernel across sizes and thread counts, and emits a
//! `BENCH_kernels.json` summary so the kernel-performance trajectory is
//! tracked across PRs (run via `cargo bench -p acme-bench --bench
//! kernels`; `--quick` shrinks the sweep to a CI-sized smoke case).

use std::io::Write as _;
use std::time::Instant;

use acme_runtime::Pool;
use acme_tensor::gemm::{self, MatRef};
use acme_tensor::qgemm;

/// One timed configuration of the sweep.
#[derive(Debug, Clone)]
pub struct GemmMeasurement {
    /// Cubic problem size (`m = k = n = size`).
    pub size: usize,
    /// Worker threads handed to the blocked engine.
    pub threads: usize,
    /// Best-of-reps wall time of the pre-blocking reference kernel
    /// (single-threaded triple loop with the historical zero-skip
    /// branch), in milliseconds.
    pub naive_ms: f64,
    /// Best-of-reps wall time of the blocked engine, in milliseconds.
    pub blocked_ms: f64,
}

impl GemmMeasurement {
    /// Naive-over-blocked speedup.
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.blocked_ms
    }

    /// Blocked-engine throughput in GFLOP/s (2·n³ flops).
    pub fn gflops(&self) -> f64 {
        2.0 * (self.size as f64).powi(3) / (self.blocked_ms / 1e3) / 1e9
    }
}

/// The kernel this PR replaced, kept verbatim as the speedup baseline:
/// `ikj` loop order, zero-skip branch, unfused multiply-add.
fn seed_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
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

/// Times `size³` products for every `(size, threads)` combination. The
/// naive baseline is measured once per size (it is single-threaded by
/// construction) and re-reported per thread count for self-contained
/// rows. Repetitions scale down with the cube of the size so the sweep
/// stays bounded.
pub fn sweep(sizes: &[usize], thread_counts: &[usize]) -> Vec<GemmMeasurement> {
    let mut rows = Vec::new();
    for &size in sizes {
        let (m, k, n) = (size, size, size);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, size as u64);
        fill(&mut b, size as u64 ^ 0xBEEF);
        let mut out = vec![0.0f32; m * n];
        let reps = (256 / (size / 64).max(1).pow(2)).clamp(3, 20);
        let naive_ms = best_ms(reps, || {
            out.iter_mut().for_each(|v| *v = 0.0);
            seed_naive(&a, &b, &mut out, m, k, n);
            out[0]
        });
        for &threads in thread_counts {
            let pool = Pool::new(threads);
            let blocked_ms = best_ms(reps, || {
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
            rows.push(GemmMeasurement {
                size,
                threads,
                naive_ms,
                blocked_ms,
            });
        }
    }
    rows
}

/// One timed f32-vs-int8 configuration: both engines on the same
/// operands, weights prepacked in both cases (the serving steady state,
/// where the pack cache has already paid the one-time quantization).
#[derive(Debug, Clone)]
pub struct QGemmMeasurement {
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

impl QGemmMeasurement {
    /// f32-over-int8 speedup (how much faster the quantized engine is).
    pub fn speedup_vs_f32(&self) -> f64 {
        self.f32_ms / self.int8_ms
    }

    /// Int8-engine throughput in GOP/s (2·n³ MACs).
    pub fn gops(&self) -> f64 {
        2.0 * (self.size as f64).powi(3) / (self.int8_ms / 1e3) / 1e9
    }
}

/// Times the blocked f32 engine against the int8 quantized engine for
/// every `(size, threads)` combination. The f32 path is re-timed here
/// (rather than reusing [`sweep`]'s numbers) so both columns of a row
/// come from the same operands and the same run.
pub fn sweep_int8(sizes: &[usize], thread_counts: &[usize]) -> Vec<QGemmMeasurement> {
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
            rows.push(QGemmMeasurement {
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

/// Serializes both sweeps to one JSON array (hand-rolled — the bench
/// crate deliberately has no serialization dependency). f32 rows carry
/// the naive-vs-blocked comparison; int8 rows the f32-vs-int8 one. Both
/// kinds are tagged with a `dtype` discriminator.
fn to_json(rows: &[GemmMeasurement], qrows: &[QGemmMeasurement]) -> String {
    let mut s = String::from("[\n");
    let total = rows.len() + qrows.len();
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"bench\": \"gemm\", \"dtype\": \"f32\", \"size\": {}, \"threads\": {}, \
             \"naive_ms\": {:.4}, \"blocked_ms\": {:.4}, \
             \"speedup\": {:.3}, \"gflops\": {:.2}}}{}\n",
            r.size,
            r.threads,
            r.naive_ms,
            r.blocked_ms,
            r.speedup(),
            r.gflops(),
            if i + 1 < total { "," } else { "" }
        ));
    }
    for (i, r) in qrows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"bench\": \"gemm\", \"dtype\": \"int8\", \"size\": {}, \"threads\": {}, \
             \"f32_ms\": {:.4}, \"int8_ms\": {:.4}, \
             \"speedup_vs_f32\": {:.3}, \"gops\": {:.2}, \
             \"mean_quant_error\": {:.6}}}{}\n",
            r.size,
            r.threads,
            r.f32_ms,
            r.int8_ms,
            r.speedup_vs_f32(),
            r.gops(),
            r.mean_quant_error,
            if rows.len() + i + 1 < total { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

/// Writes the JSON summary to `path`, returning the serialized string.
pub fn write_json(
    path: &str,
    rows: &[GemmMeasurement],
    qrows: &[QGemmMeasurement],
) -> std::io::Result<String> {
    let json = to_json(rows, qrows);
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(json)
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
            assert!(r.naive_ms > 0.0 && r.blocked_ms > 0.0);
            assert!(r.gflops() > 0.0);
        }
    }

    #[test]
    fn int8_sweep_produces_sane_rows() {
        let rows = sweep_int8(&[64], &[1]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.f32_ms > 0.0 && r.int8_ms > 0.0);
        assert!(r.gops() > 0.0);
        assert!(r.mean_quant_error > 0.0 && r.mean_quant_error < 0.1);
    }

    #[test]
    fn json_is_well_formed() {
        let rows = vec![
            GemmMeasurement {
                size: 64,
                threads: 1,
                naive_ms: 1.0,
                blocked_ms: 0.5,
            },
            GemmMeasurement {
                size: 128,
                threads: 2,
                naive_ms: 8.0,
                blocked_ms: 2.0,
            },
        ];
        let qrows = vec![QGemmMeasurement {
            size: 256,
            threads: 1,
            f32_ms: 2.0,
            int8_ms: 1.0,
            mean_quant_error: 0.004,
        }];
        let json = to_json(&rows, &qrows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"bench\": \"gemm\"").count(), 3);
        assert_eq!(json.matches("\"dtype\": \"f32\"").count(), 2);
        assert_eq!(json.matches("\"dtype\": \"int8\"").count(), 1);
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"speedup_vs_f32\": 2.000"));
        assert_eq!(json.matches("},").count(), 2, "comma between rows only");
    }
}
