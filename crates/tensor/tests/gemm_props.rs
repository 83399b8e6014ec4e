//! Property-based tests of the blocked GEMM engine, one body run for
//! both dtype instantiations: the cache-blocked, multi-threaded driver,
//! over packed panels or (f32) a right operand read in place, must be
//! **bit-for-bit** identical to the kernel's naive oracle
//! (`gemm_naive` for `F32`, `gemm_i8_naive` on the same quantized
//! operands for `I8`) for every shape — edge tiles (dimensions not
//! divisible by any block size), degenerate `m = 1` / `n = 1` products,
//! empty `k = 0` reductions, depths past one `KC` block — for every lhs
//! view and into a non-zero `out`. The quantization-only properties of
//! the int8 path (half-step round trips, row-permutation equivariance)
//! live here too.

#![allow(clippy::disallowed_methods)]

use acme_check::{cases, Gen};
use acme_runtime::Pool;
use acme_tensor::gemm::{self, Kernel, MatRef, F32, KC, MC, MR, MR_WIDE, NR};
use acme_tensor::qgemm::{
    self, dequantize_acc, dequantize_rows, gemm_i8_naive, pack_b_i8, quantize_cols, quantize_rows,
    I8,
};
use acme_tensor::Array;

/// A buffer of deterministic values in roughly `[-2, 2]`, including exact
/// zeros (to exercise any zero-skipping temptation) and whole zero rows
/// (the maxabs = 0 quantization edge).
fn filled(len: usize, seed: u64, zero_row_stride: usize, cols: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let row = i / cols.max(1);
            let zero_row = zero_row_stride > 0 && row % zero_row_stride == zero_row_stride - 1;
            if zero_row || i % 13 == 5 {
                0.0
            } else {
                ((s >> 40) as f32 / (1u64 << 22) as f32) - 2.0
            }
        })
        .collect()
}

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    F32::oracle(a, b, &mut out, m, k, n);
    out
}

fn assert_bits_eq(x: &[f32], y: &[f32], ctx: &str) {
    assert_eq!(x.len(), y.len(), "{ctx}: length");
    for (i, (a, b)) in x.iter().zip(y).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: element {i}: {a} vs {b}");
    }
}

/// The one shape generator: `(m, n)` biased to straddle the MR/NR/MC
/// tile edges, and a depth that is short (with `k = 0` and the
/// depth-quad tails) three draws in four and straddles the `KC` block
/// edge otherwise.
fn dims(g: &mut Gen) -> (usize, usize, usize) {
    let (m, n) = (g.usize(1..MC + MR + 2), g.usize(1..2 * NR + 2));
    let (deep, k) = (g.usize(0..4), g.usize(0..96));
    (m, if deep == 0 { KC - 8 + k } else { k }, n)
}

/// What the engine ≡ oracle property needs of a dtype beyond its
/// [`Kernel`]: operands and an accumulator derived from f32 fills, the
/// naive oracle, and the bits two outputs are compared by.
trait Dtype: Kernel {
    fn lhs(a: &[f32], m: usize, k: usize) -> Vec<Self::Lhs>;
    fn rhs(b: &[f32], k: usize, n: usize) -> Vec<Self::B>;
    fn acc(init: &[f32]) -> Vec<Self::C>;
    fn oracle(a: &[Self::Lhs], b: &[Self::B], out: &mut [Self::C], m: usize, k: usize, n: usize);
    fn bits(c: Self::C) -> u32;
}

impl Dtype for F32 {
    fn lhs(a: &[f32], _: usize, _: usize) -> Vec<f32> {
        a.to_vec()
    }
    fn rhs(b: &[f32], _: usize, _: usize) -> Vec<f32> {
        b.to_vec()
    }
    fn acc(init: &[f32]) -> Vec<f32> {
        init.to_vec()
    }
    fn oracle(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let (a, b) = (MatRef::row_major(a, k), MatRef::row_major(b, n));
        gemm::gemm_naive(a, b, out, m, k, n);
    }
    fn bits(c: f32) -> u32 {
        c.to_bits()
    }
}

impl Dtype for I8 {
    fn lhs(a: &[f32], m: usize, k: usize) -> Vec<i8> {
        quantize_rows(a, m, k).0
    }
    fn rhs(b: &[f32], k: usize, n: usize) -> Vec<i8> {
        quantize_cols(MatRef::row_major(b, n), k, n).0
    }
    fn acc(init: &[f32]) -> Vec<i32> {
        init.iter().map(|v| (v * 1e9) as i32).collect()
    }
    fn oracle(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
        gemm_i8_naive(a, b, out, m, k, n);
    }
    fn bits(c: i32) -> u32 {
        c as u32
    }
}

/// The engine, forced down the blocked/packed path at 1, 2 and 4
/// threads, accumulates into a non-zero `out` exactly what the oracle
/// does, whichever way the lhs is laid out (`view`: 0 row-major,
/// 1 a transposed buffer, 2 rows embedded in a wider buffer).
fn engine_matches_oracle<D: Dtype>((m, k, n): (usize, usize, usize), view: usize, seed: u64)
where
    D::Lhs: Default,
{
    let a = D::lhs(&filled(m * k, seed, 4, k), m, k);
    let b = filled(k * n, seed ^ 0xABCD, 0, n);
    let init = D::acc(&filled(m * n, seed ^ 0x5EED, 0, n));
    let mut expect = init.clone();
    D::oracle(&a, &D::rhs(&b, k, n), &mut expect, m, k, n);

    let rs = k + 3;
    let mut store = vec![D::Lhs::default(); if view == 2 { m * rs } else { m * k }];
    for i in 0..m {
        for p in 0..k {
            let at = [i * k + p, p * m + i, i * rs + p][view];
            store[at] = a[i * k + p];
        }
    }
    let lhs = match view {
        0 => MatRef::row_major(&store, k),
        1 => MatRef::transposed(&store, m),
        _ => MatRef::strided(&store, rs, 1),
    };
    let pb = D::pack_b(MatRef::row_major(&b, n), k, n);
    for threads in [1usize, 2, 4] {
        let mut out = init.clone();
        gemm::gemm_prepacked(lhs, &pb, &mut out, m, &Pool::new(threads));
        for (i, (x, y)) in out.iter().zip(&expect).enumerate() {
            assert_eq!(
                D::bits(*x),
                D::bits(*y),
                "{m}x{k}x{n} view {view} t{threads}: element {i}"
            );
        }
    }
}

#[test]
fn f32_engine_bitwise_matches_oracle() {
    cases(48, |g| {
        let shape = dims(g);
        let view = g.usize(0..3);
        let seed = g.u64(0..1 << 48);
        engine_matches_oracle::<F32>(shape, view, seed);
    });
}

#[test]
fn int8_engine_bitwise_matches_oracle() {
    cases(48, |g| {
        let shape = dims(g);
        let view = g.usize(0..3);
        let seed = g.u64(0..1 << 48);
        engine_matches_oracle::<I8>(shape, view, seed);
    });
}

/// The dequantized f32 output of the int8 engine — from its own
/// accumulator and packed scales, and through the one-call
/// f32-in/f32-out entry point — matches the scalar quantized oracle
/// bitwise.
#[test]
fn int8_dequantized_output_bitwise_matches_oracle() {
    cases(48, |g| {
        let (m, k, n) = dims(g);
        let seed = g.u64(0..1 << 48);
        let a = filled(m * k, seed, 4, k);
        let b = filled(k * n, seed ^ 0xABCD, 0, n);
        let (qa, sa) = quantize_rows(&a, m, k);
        let (qb, sb) = quantize_cols(MatRef::row_major(&b, n), k, n);
        let mut acc_ref = vec![0i32; m * n];
        gemm_i8_naive(&qa, &qb, &mut acc_ref, m, k, n);
        let mut out_ref = vec![0.0f32; m * n];
        dequantize_acc(&acc_ref, &sa, &sb, &mut out_ref, m, n);

        let pb = pack_b_i8(MatRef::row_major(&b, n), k, n);
        for threads in [1usize, 2, 4] {
            let mut acc = vec![0i32; m * n];
            qgemm::gemm_i8_prepacked(&qa, &pb, &mut acc, m, &Pool::new(threads));
            assert_eq!(
                &acc, &acc_ref,
                "{}x{}x{} t{}: accumulator",
                m, k, n, threads
            );
            let mut out = vec![0.0f32; m * n];
            dequantize_acc(&acc, &sa, pb.scales(), &mut out, m, n);
            assert_bits_eq(&out, &out_ref, &format!("{m}x{k}x{n} t{threads}: f32"));
        }
        let mut out = vec![0.0f32; m * n];
        qgemm::gemm_i8_dequant(&a, &pb, &mut out, m, &Pool::new(2));
        assert_bits_eq(&out, &out_ref, "dequant entry");
    });
}

/// The row-major `rows x cols` buffer of `src`'s transpose.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| src[(i % rows) * cols + i / rows])
        .collect()
}

/// The `rows x cols` row-major `src` with each row padded to `rs` with
/// NaN, which any read past a row's end would carry into the output.
fn padded(src: &[f32], rows: usize, cols: usize, rs: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; rows * rs];
    for i in 0..rows {
        out[i * rs..i * rs + cols].copy_from_slice(&src[i * cols..(i + 1) * cols]);
    }
    out
}

/// `gemm::gemm`, the one f32 product, gives `gemm_naive`'s bits on
/// every side of its row rule: `m` from 0 through two wide tiles and
/// one (the narrow tile below `MR_WIDE` and the wide tile from there,
/// with every partial row panel; for a strided `b`, the naive loop below
/// `MR`), crossed with
/// empty, short, tile-straddling and long depths and widths — around
/// the `NR` panels (full, and a partial last panel read through its
/// padded scratch) and, at the tile edges, depths around `KC` — for
/// row-major operands (read in place), the backward's `aᵀ·b` and `a·bᵀ`
/// views (the latter packed) and NaN-padded row-major views, where any
/// read past a row's `n` columns would show, into a non-zero `out`, at
/// 1, 2 and 4 threads.
#[test]
fn dispatch_matches_naive_around_every_tile_edge() {
    let depths = [0, 1, 2, 7, NR - 1, NR + 1, 100, KC - 1, KC + 1];
    let widths = [0, 1, 2, 7, NR - 1, NR, NR + 1, 100, 3 * NR];
    for m in 0..=2 * MR_WIDE + 1 {
        for (k, n) in depths.iter().flat_map(|&k| widths.map(|n| (k, n))) {
            // The depths around KC run at the tile edges only.
            if k >= KC - 1 && ![0, 1, MR - 1, MR, MR_WIDE - 1, MR_WIDE, MR_WIDE + 1].contains(&m) {
                continue;
            }
            let seed = (m * 10_007 + k * 101 + n) as u64;
            let a = filled(m * k, seed, 4, k);
            let b = filled(k * n, seed ^ 0x1234, 0, n);
            let init = filled(m * n, seed ^ 0x5EED, 0, n);
            let mut expect = init.clone();
            F32::oracle(&a, &b, &mut expect, m, k, n);
            let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
            let (a_wide, b_wide) = (padded(&a, m, k, k + 3), padded(&b, k, n, n + 5));
            let views = [
                ("a·b", MatRef::row_major(&a, k), MatRef::row_major(&b, n)),
                ("aᵀ·b", MatRef::transposed(&at, m), MatRef::row_major(&b, n)),
                ("a·bᵀ", MatRef::row_major(&a, k), MatRef::transposed(&bt, k)),
                (
                    "padded",
                    MatRef::strided(&a_wide, k + 3, 1),
                    MatRef::strided(&b_wide, n + 5, 1),
                ),
            ];
            for threads in [1, 2, 4] {
                for (name, lhs, rhs) in views {
                    let mut out = init.clone();
                    gemm::gemm(lhs, rhs, &mut out, m, k, n, &Pool::new(threads));
                    assert_bits_eq(&out, &expect, &format!("{name} {m}x{k}x{n} t{threads}"));
                }
            }
        }
    }
}

/// A product big enough to fork (past `F32::PARALLEL_MIN_MACS`) reads
/// its row-major `b` in place on every thread and gives `gemm_naive`'s
/// bits, at the wide tile with a partial last row panel and column
/// panel.
#[test]
fn forked_in_place_product_matches_naive() {
    let (m, k, n) = (2 * MC + MR_WIDE + 3, KC + 5, 11 * NR + 7);
    assert!(m * k * n >= F32::PARALLEL_MIN_MACS);
    let a = filled(m * k, 91, 4, k);
    let b = filled(k * n, 92, 0, n);
    let init = filled(m * n, 93, 0, n);
    let mut expect = init.clone();
    F32::oracle(&a, &b, &mut expect, m, k, n);
    let b_wide = padded(&b, k, n, n + 1);
    for threads in [1, 2, 4] {
        let mut out = init.clone();
        let (lhs, rhs) = (MatRef::row_major(&a, k), MatRef::strided(&b_wide, n + 1, 1));
        gemm::gemm(lhs, rhs, &mut out, m, k, n, &Pool::new(threads));
        assert_bits_eq(&out, &expect, &format!("{m}x{k}x{n} t{threads}"));
    }
}

/// The public dispatching entry point (which may pick the naive or
/// the blocked kernel by rows) is also bitwise-stable vs the oracle.
#[test]
fn dispatched_gemm_bitwise_matches_naive() {
    cases(48, |g| {
        let m = g.usize(1..40);
        let k = g.usize(0..40);
        let n = g.usize(1..40);
        let seed = g.u64(0..1 << 48);
        let a = filled(m * k, seed, 0, k);
        let b = filled(k * n, seed ^ 0x1234, 0, n);
        let expect = naive(&a, &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        gemm::gemm(
            MatRef::row_major(&a, k),
            MatRef::row_major(&b, n),
            &mut out,
            m,
            k,
            n,
            &Pool::new(3),
        );
        assert_bits_eq(&out, &expect, &format!("dispatch {m}x{k}x{n}"));
    });
}

/// `Array::matmul` (which routes through the engine and the global
/// pool) agrees bitwise with the reference kernel, and
/// `Array::batch_matmul` agrees with per-batch 2-D products.
#[test]
fn array_matmul_and_batched_match_reference() {
    cases(48, |g| {
        let batch = g.usize(1..4);
        let m = g.usize(1..12);
        let k = g.usize(1..12);
        let n = g.usize(1..12);
        let seed = g.u64(0..1 << 48);
        let a = filled(batch * m * k, seed, 0, k);
        let b = filled(batch * k * n, seed ^ 0x77, 0, n);
        let av = Array::from_vec(a.clone(), &[batch, m, k]).unwrap();
        let bv = Array::from_vec(b.clone(), &[batch, k, n]).unwrap();
        let out = av.batch_matmul(&bv).unwrap();
        for bi in 0..batch {
            let expect = naive(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
            );
            assert_bits_eq(
                &out.data()[bi * m * n..(bi + 1) * m * n],
                &expect,
                &format!("batch {bi}"),
            );
        }
        // 2-D matmul of the first batch element.
        let a0 = Array::from_vec(a[..m * k].to_vec(), &[m, k]).unwrap();
        let b0 = Array::from_vec(b[..k * n].to_vec(), &[k, n]).unwrap();
        let m0 = a0.matmul(&b0).unwrap();
        assert_bits_eq(
            m0.data(),
            &naive(&a[..m * k], &b[..k * n], m, k, n),
            "matmul",
        );
    });
}

/// A weight read again is read the same way: the f32 product against a
/// row-major weight (in place) and the int8 product against its cached
/// pack are each bitwise-stable across repeated uses, and the packed f32
/// driver on the weight's panels gives the in-place product's bits.
#[test]
fn prepacked_reuse_is_bitwise_stable() {
    cases(48, |g| {
        let m = g.usize(1..32);
        let k = g.usize(1..48);
        let n = g.usize(1..64);
        let seed = g.u64(0..1 << 48);
        let a = filled(m * k, seed, 0, k);
        let b = filled(k * n, seed ^ 0xF00D, 0, n);
        let av = Array::from_vec(a.clone(), &[m, k]).unwrap();
        let bv = Array::from_vec(b.clone(), &[k, n]).unwrap();
        let first = av.matmul(&bv).unwrap();
        assert_bits_eq(first.data(), av.matmul(&bv).unwrap().data(), "f32 reuse");
        let pb = gemm::pack_b(MatRef::row_major(&b, n), k, n);
        let mut packed = vec![0.0f32; m * n];
        gemm::gemm_prepacked(MatRef::row_major(&a, k), &pb, &mut packed, m, &Pool::new(2));
        assert_bits_eq(first.data(), &packed, "packed f32 vs in place");
        let qb = pack_b_i8(MatRef::row_major(&b, n), k, n);
        let q1 = av.matmul_prepacked(&qb).unwrap();
        let q2 = av.matmul_prepacked(&qb).unwrap();
        assert_bits_eq(q1.data(), q2.data(), "int8 reuse");
        let mut oracle = vec![0.0f32; m * n];
        qgemm::gemm_i8_dequant(&a, &qb, &mut oracle, m, &Pool::serial());
        assert_bits_eq(q1.data(), &oracle, "int8 vs its entry");
    });
}

/// Symmetric per-row quantization round-trips within half a
/// quantization step per element (`scale / 2`, plus f32 slack), and
/// all-zero rows round-trip exactly.
#[test]
fn quantize_round_trip_is_half_step_bounded() {
    cases(48, |g| {
        let rows = g.usize(1..24);
        let cols = g.usize(1..64);
        let seed = g.u64(0..1 << 48);
        let zero_stride = g.usize(0..5);
        let src = filled(rows * cols, seed, zero_stride, cols);
        let (q, scales) = quantize_rows(&src, rows, cols);
        let back = dequantize_rows(&q, &scales, rows, cols);
        for i in 0..rows {
            let bound = scales[i] * 0.5 + 1e-6;
            for j in 0..cols {
                let err = (back[i * cols + j] - src[i * cols + j]).abs();
                assert!(err <= bound, "row {i} col {j}: err {err} > bound {bound}");
            }
        }
    });
}

/// Per-row quantization is equivariant under row permutation:
/// quantizing a row-rotated matrix yields the rotated codes and the
/// rotated scales, bitwise. (Each row's scale depends only on that
/// row, never on its neighbours.)
#[test]
fn row_scales_are_permutation_equivariant() {
    cases(48, |g| {
        let rows = g.usize(2..16);
        let cols = g.usize(1..48);
        let rot = g.usize(1..16) % rows;
        let seed = g.u64(0..1 << 48);
        let src = filled(rows * cols, seed, 3, cols);
        let (q, scales) = quantize_rows(&src, rows, cols);
        // Rotate rows by `rot` and quantize the permuted matrix.
        let mut permuted = vec![0.0f32; rows * cols];
        for i in 0..rows {
            let p = (i + rot) % rows;
            permuted[i * cols..(i + 1) * cols].copy_from_slice(&src[p * cols..(p + 1) * cols]);
        }
        let (qp, sp) = quantize_rows(&permuted, rows, cols);
        for i in 0..rows {
            let p = (i + rot) % rows;
            assert_eq!(
                sp[i].to_bits(),
                scales[p].to_bits(),
                "scale of permuted row {} vs source row {}",
                i,
                p
            );
            assert_eq!(
                &qp[i * cols..(i + 1) * cols],
                &q[p * cols..(p + 1) * cols],
                "codes of permuted row {} vs source row {}",
                i,
                p
            );
        }
    });
}
