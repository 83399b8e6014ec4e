//! Int8 quantized GEMM: [`I8`], the second [`Kernel`] instantiation of
//! the blocked engine in [`crate::gemm`]. This file holds what is int8's
//! own — quantization, the quad-interleaved pack layouts, the scalar and
//! VNNI microkernels, the bias correction — and the scalar oracle; the
//! loop nest, panel addressing, partial tiles and the row split are the
//! generic driver's ([`gemm_prepacked`]).
//!
//! The pipeline is symmetric per-row quantization on both operands,
//! exact 32-bit integer accumulation, and a single dequantization pass
//! on the accumulator:
//!
//! * the **activation** operand `a[m, k]` is quantized per row: row `i`
//!   carries one scale `sa[i] = maxabs_i / 127` and the int8 row
//!   `round(a[i, :] * 127 / maxabs_i)`;
//! * the **weight** operand `b[k, n]` is quantized per *output channel*
//!   — one scale per column of the logical `[k, n]` matrix, which is a
//!   *row* of the output-major packed panel layout the microkernel
//!   streams (see [`pack_b_i8`]);
//! * the product accumulates in `i32` (`acc[i, j] = Σ_k qa[i,k]·qb[k,j]`)
//!   and dequantizes once: `out[i, j] = acc[i, j] as f32 · (sa[i]·sb[j])`.
//!
//! # Determinism
//!
//! Integer addition is associative and commutative, and the wrapping
//! behaviour of `i32` addition is identical across the scalar reference,
//! the blocked kernels, and the AVX-512 VNNI kernel. The blocked,
//! packed, and multi-threaded paths are therefore **bit-identical** to
//! the scalar oracle [`gemm_i8_naive`] at any thread count and block
//! size — stronger than the f32 path, where identity requires a fixed
//! accumulation order. The only floating-point steps (quantization and
//! the final dequantization) are shared single-expression kernels, so
//! the f32 outputs agree bitwise too.
//!
//! # Packed layout and the VNNI kernel
//!
//! [`PackedBI8`] stores `KC`-deep, [`NR`]-wide panels like
//! [`crate::gemm::PackedB`] (both are [`Packed`]), but
//! **quad-interleaved** ([`Kernel::KP`]` = 4`): four consecutive
//! depth steps of one column sit adjacent as four `i8`s, exactly the
//! operand shape of `vpdpbusd` (AVX-512 VNNI), which multiplies 64
//! byte pairs and accumulates 16 `i32` lanes in one instruction — four
//! times the multiply-add throughput of the f32 FMA kernel, at one
//! byte per weight in the panel stream.
//!
//! `vpdpbusd` multiplies *unsigned* bytes by signed bytes, so the
//! signed activation codes are biased by `+128` into `u8` at pack time
//! (`qa + 128`), and the surplus `128 · Σ_k qb[k, j]` is subtracted
//! from each output column after accumulation. The per-column sums are
//! precomputed once at weight-pack time ([`PackedBI8`] carries them
//! premultiplied), and because `i32` addition wraps identically
//! everywhere, the corrected result equals `Σ_k qa·qb` *bitwise* — the
//! scalar oracle never sees the bias trick.

use acme_runtime::Pool;

use crate::gemm::{gemm_prepacked, Kernel, MatRef, Packed, MR, NR};

/// Quantized values live in `[-QMAX, QMAX]`; the symmetric range keeps
/// `-q` representable so sign-flipped inputs quantize to flipped codes.
const QMAX: f32 = 127.0;

/// Serving precision of a model variant: which GEMM instantiation its
/// frozen weight products run through.
///
/// `F32` is the default and leaves every code path exactly as it was;
/// `Int8` routes pack-cache-eligible products through the quantized
/// engine in this module. Training always runs `F32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 kernels (bit-identical to the historical path).
    #[default]
    F32,
    /// Int8 kernels: i8 operands, i32 accumulation, per-row scales.
    Int8,
}

impl Precision {
    /// Stable lowercase label (used in bench rows and CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parses the [`Precision::label`] form (`"f32"` / `"int8"`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f32" => Some(Precision::F32),
            "int8" => Some(Precision::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The largest f32 below one half, `0.5 - 2^-25`.
const HALF_BELOW: f32 = 0.499_999_97;

/// `x` rounded to the nearest integer, halves away from zero: bitwise
/// [`f32::round`] for every input, but a branch-free add and truncate
/// rather than a libm call, so a loop of it vectorizes. Adding just
/// under one half, with `x`'s sign, carries `x` past the next integer
/// exactly when its fraction is at least one half (a fraction of one
/// half rounds the sum up to the integer; anything less stays below
/// it), and the truncation drops the rest. From 2^23 up every f32 is an
/// integer, and the sum rounds back to `x`.
#[inline(always)]
fn round_half_away(x: f32) -> f32 {
    (x + HALF_BELOW.copysign(x)).trunc()
}

/// Quantizes one slice symmetrically against `maxabs`: returns the int8
/// code of `v` under scale `maxabs / QMAX`. A zero `maxabs` (all-zero
/// row) maps everything to code 0 under scale 0.0, which dequantizes
/// exactly. Shared by every quantization entry point so the oracle and
/// the packed path agree bitwise.
#[inline(always)]
fn quantize_one(v: f32, inv_scale: f32) -> i8 {
    round_half_away(v * inv_scale).clamp(-QMAX, QMAX) as i8
}

/// Row `p` of `b`, `n` wide: borrowed when the view's columns are
/// contiguous, gathered into `scratch` otherwise.
fn row_of<'s>(b: MatRef<'s>, p: usize, n: usize, scratch: &'s mut Vec<f32>) -> &'s [f32] {
    if let Some(row) = b.row(p, n) {
        return row;
    }
    scratch.clear();
    scratch.extend((0..n).map(|j| b.at(p, j)));
    scratch
}

/// The `(inv_scale, scale)` pair for a maxabs. Both directions are kept
/// explicit (they are not exact reciprocals in f32) so every caller uses
/// the same two constants.
#[inline(always)]
fn scales_for(maxabs: f32) -> (f32, f32) {
    if maxabs > 0.0 {
        (QMAX / maxabs, maxabs / QMAX)
    } else {
        (0.0, 0.0)
    }
}

/// Symmetric per-row quantization of a row-major `rows x cols` matrix:
/// returns the int8 codes (same layout) and one scale per row.
/// Dequantization is `q[i, j] as f32 * scales[i]`.
pub fn quantize_rows(src: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(src.len(), rows * cols, "quantize_rows: buffer size");
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows];
    for i in 0..rows {
        let row = &src[i * cols..(i + 1) * cols];
        let maxabs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let (inv, scale) = scales_for(maxabs);
        scales[i] = scale;
        for (qv, &v) in q[i * cols..(i + 1) * cols].iter_mut().zip(row) {
            *qv = quantize_one(v, inv);
        }
    }
    (q, scales)
}

/// Symmetric per-output-channel quantization of a `k x n` weight view:
/// returns row-major int8 codes and one scale per column (output
/// channel). This is the "per-row" layout of the packed panels: each
/// output channel's codes form one contiguous row of the panel stream.
pub fn quantize_cols(b: MatRef<'_>, k: usize, n: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; k * n];
    let mut scales = vec![0.0f32; n];
    for j in 0..n {
        let mut maxabs = 0.0f32;
        for p in 0..k {
            maxabs = maxabs.max(b.at(p, j).abs());
        }
        let (inv, scale) = scales_for(maxabs);
        scales[j] = scale;
        for p in 0..k {
            q[p * n + j] = quantize_one(b.at(p, j), inv);
        }
    }
    (q, scales)
}

/// Dequantizes int8 codes back to f32 under per-row scales (the inverse
/// direction of [`quantize_rows`], used by round-trip tests and error
/// accounting).
pub fn dequantize_rows(q: &[i8], scales: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(q.len(), rows * cols, "dequantize_rows: buffer size");
    assert_eq!(scales.len(), rows, "dequantize_rows: scale count");
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[i * cols + j] = q[i * cols + j] as f32 * scales[i];
        }
    }
    out
}

/// Dequantizes the i32 accumulator into f32 outputs:
/// `out[i, j] = acc[i, j] as f32 * (sa[i] * sb[j])`. One shared kernel,
/// so every code path performs the identical float expression.
pub fn dequantize_acc(acc: &[i32], sa: &[f32], sb: &[f32], out: &mut [f32], m: usize, n: usize) {
    assert_eq!(acc.len(), m * n, "dequantize_acc: accumulator size");
    assert_eq!(out.len(), m * n, "dequantize_acc: output size");
    assert_eq!(sa.len(), m, "dequantize_acc: row scales");
    assert_eq!(sb.len(), n, "dequantize_acc: column scales");
    for i in 0..m {
        let row_scale = sa[i];
        let acc_row = &acc[i * n..(i + 1) * n];
        let out_row = &mut out[i * n..(i + 1) * n];
        for j in 0..n {
            let s = row_scale * sb[j];
            out_row[j] = acc_row[j] as f32 * s;
        }
    }
}

/// Depth steps consumed per microkernel iteration (one `i8` quad).
const KP: usize = 4;

/// The int8 instantiation of the engine: quad-interleaved panels, `u8`
/// activation codes against `i8` weight codes, `i32` accumulation.
#[derive(Debug, Clone, Copy)]
pub struct I8;

/// A weight matrix quantized to int8 and packed into quad-interleaved,
/// `NR`-wide column panels for the VNNI microkernel (see the module
/// docs for the layout), with its [`Quant`] side data.
pub type PackedBI8 = Packed<I8>;

/// What an int8-packed weight carries beside its panels: the
/// per-output-channel scales, the premultiplied `u8`-bias corrections,
/// and the mean absolute quantization error of the weights it encodes.
#[derive(Debug, Clone, Default)]
pub struct Quant {
    /// One scale per output channel (column of the logical `[k, n]`).
    scales: Vec<f32>,
    /// `128 · Σ_k qb[k, j]` per output channel (wrapping i32): the
    /// surplus the biased-`u8` activation path accumulates, subtracted
    /// once per output after the depth loop.
    col_bias: Vec<i32>,
    /// Mean `|dequantized - original|` over all `k * n` weights.
    mean_abs_error: f32,
}

impl Packed<I8> {
    /// Per-output-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.extra.scales
    }

    /// Mean absolute quantization error of the encoded weights.
    pub fn mean_abs_error(&self) -> f32 {
        self.extra.mean_abs_error
    }
}

impl Kernel for I8 {
    type Lhs = i8;
    type A = u8;
    type B = i8;
    type C = i32;
    type Extra = Quant;

    const KP: usize = KP;
    /// The int8 kernel retires 2.1–2.7x the multiply-adds per second of
    /// the f32 one, so the same ≈1.5 ms of serial kernel time — some 20
    /// fork/joins of 50–75 µs, the margin `F32::PARALLEL_MIN_MACS`
    /// keeps — is twice the work.
    const PARALLEL_MIN_MACS: usize = 1 << 27;
    const TIMER: &'static str = "tensor.gemm.i8";

    /// Quantizes the weight view per output channel and packs the codes
    /// `[quad][column][4]`, in two passes over its rows in storage order:
    /// the per-column maxabs, then each row's codes, bias sums, error
    /// terms and panel bytes. Every column meets its rows in the order a
    /// column walk would, and the f64 error sum keeps the row-major
    /// order it always had, so the pack is bitwise that of
    /// [`quantize_cols`] followed by a sweep over the codes.
    fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> PackedBI8 {
        let _t = acme_obs::timer!("tensor.gemm.i8.pack_b", "k" => k, "n" => n);
        let mut scratch = Vec::new();
        let mut maxabs = vec![0.0f32; n];
        for p in 0..k {
            for (m, &v) in maxabs.iter_mut().zip(row_of(b, p, n, &mut scratch)) {
                *m = m.max(v.abs());
            }
        }
        let (inv, scales): (Vec<f32>, Vec<f32>) = maxabs.into_iter().map(scales_for).unzip();

        // `128 · Σ_k qb[k, j]` per output channel corrects the `u8`
        // activation trick, accumulated with the same wrapping i32
        // arithmetic the kernels use.
        let mut col_bias = vec![0i32; n];
        let mut err_sum = 0.0f64;
        let (mut codes, mut errs) = (vec![0i8; n], vec![0.0f32; n]);
        let mut packed = Packed::zeroed(k, n, Quant::default());
        for p in 0..k {
            let row = row_of(b, p, n, &mut scratch);
            for ((q, &v), &inv) in codes.iter_mut().zip(row).zip(&inv) {
                *q = quantize_one(v, inv);
            }
            for (bias, &q) in col_bias.iter_mut().zip(&codes) {
                *bias = bias.wrapping_add(q as i32);
            }
            for (((e, &q), &v), &scale) in errs.iter_mut().zip(&codes).zip(row).zip(&scales) {
                *e = (q as f32 * scale - v).abs();
            }
            for &e in &errs {
                err_sum += e as f64;
            }
            // Depth tails stay zero-padded: a zero weight byte
            // contributes exact zero whatever the activation byte.
            packed.scatter_row(p, &codes);
        }
        for bias in &mut col_bias {
            *bias = bias.wrapping_mul(128);
        }
        packed.extra = Quant {
            scales,
            col_bias,
            mean_abs_error: (err_sum / (k * n).max(1) as f64) as f32,
        };
        packed
    }

    /// Panels are ordered `[panel][quad][row][4]`, each code biased by
    /// `+128` into `u8` for the `vpdpbusd` operand shape. Padding (past
    /// the last row or the depth tail) stays at the biased zero `0x80`;
    /// tail products still vanish because the weight panel pads with
    /// zero bytes.
    fn pack_a(a: MatRef<'_, i8>, i0: usize, mb: usize, p0: usize, kcb: usize, buf: &mut Vec<u8>) {
        let panels = mb.div_ceil(MR);
        let kcp = kcb.div_ceil(KP);
        buf.clear();
        buf.resize(panels * kcp * MR * KP, 0x80);
        for ip in 0..panels {
            let r0 = i0 + ip * MR;
            let mrb = MR.min(i0 + mb - r0);
            let base = ip * kcp * MR * KP;
            for p4 in 0..kcp {
                let c0 = p0 + p4 * KP;
                let dst = base + p4 * MR * KP;
                for r in 0..mrb {
                    for t in 0..KP.min(p0 + kcb - c0) {
                        buf[dst + r * KP + t] = (a.at(r0 + r, c0 + t) as u8) ^ 0x80;
                    }
                }
            }
        }
    }

    /// Scalar form: `pa` carries `+128`-biased `u8` codes ([`Self::finish`]
    /// subtracts the per-column bias after the depth loop). Each quad dot
    /// product (`4 · 255 · 127`) fits `i32` exactly, matching
    /// `vpdpbusd`'s internal arithmetic, and the accumulator wraps
    /// identically — the two kernels are bit-interchangeable.
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512vnni"
    )))]
    #[inline(always)]
    fn microkernel(pa: &[u8], pb: &[i8], kcp: usize, out: &mut [i32], ldc: usize) {
        let mut acc = [[0i32; NR]; MR];
        for (ap, bp) in pa[..kcp * MR * KP]
            .chunks_exact(MR * KP)
            .zip(pb[..kcp * NR * KP].chunks_exact(NR * KP))
        {
            for (r, row) in acc.iter_mut().enumerate() {
                let a = &ap[r * KP..(r + 1) * KP];
                for (c, cell) in row.iter_mut().enumerate() {
                    let b = &bp[c * KP..(c + 1) * KP];
                    let mut dot = 0i32;
                    for t in 0..KP {
                        dot += a[t] as i32 * b[t] as i32;
                    }
                    *cell = cell.wrapping_add(dot);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let o = &mut out[r * ldc + c];
                *o = o.wrapping_add(v);
            }
        }
    }

    /// AVX-512 VNNI form: a 4×48 i32 accumulator block in twelve zmm
    /// registers, one `vpdpbusd` (64 byte multiplies + 16 i32
    /// accumulates) per accumulator per depth *quad* — four times the
    /// multiply-add density of the f32 FMA kernel. The four per-lane
    /// byte products each fit `i16` (`255 · 127`), their sum accumulates
    /// into `i32` without saturation, and integer accumulation wraps
    /// exactly like the scalar form, so the result is bit-identical to it.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512vnni"
    ))]
    #[inline(always)]
    fn microkernel(pa: &[u8], pb: &[i8], kcp: usize, out: &mut [i32], ldc: usize) {
        use core::arch::x86_64::*;
        assert!(pa.len() >= kcp * MR * KP && pb.len() >= kcp * NR * KP);
        assert!(out.len() >= (MR - 1) * ldc + NR);
        // SAFETY: avx512f/avx512vnni are compile-time-enabled under this
        // cfg; all pointer arithmetic stays inside the slices per the
        // asserts above, and every multi-byte access goes through
        // unaligned loads/stores.
        unsafe {
            let o = out.as_mut_ptr();
            let mut acc = [[_mm512_setzero_si512(); 3]; MR];
            let mut ap = pa.as_ptr() as *const i32; // one u8 quad per i32
            let mut bp = pb.as_ptr() as *const i32;
            for _ in 0..kcp {
                let b0 = _mm512_loadu_si512(bp as *const __m512i);
                let b1 = _mm512_loadu_si512(bp.add(16) as *const __m512i);
                let b2 = _mm512_loadu_si512(bp.add(32) as *const __m512i);
                for (r, row) in acc.iter_mut().enumerate() {
                    let a = _mm512_set1_epi32(core::ptr::read_unaligned(ap.add(r)));
                    row[0] = _mm512_dpbusd_epi32(row[0], a, b0);
                    row[1] = _mm512_dpbusd_epi32(row[1], a, b1);
                    row[2] = _mm512_dpbusd_epi32(row[2], a, b2);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, cell) in row.iter().enumerate() {
                    let dst = o.add(r * ldc + v * 16);
                    let prev = _mm512_loadu_si512(dst as *const __m512i);
                    _mm512_storeu_si512(dst as *mut __m512i, _mm512_add_epi32(prev, *cell));
                }
            }
        }
    }

    /// Subtracts the per-column `u8`-bias surplus so the result equals
    /// the pure `Σ qa·qb` the oracle computes.
    fn finish(quant: &Quant, out: &mut [i32], n: usize) {
        for out_row in out.chunks_exact_mut(n) {
            for (o, &bias) in out_row.iter_mut().zip(&quant.col_bias) {
                *o = o.wrapping_sub(bias);
            }
        }
    }

    /// Per-row quantization of `a`, the blocked int8 engine, and the
    /// shared dequantization into `out`.
    fn gemm_f32(a: &[f32], pb: &PackedBI8, out: &mut [f32], m: usize, pool: &Pool) {
        let (k, n) = (pb.k(), pb.n());
        assert_eq!(a.len(), m * k, "gemm_i8_dequant: lhs size");
        assert_eq!(out.len(), m * n, "gemm_i8_dequant: output size");
        if m == 0 || n == 0 {
            return;
        }
        let (qa, sa) = quantize_rows(a, m, k);
        let mut acc = vec![0i32; m * n];
        gemm_i8_prepacked(&qa, pb, &mut acc, m, pool);
        dequantize_acc(&acc, &sa, pb.scales(), out, m, n);
    }
}

/// Quantizes a logical `k x n` weight view per output channel and packs
/// it into [`PackedBI8`] layout.
pub fn pack_b_i8(b: MatRef<'_>, k: usize, n: usize) -> PackedBI8 {
    I8::pack_b(b, k, n)
}

/// Reference kernel and bitwise oracle: the naive triple loop over the
/// *same* quantized operands, `i32` wrapping accumulation. The blocked
/// and SIMD paths must match this exactly at any thread count.
pub fn gemm_i8_naive(qa: &[i8], qb: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(qa.len(), m * k, "gemm_i8_naive: lhs size");
    assert_eq!(qb.len(), k * n, "gemm_i8_naive: rhs size");
    assert_eq!(out.len(), m * n, "gemm_i8_naive: output size");
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let av = qa[i * k + p] as i32;
            let b_row = &qb[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = o.wrapping_add(av * bv as i32);
            }
        }
    }
}

/// `out[m, n] += qa[m, k] · pb[k, n]` over int8 operands with i32
/// accumulation: the blocked driver ([`gemm_prepacked`]) on a row-major
/// lhs. Bit-identical to [`gemm_i8_naive`] on the same quantized
/// operands at any thread count.
pub fn gemm_i8_prepacked(qa: &[i8], pb: &PackedBI8, out: &mut [i32], m: usize, pool: &Pool) {
    assert_eq!(qa.len(), m * pb.k(), "gemm_i8_prepacked: lhs size");
    #[expect(clippy::disallowed_methods, reason = "the int8 driver call")]
    gemm_prepacked(MatRef::row_major(qa, pb.k()), pb, out, m, pool);
}

/// The full quantized product for an f32 activation block against a
/// pre-packed int8 weight ([`I8`]'s [`Kernel::gemm_f32`]): the serving
/// fast path behind `Array::matmul_prepacked`.
pub fn gemm_i8_dequant(a: &[f32], pb: &PackedBI8, out: &mut [f32], m: usize, pool: &Pool) {
    I8::gemm_f32(a, pb, out, m, pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::fill;
    use crate::gemm::{KC, MC};

    /// The scalar quantized oracle: shared quantization, naive i32
    /// product, shared dequantization.
    fn oracle(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (Vec<i32>, Vec<f32>) {
        let (qa, sa) = quantize_rows(a, m, k);
        let (qb, sb) = quantize_cols(MatRef::row_major(b, n), k, n);
        let mut acc = vec![0i32; m * n];
        gemm_i8_naive(&qa, &qb, &mut acc, m, k, n);
        let mut out = vec![0.0f32; m * n];
        dequantize_acc(&acc, &sa, &sb, &mut out, m, n);
        (acc, out)
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        // Shapes straddling every blocking edge, including odd depths
        // (the quad-interleaved layout zero-pads the depth tail); the
        // last is past `PARALLEL_MIN_MACS`, so 2 and 4 threads really
        // split its rows.
        let shapes = [
            (1, 1, 1),
            (1, 7, 1),
            (3, 5, 5),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC, 17, NR * 3),
            (MC + MR - 1, KC - 1, NR * 2 - 3),
            (2 * MC + 3, KC + 5, 37),
            (65, 301, 41),
            (2 * MC + 3, 2 * KC + 5, 512),
        ];
        for &(m, k, n) in &shapes {
            let mut a = vec![0.0; m * k];
            let mut b = vec![0.0; k * n];
            fill(&mut a, (m * 31 + k * 7 + n) as u64);
            fill(&mut b, (m + k * 13 + n * 3) as u64);
            let (acc_ref, out_ref) = oracle(&a, &b, m, k, n);
            let pb = pack_b_i8(MatRef::row_major(&b, n), k, n);
            let (qa, sa) = quantize_rows(&a, m, k);
            for threads in [1, 2, 4] {
                let mut acc = vec![0i32; m * n];
                gemm_i8_prepacked(&qa, &pb, &mut acc, m, &Pool::new(threads));
                assert_eq!(acc, acc_ref, "{m}x{k}x{n} t{threads}: i32 accumulator");
                let mut out = vec![0.0f32; m * n];
                dequantize_acc(&acc, &sa, pb.scales(), &mut out, m, n);
                for (i, (x, y)) in out.iter().zip(&out_ref).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{m}x{k}x{n} t{threads}: f32 element {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_round_trip_is_bounded_by_half_step() {
        let mut src = vec![0.0f32; 13 * 29];
        fill(&mut src, 99);
        let (q, scales) = quantize_rows(&src, 13, 29);
        let back = dequantize_rows(&q, &scales, 13, 29);
        for i in 0..13 {
            // Half a quantization step per element (plus f32 epsilon).
            let bound = scales[i] * 0.5 + 1e-6;
            for j in 0..29 {
                let err = (back[i * 29 + j] - src[i * 29 + j]).abs();
                assert!(err <= bound, "row {i} col {j}: err {err} > {bound}");
            }
        }
    }

    #[test]
    fn zero_rows_and_columns_quantize_exactly() {
        let src = vec![0.0f32; 4 * 6];
        let (q, scales) = quantize_rows(&src, 4, 6);
        assert!(q.iter().all(|&v| v == 0));
        assert!(scales.iter().all(|&s| s == 0.0));
        let back = dequantize_rows(&q, &scales, 4, 6);
        assert!(back.iter().all(|&v| v == 0.0));
        let pb = pack_b_i8(MatRef::row_major(&src, 6), 4, 6);
        assert_eq!(pb.mean_abs_error(), 0.0);
    }

    #[test]
    fn gemm_i8_dequant_matches_oracle() {
        let (m, k, n) = (33, 70, 51);
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        fill(&mut a, 5);
        fill(&mut b, 6);
        let (_, out_ref) = oracle(&a, &b, m, k, n);
        let pb = pack_b_i8(MatRef::row_major(&b, n), k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_i8_dequant(&a, &pb, &mut out, m, &Pool::new(2));
        for (i, (x, y)) in out.iter().zip(&out_ref).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}");
        }
    }

    #[test]
    fn quantization_error_is_small_and_reported() {
        let (k, n) = (96, 80);
        let mut b = vec![0.0; k * n];
        fill(&mut b, 11);
        let pb = pack_b_i8(MatRef::row_major(&b, n), k, n);
        let err = pb.mean_abs_error();
        // Inputs span [-2, 2]: one quantization step is at most
        // 2/127 ≈ 0.016, so the mean error must sit well under it.
        assert!(err > 0.0 && err < 0.01, "mean quant error {err}");
        assert_eq!(pb.scales().len(), n);
        // Panels hold one byte per weight plus NR-column padding.
        assert!((pb.k(), pb.n()) == (k, n) && !pb.is_empty() && pb.len() >= k * n);
    }

    /// The pack as it was before the row-major rewrite, kept as the
    /// oracle: libm `round`, a column walk for the scales and codes, a
    /// row-major sweep over the codes for the error and bias sums, then
    /// the panels filled in storage order.
    fn column_walk_pack(b: MatRef<'_>, k: usize, n: usize) -> PackedBI8 {
        let mut q = vec![0i8; k * n];
        let mut scales = vec![0.0f32; n];
        for j in 0..n {
            let mut maxabs = 0.0f32;
            for p in 0..k {
                maxabs = maxabs.max(b.at(p, j).abs());
            }
            let (inv, scale) = scales_for(maxabs);
            scales[j] = scale;
            for p in 0..k {
                q[p * n + j] = (b.at(p, j) * inv).round().clamp(-QMAX, QMAX) as i8;
            }
        }
        let mut err_sum = 0.0f64;
        let mut col_bias = vec![0i32; n];
        for p in 0..k {
            for (j, bias) in col_bias.iter_mut().enumerate() {
                let code = q[p * n + j];
                err_sum += (code as f32 * scales[j] - b.at(p, j)).abs() as f64;
                *bias = bias.wrapping_add(code as i32);
            }
        }
        for bias in &mut col_bias {
            *bias = bias.wrapping_mul(128);
        }
        let quant = Quant {
            scales,
            col_bias,
            mean_abs_error: (err_sum / (k * n).max(1) as f64) as f32,
        };
        Packed::build(k, n, quant, |panel, pc, kcb, j0, nrb| {
            for p4 in 0..kcb.div_ceil(KP) {
                let row0 = pc + p4 * KP;
                let dst = p4 * NR * KP;
                for j in 0..nrb {
                    for t in 0..KP.min(pc + kcb - row0) {
                        panel[dst + j * KP + t] = q[(row0 + t) * n + j0 + j];
                    }
                }
            }
        })
    }

    fn assert_packs_equal(a: &PackedBI8, b: &PackedBI8, what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.data(), b.data(), "{what}: panels");
        assert_eq!(
            bits(&a.extra.scales),
            bits(&b.extra.scales),
            "{what}: scales"
        );
        assert_eq!(a.extra.col_bias, b.extra.col_bias, "{what}: col_bias");
        assert_eq!(
            a.extra.mean_abs_error.to_bits(),
            b.extra.mean_abs_error.to_bits(),
            "{what}: mean_abs_error"
        );
    }

    #[test]
    fn row_major_pack_matches_the_column_walk_bitwise() {
        // Shapes straddle the depth block (KC), the panel width (NR) and
        // the depth quad (KP).
        let shapes = [
            (1, 1),
            (3, 5),
            (KP - 1, NR - 1),
            (KP + 1, NR + 1),
            (KC - 1, 2 * NR),
            (KC + 3, 2 * NR + 5),
            (2 * KC + 1, 7),
            (384, 1536),
        ];
        for (k, n) in shapes {
            let mut b = vec![0.0f32; k * n];
            fill(&mut b, (k * 131 + n) as u64);
            for p in 0..k {
                // Column 0 all zero; column 1 (where it exists) holds the
                // special values; column 2 has maxabs 127, so its scale is
                // 1 and its half-integers are exact half steps.
                b[p * n] = 0.0;
                if n > 1 {
                    let specials = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5];
                    b[p * n + 1] = specials[p % specials.len()];
                }
                if n > 2 {
                    let half = [127.0, 0.5, -0.5, 1.5, -2.5, 126.5, -126.5, 63.5];
                    b[p * n + 2] = half[p % half.len()];
                }
            }
            let view = MatRef::row_major(&b, n);
            let what = format!("{k}x{n}");
            assert_packs_equal(&pack_b_i8(view, k, n), &column_walk_pack(view, k, n), &what);
            // A strided (transposed) view takes the gathered-row path.
            let t: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            let view = MatRef::transposed(&t, k);
            assert_packs_equal(
                &pack_b_i8(view, k, n),
                &column_walk_pack(view, k, n),
                &format!("{what} transposed"),
            );
        }
    }

    /// Round half away from zero on the bits alone, so the check does
    /// not lean on how the compiler lowers either float expression (it
    /// may lower `f32::round` to the very add-and-truncate under test).
    fn round_by_bits(x: f32) -> f32 {
        let bits = x.to_bits();
        let exp = ((bits >> 23) & 0xff) as i32 - 127;
        match exp {
            // Integers, infinities and NaNs stay as they are.
            23.. => x,
            // [0.5, 1) rounds to one.
            -1 => 1.0f32.copysign(x),
            // Below one half, to a zero of x's sign.
            ..-1 => f32::from_bits(bits & 0x8000_0000),
            // Add half a unit, carrying into the exponent if need be, and
            // clear the fraction.
            _ => {
                let frac_bits = (23 - exp) as u32;
                let mask = (1u32 << frac_bits) - 1;
                f32::from_bits((bits + (1 << (frac_bits - 1))) & !mask)
            }
        }
    }

    /// Every `stride`-th f32 bit pattern: `round_half_away` is bitwise
    /// `f32::round`, and both are the bit-level reference.
    fn round_sweep(stride: usize) {
        for bits in (0..1u64 << 32).step_by(stride) {
            let x = f32::from_bits(bits as u32);
            let got = round_half_away(x).to_bits();
            assert_eq!(got, x.round().to_bits(), "round({x:e}) bits {bits:#x}");
            if !x.is_nan() {
                assert_eq!(
                    got,
                    round_by_bits(x).to_bits(),
                    "round({x:e}) bits {bits:#x}"
                );
            }
        }
    }

    #[test]
    fn round_half_away_is_f32_round_on_a_strided_sweep() {
        assert_eq!(HALF_BELOW, f32::from_bits(0.5f32.to_bits() - 1));
        // Odd and prime, so every exponent and low-mantissa pattern is
        // visited; the edges around each power of two are added whole.
        round_sweep(if cfg!(debug_assertions) {
            65_537
        } else {
            1_021
        });
        for e in 0..=255u32 {
            for delta in 0..64u32 {
                for sign in [0, 1u32 << 31] {
                    for bits in [(e << 23).wrapping_add(delta), (e << 23).wrapping_sub(delta)] {
                        let x = f32::from_bits(bits | sign);
                        assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
                        if !x.is_nan() {
                            let want = round_by_bits(x).to_bits();
                            assert_eq!(round_half_away(x).to_bits(), want, "{x:e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs, about ten seconds in release"]
    fn round_half_away_is_f32_round_on_every_input() {
        round_sweep(1);
    }

    #[test]
    fn precision_labels_round_trip() {
        for p in [Precision::F32, Precision::Int8] {
            assert_eq!(Precision::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(Precision::parse("fp16"), None);
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn empty_dims_are_noops() {
        let pb = pack_b_i8(MatRef::row_major(&[], 3), 0, 3);
        let mut out = vec![7.5f32; 6];
        gemm_i8_dequant(&[], &pb, &mut out, 2, &Pool::new(2));
        // k == 0: accumulator stays zero, scales are zero; output is
        // the dequantized zero product.
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
