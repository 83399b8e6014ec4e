//! Cache-blocked, multi-threaded GEMM engine behind every matmul in the
//! workspace.
//!
//! The structure is the classic three-level blocking scheme (BLIS/GotoBLAS):
//!
//! * an **MC×KC tiling layer** walks the operands in cache-sized blocks,
//!   copying each block into contiguous, microkernel-ordered scratch
//!   ("packing") so the inner loops touch memory strictly sequentially;
//! * an **MR×NR register microkernel** holds an `MR x NR` tile of the
//!   output in local accumulators and streams packed A/B panels through
//!   it — an AVX-512 intrinsic kernel where the target supports it,
//!   otherwise an unrolled scalar form the autovectorizer turns into SIMD;
//! * a **row-panel parallel driver** splits the output over disjoint row
//!   chunks on an [`acme_runtime::Pool`], the caller working one chunk
//!   itself.
//!
//! # Determinism
//!
//! Every output element `out[i, j]` is produced by the *same* chain of
//! arithmetic as the naive triple loop in [`gemm_naive`]: `k` is walked in
//! ascending order with a single accumulator per element (initialized from
//! the existing `out` value, so the kernels keep `+=` semantics), and each
//! step applies one [`madd`] — a *fused* multiply-add on targets with FMA,
//! a plain `a * b + c` elsewhere, selected at compile time and used
//! **uniformly** by the reference kernel, the scalar microkernels, and the
//! vector microkernel (`vfmadd` is bitwise-identical to scalar
//! `f32::mul_add`). Packing only relocates values and the parallel driver
//! only splits over *independent* output rows, so the blocked, packed, and
//! multi-threaded paths are all **bit-identical** to [`gemm_naive`] at any
//! thread count and any block size.
//!
//! # Packed-B reuse
//!
//! [`pack_b`] produces a self-contained [`PackedB`] that can be cached and
//! reused across calls via [`gemm_prepacked`] — the hook used by the
//! parameter-keyed packed-weight cache in `packcache` for inference-style
//! repeated matmuls against frozen weights.

use acme_runtime::Pool;

/// Rows of the register microkernel tile. Wider tiles (MR = 6/8) spill
/// accumulators out of registers on every codegen we measured; 4 rows is
/// the sweet spot for both the scalar and the AVX-512 kernel.
pub const MR: usize = 4;
/// Columns of the register microkernel tile: three 16-lane AVX-512
/// vectors (or six 8-lane AVX vectors), giving a 4×48 accumulator block.
pub const NR: usize = 48;
/// Row-block size of the packing layer (multiple of [`MR`]).
pub const MC: usize = 128;
/// Depth-block size: one `MC x KC` packed-A block (256 KiB) fits in L2
/// while a `KC x NR` packed-B panel (96 KiB) streams through L1/L2.
pub const KC: usize = 512;

/// Work (in multiply-adds) below which the plain naive loop is used:
/// packing and scratch setup cost more than they save on tiny operands.
/// Dispatch is invisible in the results — both paths are bit-identical.
const BLOCKED_MIN_FLOPS: usize = 16 * 1024;

/// Work below which the driver stays on the calling thread even when a
/// multi-worker pool is supplied. The pool spawns its workers per scope,
/// and one two-task fork/join measures 50–75 µs, so fanning out pays
/// only once the serial kernel time is several times that (the row-wise
/// kernels break even at four, see `rowwise.rs`). 2^26 multiply-adds are
/// ≈1.7 ms at the ≈40 G multiply-adds/s the blocked kernel sustains —
/// some 25 fork/joins. The margin is kept wide because two threads buy
/// this kernel little on the reference host even far above it (parallel
/// efficiency 0.6–1.0 at 512³, 2^27). No training-shape product of the
/// reference ViT reaches the cutoff.
const PARALLEL_MIN_FLOPS: usize = 1 << 26;

/// One accumulation step, `a * b + c`. Fused on FMA targets, plain
/// mul-then-add elsewhere — chosen at compile time, never mixed, so every
/// kernel in this module performs bitwise-identical arithmetic.
#[inline(always)]
pub fn madd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// A read-only strided view of a logical `rows x cols` matrix: element
/// `(i, j)` lives at `data[i * rs + j * cs]`. This is what lets one engine
/// serve `A·B`, `Aᵀ·B`, and `A·Bᵀ` without materializing transposes.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// A view with explicit row/column strides. The caller must ensure
    /// every addressed element is in bounds; packing panics otherwise.
    pub fn strided(data: &'a [f32], rs: usize, cs: usize) -> Self {
        MatRef { data, rs, cs }
    }

    /// A row-major `rows x cols` view (`rs = cols, cs = 1`).
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// A view of the *transpose* of a row-major `rows x cols` buffer: the
    /// result is a logical `cols x rows` matrix (`rs = 1, cs = cols`).
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            rs: 1,
            cs: cols,
        }
    }

    #[inline(always)]
    pub(crate) fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// A matrix packed into `KC`-deep, `NR`-wide column panels, ready to be
/// streamed by the microkernel. Layout: for each depth block `pc` (size
/// `min(KC, k - pc)`), all column panels of that block are stored
/// back-to-back; a panel holds `kc_block * NR` floats ordered `[p][j]`,
/// zero-padded in `j` past the last column.
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Depth (rows) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed size in floats (for cache accounting).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the packed buffer is empty (`k == 0` or `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Padded column count (multiple of [`NR`]).
    fn n_padded(&self) -> usize {
        self.n.div_ceil(NR) * NR
    }

    /// The `kc_block x NR` panel of depth block starting at `pc` and
    /// column panel `jp` (columns `jp*NR ..`).
    #[inline]
    fn panel(&self, pc: usize, kc_block: usize, jp: usize) -> &[f32] {
        let base = pc * self.n_padded() + jp * NR * kc_block;
        &self.data[base..base + kc_block * NR]
    }
}

/// Packs a logical `k x n` matrix view into [`PackedB`] layout.
pub fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> PackedB {
    let n_padded = n.div_ceil(NR) * NR;
    let mut data = vec![0.0f32; k * n_padded];
    let mut base = 0;
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let nrb = NR.min(n - j0);
            if b.cs == 1 {
                for p in 0..kcb {
                    let src = (pc + p) * b.rs + j0;
                    data[base + p * NR..base + p * NR + nrb]
                        .copy_from_slice(&b.data[src..src + nrb]);
                }
            } else {
                for p in 0..kcb {
                    let dst = base + p * NR;
                    for j in 0..nrb {
                        data[dst + j] = b.at(pc + p, j0 + j);
                    }
                }
            }
            base += kcb * NR;
        }
        pc += kcb;
    }
    PackedB { k, n, data }
}

/// Packs rows `i0 .. i0+mb` of a logical `m x k` view, depth slice
/// `p0 .. p0+kcb`, into `MR`-row panels ordered `[panel][p][r]`,
/// zero-padded in `r` past the last row. `buf` is resized as needed.
fn pack_a(a: MatRef<'_>, i0: usize, mb: usize, p0: usize, kcb: usize, buf: &mut Vec<f32>) {
    let panels = mb.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kcb * MR, 0.0);
    for ip in 0..panels {
        let r0 = i0 + ip * MR;
        let mrb = MR.min(i0 + mb - r0);
        let base = ip * kcb * MR;
        for p in 0..kcb {
            let dst = base + p * MR;
            for r in 0..mrb {
                buf[dst + r] = a.at(r0 + r, p0 + p);
            }
        }
    }
}

/// The full `MR x NR` register-tile microkernel:
/// `out[0..MR, 0..NR] += pa · pb` over `kc` depth steps. Accumulators are
/// loaded from `out` first, so per-element accumulation chains stay
/// identical to the naive loops.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
)))]
#[inline(always)]
fn microkernel_full(pa: &[f32], pb: &[f32], kc: usize, out: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[r * ldc..r * ldc + NR]);
    }
    for (ap, bp) in pa[..kc * MR]
        .chunks_exact(MR)
        .zip(pb[..kc * NR].chunks_exact(NR))
    {
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = madd(ar, bp[c], *cell);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// AVX-512 form of the full microkernel: a 4×48 accumulator block held in
/// twelve zmm registers, one `vfmadd231ps` per accumulator per depth step.
/// `vfmadd` is bitwise-identical to scalar [`madd`] on FMA targets, so
/// this kernel produces exactly the bits of the scalar form it replaces.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "fma"
))]
#[inline(always)]
fn microkernel_full(pa: &[f32], pb: &[f32], kc: usize, out: &mut [f32], ldc: usize) {
    use core::arch::x86_64::*;
    assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    assert!(out.len() >= (MR - 1) * ldc + NR);
    // SAFETY: avx512f/fma are compile-time-enabled under this cfg; all
    // pointer arithmetic stays inside the slices per the asserts above
    // (loadu/storeu have no alignment requirement).
    unsafe {
        let o = out.as_mut_ptr();
        let mut acc = [[_mm512_setzero_ps(); 3]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, cell) in row.iter_mut().enumerate() {
                *cell = _mm512_loadu_ps(o.add(r * ldc + v * 16));
            }
        }
        let mut ap = pa.as_ptr();
        let mut bp = pb.as_ptr();
        for _ in 0..kc {
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            let b2 = _mm512_loadu_ps(bp.add(32));
            for (r, row) in acc.iter_mut().enumerate() {
                let ar = _mm512_set1_ps(*ap.add(r));
                row[0] = _mm512_fmadd_ps(ar, b0, row[0]);
                row[1] = _mm512_fmadd_ps(ar, b1, row[1]);
                row[2] = _mm512_fmadd_ps(ar, b2, row[2]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, cell) in row.iter().enumerate() {
                _mm512_storeu_ps(o.add(r * ldc + v * 16), *cell);
            }
        }
    }
}

/// Edge-tile microkernel for partial tiles (`mr <= MR`, `nr <= NR`). The
/// arithmetic runs over the full zero-padded register tile; only the valid
/// `mr x nr` region is loaded from and stored to `out`.
fn microkernel_edge(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    out: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for r in 0..mr {
        acc[r][..nr].copy_from_slice(&out[r * ldc..r * ldc + nr]);
    }
    for (ap, bp) in pa[..kc * MR]
        .chunks_exact(MR)
        .zip(pb[..kc * NR].chunks_exact(NR))
    {
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = ap[r];
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = madd(ar, bp[c], *cell);
            }
        }
    }
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
    }
}

/// Runs the blocked kernels over output rows `row0 .. row0+rows` of a
/// logical `m x k · k x n` product, accumulating into `out` (`out` is the
/// caller's buffer *starting at* `row0`'s row, not the full matrix).
fn gemm_rows(a: MatRef<'_>, pb: &PackedB, out: &mut [f32], row0: usize, rows: usize) {
    let (k, n) = (pb.k, pb.n);
    let mut pa_buf = Vec::new();
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        let mut ic = 0;
        while ic < rows {
            let mcb = MC.min(rows - ic);
            pack_a(a, row0 + ic, mcb, pc, kcb, &mut pa_buf);
            for jp in 0..n.div_ceil(NR) {
                let j0 = jp * NR;
                let nrb = NR.min(n - j0);
                let bp = pb.panel(pc, kcb, jp);
                for ip in 0..mcb.div_ceil(MR) {
                    let r0 = ip * MR;
                    let mrb = MR.min(mcb - r0);
                    let ap = &pa_buf[ip * kcb * MR..(ip + 1) * kcb * MR];
                    let co = (ic + r0) * n + j0;
                    if mrb == MR && nrb == NR {
                        microkernel_full(ap, bp, kcb, &mut out[co..], n);
                    } else {
                        microkernel_edge(ap, bp, kcb, &mut out[co..], n, mrb, nrb);
                    }
                }
            }
            ic += mcb;
        }
        pc += kcb;
    }
}

/// Reference kernel: the naive, dense, branch-free triple loop
/// (`k` ascending, direct accumulation into `out`, one [`madd`] per
/// step). This is both the bit-exact oracle for the blocked paths and the
/// small-operand fast path.
pub fn gemm_naive(a: MatRef<'_>, b: MatRef<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a.at(i, p);
            let brow = p * b.rs;
            if b.cs == 1 {
                // Contiguous B row: let the autovectorizer at it.
                let b_row = &b.data[brow..brow + n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = madd(av, bv, *o);
                }
            } else {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = madd(av, b.data[brow + j * b.cs], *o);
                }
            }
        }
    }
}

/// `out[m, n] += a[m, k] · b[k, n]` with cache blocking, packing, and
/// row-panel parallelism over `pool`. Bit-identical to [`gemm_naive`].
pub fn gemm(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pool: &Pool,
) {
    assert_eq!(out.len(), m * n, "gemm: output buffer size");
    let flops = m * k * n;
    if flops <= BLOCKED_MIN_FLOPS {
        let _t = acme_obs::timer!("tensor.gemm.naive", "m" => m, "k" => k, "n" => n);
        return gemm_naive(a, b, out, m, k, n);
    }
    let pb = pack_b(b, k, n);
    gemm_prepacked(a, &pb, out, m, pool);
}

/// [`gemm`] with a pre-packed right-hand side (the packed-weight-cache
/// fast path: re-packing `b` is skipped entirely).
pub fn gemm_prepacked(a: MatRef<'_>, pb: &PackedB, out: &mut [f32], m: usize, pool: &Pool) {
    let (k, n) = (pb.k, pb.n);
    assert_eq!(out.len(), m * n, "gemm_prepacked: output buffer size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let _t = acme_obs::timer!("tensor.gemm.blocked", "m" => m, "k" => k, "n" => n);
    let chunks = row_chunks(m, k, n, pool);
    if chunks <= 1 {
        return gemm_rows(a, pb, out, 0, m);
    }
    // Split rows over `chunks` tasks on MC boundaries. Each task owns a
    // disjoint slice of `out`; per-element arithmetic is unchanged, so the
    // result is bit-identical at any thread count.
    let rows_per = m.div_ceil(chunks).div_ceil(MC) * MC;
    pool.scope(|s| {
        let mut iter = out.chunks_mut(rows_per * n).enumerate();
        let first = iter.next();
        for (t, chunk) in iter {
            let rows = chunk.len() / n;
            s.spawn(move || gemm_rows(a, pb, chunk, t * rows_per, rows));
        }
        // The caller works the first chunk itself instead of parking
        // while a spawned task does it.
        if let Some((_, chunk)) = first {
            let rows = chunk.len() / n;
            gemm_rows(a, pb, chunk, 0, rows);
        }
    });
}

/// How many row-panel tasks to fan out for an `m x k x n` product.
fn row_chunks(m: usize, k: usize, n: usize, pool: &Pool) -> usize {
    if pool.is_serial() || m * k * n < PARALLEL_MIN_FLOPS {
        return 1;
    }
    pool.threads().min(m.div_ceil(MC))
}

/// Batched `out[b] += a[b] · rhs[b]` over `batch` independent
/// `m x k · k x n` products, parallelized over the batch axis (each
/// batch's product runs serial inside its task, keeping the k-order
/// fixed). Falls back to row-panel parallelism for a single batch.
#[allow(clippy::too_many_arguments)]
pub fn gemm_batched(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &Pool,
) {
    assert_eq!(out.len(), batch * m * n, "gemm_batched: output buffer size");
    if batch == 1 {
        return gemm(
            MatRef::row_major(a, k),
            MatRef::row_major(b, n),
            out,
            m,
            k,
            n,
            pool,
        );
    }
    let work = batch * m * k * n;
    if pool.is_serial() || work < PARALLEL_MIN_FLOPS {
        for (bi, chunk) in out.chunks_exact_mut(m * n).enumerate() {
            let av = &a[bi * m * k..(bi + 1) * m * k];
            let bv = &b[bi * k * n..(bi + 1) * k * n];
            gemm(
                MatRef::row_major(av, k),
                MatRef::row_major(bv, n),
                chunk,
                m,
                k,
                n,
                &Pool::serial(),
            );
        }
        return;
    }
    pool.scope(|s| {
        for (bi, chunk) in out.chunks_exact_mut(m * n).enumerate() {
            let av = &a[bi * m * k..(bi + 1) * m * k];
            let bv = &b[bi * k * n..(bi + 1) * k * n];
            s.spawn(move || {
                gemm(
                    MatRef::row_major(av, k),
                    MatRef::row_major(bv, n),
                    chunk,
                    m,
                    k,
                    n,
                    &Pool::serial(),
                )
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift values in roughly [-2, 2].
    fn fill(buf: &mut [f32], seed: u64) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in buf.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = ((s >> 40) as f32 / (1u64 << 22) as f32) - 2.0;
        }
    }

    fn naive_out(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        gemm_naive(
            MatRef::row_major(a, k),
            MatRef::row_major(b, n),
            &mut out,
            m,
            k,
            n,
        );
        out
    }

    fn assert_bits_eq(x: &[f32], y: &[f32], ctx: &str) {
        assert_eq!(x.len(), y.len(), "{ctx}: length");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        // Shapes straddling every blocking edge: unit dims, sub-tile,
        // exact-tile, off-by-one around MR/NR/MC/KC.
        let shapes = [
            (1, 1, 1),
            (1, 7, 1),
            (3, 0, 5),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC, 17, NR * 3),
            (MC + MR - 1, KC - 1, NR * 2 - 3),
            (2 * MC + 3, KC + 5, 37),
            (65, 300, 41),
        ];
        for &(m, k, n) in &shapes {
            let mut a = vec![0.0; m * k];
            let mut b = vec![0.0; k * n];
            fill(&mut a, (m * 31 + k * 7 + n) as u64);
            fill(&mut b, (m + k * 13 + n * 3) as u64);
            let expect = naive_out(&a, &b, m, k, n);
            for threads in [1, 2, 4] {
                let mut out = vec![0.0; m * n];
                // Force the blocked path regardless of size thresholds.
                let pb = pack_b(MatRef::row_major(&b, n), k, n);
                gemm_prepacked(
                    MatRef::row_major(&a, k),
                    &pb,
                    &mut out,
                    m,
                    &Pool::new(threads),
                );
                assert_bits_eq(&out, &expect, &format!("{m}x{k}x{n} t{threads}"));
            }
        }
    }

    #[test]
    fn transposed_views_match_naive() {
        let (m, k, n) = (37, 65, 29);
        let mut a_t = vec![0.0; k * m]; // stores Aᵀ: logical A is [m, k]
        let mut b_t = vec![0.0; n * k]; // stores Bᵀ: logical B is [k, n]
        fill(&mut a_t, 5);
        fill(&mut b_t, 6);
        // Materialize the logical row-major operands for the oracle.
        let mut a = vec![0.0; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut b = vec![0.0; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let expect = naive_out(&a, &b, m, k, n);
        let mut out = vec![0.0; m * n];
        gemm(
            MatRef::transposed(&a_t, m),
            MatRef::transposed(&b_t, k),
            &mut out,
            m,
            k,
            n,
            &Pool::new(2),
        );
        assert_bits_eq(&out, &expect, "transposed views");
    }

    #[test]
    fn accumulates_into_nonzero_out() {
        let (m, k, n) = (19, 33, 23);
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        fill(&mut a, 7);
        fill(&mut b, 8);
        let mut expect = vec![0.0; m * n];
        fill(&mut expect, 9);
        let mut out = expect.clone();
        gemm_naive(
            MatRef::row_major(&a, k),
            MatRef::row_major(&b, n),
            &mut expect,
            m,
            k,
            n,
        );
        let pb = pack_b(MatRef::row_major(&b, n), k, n);
        gemm_prepacked(MatRef::row_major(&a, k), &pb, &mut out, m, &Pool::new(3));
        assert_bits_eq(&out, &expect, "accumulating += semantics");
    }

    #[test]
    fn prepacked_reuse_is_stable() {
        let (m, k, n) = (24, 48, 40);
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        fill(&mut a, 10);
        fill(&mut b, 11);
        let pb = pack_b(MatRef::row_major(&b, n), k, n);
        assert_eq!((pb.k(), pb.n()), (k, n));
        assert!(!pb.is_empty());
        let mut out1 = vec![0.0; m * n];
        let mut out2 = vec![0.0; m * n];
        gemm_prepacked(MatRef::row_major(&a, k), &pb, &mut out1, m, &Pool::serial());
        gemm_prepacked(MatRef::row_major(&a, k), &pb, &mut out2, m, &Pool::new(4));
        assert_bits_eq(&out1, &out2, "repeated prepacked use");
        assert_bits_eq(&out1, &naive_out(&a, &b, m, k, n), "prepacked vs naive");
    }

    #[test]
    fn strided_view_matches_row_major() {
        // A 5x6 matrix embedded in a 5x9 row-major buffer (rs = 9).
        let (m, k, n) = (5, 6, 8);
        let mut raw = vec![0.0; m * 9];
        fill(&mut raw, 21);
        let mut a = vec![0.0; m * k];
        for i in 0..m {
            a[i * k..(i + 1) * k].copy_from_slice(&raw[i * 9..i * 9 + k]);
        }
        let mut b = vec![0.0; k * n];
        fill(&mut b, 22);
        let expect = naive_out(&a, &b, m, k, n);
        let mut out = vec![0.0; m * n];
        let pb = pack_b(MatRef::row_major(&b, n), k, n);
        gemm_prepacked(
            MatRef::strided(&raw, 9, 1),
            &pb,
            &mut out,
            m,
            &Pool::serial(),
        );
        assert_bits_eq(&out, &expect, "strided lhs view");
    }

    #[test]
    fn batched_matches_per_batch_naive() {
        let (batch, m, k, n) = (6, 9, 14, 11);
        let mut a = vec![0.0; batch * m * k];
        let mut b = vec![0.0; batch * k * n];
        fill(&mut a, 12);
        fill(&mut b, 13);
        let mut expect = vec![0.0; batch * m * n];
        for bi in 0..batch {
            let o = naive_out(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
            );
            expect[bi * m * n..(bi + 1) * m * n].copy_from_slice(&o);
        }
        for threads in [1, 4] {
            let mut out = vec![0.0; batch * m * n];
            gemm_batched(&a, &b, &mut out, batch, m, k, n, &Pool::new(threads));
            assert_bits_eq(&out, &expect, &format!("batched t{threads}"));
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let pool = Pool::new(2);
        let mut out = vec![3.5f32; 6];
        gemm(
            MatRef::row_major(&[], 0),
            MatRef::row_major(&[], 3),
            &mut out,
            2,
            0,
            3,
            &pool,
        );
        assert!(out.iter().all(|&v| v == 3.5), "k = 0 leaves out untouched");
        let mut empty: Vec<f32> = Vec::new();
        gemm(
            MatRef::row_major(&[], 4),
            MatRef::row_major(&[], 0),
            &mut empty,
            0,
            4,
            0,
            &pool,
        );
        assert!(empty.is_empty());
    }
}
