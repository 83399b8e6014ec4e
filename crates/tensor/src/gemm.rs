//! Cache-blocked, multi-threaded GEMM engine behind every matmul in the
//! workspace: one blocked driver, instantiated per dtype by a [`Kernel`].
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
//! The loop nest, the packed-panel addressing ([`Packed`]), partial tiles
//! and the row-panel split are written once, over a [`Kernel`]: the
//! operand types, the two pack layouts and the register-tile arithmetic.
//! [`F32`] (this file) and [`crate::qgemm::I8`] are the two
//! instantiations.
//!
//! # Determinism
//!
//! Every f32 output element `out[i, j]` is produced by the *same* chain of
//! arithmetic as the naive triple loop in [`gemm_naive`]: `k` is walked in
//! ascending order with a single accumulator per element (initialized from
//! the existing `out` value, so the kernels keep `+=` semantics), and each
//! step applies one [`madd`] — a *fused* multiply-add on every target,
//! used **uniformly** by the reference kernel, the scalar microkernel,
//! and the vector microkernel (`vfmadd` is bitwise-identical to scalar
//! `f32::mul_add`). Packing only relocates values and the parallel driver
//! only splits over *independent* output rows, so the blocked, packed, and
//! multi-threaded paths are all **bit-identical** to [`gemm_naive`] at any
//! thread count and any block size.
//!
//! # One dispatch
//!
//! [`gemm`] is the one entry for an f32 product whose right operand is
//! not pre-packed, and the one place that picks the kernel: fewer rows
//! than one register tile (`m < MR`) take [`gemm_naive`], every other
//! product packs `b` and runs the blocked driver. The rule is rows, not
//! work: below `MR` rows packing `b` seldom pays off and the driver has
//! no row panel to split, while from `MR` rows on the blocked kernel is
//! faster at every measured shape of depth 8 or more but one, however
//! few the multiply-adds (DESIGN.md §8 has the table).
//!
//! # Packed-B reuse
//!
//! [`pack_b`] produces a self-contained [`PackedB`] that can be cached and
//! reused across calls via [`Kernel::gemm_f32`] — the hook used by the
//! parameter-keyed packed-weight cache in `packcache` for inference-style
//! repeated matmuls against frozen weights.

use std::fmt::Debug;
use std::ops::Range;

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

/// One accumulation step, `a * b + c` with a single rounding — always
/// fused, on every target: a `vfmadd` where the build enables FMA, the
/// correctly rounded software `fmaf` elsewhere. Both give the same bits,
/// so every kernel in this module, and every value pinned downstream,
/// is the same with or without FMA.
#[inline(always)]
pub fn madd(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}

/// A read-only strided view of a logical `rows x cols` matrix: element
/// `(i, j)` lives at `data[i * rs + j * cs]`. This is what lets one engine
/// serve `A·B`, `Aᵀ·B`, and `A·Bᵀ` without materializing transposes.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a, T = f32> {
    data: &'a [T],
    rs: usize,
    cs: usize,
}

impl<'a, T: Copy> MatRef<'a, T> {
    /// A view with explicit row/column strides. The caller must ensure
    /// every addressed element is in bounds; packing panics otherwise.
    pub fn strided(data: &'a [T], rs: usize, cs: usize) -> Self {
        MatRef { data, rs, cs }
    }

    /// A row-major `rows x cols` view (`rs = cols, cs = 1`).
    pub fn row_major(data: &'a [T], cols: usize) -> Self {
        Self::strided(data, cols, 1)
    }

    /// A view of the *transpose* of a row-major `rows x cols` buffer: the
    /// result is a logical `cols x rows` matrix (`rs = 1, cs = cols`).
    pub fn transposed(data: &'a [T], cols: usize) -> Self {
        Self::strided(data, 1, cols)
    }

    #[inline(always)]
    pub(crate) fn at(&self, i: usize, j: usize) -> T {
        self.data[i * self.rs + j * self.cs]
    }

    /// Columns `0..cols` of row `i`, as one slice when the view's
    /// columns are contiguous (`cs = 1`).
    pub(crate) fn row(&self, i: usize, cols: usize) -> Option<&'a [T]> {
        (self.cs == 1).then(|| &self.data[i * self.rs..i * self.rs + cols])
    }
}

/// One dtype instantiation of the blocked engine: the operand types, the
/// two pack layouts and the arithmetic of one register tile. Everything
/// that walks blocks, addresses panels, pads partial tiles or forks rows
/// lives in the generic driver ([`gemm_prepacked`]) and is shared.
pub trait Kernel: Sized + 'static {
    /// Element of the unpacked left operand, as a [`MatRef`] views it.
    type Lhs: Copy + Send + Sync;
    /// Element of a packed left panel.
    type A: Copy + Send;
    /// Element of a packed right panel; `default()` is its zero padding.
    type B: Copy + Default + Debug + Send + Sync;
    /// Accumulator and output element; `default()` is zero.
    type C: Copy + Default + Send;
    /// What a [`Packed`] right operand carries beside its panels.
    type Extra: Clone + Debug + Send + Sync;

    /// Depth steps per packed group: panels interleave `KP` consecutive
    /// depth steps of one row/column, zero-padding the last group.
    /// [`KC`] must be a multiple of it.
    const KP: usize;
    /// Work (in multiply-adds) below which the driver stays on the
    /// calling thread even when a multi-worker pool is supplied.
    const PARALLEL_MIN_MACS: usize;
    /// Name of the `acme_obs` timer around one blocked product.
    const TIMER: &'static str;

    /// Packs a logical `k x n` f32 weight view for this kernel.
    fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> Packed<Self>;

    /// Packs rows `i0 .. i0+mb` of `a`, depth slice `p0 .. p0+kcb`, into
    /// `MR`-row panels of `kcb.div_ceil(KP) * KP * MR` elements ordered
    /// `[panel][group][row][KP]`, padded past the last row and the depth
    /// tail with a value whose products vanish against the zero-padded
    /// right panels. `buf` is resized as needed.
    fn pack_a(
        a: MatRef<'_, Self::Lhs>,
        i0: usize,
        mb: usize,
        p0: usize,
        kcb: usize,
        buf: &mut Vec<Self::A>,
    );

    /// The full `MR x NR` register-tile microkernel:
    /// `out[0..MR, 0..NR] += pa · pb` over `groups` depth groups, rows of
    /// `out` being `ldc` apart.
    fn microkernel(pa: &[Self::A], pb: &[Self::B], groups: usize, out: &mut [Self::C], ldc: usize);

    /// Runs once over a chunk of finished output rows (`n` columns each)
    /// after the last depth block has been accumulated into them.
    fn finish(_extra: &Self::Extra, _out: &mut [Self::C], _n: usize) {}

    /// `out[m, n] = a[m, k] · pb` from f32 activations to f32 outputs,
    /// `out` zeroed on entry: the product `Array::matmul_prepacked` runs.
    fn gemm_f32(a: &[f32], pb: &Packed<Self>, out: &mut [f32], m: usize, pool: &Pool);
}

/// A right-hand matrix packed into `KC`-deep, `NR`-wide column panels,
/// ready to be streamed by `K`'s microkernel. Layout: for each depth
/// block `pc` (size `min(KC, k - pc)`), all column panels of that block
/// are stored back-to-back; a panel holds `kcb.div_ceil(KP)` groups of
/// `NR * KP` elements ordered `[group][column][KP]`, zero-padded past
/// the last column and the depth tail.
#[derive(Debug, Clone)]
pub struct Packed<K: Kernel> {
    k: usize,
    n: usize,
    data: Vec<K::B>,
    pub(crate) extra: K::Extra,
}

impl<K: Kernel> Packed<K> {
    /// Depth (rows) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed size in elements (for cache accounting).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the packed buffer is empty (`k == 0` or `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The packed panels, for tests that compare two packs.
    #[cfg(test)]
    pub(crate) fn data(&self) -> &[K::B] {
        &self.data
    }

    /// Bytes of the packed panels' capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<K::B>()
    }

    /// The zeroed panels of a `k x n` matrix.
    pub(crate) fn zeroed(k: usize, n: usize, extra: K::Extra) -> Self {
        const { assert!(KC.is_multiple_of(K::KP)) };
        let len = k.div_ceil(K::KP) * K::KP * n.div_ceil(NR) * NR;
        let data = vec![K::B::default(); len];
        Packed { k, n, data, extra }
    }

    /// Allocates the zeroed panels of a `k x n` matrix and walks them in
    /// storage order, handing each to `fill(panel, pc, kcb, j0, nrb)`:
    /// the panel of depth block `pc .. pc+kcb` and columns
    /// `j0 .. j0+nrb`.
    pub(crate) fn build(
        k: usize,
        n: usize,
        extra: K::Extra,
        mut fill: impl FnMut(&mut [K::B], usize, usize, usize, usize),
    ) -> Self {
        let mut packed = Self::zeroed(k, n, extra);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            for jp in 0..n.div_ceil(NR) {
                let j0 = jp * NR;
                let range = packed.panel_range(pc, kcb, jp);
                fill(&mut packed.data[range], pc, kcb, j0, NR.min(n - j0));
            }
            pc += kcb;
        }
        packed
    }

    /// Writes row `p` of the logical `k x n` matrix (`n` elements) into
    /// its places in the panels: depth step `p` of each column panel,
    /// `KP` elements apart.
    pub(crate) fn scatter_row(&mut self, p: usize, row: &[K::B]) {
        debug_assert_eq!(row.len(), self.n);
        let pc = p / KC * KC;
        let kcb = KC.min(self.k - pc);
        let step = (p - pc) / K::KP * NR * K::KP + (p - pc) % K::KP;
        for (jp, cols) in row.chunks(NR).enumerate() {
            let start = self.panel_range(pc, kcb, jp).start + step;
            let dst = self.data[start..].iter_mut().step_by(K::KP);
            for (d, &v) in dst.zip(cols) {
                *d = v;
            }
        }
    }

    /// Where the panel of depth block `pc` (`kcb` deep) and column panel
    /// `jp` (columns `jp*NR ..`) lives. Every block before `pc` is a full
    /// `KC` one, a whole number of groups, so `pc` padded rows precede it.
    #[inline]
    fn panel_range(&self, pc: usize, kcb: usize, jp: usize) -> Range<usize> {
        let len = kcb.div_ceil(K::KP) * K::KP * NR;
        let base = pc * self.n.div_ceil(NR) * NR + jp * len;
        base..base + len
    }
}

/// Runs `K`'s microkernel on a partial tile (`mr <= MR`, `nr <= NR`):
/// the valid region of `out` is copied into a zeroed `MR x NR` stack
/// tile, the full kernel runs on that, and the region is copied back.
/// The accumulators still start from `out` and the panels are padded so
/// the extra lanes never reach a valid one, so each valid element sees
/// exactly the arithmetic of a full tile.
fn partial_tile<K: Kernel>(
    pa: &[K::A],
    pb: &[K::B],
    groups: usize,
    out: &mut [K::C],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut tile = [K::C::default(); MR * NR];
    for r in 0..mr {
        tile[r * NR..r * NR + nr].copy_from_slice(&out[r * ldc..r * ldc + nr]);
    }
    K::microkernel(pa, pb, groups, &mut tile, NR);
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&tile[r * NR..r * NR + nr]);
    }
}

/// Runs the blocked kernels over output rows `row0 .. row0+rows` of a
/// logical `m x k · k x n` product, accumulating into `out` (`out` is the
/// caller's buffer *starting at* `row0`'s row, not the full matrix).
/// Each row's full depth reduction lives inside one call, so
/// [`Kernel::finish`] applies exactly once per output whatever the
/// parallel row split.
fn gemm_rows<K: Kernel>(
    a: MatRef<'_, K::Lhs>,
    pb: &Packed<K>,
    out: &mut [K::C],
    row0: usize,
    rows: usize,
) {
    let (k, n) = (pb.k, pb.n);
    let mut pa_buf = Vec::new();
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        let groups = kcb.div_ceil(K::KP);
        let a_panel = groups * K::KP * MR;
        let mut ic = 0;
        while ic < rows {
            let mcb = MC.min(rows - ic);
            K::pack_a(a, row0 + ic, mcb, pc, kcb, &mut pa_buf);
            for jp in 0..n.div_ceil(NR) {
                let j0 = jp * NR;
                let nrb = NR.min(n - j0);
                let bp = &pb.data[pb.panel_range(pc, kcb, jp)];
                for ip in 0..mcb.div_ceil(MR) {
                    let r0 = ip * MR;
                    let mrb = MR.min(mcb - r0);
                    let ap = &pa_buf[ip * a_panel..(ip + 1) * a_panel];
                    let co = (ic + r0) * n + j0;
                    if mrb == MR && nrb == NR {
                        K::microkernel(ap, bp, groups, &mut out[co..], n);
                    } else {
                        partial_tile::<K>(ap, bp, groups, &mut out[co..], n, mrb, nrb);
                    }
                }
            }
            ic += mcb;
        }
        pc += kcb;
    }
    K::finish(&pb.extra, out, n);
}

/// `out[m, n] += a[m, k] · pb[k, n]` against a pre-packed right-hand
/// side, with cache blocking and row-panel parallelism over `pool`: the
/// one blocked driver, and for f32 the packed-weight-cache fast path
/// ([`gemm`] with the re-packing of `b` skipped). Bit-identical to the
/// kernel's naive oracle at any thread count.
pub fn gemm_prepacked<K: Kernel>(
    a: MatRef<'_, K::Lhs>,
    pb: &Packed<K>,
    out: &mut [K::C],
    m: usize,
    pool: &Pool,
) {
    let (k, n) = (pb.k, pb.n);
    assert_eq!(out.len(), m * n, "gemm_prepacked: output buffer size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let _t = acme_obs::timer!(K::TIMER, "m" => m, "k" => k, "n" => n);
    let chunks = pool.threads().min(m.div_ceil(MC));
    if chunks <= 1 || m * k * n < K::PARALLEL_MIN_MACS {
        return gemm_rows(a, pb, out, 0, m);
    }
    // Split rows over `chunks` tasks on MC boundaries. Each task owns a
    // disjoint slice of `out`; per-element arithmetic is unchanged, so
    // the result is bit-identical at any thread count.
    let rows_per = m.div_ceil(chunks).div_ceil(MC) * MC;
    pool.par_map(out.chunks_mut(rows_per * n).collect(), |t, chunk| {
        gemm_rows(a, pb, chunk, t * rows_per, chunk.len() / n)
    });
}

/// The f32 instantiation of the engine: plain `[group = depth step]`
/// panels, one [`madd`] per element per step.
#[derive(Debug, Clone, Copy)]
pub struct F32;

/// An f32 matrix packed for [`gemm_prepacked`]: a panel holds
/// `kcb * NR` floats ordered `[p][j]`.
pub type PackedB = Packed<F32>;

impl Kernel for F32 {
    type Lhs = f32;
    type A = f32;
    type B = f32;
    type C = f32;
    type Extra = ();

    const KP: usize = 1;
    /// The pool spawns its workers per call, and one two-task fork/join
    /// measures 50–75 µs, so fanning out pays only once the serial
    /// kernel time is several times that (the row-wise kernels break
    /// even at four, see `rowwise.rs`). 2^26 multiply-adds are ≈1.7 ms
    /// at the ≈40 G multiply-adds/s the blocked kernel sustains — some
    /// 25 fork/joins. The margin is kept wide because two threads buy
    /// this kernel little on the reference host even far above it
    /// (parallel efficiency 0.6–1.0 at 512³, 2^27). No training-shape
    /// product of the reference ViT reaches the cutoff.
    const PARALLEL_MIN_MACS: usize = 1 << 26;
    const TIMER: &'static str = "tensor.gemm.blocked";

    fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> PackedB {
        Packed::build(k, n, (), |panel, pc, kcb, j0, nrb| {
            for p in 0..kcb {
                let row = &mut panel[p * NR..p * NR + nrb];
                if b.cs == 1 {
                    let src = (pc + p) * b.rs + j0;
                    row.copy_from_slice(&b.data[src..src + nrb]);
                } else {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = b.at(pc + p, j0 + j);
                    }
                }
            }
        })
    }

    /// Panels are ordered `[panel][p][r]`, zero-padded in `r`.
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

    /// Accumulators are loaded from `out` first, so per-element
    /// accumulation chains stay identical to the naive loops.
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "fma"
    )))]
    #[inline(always)]
    fn microkernel(pa: &[f32], pb: &[f32], kc: usize, out: &mut [f32], ldc: usize) {
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

    /// AVX-512 form of the microkernel: a 4×48 accumulator block held in
    /// twelve zmm registers, loaded from `out` first, one `vfmadd231ps`
    /// per accumulator per depth step. `vfmadd` is bitwise-identical to
    /// scalar [`madd`] on FMA targets, so this kernel produces exactly
    /// the bits of the scalar form it replaces.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "fma"
    ))]
    #[inline(always)]
    fn microkernel(pa: &[f32], pb: &[f32], kc: usize, out: &mut [f32], ldc: usize) {
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

    fn gemm_f32(a: &[f32], pb: &PackedB, out: &mut [f32], m: usize, pool: &Pool) {
        #[expect(clippy::disallowed_methods, reason = "the cached-pack product")]
        gemm_prepacked(MatRef::row_major(a, pb.k), pb, out, m, pool);
    }
}

/// Packs a logical `k x n` matrix view into [`PackedB`] layout.
pub fn pack_b(b: MatRef<'_>, k: usize, n: usize) -> PackedB {
    F32::pack_b(b, k, n)
}

/// Reference kernel: the naive, dense, branch-free triple loop
/// (`k` ascending, direct accumulation into `out`, one [`madd`] per
/// step). This is the bit-exact oracle for the blocked paths, and the
/// path [`gemm`] takes for fewer than [`MR`] rows.
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

/// `out[m, n] += a[m, k] · b[k, n]`: the one f32 product against an
/// unpacked right operand. Fewer than [`MR`] rows run [`gemm_naive`]
/// (there packing `b` seldom pays off, and there is no row panel to
/// split); every other product packs `b` and runs the blocked driver
/// with row-panel parallelism over `pool`. Both give [`gemm_naive`]'s
/// bits, so the choice is invisible in the result. The pack has a timer
/// of its own (`tensor.gemm.pack_b`), so the naive timer compares with
/// the pack's and the blocked product's together.
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
    if m < MR {
        let _t = acme_obs::timer!("tensor.gemm.naive", "m" => m, "k" => k, "n" => n);
        return gemm_naive(a, b, out, m, k, n);
    }
    let packed = {
        let _t = acme_obs::timer!("tensor.gemm.pack_b", "k" => k, "n" => n);
        pack_b(b, k, n)
    };
    #[expect(clippy::disallowed_methods, reason = "the unpacked dispatch")]
    gemm_prepacked(a, &packed, out, m, pool);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::array::Array;

    /// Deterministic xorshift values in roughly [-2, 2].
    pub(crate) fn fill(buf: &mut [f32], seed: u64) {
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
        // exact-tile, off-by-one around MR/NR/MC/KC; the last is past
        // `PARALLEL_MIN_MACS`, so 2 and 4 threads really split its rows.
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
            (2 * MC + 3, KC + 5, 512),
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
        // An empty batched product is the empty (or all-zero) result at
        // any batch count, not a zero-sized chunking.
        for batch in [1, 2] {
            for (m, k, n) in [(0, 3, 4), (2, 3, 0), (2, 0, 4)] {
                let out = Array::zeros(&[batch, m, k])
                    .batch_matmul(&Array::zeros(&[batch, k, n]))
                    .unwrap();
                assert_eq!(out.shape(), &[batch, m, n]);
                assert!(out.data().iter().all(|&v| v == 0.0));
            }
        }
    }
}
