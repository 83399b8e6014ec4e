//! The workspace's f32 `tanh` and `exp`: every hyperbolic tangent and
//! exponential the tensor kernels, the layers and the serve engine
//! evaluate goes through this module instead of `f32::tanh` /
//! `f32::exp`.
//!
//! Those two call the host's libm, one call per element. The call keeps
//! LLVM from vectorising the loop around it (glibc's `tanhf` alone was
//! half of a ViT training step's forward), and its result bits are the
//! host libm's, so every golden pin downstream depended on the glibc
//! version as well as on the source. Here both functions are short
//! straight-line evaluations in plain Rust:
//!
//! * **Same bits on every code path.** Each function is a fixed sequence
//!   of `*`, `+`, `/`, compares and bit casts. Rust never contracts
//!   `a * b + c` into a fused multiply-add (only an explicit `mul_add`
//!   does), so an element's result is the same whether LLVM emits scalar,
//!   AVX2 or AVX-512 code for the loop it sits in, and whatever lane the
//!   element lands in. The lane-position test below pins that.
//! * **Vectorisable.** No calls, no table lookups, no data-dependent
//!   branches: range checks are selects, `exp`'s rounding is the
//!   `1.5·2²³` shift trick (not `round()` or an `as i32` cast, which do
//!   not vectorise to one instruction) and `2ⁿ` is built from exponent
//!   bits. A loop that maps a slice through them vectorises: 0.6–0.9 ns
//!   per `tanh` and 0.9–1.2 ns per `exp` on one core of a 2-core AVX-512
//!   x86-64 host, against 17–33 ns for glibc 2.36 `tanhf` and 3–5 ns for
//!   `expf` (the spread is between runs). A loop that also carries a
//!   running sum does not vectorise, and there scalar `exp` costs two to
//!   three times libm's, so sums go through [`exp_sum`].
//!
//! Accuracy against the correctly rounded result, over every f32 input
//! (the `#[ignore]`d exhaustive test; `cargo test` runs a strided sweep):
//! [`exp`] is within 1 and [`tanh`] within 7 units in the last place
//! (the rational `tanh` loses its last bits in the tail short of
//! saturation, where its absolute error is below 5·10⁻⁷). Edge cases
//! follow libm: ±0 map to ±0 (`tanh`) and 1 (`exp`), `tanh` is odd bit
//! for bit and saturates to exactly ±1, `exp` overflows to `+inf`,
//! underflows gradually through the subnormals and is exactly `+0` below
//! −104 (so a masked score never leaves a subnormal behind), and a NaN
//! in gives a NaN out.

/// `|x|` at which [`tanh`]'s rational rounds to exactly 1; larger
/// arguments are evaluated there.
const TANH_CLAMP: f32 = 7.905_311;
/// Below this `|x|`, `x` itself is within an ulp of `tanh(x)` (the cubic
/// term is smaller than one), and returning it keeps the sign of zero.
const TANH_TINY: f32 = 4.0e-4;

// The [13/6] odd/even rational for tanh on [-TANH_CLAMP, TANH_CLAMP]
// (the minimax fit Eigen uses): tanh(x) ≈ x·A(x²) / B(x²).
const TANH_A1: f32 = 4.893_524_6e-3;
const TANH_A3: f32 = 6.372_619_5e-4;
const TANH_A5: f32 = 1.485_722_35e-5;
const TANH_A7: f32 = 5.122_297_3e-8;
const TANH_A9: f32 = -8.604_672e-11;
const TANH_A11: f32 = 2.000_188e-13;
const TANH_A13: f32 = -2.760_768_4e-16;
const TANH_B0: f32 = 4.893_525e-3;
const TANH_B2: f32 = 2.268_434_7e-3;
const TANH_B4: f32 = 1.185_347_1e-4;
const TANH_B6: f32 = 1.198_258_4e-6;

/// Hyperbolic tangent: an odd rational in `x²`, evaluated at the clamp
/// past `±TANH_CLAMP` (where it is exactly ±1) and the identity below
/// `TANH_TINY`. Within 7 ulp of the correctly rounded value.
#[inline]
pub fn tanh(x: f32) -> f32 {
    // `clamp` passes a NaN through to the result.
    let c = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let z = c * c;
    let p = ((((((TANH_A13 * z + TANH_A11) * z + TANH_A9) * z + TANH_A7) * z + TANH_A5) * z
        + TANH_A3)
        * z
        + TANH_A1)
        * c;
    let q = ((TANH_B6 * z + TANH_B4) * z + TANH_B2) * z + TANH_B0;
    if x.abs() < TANH_TINY {
        x
    } else {
        p / q
    }
}

/// Arguments above this overflow: `exp` of it is `1.08·2¹²⁸`, `+inf`
/// after the final scaling, as is every `x > ln(f32::MAX) ≈ 88.7228`.
const EXP_HI: f32 = 88.8;
/// Arguments below this underflow to `+0`: `exp(-104) < 2⁻¹⁵⁰`, half the
/// smallest subnormal.
const EXP_LO: f32 = -104.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5·2²³`: adding it to a float of magnitude below 2²² rounds that
/// float to the nearest integer (ties to even), left in the low mantissa
/// bits of the sum.
const ROUND_SHIFT: f32 = 12_582_912.0;
/// `ln 2` split in two (Cody–Waite): `n·LN2_HI` is exact for every `n`
/// the clamped range produces, so `x - n·ln 2` loses no bits.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
// Cephes `expf`'s polynomial for exp(r) - 1 - r on |r| ≤ ln2 / 2.
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_6e-1;
const EXP_P5: f32 = 0.5;

/// Exponential, Cephes-style: `x = n·ln 2 + r`, a degree-7 polynomial
/// for `exp(r)`, then `2ⁿ` applied as two halves built from exponent
/// bits, so results in the subnormal range round once, as libm's do.
/// Within 1 ulp of the correctly rounded value.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Arguments below the underflow cutoff are evaluated at 0 and
    // replaced by +0 at the end, so no subnormal arithmetic runs for
    // them; a NaN fails every compare and flows through.
    let c = if x > EXP_HI {
        EXP_HI
    } else if x < EXP_LO {
        0.0
    } else {
        x
    };
    let k = c * LOG2E + ROUND_SHIFT;
    let n = k - ROUND_SHIFT;
    let r = c - n * LN2_HI - n * LN2_LO;
    let z = r * r;
    let y = (((((EXP_P0 * r + EXP_P1) * r + EXP_P2) * r + EXP_P3) * r + EXP_P4) * r + EXP_P5) * z
        + r
        + 1.0;
    // n ∈ [-150, 128] is the low bits of k; each half of it is a normal
    // exponent, so y·2^n1 is exact and ·2^n2 rounds once.
    let n = (k.to_bits() as i32).wrapping_sub(ROUND_SHIFT.to_bits() as i32);
    let n1 = n >> 1;
    let n2 = n.wrapping_sub(n1);
    let s1 = f32::from_bits((n1.wrapping_add(127) << 23) as u32);
    let s2 = f32::from_bits((n2.wrapping_add(127) << 23) as u32);
    let e = y * s1 * s2;
    if x < EXP_LO {
        0.0
    } else {
        e
    }
}

/// `out[i] = exp(x[i] - shift)`: the exponential pass of a softmax row
/// (`shift` is the row max), vectorised. Bit for bit the scalar [`exp`]
/// of each element.
#[inline]
pub(crate) fn exp_sub(x: &[f32], shift: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o = exp(v - shift);
    }
}

/// `Σ exp(x[i] - shift)` in ascending `i`: a softmax denominator whose
/// exponentials are not kept. Bit for bit the loop `sum += exp(x[i] -
/// shift)`, but the exponentials run a vector at a time through a stack
/// buffer — in that fused loop the sum's dependency chain keeps LLVM
/// from vectorising, and scalar [`exp`] is slower than libm's.
#[inline]
pub fn exp_sum(x: &[f32], shift: f32) -> f32 {
    let mut buf = [0.0f32; 64];
    let mut sum = 0.0f32;
    for chunk in x.chunks(buf.len()) {
        let e = &mut buf[..chunk.len()];
        exp_sub(chunk, shift, e);
        for &v in e.iter() {
            sum += v;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max error of [`tanh`] in units in the last place, over all f32.
    const TANH_MAX_ULP: u32 = 7;
    /// Max error of [`exp`] in units in the last place, over all f32.
    const EXP_MAX_ULP: u32 = 1;

    /// Bitwise equal, or both NaN (a NaN's payload and sign are not part
    /// of the contract: LLVM may commute a NaN operand).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Distance in ulps between `got` and `want` rounded to f32, on the
    /// monotone integer line of f32 bit patterns (0 for two NaNs, and
    /// `u64::MAX` when only one side is NaN).
    fn ulps(got: f32, want: f64) -> u64 {
        let want = want as f32;
        match (got.is_nan(), want.is_nan()) {
            (true, true) => return 0,
            (false, false) => {}
            _ => return u64::MAX,
        }
        let line = |v: f32| {
            let b = v.to_bits();
            if b >> 31 == 1 {
                -i64::from(b & 0x7fff_ffff)
            } else {
                i64::from(b)
            }
        };
        (line(got) - line(want)).unsigned_abs()
    }

    /// Every `stride`-th f32 bit pattern, checked against the f64
    /// reference and the edge-case contract.
    fn sweep(stride: u64) {
        let (mut worst_tanh, mut worst_exp) = ((0, 0.0f32), (0, 0.0f32));
        for bits in (0..1u64 << 32).step_by(stride as usize) {
            let x = f32::from_bits(bits as u32);
            let t = tanh(x);
            let e = exp(x);
            let (ut, ue) = (ulps(t, f64::from(x).tanh()), ulps(e, f64::from(x).exp()));
            if ut > worst_tanh.0 {
                worst_tanh = (ut, x);
            }
            if ue > worst_exp.0 {
                worst_exp = (ue, x);
            }
            // Odd symmetry holds bit for bit, and |tanh| never passes 1.
            assert!(same(-t, tanh(-x)), "tanh(-{x:e})");
            assert!(x.is_nan() || t.abs() <= 1.0, "tanh({x:e}) = {t:e}");
        }
        assert!(
            worst_tanh.0 <= u64::from(TANH_MAX_ULP),
            "tanh off by {} ulp at {:e}",
            worst_tanh.0,
            worst_tanh.1
        );
        assert!(
            worst_exp.0 <= u64::from(EXP_MAX_ULP),
            "exp off by {} ulp at {:e}",
            worst_exp.0,
            worst_exp.1
        );
    }

    #[test]
    fn strided_sweep_holds_the_ulp_bounds() {
        // Odd and prime, so every exponent and low-mantissa pattern is
        // visited in a few million inputs.
        sweep(if cfg!(debug_assertions) {
            65_537
        } else {
            1_021
        });
    }

    #[test]
    #[ignore = "all 2^32 inputs, about five minutes in release"]
    fn exhaustive_sweep_holds_the_ulp_bounds() {
        sweep(1);
    }

    #[test]
    fn edge_cases_follow_libm() {
        let bits = |v: f32| v.to_bits();
        // Signed zeros.
        assert_eq!(bits(tanh(0.0)), bits(0.0));
        assert_eq!(bits(tanh(-0.0)), bits(-0.0));
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        // tanh saturates to exactly ±1 from the clamp on.
        for x in [TANH_CLAMP, 8.0, 9.5, 20.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(bits(tanh(x)), bits(1.0), "tanh({x:e})");
            assert_eq!(bits(tanh(-x)), bits(-1.0), "tanh(-{x:e})");
        }
        // exp overflows to +inf past ln(f32::MAX).
        assert!(exp(88.72).is_finite());
        for x in [88.73, 89.0, 100.0, 1e30, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        // exp underflows gradually: subnormal results where the exact
        // value rounds to one, then exactly +0.
        let mut x = -87.5f32;
        while x > -103.9 {
            let (e, want) = (exp(x), f64::from(x).exp() as f32);
            assert!(e.is_subnormal() || e == 0.0, "exp({x:e}) = {e:e}");
            assert!(
                ulps(e, f64::from(x).exp()) <= u64::from(EXP_MAX_ULP),
                "exp({x:e})"
            );
            assert_eq!(e == 0.0, want == 0.0, "exp({x:e}) = {e:e}, want {want:e}");
            x -= 0.0625;
        }
        assert!(exp(-103.9) > 0.0);
        for x in [-104.0, -200.0, -1e30, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(bits(exp(x)), bits(0.0), "exp({x:e})");
        }
        // NaN in, NaN out, whatever its sign or payload.
        for nan in [
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_1234),
        ] {
            assert!(tanh(nan).is_nan());
            assert!(exp(nan).is_nan());
        }
    }

    /// Inputs that cover every branch: both saturations, the tiny
    /// identity, exp's overflow and both sides of its underflow, NaN.
    fn probe(n: usize, seed: u32) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [0.0, -0.0, 3e-4, -9.0, 95.0, -95.0, -120.0, f32::NAN];
        let mut s = seed.wrapping_mul(0x9E37_79B9) | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                if i % 5 == 4 {
                    SPECIAL[(s >> 29) as usize]
                } else {
                    (s >> 8) as f32 / (1u32 << 24) as f32 * 24.0 - 12.0
                }
            })
            .collect()
    }

    /// The vectorised loops agree with the scalar functions bit for bit
    /// wherever an element falls: every length 0..=67 at every start
    /// offset 0..=7, so each element is seen in the vector body, the
    /// peeled head and the scalar tail. Batched ≡ sequential serving rests
    /// on this (a row's softmax must not depend on its neighbours).
    #[test]
    fn slice_kernels_match_the_scalar_functions_at_every_lane() {
        let data = probe(67 + 8, 1);
        let grads = probe(67 + 8, 2);
        for len in 0..=67 {
            for off in 0..=7 {
                let x = &data[off..off + len];
                let shift = if len > 0 { x[len / 2] } else { 0.0 };
                let mut out = vec![0.0; len];
                exp_sub(x, shift, &mut out);
                for (i, (&o, &v)) in out.iter().zip(x).enumerate() {
                    assert!(same(o, exp(v - shift)), "exp_sub len {len} off {off} i {i}");
                }
                // Past 64 elements exp_sum's stack buffer refills.
                let sum = x.iter().fold(0.0f32, |s, &v| s + exp(v - shift));
                assert!(same(exp_sum(x, shift), sum), "exp_sum len {len} off {off}");
                // GELU forward's loop is the tanh kernel as the training
                // step runs it; the map is Graph::tanh / exp / sigmoid's.
                let (mut y, mut t) = (vec![0.0; len], vec![0.0; len]);
                crate::rowwise::gelu_fwd(x, &mut y, &mut t);
                let mapped = crate::Array::from_slice(x).map(tanh);
                for (i, &v) in x.iter().enumerate() {
                    let (want_y, want_t) = crate::rowwise::gelu_parts(v);
                    assert!(same(y[i], want_y), "gelu len {len} off {off} i {i}");
                    assert!(same(t[i], want_t), "gelu len {len} off {off} i {i}");
                    assert!(
                        same(mapped.data()[i], tanh(v)),
                        "tanh map len {len} off {off}"
                    );
                }
                // Softmax rows run the exp pass plus an ascending sum.
                if len > 0 {
                    let mut p = vec![0.0; len];
                    crate::rowwise::softmax_row(x, &mut p);
                    let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let e: Vec<f32> = x.iter().map(|&v| exp(v - m)).collect();
                    let sum = e.iter().fold(0.0f32, |s, &v| s + v);
                    for (i, (&pi, &ei)) in p.iter().zip(&e).enumerate() {
                        assert!(same(pi, ei / sum), "softmax len {len} off {off} i {i}");
                    }
                    let g = &grads[off..off + len];
                    let mut d = vec![0.0; len];
                    crate::rowwise::log_softmax_bwd(x, g, &mut d, len);
                    let gsum = g.iter().fold(0.0f32, |s, &v| s + v);
                    for (i, ((&di, &yi), &gi)) in d.iter().zip(x).zip(g).enumerate() {
                        assert!(
                            same(di, gi - exp(yi) * gsum),
                            "log_softmax_bwd len {len} off {off} i {i}"
                        );
                    }
                }
            }
        }
    }
}
