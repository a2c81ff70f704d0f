//! SDR dot-product primitives shared by the ISS FPU and the native DUT model.
//!
//! These functions define the *reference semantics* of the SmallFloat /
//! MiniFloat SIMD instructions used by the five MMSE kernel precisions
//! (paper §IV). Each function documents its exact evaluation and rounding
//! order; the ISS executes these same functions, so ISS-executed kernels and
//! the native detector models are bit-identical by construction.
//!
//! Naming follows the PULP SmallFloat convention: `vfdotpex` is the
//! *expanding* (widening-accumulator) dot product, the `n` variant negates
//! the second product of each pair (used for the real part of complex
//! multiply-accumulates), and `vfcdotpex` is the complex dot product with
//! 32-bit internal precision.

//! # Fast paths
//!
//! The complex-MAC primitives are *fused*: every operand lane is widened
//! once (table lookup), the whole four-rounding sequence runs on the
//! widened values, and each terminal rounding uses the specialized
//! narrowing converters — one call into the softfloat layer instead of
//! four independent mul/add round trips. Word-level early-outs skip the
//! arithmetic entirely when a multiplicand is (signed) zero and the
//! result is provably the unchanged accumulator. The original generic
//! implementations are retained verbatim in [`reference`](mod@reference) and pinned
//! bit-identical by `tests/fastpath.rs`.

use crate::{F16, F8};

/// `true` if both packed lanes are (signed) zero — the word-level test
/// `(bits(x0) | bits(x1)) & 0x7fff == 0`.
#[inline]
fn h2_zero(x: [F16; 2]) -> bool {
    (x[0].to_bits() | x[1].to_bits()) & 0x7fff == 0
}

/// `true` if both lanes are finite (no Inf/NaN that could poison a
/// zero product).
#[inline]
fn h2_finite(x: [F16; 2]) -> bool {
    x[0].is_finite() && x[1].is_finite()
}

/// `true` if both lanes have nonzero magnitude and are not NaN: adding a
/// signed zero provably leaves such values unchanged through the
/// widen/narrow round trip (a NaN lane would be payload-canonicalized by
/// the full path, and a zero lane's sign can flip).
#[inline]
fn h2_ordinary(x: [F16; 2]) -> bool {
    x[0].to_bits() & 0x7fff != 0 && x[1].to_bits() & 0x7fff != 0 && !x[0].is_nan() && !x[1].is_nan()
}

/// Early-out for every complex-MAC shape: when one multiplicand word is
/// all signed zeros, the other is finite, and both accumulator lanes are
/// ordinary (nonzero, non-NaN), all four products are signed zeros and
/// every terminal RNE rounding reproduces the accumulator exactly.
#[inline]
fn cmac_skips(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> bool {
    ((h2_zero(a) && h2_finite(b)) || (h2_zero(b) && h2_finite(a))) && h2_ordinary(acc)
}

#[inline]
fn b2_zero(x: [F8; 2]) -> bool {
    (x[0].to_bits() | x[1].to_bits()) & 0x7f == 0
}

#[inline]
fn b2_finite(x: [F8; 2]) -> bool {
    x[0].is_finite() && x[1].is_finite()
}

#[inline]
fn b2_ordinary(x: [F8; 2]) -> bool {
    x[0].to_bits() & 0x7f != 0 && x[1].to_bits() & 0x7f != 0 && !x[0].is_nan() && !x[1].is_nan()
}

/// Binary8 variant of [`cmac_skips`].
#[inline]
fn cmac_skips_b(acc: [F8; 2], a: [F8; 2], b: [F8; 2]) -> bool {
    ((b2_zero(a) && b2_finite(b)) || (b2_zero(b) && b2_finite(a))) && b2_ordinary(acc)
}

/// Widening 2-lane dot product, 16-bit lanes, 32-bit accumulator
/// (`vfdotpex.s.h`).
///
/// Computes `acc + (a0*b0 + a1*b1)`. Each product is exact in `f32`
/// (binary16 significands are 11 bits); the two products are summed with one
/// RNE rounding, then added to `acc` with a second RNE rounding.
///
/// # Examples
///
/// ```
/// use terasim_softfloat::{ops, F16};
///
/// let acc = ops::vfdotpex_s_h(
///     1.0,
///     [F16::from_f32(2.0), F16::from_f32(3.0)],
///     [F16::from_f32(4.0), F16::from_f32(5.0)],
/// );
/// assert_eq!(acc, 24.0); // 1 + 8 + 15
/// ```
pub fn vfdotpex_s_h(acc: f32, a: [F16; 2], b: [F16; 2]) -> f32 {
    let p0 = a[0].to_f32() * b[0].to_f32();
    let p1 = a[1].to_f32() * b[1].to_f32();
    acc + (p0 + p1)
}

/// Widening 2-lane dot product with negated second lane
/// (`vfndotpex.s.h`): `acc + (a0*b0 - a1*b1)`.
///
/// Used for the real part of a complex MAC: with `a = [ar, ai]` and
/// `b = [br, bi]` this accumulates `Re(a·b) = ar*br - ai*bi`.
pub fn vfndotpex_s_h(acc: f32, a: [F16; 2], b: [F16; 2]) -> f32 {
    let p0 = a[0].to_f32() * b[0].to_f32();
    let p1 = a[1].to_f32() * b[1].to_f32();
    acc + (p0 - p1)
}

/// Widening 4-lane dot product, 8-bit lanes, two 16-bit accumulators
/// (`vfdotpex.h.b`).
///
/// Lane pairs accumulate independently:
/// `acc[0] + (a0*b0 + a1*b1)` and `acc[1] + (a2*b2 + a3*b3)`.
/// Products are exact in `f32` (binary8 significands are 3 bits), each pair is
/// summed in `f32` with one RNE rounding, and each accumulator update rounds
/// once to binary16.
pub fn vfdotpex_h_b(acc: [F16; 2], a: [F8; 4], b: [F8; 4]) -> [F16; 2] {
    let pair = |i: usize| a[i].to_f32() * b[i].to_f32() + a[i + 1].to_f32() * b[i + 1].to_f32();
    [F16::from_f32(acc[0].to_f32() + pair(0)), F16::from_f32(acc[1].to_f32() + pair(2))]
}

/// Widening 4-lane dot product with negated second lane of each pair
/// (`vfndotpex.h.b`): `acc[0] + (a0*b0 - a1*b1)`, `acc[1] + (a2*b2 - a3*b3)`.
///
/// With two packed 8-bit complex numbers `[a0r, a0i, a1r, a1i]` this
/// accumulates the real parts of both complex products at once.
pub fn vfndotpex_h_b(acc: [F16; 2], a: [F8; 4], b: [F8; 4]) -> [F16; 2] {
    let pair = |i: usize| a[i].to_f32() * b[i].to_f32() - a[i + 1].to_f32() * b[i + 1].to_f32();
    [F16::from_f32(acc[0].to_f32() + pair(0)), F16::from_f32(acc[1].to_f32() + pair(2))]
}

/// Complex 16-bit MAC with 32-bit internal precision (`vfcdotpex.s.h`,
/// the "16bCDotp" primitive).
///
/// Computes `acc + a*b` for complex operands `a = ar + j·ai`,
/// `b = br + j·bi`. The four products and the inner additions are evaluated
/// in `f32` (products exact, one RNE each for the inner add), and each
/// accumulator half rounds once back to binary16:
///
/// ```text
/// re' = rne16(f32(acc_re) + (ar*br - ai*bi))
/// im' = rne16(f32(acc_im) + (ar*bi + ai*br))
/// ```
pub fn vfcdotpex_s_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
    if cmac_skips(acc, a, b) {
        return acc;
    }
    let (ar, ai) = (a[0].to_f32(), a[1].to_f32());
    let (br, bi) = (b[0].to_f32(), b[1].to_f32());
    [
        F16::from_f32(acc[0].to_f32() + (ar * br - ai * bi)),
        F16::from_f32(acc[1].to_f32() + (ar * bi + ai * br)),
    ]
}

/// Conjugated complex 16-bit MAC with 32-bit internal precision
/// (`vfcdotpex.c.s.h`): computes `acc + conj(a)*b`.
///
/// The Gram matrix `H^H H` and matched filter `H^H y` of the MMSE detector
/// multiply by the *conjugate transpose*, so the kernels use this variant:
///
/// ```text
/// re' = rne16(f32(acc_re) + (ar*br + ai*bi))
/// im' = rne16(f32(acc_im) + (ar*bi - ai*br))
/// ```
pub fn vfcdotpex_conj_s_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
    if cmac_skips(acc, a, b) {
        return acc;
    }
    let (ar, ai) = (a[0].to_f32(), a[1].to_f32());
    let (br, bi) = (b[0].to_f32(), b[1].to_f32());
    [
        F16::from_f32(acc[0].to_f32() + (ar * br + ai * bi)),
        F16::from_f32(acc[1].to_f32() + (ar * bi - ai * br)),
    ]
}

/// `fnmsub.h` as the native kernel models evaluate it: `-(a*b) + c` in
/// `f64` (the product is exact), rounded once to binary16.
pub fn fnmsub_h(a: F16, b: F16, c: F16) -> F16 {
    F16::from_f64(-(a.to_f64() * b.to_f64()) + c.to_f64())
}

/// Scalar conjugated complex MAC in pure binary16 (`acc + conj(a)*b`) with
/// `fmadd.h`-family rounding, used by the "16bHalf" Gram/MVM loops.
///
/// ```text
/// re1 = fmadd(ar, br, acc_re)
/// re' = fmadd(ai, bi, re1)
/// im1 = fmadd(ar, bi, acc_im)
/// im' = fnmsub(ai, br, im1)
/// ```
pub fn cmac_conj_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
    if cmac_skips(acc, a, b) {
        return acc;
    }
    // Fused: widen the six operand lanes once, keep the exact rounding
    // chain (each `from_f64` is one terminal RNE, as in `fmadd.h`).
    let (ar, ai) = (a[0].to_f64(), a[1].to_f64());
    let (br, bi) = (b[0].to_f64(), b[1].to_f64());
    let re1 = F16::from_f64(ar * br + acc[0].to_f64());
    let re = F16::from_f64(ai * bi + re1.to_f64());
    let im1 = F16::from_f64(ar * bi + acc[1].to_f64());
    let im = F16::from_f64(-(ai * br) + im1.to_f64());
    [re, im]
}

/// Scalar conjugated complex MAC in quarter precision (`acc + conj(a)*b`),
/// the "8bQuarter" Gram/MVM primitive (`pv.cmac.c.b`).
pub fn cmac_conj_b(acc: [F8; 2], a: [F8; 2], b: [F8; 2]) -> [F8; 2] {
    if cmac_skips_b(acc, a, b) {
        return acc;
    }
    let (ar, ai) = (a[0].to_f64(), a[1].to_f64());
    let (br, bi) = (b[0].to_f64(), b[1].to_f64());
    let re1 = F8::from_f64(ar * br + acc[0].to_f64());
    let re = F8::from_f64(ai * bi + re1.to_f64());
    let im1 = F8::from_f64(ar * bi + acc[1].to_f64());
    let im = F8::from_f64(-(ai * br) + im1.to_f64());
    [re, im]
}

/// Scalar complex MAC in pure binary16, the "16bHalf" primitive.
///
/// Four `fmadd.h`-family operations, each with a single terminal rounding
/// (see [`F16::mul_add`]):
///
/// ```text
/// re1 = fmadd(ar, br, acc_re)   // rne16(ar*br + acc_re)
/// re' = fnmsub(ai, bi, re1)     // rne16(-(ai*bi) + re1)
/// im1 = fmadd(ar, bi, acc_im)
/// im' = fmadd(ai, br, im1)
/// ```
pub fn cmac_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
    if cmac_skips(acc, a, b) {
        return acc;
    }
    // Fused: widen the six operand lanes once, keep the exact rounding
    // chain (each `from_f64` is one terminal RNE, as in `fmadd.h`).
    let (ar, ai) = (a[0].to_f64(), a[1].to_f64());
    let (br, bi) = (b[0].to_f64(), b[1].to_f64());
    let re1 = F16::from_f64(ar * br + acc[0].to_f64());
    let re = F16::from_f64(-(ai * bi) + re1.to_f64());
    let im1 = F16::from_f64(ar * bi + acc[1].to_f64());
    let im = F16::from_f64(ai * br + im1.to_f64());
    [re, im]
}

/// Scalar complex MAC in pure quarter precision (binary8), used by the
/// "8bQuarter" kernel for the Gram matrix and matched filter.
///
/// Same structure as [`cmac_h`] with all roundings in binary8.
pub fn cmac_b(acc: [F8; 2], a: [F8; 2], b: [F8; 2]) -> [F8; 2] {
    if cmac_skips_b(acc, a, b) {
        return acc;
    }
    let (ar, ai) = (a[0].to_f64(), a[1].to_f64());
    let (br, bi) = (b[0].to_f64(), b[1].to_f64());
    let re1 = F8::from_f64(ar * br + acc[0].to_f64());
    let re = F8::from_f64(-(ai * bi) + re1.to_f64());
    let im1 = F8::from_f64(ar * bi + acc[1].to_f64());
    let im = F8::from_f64(ai * br + im1.to_f64());
    [re, im]
}

/// 2-lane binary16 shuffle helper (`pv.shuffle2.h` with a swap pattern):
/// returns `[x1, x0]`.
pub fn swap_h(x: [F16; 2]) -> [F16; 2] {
    [x[1], x[0]]
}

/// 4-lane byte shuffle helper: swaps the bytes of each 16-bit half,
/// `[x1, x0, x3, x2]`, turning packed `[re, im]` pairs into `[im, re]`.
pub fn swap_b(x: [F8; 4]) -> [F8; 4] {
    [x[1], x[0], x[3], x[2]]
}

/// Retained reference implementations of the accelerated primitives,
/// built *only* on the generic converters in `crate::convert` — no
/// lookup tables, no specialized narrowing, no early-outs. These are the
/// seed semantics; `tests/fastpath.rs` pins every fast path bit-identical
/// to them (exhaustive for the unary ops, large seeded sweeps for the
/// binary/fused ops).
pub mod reference {
    use crate::convert::{mini_from_f32_bits, mini_from_f64_bits, mini_to_f32_bits};
    use crate::{F16, F8};

    /// Reference binary16 → `f32` widening (exact).
    pub fn h_to_f32(x: F16) -> f32 {
        mini_to_f32_bits(u32::from(x.to_bits()), F16::FORMAT)
    }

    /// Reference binary16 → `f64` widening (exact).
    pub fn h_to_f64(x: F16) -> f64 {
        f64::from(h_to_f32(x))
    }

    /// Reference `f32` → binary16 narrowing (RNE).
    pub fn h_from_f32(x: f32) -> F16 {
        F16::from_bits(mini_from_f32_bits(x, F16::FORMAT) as u16)
    }

    /// Reference `f64` → binary16 narrowing (single RNE).
    pub fn h_from_f64(x: f64) -> F16 {
        F16::from_bits(mini_from_f64_bits(x, F16::FORMAT) as u16)
    }

    /// Reference binary8 → `f32` widening (exact).
    pub fn b_to_f32(x: F8) -> f32 {
        mini_to_f32_bits(u32::from(x.to_bits()), F8::FORMAT)
    }

    /// Reference binary8 → `f64` widening (exact).
    pub fn b_to_f64(x: F8) -> f64 {
        f64::from(b_to_f32(x))
    }

    /// Reference `f64` → binary8 narrowing (single RNE).
    pub fn b_from_f64(x: f64) -> F8 {
        F8::from_bits(mini_from_f64_bits(x, F8::FORMAT) as u8)
    }

    /// Reference binary16 square root.
    pub fn sqrt_h(x: F16) -> F16 {
        h_from_f32(h_to_f32(x).sqrt())
    }

    /// Reference binary16 reciprocal (`1/x` through correctly rounded
    /// `f32` division).
    pub fn recip_h(x: F16) -> F16 {
        h_from_f32(1.0 / h_to_f32(x))
    }

    /// Reference `fmadd.h`: `a*b + c` with one terminal rounding.
    pub fn mul_add_h(a: F16, b: F16, c: F16) -> F16 {
        h_from_f64(h_to_f64(a) * h_to_f64(b) + h_to_f64(c))
    }

    /// Reference [`vfcdotpex_s_h`](super::vfcdotpex_s_h) (seed body).
    pub fn vfcdotpex_s_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
        let (ar, ai) = (h_to_f32(a[0]), h_to_f32(a[1]));
        let (br, bi) = (h_to_f32(b[0]), h_to_f32(b[1]));
        [
            h_from_f32(h_to_f32(acc[0]) + (ar * br - ai * bi)),
            h_from_f32(h_to_f32(acc[1]) + (ar * bi + ai * br)),
        ]
    }

    /// Reference [`vfcdotpex_conj_s_h`](super::vfcdotpex_conj_s_h) (seed
    /// body).
    pub fn vfcdotpex_conj_s_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
        let (ar, ai) = (h_to_f32(a[0]), h_to_f32(a[1]));
        let (br, bi) = (h_to_f32(b[0]), h_to_f32(b[1]));
        [
            h_from_f32(h_to_f32(acc[0]) + (ar * br + ai * bi)),
            h_from_f32(h_to_f32(acc[1]) + (ar * bi - ai * br)),
        ]
    }

    /// Reference [`cmac_h`](super::cmac_h) (seed body: four dependent
    /// `fmadd.h`-family round trips).
    pub fn cmac_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
        let re1 = mul_add_h(a[0], b[0], acc[0]);
        let re = h_from_f64(-(h_to_f64(a[1]) * h_to_f64(b[1])) + h_to_f64(re1));
        let im1 = mul_add_h(a[0], b[1], acc[1]);
        let im = mul_add_h(a[1], b[0], im1);
        [re, im]
    }

    /// Reference [`cmac_conj_h`](super::cmac_conj_h) (seed body).
    pub fn cmac_conj_h(acc: [F16; 2], a: [F16; 2], b: [F16; 2]) -> [F16; 2] {
        let re1 = mul_add_h(a[0], b[0], acc[0]);
        let re = mul_add_h(a[1], b[1], re1);
        let im1 = mul_add_h(a[0], b[1], acc[1]);
        let im = h_from_f64(-(h_to_f64(a[1]) * h_to_f64(b[0])) + h_to_f64(im1));
        [re, im]
    }

    /// Reference [`cmac_b`](super::cmac_b) (seed body).
    pub fn cmac_b(acc: [F8; 2], a: [F8; 2], b: [F8; 2]) -> [F8; 2] {
        let re1 = b_from_f64(b_to_f64(a[0]) * b_to_f64(b[0]) + b_to_f64(acc[0]));
        let re = b_from_f64(-(b_to_f64(a[1]) * b_to_f64(b[1])) + b_to_f64(re1));
        let im1 = b_from_f64(b_to_f64(a[0]) * b_to_f64(b[1]) + b_to_f64(acc[1]));
        let im = b_from_f64(b_to_f64(a[1]) * b_to_f64(b[0]) + b_to_f64(im1));
        [re, im]
    }

    /// Reference [`cmac_conj_b`](super::cmac_conj_b) (seed body).
    pub fn cmac_conj_b(acc: [F8; 2], a: [F8; 2], b: [F8; 2]) -> [F8; 2] {
        let re1 = b_from_f64(b_to_f64(a[0]) * b_to_f64(b[0]) + b_to_f64(acc[0]));
        let re = b_from_f64(b_to_f64(a[1]) * b_to_f64(b[1]) + b_to_f64(re1));
        let im1 = b_from_f64(b_to_f64(a[0]) * b_to_f64(b[1]) + b_to_f64(acc[1]));
        let im = b_from_f64(-(b_to_f64(a[1]) * b_to_f64(b[0])) + b_to_f64(im1));
        [re, im]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: f32) -> F16 {
        F16::from_f32(x)
    }

    fn q(x: f32) -> F8 {
        F8::from_f32(x)
    }

    #[test]
    fn complex_mac_paths_agree_on_exact_values() {
        // (1+2j)*(3+4j) = 3-8 + j(4+6) = -5 + 10j; all intermediates exact.
        let a = [h(1.0), h(2.0)];
        let b = [h(3.0), h(4.0)];
        let acc = [h(0.5), h(-0.5)];

        let half = cmac_h(acc, a, b);
        assert_eq!([half[0].to_f32(), half[1].to_f32()], [-4.5, 9.5]);

        let cd = vfcdotpex_s_h(acc, a, b);
        assert_eq!([cd[0].to_f32(), cd[1].to_f32()], [-4.5, 9.5]);

        // wDotp path: re via ndotp(a, b), im via dotp(a, swap(b)).
        let re = vfndotpex_s_h(acc[0].to_f32(), a, b);
        let im = vfdotpex_s_h(acc[1].to_f32(), a, swap_h(b));
        assert_eq!([re, im], [-4.5, 9.5]);
    }

    #[test]
    fn wdotp_wider_accumulator_beats_half() {
        // Accumulate 1024 + 0.5 repeatedly: f32 accumulator keeps the 0.5s,
        // binary16 (ulp(1024) = 1) ties them away to even.
        let big = h(1024.0);
        let tiny = [h(0.5), h(1.0)];
        let one = [h(1.0), h(0.0)];
        let f32_acc = vfdotpex_s_h(big.to_f32(), tiny, one);
        assert_eq!(f32_acc, 1024.5);
        let h_acc = big.mul_add(h(1.0), h(0.5));
        assert_eq!(h_acc.to_f32(), 1024.0, "binary16 loses the 0.5 (tie to even)");
    }

    #[test]
    fn quad_dotp_accumulates_pairwise() {
        let a = [q(1.0), q(2.0), q(3.0), q(4.0)];
        let b = [q(5.0), q(6.0), q(7.0), q(8.0)];
        let acc = vfdotpex_h_b([F16::ZERO; 2], a, b);
        assert_eq!(acc[0].to_f32(), 17.0); // 5 + 12
        assert_eq!(acc[1].to_f32(), 53.0); // 21 + 32
        let nacc = vfndotpex_h_b([F16::ZERO; 2], a, b);
        assert_eq!(nacc[0].to_f32(), -7.0); // 5 - 12
        assert_eq!(nacc[1].to_f32(), -11.0); // 21 - 32
    }

    #[test]
    fn packed_complex_8b_mac() {
        // Two 8b complex numbers per word: a = [1+2j, 3+4j], b = [5+6j, 7+8j].
        let a = [q(1.0), q(2.0), q(3.0), q(4.0)];
        let b = [q(5.0), q(6.0), q(7.0), q(8.0)];
        // Real parts: 1*5-2*6 = -7 and 3*7-4*8 = -11.
        let re = vfndotpex_h_b([F16::ZERO; 2], a, b);
        // Imag parts: 1*6+2*5 = 16 and 3*8+4*7 = 52, via byte swap of b.
        let im = vfdotpex_h_b([F16::ZERO; 2], a, swap_b(b));
        assert_eq!([re[0].to_f32(), re[1].to_f32()], [-7.0, -11.0]);
        assert_eq!([im[0].to_f32(), im[1].to_f32()], [16.0, 52.0]);
    }

    #[test]
    fn shuffles() {
        assert_eq!(swap_h([h(1.0), h(2.0)]), [h(2.0), h(1.0)]);
        assert_eq!(swap_b([q(1.0), q(2.0), q(3.0), q(4.0)]), [q(2.0), q(1.0), q(4.0), q(3.0)]);
    }
}
