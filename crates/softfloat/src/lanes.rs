//! Eight-lane binary16 arithmetic on AVX2 + F16C: one independent
//! problem per lane, bit-identical lane by lane to the scalar [`F16`]
//! operators and [`ops`](crate::ops) primitives.
//!
//! The native MMSE models solve thousands of independent subcarrier
//! problems with the same operation sequence. Running eight of them
//! side by side, one per SIMD lane, replaces eight table lookups and
//! eight branchy narrowing converters per step with one `vcvtph2ps` and
//! one `vcvtps2ph`. Every function here mirrors one scalar operation and
//! keeps its exact evaluation order:
//!
//! | lane op | scalar op | evaluated in |
//! |---|---|---|
//! | [`fadd_h`], [`fmul_h`] | `F16 + F16`, `F16 * F16` | `f32`, one RNE narrowing |
//! | [`vfcdotpex_s_h`], [`vfcdotpex_conj_s_h`] | [`ops::vfcdotpex_s_h`](crate::ops::vfcdotpex_s_h), [`ops::vfcdotpex_conj_s_h`](crate::ops::vfcdotpex_conj_s_h) | `f32`, one RNE narrowing per half |
//! | [`vfdotpex_s_h`], [`vfndotpex_s_h`], [`fadd_s`] | [`ops::vfdotpex_s_h`](crate::ops::vfdotpex_s_h), [`ops::vfndotpex_s_h`](crate::ops::vfndotpex_s_h), `f32 + f32` | `f32` accumulators |
//! | [`fmadd_h`], [`fnmsub_h`], [`cmac_conj_h`] | [`F16::mul_add`], [`ops::fnmsub_h`](crate::ops::fnmsub_h), [`ops::cmac_conj_h`](crate::ops::cmac_conj_h) | `f64`, one rounding to binary16 |
//! | [`fsqrt_h`], [`recip_h`] | [`F16::sqrt`], [`F16::recip`] | the scalar tables, lane by lane |
//!
//! # Why the lanes are bit-exact
//!
//! * **Widening** (`vcvtph2ps`) is exact for every binary16 value,
//!   subnormals included. [`fcvt_s_h`] then canonicalizes NaN lanes to
//!   `sign | 0x7fc0_0000`, like the scalar widening table.
//! * **`f32` → binary16 narrowing** (`vcvtps2ph`) takes its rounding mode
//!   from the immediate, round-to-nearest-even, not from MXCSR.
//!   [`fcvt_h_s`] then canonicalizes NaN lanes to `sign | 0x7e00`,
//!   exactly like `F16::from_f32`.
//! * **`f32` and `f64` arithmetic** runs under the default MXCSR that Rust
//!   code assumes everywhere: round-to-nearest-even, flush-to-zero and
//!   denormals-are-zero off, so subnormal operands and results are
//!   honoured exactly as in the scalar code. Multiplies and adds are
//!   separate instructions; nothing is contracted into an FMA.
//! * **`f64` → binary16 narrowing** must round once, like
//!   `F16::from_f64`. Each lane first rounds to `f32` *to odd* (truncate,
//!   then set the last bit if anything was lost; Boldo and Melquiond),
//!   then narrows with `vcvtps2ph` RNE. `f32` carries 13 more significand
//!   bits than binary16 in every binade binary16 can reach, so the odd
//!   sticky bit keeps every halfway decision intact and the two roundings
//!   equal one.
//! * **NaN lanes are recomputed by the scalar op.** On x86 an operation
//!   on two NaNs returns the first source operand's NaN, and the compiler
//!   may commute the operands of an add or multiply, in scalar and in
//!   vector code alike. So which NaN sign an arithmetic op produces is
//!   fixed by the compiled scalar code, not by its source. Every
//!   arithmetic lane op therefore checks its result for NaN lanes (one
//!   compare and one mask move) and, if there is one, recomputes all
//!   eight lanes with the scalar op it mirrors. Lanes that are not NaN do
//!   not depend on operand order. `tests/fastpath.rs` pins every lane op
//!   against its scalar op with NaNs on either side and on both.
//!
//! The complex MACs have no early-out: the scalar ops' zero-operand skip
//! is pinned equal to the full computation, so the lanes always compute.
//!
//! # When the scalar path runs
//!
//! Only x86-64 hosts whose CPU reports both AVX2 and F16C at run time
//! ([`available`]) run these ops; callers fall back to the scalar ops
//! otherwise (other architectures do not compile this module at all).
//!
//! # Safety
//!
//! Every lane op is a `#[target_feature(enable = "avx2,f16c")]` function.
//! Code compiled with those features calls it directly; everything else
//! calls it in an `unsafe` block, which is sound only once [`available`]
//! has returned `true`.

// The contract of every lane op is the module's "Safety" section above.
#![allow(clippy::missing_safety_doc)]

use std::arch::x86_64::*;

use crate::F16;

/// Whether this host's CPU runs the lane ops: AVX2 and F16C, detected at
/// run time (the result is cached by `std`).
pub fn available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")
}

/// Eight binary16 values, one per lane.
#[derive(Clone, Copy, Debug)]
#[repr(transparent)]
pub struct H8(__m128i);

impl H8 {
    /// Lanes from raw binary16 bit patterns.
    #[inline]
    pub fn from_bits(bits: [u16; 8]) -> Self {
        // SAFETY: `[u16; 8]` and `__m128i` are both 16 plain bytes and every
        // bit pattern is valid for either; no CPU feature is involved.
        Self(unsafe { core::mem::transmute::<[u16; 8], __m128i>(bits) })
    }

    /// The lanes' raw bit patterns.
    #[inline]
    pub fn to_bits(self) -> [u16; 8] {
        // SAFETY: as in `from_bits`, a same-size transmute of plain bytes.
        unsafe { core::mem::transmute::<__m128i, [u16; 8]>(self.0) }
    }

    /// `x` in every lane.
    #[inline]
    pub fn splat(x: F16) -> Self {
        Self::from_bits([x.to_bits(); 8])
    }

    /// Lane `i` as a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline]
    pub fn lane(self, i: usize) -> F16 {
        F16::from_bits(self.to_bits()[i])
    }

    /// Applies a scalar operation lane by lane.
    #[inline]
    fn map(self, f: impl Fn(F16) -> F16) -> Self {
        Self::from_bits(self.to_bits().map(|b| f(F16::from_bits(b)).to_bits()))
    }
}

/// Eight `f32` values, one per lane: the `f32` accumulators of the
/// widening dot products.
#[derive(Clone, Copy, Debug)]
#[repr(transparent)]
pub struct S8(__m256);

impl S8 {
    /// Lanes from `f32` values.
    #[inline]
    pub fn from_array(x: [f32; 8]) -> Self {
        // SAFETY: `[f32; 8]` and `__m256` are both 32 plain bytes and every
        // bit pattern is valid for either; no CPU feature is involved.
        Self(unsafe { core::mem::transmute::<[f32; 8], __m256>(x) })
    }

    /// The lanes as `f32` values.
    #[inline]
    pub fn to_array(self) -> [f32; 8] {
        // SAFETY: as in `from_array`, a same-size transmute of plain bytes.
        unsafe { core::mem::transmute::<__m256, [f32; 8]>(self.0) }
    }
}

// --- Scalar recomputation of NaN lanes ---------------------------------

/// All eight lanes of a binary16-valued op, through the scalar op.
#[cold]
#[inline(never)]
fn scalar_h<const N: usize>(args: [H8; N], op: impl Fn([F16; N]) -> F16) -> H8 {
    H8::from_bits(std::array::from_fn(|l| op(args.map(|x| x.lane(l))).to_bits()))
}

/// All eight lanes of a complex binary16 op, through the scalar op.
#[cold]
#[inline(never)]
fn scalar_h2(args: [[H8; 2]; 3], op: impl Fn([F16; 2], [F16; 2], [F16; 2]) -> [F16; 2]) -> [H8; 2] {
    let at = |x: [H8; 2], l: usize| [x[0].lane(l), x[1].lane(l)];
    let out: [[F16; 2]; 8] = std::array::from_fn(|l| op(at(args[0], l), at(args[1], l), at(args[2], l)));
    [H8::from_bits(out.map(|c| c[0].to_bits())), H8::from_bits(out.map(|c| c[1].to_bits()))]
}

/// All eight lanes of a widening dot product, through the scalar op.
#[cold]
#[inline(never)]
fn scalar_s(acc: S8, a: [H8; 2], b: [H8; 2], op: impl Fn(f32, [F16; 2], [F16; 2]) -> f32) -> S8 {
    let acc = acc.to_array();
    S8::from_array(std::array::from_fn(|l| {
        op(acc[l], [a[0].lane(l), a[1].lane(l)], [b[0].lane(l), b[1].lane(l)])
    }))
}

/// Whether any binary16 lane is a NaN.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn any_nan_h(x: __m128i) -> bool {
    _mm_movemask_epi8(nan_mask_h(x)) != 0
}

/// All-ones in the NaN lanes of `x`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn nan_mask_h(x: __m128i) -> __m128i {
    _mm_cmpgt_epi16(_mm_and_si128(x, _mm_set1_epi16(0x7fff)), _mm_set1_epi16(0x7c00))
}

/// Whether any `f32` lane is a NaN.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn any_nan_s(x: __m256) -> bool {
    _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x)) != 0
}

// --- Conversions --------------------------------------------------------

/// `vcvtph2ps`: exact, NaN payloads kept.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn widen(x: H8) -> __m256 {
    _mm256_cvtph_ps(x.0)
}

/// `vcvtps2ph` with round-to-nearest-even from the immediate.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn narrow(x: __m256) -> __m128i {
    _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x)
}

/// Widens every lane to `f32` (`fcvt.s.h`), bit-identical to
/// [`F16::to_f32`]: exact, NaNs canonicalized to `sign | 0x7fc0_0000`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fcvt_s_h(x: H8) -> S8 {
    let wide = widen(x);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(wide, wide);
    let canonical = _mm256_or_ps(
        _mm256_and_ps(wide, _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN))),
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc0_0000)),
    );
    S8(_mm256_blendv_ps(wide, canonical, nan))
}

/// Narrows every lane to binary16 with one RNE rounding (`fcvt.h.s`),
/// bit-identical to [`F16::from_f32`]: NaNs become `sign | 0x7e00`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fcvt_h_s(x: S8) -> H8 {
    let h = narrow(x.0);
    let nan = nan_mask_h(h);
    // A NaN already has the exponent field all ones: clear the payload,
    // set the quiet bit.
    let cleared = _mm_andnot_si128(_mm_and_si128(nan, _mm_set1_epi16(0x01ff)), h);
    H8(_mm_or_si128(cleared, _mm_and_si128(nan, _mm_set1_epi16(0x0200))))
}

// --- f32 arithmetic -----------------------------------------------------

/// Lane-wise `a + b` (`fadd.h`), as `F16 + F16`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fadd_h(a: H8, b: H8) -> H8 {
    let r = narrow(_mm256_add_ps(widen(a), widen(b)));
    if any_nan_h(r) {
        return scalar_h([a, b], |[a, b]| a + b);
    }
    H8(r)
}

/// Lane-wise `a * b` (`fmul.h`), as `F16 * F16`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fmul_h(a: H8, b: H8) -> H8 {
    let r = narrow(_mm256_mul_ps(widen(a), widen(b)));
    if any_nan_h(r) {
        return scalar_h([a, b], |[a, b]| a * b);
    }
    H8(r)
}

/// Lane-wise `a + b` on `f32` accumulators (`fadd.s`).
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fadd_s(a: S8, b: S8) -> S8 {
    let r = _mm256_add_ps(a.0, b.0);
    if any_nan_s(r) {
        let (a, b) = (a.to_array(), b.to_array());
        return S8::from_array(std::array::from_fn(|l| a[l] + b[l]));
    }
    S8(r)
}

/// Lane-wise [`ops::vfcdotpex_s_h`](crate::ops::vfcdotpex_s_h):
/// `acc + a*b` over complex lanes `[re, im]`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn vfcdotpex_s_h(acc: [H8; 2], a: [H8; 2], b: [H8; 2]) -> [H8; 2] {
    let (ar, ai, br, bi) = (widen(a[0]), widen(a[1]), widen(b[0]), widen(b[1]));
    let re = _mm256_sub_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
    let im = _mm256_add_ps(_mm256_mul_ps(ar, bi), _mm256_mul_ps(ai, br));
    let re = narrow(_mm256_add_ps(widen(acc[0]), re));
    let im = narrow(_mm256_add_ps(widen(acc[1]), im));
    if any_nan_h(_mm_or_si128(nan_mask_h(re), nan_mask_h(im))) {
        return scalar_h2([acc, a, b], crate::ops::vfcdotpex_s_h);
    }
    [H8(re), H8(im)]
}

/// Lane-wise [`ops::vfcdotpex_conj_s_h`](crate::ops::vfcdotpex_conj_s_h):
/// `acc + conj(a)*b` over complex lanes `[re, im]`.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn vfcdotpex_conj_s_h(acc: [H8; 2], a: [H8; 2], b: [H8; 2]) -> [H8; 2] {
    let (ar, ai, br, bi) = (widen(a[0]), widen(a[1]), widen(b[0]), widen(b[1]));
    let re = _mm256_add_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
    let im = _mm256_sub_ps(_mm256_mul_ps(ar, bi), _mm256_mul_ps(ai, br));
    let re = narrow(_mm256_add_ps(widen(acc[0]), re));
    let im = narrow(_mm256_add_ps(widen(acc[1]), im));
    if any_nan_h(_mm_or_si128(nan_mask_h(re), nan_mask_h(im))) {
        return scalar_h2([acc, a, b], crate::ops::vfcdotpex_conj_s_h);
    }
    [H8(re), H8(im)]
}

/// Lane-wise [`ops::vfdotpex_s_h`](crate::ops::vfdotpex_s_h):
/// `acc + (a0*b0 + a1*b1)` with an `f32` accumulator.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn vfdotpex_s_h(acc: S8, a: [H8; 2], b: [H8; 2]) -> S8 {
    let p0 = _mm256_mul_ps(widen(a[0]), widen(b[0]));
    let p1 = _mm256_mul_ps(widen(a[1]), widen(b[1]));
    let r = _mm256_add_ps(acc.0, _mm256_add_ps(p0, p1));
    if any_nan_s(r) {
        return scalar_s(acc, a, b, crate::ops::vfdotpex_s_h);
    }
    S8(r)
}

/// Lane-wise [`ops::vfndotpex_s_h`](crate::ops::vfndotpex_s_h):
/// `acc + (a0*b0 - a1*b1)` with an `f32` accumulator.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn vfndotpex_s_h(acc: S8, a: [H8; 2], b: [H8; 2]) -> S8 {
    let p0 = _mm256_mul_ps(widen(a[0]), widen(b[0]));
    let p1 = _mm256_mul_ps(widen(a[1]), widen(b[1]));
    let r = _mm256_add_ps(acc.0, _mm256_sub_ps(p0, p1));
    if any_nan_s(r) {
        return scalar_s(acc, a, b, crate::ops::vfndotpex_s_h);
    }
    S8(r)
}

// --- f64 chains ---------------------------------------------------------

/// Eight binary16 lanes widened to `f64`, as two halves of four.
#[derive(Clone, Copy)]
struct D8([__m256d; 2]);

#[target_feature(enable = "avx2,f16c")]
#[inline]
fn widen_f64(x: H8) -> D8 {
    let s = widen(x);
    D8([_mm256_cvtps_pd(_mm256_castps256_ps128(s)), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(s))])
}

/// Four `f64` lanes rounded to `f32` *to odd*: truncated toward zero,
/// with the last significand bit set when the conversion was inexact.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn round_to_odd_f32(x: __m256d) -> __m128 {
    let nearest = _mm256_cvtpd_ps(x); // RNE under the default MXCSR
    let back = _mm256_cvtps_pd(nearest);
    let magnitude = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
    // Rounded away from zero: step one ulp back (the bit pattern of a
    // nonzero magnitude is monotone). Ordered, so false for NaN.
    let away = _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_and_pd(back, magnitude), _mm256_and_pd(x, magnitude));
    // Inexact (unordered, so NaN lanes count: an odd NaN is still a NaN).
    let inexact = _mm256_cmp_pd::<_CMP_NEQ_UQ>(back, x);
    // Both 4x64-bit masks into one register of 32-bit lanes: `away` in
    // the low four, `inexact` in the high four.
    let both = _mm256_blend_ps::<0b1010_1010>(_mm256_castpd_ps(away), _mm256_castpd_ps(inexact));
    let both =
        _mm256_permutevar8x32_epi32(_mm256_castps_si256(both), _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
    let truncated = _mm_add_epi32(_mm_castps_si128(nearest), _mm256_castsi256_si128(both));
    let sticky = _mm_srli_epi32::<31>(_mm256_extracti128_si256::<1>(both));
    _mm_castsi128_ps(_mm_or_si128(truncated, sticky))
}

/// Eight `f64` lanes narrowed to binary16 with one RNE rounding, as
/// `F16::from_f64`: round to odd into `f32`, then RNE into binary16.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn narrow_f64(x: D8) -> __m128i {
    narrow(_mm256_set_m128(round_to_odd_f32(x.0[1]), round_to_odd_f32(x.0[0])))
}

/// `a*b + c` per `f64` lane, narrowed once (the product is exact: 22
/// significand bits).
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn madd(a: D8, b: D8, c: D8) -> __m128i {
    narrow_f64(D8([
        _mm256_add_pd(_mm256_mul_pd(a.0[0], b.0[0]), c.0[0]),
        _mm256_add_pd(_mm256_mul_pd(a.0[1], b.0[1]), c.0[1]),
    ]))
}

/// `-(a*b) + c` per `f64` lane, narrowed once.
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn nmsub(a: D8, b: D8, c: D8) -> __m128i {
    narrow_f64(D8([
        _mm256_sub_pd(c.0[0], _mm256_mul_pd(a.0[0], b.0[0])),
        _mm256_sub_pd(c.0[1], _mm256_mul_pd(a.0[1], b.0[1])),
    ]))
}

/// Lane-wise `fmadd.h`, as [`F16::mul_add`]: `a*b + c` with one terminal
/// rounding.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fmadd_h(a: H8, b: H8, c: H8) -> H8 {
    let r = madd(widen_f64(a), widen_f64(b), widen_f64(c));
    if any_nan_h(r) {
        return scalar_h([a, b, c], |[a, b, c]| a.mul_add(b, c));
    }
    H8(r)
}

/// Lane-wise [`ops::fnmsub_h`](crate::ops::fnmsub_h): `-(a*b) + c` with
/// one terminal rounding.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn fnmsub_h(a: H8, b: H8, c: H8) -> H8 {
    let r = nmsub(widen_f64(a), widen_f64(b), widen_f64(c));
    if any_nan_h(r) {
        return scalar_h([a, b, c], |[a, b, c]| crate::ops::fnmsub_h(a, b, c));
    }
    H8(r)
}

/// Lane-wise [`ops::cmac_conj_h`](crate::ops::cmac_conj_h): the
/// `fmadd.h`-family chain `acc + conj(a)*b`, each step rounded once.
#[target_feature(enable = "avx2,f16c")]
#[inline]
pub fn cmac_conj_h(acc: [H8; 2], a: [H8; 2], b: [H8; 2]) -> [H8; 2] {
    let (ar, ai) = (widen_f64(a[0]), widen_f64(a[1]));
    let (br, bi) = (widen_f64(b[0]), widen_f64(b[1]));
    let re1 = madd(ar, br, widen_f64(acc[0]));
    let re = madd(ai, bi, widen_f64(H8(re1)));
    let im1 = madd(ar, bi, widen_f64(acc[1]));
    let im = nmsub(ai, br, widen_f64(H8(im1)));
    if any_nan_h(_mm_or_si128(nan_mask_h(re), nan_mask_h(im))) {
        return scalar_h2([acc, a, b], crate::ops::cmac_conj_h);
    }
    [H8(re), H8(im)]
}

/// Lane-wise [`F16::sqrt`] (one table lookup per lane).
#[inline]
pub fn fsqrt_h(x: H8) -> H8 {
    x.map(F16::sqrt)
}

/// Lane-wise [`F16::recip`] (one table lookup per lane).
#[inline]
pub fn recip_h(x: H8) -> H8 {
    x.map(F16::recip)
}
