//! The 8-bit SmallFloat "quarter precision" minifloat (binary8, E5M2).

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

use crate::convert::{mini_from_f32_bits, mini_from_f64_bits, FloatFormat};
use crate::F16;

/// The SmallFloat binary8 interchange format (E5M2).
pub(crate) const FMT: FloatFormat = FloatFormat::new(5, 2);

/// An 8-bit minifloat with 1 sign, 5 exponent and 2 mantissa bits — the
/// SmallFloat `binary8` of Tagliavini et al. (paper reference \[22\]).
///
/// This is the "8bQuarter" element type of the paper's low-precision MMSE
/// kernels (the paper prints "4b exponent, 2b mantissa", which neither
/// fills a byte nor matches its own SmallFloat citation; we follow the
/// cited 1-5-2 layout, which does both). IEEE-style: bias 15,
/// subnormals, infinities, NaN; the coarse 2-bit mantissa is precisely
/// what costs the 8-bit kernels their BER at high SNR (Figure 9). Every
/// [`F8`] value is exactly representable as an [`F16`], so widening is
/// lossless while narrowing rounds (RNE).
///
/// # Examples
///
/// ```
/// use terasim_softfloat::{F8, F16};
///
/// let x = F8::from_f32(1.25);
/// assert_eq!(x.to_f32(), 1.25);
/// assert_eq!(F16::from(x).to_f32(), 1.25);
/// assert_eq!(F8::from_f32(1e6), F8::INFINITY);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct F8(u8);

impl F8 {
    /// Positive zero.
    pub const ZERO: Self = Self(0);
    /// One.
    pub const ONE: Self = Self(0x3c);
    /// Positive infinity.
    pub const INFINITY: Self = Self(0x7c);
    /// Canonical quiet NaN.
    pub const NAN: Self = Self(0x7e);
    /// Largest finite value (57344).
    pub const MAX: Self = Self(0x7b);
    /// The interchange format (1 sign, 5 exponent, 2 mantissa bits) — the
    /// handle into the generic reference converters in `crate::convert`.
    pub const FORMAT: FloatFormat = FMT;

    /// Creates a value from its raw bit pattern.
    pub const fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Converts from `f32` with RNE rounding.
    pub fn from_f32(x: f32) -> Self {
        Self(mini_from_f32_bits(x, FMT) as u8)
    }

    /// Converts from `f64` with a single RNE rounding.
    pub fn from_f64(x: f64) -> Self {
        Self(mini_from_f64_bits(x, FMT) as u8)
    }

    /// Converts to `f32` exactly (table-driven; one indexed load).
    pub fn to_f32(self) -> f32 {
        crate::tables::f8_to_f32(self.0)
    }

    /// Converts to `f64` exactly.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Rounds an [`F16`] to quarter precision (RNE). Exact since binary16
    /// values convert to `f32` losslessly.
    pub fn from_f16(x: F16) -> Self {
        Self::from_f32(x.to_f32())
    }

    /// Returns `true` if the value is NaN.
    pub fn is_nan(self) -> bool {
        self.0 & 0x7c == 0x7c && self.0 & 0x03 != 0
    }

    /// Returns `true` for finite values (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        self.0 & 0x7c != 0x7c
    }

    /// Absolute value (clears the sign bit).
    pub fn abs(self) -> Self {
        Self(self.0 & 0x7f)
    }
}

impl Add for F8 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F8 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F8 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F8 {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl Neg for F8 {
    type Output = Self;
    fn neg(self) -> Self {
        Self(self.0 ^ 0x80)
    }
}

impl PartialOrd for F8 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<F8> for F16 {
    /// Lossless widening: binary8's range and precision are strict subsets
    /// of binary16's.
    fn from(x: F8) -> F16 {
        F16::from_f32(x.to_f32())
    }
}

impl From<F8> for f32 {
    fn from(x: F8) -> f32 {
        x.to_f32()
    }
}

impl fmt::Debug for F8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F8({} = {:#04x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for F8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F8::ONE.to_f32(), 1.0);
        assert_eq!(F8::MAX.to_f32(), 57344.0);
        assert!(F8::NAN.is_nan());
        assert!(!F8::INFINITY.is_finite());
        assert_eq!(F8::ZERO.to_f32(), 0.0);
    }

    #[test]
    fn widening_is_lossless_for_all_values() {
        for bits in 0..=u8::MAX {
            let x = F8::from_bits(bits);
            if x.is_nan() {
                assert!(F16::from(x).is_nan());
                continue;
            }
            assert_eq!(F16::from(x).to_f32(), x.to_f32(), "widening {bits:#04x}");
            assert_eq!(F8::from_f16(F16::from(x)), x, "narrow(widen) identity {bits:#04x}");
        }
    }

    #[test]
    fn coarse_arithmetic() {
        // 1 + 1/8 rounds back to 1 (ulp(1) = 1/4, RNE tie-to-even at 1+1/8).
        let one = F8::ONE;
        let eighth = F8::from_f32(0.125);
        assert_eq!(one + eighth, one);
        // But 1 + 3/16 rounds up to 1.25.
        assert_eq!((one + F8::from_f32(0.1875)).to_f32(), 1.25);
        assert_eq!((F8::from_f32(10.0) * F8::from_f32(20.0)).to_f32(), 192.0, "200 rounds to 192");
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F8::MAX + F8::MAX, F8::INFINITY);
        assert_eq!(-F8::MAX - F8::MAX, -F8::INFINITY);
    }
}
