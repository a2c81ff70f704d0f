//! Software floating-point formats used by the TeraPool-SDR DUT model.
//!
//! The paper's Snitch cores compute on narrow floating-point types stored in
//! the integer register file (`zfinx`/`zhinx` and the SmallFloat/MiniFloat
//! SIMD extensions). This crate implements those formats in software so that
//! both the instruction-set simulator (`terasim-iss`) and the native
//! fixed-precision detector models (`terasim-phy`) share *one* bit-exact
//! definition of the DUT arithmetic:
//!
//! * [`F16`] — IEEE 754 binary16 (1s/5e/10m), the `zhinx` scalar type.
//! * [`F8`] — the SmallFloat binary8 minifloat (1s/5e/2m, "quarter
//!   precision"). The paper prints "1b sign, 4b exponent, 2b mantissa",
//!   which does not fill a byte and contradicts its SmallFloat citation;
//!   we follow the cited 1-5-2 layout.
//! * [`ops`] — the SDR dot-product primitives: widening dot products
//!   (`wDotp`, 8b→16b and 16b→32b accumulation) and the complex
//!   dot-product/MAC (`CDotp`, 32-bit internal precision, 16-bit
//!   accumulators) exactly as used by the five MMSE kernel precisions.
//! * `lanes` (x86-64 only) — the binary16 operations of the 16-bit
//!   kernels on eight independent problems at once, one per AVX2 lane,
//!   bit-identical lane by lane to the scalar operations (see below).
//!
//! # Rounding semantics
//!
//! All scalar operations round to nearest, ties to even (RNE). `+`, `-`,
//! `*`, `/` and `sqrt` on [`F16`] and [`F8`] are *correctly rounded*: they
//! are evaluated in `f32`, which carries at least `2p + 2` significand bits
//! for both formats, so the double rounding through `f32` is exact
//! (Figueroa's theorem). Fused multiply-add is defined as evaluation in
//! `f64` followed by a single RNE conversion; this is the reference
//! semantics for the DUT and is used consistently by the ISS and the native
//! models.
//!
//! # Eight lanes per instruction
//!
//! `lanes` runs on x86-64 CPUs that report AVX2 and F16C at run time
//! (`lanes::available`); elsewhere, and for the 8-bit formats, callers
//! use the scalar operations. Each lane op is bit-exact against the
//! scalar op it mirrors, for these reasons:
//!
//! * `f32` → binary16 narrowing is `vcvtps2ph` with round-to-nearest-even
//!   in its immediate, so it does not depend on MXCSR's rounding field.
//! * The `f32`/`f64` arithmetic runs under the default MXCSR: RNE, with
//!   flush-to-zero and denormals-are-zero off, so subnormals are exact,
//!   as in the scalar code. Products and sums are never fused.
//! * The `f64` chain of `fmadd.h`/`fnmsub.h` rounds to `f32` *to odd*
//!   before the final RNE narrowing; `f32`'s 13 spare bits make the two
//!   roundings one, as `F16::from_f64`'s single rounding requires.
//! * Narrowed NaNs are canonicalized to `sign | 0x7e00`, as the scalar
//!   converter does, and a result lane that is NaN is recomputed by the
//!   scalar op, whose NaN sign depends on the operand order the compiler
//!   chose for it.
//!
//! `tests/fastpath.rs` pins every lane op against its scalar op on seeded
//! sweeps rich in zeros, subnormals, max-finite values, infinities and
//! NaNs, and (ignored by default) both narrowings exhaustively.
//!
//! # Examples
//!
//! ```
//! use terasim_softfloat::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(0.25);
//! assert_eq!((a + b).to_f32(), 1.75);
//! assert_eq!(F16::from_f32(1.0) / F16::from_f32(3.0), F16::from_bits(0x3555));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod convert;
mod f16;
mod f8;
#[cfg(target_arch = "x86_64")]
pub mod lanes;
pub mod ops;
mod tables;

pub use convert::{mini_from_f32_bits, mini_from_f64_bits, mini_to_f32_bits, FloatFormat};
pub use f16::F16;
pub use f8::F8;
