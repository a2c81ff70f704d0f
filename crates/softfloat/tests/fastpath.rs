//! Differential validation of the softfloat fast paths against the
//! retained reference implementations (`ops::reference`, built only on
//! the generic converters in `convert`).
//!
//! * **Exhaustive** over all 65 536 binary16 encodings for the unary
//!   table-driven ops (widening, sqrt, reciprocal) and over the full
//!   binary16 grid (midpoints and their neighbours) for the specialized
//!   narrowing converters — every rounding decision is exercised.
//! * **Seeded random sweeps** for the binary/fused ops (add, mul, div,
//!   FMA, complex MACs), with the operand generator biased towards the
//!   special encodings the early-outs key on (signed zeros, Inf, NaN
//!   with varied payloads, subnormals).

use terasim_softfloat::ops::{self, reference};
use terasim_softfloat::{mini_from_f32_bits, mini_from_f64_bits, F16, F8};

/// Small deterministic xorshift64* generator (no external dependencies).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A binary16 pattern biased towards special encodings.
    fn f16(&mut self) -> F16 {
        let r = self.next();
        let bits = match r % 8 {
            0 => (r >> 32) as u16 & 0x8000,            // signed zero
            1 => 0x7c00 | ((r >> 32) as u16 & 0x8000), // signed Inf
            2 => 0x7c00 | ((r >> 32) as u16 & 0x83ff), // NaN, any payload
            3 => (r >> 32) as u16 & 0x83ff,            // subnormal/zero
            4 => 0x7800 | ((r >> 32) as u16 & 0x87ff), // near-max magnitude
            _ => (r >> 32) as u16,                     // anything
        };
        F16::from_bits(bits)
    }

    /// A binary8 pattern biased towards special encodings.
    fn f8(&mut self) -> F8 {
        let r = self.next();
        let bits = match r % 8 {
            0 => (r >> 32) as u8 & 0x80,
            1 => 0x7c | ((r >> 32) as u8 & 0x80),
            2 => 0x7c | ((r >> 32) as u8 & 0x83),
            3 => (r >> 32) as u8 & 0x83,
            _ => (r >> 32) as u8,
        };
        F8::from_bits(bits)
    }
}

/// Bit-compare that treats the two values as raw encodings.
#[track_caller]
fn same_h(fast: F16, slow: F16, what: &str) {
    assert_eq!(
        fast.to_bits(),
        slow.to_bits(),
        "{what}: fast {:#06x} != ref {:#06x}",
        fast.to_bits(),
        slow.to_bits()
    );
}

/// Bit-compare for *arithmetic results*: when both sides are NaN they are
/// considered equal. Both implementations canonicalize NaN payloads, but
/// the NaN *sign* coming out of host `f32`/`f64` arithmetic depends on
/// operand order in the generated code, which two separately compiled
/// (yet semantically identical) expressions are not guaranteed to share.
#[track_caller]
fn same_arith_h(fast: F16, slow: F16, what: &str) {
    if fast.is_nan() && slow.is_nan() {
        return;
    }
    same_h(fast, slow, what);
}

/// Lane-pair version of [`same_arith_h`].
#[track_caller]
fn same2_arith_h(fast: [F16; 2], slow: [F16; 2], what: &str) {
    same_arith_h(fast[0], slow[0], what);
    same_arith_h(fast[1], slow[1], what);
}

/// Binary8 lane-pair arithmetic compare with the same NaN equivalence.
#[track_caller]
fn same2_arith_b(fast: [F8; 2], slow: [F8; 2], what: &str) {
    for (f, s) in fast.iter().zip(&slow) {
        if f.is_nan() && s.is_nan() {
            continue;
        }
        assert_eq!(f.to_bits(), s.to_bits(), "{what}: fast {:#04x} != ref {:#04x}", f.to_bits(), s.to_bits());
    }
}

#[test]
fn exhaustive_f16_unary_sweep() {
    for bits in 0..=u16::MAX {
        let x = F16::from_bits(bits);
        // Widening must agree bit-for-bit (including NaN canonicalization).
        assert_eq!(x.to_f32().to_bits(), reference::h_to_f32(x).to_bits(), "to_f32 of {bits:#06x}");
        assert_eq!(x.to_f64().to_bits(), reference::h_to_f64(x).to_bits(), "to_f64 of {bits:#06x}");
        same_h(x.sqrt(), reference::sqrt_h(x), "sqrt");
        same_h(x.recip(), reference::recip_h(x), "recip");
        same_h(F16::ONE / x, reference::recip_h(x), "1/x through Div");
        // Narrowing the exact widened value must round-trip identically.
        same_h(F16::from_f32(x.to_f32()), reference::h_from_f32(reference::h_to_f32(x)), "f32 roundtrip");
        same_h(F16::from_f64(x.to_f64()), reference::h_from_f64(reference::h_to_f64(x)), "f64 roundtrip");
    }
}

#[test]
fn exhaustive_f8_unary_sweep() {
    for bits in 0..=u8::MAX {
        let x = F8::from_bits(bits);
        assert_eq!(x.to_f32().to_bits(), reference::b_to_f32(x).to_bits(), "f8 to_f32 of {bits:#04x}");
    }
}

/// Every rounding decision of the specialized `f32 -> f16` converter:
/// for each pair of adjacent binary16 magnitudes, probe the midpoint and
/// its immediate `f32` neighbours (plus the half-subnormal underflow and
/// overflow boundaries swept as part of the grid).
#[test]
fn f32_narrowing_exhaustive_grid() {
    let check = |x: f32| {
        assert_eq!(
            u32::from(F16::from_f32(x).to_bits()),
            mini_from_f32_bits(x, F16::FORMAT),
            "narrowing {x:e} ({:#010x})",
            x.to_bits()
        );
    };
    for mag in 0..0x7c00u16 {
        // Adjacent magnitudes on the binary16 grid (mag+1 may be Inf).
        let lo = reference::h_to_f32(F16::from_bits(mag));
        let hi = reference::h_to_f32(F16::from_bits(mag + 1));
        let mid = (f64::from(lo) + f64::from(hi)) / 2.0; // exact in f64
        let mid32 = mid as f32; // exact: midpoints carry ≤ 12 significand bits
        for x in [lo, mid32, f32::from_bits(mid32.to_bits() - 1), f32::from_bits(mid32.to_bits() + 1), hi] {
            check(x);
            check(-x);
        }
    }
    // NaN payloads collapse to the canonical quiet NaN, sign preserved.
    for payload in [1u32, 0x7_ffff, 0x40_0000, 0x23_4567] {
        check(f32::from_bits(0x7f80_0000 | payload));
        check(f32::from_bits(0xff80_0000 | payload));
    }
}

/// Same grid for the single-rounding `f64 -> f16` converter; the offsets
/// below the midpoint exercise the sticky bits an `f64 -> f32 -> f16`
/// double rounding would lose.
#[test]
fn f64_narrowing_exhaustive_grid() {
    let check = |x: f64| {
        assert_eq!(
            u32::from(F16::from_f64(x).to_bits()),
            mini_from_f64_bits(x, F16::FORMAT),
            "narrowing {x:e} ({:#018x})",
            x.to_bits()
        );
    };
    for mag in 0..0x7c00u16 {
        let lo = reference::h_to_f64(F16::from_bits(mag));
        let hi = reference::h_to_f64(F16::from_bits(mag + 1));
        let mid = (lo + hi) / 2.0;
        for x in [
            lo,
            mid,
            f64::from_bits(mid.to_bits() - 1),
            f64::from_bits(mid.to_bits() + 1),
            mid - mid.abs() * 1e-14,
            hi,
        ] {
            check(x);
            check(-x);
        }
    }
    for payload in [1u64, 0xf_ffff_ffff_ffff, 0x8_0000_0000_0000] {
        check(f64::from_bits(0x7ff0_0000_0000_0000 | payload));
        check(f64::from_bits(0xfff0_0000_0000_0000 | payload));
    }
}

/// `F16::from_f32` against the reference on every one of the 2^32 `f32`
/// encodings, split over the host's threads. Ignored by default (seconds
/// in release, minutes in debug); run it with
/// `cargo test --release -p terasim-softfloat --test fastpath -- --ignored`.
#[test]
#[ignore = "exhaustive 2^32 sweep; run with --ignored in release"]
fn f32_narrowing_exhaustive_all_inputs() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let span = (1u64 << 32).div_ceil(threads);
    let first_mismatch = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let end = ((t + 1) * span).min(1 << 32);
                    (t * span..end).map(|bits| bits as u32).find(|&bits| {
                        let x = f32::from_bits(bits);
                        F16::from_f32(x).to_bits() != reference::h_from_f32(x).to_bits()
                    })
                })
            })
            .collect();
        workers.into_iter().find_map(|w| w.join().expect("sweep thread panicked"))
    });
    if let Some(bits) = first_mismatch {
        panic!("F16::from_f32 differs from the reference at {bits:#010x}");
    }
}

#[test]
fn random_f32_and_f64_narrowing_sweep() {
    let mut rng = Rng::new(0x5eed_f00d);
    for _ in 0..1_000_000 {
        let x32 = f32::from_bits(rng.next() as u32);
        assert_eq!(
            u32::from(F16::from_f32(x32).to_bits()),
            mini_from_f32_bits(x32, F16::FORMAT),
            "f32 narrow {:#010x}",
            x32.to_bits()
        );
        let x64 = f64::from_bits(rng.next());
        assert_eq!(
            u32::from(F16::from_f64(x64).to_bits()),
            mini_from_f64_bits(x64, F16::FORMAT),
            "f64 narrow {:#018x}",
            x64.to_bits()
        );
    }
}

#[test]
fn random_f16_binary_op_sweep() {
    let mut rng = Rng::new(0xdead_beef);
    for _ in 0..500_000 {
        let (a, b, c) = (rng.f16(), rng.f16(), rng.f16());
        same_arith_h(a + b, reference::h_from_f32(reference::h_to_f32(a) + reference::h_to_f32(b)), "add");
        same_arith_h(a - b, reference::h_from_f32(reference::h_to_f32(a) - reference::h_to_f32(b)), "sub");
        same_arith_h(a * b, reference::h_from_f32(reference::h_to_f32(a) * reference::h_to_f32(b)), "mul");
        same_arith_h(a / b, reference::h_from_f32(reference::h_to_f32(a) / reference::h_to_f32(b)), "div");
        same_arith_h(a.mul_add(b, c), reference::mul_add_h(a, b, c), "fma");
    }
}

#[test]
fn random_f16_complex_mac_sweep() {
    let mut rng = Rng::new(0xc0ff_ee11);
    for _ in 0..300_000 {
        let acc = [rng.f16(), rng.f16()];
        let a = [rng.f16(), rng.f16()];
        let b = [rng.f16(), rng.f16()];
        same2_arith_h(ops::cmac_h(acc, a, b), reference::cmac_h(acc, a, b), "cmac_h");
        same2_arith_h(ops::cmac_conj_h(acc, a, b), reference::cmac_conj_h(acc, a, b), "cmac_conj_h");
        same2_arith_h(ops::vfcdotpex_s_h(acc, a, b), reference::vfcdotpex_s_h(acc, a, b), "vfcdotpex_s_h");
        same2_arith_h(
            ops::vfcdotpex_conj_s_h(acc, a, b),
            reference::vfcdotpex_conj_s_h(acc, a, b),
            "vfcdotpex_conj_s_h",
        );
    }
}

#[test]
fn random_f8_complex_mac_sweep() {
    let mut rng = Rng::new(0x0dd_ba11);
    for _ in 0..300_000 {
        let acc = [rng.f8(), rng.f8()];
        let a = [rng.f8(), rng.f8()];
        let b = [rng.f8(), rng.f8()];
        same2_arith_b(ops::cmac_b(acc, a, b), reference::cmac_b(acc, a, b), "cmac_b");
        same2_arith_b(ops::cmac_conj_b(acc, a, b), reference::cmac_conj_b(acc, a, b), "cmac_conj_b");
    }
}

/// The early-out shapes specifically: zero multiplicand words against
/// every accumulator class, and special lanes that must force the full
/// path.
#[test]
fn early_out_boundary_cases() {
    let zeros =
        [[F16::ZERO, F16::ZERO], [-F16::ZERO, F16::ZERO], [F16::ZERO, -F16::ZERO], [-F16::ZERO, -F16::ZERO]];
    let others = [
        [F16::from_f32(1.5), F16::from_f32(-2.25)],
        [F16::INFINITY, F16::ONE],
        [F16::NAN, F16::ONE],
        [F16::ZERO, F16::from_f32(3.0)],
        [-F16::ZERO, -F16::ZERO],
        [F16::from_bits(0x0001), F16::from_bits(0x8001)], // subnormals
    ];
    let accs = [
        [F16::from_f32(4.0), F16::from_f32(-0.5)],
        [F16::ZERO, F16::from_f32(2.0)],
        [-F16::ZERO, -F16::ZERO],
        [F16::INFINITY, F16::NAN],
    ];
    for acc in accs {
        for z in zeros {
            for o in others {
                for (a, b) in [(z, o), (o, z)] {
                    same2_arith_h(ops::cmac_h(acc, a, b), reference::cmac_h(acc, a, b), "cmac_h");
                    same2_arith_h(
                        ops::cmac_conj_h(acc, a, b),
                        reference::cmac_conj_h(acc, a, b),
                        "cmac_conj_h",
                    );
                    same2_arith_h(
                        ops::vfcdotpex_s_h(acc, a, b),
                        reference::vfcdotpex_s_h(acc, a, b),
                        "vfcdotpex_s_h",
                    );
                    same2_arith_h(
                        ops::vfcdotpex_conj_s_h(acc, a, b),
                        reference::vfcdotpex_conj_s_h(acc, a, b),
                        "vfcdotpex_conj_s_h",
                    );
                }
            }
        }
    }
}
