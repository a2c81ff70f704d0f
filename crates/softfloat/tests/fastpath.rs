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

/// The eight-lane ops (`lanes`, AVX2 + F16C) against the scalar ops they
/// mirror, lane by lane and bit for bit — NaN signs included, with NaN
/// operands on either side and on both. Hosts without the features skip.
#[cfg(target_arch = "x86_64")]
mod lane_ops {
    use terasim_softfloat::lanes::{self, H8, S8};
    use terasim_softfloat::{ops, F16};

    use super::Rng;

    /// Special binary16 encodings: signed zeros, subnormals, max-finite,
    /// infinities and NaNs of both signs with several payloads.
    const SPECIALS: [u16; 18] = [
        0x0000, 0x8000, 0x0001, 0x83ff, 0x0400, 0x3c00, 0xbc00, 0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00,
        0xfe00, 0x7c01, 0xfd55, 0x7fff, 0x3555, 0xc7ff,
    ];

    fn h8(rng: &mut Rng) -> H8 {
        H8::from_bits(std::array::from_fn(|_| rng.f16().to_bits()))
    }

    fn pair(rng: &mut Rng) -> [H8; 2] {
        [h8(rng), h8(rng)]
    }

    /// An `f32` accumulator: a widened binary16, or any `f32` pattern.
    fn s8(rng: &mut Rng) -> S8 {
        S8::from_array(std::array::from_fn(|_| {
            if rng.next().is_multiple_of(2) {
                rng.f16().to_f32()
            } else {
                f32::from_bits(rng.next() as u32)
            }
        }))
    }

    fn at(x: [H8; 2], l: usize) -> [F16; 2] {
        [x[0].lane(l), x[1].lane(l)]
    }

    #[track_caller]
    fn same_h(got: H8, want: impl Fn(usize) -> F16, what: &str) {
        for l in 0..8 {
            let (g, w) = (got.lane(l).to_bits(), want(l).to_bits());
            assert_eq!(g, w, "{what} lane {l}: lanes {g:#06x} != scalar {w:#06x}");
        }
    }

    #[track_caller]
    fn same_h2(got: [H8; 2], want: impl Fn(usize) -> [F16; 2], what: &str) {
        same_h(got[0], |l| want(l)[0], what);
        same_h(got[1], |l| want(l)[1], what);
    }

    #[track_caller]
    fn same_s(got: S8, want: impl Fn(usize) -> f32, what: &str) {
        for (l, g) in got.to_array().into_iter().enumerate() {
            let w = want(l);
            assert_eq!(g.to_bits(), w.to_bits(), "{what} lane {l}: lanes {g:e} != scalar {w:e}");
        }
    }

    /// Every lane op on one set of inputs.
    #[target_feature(enable = "avx2,f16c")]
    fn check_all(a: H8, b: H8, c: H8, acc: [H8; 2], x: [H8; 2], y: [H8; 2], s: S8) {
        let (al, bl, cl) = (|l| a.lane(l), |l| b.lane(l), |l| c.lane(l));
        same_s(lanes::fcvt_s_h(a), |l| al(l).to_f32(), "fcvt_s_h");
        same_h(lanes::fcvt_h_s(s), |l| F16::from_f32(s.to_array()[l]), "fcvt_h_s");
        same_h(lanes::fadd_h(a, b), |l| al(l) + bl(l), "fadd_h");
        same_h(lanes::fmul_h(a, b), |l| al(l) * bl(l), "fmul_h");
        same_h(lanes::fmadd_h(a, b, c), |l| al(l).mul_add(bl(l), cl(l)), "fmadd_h");
        same_h(lanes::fnmsub_h(a, b, c), |l| ops::fnmsub_h(al(l), bl(l), cl(l)), "fnmsub_h");
        same_h(lanes::fsqrt_h(a), |l| al(l).sqrt(), "fsqrt_h");
        same_h(lanes::recip_h(a), |l| al(l).recip(), "recip_h");
        let sa = s.to_array();
        same_s(lanes::fadd_s(s, lanes::fcvt_s_h(a)), |l| sa[l] + al(l).to_f32(), "fadd_s");
        same_s(
            lanes::vfdotpex_s_h(s, x, y),
            |l| ops::vfdotpex_s_h(sa[l], at(x, l), at(y, l)),
            "vfdotpex_s_h",
        );
        same_s(
            lanes::vfndotpex_s_h(s, x, y),
            |l| ops::vfndotpex_s_h(sa[l], at(x, l), at(y, l)),
            "vfndotpex_s_h",
        );
        same_h2(
            lanes::vfcdotpex_s_h(acc, x, y),
            |l| ops::vfcdotpex_s_h(at(acc, l), at(x, l), at(y, l)),
            "vfcdotpex_s_h",
        );
        same_h2(
            lanes::vfcdotpex_conj_s_h(acc, x, y),
            |l| ops::vfcdotpex_conj_s_h(at(acc, l), at(x, l), at(y, l)),
            "vfcdotpex_conj_s_h",
        );
        same_h2(
            lanes::cmac_conj_h(acc, x, y),
            |l| ops::cmac_conj_h(at(acc, l), at(x, l), at(y, l)),
            "cmac_conj_h",
        );
    }

    #[test]
    fn lane_ops_match_scalar_ops_on_seeded_sweeps() {
        if !lanes::available() {
            eprintln!("host lacks AVX2 + F16C: the lane ops never run here");
            return;
        }
        let mut rng = Rng::new(0x1a9e_5eed);
        for _ in 0..100_000 {
            let (a, b, c) = (h8(&mut rng), h8(&mut rng), h8(&mut rng));
            let (acc, x, y) = (pair(&mut rng), pair(&mut rng), pair(&mut rng));
            let s = s8(&mut rng);
            let tiny = tiny_addends(&mut rng, a, b);
            // SAFETY: `lanes::available()` above confirmed AVX2 and F16C.
            unsafe {
                check_all(a, b, c, acc, x, y, s);
                check_all(a, b, tiny, acc, x, y, s);
            }
        }
    }

    /// Per lane, an addend 2^-20 to 2^-40 the size of `a*b`: too small to
    /// survive an `f64 -> f32` RNE step, yet it decides a binary16 tie of
    /// `a*b`. A chain that rounded twice would get these wrong.
    fn tiny_addends(rng: &mut Rng, a: H8, b: H8) -> H8 {
        H8::from_bits(std::array::from_fn(|l| {
            let p = a.lane(l).to_f64() * b.lane(l).to_f64();
            let r = rng.next();
            let scale = 2f64.powi(-20 - (r % 21) as i32) * (1.0 + (r >> 8) as u16 as f64 / 65536.0);
            let c = if r & (1 << 7) == 0 { p * scale } else { -p * scale };
            if c.is_finite() && c != 0.0 {
                F16::from_f64(c).to_bits()
            } else {
                rng.f16().to_bits()
            }
        }))
    }

    /// Every pair of special encodings in every operand position, so each
    /// op sees NaN on the left, on the right and on both sides.
    #[test]
    fn lane_ops_match_scalar_ops_on_special_pairs() {
        if !lanes::available() {
            eprintln!("host lacks AVX2 + F16C: the lane ops never run here");
            return;
        }
        let mut rng = Rng::new(0x0005_bec1);
        for (i, &p) in SPECIALS.iter().enumerate() {
            // Lane l pairs `p` with SPECIALS[i + l] (wrapping), so every
            // ordered pair appears across the outer loop.
            let q = |k: usize| std::array::from_fn(|l| SPECIALS[(i + l + k) % SPECIALS.len()]);
            for k in (0..SPECIALS.len()).step_by(8) {
                let (a, b) = (H8::from_bits([p; 8]), H8::from_bits(q(k)));
                for (a, b) in [(a, b), (b, a)] {
                    let c = h8(&mut rng);
                    let s = S8::from_array(b.to_bits().map(|h| F16::from_bits(h).to_f32()));
                    let acc = [c, b];
                    // SAFETY: `lanes::available()` above confirmed AVX2 and F16C.
                    unsafe {
                        check_all(a, b, c, acc, [a, b], [b, a], s);
                        check_all(a, b, b, [a, a], [a, a], [b, b], s);
                        check_all(b, a, a, [b, b], [b, a], [a, b], s);
                    }
                }
            }
        }
    }

    /// `fcvt_h_s` on all 2^32 `f32` inputs and this worker's share.
    #[target_feature(enable = "avx2,f16c")]
    fn narrowing_share(first: u64, end: u64) -> Option<u32> {
        (first..end).step_by(8).find_map(|base| {
            let x: [f32; 8] = std::array::from_fn(|l| f32::from_bits((base + l as u64) as u32));
            let got = lanes::fcvt_h_s(S8::from_array(x)).to_bits();
            (0..8).find(|&l| got[l] != F16::from_f32(x[l]).to_bits()).map(|l| x[l].to_bits())
        })
    }

    /// The `f64` chain for every `b` against each `a` of this worker's
    /// share, with a seeded addend per lane: `fmadd_h` for even `a`,
    /// `fnmsub_h` for odd.
    #[target_feature(enable = "avx2,f16c")]
    fn f64_chain_share(first: u32, end: u32) -> Option<(u16, u16, u16)> {
        for a in first..end {
            let mut rng = Rng::new(0xadd0_0000 ^ u64::from(a));
            let a = F16::from_bits(a as u16);
            let negate = a.to_bits() % 2 == 1;
            for base in (0..=u16::MAX).step_by(8) {
                let b: [u16; 8] = std::array::from_fn(|l| base + l as u16);
                let c: [u16; 8] = std::array::from_fn(|_| rng.next() as u16);
                let (a8, b8, c8) = (H8::splat(a), H8::from_bits(b), H8::from_bits(c));
                let got =
                    if negate { lanes::fnmsub_h(a8, b8, c8) } else { lanes::fmadd_h(a8, b8, c8) }.to_bits();
                for l in 0..8 {
                    let (b, c) = (F16::from_bits(b[l]), F16::from_bits(c[l]));
                    let want = if negate { ops::fnmsub_h(a, b, c) } else { a.mul_add(b, c) };
                    if got[l] != want.to_bits() {
                        return Some((a.to_bits(), b.to_bits(), c.to_bits()));
                    }
                }
            }
        }
        None
    }

    /// The lanes' two narrowings exhaustively: `fcvt_h_s` on every `f32`
    /// encoding, and the `f64` chain (round to odd, then RNE) behind
    /// `fmadd_h`/`fnmsub_h` on every binary16 `a x b` pair, each with a
    /// seeded addend. Ignored by default (tens of seconds in release);
    /// run it with
    /// `cargo test --release -p terasim-softfloat --test fastpath -- --ignored`.
    #[test]
    #[ignore = "exhaustive 2^32 sweeps; run with --ignored in release"]
    fn lane_narrowings_exhaustive() {
        if !lanes::available() {
            eprintln!("host lacks AVX2 + F16C: the lane ops never run here");
            return;
        }
        let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
        let span = (1u64 << 32).div_ceil(threads).next_multiple_of(8);
        let narrowing = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let end = ((t + 1) * span).min(1 << 32);
                    // SAFETY: `lanes::available()` above confirmed AVX2 and F16C.
                    s.spawn(move || unsafe { narrowing_share(t * span, end) })
                })
                .collect();
            workers.into_iter().find_map(|w| w.join().expect("sweep thread panicked"))
        });
        if let Some(bits) = narrowing {
            panic!("lanes::fcvt_h_s differs from F16::from_f32 at {bits:#010x}");
        }
        let span = (1u32 << 16).div_ceil(threads as u32);
        let chain = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads as u32)
                .map(|t| {
                    let end = ((t + 1) * span).min(1 << 16);
                    // SAFETY: `lanes::available()` above confirmed AVX2 and F16C.
                    s.spawn(move || unsafe { f64_chain_share(t * span, end) })
                })
                .collect();
            workers.into_iter().find_map(|w| w.join().expect("sweep thread panicked"))
        });
        if let Some((a, b, c)) = chain {
            panic!("lane f64 chain differs from the scalar op at a={a:#06x} b={b:#06x} c={c:#06x}");
        }
    }
}
