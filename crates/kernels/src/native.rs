//! Bit-true native models of the generated kernels.
//!
//! Each function here replays the *exact* operation order of the code
//! emitted by [`MmseKernel`](crate::MmseKernel) — same accumulation
//! chains, same rounding at every step — but as plain Rust over
//! `terasim-softfloat` values. This is how the framework runs
//! Monte-Carlo BER sweeps at full host speed while the ISS remains the
//! source of truth: `tests/bit_true.rs` asserts bit-equality between the
//! two paths on random problems.
//!
//! # One problem, or eight at a time
//!
//! [`detect`] quantizes one problem from `f64` operands and runs the
//! scalar model: the reference. A job that verifies a whole OFDM symbol
//! quantizes each problem once into [`Operands`] (the same bits it writes
//! to L1, see [`data::write_operands`](crate::data::write_operands)) and
//! hands them to [`detect_batch`]. For the 16-bit precisions on an x86-64
//! CPU with AVX2 and F16C, `detect_batch` runs [`LANES`] problems side by
//! side, one per SIMD lane, through `terasim_softfloat::lanes`, which
//! mirrors every scalar operation bit for bit. A problem whose result
//! holds a NaN is recomputed by the scalar model: a NaN's sign depends on
//! the operand order the compiler picked for the scalar code, which the
//! lanes cannot see. The 8-bit precisions, other CPUs and other
//! architectures run the scalar model problem by problem; the results are
//! the same bits either way (`tests/bit_true.rs` pins `detect_batch`
//! against `detect`).

use terasim_softfloat::{ops, F16, F8};

use crate::data::{pack_b8, pack_h16, q16, q8};
use crate::{Precision, C64};

#[cfg(target_arch = "x86_64")]
mod lanes;

/// Problems [`detect_batch`] solves side by side when it runs on lanes.
pub const LANES: usize = 8;

/// Quantized operands of one problem, per precision.
#[derive(Debug, Clone)]
enum Quant {
    /// 16-bit element storage.
    H16 {
        /// Column-major `h[i*n + k]`.
        h: Vec<[F16; 2]>,
        /// Received vector.
        y: Vec<[F16; 2]>,
    },
    /// 8-bit element storage.
    H8 {
        /// Column-major `h[i*n + k]`.
        h: Vec<[F8; 2]>,
        /// Received vector.
        y: Vec<[F8; 2]>,
    },
}

fn quantize(precision: Precision, n: usize, h: &[C64], y: &[C64]) -> Quant {
    // h arrives row-major h[k*n+i]; store column-major like the kernel.
    fn column_major<T>(n: usize, h: &[C64], q: impl Fn(f64) -> T) -> Vec<[T; 2]> {
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for k in 0..n {
                let c = h[k * n + i];
                out.push([q(c.0), q(c.1)]);
            }
        }
        out
    }
    match precision {
        Precision::Half16 | Precision::WDotp16 | Precision::CDotp16 => {
            Quant::H16 { h: column_major(n, h, q16), y: y.iter().map(|c| [q16(c.0), q16(c.1)]).collect() }
        }
        Precision::Quarter8 | Precision::WDotp8 => {
            Quant::H8 { h: column_major(n, h, q8), y: y.iter().map(|c| [q8(c.0), q8(c.1)]).collect() }
        }
    }
}

/// One problem's operands, quantized once for a precision's element
/// type: binary16 for the 16-bit precisions, binary8 for the 8-bit ones
/// (each rounded once from `f64`; never binary16 re-rounded to binary8).
/// These are exactly the bits the kernel reads from L1, at a quarter of
/// the memory of the `f64` operands they come from.
#[derive(Debug, Clone)]
pub struct Operands {
    quant: Quant,
    /// σ², quantized to binary16 for every precision.
    sigma: F16,
}

impl Operands {
    /// Quantizes one problem for `precision`: `h` is row-major
    /// `h[k*n + i]`, `y` has `n` entries, `sigma` is σ².
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match `n`.
    pub fn quantize(precision: Precision, n: usize, h: &[C64], y: &[C64], sigma: f64) -> Self {
        assert_eq!(h.len(), n * n, "H must be n*n");
        assert_eq!(y.len(), n, "y must be n");
        Self { quant: quantize(precision, n, h, y), sigma: q16(sigma) }
    }

    /// The MIMO size `n`.
    pub(crate) fn n(&self) -> usize {
        match &self.quant {
            Quant::H16 { y, .. } => y.len(),
            Quant::H8 { y, .. } => y.len(),
        }
    }

    /// Whether the operands are binary16 (else binary8) elements.
    pub(crate) fn is_16bit(&self) -> bool {
        matches!(self.quant, Quant::H16 { .. })
    }

    /// Element `(row k, column i)` of `H`, packed as its memory word.
    pub(crate) fn h_word(&self, k: usize, i: usize) -> u32 {
        let n = self.n();
        match &self.quant {
            Quant::H16 { h, .. } => pack_h16(h[i * n + k]),
            Quant::H8 { h, .. } => u32::from(pack_b8(h[i * n + k])),
        }
    }

    /// Entry `k` of `y`, packed as its memory word.
    pub(crate) fn y_word(&self, k: usize) -> u32 {
        match &self.quant {
            Quant::H16 { y, .. } => pack_h16(y[k]),
            Quant::H8 { y, .. } => u32::from(pack_b8(y[k])),
        }
    }

    /// σ² as binary16.
    pub(crate) fn sigma(&self) -> F16 {
        self.sigma
    }
}

/// `fnmsub.h`: `-(a*b) + c` with one terminal rounding.
fn fnmsub(a: F16, b: F16, c: F16) -> F16 {
    ops::fnmsub_h(a, b, c)
}

/// `fmadd.h`.
fn fmadd(a: F16, b: F16, c: F16) -> F16 {
    a.mul_add(b, c)
}

/// Mirrors `emit_dot`: `conj(a)·b` over `n` elements with two alternating
/// accumulation chains, plus the diagonal σ² update.
#[allow(clippy::too_many_arguments)] // mirrors the emitted kernel's operand list
fn dot_conj(
    precision: Precision,
    q: &Quant,
    n: usize,
    col_a: usize,
    b_is_y: bool,
    col_b: usize,
    sigma: F16,
    diag: bool,
) -> [F16; 2] {
    match (precision, q) {
        (Precision::Half16, Quant::H16 { h, y }) => {
            let mut acc = [[F16::ZERO; 2]; 2];
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                acc[k % 2] = ops::cmac_conj_h(acc[k % 2], a, b);
            }
            let mut re = acc[0][0] + acc[1][0];
            let im = acc[0][1] + acc[1][1];
            if diag {
                re = re + sigma;
            }
            [re, im]
        }
        (Precision::WDotp16, Quant::H16 { h, y }) => {
            let (mut re, mut im) = ([0f32; 2], [0f32; 2]);
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                let c = k % 2;
                re[c] = ops::vfdotpex_s_h(re[c], a, b);
                im[c] = ops::vfndotpex_s_h(im[c], a, ops::swap_h(b));
            }
            let mut re_s = re[0] + re[1];
            let im_s = im[0] + im[1];
            if diag {
                re_s += sigma.to_f32(); // fcvt.s.h is exact
            }
            [F16::from_f32(re_s), F16::from_f32(im_s)]
        }
        (Precision::CDotp16, Quant::H16 { h, y }) => {
            let mut acc = [[F16::ZERO; 2]; 2];
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                acc[k % 2] = ops::vfcdotpex_conj_s_h(acc[k % 2], a, b);
            }
            let mut out = [acc[0][0] + acc[1][0], acc[0][1] + acc[1][1]]; // vfadd.h
            if diag {
                out[0] = out[0] + sigma;
            }
            out
        }
        (Precision::Quarter8, Quant::H8 { h, y }) => {
            let mut acc = [[F8::ZERO; 2]; 2];
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                acc[k % 2] = ops::cmac_conj_b(acc[k % 2], a, b);
            }
            // vfcvt.h.b.lo on each chain, then vfadd.h.
            let c0 = [F16::from(acc[0][0]), F16::from(acc[0][1])];
            let c1 = [F16::from(acc[1][0]), F16::from(acc[1][1])];
            let mut out = [c0[0] + c1[0], c0[1] + c1[1]];
            if diag {
                out[0] = out[0] + sigma;
            }
            out
        }
        (Precision::WDotp8, Quant::H8 { h, y }) => {
            let mut re = [[F16::ZERO; 2]; 2];
            let mut im = [[F16::ZERO; 2]; 2];
            for s in 0..n / 2 {
                let (k0, k1) = (2 * s, 2 * s + 1);
                let a =
                    [h[col_a * n + k0][0], h[col_a * n + k0][1], h[col_a * n + k1][0], h[col_a * n + k1][1]];
                let bv0 = if b_is_y { y[k0] } else { h[col_b * n + k0] };
                let bv1 = if b_is_y { y[k1] } else { h[col_b * n + k1] };
                let b = [bv0[0], bv0[1], bv1[0], bv1[1]];
                let c = s % 2;
                re[c] = ops::vfdotpex_h_b(re[c], a, b);
                im[c] = ops::vfndotpex_h_b(im[c], a, ops::swap_b(b));
            }
            // vfadd.h across chains, then horizontal lane sum.
            let rep = [re[0][0] + re[1][0], re[0][1] + re[1][1]];
            let imp = [im[0][0] + im[1][0], im[0][1] + im[1][1]];
            let mut out = [rep[0] + rep[1], imp[0] + imp[1]];
            if diag {
                out[0] = out[0] + sigma;
            }
            out
        }
        _ => unreachable!("quantization matches precision"),
    }
}

/// Runs the full MMSE detection for one problem, mirroring the generated
/// guest code operation by operation.
///
/// `h` is row-major `h[k*n + i]`, `y` has `n` entries, `sigma` is σ².
/// Returns `x̂` as packed binary16 complex values, bit-identical to what
/// the ISS-executed kernel stores.
///
/// # Panics
///
/// Panics if slice lengths do not match `n`.
///
/// # Examples
///
/// ```
/// use terasim_kernels::{native, Precision};
///
/// let h = terasim_kernels::data::identity_channel(4);
/// let y = vec![(1.0, 0.0); 4];
/// let xhat = native::detect(Precision::CDotp16, 4, &h, &y, 0.0);
/// assert!((xhat[0][0].to_f32() - 1.0).abs() < 0.01);
/// ```
pub fn detect(precision: Precision, n: usize, h: &[C64], y: &[C64], sigma: f64) -> Vec<[F16; 2]> {
    detect_scalar(precision, &Operands::quantize(precision, n, h, y, sigma))
}

/// Runs [`detect`] on every problem of `problems`, already quantized for
/// `precision`, and returns their `x̂` back to back (`n` entries per
/// problem, in order). Bit-identical to calling [`detect`] per problem;
/// faster where it can run [`LANES`] problems at a time (see the module
/// docs).
///
/// # Panics
///
/// Panics if a problem's MIMO size is not `n` or its operands were
/// quantized for the other element width.
pub fn detect_batch(precision: Precision, n: usize, problems: &[Operands]) -> Vec<[F16; 2]> {
    let wide = precision.element_bytes() == 4;
    for p in problems {
        assert_eq!(p.n(), n, "problem size must be n");
        assert_eq!(p.is_16bit(), wide, "operands quantized for another precision");
    }
    let mut out = Vec::with_capacity(problems.len() * n);
    #[cfg(target_arch = "x86_64")]
    if wide && terasim_softfloat::lanes::available() {
        for chunk in problems.chunks(LANES) {
            // SAFETY: `lanes::available()` just confirmed AVX2 and F16C.
            unsafe { lanes::detect(precision, n, chunk, &mut out) };
        }
        return out;
    }
    for p in problems {
        out.extend(detect_scalar(precision, p));
    }
    out
}

/// The scalar model: [`detect`] on quantized operands. Never inlined, so
/// that [`detect`] and the lanes' NaN fallback run the very same code.
#[inline(never)]
fn detect_scalar(precision: Precision, operands: &Operands) -> Vec<[F16; 2]> {
    let (q, n, sigma16) = (&operands.quant, operands.n(), operands.sigma);

    // Gram lower triangle, row-major (like the guest scratch).
    let tri = |i: usize| i * (i + 1) / 2;
    let mut g = vec![[F16::ZERO; 2]; tri(n) + n];
    for i in 0..n {
        for j in 0..=i {
            g[tri(i) + j] = dot_conj(precision, q, n, i, false, j, sigma16, i == j);
        }
    }
    // Matched filter z.
    let mut w: Vec<[F16; 2]> =
        (0..n).map(|i| dot_conj(precision, q, n, i, true, 0, sigma16, false)).collect();

    // Cholesky in binary16 (exact emitted op order).
    let mut l = vec![[F16::ZERO; 2]; tri(n) + n];
    let mut rdiag = vec![F16::ZERO; n];
    let one = F16::ONE;
    for j in 0..n {
        let mut s = g[tri(j) + j][0];
        for k in 0..j {
            let ljk = l[tri(j) + k];
            s = fnmsub(ljk[0], ljk[0], s);
            s = fnmsub(ljk[1], ljk[1], s);
        }
        let d = s.sqrt();
        l[tri(j) + j] = [d, F16::ZERO];
        rdiag[j] = one / d;
        for i in (j + 1)..n {
            let mut c = g[tri(i) + j];
            for k in 0..j {
                let lik = l[tri(i) + k];
                let ljk = l[tri(j) + k];
                c[0] = fnmsub(lik[0], ljk[0], c[0]);
                c[0] = fnmsub(lik[1], ljk[1], c[0]);
                c[1] = fnmsub(lik[1], ljk[0], c[1]);
                c[1] = fmadd(lik[0], ljk[1], c[1]);
            }
            l[tri(i) + j] = [c[0] * rdiag[j], c[1] * rdiag[j]];
        }
    }

    // Forward substitution L w = z (in place).
    for i in 0..n {
        let mut c = w[i];
        for k in 0..i {
            let lik = l[tri(i) + k];
            let wk = w[k];
            c[0] = fnmsub(lik[0], wk[0], c[0]);
            c[0] = fmadd(lik[1], wk[1], c[0]);
            c[1] = fnmsub(lik[0], wk[1], c[1]);
            c[1] = fnmsub(lik[1], wk[0], c[1]);
        }
        w[i] = [c[0] * rdiag[i], c[1] * rdiag[i]];
    }

    // Backward substitution L^H x = w.
    let mut x = vec![[F16::ZERO; 2]; n];
    for i in (0..n).rev() {
        let mut c = w[i];
        for k in (i + 1)..n {
            let lki = l[tri(k) + i];
            let xk = x[k];
            c[0] = fnmsub(lki[0], xk[0], c[0]);
            c[0] = fnmsub(lki[1], xk[1], c[0]);
            c[1] = fnmsub(lki[0], xk[1], c[1]);
            c[1] = fmadd(lki[1], xk[0], c[1]);
        }
        x[i] = [c[0] * rdiag[i], c[1] * rdiag[i]];
    }
    x
}

/// Double-precision reference MMSE (the paper's "64bDouble" golden model):
/// a straightforward Cholesky solve in `f64` complex arithmetic.
///
/// # Panics
///
/// Panics if slice lengths do not match `n`.
pub fn detect_f64(n: usize, h: &[C64], y: &[C64], sigma: f64) -> Vec<C64> {
    assert_eq!(h.len(), n * n);
    assert_eq!(y.len(), n);
    let idx = |k: usize, i: usize| k * n + i;
    let cadd = |a: C64, b: C64| (a.0 + b.0, a.1 + b.1);
    let csub = |a: C64, b: C64| (a.0 - b.0, a.1 - b.1);
    let cmul = |a: C64, b: C64| (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0);
    let conj = |a: C64| (a.0, -a.1);

    // G = H^H H + sigma I ; z = H^H y
    let mut g = vec![(0.0, 0.0); n * n];
    let mut z = vec![(0.0, 0.0); n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = (0.0, 0.0);
            for k in 0..n {
                acc = cadd(acc, cmul(conj(h[idx(k, i)]), h[idx(k, j)]));
            }
            if i == j {
                acc.0 += sigma;
            }
            g[i * n + j] = acc;
        }
        let mut acc = (0.0, 0.0);
        for k in 0..n {
            acc = cadd(acc, cmul(conj(h[idx(k, i)]), y[k]));
        }
        z[i] = acc;
    }

    // Cholesky.
    let mut l = vec![(0.0, 0.0); n * n];
    for j in 0..n {
        let mut s = g[j * n + j].0;
        for k in 0..j {
            let v = l[j * n + k];
            s -= v.0 * v.0 + v.1 * v.1;
        }
        let d = s.sqrt();
        l[j * n + j] = (d, 0.0);
        for i in (j + 1)..n {
            let mut c = g[i * n + j];
            for k in 0..j {
                c = csub(c, cmul(l[i * n + k], conj(l[j * n + k])));
            }
            l[i * n + j] = (c.0 / d, c.1 / d);
        }
    }
    // Solves.
    let mut w = z;
    for i in 0..n {
        let mut c = w[i];
        for k in 0..i {
            c = csub(c, cmul(l[i * n + k], w[k]));
        }
        let d = l[i * n + i].0;
        w[i] = (c.0 / d, c.1 / d);
    }
    let mut x = vec![(0.0, 0.0); n];
    for i in (0..n).rev() {
        let mut c = w[i];
        for k in (i + 1)..n {
            c = csub(c, cmul(conj(l[k * n + i]), x[k]));
        }
        let d = l[i * n + i].0;
        x[i] = (c.0 / d, c.1 / d);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::identity_channel;

    #[test]
    fn identity_channel_recovers_input() {
        let n = 4;
        let h = identity_channel(n);
        let y: Vec<C64> = vec![(1.0, -1.0), (-1.0, 1.0), (0.5, 0.5), (-0.5, -0.5)];
        for precision in Precision::ALL {
            let x = detect(precision, n, &h, &y, 0.0);
            for (xi, yi) in x.iter().zip(&y) {
                assert!(
                    (xi[0].to_f64() - yi.0).abs() < 0.05 && (xi[1].to_f64() - yi.1).abs() < 0.05,
                    "{precision}: {xi:?} vs {yi:?}"
                );
            }
        }
    }

    #[test]
    fn f64_reference_is_exact_on_identity() {
        let n = 8;
        let h = identity_channel(n);
        let y: Vec<C64> = (0..n).map(|i| (i as f64 * 0.1 - 0.3, 0.2 - i as f64 * 0.05)).collect();
        let x = detect_f64(n, &h, &y, 0.0);
        for (xi, yi) in x.iter().zip(&y) {
            assert!((xi.0 - yi.0).abs() < 1e-12 && (xi.1 - yi.1).abs() < 1e-12);
        }
    }

    #[test]
    fn sigma_regularizes() {
        // With large sigma, x̂ shrinks towards zero (MMSE behaviour).
        let n = 4;
        let h = identity_channel(n);
        let y = vec![(1.0, 0.0); n];
        let x0 = detect_f64(n, &h, &y, 0.0);
        let x9 = detect_f64(n, &h, &y, 9.0);
        assert!((x0[0].0 - 1.0).abs() < 1e-12);
        assert!((x9[0].0 - 0.1).abs() < 1e-12); // 1/(1+9)
    }

    #[test]
    fn native_tracks_f64_on_benign_channel() {
        // A well-conditioned random-ish channel: 16-bit variants should be
        // close to the f64 reference.
        let n = 4;
        let mut h = identity_channel(n);
        h[1] = (0.25, -0.125);
        h[4] = (-0.25, 0.0625);
        h[11] = (0.125, 0.25);
        let y = vec![(0.75, -0.5), (0.25, 0.5), (-0.75, 0.25), (0.5, 0.125)];
        let gold = detect_f64(n, &h, &y, 0.01);
        for precision in [Precision::Half16, Precision::WDotp16, Precision::CDotp16] {
            let x = detect(precision, n, &h, &y, 0.01);
            for (xi, gi) in x.iter().zip(&gold) {
                assert!((xi[0].to_f64() - gi.0).abs() < 0.05, "{precision}: {} vs {}", xi[0].to_f64(), gi.0);
            }
        }
    }
}
