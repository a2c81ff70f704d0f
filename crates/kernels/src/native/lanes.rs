//! The 16-bit MMSE models, eight problems at a time: the scalar model's
//! operation sequence with every binary16 value replaced by an [`H8`]
//! holding that value for eight problems, one per lane.

use terasim_softfloat::lanes::{self as l8, H8, S8};
use terasim_softfloat::F16;

use super::{detect_scalar, Operands, Quant, LANES};
use crate::Precision;

/// One complex value per lane, `[re, im]`.
type C8 = [H8; 2];

/// One problem's elements: `H` column-major, then `y`.
type Elems<'a> = (&'a [[F16; 2]], &'a [[F16; 2]]);

/// Gathers one complex value per lane.
fn pack(values: [[F16; 2]; LANES]) -> C8 {
    [H8::from_bits(values.map(|c| c[0].to_bits())), H8::from_bits(values.map(|c| c[1].to_bits()))]
}

/// Lane-major operands of a chunk: `h[i*n + k]`, `y[k]` and σ², lane `l`
/// holding problem `l` (the last problem repeats to fill a short chunk).
struct Chunk {
    h: Vec<C8>,
    y: Vec<C8>,
    sigma: H8,
}

impl Chunk {
    fn gather(chunk: &[Operands], n: usize) -> Self {
        let lane = |l: usize| &chunk[l.min(chunk.len() - 1)];
        let elems: [Elems; LANES] = std::array::from_fn(|l| match &lane(l).quant {
            Quant::H16 { h, y } => (h.as_slice(), y.as_slice()),
            Quant::H8 { .. } => unreachable!("detect_batch checks the element width"),
        });
        Self {
            h: (0..n * n).map(|i| pack(elems.map(|(h, _)| h[i]))).collect(),
            y: (0..n).map(|k| pack(elems.map(|(_, y)| y[k]))).collect(),
            sigma: H8::from_bits(std::array::from_fn(|l| lane(l).sigma.to_bits())),
        }
    }
}

/// Mirrors the scalar `dot_conj` for the 16-bit precisions.
#[target_feature(enable = "avx2,f16c")]
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the scalar model's operand list
fn dot_conj(
    precision: Precision,
    q: &Chunk,
    n: usize,
    col_a: usize,
    b_is_y: bool,
    col_b: usize,
    diag: bool,
) -> C8 {
    let zero = H8::splat(F16::ZERO);
    let (h, y) = (&q.h, &q.y);
    match precision {
        Precision::Half16 => {
            let mut acc = [[zero; 2]; 2];
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                acc[k % 2] = l8::cmac_conj_h(acc[k % 2], a, b);
            }
            let mut re = l8::fadd_h(acc[0][0], acc[1][0]);
            let im = l8::fadd_h(acc[0][1], acc[1][1]);
            if diag {
                re = l8::fadd_h(re, q.sigma);
            }
            [re, im]
        }
        Precision::WDotp16 => {
            let zero = S8::from_array([0.0; LANES]);
            let (mut re, mut im) = ([zero; 2], [zero; 2]);
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                let c = k % 2;
                re[c] = l8::vfdotpex_s_h(re[c], a, b);
                im[c] = l8::vfndotpex_s_h(im[c], a, [b[1], b[0]]);
            }
            let mut re_s = l8::fadd_s(re[0], re[1]);
            let im_s = l8::fadd_s(im[0], im[1]);
            if diag {
                re_s = l8::fadd_s(re_s, l8::fcvt_s_h(q.sigma));
            }
            [l8::fcvt_h_s(re_s), l8::fcvt_h_s(im_s)]
        }
        Precision::CDotp16 => {
            let mut acc = [[zero; 2]; 2];
            for k in 0..n {
                let a = h[col_a * n + k];
                let b = if b_is_y { y[k] } else { h[col_b * n + k] };
                acc[k % 2] = l8::vfcdotpex_conj_s_h(acc[k % 2], a, b);
            }
            let mut out = [l8::fadd_h(acc[0][0], acc[1][0]), l8::fadd_h(acc[0][1], acc[1][1])];
            if diag {
                out[0] = l8::fadd_h(out[0], q.sigma);
            }
            out
        }
        Precision::Quarter8 | Precision::WDotp8 => unreachable!("the 8-bit precisions run the scalar model"),
    }
}

/// Solves up to [`LANES`] 16-bit problems of `chunk` side by side and
/// appends their `x̂` to `out`, problem by problem. A problem whose `x̂`
/// holds a NaN is solved again by the scalar model.
#[target_feature(enable = "avx2,f16c")]
pub(super) fn detect(precision: Precision, n: usize, chunk: &[Operands], out: &mut Vec<[F16; 2]>) {
    let q = Chunk::gather(chunk, n);
    let zero = H8::splat(F16::ZERO);

    // Gram lower triangle, row-major (like the guest scratch).
    let tri = |i: usize| i * (i + 1) / 2;
    let mut g = vec![[zero; 2]; tri(n) + n];
    for i in 0..n {
        for j in 0..=i {
            g[tri(i) + j] = dot_conj(precision, &q, n, i, false, j, i == j);
        }
    }
    // Matched filter z.
    let mut w = Vec::with_capacity(n);
    for i in 0..n {
        w.push(dot_conj(precision, &q, n, i, true, 0, false));
    }

    // Cholesky in binary16 (exact emitted op order).
    let mut l = vec![[zero; 2]; tri(n) + n];
    let mut rdiag = vec![zero; n];
    for j in 0..n {
        let mut s = g[tri(j) + j][0];
        for k in 0..j {
            let ljk = l[tri(j) + k];
            s = l8::fnmsub_h(ljk[0], ljk[0], s);
            s = l8::fnmsub_h(ljk[1], ljk[1], s);
        }
        let d = l8::fsqrt_h(s);
        l[tri(j) + j] = [d, zero];
        rdiag[j] = l8::recip_h(d);
        for i in (j + 1)..n {
            let mut c = g[tri(i) + j];
            for k in 0..j {
                let lik = l[tri(i) + k];
                let ljk = l[tri(j) + k];
                c[0] = l8::fnmsub_h(lik[0], ljk[0], c[0]);
                c[0] = l8::fnmsub_h(lik[1], ljk[1], c[0]);
                c[1] = l8::fnmsub_h(lik[1], ljk[0], c[1]);
                c[1] = l8::fmadd_h(lik[0], ljk[1], c[1]);
            }
            l[tri(i) + j] = [l8::fmul_h(c[0], rdiag[j]), l8::fmul_h(c[1], rdiag[j])];
        }
    }

    // Forward substitution L w = z (in place).
    for i in 0..n {
        let mut c = w[i];
        for k in 0..i {
            let lik = l[tri(i) + k];
            let wk = w[k];
            c[0] = l8::fnmsub_h(lik[0], wk[0], c[0]);
            c[0] = l8::fmadd_h(lik[1], wk[1], c[0]);
            c[1] = l8::fnmsub_h(lik[0], wk[1], c[1]);
            c[1] = l8::fnmsub_h(lik[1], wk[0], c[1]);
        }
        w[i] = [l8::fmul_h(c[0], rdiag[i]), l8::fmul_h(c[1], rdiag[i])];
    }

    // Backward substitution L^H x = w.
    let mut x = vec![[zero; 2]; n];
    for i in (0..n).rev() {
        let mut c = w[i];
        for k in (i + 1)..n {
            let lki = l[tri(k) + i];
            let xk = x[k];
            c[0] = l8::fnmsub_h(lki[0], xk[0], c[0]);
            c[0] = l8::fnmsub_h(lki[1], xk[1], c[0]);
            c[1] = l8::fnmsub_h(lki[0], xk[1], c[1]);
            c[1] = l8::fmadd_h(lki[1], xk[0], c[1]);
        }
        x[i] = [l8::fmul_h(c[0], rdiag[i]), l8::fmul_h(c[1], rdiag[i])];
    }

    let bits: Vec<[[u16; LANES]; 2]> = x.iter().map(|c| [c[0].to_bits(), c[1].to_bits()]).collect();
    for (lane, problem) in chunk.iter().enumerate() {
        let xhat = bits.iter().map(|c| [F16::from_bits(c[0][lane]), F16::from_bits(c[1][lane])]);
        if xhat.clone().any(|c| c[0].is_nan() || c[1].is_nan()) {
            out.extend(detect_scalar(precision, problem));
        } else {
            out.extend(xhat);
        }
    }
}
