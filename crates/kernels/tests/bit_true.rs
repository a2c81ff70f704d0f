//! ISS-executed kernels must be *bit-identical* to the native models.
//!
//! This is the load-bearing test of the whole reproduction: the BER
//! figures run the native models for Monte-Carlo volume, which is only
//! valid because this test pins them to the ISS (the paper's Banshee
//! "bit-true functional modeling").

use terasim_kernels::{data, native, MmseKernel, Precision, C64};
use terasim_phy::rng::Rng64;
use terasim_softfloat::F16;
use terasim_terapool::{FastSim, Topology};

/// Standard-normal sampler (Box-Muller).
fn randn(rng: &mut Rng64) -> f64 {
    let u1: f64 = rng.next_f64().max(1e-12);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn random_channel(rng: &mut Rng64, n: usize) -> Vec<C64> {
    let scale = 1.0 / (2.0 * n as f64).sqrt();
    (0..n * n).map(|_| (randn(rng) * scale, randn(rng) * scale)).collect()
}

fn random_symbols(rng: &mut Rng64, n: usize) -> Vec<C64> {
    // 16QAM-like alphabet, unit average power.
    let levels = [-3.0, -1.0, 1.0, 3.0];
    let norm = (10.0f64).sqrt().recip();
    (0..n).map(|_| (levels[rng.below(4)] * norm, levels[rng.below(4)] * norm)).collect()
}

fn run_case(precision: Precision, n: u32, seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let cores = 8u32;
    let mut topo = Topology::scaled(cores);
    let kernel = MmseKernel::new(n, precision).with_active_cores(cores);
    // Large MIMO sizes outgrow the 32 KiB tiles: deepen the banks, as
    // `experiments::topology_for` does.
    while kernel.layout(&topo).is_err() {
        topo.tile_spm_bytes *= 2;
    }
    let layout = kernel.layout(&topo).expect("fits");
    let image = kernel.build(&topo).expect("builds");
    let mut sim = FastSim::new(topo, &image).expect("translates");

    let mut problems = Vec::new();
    for p in 0..layout.problems {
        let h = random_channel(&mut rng, n as usize);
        let x = random_symbols(&mut rng, n as usize);
        // y = H x + small noise
        let mut y = vec![(0.0, 0.0); n as usize];
        for k in 0..n as usize {
            for i in 0..n as usize {
                let hv = h[k * n as usize + i];
                let xv = x[i];
                y[k].0 += hv.0 * xv.0 - hv.1 * xv.1;
                y[k].1 += hv.0 * xv.1 + hv.1 * xv.0;
            }
            y[k].0 += randn(&mut rng) * 0.01;
            y[k].1 += randn(&mut rng) * 0.01;
        }
        let sigma = 0.01;
        data::write_problem(sim.memory(), &layout, p, &h, &y, sigma);
        problems.push((h, y, sigma));
    }

    sim.run_all(2).expect("runs");

    for (p, (h, y, sigma)) in problems.iter().enumerate() {
        let iss = data::read_xhat(sim.memory(), &layout, p as u32);
        let nat = native::detect(precision, n as usize, h, y, *sigma);
        for i in 0..n as usize {
            assert_eq!(
                [iss[i][0].to_bits(), iss[i][1].to_bits()],
                [nat[i][0].to_bits(), nat[i][1].to_bits()],
                "{precision} n={n} problem {p} element {i}: ISS {:?} vs native {:?}",
                iss[i],
                nat[i]
            );
        }
    }
}

#[test]
fn bit_true_half16() {
    run_case(Precision::Half16, 4, 1);
    run_case(Precision::Half16, 8, 2);
}

#[test]
fn bit_true_wdotp16() {
    run_case(Precision::WDotp16, 4, 3);
    run_case(Precision::WDotp16, 8, 4);
}

#[test]
fn bit_true_cdotp16() {
    run_case(Precision::CDotp16, 4, 5);
    run_case(Precision::CDotp16, 16, 6);
}

#[test]
fn bit_true_quarter8() {
    run_case(Precision::Quarter8, 4, 7);
    run_case(Precision::Quarter8, 8, 8);
}

#[test]
fn bit_true_wdotp8() {
    run_case(Precision::WDotp8, 4, 9);
    run_case(Precision::WDotp8, 8, 10);
}

#[test]
fn bit_true_large_mimo() {
    // The paper's largest size, one precision per family (slower cases).
    run_case(Precision::CDotp16, 32, 11);
    run_case(Precision::WDotp8, 16, 12);
    run_case(Precision::Half16, 16, 13);
}

#[test]
fn detection_quality_tracks_reference() {
    // The 16-bit kernels should detect the same symbols as the f64
    // reference on a well-conditioned channel (qualitative check used by
    // the BER experiments).
    let mut rng = Rng64::seed_from_u64(42);
    let n = 4usize;
    let mut agree = 0;
    let mut total = 0;
    for _ in 0..50 {
        let h = random_channel(&mut rng, n);
        let x = random_symbols(&mut rng, n);
        let mut y = vec![(0.0, 0.0); n];
        for k in 0..n {
            for i in 0..n {
                let hv = h[k * n + i];
                y[k].0 += hv.0 * x[i].0 - hv.1 * x[i].1;
                y[k].1 += hv.0 * x[i].1 + hv.1 * x[i].0;
            }
        }
        let gold = native::detect_f64(n, &h, &y, 0.001);
        let fx = native::detect(Precision::CDotp16, n, &h, &y, 0.001);
        for i in 0..n {
            total += 1;
            if (fx[i][0].to_f64() - gold[i].0).abs() < 0.25 && (fx[i][1].to_f64() - gold[i].1).abs() < 0.25 {
                agree += 1;
            }
        }
    }
    assert!(
        agree as f64 >= 0.9 * total as f64,
        "16bCDotp diverged from the reference too often: {agree}/{total}"
    );
}

/// `y = H x + noise` for a random channel and 16-QAM-like symbols.
fn random_problem(rng: &mut Rng64, n: usize) -> (Vec<C64>, Vec<C64>, f64) {
    let h = random_channel(rng, n);
    let x = random_symbols(rng, n);
    let mut y = vec![(0.0, 0.0); n];
    for k in 0..n {
        for i in 0..n {
            let (hv, xv) = (h[k * n + i], x[i]);
            y[k].0 += hv.0 * xv.0 - hv.1 * xv.1;
            y[k].1 += hv.0 * xv.1 + hv.1 * xv.0;
        }
        y[k].0 += randn(rng) * 0.01;
        y[k].1 += randn(rng) * 0.01;
    }
    (h, y, 0.01)
}

/// 24 problems: random ones, plus adversarial ones at scattered
/// positions. An all-zero `H` with σ² = 0 drives `sqrt(0)` and `1/0` into
/// Inf/NaN chains; one with σ² > 0 solves to zeros; entries near 65 504
/// overflow the Gram sums.
fn batch_pool(n: usize, seed: u64) -> Vec<(Vec<C64>, Vec<C64>, f64)> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..24)
        .map(|p| {
            let (h, y, sigma) = random_problem(&mut rng, n);
            let zero = vec![(0.0, 0.0); n * n];
            let huge = |s: f64| {
                (0..n * n).map(|i| (s * 65_000.0, if i % 3 == 0 { -65_504.0 } else { 65_400.0 })).collect()
            };
            match p {
                3 => (zero, y, 0.0),
                7 => (zero, y, 0.01),
                11 => (huge(1.0), y, 0.01),
                14 => (h, vec![(65_504.0, -65_504.0); n], 65_504.0),
                18 => (huge(-1.0), vec![(65_000.0, 1.0); n], 0.0),
                _ => (h, y, sigma),
            }
        })
        .collect()
}

/// The batch model is the scalar model, problem for problem and bit for
/// bit: all five precisions, MIMO sizes 4 to 32, every batch length from
/// 1 to 17 (so full, partial and single-problem lane chunks), and
/// adversarial problems whose results hold Inf and NaN.
#[test]
fn detect_batch_matches_detect() {
    for n in [4usize, 8, 16, 32] {
        let pool = batch_pool(n, 0xba7c_0000 + n as u64);
        for precision in Precision::ALL {
            let operands: Vec<_> =
                pool.iter().map(|(h, y, s)| native::Operands::quantize(precision, n, h, y, *s)).collect();
            let want: Vec<Vec<[F16; 2]>> =
                pool.iter().map(|(h, y, s)| native::detect(precision, n, h, y, *s)).collect();
            assert!(
                want.iter().flatten().any(|c| c[0].is_nan() || c[1].is_nan()),
                "{precision} n={n}: the adversarial problems must reach NaN"
            );
            for len in 1..=17 {
                let start = len % 7;
                let got = native::detect_batch(precision, n, &operands[start..start + len]);
                assert_eq!(got.len(), len * n, "{precision} n={n} len={len}");
                for (p, (got, want)) in got.chunks(n).zip(&want[start..]).enumerate() {
                    let bits = |x: &[[F16; 2]]| {
                        x.iter().map(|c| [c[0].to_bits(), c[1].to_bits()]).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(got), bits(want), "{precision} n={n} len={len}: problem {}", start + p);
                }
            }
        }
    }
}
