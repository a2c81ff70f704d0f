//! Criterion benchmarks of the MMSE paths: native bit-true models (the
//! Monte-Carlo workhorse and every job's verify layer) and the full
//! ISS-executed kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use terasim_kernels::{data, native, MmseKernel, Precision, C64};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_terapool::{FastSim, Topology};

fn transmission(n: usize, seed: u64) -> (Vec<C64>, Vec<C64>, f64) {
    let scenario = Mimo { n_tx: n, n_rx: n, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut generator = TxGenerator::new(scenario, 12.0, seed);
    let t = generator.next_transmission();
    (t.h.iter().map(|z| (*z).into()).collect(), t.y.iter().map(|z| (*z).into()).collect(), t.sigma)
}

fn bench_native(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_detect");
    for n in [4usize, 8, 16] {
        let (h, y, sigma) = transmission(n, 11);
        for precision in [Precision::Half16, Precision::CDotp16, Precision::WDotp8] {
            group.bench_with_input(BenchmarkId::new(precision.paper_name(), n), &n, |bencher, &n| {
                bencher.iter(|| native::detect(precision, n, &h, &y, sigma))
            });
        }
    }
    group.finish();
}

/// The verify layer of a `symbol-fast` job: one OFDM symbol's 1 638
/// quantized 16×16 problems through the native model, one `detect` per
/// problem against `detect_batch` over the symbol. The element
/// throughput is problems per second.
fn bench_native_batch(c: &mut Criterion) {
    const NSC: u64 = 1638;
    let n = 16;
    let problems: Vec<_> = (0..NSC).map(|p| transmission(n, 100 + p)).collect();
    let mut group = c.benchmark_group("native_detect_batch");
    group.throughput(Throughput::Elements(NSC));
    for precision in [Precision::Half16, Precision::WDotp16, Precision::CDotp16] {
        let operands: Vec<_> =
            problems.iter().map(|(h, y, s)| native::Operands::quantize(precision, n, h, y, *s)).collect();
        group.bench_function(&format!("{}/detect", precision.paper_name()), |bencher| {
            bencher.iter(|| {
                problems.iter().map(|(h, y, s)| native::detect(precision, n, h, y, *s)).collect::<Vec<_>>()
            })
        });
        group.bench_function(&format!("{}/detect_batch", precision.paper_name()), |bencher| {
            bencher.iter(|| native::detect_batch(precision, n, &operands))
        });
    }
    group.finish();
}

fn bench_iss_kernel(c: &mut Criterion) {
    let n = 4u32;
    let topo = Topology::scaled(8);
    let kernel = MmseKernel::new(n, Precision::CDotp16).with_active_cores(1);
    let layout = kernel.layout(&topo).unwrap();
    let image = kernel.build(&topo).unwrap();
    let mut sim = FastSim::new(topo, &image).unwrap();
    let (h, y, sigma) = transmission(n as usize, 12);
    data::write_problem(sim.memory(), &layout, 0, &h, &y, sigma);

    c.bench_function("iss_detect_4x4_cdotp", |bencher| {
        bencher.iter(|| {
            sim.memory().write_u32(layout.barrier_addr, 0);
            sim.run_cores(0..1, 1).unwrap()
        })
    });
}

criterion_group!(benches, bench_native, bench_native_batch, bench_iss_kernel);
criterion_main!(benches);
