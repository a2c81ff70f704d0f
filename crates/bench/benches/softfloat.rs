//! Criterion micro-benchmarks of the softfloat substrate: these
//! operations dominate the inner loops of both the ISS FPU and the native
//! DUT models, so their throughput bounds overall simulation speed. The
//! benchmark's `terapool.{fast,cycle}_ns_per_inst` layer metrics are the
//! same floor measured end to end.
//!
//! The `*_reference` entries time the retained generic implementations
//! (`ops::reference`) next to the table/fast-path versions, so the
//! speedup of the fast paths stays measurable in isolation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use terasim_softfloat::ops::{self, reference};
use terasim_softfloat::{F16, F8};

fn bench_scalar(c: &mut Criterion) {
    let a = F16::from_f32(1.5);
    let b = F16::from_f32(-0.375);
    let acc = F16::from_f32(10.0);
    c.bench_function("f16_add", |bencher| bencher.iter(|| black_box(a) + black_box(b)));
    c.bench_function("f16_mul", |bencher| bencher.iter(|| black_box(a) * black_box(b)));
    c.bench_function("f16_fma", |bencher| {
        bencher.iter(|| black_box(a).mul_add(black_box(b), black_box(acc)))
    });
    c.bench_function("f16_fma_reference", |bencher| {
        bencher.iter(|| reference::mul_add_h(black_box(a), black_box(b), black_box(acc)))
    });
    c.bench_function("f16_div", |bencher| bencher.iter(|| black_box(acc) / black_box(a)));
    c.bench_function("f16_sqrt", |bencher| bencher.iter(|| black_box(acc).sqrt()));
    c.bench_function("f16_recip", |bencher| bencher.iter(|| black_box(acc).recip()));
    c.bench_function("f16_from_f64", |bencher| bencher.iter(|| F16::from_f64(black_box(0.1234567))));
    let q = F8::from_f32(1.25);
    c.bench_function("f8_mul", |bencher| bencher.iter(|| black_box(q) * black_box(q)));
}

fn bench_convert(c: &mut Criterion) {
    let x = F16::from_f32(0.7123);
    c.bench_function("f16_to_f32_table", |bencher| bencher.iter(|| black_box(x).to_f32()));
    c.bench_function("f16_to_f32_reference", |bencher| bencher.iter(|| reference::h_to_f32(black_box(x))));
    c.bench_function("f16_from_f32_fast", |bencher| bencher.iter(|| F16::from_f32(black_box(0.7123f32))));
    c.bench_function("f16_from_f32_reference", |bencher| {
        bencher.iter(|| reference::h_from_f32(black_box(0.7123f32)))
    });
}

fn bench_dotp(c: &mut Criterion) {
    let a = [F16::from_f32(0.5), F16::from_f32(-1.25)];
    let b = [F16::from_f32(2.0), F16::from_f32(0.75)];
    let acc = [F16::from_f32(3.0), F16::from_f32(-0.5)];
    c.bench_function("vfdotpex_s_h", |bencher| {
        bencher.iter(|| ops::vfdotpex_s_h(black_box(1.0), black_box(a), black_box(b)))
    });
    c.bench_function("vfcdotpex_conj_s_h", |bencher| {
        bencher.iter(|| ops::vfcdotpex_conj_s_h(black_box(acc), black_box(a), black_box(b)))
    });
    c.bench_function("cmac_conj_h", |bencher| {
        bencher.iter(|| ops::cmac_conj_h(black_box(acc), black_box(a), black_box(b)))
    });
    let a8 = [F8::from_f32(0.5), F8::from_f32(1.0), F8::from_f32(-1.5), F8::from_f32(2.0)];
    let b8 = [F8::from_f32(1.0), F8::from_f32(0.25), F8::from_f32(0.5), F8::from_f32(-1.0)];
    c.bench_function("vfdotpex_h_b", |bencher| {
        bencher.iter(|| ops::vfdotpex_h_b(black_box(acc), black_box(a8), black_box(b8)))
    });
}

/// The fused complex-MAC primitives vs their retained four-round-trip
/// reference chains — the "one call replaces four mul/add round trips"
/// floor of the MAC-heavy kernels.
fn bench_cmac(c: &mut Criterion) {
    let a = [F16::from_f32(0.5), F16::from_f32(-1.25)];
    let b = [F16::from_f32(2.0), F16::from_f32(0.75)];
    let acc = [F16::from_f32(3.0), F16::from_f32(-0.5)];
    c.bench_function("cmac_h_fused", |bencher| {
        bencher.iter(|| ops::cmac_h(black_box(acc), black_box(a), black_box(b)))
    });
    c.bench_function("cmac_h_reference", |bencher| {
        bencher.iter(|| reference::cmac_h(black_box(acc), black_box(a), black_box(b)))
    });
    c.bench_function("cmac_conj_h_fused", |bencher| {
        bencher.iter(|| ops::cmac_conj_h(black_box(acc), black_box(a), black_box(b)))
    });
    c.bench_function("vfcdotpex_s_h_fused", |bencher| {
        bencher.iter(|| ops::vfcdotpex_s_h(black_box(acc), black_box(a), black_box(b)))
    });
    c.bench_function("vfcdotpex_s_h_reference", |bencher| {
        bencher.iter(|| reference::vfcdotpex_s_h(black_box(acc), black_box(a), black_box(b)))
    });
    // The zero-multiplicand early-out path (dominates sparse operands).
    let z = [F16::ZERO, F16::ZERO];
    c.bench_function("cmac_h_zero_early_out", |bencher| {
        bencher.iter(|| ops::cmac_h(black_box(acc), black_box(z), black_box(b)))
    });
}

criterion_group!(benches, bench_scalar, bench_convert, bench_dotp, bench_cmac);
criterion_main!(benches);
