//! Criterion benchmark of raw ISS emulation speed (instructions per
//! second of the translate-then-interpret loop) — the figure the paper
//! quotes as 3.57 MIPS for single-thread Banshee — of SPMD lane groups
//! against the same harts run one at a time, and of SPMD groups on the
//! binary16 uops they run eight lanes per SIMD instruction.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use terasim_iss::uop::UopProgram;
use terasim_iss::{
    resume_blocks, resume_spmd, run_core, BlockProgram, Cpu, DenseMemory, Lane, Memory, Program, RunConfig,
    RunStats, Scoreboard, MAX_GROUP,
};
use terasim_riscv::{Assembler, Image, Reg, Segment};

/// An integer/FP mix resembling the MMSE inner loop.
fn workload(iterations: i32) -> Program {
    let mut a = Assembler::new(0x8000_0000);
    a.li(Reg::T0, iterations);
    a.li(Reg::A1, 0x100);
    let top = a.new_label();
    a.bind(top);
    a.lw(Reg::A2, 0, Reg::A1);
    a.lw(Reg::A3, 4, Reg::A1);
    a.fmadd_h(Reg::A4, Reg::A2, Reg::A3, Reg::A4);
    a.fmadd_h(Reg::A5, Reg::A2, Reg::A3, Reg::A5);
    a.add(Reg::A6, Reg::A2, Reg::A3);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.ecall();
    let mut image = Image::new(0x8000_0000);
    image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
    Program::translate(&image).unwrap()
}

fn bench_emulation(c: &mut Criterion) {
    let iters = 2_000;
    let program = workload(iters);
    let insts_per_run = 7 * iters as u64 + 3;
    let mut group = c.benchmark_group("iss");
    group.throughput(Throughput::Elements(insts_per_run));
    group.bench_function("interpret_mips", |bencher| {
        bencher.iter(|| {
            let mut cpu = Cpu::new(0);
            let mut mem = DenseMemory::new(0, 0x1000);
            run_core(&mut cpu, &program, &mut mem, &RunConfig::default()).unwrap()
        })
    });
    group.finish();
}

fn bench_translation(c: &mut Criterion) {
    // Translation cost (the "SBT" phase): decode a 4k-instruction image.
    let mut a = Assembler::new(0x8000_0000);
    for i in 0..4096 {
        a.addi(Reg::A0, Reg::A0, i % 100);
    }
    let mut image = Image::new(0x8000_0000);
    image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
    let mut group = c.benchmark_group("iss");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("translate", |bencher| bencher.iter(|| Program::translate(&image).unwrap()));
    group.finish();
}

/// The per-hart state of `n` harts, all at the program's entry.
struct Harts {
    harts: Vec<(Cpu, DenseMemory, Scoreboard, RunStats)>,
}

impl Harts {
    fn new(n: u32) -> Self {
        let harts = (0..n)
            .map(|hart| (Cpu::new(hart), DenseMemory::new(0, 0x200), Scoreboard::new(), RunStats::default()))
            .collect();
        Self { harts }
    }

    /// Back to the entry with fresh timing (memory keeps its contents:
    /// the workload's addresses and control flow do not depend on them).
    fn reset(&mut self) {
        for (hart, (cpu, _, sb, stats)) in (0..).zip(&mut self.harts) {
            *cpu = Cpu::new(hart);
            *sb = Scoreboard::new();
            *stats = RunStats::default();
        }
    }
}

/// `iss/spmd/<lanes>`: `lanes` harts converged on one program through
/// `resume_spmd` (groups of at most `MAX_GROUP` lanes) against the same
/// harts one at a time through `resume_blocks`. An element is one
/// retired instruction, so `ns/elem` is ns per instruction.
fn bench_spmd(c: &mut Criterion) {
    let iters = 200;
    let program = workload(iters);
    let config = RunConfig::default();
    let table = UopProgram::lower(&program, &config.latency);
    let blocks: BlockProgram<DenseMemory> = BlockProgram::build(&program, &table);
    let insts_per_hart = 7 * iters as u64 + 3;
    let mut group = c.benchmark_group("iss/spmd");
    for lanes in [16u32, MAX_GROUP as u32, 256, 1024] {
        let mut harts = Harts::new(lanes);
        group.throughput(Throughput::Elements(u64::from(lanes) * insts_per_hart));
        group.bench_function(&format!("{lanes}/resume_spmd"), |bencher| {
            bencher.iter(|| {
                harts.reset();
                let mut group: Vec<Lane<'_, DenseMemory>> = harts
                    .harts
                    .iter_mut()
                    .map(|(cpu, mem, sb, stats)| Lane { cpu, mem, sb, stats })
                    .collect();
                resume_spmd(&mut group, &blocks, &config).unwrap()
            })
        });
        group.bench_function(&format!("{lanes}/resume_blocks"), |bencher| {
            bencher.iter(|| {
                harts.reset();
                for (cpu, mem, sb, stats) in &mut harts.harts {
                    resume_blocks(cpu, &blocks, mem, &config, sb, stats).unwrap();
                }
            })
        });
    }
    group.finish();
}

/// The binary16 mix of the MMSE kernels: a counted loop that loads two
/// operand words and runs `vfcdotpex.c.s.h`, `fnmsub.h` and `fmadd.h`
/// on them (10 instructions per trip, 3 for setup and exit).
fn fp16_workload(iterations: i32) -> Program {
    let mut a = Assembler::new(0x8000_0000);
    a.li(Reg::T0, iterations);
    a.li(Reg::A1, 0x100);
    let top = a.new_label();
    a.bind(top);
    a.lw(Reg::A2, 0, Reg::A1);
    a.lw(Reg::A3, 4, Reg::A1);
    a.vfcdotpex_c_s_h(Reg::A4, Reg::A2, Reg::A3);
    a.fnmsub_h(Reg::A5, Reg::A2, Reg::A3, Reg::A5);
    a.fmadd_h(Reg::A6, Reg::A3, Reg::A2, Reg::A6);
    a.vfcdotpex_c_s_h(Reg::A7, Reg::A3, Reg::A2);
    a.fnmsub_h(Reg::T1, Reg::A3, Reg::A3, Reg::T1);
    a.fmadd_h(Reg::T2, Reg::A2, Reg::A2, Reg::T2);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.ecall();
    let mut image = Image::new(0x8000_0000);
    image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
    Program::translate(&image).unwrap()
}

/// `iss/spmd_fp16/<lanes>`: `lanes` converged harts through `resume_spmd`
/// on [`fp16_workload`], each over its own operands (binary16 pairs near
/// one, different per hart). An element is one retired instruction, so
/// `ns/elem` is ns per instruction.
fn bench_spmd_fp16(c: &mut Criterion) {
    let iters = 200;
    let program = fp16_workload(iters);
    let config = RunConfig::default();
    let table = UopProgram::lower(&program, &config.latency);
    let blocks: BlockProgram<DenseMemory> = BlockProgram::build(&program, &table);
    let insts_per_hart = 10 * iters as u64 + 3;
    let mut group = c.benchmark_group("iss/spmd_fp16");
    for lanes in [16u32, MAX_GROUP as u32, 256, 1024] {
        let mut harts = Harts::new(lanes);
        for (hart, (_, mem, _, _)) in (0u32..).zip(&mut harts.harts) {
            // [1 + hart/1024, 1 - hart/2048] and [0.5, 0.75 + hart/4096].
            let h = |x: u32| u32::from(0x3c00 + (x & 0x3ff) as u16);
            mem.store(0x100, 4, h(hart) | h(hart / 2) << 16).unwrap();
            mem.store(0x104, 4, 0x3800 | (0x3a00 + (hart & 0x1ff)) << 16).unwrap();
        }
        group.throughput(Throughput::Elements(u64::from(lanes) * insts_per_hart));
        group.bench_function(&format!("{lanes}"), |bencher| {
            bencher.iter(|| {
                harts.reset();
                let mut group: Vec<Lane<'_, DenseMemory>> = harts
                    .harts
                    .iter_mut()
                    .map(|(cpu, mem, sb, stats)| Lane { cpu, mem, sb, stats })
                    .collect();
                resume_spmd(&mut group, &blocks, &config).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_emulation, bench_translation, bench_spmd, bench_spmd_fp16);
criterion_main!(benches);
