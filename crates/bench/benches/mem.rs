//! Criterion benchmark of the guest memory path: the cost of one access
//! through the view both engines' load and store kernels use, and of
//! recycling an arena. An iteration of the `mem/*_load` and `mem/*_store`
//! rows is 16 384 accesses, so ns per access = ns/iter ÷ 16 384 = 1000 ÷
//! the Melem/s column. Gates nothing; it is the per-operation number a
//! change to `terapool::mem` quotes next to the end-to-end ones.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use terasim_iss::Memory;
use terasim_riscv::{Assembler, Image, Segment};
use terasim_terapool::{ClusterMem, MemPool, SimArtifacts, Topology};

/// Accesses per timed iteration: a 64 KiB window at unit stride, the
/// whole 4 MiB interleaved view at 1 KiB stride.
const ACCESSES: u32 = 16 << 10;

/// Sums `ACCESSES` word loads through `mem`, `stride` bytes apart from
/// `base`, wrapping inside `span` bytes (a power of two: the wrap is a
/// mask, not a division next to a 2 ns load).
fn sweep(mem: &mut impl Memory, base: u32, stride: u32, span: u32) -> u32 {
    assert!(span.is_power_of_two());
    (0..ACCESSES)
        .fold(0, |sum, i| sum.wrapping_add(mem.load(base + ((i * stride) & (span - 1)), 4).expect("mapped")))
}

fn bench_views(c: &mut Criterion) {
    let topo = Topology::terapool();
    let mem = ClusterMem::new(topo);
    for addr in (0..topo.l1_bytes()).step_by(4) {
        mem.write_u32(Topology::L1_BASE + addr, addr);
    }
    let mut core = mem.core_view(0);
    let window = 4 * ACCESSES;
    let seq_tile = Topology::SEQ_BASE + 5 * Topology::SEQ_STRIDE;

    let mut group = c.benchmark_group("mem");
    group.throughput(Throughput::Elements(u64::from(ACCESSES)));
    group.bench_function("core_load/interleaved/unit_stride", |bencher| {
        bencher.iter(|| sweep(&mut core, black_box(Topology::L1_BASE), 4, window))
    });
    group.bench_function("core_load/interleaved/1k_stride", |bencher| {
        bencher.iter(|| sweep(&mut core, black_box(Topology::L1_BASE), 1 << 10, topo.l1_bytes()))
    });
    group.bench_function("core_load/sequential/unit_stride", |bencher| {
        bencher.iter(|| sweep(&mut core, black_box(seq_tile), 4, topo.tile_spm_bytes))
    });
    for (row, size) in [("core_store/halfword", 2), ("core_store/word", 4)] {
        group.bench_function(row, |bencher| {
            bencher.iter(|| {
                let base = black_box(Topology::L1_BASE);
                for i in 0..ACCESSES {
                    core.store(base + size * i, size, i).expect("mapped");
                }
            })
        });
    }
    group.finish();
}

fn bench_reset(c: &mut Criterion) {
    // `ClusterMem::reset` as jobs pay for it: `MemPool::acquire` of a
    // parked arena whose last job dirtied 64 pages. One iteration is the
    // acquire (reset + a one-word image), 64 word writes and the release.
    let mut a = Assembler::new(Topology::L2_BASE);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().expect("assembles")));
    let arts = SimArtifacts::build(Topology::terapool(), &image).expect("translates");
    let pool = MemPool::new(Arc::clone(&arts));
    c.bench_function("mem/pool_reset/64_pages", |bencher| {
        bencher.iter(|| {
            let mem = pool.acquire();
            for page in 0..64 {
                mem.write_u32(Topology::L1_BASE + page * 4096, page + 1);
            }
            pool.release(mem)
        })
    });
}

criterion_group!(benches, bench_views, bench_reset);
criterion_main!(benches);
