//! Memory-pool edge cases: recycled arenas must be indistinguishable
//! from fresh allocations in every state a job can leave them in —
//! deadlocked (arbitrarily dirty, pending wakes), sub-word/AMO dirty
//! spans, reuse across the fast and cycle backends — and the pool must
//! reject arenas it cannot safely recycle.

use std::sync::Arc;

use terasim_riscv::{Assembler, Image, Reg, Segment};
use terasim_terapool::{ArenaBank, ClusterMem, CycleSim, FastSim, MemPool, SimArtifacts, Topology};

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// Every hart writes `100 + hart` to its own word and bumps one shared
/// counter — enough traffic to dirty scattered pages on both backends.
fn worker_image() -> Image {
    image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 2);
        a.addi(Reg::T2, Reg::T0, 100);
        a.sw(Reg::T2, 0x400, Reg::T1);
        a.li(Reg::T3, 0x40);
        a.li(Reg::T4, 1);
        a.amoadd_w(Reg::Zero, Reg::T4, Reg::T3);
    })
}

#[test]
fn deadlocked_job_memory_recycles_clean() {
    // Hart 0 scribbles over L1 and L2, leaves a pending wake for hart 1
    // (which never consumes it because it parks first... no: hart 1 parks
    // with no waker), then parks itself -> guest deadlock. The arena goes
    // back to the pool dirty, mid-protocol; the next job must see a
    // perfectly fresh cluster.
    let deadlock = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        let park = a.new_label();
        a.bnez(Reg::T0, park);
        // Hart 0: dirty scattered locations, set EOC, then park forever.
        a.li(Reg::T1, 0x7777);
        a.sw(Reg::T1, 0x100, Reg::Zero);
        a.li(Reg::T2, (Topology::L2_BASE + 0x8000) as i32);
        a.sw(Reg::T1, 0, Reg::T2);
        a.li(Reg::T2, Topology::CTRL_EOC as i32);
        a.li(Reg::T3, 5);
        a.sw(Reg::T3, 0, Reg::T2);
        a.bind(park);
        a.wfi();
    });
    let arts = SimArtifacts::build(Topology::scaled(8), &deadlock).unwrap();
    let pool = MemPool::new(Arc::clone(&arts));

    {
        let mut sim = CycleSim::from_pool(&pool);
        let result = sim.run(8).unwrap();
        assert!(result.deadlocked, "the guest must deadlock");
        assert_eq!(sim.memory().read_u32(0x100), 0x7777, "memory returned dirty");
        assert_eq!(sim.memory().eoc(), 5);
    }
    assert_eq!(pool.parked(), 1, "the deadlocked job's arena is back in the pool");

    // Recycle into a fresh-state check: the dirty words, EOC and wake
    // state must all be reset, the image intact.
    let mem = pool.acquire();
    assert_eq!(pool.stats().recycled, 1);
    for addr in [0x100, Topology::L2_BASE + 0x8000] {
        assert_eq!(mem.read_u32(addr), 0, "{addr:#x} survived recycling");
    }
    assert_eq!(mem.eoc(), 0);
    for core in 0..8 {
        assert!(!mem.wake_pending(core), "stale wake bit survived recycling");
    }
    assert_eq!(
        mem.read_u32(Topology::L2_BASE),
        arts.fresh_memory().read_u32(Topology::L2_BASE),
        "image must be re-applied"
    );
}

#[test]
fn topology_mismatch_is_rejected() {
    let arts = SimArtifacts::build(Topology::scaled(8), &worker_image()).unwrap();
    let pool = MemPool::new(arts);
    let foreign = ClusterMem::new(Topology::scaled(32));
    assert!(!pool.release(foreign), "a 32-core arena must not enter an 8-core pool");
    assert_eq!(pool.parked(), 0);
    assert_eq!(pool.stats().rejected, 1);
    // And the pool still issues correct arenas.
    assert_eq!(pool.acquire().topology().num_cores(), 8);
}

#[test]
fn pool_reuse_across_fast_and_cycle_backends() {
    // One scenario, one pool; a fast job dirties the arena, then a cycle
    // job recycles it (and vice versa). Both must match never-pooled
    // reference runs bit-exactly.
    let image = worker_image();
    let topo = Topology::scaled(8);
    let arts = SimArtifacts::build(topo, &image).unwrap();
    let pool = MemPool::new(Arc::clone(&arts));

    let mut fast_ref = FastSim::new(topo, &image).unwrap();
    let fast_ref_result = fast_ref.run_all(1).unwrap();
    let mut cycle_ref = CycleSim::new(topo, &image).unwrap();
    let cycle_ref_result = cycle_ref.run(8).unwrap();

    for round in 0..2 {
        {
            let mut fast = FastSim::from_pool(&pool);
            let r = fast.run_all(1).unwrap();
            assert_eq!(r.per_core, fast_ref_result.per_core, "round {round}: fast stats diverged");
            for core in 0..8u32 {
                assert_eq!(
                    fast.memory().read_u32(0x400 + 4 * core),
                    fast_ref.memory().read_u32(0x400 + 4 * core),
                    "round {round}: fast memory diverged"
                );
            }
        }
        {
            let mut cycle = CycleSim::from_pool(&pool);
            let r = cycle.run(8).unwrap();
            assert_eq!(r.per_core, cycle_ref_result.per_core, "round {round}: cycle stats diverged");
            assert_eq!(r.cycles, cycle_ref_result.cycles);
            assert_eq!(cycle.memory().read_u32(0x40), cycle_ref.memory().read_u32(0x40));
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.fresh, 1, "one allocation serves all four jobs");
    assert_eq!(stats.recycled, 3, "fast→cycle→fast→cycle all recycled");
}

#[test]
fn subword_and_amo_dirty_spans_reset_exactly() {
    // Guest traffic made of sub-word stores and AMOs at page-straddling
    // addresses: the dirty tracking must catch read-modify-write spans
    // just like full-word stores, and the reset must restore them all.
    let subword = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 1);
        // Byte store at an odd offset, halfword at offset 2 mod 4.
        a.li(Reg::T2, 0x5a);
        a.sb(Reg::T2, 0x101, Reg::T1);
        a.li(Reg::T3, 0x1234);
        a.sh(Reg::T3, 0x202, Reg::T1);
        // AMO on a word 4 KiB up (a different dirty page of the bank
        // array for most harts).
        a.li(Reg::T4, 0x1000);
        a.add(Reg::T4, Reg::T4, Reg::T1);
        a.andi(Reg::T4, Reg::T4, !3);
        a.li(Reg::T5, 1);
        a.amoadd_w(Reg::Zero, Reg::T5, Reg::T4);
    });
    let topo = Topology::scaled(8);
    let arts = SimArtifacts::build(topo, &subword).unwrap();
    let pool = MemPool::new(Arc::clone(&arts));

    // Reference: fresh-memory run.
    let mut reference = FastSim::from_artifacts(Arc::clone(&arts));
    reference.run_all(2).unwrap();

    // First pooled job dirties; second must match the fresh reference.
    {
        let mut first = FastSim::from_pool(&pool);
        first.run_all(2).unwrap();
    }
    let mut second = FastSim::from_pool(&pool);
    second.run_all(2).unwrap();
    assert_eq!(pool.stats().recycled, 1);
    for addr in (0x100..0x240).step_by(4).chain((0x1000..0x1020).step_by(4)) {
        assert_eq!(
            second.memory().read_u32(addr),
            reference.memory().read_u32(addr),
            "recycled run diverged from fresh at {addr:#x}"
        );
    }

    // Host-side sub-word writes (operand-setup path) reset too.
    let mem = pool.acquire();
    mem.write_u16(0x301, 0);
    mem.write_u16(0x302, 0xbeef);
    assert!(pool.release(mem));
    let clean = pool.acquire();
    assert_eq!(clean.read_u32(0x300), 0, "host u16 write survived recycling");
}

#[test]
fn two_scenarios_share_one_arena_through_a_bank() {
    // Two different guests of one geometry take turns on the arenas of
    // one bank, on both backends. Whatever the previous tenant left —
    // its results, its longer text — each job must match a never-pooled
    // run of its own scenario, and one mapping must serve them all.
    let topo = Topology::scaled(8);
    let long_image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::T1, Reg::T0, 2);
        a.li(Reg::T2, 0x5151);
        a.sw(Reg::T2, 0x600, Reg::T1);
        for _ in 0..2000 {
            a.nop();
        }
    });
    let bank = ArenaBank::new();
    let scenarios: Vec<(Image, Arc<MemPool>)> = [worker_image(), long_image]
        .into_iter()
        .map(|image| {
            let pool = MemPool::in_bank(SimArtifacts::build(topo, &image).unwrap(), &bank);
            (image, pool)
        })
        .collect();
    let probes = || (0x400..0x420).chain(0x600..0x620).step_by(4).chain([0x40]);

    for round in 0..2 {
        for (image, pool) in scenarios.iter().rev() {
            let mut fast_ref = FastSim::new(topo, image).unwrap();
            let fast_ref_result = fast_ref.run_all(1).unwrap();
            let mut fast = FastSim::from_pool(pool);
            assert_eq!(fast.run_all(1).unwrap().per_core, fast_ref_result.per_core, "round {round}: fast");
            for addr in probes() {
                assert_eq!(fast.memory().read_u32(addr), fast_ref.memory().read_u32(addr), "{addr:#x}");
            }
            drop(fast);

            let mut cycle_ref = CycleSim::new(topo, image).unwrap();
            let cycle_ref_result = cycle_ref.run(8).unwrap();
            let mut cycle = CycleSim::from_pool(pool);
            let r = cycle.run(8).unwrap();
            assert_eq!((r.cycles, &r.per_core), (cycle_ref_result.cycles, &cycle_ref_result.per_core));
            for addr in probes() {
                assert_eq!(cycle.memory().read_u32(addr), cycle_ref.memory().read_u32(addr), "{addr:#x}");
            }
        }
    }
    let total = bank.stats();
    assert_eq!((total.fresh, total.recycled), (1, 7), "one arena, eight jobs of two scenarios");
    assert_eq!(scenarios[0].1.stats().fresh + scenarios[1].1.stats().fresh, 1);
}
