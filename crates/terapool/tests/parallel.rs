//! Lockstep differential validation of the epoch-sharded cycle engine,
//! mostly on multi-group topologies (a few cases also on single-group
//! ones, where every thread count clamps to one domain):
//! [`CycleSim::run_parallel`] must be
//! **bit-identical** — per-core `CycleStats`, makespan, deadlock report
//! and memory contents — to [`CycleSim::run`] and to the full-scan
//! reference [`CycleSim::run_naive`], for every host thread count.
//!
//! The guests here are assembly-level and aimed at the sharding seams:
//! cross-group bank traffic (interleaved region), contended cross-group
//! atomics, the deferred wake-all barrier, `lr/sc` and sub-word stores to
//! remote banks, post-increment addressing, L2 mutation, partial-cluster
//! runs and guest deadlock — and at the seams of the owner-computes epoch
//! boundary: traps found by different owners, cancellation across
//! workers, a DMA copy racing cross-group traffic, gated wake delivery.

use terasim_iss::{MemError, Trap};
use terasim_riscv::{Assembler, Image, Reg, Segment};
use terasim_terapool::{CancelToken, CycleResult, CycleSim, FastSim, Topology};

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// Runs all three engines (plus `run_parallel` at several thread counts)
/// on identical operands and pins stats + memory bit-identical.
fn assert_three_way_identical(topo: Topology, image: &Image, cores: u32, seed_mem: impl Fn(&CycleSim)) {
    let run = |mode: &str| -> (CycleResult, CycleSim) {
        let mut sim = CycleSim::new(topo, image).unwrap();
        seed_mem(&sim);
        let result = match mode {
            "event" => sim.run(cores).unwrap(),
            "naive" => sim.run_naive(cores).unwrap(),
            "par1" => sim.run_parallel(cores, 1).unwrap(),
            "par2" => sim.run_parallel(cores, 2).unwrap(),
            "par4" => sim.run_parallel(cores, 4).unwrap(),
            "par8" => sim.run_parallel(cores, 8).unwrap(),
            _ => unreachable!(),
        };
        (result, sim)
    };

    let (reference, ref_sim) = run("event");
    for mode in ["naive", "par1", "par2", "par4", "par8"] {
        let (result, sim) = run(mode);
        assert_eq!(result.cycles, reference.cycles, "{mode}: makespan differs");
        assert_eq!(result.deadlocked, reference.deadlocked, "{mode}: deadlock flag differs");
        assert_eq!(result.parked, reference.parked, "{mode}: parked set differs");
        for (core, (got, want)) in result.per_core.iter().zip(&reference.per_core).enumerate() {
            assert_eq!(got, want, "{mode}: per-core stats differ on core {core}");
        }
        // L1 sweep over the low interleaved words plus a sequential-view
        // sample per tile (a full multi-MiB sweep per engine pair would
        // dominate the suite's runtime).
        for addr in (0..0x4000u32).step_by(4) {
            assert_eq!(
                sim.memory().read_u32(addr),
                ref_sim.memory().read_u32(addr),
                "{mode}: L1 word {addr:#x} differs"
            );
        }
        for tile in 0..topo.num_tiles() {
            for w in 0..16 {
                let addr = Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + w * 4;
                assert_eq!(
                    sim.memory().read_u32(addr),
                    ref_sim.memory().read_u32(addr),
                    "{mode}: seq word {addr:#x} differs"
                );
            }
        }
    }
}

/// Emits an amoadd-counting barrier on `counter_addr` (interleaved region
/// — bank 0 lives in group 0, so most arrivals are cross-group at scale).
fn emit_barrier(a: &mut Assembler, counter_addr: i32, cores: u32) {
    a.li(Reg::A1, counter_addr);
    a.li(Reg::A2, 1);
    a.amoadd_w(Reg::A3, Reg::A2, Reg::A1);
    a.li(Reg::A4, (cores - 1) as i32);
    let last = a.new_label();
    let done = a.new_label();
    a.beq(Reg::A3, Reg::A4, last);
    a.wfi();
    a.j(done);
    a.bind(last);
    a.li(Reg::A5, Topology::CTRL_WAKE_ALL as i32);
    a.sw(Reg::A2, 0, Reg::A5);
    a.bind(done);
}

/// Cross-group traffic mix: strided interleaved loads (remote banks),
/// contended cross-group AMOs, sequential-region (domain-local) stores,
/// and two barrier episodes — on both 2-group and 4-group topologies.
#[test]
fn cross_group_mix_bit_identical() {
    for cores in [512u32, 1024] {
        let topo = Topology::scaled(cores);
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            for phase in 0..2 {
                // Contended cross-group AMO on a group-0 bank.
                a.li(Reg::T1, 0x100 + 4 * phase);
                a.li(Reg::T2, 1);
                a.amoadd_w(Reg::Zero, Reg::T2, Reg::T1);
                // Strided interleaved loads: walks banks across groups.
                a.slli(Reg::A0, Reg::T0, 4);
                for _ in 0..8 {
                    a.lw(Reg::A2, 0x400, Reg::A0);
                    a.addi(Reg::A0, Reg::A0, 252);
                }
                // Domain-local scratch store in the sequential view, then
                // a result word back into the (possibly remote) low banks.
                a.li(Reg::A6, Topology::SEQ_BASE as i32);
                a.slli(Reg::A7, Reg::T0, 2);
                // Fold the tile offset in via the interleaved alias: each
                // core uses its own word of the low region.
                a.add(Reg::A6, Reg::A6, Reg::Zero);
                a.add(Reg::A4, Reg::T0, Reg::A2);
                a.li(Reg::S0, 0x800 + 0x1000 * phase);
                a.add(Reg::S0, Reg::S0, Reg::A7);
                a.sw(Reg::A4, 0, Reg::S0);
                emit_barrier(a, 0x40 + 4 * phase, cores);
            }
        });
        assert_three_way_identical(topo, &image, cores, |sim| {
            for i in 0..0x400u32 {
                sim.memory().write_u32(0x400 + 4 * i, 0x5000_0000 + 3 * i);
            }
        });
    }
}

/// `lr/sc` pairs, sub-word stores and post-increment addressing against
/// remote-group banks (the operand-capture paths of the deferral logic).
#[test]
fn remote_lrsc_subword_postinc_bit_identical() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        // Per-core word in the low interleaved region (group 0's banks,
        // remote for half the cluster at 2 groups).
        a.slli(Reg::A0, Reg::T0, 2);
        a.li(Reg::A1, 0x2000);
        a.add(Reg::A1, Reg::A1, Reg::A0);
        // lr/sc increment (uncontended: per-core address).
        a.inst(terasim_riscv::Inst::LrW { rd: Reg::T1, rs1: Reg::A1 });
        a.addi(Reg::T1, Reg::T1, 7);
        a.inst(terasim_riscv::Inst::ScW { rd: Reg::T2, rs1: Reg::A1, rs2: Reg::T1 });
        // Sub-word remote stores: two halves of a second word.
        a.li(Reg::A2, 0x4000);
        a.add(Reg::A2, Reg::A2, Reg::A0);
        a.li(Reg::T3, 0xbeef);
        a.sh(Reg::T3, 0, Reg::A2);
        a.li(Reg::T4, 0x77);
        a.sb(Reg::T4, 3, Reg::A2);
        // Post-increment walk over four remote words.
        a.li(Reg::A3, 0x6000);
        a.add(Reg::A3, Reg::A3, Reg::A0);
        for _ in 0..2 {
            a.p_lw(Reg::T5, 4, Reg::A3);
            a.add(Reg::T6, Reg::T6, Reg::T5);
        }
        a.p_sw(Reg::T6, 4, Reg::A3);
        // An L2 store (shared region, deferred) the sweep can check.
        a.li(Reg::S1, (Topology::L2_BASE + 0x10_0000) as i32);
        a.add(Reg::S1, Reg::S1, Reg::A0);
        a.sw(Reg::T6, 0, Reg::S1);
    });
    // The memory sweep below only covers L1; check one L2 word per core
    // separately via the per-engine sims inside the helper's closure? No:
    // L2 writes land in identical slots across engines; the L1 sweep plus
    // per-core stats already pin the interesting behaviour, and the e2e
    // suites compare L2-resident results at kernel level.
    assert_three_way_identical(topo, &image, cores, |sim| {
        for i in 0..0x1000u32 {
            sim.memory().write_u32(0x2000 + 4 * i, i * 11);
        }
    });
}

/// A dead remote load overwritten by an immediate register write (WAW):
/// the boundary replay must *not* clobber the newer value — the engines
/// must agree with each other and with the fast mode's kernel-order
/// semantics.
#[test]
fn dead_remote_load_does_not_clobber_waw_writer() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::A0, Reg::T0, 2);
        // Dead load from a group-0 bank (deferred for half the cluster)…
        a.li(Reg::A1, 0x2800);
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.lw(Reg::T1, 0, Reg::A1);
        // …immediately overwritten without reading it (WAW, no RAW stall).
        a.li(Reg::T1, 5);
        // Publish the surviving value into the core's own L1 word.
        a.li(Reg::A2, 0x1000);
        a.add(Reg::A2, Reg::A2, Reg::A0);
        a.sw(Reg::T1, 0, Reg::A2);
    });
    let seed = |sim: &CycleSim| {
        for i in 0..cores {
            sim.memory().write_u32(0x2800 + 4 * i, 0xdead_0000 + i);
        }
    };
    assert_three_way_identical(topo, &image, cores, seed);
    let mut cyc = CycleSim::new(topo, &image).unwrap();
    seed(&cyc);
    cyc.run_parallel(cores, 4).unwrap();
    let mut fast = FastSim::new(topo, &image).unwrap();
    for i in 0..cores {
        fast.memory().write_u32(0x2800 + 4 * i, 0xdead_0000 + i);
    }
    fast.run_all(2).unwrap();
    for core in 0..cores {
        let addr = 0x1000 + 4 * core;
        assert_eq!(cyc.memory().read_u32(addr), 5, "core {core}: replay clobbered the WAW writer");
        assert_eq!(cyc.memory().read_u32(addr), fast.memory().read_u32(addr), "core {core}: vs fast mode");
    }
}

/// A core's own L2 store must be visible to its immediately following
/// load: the shared regions defer wholesale, and the boundary replay's
/// `(cycle, core)` order forwards the store to the load. The cycle
/// engines must also agree with the fast mode on the architectural
/// result (the documented bit-identity for data-race-free guests).
#[test]
fn l2_store_forwards_to_same_core_load() {
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::A0, Reg::T0, 2);
        a.li(Reg::A1, (Topology::L2_BASE + 0x30_0000) as i32);
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.addi(Reg::T1, Reg::T0, 3);
        a.sw(Reg::T1, 0, Reg::A1); // L2 store (deferred)
        a.lw(Reg::T2, 0, Reg::A1); // reload right behind it: must see it
        a.li(Reg::A2, 0x1800);
        a.add(Reg::A2, Reg::A2, Reg::A0);
        a.sw(Reg::T2, 0, Reg::A2); // result into the core's own L1 word
    });
    for cores in [16u32, 256, 512] {
        let topo = Topology::scaled(cores);
        assert_three_way_identical(topo, &image, cores, |_| {});
        let mut cyc = CycleSim::new(topo, &image).unwrap();
        cyc.run_parallel(cores, 4).unwrap();
        let mut fast = FastSim::new(topo, &image).unwrap();
        fast.run_all(2).unwrap();
        for core in 0..cores {
            let addr = 0x1800 + 4 * core;
            assert_eq!(cyc.memory().read_u32(addr), core + 3, "{cores} cores, core {core}: stale L2 reload");
            assert_eq!(
                cyc.memory().read_u32(addr),
                fast.memory().read_u32(addr),
                "{cores} cores, core {core}: vs fast mode"
            );
        }
    }
}

/// Deferred requests issued in the run's *final* epoch — the last cores
/// store remotely and exit immediately — must still land: every engine
/// has to run one more boundary replay after the last core goes idle.
#[test]
fn final_epoch_deferred_stores_land() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::A0, Reg::T0, 2);
        // Remote-group L1 word (group-0 banks; cross-group for half the
        // cluster), then an L2 word (always deferred), then exit at once.
        a.li(Reg::A1, 0x3000);
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.addi(Reg::T1, Reg::T0, 9);
        a.sw(Reg::T1, 0, Reg::A1);
        a.li(Reg::A2, (Topology::L2_BASE + 0x20_0000) as i32);
        a.add(Reg::A2, Reg::A2, Reg::A0);
        a.xori(Reg::T2, Reg::T0, 0x55);
        a.sw(Reg::T2, 0, Reg::A2);
    });
    assert_three_way_identical(topo, &image, cores, |_| {});
    // And the values must actually be there, in every engine.
    for mode in 0..3 {
        let mut sim = CycleSim::new(topo, &image).unwrap();
        match mode {
            0 => sim.run(cores).unwrap(),
            1 => sim.run_naive(cores).unwrap(),
            _ => sim.run_parallel(cores, 4).unwrap(),
        };
        for core in 0..cores {
            assert_eq!(sim.memory().read_u32(0x3000 + 4 * core), core + 9, "mode {mode}, core {core}");
            assert_eq!(
                sim.memory().read_u32(Topology::L2_BASE + 0x20_0000 + 4 * core),
                core ^ 0x55,
                "mode {mode}, core {core}"
            );
        }
    }
}

/// Partial-cluster runs leave whole domains idle; the sharded engine must
/// agree with the sequential references on which cores ran and when.
#[test]
fn partial_cluster_bit_identical() {
    let topo = Topology::scaled(512);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.slli(Reg::A0, Reg::T0, 2);
        a.li(Reg::T1, 0);
        for _ in 0..8 {
            a.lw(Reg::A1, 0, Reg::A0);
            a.add(Reg::T1, Reg::T1, Reg::A1);
        }
        a.sw(Reg::T1, 0x600, Reg::A0);
    });
    for cores in [1u32, 96, 300] {
        assert_three_way_identical(topo, &image, cores, |sim| {
            for i in 0..0x100u32 {
                sim.memory().write_u32(4 * i, 7 * i + 1);
            }
        });
    }
}

/// Guest deadlock (parked cores with no waker) reports identically: same
/// flag, same parked set, same partial stats — across groups and thread
/// counts.
#[test]
fn deadlock_reported_identically_at_scale() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        // One hart per group parks forever (hart id multiple of 237 < 512
        // spreads across both groups: 0, 237, 474).
        a.li(Reg::T1, 237);
        let skip = a.new_label();
        a.inst(terasim_riscv::Inst::MulDiv {
            op: terasim_riscv::MulDivOp::Rem,
            rd: Reg::T2,
            rs1: Reg::T0,
            rs2: Reg::T1,
        });
        a.bnez(Reg::T2, skip);
        a.wfi();
        a.bind(skip);
    });
    assert_three_way_identical(topo, &image, cores, |_| {});
    let mut sim = CycleSim::new(topo, &image).unwrap();
    let result = sim.run_parallel(cores, 4).unwrap();
    assert!(result.deadlocked);
    assert_eq!(result.parked, vec![0, 237, 474]);
}

/// Emits a loop that counts `reg` down to zero (falls through at once
/// when it already is): `reg` iterations of host-invisible guest skew.
fn emit_countdown(a: &mut Assembler, reg: Reg) {
    let top = a.new_label();
    let done = a.new_label();
    a.bind(top);
    a.beqz(reg, done);
    a.addi(reg, reg, -1);
    a.j(top);
    a.bind(done);
}

/// Runs `image` on every engine — the full-scan reference, the serial
/// sharded driver and the threaded one at 2/4/8 host threads — and
/// returns the trap each must abort with, pinned identical.
fn trap_of(topo: Topology, image: &Image, cores: u32) -> Trap {
    let run = |mode: usize| {
        let mut sim = CycleSim::new(topo, image).unwrap();
        let outcome = match mode {
            0 => sim.run_naive(cores),
            1 => sim.run(cores),
            threads => sim.run_parallel(cores, threads),
        };
        outcome.expect_err("guest must trap")
    };
    let reference = run(0);
    for mode in [1usize, 2, 4, 8] {
        assert_eq!(run(mode), reference, "mode {mode}: trap differs from run_naive");
    }
    reference
}

/// A deferred request that traps when it is served — a cross-group load
/// from an unmapped address — aborts every engine with the identical
/// trap (faulting PC and error).
#[test]
fn unmapped_cross_group_access_traps_identically() {
    let cores = 1024u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.li(Reg::T1, 300); // a group-1 hart
        let done = a.new_label();
        a.bne(Reg::T0, Reg::T1, done);
        a.li(Reg::A0, 0x3000_0000);
        a.lw(Reg::A1, 0, Reg::A0);
        a.bind(done);
    });
    let trap = trap_of(topo, &image, cores);
    assert!(
        matches!(trap, Trap::Mem { err: MemError::Unmapped { addr: 0x3000_0000 }, .. }),
        "unexpected trap {trap:?}"
    );
}

/// Two domains trap in the same window, through requests two *different*
/// owners serve: hart 0 (group 0) loads misaligned from a group-1 bank,
/// hart 300 (group 1) loads from an unmapped address (shared-region
/// owner). The run must abort with the `(cycle, core)`-earlier of the
/// two, whichever owner found it — swept over the skew between them so
/// both orders occur.
#[test]
fn same_window_traps_of_two_owners_pick_the_global_minimum() {
    let cores = 1024u32;
    let topo = Topology::scaled(cores);
    let misaligned = 4 * topo.banks_per_group() + 2;
    let mut winners = std::collections::BTreeSet::new();
    for skew in 0..8 {
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            let second = a.new_label();
            let done = a.new_label();
            a.bnez(Reg::T0, second);
            for _ in 0..skew {
                a.nop();
            }
            a.li(Reg::A0, misaligned as i32);
            a.lw(Reg::A1, 0, Reg::A0);
            a.j(done);
            a.bind(second);
            a.li(Reg::T1, 300);
            a.bne(Reg::T0, Reg::T1, done);
            for _ in 0..4 {
                a.nop();
            }
            a.li(Reg::A0, 0x3000_0000);
            a.lw(Reg::A1, 0, Reg::A0);
            a.bind(done);
        });
        match trap_of(topo, &image, cores) {
            Trap::Mem { err: MemError::Misaligned { addr, .. }, .. } if addr == misaligned => {
                winners.insert("misaligned");
            }
            Trap::Mem { err: MemError::Unmapped { addr: 0x3000_0000 }, .. } => {
                winners.insert("unmapped");
            }
            other => panic!("skew {skew}: unexpected trap {other:?}"),
        }
    }
    assert_eq!(winners.len(), 2, "the skew sweep must let each owner's trap win once: {winners:?}");
}

/// A cancel token raised while the threaded driver is mid-run stops every
/// worker at the same boundary: the run returns (no worker left spinning
/// on a barrier) with `cancelled` set. The guest never exits on its own;
/// the canceller waits for guest-visible progress, so the token is raised
/// with all workers inside the window loop. The instruction budget only
/// bounds the test if cancellation were lost.
#[test]
fn cancel_mid_run_stops_every_worker() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let progress = 0x100u32;
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        a.li(Reg::T1, 1);
        a.li(Reg::A0, progress as i32);
        a.li(Reg::A1, 0x40);
        let forever = a.new_label();
        a.bind(forever);
        // Hart 0's store is group-local: visible to the host as soon as
        // it issues. Everyone keeps cross-group traffic in flight.
        a.sw(Reg::T1, 0, Reg::A0);
        a.amoadd_w(Reg::Zero, Reg::T1, Reg::A1);
        a.j(forever);
    });
    for threads in [1usize, 2, 4] {
        let mut sim = CycleSim::new(topo, &image).unwrap();
        sim.max_instructions = 100_000;
        let token = CancelToken::new();
        sim.set_cancel(token.clone());
        let mem = sim.memory().clone();
        let result = std::thread::scope(|scope| {
            scope.spawn(move || {
                while mem.read_u32(progress) == 0 {
                    std::thread::yield_now();
                }
                token.cancel();
            });
            sim.run_parallel(cores, threads).unwrap()
        });
        assert!(result.cancelled, "{threads} threads: run ended without observing the cancel");
        assert!(result.budgeted.is_empty(), "{threads} threads: cancel came after the budget ran out");
    }
}

/// A wake-all store and a DMA trigger in the same epochs as cross-group
/// L1 traffic into the DMA's destination: the copy is ordered against
/// every bank owner's effects, so the final image depends on the global
/// `(cycle, core)` order of the boundary — which every engine must
/// reproduce. (The guest is racy on purpose; the model's order makes it
/// deterministic.) Each round, hart 0 releases the sleeping cluster and
/// then programs and triggers a copy, while the released harts — after a
/// hart-dependent skew — store into and load from its destination.
#[test]
fn dma_and_wake_all_ordered_against_cross_group_traffic() {
    const SRC: u32 = Topology::L2_BASE + 0x10_0000;
    const ROUNDS: u32 = 3;
    /// 128 destination words per round, each window straddling a
    /// boundary between two groups' banks.
    const fn dst(round: u32) -> u32 {
        0x0f00 + 0x1000 * round
    }
    for cores in [16u32, 256, 512, 1024] {
        let topo = Topology::scaled(cores);
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.li(Reg::S0, 0);
            a.li(Reg::S1, 1);
            for round in 0..ROUNDS {
                let others = a.new_label();
                let next = a.new_label();
                a.li(Reg::S2, dst(round) as i32);
                a.bnez(Reg::T0, others);
                // Hart 0: release the sleepers, then program and trigger
                // the copy, then outlast the round.
                a.li(Reg::T1, Topology::CTRL_WAKE_ALL as i32);
                a.sw(Reg::S1, 0, Reg::T1);
                a.li(Reg::T1, Topology::CTRL_DMA_SRC as i32);
                a.li(Reg::T2, (SRC + 0x200 * round) as i32);
                a.sw(Reg::T2, 0, Reg::T1);
                a.sw(Reg::S2, 4, Reg::T1);
                a.li(Reg::T2, 0x200);
                a.sw(Reg::T2, 8, Reg::T1);
                a.li(Reg::T3, 100);
                emit_countdown(a, Reg::T3);
                a.j(next);
                a.bind(others);
                // One store per destination word and round (the harts
                // take turns by id), one load per hart and round; all
                // set up before sleeping so the race is tight.
                a.srli(Reg::T5, Reg::T0, 7);
                a.li(Reg::T6, ROUNDS as i32);
                a.remu(Reg::T5, Reg::T5, Reg::T6);
                a.li(Reg::T6, round as i32);
                a.slli(Reg::A0, Reg::T0, 2);
                a.andi(Reg::A0, Reg::A0, 0x1fc);
                a.add(Reg::A0, Reg::A0, Reg::S2);
                a.addi(Reg::A1, Reg::T0, 37);
                a.slli(Reg::A1, Reg::A1, 2);
                a.andi(Reg::A1, Reg::A1, 0x1fc);
                a.add(Reg::A1, Reg::A1, Reg::S2);
                a.addi(Reg::T3, Reg::T0, round as i32);
                a.andi(Reg::T3, Reg::T3, 7);
                a.wfi();
                emit_countdown(a, Reg::T3);
                let load = a.new_label();
                a.bne(Reg::T5, Reg::T6, load);
                a.sw(Reg::T0, 0, Reg::A0);
                a.bind(load);
                a.lw(Reg::T4, 0, Reg::A1);
                a.add(Reg::S0, Reg::S0, Reg::T4);
                a.bind(next);
            }
            // What the loads saw, folded into 64 order-independent sums.
            a.andi(Reg::A2, Reg::T0, 63);
            a.slli(Reg::A2, Reg::A2, 2);
            a.amoadd_w(Reg::Zero, Reg::S0, Reg::A2);
        });
        let seed = |sim: &CycleSim| {
            for w in 0..(0x200 * ROUNDS / 4) {
                sim.memory().write_u32(SRC + 4 * w, 0xd000_0000 + w);
            }
        };
        assert_three_way_identical(topo, &image, cores, seed);

        // The guest must actually race the copy in both directions, or
        // the differential above proves nothing about the ordering.
        let mut sim = CycleSim::new(topo, &image).unwrap();
        seed(&sim);
        let result = sim.run_parallel(cores, 2).unwrap();
        assert!(!result.deadlocked, "{cores} cores: sleepers left behind: {:?}", result.parked);
        let words = (0..ROUNDS).flat_map(|r| (0..128).map(move |w| dst(r) + 4 * w));
        let copied = words.filter(|&addr| sim.memory().read_u32(addr) >= 0xd000_0000).count();
        assert!(
            copied > 0 && copied < 128 * ROUNDS as usize,
            "{cores} cores: {copied} destination words end as DMA data"
        );
    }
}

/// Wake delivery is gated on the wake notification epoch. Sweeps the
/// waker's delay across the cycles at which the sleepers park, so that
/// parks, the publication and the delivery share a boundary for some
/// delays, with sleepers in both groups — against `run_naive`, which
/// polls every bit at every boundary.
#[test]
fn wake_published_in_the_boundary_the_sleepers_park_at() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    for delay in 0..12 {
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            let waker = a.new_label();
            let done = a.new_label();
            a.beqz(Reg::T0, waker);
            // Sleepers park at hart-dependent cycles.
            a.andi(Reg::T1, Reg::T0, 3);
            emit_countdown(a, Reg::T1);
            a.wfi();
            a.j(done);
            a.bind(waker);
            for _ in 0..delay {
                a.nop();
            }
            a.li(Reg::T2, Topology::CTRL_WAKE_ALL as i32);
            a.sw(Reg::T0, 0, Reg::T2);
            a.bind(done);
            a.slli(Reg::A0, Reg::T0, 2);
            a.sw(Reg::T0, 0x400, Reg::A0);
        });
        assert_three_way_identical(topo, &image, cores, |_| {});
    }
}

/// The other side of the gate: harts reaching `wfi` *after* a wake-all
/// find their bit pending and fall through without parking; when they
/// then park for real, no publication is outstanding and the unchanged
/// epoch lets the boundary skip them — until the second wake-all, which
/// must still reach every one of them.
#[test]
fn harts_parking_after_a_publication_are_woken_by_the_next() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        let waker = a.new_label();
        let done = a.new_label();
        a.beqz(Reg::T0, waker);
        // Past the first publication (hart 0's first instructions)…
        a.andi(Reg::T1, Reg::T0, 7);
        a.addi(Reg::T1, Reg::T1, 30);
        emit_countdown(a, Reg::T1);
        a.wfi(); // …so this one falls through on the pending bit,
        a.wfi(); // and this one parks with nothing outstanding.
        a.j(done);
        a.bind(waker);
        a.li(Reg::T2, Topology::CTRL_WAKE_ALL as i32);
        a.sw(Reg::T0, 0, Reg::T2);
        a.li(Reg::T3, 300);
        emit_countdown(a, Reg::T3);
        a.sw(Reg::T0, 0, Reg::T2);
        a.bind(done);
        a.slli(Reg::A0, Reg::T0, 2);
        a.sw(Reg::T0, 0x400, Reg::A0);
    });
    assert_three_way_identical(topo, &image, cores, |_| {});
    let mut sim = CycleSim::new(topo, &image).unwrap();
    let result = sim.run_parallel(cores, 2).unwrap();
    assert!(!result.deadlocked, "second wake-all missed {:?}", result.parked);
    let wfi: u64 = result.per_core.iter().map(|s| s.stall_wfi).sum();
    assert!(wfi > 0, "nobody parked: the gate was never exercised");
}

/// Why a sub-word store is a compare-and-swap on its word: harts `i` and
/// `i + n/2` land in different host-thread chunks of the fast engine and
/// each increment only their own halfword of one shared word, `lh`/`addi`/
/// `sh`, many times over. A store that loaded the word, merged its
/// halfword and stored the word back would let one thread's store undo
/// the other's increment while both threads run.
#[test]
fn halfword_increments_of_harts_on_different_host_threads_are_never_lost() {
    const CORES: u32 = 8;
    const HALF: u32 = CORES / 2;
    const ROUNDS: i32 = 30_000;
    const BASE: i32 = 0x100;
    let topo = Topology::scaled(CORES);
    let image = image_of(|a| {
        a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
        // Word `hart % HALF`, halfword `hart / HALF`.
        a.andi(Reg::A0, Reg::T0, (HALF - 1) as i32);
        a.slli(Reg::A0, Reg::A0, 2);
        a.srli(Reg::A1, Reg::T0, HALF.trailing_zeros() as i32);
        a.slli(Reg::A1, Reg::A1, 1);
        a.add(Reg::A0, Reg::A0, Reg::A1);
        a.li(Reg::T1, ROUNDS);
        let next = a.new_label();
        a.bind(next);
        a.lh(Reg::T2, BASE, Reg::A0);
        a.addi(Reg::T2, Reg::T2, 1);
        a.sh(Reg::T2, BASE, Reg::A0);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, next);
    });
    for threads in [1, 2, 4] {
        let mut sim = FastSim::new(topo, &image).unwrap();
        sim.run_all(threads).unwrap();
        for word in 0..HALF {
            let got = sim.memory().read_u32(BASE as u32 + 4 * word);
            let n = ROUNDS as u32;
            assert_eq!(got, n | n << 16, "{threads} threads, word {word}: halves {:#x}", got);
        }
    }
}
