//! Differential validation of the **adaptive epoch scheduler**: the
//! sharded cycle engine grants extended (and trims over-long)
//! synchronization windows wherever the quiescence predicate allows, and
//! the elided run step skips per-uop bookkeeping inside them (whole
//! straight runs at a time for a core alone in its domain) — all of which
//! must be *invisible* in results.
//!
//! Every guest here runs under both cadences (the fixed one through the
//! `CycleSim::run_fixed_epochs` test hook) and is pinned bit-identical
//! to the fixed-cadence full-scan reference (`run_naive`): per-core
//! `CycleStats`, makespan, deadlock flag, parked set, memory contents and
//! trap state — across `run` and `run_parallel` at 1/2/4/8 host threads,
//! with fresh and pooled cluster memory, on 2-group (512 cores) and
//! 4-group (1024 cores) topologies and, for the barrier, AMO and deadlock
//! guests, on single-group ones (16 and 256 cores: one domain, every
//! thread count clamped to one).

use std::sync::Arc;

use terasim_iss::Trap;
use terasim_riscv::{csr, Assembler, Image, Inst, Reg, Segment};
use terasim_terapool::{CycleResult, CycleSim, MemPool, SimArtifacts, Topology};

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// Pure-integer countdown: `addi`/`bnez` only — local by construction,
/// so the reachability pass marks the loop eligible for extended grants.
fn emit_spin(a: &mut Assembler, reg: Reg, iters: Reg) {
    let top = a.new_label();
    a.add(reg, iters, Reg::Zero);
    a.bind(top);
    a.addi(reg, reg, -1);
    a.bnez(reg, top);
}

/// Amoadd-counting barrier on an interleaved (group-0) counter word; the
/// last arrival wakes the parked cores.
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

/// One engine invocation over a prepared artifact set: `event` (`run`),
/// `parN` (`run_parallel` on `N` host threads), `fixedN` (the same on
/// the fixed base cadence, the `run_fixed_epochs` hook) or `naive`.
/// Returns the run outcome plus a memory sample taken *before* the sim
/// drops (a pooled job's arena goes back to the pool on drop).
fn run_one(
    arts: &Arc<SimArtifacts>,
    topo: Topology,
    cores: u32,
    mode: &str,
    pooled: bool,
    seed: &dyn Fn(&mut CycleSim),
) -> (Result<CycleResult, Trap>, Vec<u32>) {
    let mut sim = if pooled {
        CycleSim::from_pool(&MemPool::new(Arc::clone(arts)))
    } else {
        CycleSim::from_artifacts(Arc::clone(arts))
    };
    seed(&mut sim);
    let result = match mode {
        "event" => sim.run(cores),
        "naive" => sim.run_naive(cores),
        par => match par.strip_prefix("fixed") {
            Some(threads) => sim.run_fixed_epochs(cores, threads.parse().unwrap()),
            None => sim.run_parallel(cores, par.strip_prefix("par").unwrap().parse().unwrap()),
        },
    };
    // Low interleaved words plus a sequential-view sample per tile (the
    // same coverage the sharding differential suite uses).
    let mut words = Vec::with_capacity(0x1000 + 16 * topo.num_tiles() as usize);
    for addr in (0..0x4000u32).step_by(4) {
        words.push(sim.memory().read_u32(addr));
    }
    for tile in 0..topo.num_tiles() {
        for w in 0..16 {
            words.push(sim.memory().read_u32(Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + w * 4));
        }
    }
    (result, words)
}

fn assert_same(
    label: &str,
    got: &(Result<CycleResult, Trap>, Vec<u32>),
    want: &(Result<CycleResult, Trap>, Vec<u32>),
) {
    match (&got.0, &want.0) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.cycles, w.cycles, "{label}: makespan differs");
            assert_eq!(g.deadlocked, w.deadlocked, "{label}: deadlock flag differs");
            assert_eq!(g.parked, w.parked, "{label}: parked set differs");
            assert_eq!(g.budgeted, w.budgeted, "{label}: budgeted set differs");
            for (core, (a, b)) in g.per_core.iter().zip(&w.per_core).enumerate() {
                assert_eq!(a, b, "{label}: per-core stats differ on core {core}");
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: trap differs"),
        (g, w) => panic!("{label}: outcome class differs: {g:?} vs {w:?}"),
    }
    if let Some(i) = got.1.iter().zip(&want.1).position(|(a, b)| a != b) {
        panic!("{label}: memory sample differs at word {i}");
    }
}

/// Runs the guest under both cadences — `run`, sharded engine at
/// 1/2/4/8 host threads, pooled 1- and 4-thread legs — and pins
/// every outcome against the fixed-cadence `run_naive` reference.
/// `seed` prepares each simulator (memory contents, run knobs).
fn assert_cadence_invisible(cores: u32, image: &Image, seed: impl Fn(&mut CycleSim)) {
    assert_cadence_invisible_on(Topology::scaled(cores), cores, image, seed);
}

/// [`assert_cadence_invisible`] on an explicit (e.g. I$-shrunk) topology.
fn assert_cadence_invisible_on(topo: Topology, cores: u32, image: &Image, seed: impl Fn(&mut CycleSim)) {
    let arts = SimArtifacts::build(topo, image).unwrap();
    let reference = run_one(&arts, topo, cores, "naive", false, &seed);
    for mode in ["event", "par1", "par2", "par4", "par8", "fixed1", "fixed2", "fixed4", "fixed8"] {
        let got = run_one(&arts, topo, cores, mode, false, &seed);
        assert_same(mode, &got, &reference);
    }
    for mode in ["event", "par4", "fixed1", "fixed4"] {
        let got = run_one(&arts, topo, cores, mode, true, &seed);
        assert_same(&format!("{mode}/pooled"), &got, &reference);
    }
}

/// Barrier episodes with a hartid-dependent pure-int spin in front: the
/// skewed arrivals park most of the cluster, which is exactly where the
/// sole-active grant rule fires, and the spin bodies are elision-eligible.
#[test]
fn barrier_guest_cadence_invisible() {
    for cores in [16u32, 256, 512, 1024] {
        let image = image_of(|a| {
            a.csrr(Reg::T0, csr::MHARTID);
            for phase in 0..2 {
                a.andi(Reg::T1, Reg::T0, 63);
                a.addi(Reg::T1, Reg::T1, 16);
                emit_spin(a, Reg::T2, Reg::T1);
                emit_barrier(a, 0x40 + 4 * phase, cores);
            }
        });
        assert_cadence_invisible(cores, &image, |_| {});
    }
}

/// Contended cross-group AMOs: every core bumps four shared interleaved
/// counters (bank 0 lives in group 0 — remote for most of the cluster)
/// and publishes a per-core result word the memory sample covers.
#[test]
fn amo_guest_cadence_invisible() {
    for cores in [16u32, 256, 512, 1024] {
        let image = image_of(|a| {
            a.csrr(Reg::T0, csr::MHARTID);
            a.li(Reg::T2, 1);
            for i in 0..4 {
                a.li(Reg::T1, 0x100 + 4 * i);
                a.amoadd_w(Reg::A2, Reg::T2, Reg::T1);
            }
            a.slli(Reg::A0, Reg::T0, 2);
            a.add(Reg::A3, Reg::T0, Reg::A2);
            a.li(Reg::A4, 0x1000);
            a.add(Reg::A4, Reg::A4, Reg::A0);
            a.sw(Reg::A3, 0, Reg::A4);
        });
        assert_cadence_invisible(cores, &image, |_| {});
    }
}

/// `lr/sc` pairs and sub-word stores against remote-group banks — the
/// operand-capture paths of the deferral logic, now also crossed with
/// the hazard-window invalidation of the quiescent fast path.
#[test]
fn lrsc_subword_guest_cadence_invisible() {
    for cores in [512u32, 1024] {
        let image = image_of(|a| {
            a.csrr(Reg::T0, csr::MHARTID);
            a.slli(Reg::A0, Reg::T0, 2);
            a.li(Reg::A1, 0x2000);
            a.add(Reg::A1, Reg::A1, Reg::A0);
            a.inst(Inst::LrW { rd: Reg::T1, rs1: Reg::A1 });
            a.addi(Reg::T1, Reg::T1, 7);
            a.inst(Inst::ScW { rd: Reg::T2, rs1: Reg::A1, rs2: Reg::T1 });
            a.li(Reg::A2, 0x3800);
            a.add(Reg::A2, Reg::A2, Reg::A0);
            a.li(Reg::T3, 0xbeef);
            a.sh(Reg::T3, 0, Reg::A2);
            a.li(Reg::T4, 0x77);
            a.sb(Reg::T4, 3, Reg::A2);
        });
        assert_cadence_invisible(cores, &image, |sim| {
            for i in 0..0x600u32 {
                sim.memory().write_u32(0x2000 + 4 * i, i * 11);
            }
        });
    }
}

/// Guest deadlock: one hart per ~quarter of the cluster parks forever.
/// Extended grants must not let the coordinator sail past the point
/// where the deadlock is detected, and the parked set must match.
#[test]
fn deadlock_guest_cadence_invisible() {
    for cores in [16u32, 256, 512, 1024] {
        let image = image_of(|a| {
            a.csrr(Reg::T0, csr::MHARTID);
            a.li(Reg::T1, 237);
            let skip = a.new_label();
            a.inst(Inst::MulDiv {
                op: terasim_riscv::MulDivOp::Rem,
                rd: Reg::T2,
                rs1: Reg::T0,
                rs2: Reg::T1,
            });
            a.bnez(Reg::T2, skip);
            a.wfi();
            a.bind(skip);
        });
        assert_cadence_invisible(cores, &image, |_| {});
    }
}

/// Forced cross-traffic **mid-grant**: long elision-eligible spins earn
/// extended windows, then every core breaks quiescence with a remote AMO
/// and a remote store — the defer-triggered trim path, interleaved with
/// a barrier so parked/woken cores land inside other domains' grants.
#[test]
fn cross_traffic_mid_grant_cadence_invisible() {
    for cores in [512u32, 1024] {
        let image = image_of(|a| {
            a.csrr(Reg::T0, csr::MHARTID);
            a.slli(Reg::A0, Reg::T0, 2);
            a.li(Reg::T2, 1);
            for phase in 0..2i32 {
                // Hartid-skewed quiescent stretch (pure-int, local).
                a.andi(Reg::T1, Reg::T0, 127);
                a.addi(Reg::T1, Reg::T1, 64);
                emit_spin(a, Reg::T3, Reg::T1);
                // Cross-group AMO into a group-0 bank, mid-stretch…
                a.li(Reg::A1, 0x180 + 4 * phase);
                a.amoadd_w(Reg::A2, Reg::T2, Reg::A1);
                // …another quiescent stretch…
                a.li(Reg::T1, 48);
                emit_spin(a, Reg::T3, Reg::T1);
                // …then a remote result store and a barrier.
                a.add(Reg::A3, Reg::T0, Reg::A2);
                a.li(Reg::A4, 0x1000 + 0x800 * phase);
                a.add(Reg::A4, Reg::A4, Reg::A0);
                a.sw(Reg::A3, 0, Reg::A4);
                emit_barrier(a, 0x40 + 4 * phase, cores);
            }
        });
        assert_cadence_invisible(cores, &image, |_| {});
    }
}

/// A trapping guest (hart 0 hits `ebreak` mid-run while the rest spin):
/// the cadence must be invisible even on aborted runs — same trap, same
/// PC, same partial stats and memory, per engine mode.
#[test]
fn trap_state_identical_across_cadences() {
    let cores = 512u32;
    let topo = Topology::scaled(cores);
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        let others = a.new_label();
        a.bnez(Reg::T0, others);
        a.li(Reg::T1, 40);
        emit_spin(a, Reg::T2, Reg::T1);
        a.inst(Inst::Ebreak);
        a.bind(others);
        a.li(Reg::T1, 8);
        emit_spin(a, Reg::T2, Reg::T1);
    });
    let arts = SimArtifacts::build(topo, &image).unwrap();
    for (mode, fixed) in [("event", "fixed1"), ("par1", "fixed1"), ("par4", "fixed4")] {
        let f = run_one(&arts, topo, cores, fixed, false, &|_| {});
        let a_ = run_one(&arts, topo, cores, mode, false, &|_| {});
        assert!(a_.0.is_err(), "{mode}: guest must trap");
        assert_same(&format!("trap/{mode}"), &a_, &f);
    }
}

// --- Solo stretches -----------------------------------------------------
//
// A core that is its domain's only event before the window end is driven
// without the ready queue, and in extended windows it issues whole
// straight runs (consecutive elision-eligible uops up to the next control
// flow) at a time. The guests below aim at each rule of that path: the
// CSR cut in the run table, the per-uop I$ probe, the budget and
// window-end clips, the in-loop trim and the trap's cycle tag.

/// A straight run of `len` dependent ALU uops on `t4` — no memory, no
/// CSR, so it stays one run up to the next control-flow uop.
fn emit_straight(a: &mut Assembler, len: usize) {
    for i in 0..len {
        a.addi(Reg::T4, Reg::T4, i as i32 + 1);
    }
}

/// A countdown loop of `iters` iterations whose body is a straight run of
/// `body` uops plus the counter update and the back branch.
fn emit_run_loop(a: &mut Assembler, iters: i32, body: usize) {
    a.li(Reg::T1, iters);
    let top = a.new_label();
    a.bind(top);
    emit_straight(a, body);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
}

/// Only hart 0 works: everybody else exits at once, so hart 0 runs solo
/// in sole-active extended windows for the rest of the guest.
fn solo_image(body: impl FnOnce(&mut Assembler)) -> Image {
    image_of(|a| {
        let out = a.new_label();
        a.csrr(Reg::T0, csr::MHARTID);
        a.bnez(Reg::T0, out);
        body(a);
        a.bind(out);
    })
}

/// `csrr mcycle` inside a solo spin body: a run publishes `mcycle` only
/// at its end, so the run table must cut runs at every CSR access.
#[test]
fn solo_mcycle_read_mid_body() {
    let image = solo_image(|a| {
        a.li(Reg::T1, 150);
        let top = a.new_label();
        a.bind(top);
        emit_straight(a, 3);
        a.csrr(Reg::T5, csr::MCYCLE);
        a.add(Reg::T6, Reg::T6, Reg::T5);
        a.xor(Reg::A0, Reg::A0, Reg::T5);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
        a.sw(Reg::T6, 0x100, Reg::Zero);
        a.sw(Reg::A0, 0x104, Reg::Zero);
    });
    assert_cadence_invisible(512, &image, |_| {});
}

/// A spin body three I$ lines long on a two-set I$: lines one and three
/// of the body evict each other, so every iteration refills mid-run.
#[test]
fn solo_runs_refill_mid_run() {
    let mut topo = Topology::scaled(512);
    topo.icache_bytes = 2 * topo.icache_line;
    let line_insts = (topo.icache_line / 4) as usize;
    let image = solo_image(|a| {
        emit_run_loop(a, 40, 3 * line_insts);
        a.sw(Reg::T4, 0x100, Reg::Zero);
    });
    assert_cadence_invisible_on(topo, 512, &image, |_| {});
}

/// `max_instructions` tripping at every position of a 9-uop solo run.
#[test]
fn solo_budget_trips_mid_run() {
    let image = solo_image(|a| {
        emit_run_loop(a, 100, 7);
        a.sw(Reg::T4, 0x100, Reg::Zero);
    });
    for budget in 400..409 {
        assert_cadence_invisible(512, &image, |sim| sim.max_instructions = budget);
    }
}

/// A `jalr` into the middle of a run: the first pass enters the loop body
/// at its head, every later pass four uops in. The run table is per PC,
/// so the interior entry still issues the rest of the run whole.
#[test]
fn solo_jalr_into_run_interior() {
    let image = solo_image(|a| {
        a.li(Reg::T1, 60);
        let done = a.new_label();
        emit_straight(a, 4);
        let interior = a.pc();
        emit_straight(a, 5);
        a.addi(Reg::T1, Reg::T1, -1);
        a.beqz(Reg::T1, done);
        a.li(Reg::T5, interior as i32);
        a.inst(Inst::Jalr { rd: Reg::Zero, rs1: Reg::T5, offset: 0 });
        a.bind(done);
        a.sw(Reg::T4, 0x100, Reg::Zero);
    });
    assert_cadence_invisible(512, &image, |_| {});
}

/// Solo runs clipped at every offset from a window end. Hart 0 walks a
/// tail of never-fetched I$ lines alone; each line opens with a branch
/// hart 0 falls through, so each run is the rest of a line plus the
/// first probe of the next one. A group-0 waker publishes the wake-all
/// at a pad-shifted cycle, which trims the sole window there, and hart
/// 0's tile neighbours 1–7 wake at that boundary, jump into tail lines
/// 1–7 and take the branch out. Whoever probes a line first takes its
/// refill, so a run that overran the boundary would have taken the next
/// line's refill away from the neighbour that owns it.
#[test]
fn solo_runs_end_at_every_window_offset() {
    let topo = Topology::scaled(512);
    let line = topo.icache_line;
    let neighbours = topo.cores_per_tile as i32; // harts 1.. share hart 0's tile
    for (waker_spin, pad) in [40, 48].into_iter().flat_map(|s| (0..12).map(move |p| (s, p))) {
        let image = image_of(|a| {
            let (spinner, sleeper, wake, out) = (a.new_label(), a.new_label(), a.new_label(), a.new_label());
            a.csrr(Reg::T0, csr::MHARTID);
            a.beqz(Reg::T0, spinner);
            a.li(Reg::T1, neighbours);
            a.bltu(Reg::T0, Reg::T1, sleeper);
            a.beq(Reg::T0, Reg::T1, wake); // the first hart of tile 1
            a.j(out);

            a.bind(spinner);
            emit_run_loop(a, 10, 10);
            while a.pc() % line != 0 {
                a.nop();
            }
            let tail = a.pc();
            for _ in 0..24 {
                a.bnez(Reg::T0, out); // taken by a neighbour: one probe, then exit
                emit_straight(a, line as usize / 4 - 1);
            }
            a.j(out);

            // The jump target is ready before the `wfi`, and the jump
            // shares its line, so a neighbour probes its tail line three
            // cycles after it wakes.
            a.bind(sleeper);
            a.slli(Reg::T5, Reg::T0, line.trailing_zeros() as i32);
            a.li(Reg::T6, tail as i32);
            a.add(Reg::T5, Reg::T5, Reg::T6);
            while a.pc() % line == line - 4 {
                a.nop();
            }
            a.wfi();
            a.inst(Inst::Jalr { rd: Reg::Zero, rs1: Reg::T5, offset: 0 });

            a.bind(wake);
            a.li(Reg::T1, waker_spin);
            emit_spin(a, Reg::T2, Reg::T1);
            for _ in 0..pad {
                a.nop();
            }
            a.li(Reg::A5, Topology::CTRL_WAKE_ALL as i32);
            a.li(Reg::A2, 1);
            a.sw(Reg::A2, 0, Reg::A5);
            a.bind(out);
        });
        assert_cadence_invisible_on(topo, 512, &image, |_| {});
    }
}

/// A solo core defers a cross-group AMO right after a run and consumes
/// the result at once: the deferral must trim the sole window inside the
/// solo drive, so the boundary replay lands before the dependent `add`.
#[test]
fn solo_defer_after_run_trims() {
    let topo = Topology::scaled(512);
    let remote = 4 * topo.banks_per_group();
    let image = solo_image(|a| {
        a.li(Reg::T2, 1);
        for round in 0..4u32 {
            a.li(Reg::A1, (remote + 4 * round) as i32);
            emit_run_loop(a, 30 + round as i32, 5);
            a.amoadd_w(Reg::A2, Reg::T2, Reg::A1);
            a.add(Reg::A3, Reg::A2, Reg::T4);
            a.sw(Reg::A3, 0x200 + 4 * round as i32, Reg::Zero);
        }
    });
    assert_cadence_invisible_on(topo, 512, &image, |sim| {
        for round in 0..4 {
            sim.memory().write_u32(remote + 4 * round, 1000 * (round + 1));
        }
    });
}

/// Solo stretches that trap: hart 0 and hart 256 each spin alone in their
/// group and hit `ebreak` a few cycles apart, inside one extended
/// multi-active window. The reported trap must be the earlier one, so
/// each must carry the cycle it was raised at, not its drive's start.
#[test]
fn solo_traps_carry_their_cycle() {
    for (n0, n1) in [(61, 60), (62, 60), (60, 61)] {
        let image = image_of(|a| {
            let (second, out) = (a.new_label(), a.new_label());
            a.csrr(Reg::T0, csr::MHARTID);
            a.li(Reg::T1, 256);
            a.beq(Reg::T0, Reg::T1, second);
            a.bnez(Reg::T0, out);
            a.li(Reg::T1, n0);
            emit_spin(a, Reg::T2, Reg::T1);
            a.inst(Inst::Ebreak);
            a.bind(second);
            a.li(Reg::T1, n1);
            emit_spin(a, Reg::T2, Reg::T1);
            a.inst(Inst::Ebreak);
            a.bind(out);
        });
        assert_cadence_invisible(512, &image, |_| {});
    }
}
