//! Block-engine differentials: the fast engine's block loop (basic-block
//! dispatch plus lane-major SPMD groups across harts) must be
//! **bit-identical** — registers, memory, [`RunStats`], stop reason, trap
//! — to the per-instruction loop ([`resume_lowered`]; on a cluster, the
//! `FastSim::run_cores_per_instruction` test hook) and to the retained
//! seed `Cpu::execute` loop ([`resume_core`]), on every workload class:
//! straight-line code, loops, budget boundaries landing inside blocks,
//! traps at every position of a block, `jalr` into the middle of a block,
//! cycle-counter reads around blocks, per-address latency, trapping and
//! deadlocking fault guests, batches at every worker count (pooled and
//! unpooled), and SPMD groups that are forced to diverge or to trap by
//! per-hart values of `mhartid`.

use std::sync::Arc;

use terasim::experiments::{self, BatchConfig, JobSpec, SymbolScenario};
use terasim::faults;
use terasim::serve::{BatchRunner, JobError};
use terasim_iss::{
    resume_blocks, resume_core, resume_lowered, BlockProgram, Cpu, DenseMemory, MemError, Memory, Program,
    RunConfig, RunStats, Scoreboard, StopReason, Trap, UopProgram,
};
use terasim_kernels::{data, native, MmseKernel, Precision, C64};
use terasim_phy::{ChannelKind, Mimo, Modulation, TxGenerator};
use terasim_riscv::{csr, AmoOp, Assembler, Image, Inst, Reg, Segment};
use terasim_terapool::{ClusterResult, FastSim, MemPool, SimArtifacts, Topology};

// --- ISS level: seed interpreter vs per-instruction loop vs blocks -----

const TEXT: u32 = 0x8000_0000;

fn program_of(build: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new(TEXT);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(TEXT);
    image.push_segment(Segment::from_words(TEXT, &a.finish().unwrap()));
    Program::translate(&image).unwrap()
}

/// [`DenseMemory`] with an address-dependent load latency, so the
/// per-address refinement is observable in the cycle estimate.
struct Numa(DenseMemory);

impl Memory for Numa {
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        self.0.load(addr, size)
    }

    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        self.0.store(addr, size, value)
    }

    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError> {
        self.0.amo(op, addr, value)
    }

    fn latency(&self, addr: u32) -> u32 {
        1 + (addr >> 2) % 13
    }
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Seed,
    Lowered,
    Blocks,
}

struct IssRun {
    stop: Result<StopReason, Trap>,
    stats: RunStats,
    pc: u32,
    regs: [u32; 32],
    mem: Vec<u8>,
}

/// One hart's full final state under the chosen engine.
fn iss_run(program: &Program, hartid: u32, config: &RunConfig, engine: Engine) -> IssRun {
    let mut cpu = Cpu::new(hartid);
    let mut mem = Numa(DenseMemory::new(0, 0x1000));
    let mut sb = Scoreboard::new();
    let mut stats = RunStats::default();
    let table: UopProgram<Numa> = UopProgram::lower(program, &config.latency);
    let stop = match engine {
        Engine::Seed => resume_core(&mut cpu, program, &mut mem, config, &mut sb, &mut stats),
        Engine::Lowered => resume_lowered(&mut cpu, &table, &mut mem, config, &mut sb, &mut stats),
        Engine::Blocks => {
            let blocks = BlockProgram::build(program, &table);
            resume_blocks(&mut cpu, &blocks, &mut mem, config, &mut sb, &mut stats)
        }
    };
    let mut regs = [0u32; 32];
    for (r, slot) in Reg::ALL.into_iter().zip(regs.iter_mut()) {
        *slot = cpu.reg(r);
    }
    IssRun { stop, stats, pc: cpu.pc(), regs, mem: mem.0.read_bytes(0, 0x1000).to_vec() }
}

/// Three-way full-state differential over the given budgets, several
/// hart IDs and both latency modes.
fn differential_with(build: impl Fn(&mut Assembler) + Copy, budgets: &[u64]) {
    let program = program_of(build);
    for per_address_latency in [false, true] {
        for hartid in [0u32, 1, 3] {
            for &budget in budgets {
                let config =
                    RunConfig { max_instructions: budget, per_address_latency, ..RunConfig::default() };
                let seed = iss_run(&program, hartid, &config, Engine::Seed);
                for engine in [Engine::Lowered, Engine::Blocks] {
                    let got = iss_run(&program, hartid, &config, engine);
                    let tag = format!(
                        "hart {hartid}, budget {budget}, per-address {per_address_latency}, {engine:?}"
                    );
                    assert_eq!(seed.stop, got.stop, "stop/trap diverged ({tag})");
                    assert_eq!(seed.stats, got.stats, "RunStats diverged ({tag})");
                    assert_eq!(seed.pc, got.pc, "pc diverged ({tag})");
                    assert_eq!(seed.regs, got.regs, "registers diverged ({tag})");
                    assert_eq!(seed.mem, got.mem, "memory diverged ({tag})");
                }
            }
        }
    }
}

/// [`differential_with`] over a budget sweep that lands before, inside
/// and after the guests' blocks.
fn differential3(build: impl Fn(&mut Assembler) + Copy) {
    differential_with(build, &[u64::MAX, 100, 9, 6, 5, 3, 2, 1]);
}

/// Loops, address generation, loads/stores and compare-branches.
#[test]
fn alu_loop_guest_identical_across_all_three_engines() {
    differential3(|a| {
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 12);
        let top = a.new_label();
        a.bind(top);
        a.slli(Reg::A2, Reg::T0, 2);
        a.add(Reg::A0, Reg::A0, Reg::A2);
        a.sw(Reg::A0, 0x80, Reg::A2);
        a.lw(Reg::A3, 0x80, Reg::A2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
    });
}

/// Post-increment load + SIMD dot-product MAC chain (the PHY kernels'
/// inner loop) with a branch on `mhartid` so different harts take
/// different paths through the same block table.
#[test]
fn mac_chain_with_hartid_divergence_identical_across_all_three_engines() {
    differential3(|a| {
        a.csrr(Reg::T2, csr::MHARTID);
        a.li(Reg::A0, 0x100);
        a.li(Reg::A1, 0x200);
        a.addi(Reg::A6, Reg::T2, 3); // per-hart trip count
        let top = a.new_label();
        a.bind(top);
        a.p_lw(Reg::A2, 4, Reg::A0);
        a.p_lw(Reg::A3, 4, Reg::A1);
        a.vfcdotpex_c_s_h(Reg::T0, Reg::A2, Reg::A3);
        a.addi(Reg::A6, Reg::A6, -1);
        a.bnez(Reg::A6, top);
        a.sw(Reg::T0, 0x300, Reg::Zero);
    });
}

/// A guest that traps mid-block: the second load faults outside the
/// memory range. Partial state — including the committed prefix — must
/// be identical on all three engines.
#[test]
fn trapping_guest_partial_state_identical_across_all_three_engines() {
    differential3(|a| {
        a.li(Reg::A1, 0x100);
        a.lui(Reg::A2, 0x7000_0000u32 as i32);
        a.lw(Reg::A3, 0, Reg::A1); // fine
        a.lw(Reg::A4, 0, Reg::A2); // faults
        a.addi(Reg::A5, Reg::A4, 1); // never reached
    });
}

/// The straight-line body shared by the block-edge tests: eight memory
/// uops — any of which can be made to fault — with a post-increment and
/// store-after-load dependencies (RAW stalls, latency-refined loads).
fn eight_uop_body(a: &mut Assembler, faulting: Option<usize>) {
    let base = |k: usize| if faulting == Some(k) { Reg::A2 } else { Reg::A1 };
    a.lw(Reg::A3, 0, base(0));
    a.lw(Reg::A4, 4, base(1));
    a.p_lw(Reg::A5, 4, base(2));
    a.sw(Reg::A3, 0x40, base(3));
    a.lh(Reg::A6, 2, base(4));
    a.sh(Reg::A6, 0x44, base(5));
    a.lw(Reg::A7, 0x40, base(6));
    a.sw(Reg::A7, 0x48, base(7));
}

/// Budgets 1 … block length + 2 across a multi-uop block (three
/// prologue uops, then the ten-uop loop body), and into its second entry.
#[test]
fn budgets_across_a_block_identical() {
    let budgets: Vec<u64> = (1..=3 + 10 + 2).chain([20, 25, u64::MAX]).collect();
    differential_with(
        |a| {
            a.li(Reg::A1, 0x100);
            a.lui(Reg::A2, 0x7000_0000u32 as i32);
            a.li(Reg::T0, 3);
            let top = a.new_label();
            a.bind(top);
            eight_uop_body(a, None);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        },
        &budgets,
    );
}

/// A trap at each uop position of one block: the executed prefix is
/// retired, issued and published exactly as the per-instruction loop
/// leaves it — whether the block runs whole or as partial steps.
#[test]
fn trap_at_every_position_of_a_block_identical() {
    for k in 0..8 {
        let build = |a: &mut Assembler| {
            a.li(Reg::A1, 0x100);
            a.lui(Reg::A2, 0x7000_0000u32 as i32);
            a.csrr(Reg::T0, csr::MINSTRET); // leads the block under test
            eight_uop_body(a, Some(k));
        };
        differential_with(build, &[3 + k as u64, 4 + k as u64, u64::MAX]);
        let run = iss_run(&program_of(build), 0, &RunConfig::default(), Engine::Blocks);
        assert!(matches!(run.stop, Err(Trap::Mem { .. })), "position {k}: {:?}", run.stop);
        assert_eq!(run.stats.retired, 3 + k as u64, "position {k}");
    }
}

/// `jalr` into the middle of a block: the tail runs as partial steps,
/// and the loop back to the block's leader runs whole again.
#[test]
fn jalr_into_the_middle_of_a_block_identical() {
    differential3(|a| {
        a.li(Reg::T1, 3);
        let top = a.new_label();
        a.bind(top);
        // pc: top + 0 auipc, +4 addi, +8 jalr, +12 block leader, +16 target
        a.inst(Inst::Auipc { rd: Reg::T0, imm: 0 });
        a.addi(Reg::T0, Reg::T0, 16);
        a.inst(Inst::Jalr { rd: Reg::Ra, rs1: Reg::T0, offset: 0 });
        a.addi(Reg::A0, Reg::A0, 100); // skipped
        a.addi(Reg::A0, Reg::A0, 1); // jalr target
        a.lw(Reg::A3, 0x100, Reg::Zero);
        a.add(Reg::A0, Reg::A0, Reg::A3);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
        a.sw(Reg::Ra, 0x200, Reg::Zero);
    });
}

/// `csrr mcycle` / `minstret` at a loop head, in the middle of
/// straight-line code right after a load-use stall, and after the loop:
/// every read sees the estimate the per-instruction loop publishes.
#[test]
fn cycle_counter_reads_around_blocks_identical() {
    differential3(|a| {
        a.li(Reg::T0, 4);
        a.li(Reg::A1, 0x100);
        let top = a.new_label();
        a.bind(top);
        a.csrr(Reg::A0, csr::MCYCLE);
        a.lw(Reg::A3, 0, Reg::A1);
        a.add(Reg::A4, Reg::A3, Reg::A0); // stalls on the load
        a.csrr(Reg::A2, csr::MCYCLE);
        a.csrr(Reg::A5, csr::MINSTRET);
        a.sw(Reg::A2, 0x200, Reg::A1);
        a.sw(Reg::A5, 0x300, Reg::A1);
        a.addi(Reg::A1, Reg::A1, 4);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.csrr(Reg::A5, csr::MCYCLE);
        a.csrr(Reg::A6, csr::MINSTRET);
    });
}

// --- Cluster level: symbol batches at every worker count ---------------

/// Per-job fingerprint of a fast-mode symbol run.
fn symbol_key(o: &experiments::BatchOutcome) -> (u64, u64, bool) {
    (o.cycles, o.instructions, o.verified)
}

/// One symbol job on the per-instruction loop, composed from the layers'
/// public functions the way `SymbolScenario` composes it on the block
/// loop: the same kernel layout, operands (16-QAM, Rayleigh, 12 dB) and
/// bit-exact check against the native model.
fn per_instruction_symbol(scenario: &SymbolScenario, seed: u64) -> (u64, u64, bool) {
    let config = scenario.config();
    let arts = scenario.artifacts();
    let layout = MmseKernel::new(config.n, config.precision)
        .with_problems_per_core(config.nsc)
        .with_active_cores(1)
        .with_unroll(config.unroll)
        .layout(&arts.topology())
        .unwrap();
    let mut sim = FastSim::from_artifacts(Arc::clone(arts));
    let n = config.n as usize;
    let mimo = Mimo { n_tx: n, n_rx: n, modulation: Modulation::Qam16, channel: ChannelKind::Rayleigh };
    let mut generator = TxGenerator::new(mimo, 12.0, seed);
    let problems: Vec<(Vec<C64>, Vec<C64>, f64)> = (0..layout.problems)
        .map(|p| {
            let t = generator.next_transmission();
            let h: Vec<C64> = t.h.iter().map(|z| (*z).into()).collect();
            let y: Vec<C64> = t.y.iter().map(|z| (*z).into()).collect();
            data::write_problem(sim.memory(), &layout, p, &h, &y, t.sigma);
            (h, y, t.sigma)
        })
        .collect();
    let res = sim.run_cores_per_instruction(0..1, 1).unwrap();
    let verified = problems.iter().enumerate().all(|(p, (h, y, sigma))| {
        let got = data::read_xhat(sim.memory(), &layout, p as u32);
        let want = native::detect(layout.precision, n, h, y, *sigma);
        got.iter()
            .zip(&want)
            .all(|(a, b)| a[0].to_bits() == b[0].to_bits() && a[1].to_bits() == b[1].to_bits())
    });
    (res.cycles, res.total_instructions(), verified)
}

/// Block-loop symbol batches must be bit-identical to serial
/// per-instruction runs, at workers 1/2/4/7, pooled and unpooled — every
/// work-stealing schedule, every arena-recycling path.
#[test]
fn symbol_batches_match_the_per_instruction_loop_at_every_worker_count() {
    let config = BatchConfig { n: 4, precision: Precision::CDotp16, nsc: 4, seed: 77, unroll: 2 };
    let jobs = 8u32;
    let scenario = SymbolScenario::prepare(&config).unwrap();

    // Serial reference: the per-instruction loop, one fresh run per job.
    let serial: Vec<(u64, u64, bool)> = (0..jobs)
        .map(|j| per_instruction_symbol(&scenario, config.seed.wrapping_add(u64::from(j))))
        .collect();
    assert!(serial.iter().all(|&(_, _, verified)| verified), "reference symbols must verify");

    for workers in [1usize, 2, 4, 7] {
        for pooled in [false, true] {
            let runner = BatchRunner::with_workers(workers);
            let keys: Vec<(u64, u64, bool)> = if pooled {
                let pool = MemPool::new(Arc::clone(scenario.artifacts()));
                runner.run_pooled_in(&pool, (0..jobs).collect(), |ctx, j| {
                    scenario
                        .run_symbol_pooled(
                            ctx.pool().expect("pooled batch"),
                            config.seed.wrapping_add(u64::from(j)),
                        )
                        .map(|o| symbol_key(&o))
                        .map_err(|e| e.to_string())
                })
            } else {
                runner.run((0..jobs).collect(), |_ctx, j| {
                    scenario
                        .run(&JobSpec::seeded(config.seed.wrapping_add(u64::from(j))))
                        .map(|o| symbol_key(&o))
                        .map_err(|e| e.to_string())
                })
            }
            .into_iter()
            .collect::<Result<_, String>>()
            .unwrap();
            assert_eq!(
                keys, serial,
                "block-loop batch diverged from serial per-instruction runs ({workers} workers, pooled={pooled})"
            );
        }
    }
}

// --- Cluster level: fault guests, block loop vs per-instruction loop ----

/// A fast-mode run of harts `cores` on the block loop or, with
/// `per_instruction`, on the per-instruction reference loop.
fn run_cores(
    sim: &mut FastSim,
    per_instruction: bool,
    cores: std::ops::Range<u32>,
    host_threads: usize,
) -> Result<ClusterResult, Trap> {
    if per_instruction {
        sim.run_cores_per_instruction(cores, host_threads)
    } else {
        sim.run_cores(cores, host_threads)
    }
}

/// The trap and deadlock fault guests must produce the same [`JobError`]
/// — same trap PC, same parked-hart list — on both loops.
#[test]
fn fault_guests_surface_identically_on_both_loops() {
    let topo = Topology::scaled(8);

    let trap_arts = faults::trap_artifacts(topo);
    for per_instruction in [false, true] {
        let mut sim = FastSim::from_artifacts(Arc::clone(&trap_arts));
        let err = match run_cores(&mut sim, per_instruction, 0..1, 1) {
            Err(trap) => JobError::Trap(trap),
            Ok(res) => JobError::check_fast(&res, None).expect_err("trap guest must not complete"),
        };
        assert_eq!(err, JobError::Trap(Trap::IllegalFetch { pc: 0 }), "per_instruction={per_instruction}");
    }

    let deadlock_arts = faults::deadlock_artifacts(topo);
    let mut results: Vec<ClusterResult> = Vec::new();
    for per_instruction in [false, true] {
        let mut sim = FastSim::from_artifacts(Arc::clone(&deadlock_arts));
        let res = run_cores(&mut sim, per_instruction, 0..4, 1).expect("deadlock guest does not trap");
        assert!(res.deadlocked, "per_instruction={per_instruction}");
        assert_eq!(res.parked, vec![0, 1, 2, 3], "per_instruction={per_instruction}");
        results.push(res);
    }
    assert_eq!(results[0].per_core, results[1].per_core, "deadlock partial stats diverged");
    assert_eq!(results[0].cycles, results[1].cycles, "deadlock makespan diverged");
}

// --- Cluster level: SPMD convergence with forced divergence ------------

/// A guest built to stress convergence-group bookkeeping: every hart
/// starts on the same PC stream, then branches on `mhartid` parity into
/// different code paths with per-hart trip counts, so the initial
/// all-lanes group splits repeatedly before re-joining at the exit.
fn divergence_image() -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, csr::MHARTID);
    // Shared prologue: everyone converged.
    a.slli(Reg::A0, Reg::T0, 2);
    a.addi(Reg::A1, Reg::A0, 64);
    let odd = a.new_label();
    let join = a.new_label();
    a.andi(Reg::T1, Reg::T0, 1);
    a.bnez(Reg::T1, odd);
    // Even harts: fixed-count ALU loop.
    a.li(Reg::A2, 0);
    a.li(Reg::T2, 6);
    let etop = a.new_label();
    a.bind(etop);
    a.add(Reg::A2, Reg::A2, Reg::T2);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, etop);
    a.j(join);
    // Odd harts: per-hart trip count (hartid-dependent divergence depth).
    a.bind(odd);
    a.li(Reg::A2, 1);
    a.andi(Reg::T2, Reg::T0, 7);
    a.addi(Reg::T2, Reg::T2, 1);
    let otop = a.new_label();
    a.bind(otop);
    a.add(Reg::A2, Reg::A2, Reg::A2);
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, otop);
    a.bind(join);
    // Re-converged epilogue: per-hart result store.
    a.li(Reg::A3, 0x800);
    a.slli(Reg::A4, Reg::T0, 2);
    a.add(Reg::A3, Reg::A3, Reg::A4);
    a.sw(Reg::A2, 0, Reg::A3);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// SPMD convergence mode (the block loop, many harts per host chunk) vs
/// the per-instruction loop at 16 and 512 cores: identical per-hart
/// [`RunStats`], makespan and memory — including under budgets that cut
/// lanes off mid-divergence — for every guest schedule the group
/// split/re-queue logic produces.
#[test]
fn spmd_forced_divergence_identical_at_16_and_512_cores() {
    let image = divergence_image();
    for cores in [16u32, 512] {
        let topo = Topology::scaled(cores);
        let arts = SimArtifacts::build(topo, &image).unwrap();
        for budget in [u64::MAX, 1000, 37, 5] {
            let mut outs: Vec<ClusterResult> = Vec::new();
            let mut mems: Vec<Vec<u32>> = Vec::new();
            for per_instruction in [false, true] {
                let mut sim = FastSim::from_artifacts(Arc::clone(&arts));
                sim.set_config(RunConfig { max_instructions: budget, ..arts.fast_config().clone() });
                let res =
                    run_cores(&mut sim, per_instruction, 0..cores, 1).expect("divergence guest never traps");
                mems.push((0..cores).map(|h| sim.memory().read_u32(0x800 + 4 * h)).collect());
                outs.push(res);
            }
            let tag = format!("{cores} cores, budget {budget}");
            assert_eq!(outs[0].per_core, outs[1].per_core, "per-hart stats diverged ({tag})");
            assert_eq!(outs[0].cycles, outs[1].cycles, "makespan diverged ({tag})");
            assert_eq!(outs[0].deadlocked, outs[1].deadlocked, "deadlock flag diverged ({tag})");
            assert_eq!(mems[0], mems[1], "per-hart results diverged ({tag})");
        }
    }
}

// --- Cluster level: trap order of an SPMD group -------------------------

/// `dst` = `valid`, or `valid` + the unmapped base on hart `hart` alone —
/// branch-free, so the harts stay in one convergence group.
fn fault_on_hart(a: &mut Assembler, dst: Reg, valid: Reg, unmapped: Reg, hart: i32) {
    a.addi(Reg::T1, Reg::T0, -hart); // 0 on `hart`
    a.sltu(Reg::T1, Reg::Zero, Reg::T1); // 0 on `hart`, else 1
    a.addi(Reg::T1, Reg::T1, -1); // all ones on `hart`, else 0
    a.and(Reg::T1, Reg::T1, unmapped);
    a.add(dst, valid, Reg::T1);
}

const UNMAPPED: u32 = 0x3000_0000;

/// Harts 3 and 5 fault in one block — hart 5 at an earlier uop than hart
/// 3. With `split`, harts 0, 1 and 5 first branch away from the rest, so
/// hart 5 faults in a group that runs before hart 3's.
fn trap_order_image(split: bool) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, csr::MHARTID);
    a.slli(Reg::S1, Reg::T0, 2);
    a.li(Reg::S4, UNMAPPED as i32);
    fault_on_hart(&mut a, Reg::S2, Reg::S1, Reg::S4, 5);
    fault_on_hart(&mut a, Reg::S3, Reg::S1, Reg::S4, 3);
    if split {
        let late = a.new_label();
        a.addi(Reg::T1, Reg::T0, -5);
        a.sltu(Reg::T1, Reg::Zero, Reg::T1); // 0 on hart 5
        a.slti(Reg::T2, Reg::T0, 2); // 1 on harts 0, 1
        a.sub(Reg::T1, Reg::T1, Reg::T2); // 0 on harts 0, 1, 5
        a.bnez(Reg::T1, late);
        a.lw(Reg::A4, 0, Reg::S2); // faults on hart 5
        a.ecall();
        a.bind(late);
        a.lw(Reg::A3, 0x100, Reg::S1);
        a.addi(Reg::A5, Reg::A3, 1);
        a.lw(Reg::A6, 0, Reg::S3); // faults on hart 3
    } else {
        a.lw(Reg::A3, 0x100, Reg::S1);
        a.lw(Reg::A4, 0, Reg::S2); // faults on hart 5
        a.addi(Reg::A5, Reg::A3, 1);
        a.lw(Reg::A6, 0, Reg::S3); // faults on hart 3
    }
    a.sw(Reg::A6, 0x200, Reg::S1);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// Lanes that trap at different positions of one block (and in different
/// groups) report the lowest-indexed trapping lane — hart 3, although hart
/// 5's faulting uop comes first — exactly as the per-instruction loop,
/// which runs the harts one after another, at one and two host threads.
#[test]
fn spmd_group_traps_report_the_lowest_lane_like_the_per_instruction_loop() {
    let topo = Topology::scaled(16);
    for split in [false, true] {
        let arts = SimArtifacts::build(topo, &trap_order_image(split)).unwrap();
        for host_threads in [1, 2] {
            let traps: Vec<Trap> = [false, true]
                .into_iter()
                .map(|per_instruction| {
                    let mut sim = FastSim::from_artifacts(Arc::clone(&arts));
                    run_cores(&mut sim, per_instruction, 0..16, host_threads)
                        .expect_err("harts 3 and 5 fault")
                })
                .collect();
            let tag = format!("split {split}, {host_threads} host threads");
            assert_eq!(traps[0], traps[1], "the two loops report different traps ({tag})");
            assert!(
                matches!(traps[0], Trap::Mem { err: MemError::Unmapped { addr }, .. } if addr == UNMAPPED + 12),
                "not hart 3's trap ({tag}): {:?}",
                traps[0]
            );
        }
    }
}
