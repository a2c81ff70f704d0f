//! Basic-block dispatch: the fast engine's optimized loop.
//!
//! The pre-lowered [`UopProgram`] already removed per-step decoding; what
//! the per-instruction loop of [`resume_lowered`](crate::resume_lowered)
//! still pays on every instruction is *accounting* — a budget test, a
//! table fetch, the `retired` and class-histogram bumps, a control-flow
//! check and the `mcycle` publication. All of them are facts about a
//! basic block, so [`BlockProgram::build`] cuts the lowered program into
//! blocks once per artifact set and [`resume_blocks`] pays them once per
//! block:
//!
//! - **Leaders** are the entry, every static branch or `jal` target, the
//!   instruction after every block end, and every CSR instruction (so a
//!   `csrr mcycle` / `minstret` always observes the estimate the
//!   per-instruction loop would have published). A block **ends** after
//!   control flow, `ecall`, `ebreak` or `wfi`, and is at most
//!   [`u8::MAX`] instructions long (its class histogram counts in bytes).
//! - **Per block** the loop does one PC→block lookup and one budget test
//!   (`remaining ≥ len`), a straight run of kernel + scoreboard issue per
//!   uop (the per-address latency branch is hoisted out by monomorphizing
//!   on it), then one `retired` + histogram fold, one taken-branch check
//!   on the terminator and one `mcycle` publication.
//! - **Partial blocks fall back to the per-instruction step**: a block
//!   entered mid-way (a `jalr` or resume target that is not a leader) or
//!   straddling the budget boundary runs one uop at a time with exactly
//!   the reference accounting; a uop that traps at position *k* folds the
//!   executed prefix, publishes `mcycle` and returns the trap.
//!
//! Registers, memory, [`RunStats`], stop reason and trap state are
//! therefore bit-identical to `resume_lowered` and to `Cpu::execute`
//! (pinned by `tests/fusion.rs` and the lockstep tests below).
//!
//! [`resume_spmd`] runs the same blocks across a *group* of lanes (harts)
//! converged on one PC, **lane-major**: each lane executes the whole block
//! before the next lane starts, so one lane's `Cpu`, `Scoreboard` and
//! `RunStats` stay in L1 across the block while the lookup and budget test
//! are still paid once per group. Divergence is checked once, at the
//! block's terminator; a trap reports the lowest-indexed trapping lane,
//! exactly what running the lanes one after another would report.

use std::collections::VecDeque;

use terasim_riscv::Inst;

use crate::cpu::{Cpu, Outcome, Trap};
use crate::mem::Memory;
use crate::program::Program;
use crate::runner::{finalize, RunConfig, RunStats, StopReason};
use crate::timing::{InstClass, Scoreboard};
use crate::uop::{Kernel, Uop, UopProgram};

/// Retired-instruction counts of one block, by [`InstClass::index`].
type Histogram = [u8; InstClass::COUNT];

/// One text slot: what the block loop touches for every executed uop.
struct Slot<M> {
    exec: Kernel<M>,
    uop: Uop,
    srcs: [u8; 3],
    dst: u8,
    post_inc: u8,
    /// Static result latency (loads: before per-address refinement).
    lat: u32,
    /// [`InstClass::index`] of the uop (per-instruction accounting).
    class: u8,
    /// Length of the block this slot leads; 0 when it leads none.
    block_len: u8,
    /// A data load: its effective address is `rs1`, plus `imm` unless
    /// `ea_no_offset` (post-increment).
    is_load: bool,
    ea_no_offset: bool,
}

/// The kernel of an undecodable text slot: fetching it is the trap.
fn illegal_fetch<M>(cpu: &mut Cpu, _: Uop, _: &mut M) -> Result<Outcome, Trap> {
    Err(Trap::IllegalFetch { pc: cpu.pc() })
}

/// The basic-block table: the lowered program in text order, each block a
/// contiguous run of slots headed by its length and class histogram.
///
/// Built once per scenario (cluster drivers cache it in their shared
/// artifact set) by [`BlockProgram::build`]; immutable afterwards and
/// shareable across host threads like the table it derives from.
pub struct BlockProgram<M> {
    entry: u32,
    text_base: u32,
    slots: Vec<Slot<M>>,
    /// Per slot: the histogram of the block it leads (zero elsewhere).
    hists: Vec<Histogram>,
}

impl<M> std::fmt::Debug for BlockProgram<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockProgram")
            .field("entry", &self.entry)
            .field("len", &self.slots.len())
            .field("blocks", &self.blocks().count())
            .finish()
    }
}

// Same sharing contract as `UopProgram`: plain function pointers and POD
// records only, immutable after construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BlockProgram<crate::mem::DenseMemory>>();
};

/// A straight-line run the loop executes with one round of accounting:
/// a whole block (with its histogram) or a single partial-block step.
struct Run<'a, M> {
    body: &'a [Slot<M>],
    hist: Option<&'a Histogram>,
}

impl<M> Clone for Run<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Run<'_, M> {}

impl<M: Memory> BlockProgram<M> {
    /// Cuts an already-lowered table into basic blocks (leader and end
    /// rules in the module docs).
    pub fn build(program: &Program, table: &UopProgram<M>) -> Self {
        let len = program.len();
        let base = program.text_base();
        let pc_of = |i: usize| base.wrapping_add(4 * i as u32);
        let index_of =
            |pc: u32| Some((pc.wrapping_sub(base) / 4) as usize).filter(|&i| pc & 3 == 0 && i < len);

        let mut leader = vec![false; len];
        if let Some(i) = index_of(program.entry()) {
            leader[i] = true;
        }
        for i in 0..len {
            let Some(inst) = program.fetch(pc_of(i)) else {
                continue;
            };
            if let Inst::Branch { offset, .. } | Inst::Jal { offset, .. } = inst {
                if let Some(t) = index_of(pc_of(i).wrapping_add(offset as u32)) {
                    leader[t] = true;
                }
            }
            if matches!(inst, Inst::Csr { .. }) {
                leader[i] = true;
            }
            let ends = inst.is_control_flow() || matches!(inst, Inst::Ecall | Inst::Ebreak | Inst::Wfi);
            if ends && i + 1 < len {
                leader[i + 1] = true;
            }
        }

        let mut slots: Vec<Slot<M>> = (0..len)
            .map(|i| match table.fetch(pc_of(i)) {
                Some(lu) => {
                    let m = &lu.meta;
                    debug_assert!(!m.is_load || (m.ea_base, m.ea_offset) == (lu.uop.rs1, lu.uop.imm));
                    Slot {
                        exec: lu.exec,
                        uop: lu.uop,
                        srcs: m.srcs,
                        dst: m.dst,
                        post_inc: m.post_inc,
                        lat: m.result_lat as u32,
                        class: m.class.index() as u8,
                        block_len: 0,
                        is_load: m.is_load,
                        ea_no_offset: m.ea_no_offset,
                    }
                }
                // Never retires, so its class is never counted.
                None => Slot {
                    exec: illegal_fetch::<M>,
                    uop: Uop::new(),
                    srcs: [0; 3],
                    dst: crate::uop::NO_REG,
                    post_inc: crate::uop::NO_REG,
                    lat: 0,
                    class: 0,
                    block_len: 0,
                    is_load: false,
                    ea_no_offset: true,
                },
            })
            .collect();

        let mut hists = vec![[0u8; InstClass::COUNT]; len];
        let mut start = 0;
        while start < len {
            let mut end = start + 1;
            while end < len && !leader[end] && end - start < usize::from(u8::MAX) {
                end += 1;
            }
            slots[start].block_len = (end - start) as u8;
            for s in &slots[start..end] {
                hists[start][usize::from(s.class)] += 1;
            }
            start = end;
        }

        Self { entry: program.entry(), text_base: base, slots, hists }
    }
}

impl<M> BlockProgram<M> {
    /// Every block as `(leader pc, length)`, in text order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.block_len > 0)
            .map(|(i, s)| (self.text_base.wrapping_add(4 * i as u32), usize::from(s.block_len)))
    }

    /// What runs next at `pc` with `rem ≥ 1` instructions of budget left:
    /// the block `pc` leads when it fits the budget, the single uop at
    /// `pc` otherwise (`None` = illegal fetch).
    #[inline(always)]
    fn run_at(&self, pc: u32, rem: u64) -> Option<Run<'_, M>> {
        if pc & 3 != 0 {
            return None;
        }
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        let len = usize::from(self.slots.get(idx)?.block_len);
        Some(if len != 0 && rem >= len as u64 {
            Run { body: &self.slots[idx..idx + len], hist: Some(&self.hists[idx]) }
        } else {
            Run { body: &self.slots[idx..=idx], hist: None }
        })
    }
}

/// Per-instruction accounting of `body` (partial steps, trapped prefixes).
fn fold_each<M>(stats: &mut RunStats, body: &[Slot<M>]) {
    stats.retired += body.len() as u64;
    for s in body {
        stats.class_counts[usize::from(s.class)] += 1;
    }
}

/// Accounting of a trap right after `prefix`, whose issues left the
/// run's clock at `next`: the prefix is issued, retired and its estimate
/// published, as the per-instruction loop leaves them.
#[cold]
fn trapped<M>(
    cpu: &mut Cpu,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    prefix: &[Slot<M>],
    next: u64,
    trap: Trap,
) -> Trap {
    sb.end_run(next, prefix.len() as u64);
    fold_each(stats, prefix);
    cpu.set_mcycle(sb.cycles());
    trap
}

/// Executes one straight-line run on one hart with a single round of
/// accounting; returns the outcome of its last uop (every earlier one
/// falls through by construction).
#[inline(always)]
fn run_straight<M: Memory, const PER_ADDR: bool>(
    cpu: &mut Cpu,
    mem: &mut M,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    config: &RunConfig,
    run: Run<'_, M>,
) -> Result<Outcome, Trap> {
    let start = cpu.pc();
    let mut out = Outcome::Continue;
    let mut next = sb.cycles();
    for (k, s) in run.body.iter().enumerate() {
        // The effective address is read before execution (post-increment
        // bases change), as in the per-instruction loop.
        let latency = if PER_ADDR && s.is_load {
            let base = cpu.reg_raw(s.uop.rs1);
            mem.latency(if s.ea_no_offset { base } else { base.wrapping_add(s.uop.imm as u32) })
        } else {
            s.lat
        };
        out = match (s.exec)(cpu, s.uop, mem) {
            Ok(out) => out,
            Err(trap) => return Err(trapped(cpu, sb, stats, &run.body[..k], next, trap)),
        };
        next = sb.issue_in_run(next, s.srcs, s.dst, s.post_inc, latency);
    }
    sb.end_run(next, run.body.len() as u64);
    match run.hist {
        Some(hist) => {
            stats.retired += run.body.len() as u64;
            for (count, &n) in stats.class_counts.iter_mut().zip(hist) {
                *count += u64::from(n);
            }
        }
        None => fold_each(stats, run.body),
    }
    // Only the last uop can redirect, so "left the fall-through" is
    // exactly "a taken control-flow terminator".
    if cpu.pc() != start.wrapping_add(4 * run.body.len() as u32) {
        sb.bubble(config.latency.taken_branch_penalty);
        stats.branch_bubbles += u64::from(config.latency.taken_branch_penalty);
    }
    cpu.set_mcycle(sb.cycles());
    Ok(out)
}

/// Finalizes the hart's statistics when `out` stops it.
#[inline(always)]
fn stop_on(out: Outcome, cpu: &mut Cpu, sb: &Scoreboard, stats: &mut RunStats) -> Option<StopReason> {
    let stop = match out {
        Outcome::Continue => return None,
        Outcome::Exit { code } => StopReason::Exit { code },
        Outcome::Wfi => StopReason::Wfi,
    };
    finalize(stats, sb, cpu, stop);
    Some(stop)
}

// --- Drivers -----------------------------------------------------------

/// As [`resume_lowered`](crate::resume_lowered) over the block table:
/// bit-identical results and statistics, with the loop's accounting paid
/// once per block instead of once per instruction.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest, with the executed prefix
/// of the trapping block accounted exactly as the per-instruction loop.
pub fn resume_blocks<M: Memory>(
    cpu: &mut Cpu,
    bp: &BlockProgram<M>,
    mem: &mut M,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
) -> Result<StopReason, Trap> {
    if config.per_address_latency {
        resume_impl::<M, true>(cpu, bp, mem, config, sb, stats)
    } else {
        resume_impl::<M, false>(cpu, bp, mem, config, sb, stats)
    }
}

fn resume_impl<M: Memory, const PER_ADDR: bool>(
    cpu: &mut Cpu,
    bp: &BlockProgram<M>,
    mem: &mut M,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
) -> Result<StopReason, Trap> {
    if cpu.pc() == 0 {
        cpu.set_pc(bp.entry);
    }
    loop {
        let rem = config.max_instructions.saturating_sub(stats.retired);
        if rem == 0 {
            finalize(stats, sb, cpu, StopReason::Budget);
            return Ok(StopReason::Budget);
        }
        let pc = cpu.pc();
        let run = bp.run_at(pc, rem).ok_or(Trap::IllegalFetch { pc })?;
        let out = run_straight::<M, PER_ADDR>(cpu, mem, sb, stats, config, run)?;
        if let Some(stop) = stop_on(out, cpu, sb, stats) {
            return Ok(stop);
        }
    }
}

/// One SPMD lane: the per-hart mutable state [`resume_spmd`] advances.
#[derive(Debug)]
pub struct Lane<'a, M> {
    /// Architectural state of the lane's hart.
    pub cpu: &'a mut Cpu,
    /// The lane's private memory view.
    pub mem: &'a mut M,
    /// The lane's issue scoreboard.
    pub sb: &'a mut Scoreboard,
    /// The lane's accumulated run statistics.
    pub stats: &'a mut RunStats,
}

/// Runs a set of lanes to their next stop (exit, `wfi` park, budget),
/// executing converged lanes as a group: lanes at the same PC share one
/// block lookup and budget test per block and run the block lane-major,
/// with per-lane timing and statistics accounted exactly as the per-core
/// loop would. Lanes whose terminators resolve differently split into
/// subgroups (singletons continue through [`resume_blocks`]); every result
/// is bit-identical to running each lane alone.
///
/// Returns one [`StopReason`] per lane, in input order.
///
/// # Errors
///
/// Returns the [`Trap`] of the lowest-indexed trapping lane — the trap
/// running the lanes one after another in input order reports. Lanes
/// below it still run to their stop; lanes above it are abandoned, as
/// cluster drivers abandon a trapped run.
pub fn resume_spmd<M: Memory>(
    lanes: &mut [Lane<'_, M>],
    bp: &BlockProgram<M>,
    config: &RunConfig,
) -> Result<Vec<StopReason>, Trap> {
    if config.per_address_latency {
        spmd_impl::<M, true>(lanes, bp, config)
    } else {
        spmd_impl::<M, false>(lanes, bp, config)
    }
}

fn spmd_impl<M: Memory, const PER_ADDR: bool>(
    lanes: &mut [Lane<'_, M>],
    bp: &BlockProgram<M>,
    config: &RunConfig,
) -> Result<Vec<StopReason>, Trap> {
    let mut stops: Vec<StopReason> = vec![StopReason::Budget; lanes.len()];
    for lane in lanes.iter_mut() {
        if lane.cpu.pc() == 0 {
            lane.cpu.set_pc(bp.entry);
        }
    }
    let mut work: VecDeque<Vec<usize>> = VecDeque::new();
    split_by_pc(lanes, 0..lanes.len(), &mut work);

    // The lowest-indexed trap so far; lanes at or above it never run again.
    let mut trap: Option<(usize, Trap)> = None;
    while let Some(mut group) = work.pop_front() {
        if let Some((t, _)) = trap {
            group.retain(|&i| i < t);
        }
        match group.len() {
            0 => {}
            1 => {
                let i = group[0];
                let l = &mut lanes[i];
                match resume_impl::<M, PER_ADDR>(l.cpu, bp, l.mem, config, l.sb, l.stats) {
                    Ok(stop) => stops[i] = stop,
                    Err(t) => trap = Some((i, t)),
                }
            }
            _ => run_group::<M, PER_ADDR>(lanes, group, bp, config, &mut stops, &mut work, &mut trap),
        }
    }
    match trap {
        Some((_, t)) => Err(t),
        None => Ok(stops),
    }
}

/// Partitions `members` by PC into convergence groups, queued in order of
/// their lowest lane.
fn split_by_pc<M>(
    lanes: &[Lane<'_, M>],
    members: impl IntoIterator<Item = usize>,
    work: &mut VecDeque<Vec<usize>>,
) {
    let mut parts: Vec<(u32, Vec<usize>)> = Vec::new();
    for i in members {
        let pc = lanes[i].cpu.pc();
        match parts.iter_mut().find(|(q, _)| *q == pc) {
            Some((_, v)) => v.push(i),
            None => parts.push((pc, vec![i])),
        }
    }
    parts.sort_by_key(|(_, v)| v[0]);
    work.extend(parts.into_iter().map(|(_, v)| v));
}

/// Lane-major execution of one convergence group (lanes ascending) until
/// it stops, splits, or traps.
fn run_group<M: Memory, const PER_ADDR: bool>(
    lanes: &mut [Lane<'_, M>],
    mut group: Vec<usize>,
    bp: &BlockProgram<M>,
    config: &RunConfig,
    stops: &mut [StopReason],
    work: &mut VecDeque<Vec<usize>>,
    trap: &mut Option<(usize, Trap)>,
) {
    let mut pc = lanes[group[0]].cpu.pc();
    // Lanes of a group retire the same instructions, so the smallest
    // remaining budget bounds every lane.
    let mut rem: u64 = group
        .iter()
        .map(|&i| config.max_instructions.saturating_sub(lanes[i].stats.retired))
        .min()
        .unwrap_or(0);

    loop {
        if rem == 0 {
            // A lane is at its budget: each lane finishes alone, its own
            // boundary exact.
            for &i in &group {
                let l = &mut lanes[i];
                match resume_impl::<M, PER_ADDR>(l.cpu, bp, l.mem, config, l.sb, l.stats) {
                    Ok(stop) => stops[i] = stop,
                    Err(t) => {
                        *trap = Some((i, t));
                        return;
                    }
                }
            }
            return;
        }
        let Some(run) = bp.run_at(pc, rem) else {
            *trap = Some((group[0], Trap::IllegalFetch { pc }));
            return;
        };

        let mut next: Option<u32> = None;
        let mut diverged = false;
        let mut stopped = false;
        for pos in 0..group.len() {
            let i = group[pos];
            let l = &mut lanes[i];
            match run_straight::<M, PER_ADDR>(l.cpu, l.mem, l.sb, l.stats, config, run) {
                Ok(out) => {
                    // The block is the same for every lane, so an `ecall`
                    // or `wfi` terminator stops every lane.
                    if let Some(stop) = stop_on(out, l.cpu, l.sb, l.stats) {
                        stops[i] = stop;
                        stopped = true;
                    }
                }
                Err(t) => {
                    *trap = Some((i, t));
                    group.truncate(pos);
                    break;
                }
            }
            let end = l.cpu.pc();
            diverged |= *next.get_or_insert(end) != end;
        }
        let Some(next) = next.filter(|_| !stopped) else {
            return;
        };
        if diverged {
            split_by_pc(lanes, group, work);
            return;
        }
        rem -= run.body.len() as u64;
        pc = next;
    }
}

#[cfg(test)]
mod tests {
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    use super::*;
    use crate::mem::DenseMemory;
    use crate::runner::resume_lowered;

    fn program_of(build: impl FnOnce(&mut Assembler)) -> Program {
        let mut a = Assembler::new(0x8000_0000);
        build(&mut a);
        a.ecall();
        let mut image = Image::new(0x8000_0000);
        image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
        Program::translate(&image).unwrap()
    }

    /// Runs the same program through the block loop and the
    /// per-instruction loop with the given budget and asserts full-state
    /// bit-identity (registers, memory, stats, stop).
    fn differential(build: impl FnOnce(&mut Assembler), max_instructions: u64) {
        let program = program_of(build);
        let config = RunConfig { max_instructions, ..RunConfig::default() };
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &config.latency);
        let blocks = BlockProgram::build(&program, &table);

        let mut cpu_u = Cpu::new(0);
        let mut cpu_b = Cpu::new(0);
        let mut mem_u = DenseMemory::new(0, 0x1000);
        let mut mem_b = DenseMemory::new(0, 0x1000);
        let mut sb_u = Scoreboard::new();
        let mut sb_b = Scoreboard::new();
        let mut st_u = RunStats::default();
        let mut st_b = RunStats::default();

        let ru = resume_lowered(&mut cpu_u, &table, &mut mem_u, &config, &mut sb_u, &mut st_u);
        let rb = resume_blocks(&mut cpu_b, &blocks, &mut mem_b, &config, &mut sb_b, &mut st_b);
        assert_eq!(ru, rb, "stop/trap diverged");
        assert_eq!(st_u, st_b, "stats diverged");
        assert_eq!(cpu_u.pc(), cpu_b.pc(), "pc diverged");
        assert_eq!(cpu_u.mcycle, cpu_b.mcycle, "published mcycle diverged");
        for r in 0..32u8 {
            assert_eq!(cpu_u.reg_raw(r), cpu_b.reg_raw(r), "x{r} diverged");
        }
        assert_eq!(mem_u.read_bytes(0, 0x1000), mem_b.read_bytes(0, 0x1000), "memory diverged");
    }

    #[test]
    fn loop_and_memory_identical() {
        for budget in [u64::MAX, 100, 7, 6, 5, 2, 1] {
            differential(
                |a| {
                    a.li(Reg::A0, 0);
                    a.li(Reg::T0, 10);
                    let top = a.new_label();
                    a.bind(top);
                    a.add(Reg::A0, Reg::A0, Reg::T0);
                    a.addi(Reg::T0, Reg::T0, -1);
                    a.bnez(Reg::T0, top);
                    a.sw(Reg::A0, 0x40, Reg::Zero);
                    a.lw(Reg::A1, 0x40, Reg::Zero);
                },
                budget,
            );
        }
    }

    #[test]
    fn jump_into_pair_tail_uses_unfused_slot() {
        // `jal` lands on a leader; the instructions after it form one
        // block that the loop runs whole.
        differential(
            |a| {
                let mid = a.new_label();
                a.li(Reg::T0, 5);
                a.j(mid);
                a.addi(Reg::T0, Reg::T0, 100); // skipped
                a.bind(mid);
                a.addi(Reg::T0, Reg::T0, 1);
                a.addi(Reg::T1, Reg::T0, 2);
            },
            u64::MAX,
        );
    }

    #[test]
    fn trap_mid_pair_accounts_head() {
        // The second load faults (out of DenseMemory range) mid-block:
        // the executed prefix stays committed and accounted identically.
        differential(
            |a| {
                a.li(Reg::A1, 0x100);
                a.lui(Reg::A2, 0x7000_0000u32 as i32);
                a.lw(Reg::A3, 0, Reg::A1); // fine
                a.lw(Reg::A4, 0, Reg::A2); // faults
            },
            u64::MAX,
        );
    }

    #[test]
    fn post_inc_mac_chain_identical() {
        differential(
            |a| {
                a.li(Reg::A0, 0x100);
                a.li(Reg::A1, 0x200);
                a.li(Reg::A6, 4);
                let top = a.new_label();
                a.bind(top);
                a.p_lw(Reg::A2, 4, Reg::A0);
                a.p_lw(Reg::A3, 4, Reg::A1);
                a.vfcdotpex_c_s_h(Reg::T0, Reg::A2, Reg::A3);
                a.addi(Reg::A6, Reg::A6, -1);
                a.bnez(Reg::A6, top);
            },
            u64::MAX,
        );
    }

    #[test]
    fn csr_reads_never_fuse() {
        // mcycle/minstret reads lead their blocks, so they observe the
        // estimate the per-instruction loop publishes.
        differential(
            |a| {
                a.nop().nop().nop();
                a.csrr(Reg::A0, terasim_riscv::csr::MCYCLE);
                a.csrr(Reg::A1, terasim_riscv::csr::MINSTRET);
                a.addi(Reg::A2, Reg::A0, 0);
            },
            u64::MAX,
        );
    }

    #[test]
    fn leaders_start_blocks_and_blocks_tile_the_text() {
        let program = program_of(|a| {
            a.li(Reg::T0, 3);
            a.csrr(Reg::A0, terasim_riscv::csr::MCYCLE);
            let top = a.new_label();
            let skip = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.beqz(Reg::T0, skip);
            a.nop();
            a.csrr(Reg::A1, terasim_riscv::csr::MINSTRET);
            a.nop();
            a.bind(skip);
            a.bnez(Reg::T0, top);
            a.wfi();
            a.nop();
        });
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &RunConfig::default().latency);
        let blocks = BlockProgram::build(&program, &table);
        let starts: Vec<u32> = blocks.blocks().map(|(pc, _)| pc).collect();

        // Blocks are contiguous and cover the whole text.
        let mut pc = program.text_base();
        for (start, len) in blocks.blocks() {
            assert_eq!(start, pc, "gap or overlap at {start:#x}");
            pc = start.wrapping_add(4 * len as u32);
        }
        assert_eq!(pc, program.text_base().wrapping_add(4 * program.len() as u32));

        for i in 0..program.len() {
            let at = program.text_base().wrapping_add(4 * i as u32);
            let inst = program.fetch(at).unwrap();
            if let Inst::Branch { offset, .. } | Inst::Jal { offset, .. } = inst {
                let target = at.wrapping_add(offset as u32);
                assert!(starts.contains(&target), "branch target {target:#x} is mid-block");
            }
            if matches!(inst, Inst::Csr { .. }) {
                assert!(starts.contains(&at), "CSR at {at:#x} is mid-block");
            }
            if inst.is_control_flow() || matches!(inst, Inst::Wfi | Inst::Ecall) {
                let (start, len) = blocks.blocks().find(|&(s, l)| s <= at && at < s + 4 * l as u32).unwrap();
                assert_eq!(at, start + 4 * (len as u32 - 1), "{inst} at {at:#x} does not end its block");
            }
        }
    }

    #[test]
    fn spmd_lockstep_matches_per_lane() {
        // Four lanes diverging on hart id, then reconverging.
        let program = program_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.andi(Reg::T1, Reg::T0, 1);
            let odd = a.new_label();
            let join = a.new_label();
            a.bnez(Reg::T1, odd);
            a.slli(Reg::A0, Reg::T0, 4);
            a.j(join);
            a.bind(odd);
            a.addi(Reg::A0, Reg::T0, 100);
            a.bind(join);
            a.slli(Reg::T2, Reg::T0, 2);
            a.sw(Reg::A0, 0x80, Reg::T2);
        });
        let config = RunConfig::default();
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &config.latency);
        let blocks = BlockProgram::build(&program, &table);

        let run_ref = |hart: u32| {
            let mut cpu = Cpu::new(hart);
            let mut mem = DenseMemory::new(0, 0x1000);
            let mut sb = Scoreboard::new();
            let mut st = RunStats::default();
            let stop = resume_lowered(&mut cpu, &table, &mut mem, &config, &mut sb, &mut st).unwrap();
            (cpu, mem, st, stop)
        };

        let mut cpus: Vec<Cpu> = (0..4).map(Cpu::new).collect();
        let mut mems: Vec<DenseMemory> = (0..4).map(|_| DenseMemory::new(0, 0x1000)).collect();
        let mut sbs: Vec<Scoreboard> = (0..4).map(|_| Scoreboard::new()).collect();
        let mut sts: Vec<RunStats> = (0..4).map(|_| RunStats::default()).collect();
        let mut lanes: Vec<Lane<'_, DenseMemory>> = cpus
            .iter_mut()
            .zip(mems.iter_mut())
            .zip(sbs.iter_mut())
            .zip(sts.iter_mut())
            .map(|(((cpu, mem), sb), stats)| Lane { cpu, mem, sb, stats })
            .collect();
        let stops = resume_spmd(&mut lanes, &blocks, &config).unwrap();

        for hart in 0..4u32 {
            let (rc, rm, rst, rstop) = run_ref(hart);
            let i = hart as usize;
            assert_eq!(stops[i], rstop, "hart {hart} stop diverged");
            assert_eq!(sts[i], rst, "hart {hart} stats diverged");
            for r in 0..32u8 {
                assert_eq!(cpus[i].reg_raw(r), rc.reg_raw(r), "hart {hart} x{r} diverged");
            }
            assert_eq!(
                mems[i].read_bytes(0, 0x1000),
                rm.read_bytes(0, 0x1000),
                "hart {hart} memory diverged"
            );
        }
    }
}
