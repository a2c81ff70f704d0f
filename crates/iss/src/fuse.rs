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
//!   on the terminator and one `mcycle` publication; an SPMD group pays
//!   the issue and the fold once for all its lanes.
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
//! [`resume_spmd`] runs the same blocks across a *group* of lanes (harts):
//! lanes at one PC **with equal scoreboards**. Fast-mode timing is static
//! per uop, so such lanes issue every block identically: the group owns
//! one [`Scoreboard`] and one statistics delta (`retired`, class
//! histogram, branch bubbles), times and folds each block **once**, and
//! each lane runs only the block's kernels, lane-major, then checks its
//! end PC and stores its `mcycle`. Every lane takes the group's
//! scoreboard and delta when it leaves the group (budget, stop,
//! divergence, trap; the rules are on [`resume_spmd`]). Divergence is
//! checked once, at the block's terminator; a trap reports the
//! lowest-indexed trapping lane, exactly what running the lanes one after
//! another would report. Under per-address load latency, timing depends
//! on each lane's addresses, so every lane runs alone.

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

/// Retires `run`: one histogram fold for a whole block, per instruction
/// otherwise.
#[inline(always)]
fn fold<M>(stats: &mut RunStats, run: Run<'_, M>) {
    match run.hist {
        Some(hist) => {
            stats.retired += run.body.len() as u64;
            for (count, &n) in stats.class_counts.iter_mut().zip(hist) {
                *count += u64::from(n);
            }
        }
        None => fold_each(stats, run.body),
    }
}

/// Issues `body` at its static latencies from the clock at
/// [`Scoreboard::cycles`], without closing the run; returns the clock
/// after the last issue.
#[inline(always)]
fn issue_static<M>(sb: &mut Scoreboard, body: &[Slot<M>]) -> u64 {
    let mut next = sb.cycles();
    for s in body {
        next = sb.issue_in_run(next, s.srcs, s.dst, s.post_inc, s.lat);
    }
    next
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
    fold(stats, run);
    // Only the last uop can redirect, so "left the fall-through" is
    // exactly "a taken control-flow terminator".
    if cpu.pc() != start.wrapping_add(4 * run.body.len() as u32) {
        sb.bubble(config.latency.taken_branch_penalty);
        stats.branch_bubbles += u64::from(config.latency.taken_branch_penalty);
    }
    cpu.set_mcycle(sb.cycles());
    Ok(out)
}

/// The stop `out` means for the hart, if any.
#[inline(always)]
fn stop_of(out: Outcome) -> Option<StopReason> {
    match out {
        Outcome::Continue => None,
        Outcome::Exit { code } => Some(StopReason::Exit { code }),
        Outcome::Wfi => Some(StopReason::Wfi),
    }
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
        if let Some(stop) = stop_of(out) {
            finalize(stats, sb, cpu, stop);
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

impl<M> Lane<'_, M> {
    /// Hands the lane a group's timing: `sb` plus `bubble` taken-branch
    /// cycles of its own, and the group's statistics `delta`. The lane
    /// published its `mcycle` itself, at the end of its last block.
    fn take(&mut self, sb: &Scoreboard, delta: &RunStats, bubble: u32) {
        self.sb.clone_from(sb);
        self.sb.bubble(bubble);
        self.stats.merge(delta);
        self.stats.branch_bubbles += u64::from(bubble);
    }
}

/// Runs a set of lanes to their next stop (exit, `wfi` park, budget).
///
/// Lanes at the same PC **with equal scoreboards** form a group: each of
/// the group's blocks is looked up, budget-tested and timed once, and the
/// lanes run only its kernels, lane-major, checking their end PC and
/// storing `mcycle`. A group accounts one statistics delta (`retired`,
/// class histogram, branch bubbles) and hands it, with its scoreboard,
/// to every lane on each way out:
///
/// - budget, illegal fetch, `ecall`/`wfi` stop: every lane gets both;
/// - divergence (terminators resolve differently): as above, plus each
///   lane's own taken-branch bubble, and the lanes regroup;
/// - trap: lanes below the trapping lane get the completed block and
///   regroup; the trapping lane gets the block-start scoreboard with the
///   executed prefix issued; lanes above it get the block-start state.
///
/// A lane alone in its group runs through [`resume_blocks`]. Under
/// [`RunConfig::per_address_latency`] a load's latency depends on the
/// lane's own address, so every lane runs alone. Every result is
/// bit-identical to running each lane alone.
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
        return lanes
            .iter_mut()
            .map(|l| resume_impl::<M, true>(l.cpu, bp, l.mem, config, l.sb, l.stats))
            .collect();
    }
    let mut stops: Vec<StopReason> = vec![StopReason::Budget; lanes.len()];
    for lane in lanes.iter_mut() {
        if lane.cpu.pc() == 0 {
            lane.cpu.set_pc(bp.entry);
        }
    }
    let mut work: VecDeque<Vec<usize>> = VecDeque::new();
    split(lanes, 0..lanes.len(), &mut work);

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
                match resume_impl::<M, false>(l.cpu, bp, l.mem, config, l.sb, l.stats) {
                    Ok(stop) => stops[i] = stop,
                    Err(t) => trap = Some((i, t)),
                }
            }
            _ => run_group(lanes, group, bp, config, &mut stops, &mut work, &mut trap),
        }
    }
    match trap {
        Some((_, t)) => Err(t),
        None => Ok(stops),
    }
}

/// Partitions `members` (ascending) into groups of lanes at one PC with
/// equal scoreboards, queued in order of their lowest lane.
fn split<M>(
    lanes: &[Lane<'_, M>],
    members: impl IntoIterator<Item = usize>,
    work: &mut VecDeque<Vec<usize>>,
) {
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for i in members {
        let l = &lanes[i];
        let same = |v: &&mut Vec<usize>| {
            let h = &lanes[v[0]];
            h.cpu.pc() == l.cpu.pc() && *h.sb == *l.sb
        };
        match parts.iter_mut().find(same) {
            Some(v) => v.push(i),
            None => parts.push(vec![i]),
        }
    }
    work.extend(parts);
}

/// Executes the kernels of `body` on one lane; a trap reports how many
/// uops completed before it.
#[inline(always)]
fn exec_run<M: Memory>(cpu: &mut Cpu, mem: &mut M, body: &[Slot<M>]) -> Result<Outcome, (usize, Trap)> {
    let mut out = Outcome::Continue;
    for (k, s) in body.iter().enumerate() {
        out = (s.exec)(cpu, s.uop, mem).map_err(|t| (k, t))?;
    }
    Ok(out)
}

/// Runs one group (lanes ascending, at one PC, equal scoreboards) on one
/// scoreboard and one statistics delta until it stops, diverges or
/// traps; see [`resume_spmd`] for what each lane gets on the way out.
fn run_group<M: Memory>(
    lanes: &mut [Lane<'_, M>],
    group: Vec<usize>,
    bp: &BlockProgram<M>,
    config: &RunConfig,
    stops: &mut [StopReason],
    work: &mut VecDeque<Vec<usize>>,
    trap: &mut Option<(usize, Trap)>,
) {
    let penalty = config.latency.taken_branch_penalty;
    let mut sb = lanes[group[0]].sb.clone();
    let mut delta = RunStats::default();
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
                l.take(&sb, &delta, 0);
                match resume_impl::<M, false>(l.cpu, bp, l.mem, config, l.sb, l.stats) {
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
            for &i in &group {
                lanes[i].take(&sb, &delta, 0);
            }
            *trap = Some((group[0], Trap::IllegalFetch { pc }));
            return;
        };

        // Timing is static per uop, so the block is issued once for the
        // group; the block-start state is kept for a trapping lane.
        let start = sb.clone();
        let next = issue_static(&mut sb, run.body);
        sb.end_run(next, run.body.len() as u64);
        let fall = pc.wrapping_add(4 * run.body.len() as u32);
        let published = sb.cycles();

        let mut end: Option<u32> = None;
        let mut diverged = false;
        let mut stopped = false;
        let mut failed: Option<(usize, usize, Trap)> = None;
        for (pos, &i) in group.iter().enumerate() {
            let l = &mut lanes[i];
            match exec_run(l.cpu, l.mem, run.body) {
                Ok(out) => {
                    let at = l.cpu.pc();
                    l.cpu.set_mcycle(if at == fall { published } else { published + u64::from(penalty) });
                    // The block is the same for every lane, so an `ecall`
                    // or `wfi` terminator stops every lane.
                    if let Some(stop) = stop_of(out) {
                        stops[i] = stop;
                        stopped = true;
                    }
                    diverged |= *end.get_or_insert(at) != at;
                }
                Err((k, t)) => {
                    failed = Some((pos, k, t));
                    break;
                }
            }
        }

        if !(stopped || diverged || failed.is_some()) {
            let next_pc = end.expect("a group has at least two lanes");
            fold(&mut delta, run);
            if next_pc != fall {
                sb.bubble(penalty);
                delta.branch_bubbles += u64::from(penalty);
            }
            rem -= run.body.len() as u64;
            pc = next_pc;
            continue;
        }

        // Leaving the group: lanes that completed the block take it, with
        // their own taken-branch bubble.
        let done = failed.as_ref().map_or(group.len(), |&(pos, ..)| pos);
        let mut after = delta.clone();
        fold(&mut after, run);
        for &i in &group[..done] {
            let l = &mut lanes[i];
            let bubble = if l.cpu.pc() == fall { 0 } else { penalty };
            l.take(&sb, &after, bubble);
            if stopped {
                finalize(l.stats, l.sb, l.cpu, stops[i]);
            }
        }
        if !stopped {
            split(lanes, group[..done].iter().copied(), work);
        }
        if let Some((pos, k, t)) = failed {
            let l = &mut lanes[group[pos]];
            l.take(&start, &delta, 0);
            let prefix = &run.body[..k];
            let next = issue_static(l.sb, prefix);
            *trap = Some((group[pos], trapped(l.cpu, l.sb, l.stats, prefix, next, t)));
            for &i in &group[pos + 1..] {
                lanes[i].take(&start, &delta, 0);
            }
        }
        return;
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

    // --- SPMD groups against the same lanes run alone --------------------

    /// Everything a lane owns.
    #[derive(Clone)]
    struct LaneState<M> {
        cpu: Cpu,
        mem: M,
        sb: Scoreboard,
        stats: RunStats,
    }

    /// `n` fresh lanes, hart ids `0..n`, each over its own 4 KiB memory.
    fn fresh_lanes(n: u32) -> Vec<LaneState<DenseMemory>> {
        (0..n)
            .map(|hart| LaneState {
                cpu: Cpu::new(hart),
                mem: DenseMemory::new(0, 0x1000),
                sb: Scoreboard::new(),
                stats: RunStats::default(),
            })
            .collect()
    }

    fn blocks_of<M: Memory>(program: &Program, config: &RunConfig) -> BlockProgram<M> {
        BlockProgram::build(program, &UopProgram::lower(program, &config.latency))
    }

    /// Runs `init` as one SPMD set and, on a copy, each lane alone through
    /// [`resume_blocks`] in order up to the first trap; asserts that every
    /// lane up to that trap ends with the same registers, PC, memory
    /// (`bytes`), statistics, scoreboard, `mcycle`, `minstret` and stop or
    /// trap. Returns the SPMD result.
    fn assert_spmd_matches_alone<M: Memory + Clone>(
        bp: &BlockProgram<M>,
        config: &RunConfig,
        init: &[LaneState<M>],
        bytes: fn(&M) -> Vec<u8>,
    ) -> Result<Vec<StopReason>, Trap> {
        let mut alone = init.to_vec();
        let mut want = Vec::new();
        for l in &mut alone {
            let r = resume_blocks(&mut l.cpu, bp, &mut l.mem, config, &mut l.sb, &mut l.stats);
            want.push(r);
            if r.is_err() {
                break;
            }
        }
        let mut grouped = init.to_vec();
        let got = {
            let mut lanes: Vec<Lane<'_, M>> = grouped
                .iter_mut()
                .map(|l| Lane { cpu: &mut l.cpu, mem: &mut l.mem, sb: &mut l.sb, stats: &mut l.stats })
                .collect();
            resume_spmd(&mut lanes, bp, config)
        };
        match &got {
            Ok(stops) => assert_eq!(stops.iter().map(|&s| Ok(s)).collect::<Vec<_>>(), want, "stops"),
            Err(t) => assert_eq!(want.last(), Some(&Err(*t)), "trap"),
        }
        for (i, (g, a)) in grouped.iter().zip(&alone).take(want.len()).enumerate() {
            assert_eq!(g.stats, a.stats, "lane {i}: stats");
            assert_eq!(g.sb, a.sb, "lane {i}: scoreboard");
            assert_eq!(g.cpu.mcycle, a.cpu.mcycle, "lane {i}: mcycle");
            assert_eq!(g.cpu.retired(), a.cpu.retired(), "lane {i}: minstret");
            assert_eq!(g.cpu.pc(), a.cpu.pc(), "lane {i}: pc");
            for r in 0..32u8 {
                assert_eq!(g.cpu.reg_raw(r), a.cpu.reg_raw(r), "lane {i}: x{r}");
            }
            assert_eq!(bytes(&g.mem), bytes(&a.mem), "lane {i}: memory");
        }
        got
    }

    fn dense_bytes(mem: &DenseMemory) -> Vec<u8> {
        mem.read_bytes(0, 0x1000).to_vec()
    }

    /// A counted loop of loads and dependent adds, the sum stored per hart.
    fn load_loop(a: &mut Assembler, trips: i32) {
        a.add(Reg::A3, Reg::A1, Reg::A1); // reads a register a lane may have in flight
        a.li(Reg::T0, trips);
        let top = a.new_label();
        a.bind(top);
        a.lw(Reg::A1, 0x40, Reg::Zero);
        a.add(Reg::A2, Reg::A2, Reg::A1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.csrr(Reg::T1, terasim_riscv::csr::MHARTID);
        a.slli(Reg::T1, Reg::T1, 2);
        a.sw(Reg::A2, 0x80, Reg::T1);
        a.sw(Reg::A3, 0xc0, Reg::T1);
    }

    #[test]
    fn spmd_groups_lanes_by_scoreboard_not_pc_alone() {
        let program = program_of(|a| load_loop(a, 5));
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(6);
        // One PC, four scoreboards: fresh (lanes 0, 1), advanced past a
        // barrier (2), and a load in flight into `a1` (3, 4, 5).
        lanes[2].sb.advance_to(40);
        for l in &mut lanes[3..] {
            l.sb.issue_slots([0; 3], Reg::A1.index() as u8, crate::uop::NO_REG, 9);
        }
        for l in &mut lanes {
            l.cpu.set_pc(program.entry());
        }
        assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes).unwrap();
    }

    #[test]
    fn spmd_group_publishes_mcycle_and_minstret_per_lane() {
        let program = program_of(|a| {
            // Reads the `mcycle` and `minstret` each lane entered with.
            a.csrr(Reg::A0, terasim_riscv::csr::MCYCLE);
            a.csrr(Reg::A1, terasim_riscv::csr::MINSTRET);
            a.li(Reg::T0, 3);
            let top = a.new_label();
            a.bind(top);
            a.lw(Reg::A2, 0x40, Reg::Zero);
            a.addi(Reg::T0, Reg::T0, -1);
            a.csrr(Reg::A3, terasim_riscv::csr::MCYCLE);
            a.csrr(Reg::A4, terasim_riscv::csr::MINSTRET);
            a.add(Reg::A5, Reg::A5, Reg::A3);
            a.add(Reg::A5, Reg::A5, Reg::A4);
            a.bnez(Reg::T0, top);
            a.csrr(Reg::T1, terasim_riscv::csr::MHARTID);
            a.slli(Reg::T1, Reg::T1, 4);
            a.sw(Reg::A0, 0x100, Reg::T1);
            a.sw(Reg::A1, 0x104, Reg::T1);
            a.sw(Reg::A5, 0x108, Reg::T1);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(4);
        for (i, l) in lanes.iter_mut().enumerate() {
            l.cpu.set_mcycle(1000 + 7 * i as u64);
            l.cpu.retired = 3 * i as u64;
        }
        assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes).unwrap();
    }

    #[test]
    fn spmd_trap_at_every_block_position_of_first_middle_and_last_lane() {
        const LEN: usize = 6;
        let lanes = fresh_lanes(5);
        for victim in [0, 2, 4] {
            for at in 0..LEN {
                let program = program_of(|a| {
                    // a2 = 0x100, or unmapped on the victim, without a branch:
                    // the lanes stay one group up to the trapping block.
                    a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
                    a.li(Reg::T1, victim);
                    a.xor(Reg::T2, Reg::T0, Reg::T1);
                    a.sltu(Reg::T2, Reg::Zero, Reg::T2);
                    a.addi(Reg::T2, Reg::T2, -1);
                    a.lui(Reg::T3, 0x4000_0000);
                    a.and(Reg::T2, Reg::T2, Reg::T3);
                    a.addi(Reg::A2, Reg::T2, 0x100);
                    let body = a.new_label();
                    a.j(body);
                    a.bind(body);
                    for k in 0..LEN {
                        match k {
                            _ if k == at => a.lw(Reg::A4, 0, Reg::A2),
                            _ if k % 2 == 0 => a.lw(Reg::A6, 0x40, Reg::Zero),
                            _ => a.add(Reg::A5, Reg::A5, Reg::A6),
                        };
                    }
                });
                let config = RunConfig::default();
                let bp = blocks_of(&program, &config);
                let got = assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes);
                assert!(
                    matches!(got, Err(Trap::Mem { pc, .. }) if pc == program.entry() + 4 * (9 + at as u32)),
                    "victim {victim} at {at}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn spmd_budget_straddling_a_block() {
        let program = program_of(|a| load_loop(a, 6));
        let mut lanes = fresh_lanes(4);
        // Unequal histories: each lane is `i` instructions nearer its budget.
        for (i, l) in lanes.iter_mut().enumerate() {
            l.stats.retired = i as u64;
            l.cpu.set_pc(program.entry());
        }
        let (mut budget_stops, mut exits) = (0, 0);
        for max_instructions in 4..40 {
            let config = RunConfig { max_instructions, ..RunConfig::default() };
            let bp = blocks_of(&program, &config);
            for stop in assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes).unwrap() {
                match stop {
                    StopReason::Budget => budget_stops += 1,
                    _ => exits += 1,
                }
            }
        }
        assert!(budget_stops > 50 && exits > 10, "{budget_stops} budget stops, {exits} exits");
    }

    /// Divergence: each lane leaves its group with its own taken-branch
    /// bubble.
    #[test]
    fn spmd_lockstep_matches_per_lane() {
        let program = program_of(|a| {
            // Split on hart parity, rejoin, then loop `hart + 1` times: the
            // loop's back edge diverges lanes one at a time.
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
            a.addi(Reg::T3, Reg::T0, 1);
            let top = a.new_label();
            a.bind(top);
            a.lw(Reg::A1, 0x40, Reg::Zero);
            a.add(Reg::A0, Reg::A0, Reg::A1);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bnez(Reg::T3, top);
            a.slli(Reg::T2, Reg::T0, 2);
            a.sw(Reg::A0, 0x80, Reg::T2);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(5);
        for l in &mut lanes {
            l.mem.store(0x40, 4, 3).unwrap();
        }
        assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes).unwrap();
    }

    /// Memory whose load latency depends on the address, as on a NUMA L1.
    #[derive(Clone)]
    struct Numa(DenseMemory);

    impl Memory for Numa {
        fn load(&mut self, addr: u32, size: u32) -> Result<u32, crate::MemError> {
            self.0.load(addr, size)
        }
        fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), crate::MemError> {
            self.0.store(addr, size, value)
        }
        fn amo(&mut self, op: terasim_riscv::AmoOp, addr: u32, value: u32) -> Result<u32, crate::MemError> {
            self.0.amo(op, addr, value)
        }
        fn latency(&self, addr: u32) -> u32 {
            1 + (addr >> 2) % 11
        }
    }

    #[test]
    fn spmd_per_address_latency_times_each_lane_by_its_addresses() {
        let program = program_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slli(Reg::T1, Reg::T0, 2);
            a.li(Reg::T2, 4);
            let top = a.new_label();
            a.bind(top);
            a.lw(Reg::A1, 0x40, Reg::T1); // a different bank per hart
            a.add(Reg::A2, Reg::A2, Reg::A1);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
            a.sw(Reg::A2, 0x80, Reg::T1);
        });
        let config = RunConfig { per_address_latency: true, ..RunConfig::default() };
        let bp = blocks_of(&program, &config);
        let lanes: Vec<LaneState<Numa>> = fresh_lanes(4)
            .into_iter()
            .map(|l| LaneState { cpu: l.cpu, mem: Numa(l.mem), sb: l.sb, stats: l.stats })
            .collect();
        assert_spmd_matches_alone(&bp, &config, &lanes, |m| dense_bytes(&m.0)).unwrap();
        let cycles: Vec<u64> = lanes
            .iter()
            .map(|l| {
                let mut l = l.clone();
                resume_blocks(&mut l.cpu, &bp, &mut l.mem, &config, &mut l.sb, &mut l.stats).unwrap();
                l.stats.est_cycles
            })
            .collect();
        assert!(cycles.windows(2).any(|w| w[0] != w[1]), "lanes must time differently: {cycles:?}");
    }
}
