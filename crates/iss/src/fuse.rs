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
//! lanes at one PC **with equal scoreboards**, at most [`MAX_GROUP`] of
//! them. Fast-mode timing is static
//! per uop, so such lanes issue every block identically: the group owns
//! one [`Scoreboard`] and one statistics delta (`retired`, class
//! histogram, branch bubbles), times and folds each block **once**, and
//! runs the block **uop-major**: each uop dispatches once and its batch
//! kernel loops over the lanes (binary16 arithmetic eight lanes per AVX2 +
//! F16C instruction), then every lane commits the block: `retired`, end
//! PC, `mcycle`. Every lane takes the group's scoreboard and delta when
//! it leaves the group (budget, stop, divergence, trap; the rules are on
//! [`resume_spmd`]). Divergence is checked once, at the block's
//! terminator; a trap reports the lowest-indexed trapping lane, exactly
//! what running the lanes one after another would report. Under
//! per-address load latency, timing depends on each lane's addresses, so
//! every lane runs alone.
//!
//! A group is closed at [`MAX_GROUP`] lanes because each uop of a
//! uop-major block sweeps every lane's `Cpu`, memory view, snapshot
//! registers, undo entries and operand words. The `Cpu`s of 1 024 lanes
//! alone are 160 KiB, several times a 48 KiB L1d, so their sweep is
//! served from L2; those of 64 lanes are 10 KiB. Timing a block once per
//! 64 lanes instead of once per 1 024 costs less than those misses (the
//! sweep is in BENCHMARKS.md, "L1-sized groups").
//!
//! A uop-major block runs optimistically. First every lane's registers
//! in the block's static write set (those written up to its last memory
//! access) are snapshot; each store logs the bytes it overwrites; the PC
//! and `retired` move only at the commit. A memory access that would trap
//! or reach a device register ([`Memory::peek`] returns `None`, as for
//! TeraPool's control region) aborts before it takes effect: the stores
//! are undone newest first, the registers restored, and the block replays
//! **lane-major** (each lane runs the whole block through its per-lane
//! kernels before the next lane starts), the order that defines traps and
//! stops. Blocks holding a uop without a batch kernel stay lane-major by a
//! static rule: CSR accesses, AMOs, `lr`/`sc`, `ecall`, `ebreak`, `wfi`.
//!
//! Uop-major order interleaves the lanes' memory accesses unlike
//! lane-major: within one block a lane may see a store another lane made
//! at an earlier uop, or miss one made at a later uop. Only a guest with
//! a data race between the lanes of one block can tell. The paper's
//! kernels are data-race free (§IV: harts share data only across
//! barriers, which are AMOs, control-region stores and `wfi`), so their
//! results are bit-identical to running each lane alone.

use std::collections::VecDeque;

use terasim_riscv::Inst;

use crate::cpu::{Cpu, Outcome, Trap};
use crate::mem::Memory;
use crate::program::Program;
use crate::runner::{finalize, RunConfig, RunStats, StopReason};
use crate::timing::{InstClass, Scoreboard};
use crate::uop::{lower_uop, simd_available, Batch, BatchKernel, Kernel, Uop, UopProgram, NO_REG};

/// Retired-instruction counts of one block, by [`InstClass::index`].
type Histogram = [u8; InstClass::COUNT];

/// How an SPMD group runs a straight-line run of slots.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Every uop has a batch kernel: the run goes uop-major.
    uop_major: bool,
    /// The registers the uops up to the last memory access write (the
    /// last uop a batch kernel can abort on): what a rollback restores.
    wset: u32,
}

impl Plan {
    fn of<M>(body: &[Slot<M>], batch: &[Option<BatchKernel<M>>]) -> Self {
        let bit = |r: u8| if r < NO_REG { 1u32 << r } else { 0 };
        let upto = body.iter().rposition(|s| s.mem).map_or(0, |k| k + 1);
        Self {
            uop_major: batch.iter().all(Option::is_some),
            wset: body[..upto].iter().fold(0, |w, s| w | bit(s.dst) | bit(s.post_inc)),
        }
    }
}

/// What a block's leader slot carries besides its body.
#[derive(Debug, Clone, Copy)]
struct Head {
    hist: Histogram,
    plan: Plan,
}

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
    /// Accesses data memory: the uops a batch kernel may abort on.
    mem: bool,
    /// May redirect the PC (only a block's last uop can).
    flow: bool,
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
    /// Per slot: its lane-batched kernel; `None` keeps the blocks holding
    /// it lane-major. Kept out of `slots` so that single harts, which
    /// never read it, touch no more bytes per uop.
    batch: Vec<Option<BatchKernel<M>>>,
    /// Per slot: the head of the block it leads (unused elsewhere).
    heads: Vec<Head>,
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
    /// The batch kernels of `body`, slot for slot.
    batch: &'a [Option<BatchKernel<M>>],
    head: Option<&'a Head>,
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
                        mem: m.is_mem,
                        flow: m.is_control_flow,
                    }
                }
                // Never retires, so its class is never counted.
                None => Slot {
                    exec: illegal_fetch::<M>,
                    uop: Uop::new(),
                    srcs: [0; 3],
                    dst: NO_REG,
                    post_inc: NO_REG,
                    lat: 0,
                    class: 0,
                    block_len: 0,
                    is_load: false,
                    ea_no_offset: true,
                    mem: false,
                    flow: false,
                },
            })
            .collect();
        let batch: Vec<_> =
            (0..len).map(|i| program.fetch(pc_of(i)).and_then(|inst| lower_uop::<M>(&inst).1)).collect();

        let mut heads =
            vec![Head { hist: [0; InstClass::COUNT], plan: Plan { uop_major: false, wset: 0 } }; len];
        let mut start = 0;
        while start < len {
            let mut end = start + 1;
            while end < len && !leader[end] && end - start < usize::from(u8::MAX) {
                end += 1;
            }
            slots[start].block_len = (end - start) as u8;
            let head = &mut heads[start];
            for s in &slots[start..end] {
                head.hist[usize::from(s.class)] += 1;
            }
            head.plan = Plan::of(&slots[start..end], &batch[start..end]);
            start = end;
        }

        Self { entry: program.entry(), text_base: base, slots, batch, heads }
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
            Run {
                body: &self.slots[idx..idx + len],
                batch: &self.batch[idx..idx + len],
                head: Some(&self.heads[idx]),
            }
        } else {
            Run { body: &self.slots[idx..=idx], batch: &self.batch[idx..=idx], head: None }
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
    match run.head {
        Some(head) => {
            stats.retired += run.body.len() as u64;
            for (count, &n) in stats.class_counts.iter_mut().zip(&head.hist) {
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
/// Lanes at the same PC **with equal scoreboards** form groups of at most
/// [`MAX_GROUP`] lanes, ascending and run in order of their lowest lane
/// (the cap keeps each uop's sweep over the lanes in L1). Each of a
/// group's blocks is looked up, budget-tested and timed once, and runs
/// **uop-major**: each uop once, its batch kernel looping over the lanes,
/// then each lane commits `retired`, its end PC and `mcycle`. A block runs
/// over a snapshot of the registers it writes and an undo log of its
/// stores; an access that would trap or reach a device register
/// ([`Memory::peek`] returns `None`) rolls every lane back to the block
/// start and the block replays **lane-major**, each lane through the
/// whole block before the next. Blocks with a CSR access, AMO, `lr`/`sc`,
/// `ecall`, `ebreak` or `wfi` always run lane-major. Uop-major order lets
/// a lane see another lane's store from an earlier uop of the same
/// block, so a guest racing between lanes inside one block may see a
/// different interleaving than lane-major; data-race-free guests (paper
/// §IV) cannot tell.
///
/// A group accounts one statistics delta (`retired`, class histogram,
/// branch bubbles) and hands it, with its scoreboard, to every lane on
/// each way out:
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
/// lane's own address, so every lane runs alone. For data-race-free
/// guests every result is bit-identical to running each lane alone.
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

/// The most lanes one SPMD group holds. Each uop of a uop-major block
/// sweeps all of its group's lanes, so the cap bounds that sweep's working
/// set to what L1 holds; 64 is the fastest cap of the sweep in
/// BENCHMARKS.md ("L1-sized groups").
pub const MAX_GROUP: usize = 64;

/// Partitions `members` (ascending) into groups of at most [`MAX_GROUP`]
/// lanes at one PC with equal scoreboards, queued in order of their
/// lowest lane.
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
            v.len() < MAX_GROUP && h.cpu.pc() == l.cpu.pc() && *h.sb == *l.sb
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

/// The harts and memory views of a group's lanes (ascending indices), for
/// the batch kernels.
fn batch_of<'g, M>(lanes: &'g mut [Lane<'_, M>], group: &[usize]) -> Batch<'g, M> {
    let (lo, hi) = (group[0], group[group.len() - 1]);
    let mut members = group.iter().copied().peekable();
    let mut cpus = Vec::with_capacity(group.len());
    let mut mems = Vec::with_capacity(group.len());
    for (i, l) in (lo..).zip(&mut lanes[lo..=hi]) {
        if members.next_if_eq(&i).is_some() {
            cpus.push(&mut *l.cpu);
            mems.push(&mut *l.mem);
        }
    }
    Batch { cpus, mems, undo: Vec::new(), simd: simd_available() }
}

/// The register indices in `set`, ascending, and how many there are.
fn regs_in(mut set: u32) -> ([usize; 32], usize) {
    let (mut regs, mut n) = ([0; 32], 0);
    while set != 0 {
        regs[n] = set.trailing_zeros() as usize;
        set &= set - 1;
        n += 1;
    }
    (regs, n)
}

/// Runs `run` (at `pc`) on every lane of `b` uop-major: each uop's batch
/// kernel once over all lanes, over a snapshot of `plan.wset` in `snap`
/// and an undo log of the stores. Neither the PC nor `retired` moves
/// before the caller commits the block. Returns `false` if a kernel
/// aborted, with every store undone and every lane's registers restored:
/// the group is back at the block start.
fn run_uop_major<M: Memory>(
    b: &mut Batch<'_, M>,
    snap: &mut Vec<u32>,
    run: Run<'_, M>,
    plan: Plan,
    pc: u32,
) -> bool {
    b.undo.clear();
    snap.clear();
    if plan.wset != 0 {
        let (regs, n) = regs_in(plan.wset);
        for cpu in &b.cpus {
            snap.extend(regs[..n].iter().map(|&r| cpu.regs[r]));
        }
    }
    for (k, (s, kernel)) in run.body.iter().zip(run.batch).enumerate() {
        let kernel = kernel.expect("a uop-major plan has a batch kernel per uop");
        if kernel(b, s.uop, pc.wrapping_add(4 * k as u32)).is_err() {
            roll_back(b, snap, plan.wset);
            return false;
        }
    }
    true
}

/// Undoes a uop-major block: its stores, newest first, then the snapshot
/// registers of every lane.
#[cold]
fn roll_back<M: Memory>(b: &mut Batch<'_, M>, snap: &[u32], wset: u32) {
    for u in b.undo.iter().rev() {
        let undone = b.mems[u.lane as usize].store(u.addr, u.size, u.old);
        debug_assert!(undone.is_ok(), "the store being undone succeeded");
    }
    let (regs, n) = regs_in(wset);
    for (cpu, saved) in b.cpus.iter_mut().zip(snap.chunks_exact(n.max(1))) {
        for (&r, &v) in regs[..n].iter().zip(saved) {
            cpu.regs[r] = v;
        }
    }
}

/// How one block ended on a group's lanes.
struct BlockEnd {
    /// The PC the lanes that completed the block are at, if they agree.
    end: Option<u32>,
    diverged: bool,
    /// An `ecall` or `wfi` terminator stopped every lane.
    stopped: bool,
    /// The lowest trapping lane (position in the group), how many uops it
    /// completed, and its trap.
    failed: Option<(usize, usize, Trap)>,
}

impl BlockEnd {
    const fn new() -> Self {
        Self { end: None, diverged: false, stopped: false, failed: None }
    }

    /// A lane completed the block at `at`: publish its `mcycle`.
    #[inline(always)]
    fn completed(&mut self, cpu: &mut Cpu, at: u32, fall: u32, published: u64, penalty: u32) {
        cpu.set_mcycle(if at == fall { published } else { published + u64::from(penalty) });
        self.diverged |= *self.end.get_or_insert(at) != at;
    }
}

/// Runs one group (lanes ascending, at one PC, equal scoreboards) on one
/// scoreboard and one statistics delta until it stops, diverges or
/// traps; see [`resume_spmd`] for the execution order and what each lane
/// gets on the way out.
fn run_group<M: Memory>(
    lanes: &mut [Lane<'_, M>],
    group: Vec<usize>,
    bp: &BlockProgram<M>,
    config: &RunConfig,
    stops: &mut [StopReason],
    work: &mut VecDeque<Vec<usize>>,
    trap: &mut Option<(usize, Trap)>,
) {
    /// Why the group's loop ended.
    enum Leave<'a, M> {
        Budget,
        IllegalFetch(u32),
        /// After a block that stopped, diverged or trapped.
        Block(Run<'a, M>, BlockEnd),
    }

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

    let mut b = batch_of(lanes, &group);
    let mut snap = Vec::new();
    // The scoreboard at the start of the current block, for a trapping lane.
    let mut start = sb.clone();
    let leave = loop {
        if rem == 0 {
            break Leave::Budget;
        }
        let Some(run) = bp.run_at(pc, rem) else {
            break Leave::IllegalFetch(pc);
        };

        // Timing is static per uop, so the block is issued once for the
        // group; the block-start state is kept for a trapping lane.
        start.clone_from(&sb);
        let next = issue_static(&mut sb, run.body);
        sb.end_run(next, run.body.len() as u64);
        let fall = pc.wrapping_add(4 * run.body.len() as u32);
        let published = sb.cycles();

        let mut end = BlockEnd::new();
        let plan = run.head.map_or_else(|| Plan::of(run.body, run.batch), |h| h.plan);
        if plan.uop_major && run_uop_major(&mut b, &mut snap, run, plan, pc) {
            // Commit: uop-major blocks hold no `ecall`, `wfi` or trap.
            let (n, flow) = (run.body.len() as u64, run.body[run.body.len() - 1].flow);
            for cpu in b.cpus.iter_mut() {
                cpu.retired += n;
                if !flow {
                    cpu.pc = fall;
                }
                end.completed(cpu, cpu.pc, fall, published, penalty);
            }
        } else {
            for (pos, (cpu, mem)) in b.cpus.iter_mut().zip(b.mems.iter_mut()).enumerate() {
                match exec_run(cpu, &mut **mem, run.body) {
                    Ok(out) => {
                        end.completed(cpu, cpu.pc(), fall, published, penalty);
                        // The block is the same for every lane, so an
                        // `ecall` or `wfi` terminator stops every lane.
                        if let Some(stop) = stop_of(out) {
                            stops[group[pos]] = stop;
                            end.stopped = true;
                        }
                    }
                    Err((k, t)) => {
                        end.failed = Some((pos, k, t));
                        break;
                    }
                }
            }
        }

        if !(end.stopped || end.diverged || end.failed.is_some()) {
            let next_pc = end.end.expect("a group has at least two lanes");
            fold(&mut delta, run);
            if next_pc != fall {
                sb.bubble(penalty);
                delta.branch_bubbles += u64::from(penalty);
            }
            rem -= run.body.len() as u64;
            pc = next_pc;
            continue;
        }
        break Leave::Block(run, end);
    };
    drop(b);

    match leave {
        Leave::Budget => {
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
        }
        Leave::IllegalFetch(pc) => {
            for &i in &group {
                lanes[i].take(&sb, &delta, 0);
            }
            *trap = Some((group[0], Trap::IllegalFetch { pc }));
        }
        Leave::Block(run, end) => {
            // Leaving the group: lanes that completed the block take it,
            // with their own taken-branch bubble.
            let fall = pc.wrapping_add(4 * run.body.len() as u32);
            let done = end.failed.as_ref().map_or(group.len(), |&(pos, ..)| pos);
            let mut after = delta.clone();
            fold(&mut after, run);
            for &i in &group[..done] {
                let l = &mut lanes[i];
                let bubble = if l.cpu.pc() == fall { 0 } else { penalty };
                l.take(&sb, &after, bubble);
                if end.stopped {
                    finalize(l.stats, l.sb, l.cpu, stops[i]);
                }
            }
            if !end.stopped {
                split(lanes, group[..done].iter().copied(), work);
            }
            if let Some((pos, k, t)) = end.failed {
                let l = &mut lanes[group[pos]];
                l.take(&start, &delta, 0);
                let prefix = &run.body[..k];
                let next = issue_static(l.sb, prefix);
                *trap = Some((group[pos], trapped(l.cpu, l.sb, l.stats, prefix, next, t)));
                for &i in &group[pos + 1..] {
                    lanes[i].take(&start, &delta, 0);
                }
            }
        }
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
        assert_spmd_matches_alone_from(bp, config, || init.to_vec(), bytes)
    }

    /// [`assert_spmd_matches_alone`] with a fresh set of lanes from `make`
    /// for each of the two runs (lanes that share memory share it within
    /// one run only).
    fn assert_spmd_matches_alone_from<M: Memory + Clone>(
        bp: &BlockProgram<M>,
        config: &RunConfig,
        make: impl Fn() -> Vec<LaneState<M>>,
        bytes: fn(&M) -> Vec<u8>,
    ) -> Result<Vec<StopReason>, Trap> {
        let mut alone = make();
        let mut want = Vec::new();
        for l in &mut alone {
            let r = resume_blocks(&mut l.cpu, bp, &mut l.mem, config, &mut l.sb, &mut l.stats);
            want.push(r);
            if r.is_err() {
                break;
            }
        }
        let mut grouped = make();
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

    /// `rd` = 0x100, or an unmapped address on hart `victim`, without a
    /// branch. Reads the hart id from `t0`; clobbers `t1`–`t3`.
    fn addr_or_unmapped_on(a: &mut Assembler, victim: i32, rd: Reg) {
        a.li(Reg::T1, victim);
        a.xor(Reg::T2, Reg::T0, Reg::T1);
        a.sltu(Reg::T2, Reg::Zero, Reg::T2);
        a.addi(Reg::T2, Reg::T2, -1);
        a.lui(Reg::T3, 0x4000_0000);
        a.and(Reg::T2, Reg::T2, Reg::T3);
        a.addi(rd, Reg::T2, 0x100);
    }

    #[test]
    fn spmd_trap_at_every_block_position_of_first_middle_and_last_lane() {
        const LEN: usize = 6;
        let lanes = fresh_lanes(5);
        for victim in [0, 2, 4] {
            for at in 0..LEN {
                let program = program_of(|a| {
                    // The lanes stay one group up to the trapping block.
                    a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
                    addr_or_unmapped_on(a, victim, Reg::A2);
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

    /// Four lanes, and more lanes than two full groups hold.
    #[test]
    fn spmd_budget_straddling_a_block() {
        let program = program_of(|a| load_loop(a, 6));
        for n in [4, MANY] {
            let mut lanes = fresh_lanes(n);
            // Unequal histories: lane `i` is `i % 4` instructions nearer
            // its budget.
            for (i, l) in lanes.iter_mut().enumerate() {
                l.stats.retired = (i % 4) as u64;
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
            assert!(
                budget_stops > 50 * n / 4 && exits > 10 * n / 4,
                "{n} lanes: {budget_stops} budget stops, {exits} exits"
            );
        }
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

    // --- Groups of at most MAX_GROUP lanes --------------------------------

    /// More lanes than two full groups hold.
    const MANY: u32 = 2 * MAX_GROUP as u32 + 22;

    #[test]
    fn split_fills_groups_of_at_most_max_group_lanes_queued_by_lowest_lane() {
        const N: usize = 5 * MAX_GROUP;
        // Four (PC, scoreboard) keys, interleaved, holding 8/15, 2/15,
        // 4/15 and 1/15 of the lanes.
        let mut states = fresh_lanes(N as u32);
        let key = |i: usize| (i.is_multiple_of(3), i.is_multiple_of(5));
        for (i, l) in states.iter_mut().enumerate() {
            let (other_pc, late) = key(i);
            l.cpu.set_pc(0x8000_0000 + if other_pc { 0x40 } else { 0 });
            if late {
                l.sb.advance_to(40);
            }
        }
        let lanes: Vec<Lane<'_, DenseMemory>> = states
            .iter_mut()
            .map(|l| Lane { cpu: &mut l.cpu, mem: &mut l.mem, sb: &mut l.sb, stats: &mut l.stats })
            .collect();
        // All lanes, and the odd ones (a group's lanes after a divergence).
        for step in [1, 2] {
            let members: Vec<usize> = (step - 1..N).step_by(step).collect();
            let mut work = VecDeque::new();
            split(&lanes, members.iter().copied(), &mut work);
            // Each key's lanes, ascending, cut into MAX_GROUP-lane groups;
            // the groups in order of their lowest lane.
            let mut want: Vec<Vec<usize>> = Vec::new();
            for k in [(false, false), (false, true), (true, false), (true, true)] {
                let of_key: Vec<usize> = members.iter().copied().filter(|&i| key(i) == k).collect();
                want.extend(of_key.chunks(MAX_GROUP).map(<[usize]>::to_vec));
            }
            want.sort_by_key(|g| g[0]);
            let got = Vec::from(work);
            assert!(got.iter().all(|g| g.len() <= MAX_GROUP), "a group exceeds MAX_GROUP");
            assert_eq!(got, want, "members step {step}");
        }
    }

    #[test]
    fn spmd_lowest_trap_in_the_last_lane_of_a_full_group_and_the_first_of_the_next() {
        for victim in [MAX_GROUP as i32 - 1, MAX_GROUP as i32] {
            let program = program_of(|a| {
                a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
                addr_or_unmapped_on(a, victim, Reg::A2);
                a.slli(Reg::T4, Reg::T0, 2);
                let body = a.new_label();
                a.j(body);
                a.bind(body);
                // A store before the trapping load: uop-major, rolled back.
                a.lw(Reg::A6, 0x40, Reg::Zero);
                a.sw(Reg::T0, 0x300, Reg::T4);
                a.lw(Reg::A4, 0, Reg::A2);
                a.add(Reg::A5, Reg::A4, Reg::A6);
                a.sw(Reg::A5, 0x600, Reg::T4);
            });
            let config = RunConfig::default();
            let bp = blocks_of(&program, &config);
            let got = assert_spmd_matches_alone(&bp, &config, &fresh_lanes(MANY), dense_bytes);
            assert!(matches!(got, Err(Trap::Mem { .. })), "victim {victim}: {got:?}");
        }
    }

    /// Lane 100 traps in the first block of the second group while the
    /// first group diverges on its loop and lane 10 traps after it: the
    /// lower lane's trap is the one reported.
    #[test]
    fn spmd_low_lane_trapping_late_outranks_a_higher_lane_trapping_first() {
        let program = program_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            addr_or_unmapped_on(a, 100, Reg::A2);
            addr_or_unmapped_on(a, 10, Reg::A3);
            a.andi(Reg::T4, Reg::T0, 3);
            a.addi(Reg::T4, Reg::T4, 1);
            a.slli(Reg::T5, Reg::T0, 2);
            let (first, top) = (a.new_label(), a.new_label());
            a.j(first);
            a.bind(first);
            a.lw(Reg::A4, 0, Reg::A2);
            a.sw(Reg::T4, 0x300, Reg::T5);
            a.bind(top);
            a.lw(Reg::A1, 0x40, Reg::Zero);
            a.add(Reg::A5, Reg::A5, Reg::A1);
            a.addi(Reg::T4, Reg::T4, -1);
            a.bnez(Reg::T4, top);
            a.lw(Reg::A4, 0, Reg::A3);
            a.sw(Reg::A5, 0x600, Reg::T5);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(MANY);
        for l in &mut lanes {
            l.mem.store(0x40, 4, 3).unwrap();
        }
        let got = assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes);
        assert!(matches!(got, Err(Trap::Mem { .. })), "{got:?}");
    }

    /// Odd lanes enter later, so the even lanes 0, 2, …, 126 fill one
    /// group that a branch on `hart < MAX_GROUP` splits at lane 64; both
    /// sides regroup, rejoin and diverge again on a loop of `hart % 4 + 1`
    /// trips.
    #[test]
    fn spmd_divergence_at_the_cap_boundary_regroups_both_sides() {
        let program = program_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slti(Reg::T1, Reg::T0, MAX_GROUP as i32);
            a.slli(Reg::T2, Reg::T0, 2);
            let (start, low, join, top) = (a.new_label(), a.new_label(), a.new_label(), a.new_label());
            a.j(start);
            a.bind(start);
            a.lw(Reg::A1, 0x40, Reg::Zero);
            a.bnez(Reg::T1, low);
            a.addi(Reg::A0, Reg::A1, 100);
            a.j(join);
            a.bind(low);
            a.slli(Reg::A0, Reg::T0, 4);
            a.bind(join);
            a.andi(Reg::T3, Reg::T0, 3);
            a.addi(Reg::T3, Reg::T3, 1);
            a.bind(top);
            a.lw(Reg::A1, 0x40, Reg::Zero);
            a.add(Reg::A0, Reg::A0, Reg::A1);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bnez(Reg::T3, top);
            a.sw(Reg::A0, 0x80, Reg::T2);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(MANY);
        for (i, l) in lanes.iter_mut().enumerate() {
            l.mem.store(0x40, 4, 3).unwrap();
            if i % 2 == 1 {
                l.sb.advance_to(40);
            }
        }
        assert_spmd_matches_alone(&bp, &config, &lanes, dense_bytes).unwrap();
    }

    // --- Uop-major blocks that roll back ----------------------------------

    /// A per-hart read-modify-write through a post-increment store, then
    /// a load that traps on `victim` only, placed first or last in one
    /// uop-major block. A replay that saw the uop-major store (undo
    /// dropped) or the incremented base (post-increment base left out of
    /// the snapshot) stores a different value or at another address.
    fn rollback_program(victim: i32, trap_first: bool) -> Program {
        program_of(|a| {
            // a2 = 0x200 + 16 * hart, holding 7.
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            addr_or_unmapped_on(a, victim, Reg::A3);
            a.slli(Reg::T4, Reg::T0, 4);
            a.addi(Reg::A2, Reg::T4, 0x200);
            a.li(Reg::A5, 7);
            a.sw(Reg::A5, 0, Reg::A2);
            let (body, done) = (a.new_label(), a.new_label());
            a.j(body);
            a.bind(body);
            if trap_first {
                a.lw(Reg::A4, 0, Reg::A3);
            }
            a.lw(Reg::A5, 0, Reg::A2);
            a.addi(Reg::A5, Reg::A5, 1);
            a.p_sw(Reg::A5, 4, Reg::A2);
            if !trap_first {
                a.lw(Reg::A4, 0, Reg::A3);
            }
            a.j(done);
            a.bind(done);
        })
    }

    #[test]
    fn spmd_trap_in_top_lane_after_a_store_rolls_the_block_back() {
        let program = rollback_program(4, false);
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let got = assert_spmd_matches_alone(&bp, &config, &fresh_lanes(5), dense_bytes);
        assert!(matches!(got, Err(Trap::Mem { .. })), "{got:?}");
    }

    #[test]
    fn spmd_trap_in_middle_lane_at_first_and_last_uop_rolls_the_block_back() {
        for trap_first in [true, false] {
            let program = rollback_program(2, trap_first);
            let config = RunConfig::default();
            let bp = blocks_of(&program, &config);
            let got = assert_spmd_matches_alone(&bp, &config, &fresh_lanes(5), dense_bytes);
            assert!(matches!(got, Err(Trap::Mem { .. })), "trap first {trap_first}: {got:?}");
        }
    }

    /// The address of [`Shared`]'s device register.
    const DEV: u32 = 0xf00;

    /// Memory all lanes of one run share, like the cluster's L1, with one
    /// device register at [`DEV`] that counts the stores to it (a load
    /// reads the count) and peeks as `None`, like TeraPool's control
    /// region.
    #[derive(Clone)]
    struct Shared(std::rc::Rc<std::cell::RefCell<(DenseMemory, u32)>>);

    impl Memory for Shared {
        fn load(&mut self, addr: u32, size: u32) -> Result<u32, crate::MemError> {
            let mut s = self.0.borrow_mut();
            if addr == DEV {
                return Ok(s.1);
            }
            s.0.load(addr, size)
        }
        fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), crate::MemError> {
            let mut s = self.0.borrow_mut();
            if addr == DEV {
                s.1 += 1;
                return Ok(());
            }
            s.0.store(addr, size, value)
        }
        fn amo(&mut self, op: terasim_riscv::AmoOp, addr: u32, value: u32) -> Result<u32, crate::MemError> {
            self.0.borrow_mut().0.amo(op, addr, value)
        }
        fn peek(&self, addr: u32, size: u32) -> Option<u32> {
            let s = self.0.borrow();
            (addr != DEV).then(|| s.0.peek(addr, size)).flatten()
        }
    }

    /// `n` lanes over one fresh [`Shared`] memory.
    fn shared_lanes(n: u32) -> Vec<LaneState<Shared>> {
        let shared = Shared(std::rc::Rc::new(std::cell::RefCell::new((DenseMemory::new(0, 0x1000), 0))));
        fresh_lanes(n)
            .into_iter()
            .map(|l| LaneState { cpu: l.cpu, mem: shared.clone(), sb: l.sb, stats: l.stats })
            .collect()
    }

    fn shared_bytes(m: &Shared) -> Vec<u8> {
        let s = m.0.borrow();
        let mut bytes = s.0.read_bytes(0, 0x1000).to_vec();
        bytes.extend(s.1.to_le_bytes());
        bytes
    }

    /// Runs `body` as one block of a converged group over shared memory
    /// (`t1` = 4 × hart, `a0` = 0x40, `a1` = 1 on entry) and checks it
    /// against the lanes run alone. Only lane-major order gives each lane
    /// the shared word or device count its predecessors left.
    fn shared_block_matches_alone(body: impl FnOnce(&mut Assembler)) {
        let program = program_of(|a| {
            a.li(Reg::A0, 0x40);
            a.li(Reg::A1, 1);
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slli(Reg::T1, Reg::T0, 2);
            let (start, done) = (a.new_label(), a.new_label());
            a.j(start);
            a.bind(start);
            body(a);
            a.j(done);
            a.bind(done);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        assert_spmd_matches_alone_from(&bp, &config, || shared_lanes(6), shared_bytes).unwrap();
    }

    #[test]
    fn spmd_control_region_store_aborts_the_block_and_replays_it_lane_major() {
        shared_block_matches_alone(|a| {
            a.li(Reg::T2, DEV as i32);
            a.sw(Reg::A1, 0, Reg::T2);
            a.lw(Reg::A3, 0, Reg::T2);
            a.sw(Reg::A3, 0x100, Reg::T1);
        });
    }

    /// Each lane takes a ticket from one shared counter. Lanes run alone
    /// in order take tickets 0, 1, 2, …, so the groups of more lanes than
    /// one group holds must run in order of their lowest lane.
    #[test]
    fn spmd_groups_of_many_lanes_take_shared_tickets_in_lane_order() {
        let program = program_of(|a| {
            a.li(Reg::A0, 0x40);
            a.li(Reg::A1, 1);
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slli(Reg::T1, Reg::T0, 2);
            a.amoadd_w(Reg::A2, Reg::A1, Reg::A0);
            a.sw(Reg::A2, 0x100, Reg::T1);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        assert_spmd_matches_alone_from(&bp, &config, || shared_lanes(MANY), shared_bytes).unwrap();
    }

    #[test]
    fn spmd_amo_and_lr_sc_blocks_stay_lane_major() {
        shared_block_matches_alone(|a| {
            a.amoadd_w(Reg::A2, Reg::A1, Reg::A0);
            a.lw(Reg::A3, 0, Reg::A0);
            a.add(Reg::A4, Reg::A2, Reg::A3);
            a.sw(Reg::A4, 0x100, Reg::T1);
        });
        shared_block_matches_alone(|a| {
            a.inst(Inst::LrW { rd: Reg::A2, rs1: Reg::A0 });
            a.addi(Reg::A2, Reg::A2, 1);
            a.inst(Inst::ScW { rd: Reg::A3, rs1: Reg::A0, rs2: Reg::A2 });
            a.lw(Reg::A4, 0, Reg::A0);
            a.sw(Reg::A4, 0x100, Reg::T1);
            a.sw(Reg::A3, 0x180, Reg::T1);
        });
    }

    /// NaN results of every sign and source: binary16 operands per lane
    /// `(a, b, c)`, `fnmsub.h` computing `-(a*b) + c`.
    const NAN_CASES: [(u16, u16, u16); 11] = [
        (0x7e00, 0x3c00, 0x3c00), // +qNaN * 1 + 1
        (0xfe00, 0x3c00, 0x3c00), // -qNaN * 1 + 1
        (0x7d01, 0x3c00, 0x0000), // +sNaN with payload
        (0xfc01, 0x4000, 0x8000), // -sNaN with payload
        (0x3c00, 0x3c00, 0xfe55), // NaN addend only
        (0x7e00, 0x3c00, 0xfe00), // NaNs of both signs
        (0xfe00, 0xfe00, 0x7e00), // three NaNs
        (0x7c00, 0x0000, 0x3c00), // Inf * 0: invalid
        (0x7c00, 0x3c00, 0x7c00), // -(Inf) + Inf: invalid
        (0xfc00, 0x3c00, 0xfc00), // -(-Inf) + -Inf: invalid
        (0x3c00, 0x4000, 0x3800), // no NaN: 0.5 - 2 = -1.5
    ];

    #[test]
    fn spmd_nan_producing_fnmsub_h_matches_lanes_alone() {
        let program = program_of(|a| {
            a.lw(Reg::A2, 0x40, Reg::Zero);
            a.lw(Reg::A3, 0x44, Reg::Zero);
            a.lw(Reg::A4, 0x48, Reg::Zero);
            let body = a.new_label();
            a.j(body);
            a.bind(body);
            a.fnmsub_h(Reg::A5, Reg::A2, Reg::A3, Reg::A4);
            a.fmadd_h(Reg::A6, Reg::A2, Reg::A3, Reg::A4);
            a.vfcdotpex_c_s_h(Reg::A4, Reg::A2, Reg::A3);
            a.sw(Reg::A5, 0x80, Reg::Zero);
            a.sw(Reg::A6, 0x84, Reg::Zero);
            a.sw(Reg::A4, 0x88, Reg::Zero);
        });
        let config = RunConfig::default();
        let bp = blocks_of(&program, &config);
        let mut lanes = fresh_lanes(NAN_CASES.len() as u32);
        for (l, &(x, y, z)) in lanes.iter_mut().zip(&NAN_CASES) {
            // Words whose upper halves are not the sign extension, so the
            // complex op sees a second, different lane.
            l.mem.store(0x40, 4, u32::from(x) | u32::from(z) << 16).unwrap();
            l.mem.store(0x44, 4, u32::from(y) | u32::from(x) << 16).unwrap();
            l.mem.store(0x48, 4, u32::from(z) | u32::from(y) << 16).unwrap();
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
