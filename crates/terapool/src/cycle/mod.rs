//! The cycle-accurate mode — this project's stand-in for RTL simulation.
//!
//! A cycle-stepped model of the whole cluster with the
//! micro-architectural effects the fast mode deliberately omits (paper §V-B):
//!
//! * **Bank conflicts**: each scratchpad bank services one request per
//!   cycle; concurrent requests arbitrate in core-id order (`stall-lsu`).
//! * **Shared tile ports**: the 8 cores of a tile share one outbound port
//!   to the cluster interconnect (paper §II), serializing remote requests —
//!   the dominant contention the fast mode's 9-cycle assumption absorbs.
//! * **NUMA pipeline stages** at subgroup/group/cluster boundaries: a load
//!   takes `1 + 2·hops` cycles without contention, up to the paper's 9.
//! * **Atomics serialized at the bank** (the barrier hot spot).
//! * **Shared per-tile I$** with line refills from L2 (`stall-ins`).
//! * **Non-pipelined FP divide/sqrt** unit back-pressure (`stall-acc`).
//! * **RAW dependencies** via per-register ready times (`stall-raw`).
//! * **`wfi` sleep** until the barrier wake (`stall-wfi`).
//!
//! Architectural execution reuses the exact same [`Cpu`] semantics as the
//! fast mode, so the two backends produce bit-identical memory contents —
//! only timing differs. One deliberate approximation is documented on
//! [`CycleSim::run`]: values are read at issue time while timing uses the
//! grant time, which is exact for data-race-free guests like the MMSE
//! workload.
//!
//! # Scheduling
//!
//! Two schedulers drive the same per-instruction model, on every
//! topology:
//!
//! * [`CycleSim::run`] / [`CycleSim::run_parallel`] — the
//!   **epoch-sharded** engine: each *group* of the topology is an
//!   independent arbitration domain ([`domain::DomainEngine`]; a
//!   single-group cluster is one domain) and domains advance in lockstep
//!   epochs sized to the minimum cross-group latency
//!   ([`Topology::CROSS_GROUP_HOP`]). Intra-group traffic — the common
//!   case by construction of the tile-local sequential address map — is
//!   simulated entirely inside a domain with no synchronization;
//!   cross-group and L2/control accesses are deferred into per-domain
//!   mailboxes that the owner of each target serves at the epoch
//!   boundary, in global `(issue cycle, core id)` order restricted to
//!   that target ([`epoch`]). Results are bit-identical for every host
//!   thread count; `run` is `run_parallel` on one thread.
//!
//!   Inside a domain, an event step touches only the cores that can
//!   actually issue: a double-buffered ready bitmap serves the dominant
//!   issue-again-next-cycle case, backed by a calendar-wheel queue for
//!   multi-cycle wakes. Parked (`wfi`) cores leave the queue entirely and
//!   are re-queued at the boundary that delivers their wake, never
//!   polled. Issue runs from the pre-lowered micro-op table
//!   ([`terasim_iss::uop`]: operand indices, timing metadata and a direct
//!   kernel pointer per instruction, resolved once at load), shift-based
//!   bank decoding and a tile-pair hop table.
//!
//!   Two shortcuts inside a domain change nothing in the results. A core
//!   that is its domain's only event before the window end is *solo*:
//!   wakes only arrive at boundaries, so the domain drives it in a tight
//!   loop at `max(wake_at, now + 1)` without the wheel or the ready
//!   bitmaps. In windows the adaptive epoch driver extended (no
//!   possibly-remote uop can issue there), a solo core issues through
//!   [`CycleSim::issue_run`]: a *straight run* — consecutive
//!   [`UopMeta::elide_ok`] uops up to the next control flow, never a CSR
//!   or `System` uop, looked up per PC in [`RunTables`] — skips the
//!   scoreboard while the core's hazard bound has passed, and issues
//!   whole, clipped to the window end and the instruction budget, with
//!   one budget test, one hazard test and one `mcycle` publication, and
//!   still one I$ probe and WAW update per uop. Every other core issues
//!   one uop at a time on the full path. [`EpochReport::solo_instructions`]
//!   counts what the solo drives retired.
//! * [`CycleSim::run_naive`] — the full-scan scheduler, retained as the
//!   semantic reference: every core context is rescanned on every event
//!   step, with its own boundary replay. The `differential`/`parallel`
//!   integration tests pin both schedulers to bit-identical
//!   [`CycleStats`] and memory contents.
//!
//! # The epoch-deferred model
//!
//! Both schedulers implement the same *epoch-deferred* semantics on every
//! topology, so they stay mutually bit-identical while the sharded engine
//! runs groups concurrently:
//!
//! * Time is divided into epochs of [`Topology::epoch_len`] cycles (the
//!   minimum one-way cross-group hop, 4).
//! * A memory access whose target bank lies in another group captures its
//!   operands at issue, claims its LSU slot and tile port immediately,
//!   and is *deferred*: the bank grant, the architectural effect and the
//!   destination writeback happen at the next epoch boundary, replayed in
//!   global `(issue cycle, core id)` order. Until then the issuing core's
//!   scoreboard carries a **lower bound** on the completion time; the
//!   bound is at least the uncontended cross-group round trip (≥ 9
//!   cycles), which exceeds the epoch length, so the boundary always
//!   corrects it before any dependent instruction can observe it.
//! * L2/control-region accesses (shared by every group) are deferred the
//!   same way — loads included, so a core's own deferred store forwards
//!   to its later load through the boundary replay's `(cycle, core)`
//!   order, and in particular the barrier wake-all register, so `wfi`
//!   wake-ups are delivered at epoch boundaries. Nothing mutates those
//!   regions inside an epoch.
//!
//! On a single-group topology no L1 access is ever remote, so only the
//! L2/control accesses defer, and `wfi` wakes still land on the epoch
//! grid.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use terasim_iss::uop::UopProgram;
use terasim_iss::{Cpu, InstClass, LatencyModel, MemOp, Memory, Outcome, Program, Trap, UopMeta, NO_REG};
use terasim_riscv::{Image, Inst, Reg};

use crate::artifacts::SimArtifacts;
use crate::cancel::CancelToken;
use crate::mem::{ClusterMem, CoreMem, DomainBanks, TurboMem, XRequest};
use crate::pool::MemPool;
use crate::topology::{L1Decode, Topology};

mod domain;
mod epoch;
mod reach;

pub(crate) use reach::ReachMap;

/// Per-core counters of the cycle-accurate run, matching the Figure 8
/// breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Retired instructions (each occupies one issue cycle).
    pub instructions: u64,
    /// Cycles lost to read-after-write dependencies.
    pub stall_raw: u64,
    /// Cycles lost to interconnect/bank contention.
    pub stall_lsu: u64,
    /// Cycles lost to I$ refills.
    pub stall_ins: u64,
    /// Cycles lost to full functional-unit pipelines (div/sqrt busy).
    pub stall_acc: u64,
    /// Cycles idling in `wfi` at synchronization barriers.
    pub stall_wfi: u64,
    /// Cycle at which the core finished (`ecall`).
    pub done_at: u64,
}

impl CycleStats {
    /// Total accounted cycles (instructions + all stall classes).
    pub fn total(&self) -> u64 {
        self.instructions + self.stall_raw + self.stall_lsu + self.stall_ins + self.stall_acc + self.stall_wfi
    }

    /// Adds another core's counters into this accumulator (`done_at`
    /// takes the max: the aggregate finishes when its last core does).
    pub fn accumulate(&mut self, other: &CycleStats) {
        self.instructions += other.instructions;
        self.stall_raw += other.stall_raw;
        self.stall_lsu += other.stall_lsu;
        self.stall_ins += other.stall_ins;
        self.stall_acc += other.stall_acc;
        self.stall_wfi += other.stall_wfi;
        self.done_at = self.done_at.max(other.done_at);
    }
}

/// Result of a cycle-accurate cluster run.
#[derive(Debug, Clone)]
pub struct CycleResult {
    /// Per-core counters.
    pub per_core: Vec<CycleStats>,
    /// Makespan: the cycle the last core finished.
    pub cycles: u64,
    /// `true` if the run ended in a guest deadlock: the listed cores were
    /// parked in `wfi` with nobody left to wake them. The per-core stats
    /// are then partial (an RTL run would hang here).
    pub deadlocked: bool,
    /// Hart ids still parked when the run ended (empty on a clean finish).
    pub parked: Vec<u32>,
    /// Hart ids stopped by the [`CycleSim::max_instructions`] safety net
    /// rather than a clean guest exit (empty when no budget tripped).
    pub budgeted: Vec<u32>,
    /// The run was abandoned at a safe point (event step or epoch
    /// boundary) because its [`CancelToken`](crate::CancelToken) was
    /// raised; statistics are partial.
    pub cancelled: bool,
}

impl CycleResult {
    /// Sums the per-core counters (for cluster-level breakdowns).
    pub fn aggregate(&self) -> CycleStats {
        let mut acc = CycleStats::default();
        for s in &self.per_core {
            acc.accumulate(s);
        }
        acc
    }

    /// Sums the per-core counters within each *group* of `topo` — the
    /// sharded engine's arbitration domains — for per-domain breakdowns.
    /// Groups with no simulated core (partial runs) report zeros.
    pub fn aggregate_groups(&self, topo: &Topology) -> Vec<CycleStats> {
        let per_group = topo.cores_per_group() as usize;
        let mut out = vec![CycleStats::default(); topo.num_domains() as usize];
        for (core, s) in self.per_core.iter().enumerate() {
            out[core / per_group].accumulate(s);
        }
        out
    }
}

/// Scheduling telemetry of the most recent sharded run: how often the
/// adaptive epoch driver extended or trimmed its windows and how much
/// simulated time they covered. A side channel on [`CycleSim`] rather
/// than a [`CycleResult`] field, so results stay directly comparable
/// across engines and epoch modes (the bit-identity contract).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochReport {
    /// Scheduling windows driven (each ends in one boundary replay).
    pub windows: u64,
    /// Windows granted longer than one base epoch.
    pub extended: u64,
    /// Sole-active windows trimmed back by a deferred request before
    /// their granted boundary.
    pub trimmed: u64,
    /// Simulated cycles covered by all windows together.
    pub cycles: u64,
    /// Instructions retired inside *solo drives*: stretches in which a
    /// core was its domain's only event before the window end and was
    /// stepped without the ready queue (see the module docs,
    /// *Scheduling*).
    pub solo_instructions: u64,
}

impl EpochReport {
    /// Mean simulated cycles per window — the base epoch length
    /// (`Topology::epoch_len`) when nothing was ever extended, larger
    /// when the quiescence predicate fired.
    pub fn avg_epoch_len(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.cycles as f64 / self.windows as f64
        }
    }

    /// Percentage of windows that were extended grants.
    pub fn extended_pct(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            100.0 * self.extended as f64 / self.windows as f64
        }
    }
}

/// Interior-mutable accumulator behind [`EpochReport`]: the epoch driver
/// records through a `&CycleSim`, so the counters are atomics (only host
/// thread 0 ever writes; relaxed ordering suffices because the snapshot
/// is taken after the run joins).
#[derive(Debug, Default)]
struct EpochCounters {
    windows: AtomicU64,
    extended: AtomicU64,
    trimmed: AtomicU64,
    cycles: AtomicU64,
    solo_instructions: AtomicU64,
}

impl EpochCounters {
    fn reset(&self) {
        self.windows.store(0, Ordering::Relaxed);
        self.extended.store(0, Ordering::Relaxed);
        self.trimmed.store(0, Ordering::Relaxed);
        self.cycles.store(0, Ordering::Relaxed);
        self.solo_instructions.store(0, Ordering::Relaxed);
    }

    fn record(&self, extended: bool, trimmed: bool, span: u64) {
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.extended.fetch_add(u64::from(extended), Ordering::Relaxed);
        self.trimmed.fetch_add(u64::from(trimmed), Ordering::Relaxed);
        self.cycles.fetch_add(span, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EpochReport {
        EpochReport {
            windows: self.windows.load(Ordering::Relaxed),
            extended: self.extended.load(Ordering::Relaxed),
            trimmed: self.trimmed.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            solo_instructions: self.solo_instructions.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    Ready,
    Parked,
    Done,
}

/// Outstanding-request capacity of the Snitch LSU; a full queue
/// back-pressures issue (`stall-lsu`).
const LSU_DEPTH: usize = 4;

struct CoreCtx<M> {
    cpu: Cpu,
    mem: M,
    reg_ready: [u64; 32],
    /// Per-register architectural write counters: bumped on every issued
    /// destination/post-increment write. A deferred access captures the
    /// counter of its destination at issue; the boundary replay writes
    /// the register back only if the counter is unchanged, so a later
    /// same-epoch writer (a WAW over a dead load — legal, if pointless)
    /// is never clobbered by the replay.
    reg_wseq: [u64; 32],
    wake_at: u64,
    parked_at: u64,
    fpu_busy_until: u64,
    /// Completion times of in-flight memory requests (one per LSU slot).
    lsu_free: [u64; LSU_DEPTH],
    state: CoreState,
    stats: CycleStats,
    /// Upper bound on every hazard the elided run step skips
    /// checking (`reg_ready`, `lsu_free`, `fpu_busy_until`): while it is
    /// `≤ now`, an elidable uop provably stalls for `+0` cycles on every
    /// class and the full checks can be skipped. `u64::MAX` means
    /// "unknown — rescan lazily" and is set wherever the full issue path
    /// or the boundary replay rewrites scoreboard state.
    hazard_until: u64,
    /// Cached `topo.tile_of_core` (hot-path index).
    tile: u32,
    /// The core was stopped by the `max_instructions` safety net (set in
    /// the budget branch that already guards every issue).
    budget_hit: bool,
}

impl<M> CoreCtx<M> {
    /// Records the architectural register writes of the instruction that
    /// just issued (destination and post-increment base, [`NO_REG`]
    /// ignored) in the WAW counters.
    #[inline]
    fn note_reg_writes(&mut self, dst: u8, post_inc: u8) {
        if dst != NO_REG {
            self.reg_wseq[dst as usize] += 1;
        }
        if post_inc != NO_REG {
            self.reg_wseq[post_inc as usize] += 1;
        }
    }
}

/// Direct-mapped, per-tile shared instruction cache model, probed by the
/// engine's domains and by the reference [`CycleSim::run_naive`] alike:
/// shift/mask indexing (line size and set count are powers of two on
/// every TeraPool configuration) and a last-line memo — the last line
/// touched is always resident in a direct-mapped cache, so the common
/// straight-line case skips the set lookup entirely.
struct FastICache {
    /// `Some((log2(line), sets - 1))` when line size and set count are
    /// powers of two (true for every TeraPool configuration): branch-free
    /// shift/mask indexing. `None` falls back to the div/mod path for
    /// custom geometries.
    shift: Option<(u32, usize)>,
    line: u32,
    sets: Vec<u32>,
    last_line: u32,
}

impl FastICache {
    fn new(bytes: u32, line: u32) -> Self {
        let sets = (bytes / line) as usize;
        let shift =
            (line.is_power_of_two() && sets.is_power_of_two()).then(|| (line.trailing_zeros(), sets - 1));
        Self { shift, line, sets: vec![u32::MAX; sets], last_line: u32::MAX }
    }

    /// Returns `true` on hit; installs the line on miss.
    #[inline]
    fn access(&mut self, pc: u32) -> bool {
        let line_addr = match self.shift {
            Some((shift, _)) => pc >> shift,
            None => pc / self.line,
        };
        if line_addr == self.last_line {
            return true;
        }
        let idx = match self.shift {
            Some((_, mask)) => line_addr as usize & mask,
            None => line_addr as usize % self.sets.len(),
        };
        self.last_line = line_addr;
        if self.sets[idx] == line_addr {
            true
        } else {
            self.sets[idx] = line_addr;
            false
        }
    }
}

/// Hot-path lookup tables derived from the topology and program: the
/// fully lowered micro-op table (kernel pointers + operand records +
/// timing metadata, resolved once at load — see [`terasim_iss::uop`]),
/// the straight-run table, plus the topology-derived hop table and
/// shift-based bank decode.
///
/// Immutable after construction and shared read-only by every engine (and
/// every job of a batch) through [`SimArtifacts::cycle_tables`].
pub(crate) struct RunTables {
    uops: UopProgram<TurboMem>,
    /// Per text slot: the length (saturating at 255) of the *straight
    /// run* starting there — consecutive [`UopMeta::elide_ok`] uops up to
    /// and including the first control-flow uop. 0 where no run starts:
    /// an ineligible or undecoded slot, a CSR access (it can read
    /// `mcycle`, which a run publishes only once, at its end) or a
    /// `System` uop (`wfi`, `ecall`, `ebreak`, `fence`). Indexed per PC,
    /// so entering a run in its middle (a `jalr`) still finds the rest.
    runs: Vec<u8>,
    text_base: u32,
    /// `request_latency` for every (core tile, bank tile) pair.
    hops: Vec<u8>,
    num_tiles: u32,
    /// The L1 address decode (agrees with `Topology::l1_slot`).
    decode: L1Decode,
}

impl RunTables {
    pub(crate) fn new(topo: Topology, program: &Program, latency: &LatencyModel) -> Self {
        let uops = UopProgram::lower(program, latency);

        // One backward pass: a run is its first uop plus the run after it,
        // unless that uop is control flow (a run ends at its terminator).
        let text_base = program.text_base();
        let mut runs = vec![0u8; program.len()];
        for i in (0..runs.len()).rev() {
            let pc = text_base.wrapping_add(4 * i as u32);
            let (Some(inst), Some(lu)) = (program.fetch(pc), uops.fetch(pc)) else { continue };
            let meta = &lu.meta;
            if !meta.elide_ok || meta.class == InstClass::System || matches!(inst, Inst::Csr { .. }) {
                continue;
            }
            runs[i] =
                if meta.is_control_flow { 1 } else { runs.get(i + 1).map_or(1, |&n| n.saturating_add(1)) };
        }

        let num_tiles = topo.num_tiles();
        let mut hops = vec![0u8; (num_tiles * num_tiles) as usize];
        for ct in 0..num_tiles {
            for bt in 0..num_tiles {
                let hop = if ct == bt {
                    0
                } else if topo.subgroup_of_tile(ct) == topo.subgroup_of_tile(bt) {
                    1
                } else if topo.group_of_tile(ct) == topo.group_of_tile(bt) {
                    2
                } else {
                    Topology::CROSS_GROUP_HOP as u8
                };
                hops[(ct * num_tiles + bt) as usize] = hop;
            }
        }

        Self { uops, runs, text_base, hops, num_tiles, decode: L1Decode::new(topo) }
    }

    /// Length of the straight run starting at `pc` (0: none starts there).
    #[inline]
    fn run_len(&self, pc: u32) -> u64 {
        if pc & 3 != 0 {
            return 0;
        }
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        self.runs.get(idx).map_or(0, |&n| u64::from(n))
    }

    #[inline]
    fn hop(&self, core_tile: u32, bank_tile: u32) -> u64 {
        u64::from(self.hops[(core_tile * self.num_tiles + bank_tile) as usize])
    }

    /// Bank of an L1 address, as [`Topology::l1_slot`] gives it.
    #[inline]
    fn l1_bank(&self, addr: u32) -> Option<u32> {
        self.decode.bank(addr)
    }

    /// Tile hosting `bank` (shift-based when possible).
    #[inline]
    fn tile_of_bank(&self, bank: u32) -> u32 {
        self.decode.tile_of_bank(bank)
    }
}

/// Completes issue of a *deferred* memory instruction: captures operands,
/// applies the issue-time architectural effects the kernel would have
/// applied before/after the access itself (post-increment writeback,
/// `sc.w` resolution against the hart-local reservation, the `lr.w`
/// reservation, retire + scoreboard), and queues the [`XRequest`] whose
/// replay at the epoch boundary performs the access, the destination
/// writeback and the grant-time scoreboard correction.
///
/// `result_latency` is the issue-time completion estimate: exact for
/// L2/control targets (fixed 16 cycles), a lower bound for remote banks
/// (the uncontended round trip) that the boundary replay corrects before
/// any dependent instruction can observe it.
#[allow(clippy::too_many_arguments)]
fn defer_issue<M: Memory>(
    ctx: &mut CoreCtx<M>,
    op: MemOp,
    dst: u8,
    post_inc: u8,
    value_reg: u8,
    base: u32,
    ea_offset: i32,
    pc: u32,
    addr: u32,
    now: u64,
    result_latency: u64,
    slot: usize,
    bank: u32,
    depart: u64,
    hop: u8,
    outbox: &mut Vec<XRequest>,
) {
    // The kernel writes rd before the post-increment base; when they
    // alias, the base update wins — encode that by suppressing the
    // deferred writeback (the replayed load still runs for its trap and
    // bank-timing effects).
    let rd = if post_inc != NO_REG && dst == post_inc { NO_REG } else { dst };
    // Operand capture happens before any register update below, so
    // `value` is exact even when the value register aliases the base.
    let mut value = 0u32;
    let mut sc_success = false;
    match op {
        MemOp::Load { .. } => {}
        MemOp::LoadReserved => ctx.cpu.set_reservation(Some(addr)),
        MemOp::Store { .. } => value = ctx.cpu.reg(Reg::from_num(u32::from(value_reg) & 31)),
        MemOp::StoreConditional => {
            value = ctx.cpu.reg(Reg::from_num(u32::from(value_reg) & 31));
            sc_success = ctx.cpu.reservation() == Some(addr);
            ctx.cpu.set_reg(Reg::from_num(u32::from(dst) & 31), u32::from(!sc_success));
            ctx.cpu.set_reservation(None);
            // rd got its value at issue; keep it for the scoreboard
            // correction only — the replay never writes it back.
        }
        MemOp::Amo(_) => value = ctx.cpu.reg(Reg::from_num(u32::from(value_reg) & 31)),
        MemOp::None => unreachable!("only memory operations are deferred"),
    }
    if post_inc != NO_REG {
        ctx.cpu.set_reg(Reg::from_num(u32::from(post_inc) & 31), base.wrapping_add(ea_offset as u32));
    }
    // Bump the WAW counters for this op's own (logical) writes, then
    // capture rd's counter: the replay writes rd back only while it is
    // still the last writer — a later same-epoch writer wins, exactly as
    // it would against the kernel's issue-time write.
    ctx.note_reg_writes(dst, post_inc);
    let wseq = if rd != NO_REG { ctx.reg_wseq[rd as usize] } else { 0 };
    outbox.push(XRequest {
        cycle: now,
        depart,
        core: ctx.cpu.hart_id(),
        pc,
        addr,
        value,
        bank,
        op,
        rd,
        wseq,
        slot: slot as u8,
        hop,
        sc_success,
    });

    // Issue-time epilogue, mirroring the kernel path: retire, count,
    // scoreboard (lower-bound or exact latency), next-cycle wake. Memory
    // instructions never redirect the PC and always continue.
    ctx.cpu.retire_fallthrough();
    ctx.stats.instructions += 1;
    ctx.cpu.set_mcycle(now);
    if dst != NO_REG {
        ctx.reg_ready[dst as usize] = now + result_latency;
    }
    if post_inc != NO_REG {
        ctx.reg_ready[post_inc as usize] = now + 1;
    }
    // In-flight request: force the run step to rescan (and, until the
    // boundary replay corrects `lsu_free`, refuse) before eliding.
    ctx.hazard_until = u64::MAX;
    ctx.wake_at = now + 1;
}

/// The cycle-accurate cluster simulator.
///
/// A `CycleSim` is *per-job mutable state* — a private [`ClusterMem`] and
/// the per-run knobs below — over a shared immutable [`SimArtifacts`] set
/// (decoded program, lowered micro-op/hop/bank-decode tables, initial
/// image). Build the artifacts once per scenario and instantiate one
/// `CycleSim` per job with [`CycleSim::from_artifacts`]; the convenience
/// constructor [`CycleSim::new`] builds a single-use artifact set
/// internally.
pub struct CycleSim {
    arts: Arc<SimArtifacts>,
    /// Always `Some` until drop, where a pooled job's arena is *taken*
    /// and handed back to the pool by value — ownership transfers, so the
    /// parked handle is immediately recyclable.
    mem: Option<ClusterMem>,
    /// I$ refill penalty (L2 line fetch over AXI).
    pub icache_refill: u64,
    /// Instruction budget per core (safety net).
    pub max_instructions: u64,
    /// The pool this job's memory returns to on drop (pooled jobs only —
    /// see [`CycleSim::from_pool`]).
    pool: Option<Arc<MemPool>>,
    /// Cooperative cancellation flag, polled at event steps and epoch
    /// boundaries.
    cancel: Option<CancelToken>,
    /// Set when a run was cancelled mid-flight: the arena holds partial
    /// writes from an abandoned job, so drop quarantines instead of
    /// releasing.
    tainted: bool,
    /// Scheduling telemetry of the most recent sharded run (reset at the
    /// start of each one) — see [`CycleSim::epoch_report`].
    epoch_counters: EpochCounters,
}

impl std::fmt::Debug for CycleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleSim")
            .field("cores", &self.arts.topology().num_cores())
            .field("text_insts", &self.arts.program().len())
            .finish()
    }
}

impl CycleSim {
    /// Builds a simulator: translates the image and loads all segments
    /// (a single-use artifact set; batch drivers build one
    /// [`SimArtifacts`] and use [`CycleSim::from_artifacts`] per job).
    ///
    /// # Errors
    ///
    /// Returns the translation error if the image's text cannot be decoded.
    pub fn new(topo: Topology, image: &Image) -> Result<Self, terasim_iss::TranslateError> {
        Ok(Self::from_artifacts(SimArtifacts::build(topo, image)?))
    }

    /// Instantiates one job over a shared artifact set: fresh per-job
    /// memory (image loaded), shared lowered tables.
    pub fn from_artifacts(arts: Arc<SimArtifacts>) -> Self {
        let mem = arts.fresh_memory();
        Self::with_memory(arts, mem)
    }

    /// Instantiates one job drawing its cluster memory from a recycling
    /// [`MemPool`] (over the pool's own artifact set). The memory arrives
    /// in the exact fresh state and returns to the pool when the
    /// simulator drops — deadlocked or trapped runs included; the pool
    /// resets the arena on reuse.
    pub fn from_pool(pool: &Arc<MemPool>) -> Self {
        let mem = pool.acquire();
        let mut sim = Self::with_memory(Arc::clone(pool.artifacts()), mem);
        sim.pool = Some(Arc::clone(pool));
        sim
    }

    fn with_memory(arts: Arc<SimArtifacts>, mem: ClusterMem) -> Self {
        // Lower the shared cycle tables and the reachability map now, on
        // the first job of the artifact set, so no run's wall time
        // includes them.
        arts.cycle_tables();
        arts.reach();
        Self {
            arts,
            mem: Some(mem),
            icache_refill: 25,
            max_instructions: u64::MAX,
            pool: None,
            cancel: None,
            tainted: false,
            epoch_counters: EpochCounters::default(),
        }
    }

    /// Attaches a cooperative [`CancelToken`], polled at event steps and
    /// epoch boundaries: when raised, the run returns its partial result
    /// with [`CycleResult::cancelled`] set and the job's memory is
    /// quarantined rather than recycled on drop.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = Some(cancel);
    }

    /// Whether this job's cancel token (if any) has been raised (the
    /// sharded engine polls this at epoch boundaries).
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The job's cluster memory (present from construction to drop).
    fn mem(&self) -> &ClusterMem {
        self.mem.as_ref().expect("cluster memory present until drop")
    }

    /// The shared artifact set this job runs over.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    /// The job-private cluster memory.
    pub fn memory(&self) -> &ClusterMem {
        self.mem()
    }

    /// The cluster geometry.
    pub fn topology(&self) -> Topology {
        self.arts.topology()
    }

    /// The translated program.
    pub fn program(&self) -> &Program {
        self.arts.program()
    }

    /// The cycle-engine latency model (part of the shared artifacts).
    fn latency(&self) -> &LatencyModel {
        self.arts.cycle_latency()
    }

    fn fresh_ctx<M: Memory>(&self, core: u32, mem: M) -> CoreCtx<M> {
        let mut cpu = Cpu::new(core);
        cpu.set_pc(self.arts.program().entry());
        CoreCtx {
            cpu,
            mem,
            reg_ready: [0; 32],
            reg_wseq: [0; 32],
            wake_at: 0,
            lsu_free: [0; LSU_DEPTH],
            parked_at: 0,
            fpu_busy_until: 0,
            state: CoreState::Ready,
            stats: CycleStats::default(),
            hazard_until: 0,
            tile: self.arts.topology().tile_of_core(core),
            budget_hit: false,
        }
    }

    /// One core context on the engine-fast memory view (used per domain
    /// by the sharded engine).
    fn make_ctx(&self, core: u32) -> CoreCtx<TurboMem> {
        self.fresh_ctx(core, self.mem().turbo_view(core))
    }

    fn result_of<M>(ctxs: &[CoreCtx<M>]) -> CycleResult {
        let per_core: Vec<CycleStats> = ctxs.iter().map(|c| c.stats).collect();
        let cycles = per_core.iter().map(|s| s.done_at).max().unwrap_or(0);
        let parked: Vec<u32> =
            ctxs.iter().filter(|c| c.state == CoreState::Parked).map(|c| c.cpu.hart_id()).collect();
        let budgeted: Vec<u32> = ctxs.iter().filter(|c| c.budget_hit).map(|c| c.cpu.hart_id()).collect();
        CycleResult { per_core, cycles, deadlocked: !parked.is_empty(), parked, budgeted, cancelled: false }
    }

    /// Runs harts `0..cores` to completion: the epoch-sharded engine on
    /// the calling thread, exactly [`CycleSim::run_parallel`]`(cores, 1)`,
    /// on every topology (a single-group cluster is one domain).
    ///
    /// Within a cycle, cores issue in core-id order (the RTL's round-robin
    /// arbitration collapsed to a fixed priority — deterministic and fair
    /// enough at our level of abstraction). Loads read memory at issue time
    /// but their *timing* uses the bank grant time; for data-race-free
    /// guests the two are indistinguishable.
    ///
    /// Inside a domain only cores whose `wake_at` has arrived are touched
    /// on an event step: a calendar-wheel ready queue keyed on
    /// `(wake_at, core)` replays the full scan's issue order, and parked
    /// cores re-enter the queue at the epoch boundary that delivers their
    /// wake (the module-level *epoch-deferred model* notes). Produces
    /// bit-identical [`CycleStats`] and memory contents to
    /// `run_parallel` at every thread count and to [`CycleSim::run_naive`].
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the topology's core count.
    pub fn run(&mut self, cores: u32) -> Result<CycleResult, Trap> {
        self.run_sharded(cores, 1, true)
    }

    /// Runs the epoch-sharded engine, tainting this job if the run was
    /// cancelled (the sharded driver only sees `&CycleSim`).
    fn run_sharded(&mut self, cores: u32, threads: usize, adaptive: bool) -> Result<CycleResult, Trap> {
        assert!(cores <= self.arts.topology().num_cores(), "core count out of range");
        self.epoch_counters.reset();
        let res = epoch::run_sharded(self, cores, threads, adaptive)?;
        if res.cancelled {
            self.tainted = true;
        }
        Ok(res)
    }

    /// Scheduling telemetry of the most recent [`CycleSim::run`] or
    /// [`CycleSim::run_parallel`], on every topology: window counts,
    /// extension/trim tallies and cycle coverage. All-zero before the
    /// first such run; a fixed-cadence run (the `run_fixed_epochs` test
    /// hook) reports every window as a plain base epoch.
    /// [`CycleSim::run_naive`] keeps its own epoch loop and does not touch
    /// the report.
    pub fn epoch_report(&self) -> EpochReport {
        self.epoch_counters.snapshot()
    }

    /// Runs harts `0..cores` with the epoch-sharded engine, distributing
    /// the topology's arbitration domains (one per group) over up to
    /// `threads` host threads.
    ///
    /// Domains advance in lockstep epochs sized to the minimum
    /// cross-group latency; intra-group traffic is simulated with no
    /// synchronization and cross-group accesses are exchanged at epoch
    /// boundaries (module-level docs). The result — per-core
    /// [`CycleStats`], makespan, deadlock report and memory contents — is
    /// **bit-identical for every `threads` value** and to [`CycleSim::run`]
    /// and [`CycleSim::run_naive`], because the schedule inside an epoch
    /// never depends on thread interleaving.
    ///
    /// `threads` is clamped to `1..=num_domains`, so a single-group
    /// topology (one domain) always runs on the calling thread alone.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart (deterministic:
    /// global `(issue cycle, core id)` order, then replay order — the
    /// same trap the sequential full scan reports).
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the topology's core count.
    pub fn run_parallel(&mut self, cores: u32, threads: usize) -> Result<CycleResult, Trap> {
        self.run_sharded(cores, threads.max(1), true)
    }

    /// Test hook: [`run_parallel`](Self::run_parallel) with the adaptive
    /// epoch grants switched off, so every window is one lockstep base
    /// epoch of the minimum cross-group latency — the reference cadence.
    /// The two cadences are bit-identical; the differential suites pin
    /// it through this hook.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the topology's core count.
    #[doc(hidden)]
    pub fn run_fixed_epochs(&mut self, cores: u32, threads: usize) -> Result<CycleResult, Trap> {
        self.run_sharded(cores, threads.max(1), false)
    }

    /// Runs harts `0..cores` with the full-scan reference scheduler.
    ///
    /// Retained as the semantic baseline: every event step rescans every
    /// core context, clamped to lockstep epochs of
    /// [`Topology::epoch_len`] cycles, and each boundary replays the
    /// deferred requests in global `(cycle, core)` order with its **own**
    /// replay — independent of the sharded engine's owner-computes
    /// boundary — so the differential tests exercise two separate
    /// implementations of the epoch-deferred model on every topology. Use
    /// [`CycleSim::run`] for anything but differential validation.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trap`] raised by any hart.
    ///
    /// # Panics
    ///
    /// Panics if `cores` exceeds the topology's core count.
    pub fn run_naive(&mut self, cores: u32) -> Result<CycleResult, Trap> {
        let topo = self.arts.topology();
        assert!(cores <= topo.num_cores(), "core count out of range");
        let mut ctxs: Vec<CoreCtx<CoreMem>> =
            (0..cores).map(|core| self.fresh_ctx(core, self.mem().core_view(core))).collect();
        let mut icaches: Vec<FastICache> =
            (0..topo.num_tiles()).map(|_| FastICache::new(topo.icache_bytes, topo.icache_line)).collect();
        let mut banks = DomainBanks::whole_cluster(topo);
        let epoch = topo.epoch_len();
        let mut mailbox: Vec<XRequest> = Vec::new();

        let mut now: u64 = 0;
        let mut epoch_end = epoch;
        let mut cancelled = false;
        loop {
            // Safe point: abandon the job between scan passes on a raised
            // cancel token (the deferred mailbox is simply dropped — the
            // result is partial either way).
            if self.cancel_requested() {
                cancelled = true;
                break;
            }
            // Scan passes within the epoch; cross-domain accesses defer
            // into the mailbox (in (cycle, core) order by construction of
            // the cycle-major, core-minor scan).
            let mut alive = false;
            let mut next_event = u64::MAX;
            for ctx in ctxs.iter_mut() {
                match ctx.state {
                    CoreState::Done => continue,
                    // Parked cores wake only at epoch boundaries: the
                    // wake-all register is a (deferred) control store, so
                    // the wake bits cannot move mid-epoch.
                    CoreState::Parked => {
                        alive = true;
                        continue;
                    }
                    CoreState::Ready => {}
                }
                alive = true;
                if ctx.wake_at > now {
                    next_event = next_event.min(ctx.wake_at);
                    continue;
                }
                self.issue_one(ctx, &mut icaches, &mut banks, now, &mut mailbox)?;
                next_event = next_event.min(ctx.wake_at.max(now + 1));
            }
            if !alive && mailbox.is_empty() {
                break;
            }
            if alive {
                let next = next_event.max(now + 1);
                if next < epoch_end {
                    now = next;
                    continue;
                }
            }
            // (The last retiring pass always has `alive == true`, so a
            // non-empty mailbox normally reaches the boundary below; the
            // guard above keeps that true even for degenerate schedules.)

            // Epoch boundary: replay the mailbox in (cycle, core) order
            // against the global reservation books, then deliver wakes.
            mailbox.sort_by_key(|x| (x.cycle, x.core));
            for x in mailbox.drain(..) {
                let granted = (x.bank != u32::MAX).then(|| {
                    let arrive = x.depart + u64::from(x.hop);
                    let busy = if matches!(x.op, MemOp::Amo(_)) { 2 } else { 1 };
                    let slot = banks.local_bank(x.bank);
                    let grant = arrive.max(banks.bank_free[slot]);
                    banks.bank_free[slot] = grant + busy;
                    ((grant + busy - x.cycle) + u64::from(x.hop), grant - (x.cycle + u64::from(x.hop)))
                });
                let ctx = &mut ctxs[x.core as usize];
                // WAW guard, mirroring the epoch driver's source step: rd is
                // only touched while this request is still its last
                // writer (see `CoreCtx::reg_wseq`).
                let owns_rd = x.rd != NO_REG && ctx.reg_wseq[x.rd as usize] == x.wseq;
                if let Some((result_latency, contention)) = granted {
                    ctx.stats.stall_lsu += contention;
                    ctx.lsu_free[x.slot as usize] = x.cycle + result_latency;
                    if owns_rd {
                        ctx.reg_ready[x.rd as usize] = x.cycle + result_latency;
                    }
                }
                let merr = |err| Trap::Mem { pc: x.pc, err };
                match x.op {
                    MemOp::Load { size, signed } => {
                        let raw = ctx.mem.load(x.addr, u32::from(size)).map_err(merr)?;
                        let value = match (size, signed) {
                            (1, true) => raw as u8 as i8 as i32 as u32,
                            (2, true) => raw as u16 as i16 as i32 as u32,
                            _ => raw,
                        };
                        if owns_rd {
                            ctx.cpu.set_reg(Reg::from_num(u32::from(x.rd) & 31), value);
                        }
                    }
                    MemOp::LoadReserved => {
                        let raw = ctx.mem.load(x.addr, 4).map_err(merr)?;
                        if owns_rd {
                            ctx.cpu.set_reg(Reg::from_num(u32::from(x.rd) & 31), raw);
                        }
                    }
                    MemOp::Store { size } => ctx.mem.store(x.addr, u32::from(size), x.value).map_err(merr)?,
                    MemOp::StoreConditional => {
                        if x.sc_success {
                            ctx.mem.store(x.addr, 4, x.value).map_err(merr)?;
                        }
                    }
                    MemOp::Amo(op) => {
                        let old = ctx.mem.amo(op, x.addr, x.value).map_err(merr)?;
                        if owns_rd {
                            ctx.cpu.set_reg(Reg::from_num(u32::from(x.rd) & 31), old);
                        }
                    }
                    MemOp::None => unreachable!("only memory operations are deferred"),
                }
            }
            for ctx in ctxs.iter_mut() {
                if ctx.state == CoreState::Parked && self.mem().wake_pending(ctx.cpu.hart_id()) {
                    let _ = self.mem().take_wake(ctx.cpu.hart_id());
                    ctx.stats.stall_wfi += epoch_end.saturating_sub(ctx.parked_at);
                    ctx.state = CoreState::Ready;
                    ctx.wake_at = epoch_end + 1;
                }
            }

            // Resume at the earliest ready event, fast-forwarding over
            // empty epochs (boundaries stay on the absolute grid).
            let resume = ctxs
                .iter()
                .filter(|c| c.state == CoreState::Ready)
                .map(|c| c.wake_at)
                .min()
                .unwrap_or(u64::MAX);
            if resume == u64::MAX {
                // Every core done, or parked with no wake in flight.
                break;
            }
            now = resume.max(epoch_end);
            epoch_end = now / epoch * epoch + epoch;
        }

        if cancelled {
            self.tainted = true;
        }
        let mut res = Self::result_of(&ctxs);
        res.cancelled = cancelled;
        Ok(res)
    }

    /// Attempts to issue one instruction on `ctx` at cycle `now`; updates
    /// `wake_at` to the next cycle the core can act. Reference-only: the
    /// issue step of [`CycleSim::run_naive`], decoding from [`Inst`] on
    /// every issue; the engine issues through [`CycleSim::issue_fast`]
    /// and [`CycleSim::issue_run`].
    ///
    /// Accesses leaving the issuing core's domain (a remote-group bank or
    /// the shared L2/control regions) are queued in `outbox` for the epoch
    /// boundary instead of executing — see the module-level
    /// *epoch-deferred model* notes and [`defer_issue`].
    fn issue_one(
        &self,
        ctx: &mut CoreCtx<CoreMem>,
        icaches: &mut [FastICache],
        banks: &mut DomainBanks,
        now: u64,
        outbox: &mut Vec<XRequest>,
    ) -> Result<(), Trap> {
        if ctx.stats.instructions >= self.max_instructions {
            ctx.state = CoreState::Done;
            ctx.budget_hit = true;
            ctx.stats.done_at = now;
            return Ok(());
        }

        let pc = ctx.cpu.pc();
        let inst = self.arts.program().fetch(pc).ok_or(Trap::IllegalFetch { pc })?;
        let core = ctx.cpu.hart_id();
        let tile = banks.local_tile(ctx.tile);

        // 1. Instruction fetch through the shared tile I$.
        if !icaches[tile].access(pc) {
            ctx.stats.stall_ins += self.icache_refill;
            ctx.wake_at = now + self.icache_refill;
            return Ok(());
        }

        // 2. RAW: wait for source operands.
        let mut ready_at = now;
        for src in inst.srcs() {
            ready_at = ready_at.max(ctx.reg_ready[src.index()]);
        }
        if ready_at > now {
            ctx.stats.stall_raw += ready_at - now;
            ctx.wake_at = ready_at;
            return Ok(());
        }

        // 3. Structural hazard: the iterative div/sqrt unit is not
        // pipelined; FP-class ops wait while it drains.
        let class = InstClass::of(&inst);
        let uses_fpu =
            matches!(class, InstClass::Fp | InstClass::FpDivSqrt | InstClass::Simd | InstClass::Dotp);
        if uses_fpu && ctx.fpu_busy_until > now {
            ctx.stats.stall_acc += ctx.fpu_busy_until - now;
            ctx.wake_at = ctx.fpu_busy_until;
            return Ok(());
        }

        // 4. Memory: arbitrate for the target bank.
        let mut result_latency = u64::from(self.latency().result_latency(class));
        if inst.is_mem() {
            // A full LSU queue back-pressures issue.
            let (slot, slot_free) =
                ctx.lsu_free.iter().copied().enumerate().min_by_key(|&(_, t)| t).expect("LSU has slots");
            if slot_free > now {
                ctx.stats.stall_lsu += slot_free - now;
                ctx.wake_at = slot_free;
                return Ok(());
            }
            let addr = effective_address(&ctx.cpu, &inst);
            let topo = self.arts.topology();
            let l1 = topo.l1_slot(addr & !3);
            let meta = UopMeta::of(&inst, self.latency());
            let remote_bank = match l1 {
                Some((bank, _)) if topo.domain_of_bank(bank) != topo.domain_of_core(core) => Some(bank),
                _ => None,
            };
            // Everything outside L1 (L2, control region) is shared by
            // all groups: defer loads too, so a core's own deferred
            // store is visible to its later load (same boundary,
            // earlier (cycle, core) key) and cross-core order stays
            // deterministic.
            if remote_bank.is_some() || l1.is_none() {
                let value_reg = match inst {
                    Inst::Store { rs2, .. } | Inst::ScW { rs2, .. } | Inst::Amo { rs2, .. } => {
                        rs2.index() as u8
                    }
                    _ => 0,
                };
                let base = ctx.cpu.reg(Reg::from_num(u32::from(meta.ea_base) & 31));
                let (bank, depart, hop) = match remote_bank {
                    Some(bank) => {
                        let hop = topo.request_latency(core, bank);
                        let depart = now.max(banks.port_free[tile]);
                        banks.port_free[tile] = depart + 1;
                        let busy: u64 = if matches!(class, InstClass::Amo) { 2 } else { 1 };
                        result_latency = (depart + u64::from(hop) + busy - now) + u64::from(hop);
                        (bank, depart, hop as u8)
                    }
                    // Shared L2/ctrl mutation: latency exact at issue.
                    None => {
                        result_latency = 16;
                        (u32::MAX, now, 0)
                    }
                };
                ctx.lsu_free[slot] = now + result_latency;
                defer_issue(
                    ctx,
                    meta.mem,
                    meta.dst,
                    meta.post_inc,
                    value_reg,
                    base,
                    meta.ea_offset,
                    pc,
                    addr,
                    now,
                    result_latency,
                    slot,
                    bank,
                    depart,
                    hop,
                    outbox,
                );
                return Ok(());
            }
            if let Some((bank, _)) = l1 {
                let hop = u64::from(topo.request_latency(core, bank));
                // Remote requests serialize on the tile's shared outbound
                // port (one request per cycle per tile, paper §II).
                let depart = if hop > 0 {
                    let d = now.max(banks.port_free[tile]);
                    banks.port_free[tile] = d + 1;
                    d
                } else {
                    now
                };
                let arrive = depart + hop;
                let busy = if matches!(class, InstClass::Amo) { 2 } else { 1 };
                let b = banks.local_bank(bank);
                let grant = arrive.max(banks.bank_free[b]);
                banks.bank_free[b] = grant + busy;
                let contention = grant - (now + hop);
                ctx.stats.stall_lsu += contention;
                // Response returns after the bank access + the way back.
                result_latency = (grant + busy - now) + hop;
            } else {
                // L2/ctrl over AXI: fixed latency, no contention model.
                result_latency = 16;
            }
            ctx.lsu_free[slot] = now + result_latency;
        }

        // 5. Architectural execution.
        let outcome = ctx.cpu.execute(inst, &mut ctx.mem)?;
        ctx.stats.instructions += 1;
        ctx.cpu.set_mcycle(now);

        if let Some(rd) = inst.dst() {
            ctx.reg_ready[rd.index()] = now + result_latency;
            ctx.reg_wseq[rd.index()] += 1;
        }
        if let Some(base) = inst.post_inc_dst() {
            ctx.reg_ready[base.index()] = now + 1;
            ctx.reg_wseq[base.index()] += 1;
        }
        if uses_fpu && matches!(class, InstClass::FpDivSqrt) {
            ctx.fpu_busy_until = now + u64::from(self.latency().result_latency(class));
        }

        ctx.wake_at = now + 1;
        if inst.is_control_flow() && ctx.cpu.pc() != pc.wrapping_add(4) {
            ctx.wake_at = now + 1 + u64::from(self.latency().taken_branch_penalty);
            // Fetch bubbles are charged to stall-ins? No: the paper folds
            // branch penalties into the instruction stream; we keep them as
            // issue gaps (they appear in no stall class, matching Snitch's
            // minimal frontend).
        }

        match outcome {
            Outcome::Continue => {}
            Outcome::Exit { .. } => {
                ctx.state = CoreState::Done;
                ctx.stats.done_at = now + 1;
            }
            Outcome::Wfi => {
                if self.mem().take_wake(core) {
                    // Wake already pending: fall through immediately.
                } else {
                    ctx.state = CoreState::Parked;
                    ctx.parked_at = now + 1;
                    ctx.wake_at = u64::MAX;
                }
            }
        }
        Ok(())
    }

    /// The engine's full issue path: identical semantics to
    /// [`CycleSim::issue_one`], running from the pre-lowered micro-op
    /// table (operands, metadata and a direct kernel pointer resolved
    /// once at load — no per-issue field extraction or nested matching),
    /// the tile-pair hop table and shift-based bank decoding. Accesses
    /// leaving the issuing core's domain — any bank outside `banks`, and
    /// the shared L2/control regions — are queued in `outbox` for the
    /// epoch boundary instead of executing.
    #[inline]
    fn issue_fast(
        &self,
        ctx: &mut CoreCtx<TurboMem>,
        tables: &RunTables,
        icaches: &mut [FastICache],
        banks: &mut DomainBanks,
        now: u64,
        outbox: &mut Vec<XRequest>,
    ) -> Result<(), Trap> {
        if ctx.stats.instructions >= self.max_instructions {
            ctx.state = CoreState::Done;
            ctx.budget_hit = true;
            ctx.stats.done_at = now;
            return Ok(());
        }

        let pc = ctx.cpu.pc();
        let lu = tables.uops.fetch(pc).ok_or(Trap::IllegalFetch { pc })?;
        let meta = &lu.meta;
        let tile = banks.local_tile(ctx.tile);

        // 1. Instruction fetch through the shared tile I$.
        if !icaches[tile].access(pc) {
            ctx.stats.stall_ins += self.icache_refill;
            ctx.wake_at = now + self.icache_refill;
            return Ok(());
        }

        // 2. RAW: wait for source operands. Unused `srcs` entries are
        // pre-padded with `x0` (always ready at 0), so the three loads are
        // branchless.
        let ready_at = now
            .max(ctx.reg_ready[(meta.srcs[0] & 31) as usize])
            .max(ctx.reg_ready[(meta.srcs[1] & 31) as usize])
            .max(ctx.reg_ready[(meta.srcs[2] & 31) as usize]);
        if ready_at > now {
            ctx.stats.stall_raw += ready_at - now;
            ctx.wake_at = ready_at;
            return Ok(());
        }

        // 3. Structural hazard: non-pipelined div/sqrt unit.
        if meta.uses_fpu && ctx.fpu_busy_until > now {
            ctx.stats.stall_acc += ctx.fpu_busy_until - now;
            ctx.wake_at = ctx.fpu_busy_until;
            return Ok(());
        }

        // 4. Memory: arbitrate for the target bank.
        let mut result_latency = meta.result_lat;
        if meta.is_mem {
            // First-minimum slot, identical tie-break to `min_by_key`,
            // evaluated as a branchless reduction tree. The tree is
            // written out for the current queue depth; widen it (or
            // revert to the scan in `issue_one`) if the depth changes.
            const { assert!(LSU_DEPTH == 4, "reduction tree below is written for 4 LSU slots") };
            let q = &ctx.lsu_free;
            let (a, b) = if q[1] < q[0] { (1usize, q[1]) } else { (0usize, q[0]) };
            let (c, d) = if q[3] < q[2] { (3usize, q[3]) } else { (2usize, q[2]) };
            let (slot, slot_free) = if d < b { (c, d) } else { (a, b) };
            if slot_free > now {
                ctx.stats.stall_lsu += slot_free - now;
                ctx.wake_at = slot_free;
                return Ok(());
            }
            let base = ctx.cpu.reg(Reg::from_num(u32::from(meta.ea_base) & 31));
            let addr = if meta.ea_no_offset { base } else { base.wrapping_add(meta.ea_offset as u32) };
            let l1 = tables.l1_bank(addr);
            let remote_bank = l1.filter(|&bank| !banks.owns_bank(bank));
            // L2/ctrl accesses (loads included) are shared by all
            // groups and defer wholesale — see `issue_one`.
            if remote_bank.is_some() || l1.is_none() {
                let (bank, depart, hop) = match remote_bank {
                    Some(bank) => {
                        let hop = tables.hop(ctx.tile, tables.tile_of_bank(bank));
                        let depart = now.max(banks.port_free[tile]);
                        banks.port_free[tile] = depart + 1;
                        let busy: u64 = if meta.is_amo { 2 } else { 1 };
                        result_latency = (depart + hop + busy - now) + hop;
                        (bank, depart, hop as u8)
                    }
                    // Shared L2/ctrl mutation: latency exact at issue.
                    None => {
                        result_latency = 16;
                        (u32::MAX, now, 0)
                    }
                };
                ctx.lsu_free[slot] = now + result_latency;
                defer_issue(
                    ctx,
                    meta.mem,
                    meta.dst,
                    meta.post_inc,
                    lu.uop.rs2,
                    base,
                    meta.ea_offset,
                    pc,
                    addr,
                    now,
                    result_latency,
                    slot,
                    bank,
                    depart,
                    hop,
                    outbox,
                );
                return Ok(());
            }
            if let Some(bank) = l1 {
                let hop = tables.hop(ctx.tile, tables.tile_of_bank(bank));
                let depart = if hop > 0 {
                    let d = now.max(banks.port_free[tile]);
                    banks.port_free[tile] = d + 1;
                    d
                } else {
                    now
                };
                let arrive = depart + hop;
                let busy = if meta.is_amo { 2 } else { 1 };
                let b = banks.local_bank(bank);
                let grant = arrive.max(banks.bank_free[b]);
                banks.bank_free[b] = grant + busy;
                ctx.stats.stall_lsu += grant - (now + hop);
                result_latency = (grant + busy - now) + hop;
            } else {
                result_latency = 16;
            }
            ctx.lsu_free[slot] = now + result_latency;
        }

        // 5. Architectural execution through the lowered kernel.
        let outcome = (lu.exec)(&mut ctx.cpu, lu.uop, &mut ctx.mem)?;
        ctx.stats.instructions += 1;
        ctx.cpu.set_mcycle(now);

        if meta.dst != NO_REG {
            ctx.reg_ready[meta.dst as usize] = now + result_latency;
        }
        if meta.post_inc != NO_REG {
            ctx.reg_ready[meta.post_inc as usize] = now + 1;
        }
        ctx.note_reg_writes(meta.dst, meta.post_inc);
        if meta.is_div_sqrt {
            ctx.fpu_busy_until = now + meta.result_lat;
        }
        // Scoreboard rewritten: the run step must rescan before eliding.
        ctx.hazard_until = u64::MAX;

        ctx.wake_at = now + 1;
        if meta.is_control_flow && ctx.cpu.pc() != pc.wrapping_add(4) {
            ctx.wake_at = now + 1 + u64::from(self.latency().taken_branch_penalty);
        }

        match outcome {
            Outcome::Continue => {}
            Outcome::Exit { .. } => {
                ctx.state = CoreState::Done;
                ctx.stats.done_at = now + 1;
            }
            Outcome::Wfi => {
                if self.mem().take_wake(ctx.cpu.hart_id()) {
                    // Wake already pending: fall through immediately.
                } else {
                    ctx.state = CoreState::Parked;
                    ctx.parked_at = now + 1;
                    ctx.wake_at = u64::MAX;
                }
            }
        }
        Ok(())
    }

    /// The issue step of a solo core (a domain's other cores issue
    /// through [`CycleSim::issue_fast`] directly): issues the straight run
    /// starting at the core's PC ([`RunTables::runs`]), at most `max_len`
    /// uops of it, one per cycle from `now`. `max_len` is the distance to
    /// the window end in an extended window — where the epoch driver has
    /// already proven no possibly-remote uop can issue — and 0 in a base
    /// window (one uop on the full path).
    ///
    /// Run uops skip the RAW/FPU/LSU hazard checks and the scoreboard
    /// writes of [`CycleSim::issue_fast`] — each of which provably
    /// contributes `+0` to every stall counter while
    /// [`CoreCtx::hazard_until`] has passed — and reconstruct the exact
    /// same statistics and architectural state: the budget and hazard
    /// tests hold for the whole run, every uop still probes the tile I$
    /// (a miss at position *k* ends the run there with the per-uop
    /// refill accounting), bumps its WAW counters, and only the last
    /// retired uop's cycle is published as `mcycle` — no run uop reads
    /// it. The taken-branch penalty is checked once, on the terminator.
    /// No run uop can trap (no memory access, no `ebreak`), so a trap
    /// raised here belongs to the cycle `now`.
    ///
    /// Everything else (memory, FPU, multi-cycle results, CSR and
    /// `System` uops, a live hazard bound) takes the full path, including
    /// local-L1 traffic inside solo drives.
    #[allow(clippy::too_many_arguments)]
    fn issue_run(
        &self,
        ctx: &mut CoreCtx<TurboMem>,
        tables: &RunTables,
        icaches: &mut [FastICache],
        banks: &mut DomainBanks,
        now: u64,
        max_len: u64,
        outbox: &mut Vec<XRequest>,
    ) -> Result<(), Trap> {
        // Base windows (`max_len == 0`) skip even the table lookup.
        let pc = ctx.cpu.pc();
        let run = if max_len == 0 { 0 } else { tables.run_len(pc).min(max_len) };
        if run == 0 {
            return self.issue_fast(ctx, tables, icaches, banks, now, outbox);
        }
        if ctx.stats.instructions >= self.max_instructions {
            ctx.state = CoreState::Done;
            ctx.budget_hit = true;
            ctx.stats.done_at = now;
            return Ok(());
        }
        if ctx.hazard_until == u64::MAX {
            // Lazy rescan after the full path or the boundary replay
            // touched the scoreboard: cache an upper bound over every
            // hazard the run skips. An in-flight deferred request
            // keeps its `lsu_free` lower bound beyond the (trimmed)
            // window end, so elision stays off until the replay corrects
            // it — the bound is conservative exactly where it must be.
            let mut h = ctx.fpu_busy_until;
            for &r in &ctx.reg_ready {
                h = h.max(r);
            }
            for &l in &ctx.lsu_free {
                h = h.max(l);
            }
            ctx.hazard_until = h;
        }
        if ctx.hazard_until > now {
            return self.issue_fast(ctx, tables, icaches, banks, now, outbox);
        }

        // All hazard checks elided (`+0` stalls by the bound above):
        // fetch through the shared tile I$ — refills are real stalls,
        // counted exactly as on the full path — execute, and keep the WAW
        // counters exact: the boundary replay's write-back guard depends
        // on them. The skipped `reg_ready` writes are sound: a
        // `result_lat ≤ 1` value is ready by the next cycle, and no later
        // issue can observe a stale entry as anything but "ready in the
        // past".
        let len = run.min(self.max_instructions - ctx.stats.instructions);
        let icache = &mut icaches[banks.local_tile(ctx.tile)];
        let mut retired = 0;
        let mut last_pc = pc;
        while retired < len {
            let pc = ctx.cpu.pc();
            if !icache.access(pc) {
                ctx.stats.stall_ins += self.icache_refill;
                break;
            }
            let lu = tables.uops.fetch(pc).ok_or(Trap::IllegalFetch { pc })?;
            let outcome = (lu.exec)(&mut ctx.cpu, lu.uop, &mut ctx.mem)?;
            debug_assert!(matches!(outcome, Outcome::Continue), "run uops never stop the core");
            ctx.note_reg_writes(lu.meta.dst, lu.meta.post_inc);
            retired += 1;
            last_pc = pc;
        }

        let at = now + retired;
        if retired > 0 {
            ctx.stats.instructions += retired;
            ctx.cpu.set_mcycle(at - 1);
            ctx.hazard_until = at;
        }
        ctx.wake_at = if retired < len {
            // I$ miss at position `retired`: the core refetches after the
            // refill, exactly as a per-uop issue at cycle `at` would.
            at + self.icache_refill
        } else if ctx.cpu.pc() != last_pc.wrapping_add(4) {
            at + u64::from(self.latency().taken_branch_penalty)
        } else {
            at
        };
        Ok(())
    }
}

impl Drop for CycleSim {
    /// Pooled jobs return their (possibly dirty — deadlocks included)
    /// cluster memory for recycling; the pool resets it on reuse. The
    /// arena is moved out by value, so the parked handle is unique the
    /// moment it lands in the pool — a concurrent acquire on another
    /// lane can recycle it immediately.
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            if let Some(mem) = self.mem.take() {
                // A cancelled run, or a drop during a panic unwind (the
                // job closure died with the simulator live), quarantines
                // the arena: its contents were abandoned mid-write and
                // are not trusted even for a dirty-page reset.
                if self.tainted || std::thread::panicking() {
                    pool.quarantine(mem);
                } else {
                    let _ = pool.release(mem);
                }
            }
        }
    }
}

fn effective_address(cpu: &Cpu, inst: &Inst) -> u32 {
    match *inst {
        Inst::Load { rs1, offset, post_inc, .. } => {
            let base = cpu.reg(rs1);
            if post_inc {
                base
            } else {
                base.wrapping_add(offset as u32)
            }
        }
        Inst::Store { rs1, offset, post_inc, .. } => {
            let base = cpu.reg(rs1);
            if post_inc {
                base
            } else {
                base.wrapping_add(offset as u32)
            }
        }
        Inst::LrW { rs1, .. } | Inst::ScW { rs1, .. } | Inst::Amo { rs1, .. } => cpu.reg(rs1),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    use super::*;

    fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
        let mut a = Assembler::new(Topology::L2_BASE);
        build(&mut a);
        a.ecall();
        let mut image = Image::new(Topology::L2_BASE);
        image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
        image
    }

    #[test]
    fn single_core_completes() {
        let image = image_of(|a| {
            a.li(Reg::T0, 5);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        let mut sim = CycleSim::new(Topology::scaled(8), &image).unwrap();
        let result = sim.run(1).unwrap();
        assert_eq!(result.per_core[0].instructions, 12);
        assert!(result.cycles > 12, "cycles include stalls and penalties");
        assert!(!result.deadlocked);
        assert!(result.parked.is_empty());
    }

    #[test]
    fn straight_runs_end_at_control_flow_and_skip_csr_memory_system() {
        let image = image_of(|a| {
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, 1); // 0: run of 3, up to the branch
            a.addi(Reg::T1, Reg::T1, 1); // 1: 2 (a run entered mid-way)
            a.bnez(Reg::T0, top); // 2: the terminator alone
            a.csrr(Reg::T2, terasim_riscv::csr::MCYCLE); // 3: CSR, no run
            a.addi(Reg::T3, Reg::T3, 1); // 4: 1, cut by the load
            a.lw(Reg::T4, 0, Reg::Zero); // 5: memory, no run
            a.wfi(); // 6: System, no run
        }); // 7: `ecall`, no run
        let topo = Topology::scaled(8);
        let arts = SimArtifacts::build(topo, &image).unwrap();
        let tables = RunTables::new(topo, arts.program(), arts.cycle_latency());
        let runs: Vec<u64> = (0..8).map(|i| tables.run_len(Topology::L2_BASE + 4 * i)).collect();
        assert_eq!(runs, [3, 2, 1, 0, 1, 0, 0, 0]);
        assert_eq!(tables.run_len(Topology::L2_BASE + 2), 0, "misaligned PC");
        assert_eq!(tables.run_len(Topology::L2_BASE + 4 * 8), 0, "past the text");
    }

    #[test]
    fn bank_conflicts_cost_cycles() {
        // All 8 cores hammer the same interleaved word -> bank conflicts.
        let conflict = image_of(|a| {
            a.li(Reg::A1, 0x0);
            for _ in 0..16 {
                a.lw(Reg::A0, 0, Reg::A1);
            }
        });
        // Each core reads its own word in its own bank (stride 4 = next bank).
        let spread = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slli(Reg::A1, Reg::T0, 2);
            for _ in 0..16 {
                a.lw(Reg::A0, 0, Reg::A1);
            }
        });
        let topo = Topology::scaled(8);
        let mut sim_c = CycleSim::new(topo, &conflict).unwrap();
        let mut sim_s = CycleSim::new(topo, &spread).unwrap();
        let rc = sim_c.run(8).unwrap();
        let rs = sim_s.run(8).unwrap();
        let lsu_c = rc.aggregate().stall_lsu;
        let lsu_s = rs.aggregate().stall_lsu;
        assert!(lsu_c > lsu_s, "conflicting accesses must stall more ({lsu_c} vs {lsu_s})");
        assert!(rc.cycles > rs.cycles);
    }

    #[test]
    fn icache_misses_are_counted() {
        let image = image_of(|a| {
            for _ in 0..64 {
                a.nop();
            }
        });
        let mut sim = CycleSim::new(Topology::scaled(8), &image).unwrap();
        let result = sim.run(1).unwrap();
        // 65 instructions over 32-byte lines: ~9 lines.
        let ins = result.per_core[0].stall_ins;
        assert!(ins >= 8 * sim.icache_refill, "stall_ins = {ins}");
    }

    #[test]
    fn fast_icache_is_a_direct_mapped_cache() {
        /// The textbook model: one line address per set, indexed by
        /// line address modulo the set count.
        struct DirectMapped {
            line: u32,
            sets: Vec<Option<u32>>,
        }
        impl DirectMapped {
            fn access(&mut self, pc: u32) -> bool {
                let line = pc / self.line;
                let set = line as usize % self.sets.len();
                self.sets[set].replace(line) == Some(line)
            }
        }

        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 16) as u32
        };
        let topo = Topology::scaled(8);
        // TeraPool's geometry, then a set count and a line size that are
        // not powers of two (the div/mod branch).
        for (bytes, line) in [(topo.icache_bytes, topo.icache_line), (96 * 32, 32), (240, 24)] {
            let mut fast = FastICache::new(bytes, line);
            let mut model = DirectMapped { line, sets: vec![None; (bytes / line) as usize] };
            assert_eq!(fast.shift.is_some(), line.is_power_of_two() && (bytes / line).is_power_of_two());
            let base = 0x8000_0000u32;
            let (mut hits, mut misses) = (0u32, 0u32);
            let mut pc = base;
            for k in 0..30_000u32 {
                pc = match (k / 64) % 3 {
                    // Straight-line text: the last-line memo's case.
                    0 => pc.wrapping_add(4),
                    // Random PCs over four times the cache.
                    1 => base + ((rand() % (4 * bytes)) & !3),
                    // Set conflicts: the same offset in lines one cache
                    // size apart.
                    _ => base + (rand() % 4) * bytes + ((rand() % (2 * line)) & !3),
                };
                let hit = model.access(pc);
                assert_eq!(fast.access(pc), hit, "{bytes} B / {line} B lines, access {k} at {pc:#x}");
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert!(hits > 5_000 && misses > 5_000, "{bytes}/{line}: {hits} hits, {misses} misses");
        }
    }

    #[test]
    fn results_match_fast_mode() {
        // Same guest on both backends must produce identical memory.
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.slli(Reg::T1, Reg::T0, 2);
            a.addi(Reg::T2, Reg::T0, 100);
            a.sw(Reg::T2, 0x400, Reg::T1);
        });
        let topo = Topology::scaled(8);
        let mut cyc = CycleSim::new(topo, &image).unwrap();
        cyc.run(8).unwrap();
        let mut fast = crate::FastSim::new(topo, &image).unwrap();
        fast.run_all(2).unwrap();
        for core in 0..8u32 {
            let addr = 0x400 + core * 4;
            assert_eq!(cyc.memory().read_u32(addr), fast.memory().read_u32(addr));
            assert_eq!(cyc.memory().read_u32(addr), 100 + core);
        }
    }

    fn barrier_image(cores: u32) -> Image {
        // amoadd-counting barrier: the last arrival wakes everyone.
        image_of(|a| {
            a.li(Reg::A1, 0x10); // barrier counter in L1
            a.li(Reg::T1, 1);
            a.amoadd_w(Reg::T0, Reg::T1, Reg::A1);
            a.li(Reg::T2, (cores - 1) as i32);
            let last = a.new_label();
            a.beq(Reg::T0, Reg::T2, last);
            a.wfi();
            let done = a.new_label();
            a.j(done);
            a.bind(last);
            a.li(Reg::T3, Topology::CTRL_WAKE_ALL as i32);
            a.sw(Reg::T1, 0, Reg::T3);
            a.bind(done);
        })
    }

    #[test]
    fn wfi_barrier_wakes_all() {
        let mut sim = CycleSim::new(Topology::scaled(8), &barrier_image(8)).unwrap();
        let result = sim.run(8).unwrap();
        assert_eq!(sim.memory().read_u32(0x10), 8, "all cores arrived");
        let wfi: u64 = result.per_core.iter().map(|s| s.stall_wfi).sum();
        assert!(wfi > 0, "early arrivals idled in wfi");
        assert!(result.per_core.iter().all(|s| s.done_at > 0), "all cores finished");
        assert!(!result.deadlocked);
    }

    #[test]
    fn event_and_naive_schedulers_agree_on_barrier_program() {
        let topo = Topology::scaled(8);
        let mut a = CycleSim::new(topo, &barrier_image(8)).unwrap();
        let mut b = CycleSim::new(topo, &barrier_image(8)).unwrap();
        let event = a.run(8).unwrap();
        let naive = b.run_naive(8).unwrap();
        assert_eq!(event.per_core, naive.per_core, "bit-identical per-core stats");
        assert_eq!(event.cycles, naive.cycles);
        assert_eq!(a.memory().read_u32(0x10), b.memory().read_u32(0x10));
    }

    #[test]
    fn zero_refill_latency_engines_agree() {
        // Degenerate model: `icache_refill == 0` leaves `wake_at == now`
        // on a miss. The event engine must retry next cycle exactly like
        // the naive scan instead of mis-scheduling the core a full wheel
        // revolution into the future.
        let image = image_of(|a| {
            for _ in 0..256 {
                a.nop();
            }
        });
        let topo = Topology::scaled(8);
        let mut event = CycleSim::new(topo, &image).unwrap();
        let mut naive = CycleSim::new(topo, &image).unwrap();
        event.icache_refill = 0;
        naive.icache_refill = 0;
        let re = event.run(8).unwrap();
        let rn = naive.run_naive(8).unwrap();
        assert_eq!(re.per_core, rn.per_core);
        assert_eq!(re.cycles, rn.cycles);
    }

    #[test]
    fn deadlock_is_surfaced() {
        // Everyone parks; nobody ever wakes them.
        let image = image_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            let skip = a.new_label();
            a.bnez(Reg::T0, skip);
            a.wfi(); // hart 0 sleeps forever
            a.bind(skip);
        });
        let topo = Topology::scaled(8);
        for naive in [false, true] {
            let mut sim = CycleSim::new(topo, &image).unwrap();
            let result = if naive { sim.run_naive(8).unwrap() } else { sim.run(8).unwrap() };
            assert!(result.deadlocked, "naive={naive}: wfi with no waker must deadlock");
            assert_eq!(result.parked, vec![0], "naive={naive}");
            // The other seven harts finished cleanly.
            assert_eq!(result.per_core.iter().filter(|s| s.done_at > 0).count(), 7);
        }
    }

    #[test]
    fn per_group_aggregation_partitions_the_cluster() {
        let topo = Topology::scaled(8);
        let mut sim = CycleSim::new(topo, &barrier_image(8)).unwrap();
        let result = sim.run(8).unwrap();
        let groups = result.aggregate_groups(&topo);
        assert_eq!(groups.len(), topo.num_domains() as usize);
        let mut sum = CycleStats::default();
        for g in &groups {
            sum.accumulate(g);
        }
        assert_eq!(sum, result.aggregate(), "group partition must cover every core exactly once");
    }
}
