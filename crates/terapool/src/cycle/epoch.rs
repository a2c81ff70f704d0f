//! The epoch driver of the sharded cycle engine: the lockstep window loop
//! every host thread runs, the owner-computes boundary that serves
//! deferred cross-domain requests, barrier-wake delivery, and the
//! termination / fast-forward decision.
//!
//! # Protocol
//!
//! Domain `d` is *owned* by host thread `d % threads`, for the whole run
//! and in every role: its cores, its bank books and the L1 words behind
//! them. The shared L2/control region is one more target with one owner.
//! A window `[T, T')` (one epoch of `L = Topology::epoch_len()` cycles,
//! the minimum cross-group latency, or an adaptive extension of it) is
//! driven in three steps, separated by barriers:
//!
//! 1. **Phase** — every owner simulates its [`DomainEngine`]s with no
//!    synchronization; a domain only touches its own banks/ports/I$/cores
//!    and defers anything cross-domain into its outbox. At the end the
//!    owner sorts the outbox into one *lane* per target.
//! 2. **Target step** — every owner, for each target it owns, merges the
//!    lanes addressed to it (each already `(issue cycle, core id)`
//!    ordered) and serves them in that order: bank grant against its own
//!    book, architectural effect (load value / store / AMO) on its own
//!    words. The outcome `(latency, contention, value)` goes back into
//!    the lane as a [`Reply`]. Skipped, barrier included, when no domain
//!    deferred anything.
//! 3. **Source step** — every owner, for each domain it owns, applies the
//!    replies to the issuing cores (scoreboard and LSU correction,
//!    WAW-guarded register writeback), delivers barrier wakes, and
//!    publishes the domain's next event and remote-issue horizon. After
//!    the last barrier every thread computes the next window from the
//!    published values — identically, so nobody waits for a coordinator.
//!
//! # Why this equals the global replay
//!
//! The reference semantics ([`CycleSim::run_naive`]) replay a boundary's
//! requests one by one in global `(cycle, core)` order. A request reads
//! and writes exactly two kinds of state: its *target's* (one bank's
//! reservation book and one word, or the L2/control region) and its
//! *issuing core's*. Every L1 word and every bank book has exactly one
//! owner, and an owner serves the requests addressed to it in the global
//! order restricted to them — so each word and each book sees the same
//! sequence of operations as in the global replay, and each reply is the
//! same. The source side is order-free: `stall_lsu` accumulates, the LSU
//! slots of one core's in-flight requests are distinct (a slot stays
//! claimed for at least the uncontended round trip, longer than any
//! window that defers), and the WAW guard lets at most one request per
//! register write it back.
//!
//! Two cases need care. A control-region store that starts a **DMA copy**
//! reaches into words other owners serve in the same step, so a boundary
//! holding one ([`ClusterMem::is_dma_trigger`]) is served by thread 0
//! alone, all targets in one globally ordered pass. A **trap** raised by
//! a request is a pure function of the request (misaligned or unmapped
//! address), so the `(cycle, core)`-minimum over all owners' first traps
//! is the trap the global replay stops at; the run aborts with it (memory
//! effects of later requests other owners already served are not rolled
//! back — the result is an error either way).
//!
//! All steps are deterministic functions of the simulation state alone,
//! so the result is bit-identical for every host thread count. With one
//! thread the barriers are no-ops and the same loop is the serial driver;
//! [`CycleSim::run_naive`]'s full-scan epoch loop with its own global
//! replay is the independent reference the workspace's
//! `parallel`/`differential` integration tests pin it against.
//!
//! # Shared state
//!
//! Engines and lanes live in [`PhaseCell`]s: plain interior-mutable
//! cells with no lock, whose one accessor changes from step to step as
//! the table below says. The barriers between the steps order every
//! access of one step before every access of the next.
//!
//! | cell | phase | target step | source step |
//! |---|---|---|---|
//! | engine `d` | owner of `d` | owner of `d` (bank book only) | owner of `d` |
//! | lane `s → t` | owner of `s` | owner of `t` | owner of `s` |
//!
//! (In a DMA boundary thread 0 takes the whole target-step column and
//! the other threads touch nothing.) Scalars that cross threads — the
//! per-domain [`Board`], the sole window's end, the cancel flag, the trap
//! slots — are atomics written before one barrier and read after it.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use terasim_iss::{MemOp, Memory, Trap, NO_REG};
use terasim_riscv::Reg;

use super::domain::{DomainEngine, WindowOpts, WHEEL_SLOTS};
use super::{CoreCtx, CycleResult, CycleSim, RunTables};
use crate::mem::{ClusterMem, CoreMem, DomainBanks, XRequest};

/// Extension cap in base epochs. Equal to one wheel revolution at the
/// standard 4-cycle epoch — the slot scan is only aliasing-free within
/// one revolution — and small enough to bound the latency of the
/// boundary-polled cancellation check.
const MAX_EXTEND_EPOCHS: u64 = 64;

/// What the owner of a request's target hands back to the owner of its
/// issuing core.
struct Reply {
    /// Total result latency from the issue cycle (bank targets only).
    latency: u64,
    /// Cycles the request waited for its bank (bank targets only).
    contention: u64,
    /// Loaded / swapped-out value, already sign-extended (0 for stores).
    value: u32,
}

/// The requests one domain deferred to one target in the current window,
/// in `(cycle, core)` order, and — once the target's owner served them —
/// one reply per request at the same index.
#[derive(Default)]
struct Lane {
    requests: Vec<XRequest>,
    replies: Vec<Reply>,
}

/// Computes the bank grant of one request against the target bank's
/// reservation book and returns `(total result latency, contention
/// cycles)`.
///
/// The request *arrives* at `depart + hop`; because the epoch is no
/// longer than the minimum cross-group hop, the arrival never lies
/// before the boundary at which it is applied, so grants stay causal.
fn grant(x: &XRequest, bank_free: &mut u64) -> (u64, u64) {
    let arrive = x.depart + u64::from(x.hop);
    let busy = if matches!(x.op, MemOp::Amo(_)) { 2 } else { 1 };
    let granted = arrive.max(*bank_free);
    *bank_free = granted + busy;
    ((granted + busy - x.cycle) + u64::from(x.hop), granted - (x.cycle + u64::from(x.hop)))
}

/// Target half of one deferred request: the bank grant (`book` is the
/// book holding the target bank; `None` for L2/control targets, whose
/// fixed 16-cycle latency was settled exactly at issue) and the
/// architectural memory effect, through the serving thread's view.
///
/// # Errors
///
/// Returns the [`Trap`] the access raises (attributed to the deferred
/// instruction's PC), exactly as the kernel would have at issue.
fn serve(x: &XRequest, book: Option<&mut DomainBanks>, mem: &mut CoreMem) -> Result<Reply, Trap> {
    let (latency, contention) = match book {
        Some(banks) => {
            let slot = banks.local_bank(x.bank);
            grant(x, &mut banks.bank_free[slot])
        }
        None => (0, 0),
    };
    mem.rebind(x.core);
    let merr = |err| Trap::Mem { pc: x.pc, err };
    let value = match x.op {
        MemOp::Load { size, signed } => {
            let raw = mem.load(x.addr, u32::from(size)).map_err(merr)?;
            match (size, signed) {
                (1, true) => raw as u8 as i8 as i32 as u32,
                (2, true) => raw as u16 as i16 as i32 as u32,
                _ => raw,
            }
        }
        // The reservation was taken at issue; only the data returns.
        MemOp::LoadReserved => mem.load(x.addr, 4).map_err(merr)?,
        MemOp::Store { size } => {
            mem.store(x.addr, u32::from(size), x.value).map_err(merr)?;
            0
        }
        MemOp::StoreConditional => {
            // Success was decided (and rd written) against the issue-time
            // reservation; a failed sc still made the bank round trip.
            if x.sc_success {
                mem.store(x.addr, 4, x.value).map_err(merr)?;
            }
            0
        }
        MemOp::Amo(op) => mem.amo(op, x.addr, x.value).map_err(merr)?,
        MemOp::None => unreachable!("only memory operations are deferred"),
    };
    Ok(Reply { latency, contention, value })
}

/// Source half of one deferred request: the scoreboard correction and
/// destination writeback on its issuing core.
fn settle(x: &XRequest, reply: &Reply, ctx: &mut CoreCtx) {
    // The corrections rewrite scoreboard entries behind the run step's
    // cached bound; force its next issue to rescan.
    ctx.hazard_until = u64::MAX;
    // WAW guard: touch rd (value and scoreboard) only while this request
    // is still rd's last writer — a later same-epoch writer wins, exactly
    // as it would against the kernel's issue-time write.
    let owns_rd = x.rd != NO_REG && ctx.reg_wseq[x.rd as usize] == x.wseq;
    if x.bank != u32::MAX {
        ctx.stats.stall_lsu += reply.contention;
        ctx.lsu_free[x.slot as usize] = x.cycle + reply.latency;
        if owns_rd {
            ctx.reg_ready[x.rd as usize] = x.cycle + reply.latency;
        }
    }
    // A `sc.w` keeps its rd for the scoreboard correction only: the value
    // was written at issue.
    if owns_rd && matches!(x.op, MemOp::Load { .. } | MemOp::LoadReserved | MemOp::Amo(_)) {
        ctx.cpu.set_reg(Reg::from_num(u32::from(x.rd) & 31), reply.value);
    }
}

/// Serves every request of `lanes` in global `(cycle, core)` order (a
/// k-way merge: each lane is already ordered, and keys are unique — a
/// core issues at most one memory op per cycle), pushing each reply onto
/// its request's lane. A lane's reply count is its merge cursor.
///
/// # Errors
///
/// Stops at the first request `serve` traps on and returns the trap
/// tagged with the request's `(cycle, core)`.
fn replay(
    lanes: &mut [&mut Lane],
    mut serve: impl FnMut(&XRequest) -> Result<Reply, Trap>,
) -> Result<(), (u64, u32, Trap)> {
    loop {
        let mut next: Option<(usize, (u64, u32))> = None;
        for (i, lane) in lanes.iter().enumerate() {
            if let Some(x) = lane.requests.get(lane.replies.len()) {
                let key = (x.cycle, x.core);
                if next.is_none_or(|(_, best)| key < best) {
                    next = Some((i, key));
                }
            }
        }
        let Some((i, (cycle, core))) = next else { return Ok(()) };
        let lane = &mut *lanes[i];
        let reply = serve(&lane.requests[lane.replies.len()]).map_err(|trap| (cycle, core, trap))?;
        lane.replies.push(reply);
    }
}

/// One scheduling window: the interval every domain (or the sole active
/// one) simulates before the next boundary. Base windows are exactly one
/// epoch; adaptive runs may grant longer ones when the quiescence
/// predicate proves no cross-domain traffic can be issued inside them.
struct Window {
    start: u64,
    /// Granted boundary (grid-aligned). A sole-active domain may trim
    /// the window back at run time; the boundary actually reached is
    /// what [`DomainEngine::run_epoch`] returns.
    end: u64,
    /// `Some(d)`: only domain `d` has any event before `end`; it runs
    /// alone with trim-on-defer while the rest fast-forward.
    sole: Option<usize>,
    /// Extended grant: the elided run step is allowed.
    extended: bool,
}

/// How a worker's window loop ended. Every worker reaches the same
/// verdict at the same barrier, from the same published values.
enum Exit {
    /// Every core is done or parked with no wake in flight (guest
    /// deadlock is surfaced via `CycleResult::deadlocked`).
    Finished,
    /// The job's [`CancelToken`](crate::CancelToken) was raised: the
    /// window just simulated is abandoned unserved — the result is
    /// partial either way.
    Cancelled,
    /// A trap slot holds the run's first trap.
    Trapped,
}

/// Keeps its content on a cache line (pair — the adjacent-line prefetcher
/// couples neighbours) of its own, so state one host thread writes every
/// simulated cycle never shares a line with another thread's.
#[repr(align(128))]
struct Aligned<T>(T);

/// An unlocked interior-mutable cell for state whose single accessor is
/// fixed per protocol step (module docs, *Shared state*); on cache lines
/// of its own, like [`Aligned`].
#[repr(align(128))]
struct PhaseCell<T>(UnsafeCell<T>);

// SAFETY: a `PhaseCell` hands out `&mut T` to whichever thread the
// protocol makes the cell's accessor for the current step, so `T` moves
// between threads (`T: Send`) but is never shared (`T: Sync` not needed).
// That at most one thread accesses the cell at a time is the obligation
// of `PhaseCell::get`'s callers.
unsafe impl<T: Send> Sync for PhaseCell<T> {}

impl<T> PhaseCell<T> {
    fn new(value: T) -> Self {
        Self(UnsafeCell::new(value))
    }

    fn into_inner(self) -> T {
        self.0.into_inner()
    }

    /// # Safety
    ///
    /// The calling thread must be the cell's accessor for the current
    /// protocol step (module docs, *Shared state*), with a barrier
    /// between this step and any other thread's access, and must not
    /// hold another reference obtained from this cell.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self) -> &mut T {
        // SAFETY: exclusive access is the caller's obligation.
        unsafe { &mut *self.0.get() }
    }
}

/// What a domain's owner publishes about it for the other threads.
///
/// Plain relaxed atomics: each field is written by the owner in one step
/// and read by everyone after the next barrier, whose release/acquire
/// pair (see [`SpinBarrier`]) orders the two.
#[derive(Default)]
struct Board {
    /// [`DomainEngine::next_event`] at the boundary just reached.
    next_event: AtomicU64,
    /// [`DomainEngine::horizon`] after wake delivery.
    horizon: AtomicU64,
    /// What the domain deferred in the current window (`NOTHING`,
    /// `REQUESTS` or `DMA`); set in the phase, cleared in the source step.
    deferred: AtomicU8,
}

const NOTHING: u8 = 0;
/// The domain deferred requests; owners serve their targets in parallel.
const REQUESTS: u8 = 1;
/// ... one of which may start a DMA copy: single-owner boundary.
const DMA: u8 = 2;

/// The `(cycle, core)`-earliest trap reported by any thread in one step.
/// Touched only on the (terminal) trap path, so a mutex is fine; the flag
/// is what the per-window check reads.
#[derive(Default)]
struct TrapSlot {
    raised: AtomicBool,
    first: Mutex<Option<(u64, u32, Trap)>>,
}

impl TrapSlot {
    fn report(&self, cycle: u64, core: u32, trap: Trap) {
        let mut first = self.first.lock().expect("no panic while holding the trap slot");
        if first.is_none_or(|(c, k, _)| (cycle, core) < (c, k)) {
            *first = Some((cycle, core, trap));
        }
        // Ordered before the readers' load by the step's closing barrier.
        self.raised.store(true, Ordering::Relaxed);
    }

    fn raised(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }

    fn into_trap(self) -> Option<Trap> {
        self.first.into_inner().expect("no panic while holding the trap slot").map(|(_, _, trap)| trap)
    }
}

/// Everything the workers of one sharded run share.
struct Shards<'a> {
    sim: &'a CycleSim,
    tables: &'a RunTables,
    epoch: u64,
    adaptive: bool,
    threads: usize,
    engines: Vec<PhaseCell<DomainEngine>>,
    /// Lane `s → t` at `s * (domains + 1) + t`; target `domains` is the
    /// shared L2/control region.
    lanes: Vec<PhaseCell<Lane>>,
    boards: Vec<Aligned<Board>>,
    barrier: SpinBarrier,
    /// Boundary a sole-active window actually reached (its owner knows
    /// only after the run).
    sole_end: AtomicU64,
    /// The cancel token as sampled by thread 0 at the end of its phase:
    /// one sample per window, so every thread acts on the same value.
    cancel: AtomicBool,
    /// First trap raised at issue, inside a phase.
    phase_trap: TrapSlot,
    /// First trap raised by a deferred request, in a target step. A slot
    /// of its own: a thread still checking the phase slot after the
    /// phase barrier must not see a trap from the step it has yet to run.
    replay_trap: TrapSlot,
}

impl Shards<'_> {
    fn domains(&self) -> usize {
        self.engines.len()
    }

    fn lane(&self, source: usize, target: usize) -> &PhaseCell<Lane> {
        &self.lanes[source * (self.domains() + 1) + target]
    }

    /// The domains — and targets; the shared region counts as one more —
    /// thread `t` owns, out of `n`.
    fn owned(&self, t: usize, n: usize) -> impl Iterator<Item = usize> {
        (t..n).step_by(self.threads)
    }

    /// Phase epilogue of domain `d`: sorts the engine's outbox into the
    /// domain's lanes, one per target, and publishes what it deferred.
    fn post(&self, d: usize, engine: &mut DomainEngine) {
        if engine.outbox.is_empty() {
            return;
        }
        let topo = self.sim.topology();
        let shared = self.domains();
        let mut deferred = REQUESTS;
        for x in engine.outbox.drain(..) {
            let target = if x.bank == u32::MAX {
                if ClusterMem::is_dma_trigger(x.addr) {
                    deferred = DMA;
                }
                shared
            } else {
                topo.domain_of_bank(x.bank) as usize
            };
            // SAFETY: phase — the lanes out of `d` belong to `d`'s owner,
            // the calling thread.
            unsafe { self.lane(d, target).get() }.requests.push(x);
        }
        self.boards[d].0.deferred.store(deferred, Ordering::Relaxed);
    }

    /// Target step for `target`: serves the lanes addressed to it in
    /// `(cycle, core)` order against its own bank book.
    fn serve_target(&self, target: usize, mem: &mut CoreMem) {
        // SAFETY: target step — the lanes into `target` and (for a bank
        // target) engine `target` belong to the target's owner, the
        // calling thread.
        let mut lanes: Vec<&mut Lane> =
            (0..self.domains()).map(|s| unsafe { self.lane(s, target).get() }).collect();
        let mut book = (target < self.domains()).then(|| unsafe { &mut self.engines[target].get().banks });
        if let Err((cycle, core, trap)) = replay(&mut lanes, |x| serve(x, book.as_deref_mut(), mem)) {
            self.replay_trap.report(cycle, core, trap);
        }
    }

    /// Target step of a DMA boundary, on thread 0: serves every lane in
    /// one globally ordered pass.
    fn serve_all(&self, mem: &mut CoreMem) {
        let topo = self.sim.topology();
        // SAFETY: target step of a DMA boundary — every lane and engine
        // belongs to thread 0, the calling thread; the others skip the
        // step.
        let mut lanes: Vec<&mut Lane> = self.lanes.iter().map(|lane| unsafe { lane.get() }).collect();
        let mut books: Vec<&mut DomainBanks> =
            self.engines.iter().map(|engine| unsafe { &mut engine.get().banks }).collect();
        let served = replay(&mut lanes, |x| {
            let book = (x.bank != u32::MAX).then(|| &mut *books[topo.domain_of_bank(x.bank) as usize]);
            serve(x, book, mem)
        });
        if let Err((cycle, core, trap)) = served {
            self.replay_trap.report(cycle, core, trap);
        }
    }

    /// Source step for the replies to domain `d`'s requests.
    fn settle_domain(&self, d: usize, engine: &mut DomainEngine) {
        let cores_per_group = self.sim.topology().cores_per_group();
        for target in 0..=self.domains() {
            // SAFETY: source step — the lanes out of `d` belong to `d`'s
            // owner, the calling thread.
            let lane = unsafe { self.lane(d, target).get() };
            for (x, reply) in lane.requests.iter().zip(&lane.replies) {
                settle(x, reply, &mut engine.ctxs[(x.core % cores_per_group) as usize]);
            }
            lane.requests.clear();
            lane.replies.clear();
        }
        self.boards[d].0.deferred.store(NOTHING, Ordering::Relaxed);
    }

    /// The next window after the boundary `end`, from the published
    /// boards; `None` when no domain has an event left.
    fn next_window(&self, end: u64) -> Option<Window> {
        let epoch = self.epoch;
        // First and second-smallest next-event times (and who owns the
        // first), plus the global remote-issue horizon.
        let mut first = u64::MAX;
        let mut first_dom = 0usize;
        let mut second = u64::MAX;
        let mut horizon = u64::MAX;
        for (d, board) in self.boards.iter().enumerate() {
            let ne = board.0.next_event.load(Ordering::Relaxed);
            if ne < first {
                second = first;
                first = ne;
                first_dom = d;
            } else if ne < second {
                second = ne;
            }
            horizon = horizon.min(board.0.horizon.load(Ordering::Relaxed));
        }
        if first == u64::MAX {
            return None;
        }
        debug_assert!(first >= end, "event before the boundary just reached");
        // Fast-forward over empty epochs (barrier sleeps, long refills):
        // boundaries stay on the absolute epoch grid.
        let start = first / epoch * epoch;
        let base_end = start + epoch;
        if self.adaptive {
            let cap = start + (WHEEL_SLOTS / epoch).clamp(1, MAX_EXTEND_EPOCHS) * epoch;
            // Sole-active: every other domain's first event lies at or
            // beyond an epoch boundary the sole domain cannot outrun — it
            // trims itself back to the fixed-cadence boundary on its first
            // deferred request, so nothing it does can create an event for
            // the others before they resume.
            let end_sole = if second == u64::MAX { cap } else { (second / epoch * epoch).min(cap) };
            // Multi-active: no ready core of any domain can issue a
            // possibly-remote uop before the static horizon, so every
            // boundary up to it is replay-empty and wake-silent.
            let end_multi = if horizon == u64::MAX { cap } else { (horizon / epoch * epoch).min(cap) };
            if end_sole > base_end && end_sole >= end_multi {
                return Some(Window { start, end: end_sole, sole: Some(first_dom), extended: true });
            }
            if end_multi > base_end {
                return Some(Window { start, end: end_multi, sole: None, extended: true });
            }
        }
        Some(Window { start, end: base_end, sole: None, extended: false })
    }

    /// The window loop of host thread `t`.
    fn work(&self, t: usize) -> Exit {
        let _poison = PoisonOnPanic(&self.barrier);
        let domains = self.domains();
        let epoch = self.epoch;
        // The view this thread serves other cores' requests through.
        let mut mem = self.sim.memory().core_view(0);
        let mut win = Window { start: 0, end: epoch, sole: None, extended: false };
        loop {
            // Phase. A sole-active window is simulated by the sole
            // domain's owner alone; the idle rest only have their clocks
            // advanced, below, once the boundary it reached is known.
            let opts = WindowOpts { epoch, elide: win.extended, trim: win.sole.is_some() };
            for d in self.owned(t, domains).filter(|&d| win.sole.is_none_or(|s| s == d)) {
                // SAFETY: phase — engine `d` belongs to its owner, the
                // calling thread.
                let engine = unsafe { self.engines[d].get() };
                let reached = engine.run_epoch(self.sim, self.tables, win.start, win.end, &opts);
                if win.sole.is_some() {
                    self.sole_end.store(reached, Ordering::Relaxed);
                }
                if let Some((cycle, core, trap)) = engine.trap {
                    self.phase_trap.report(cycle, core, trap);
                }
                self.post(d, engine);
            }
            if t == 0 && self.sim.cancel_requested() {
                self.cancel.store(true, Ordering::Relaxed);
            }
            self.barrier.wait();

            let end = if win.sole.is_some() { self.sole_end.load(Ordering::Relaxed) } else { win.end };
            if t == 0 {
                self.sim.epoch_counters.record(
                    win.end - win.start > epoch,
                    win.sole.is_some() && end < win.end,
                    end - win.start,
                );
            }
            // Cancellation first, then the trap the sequential full scan
            // would hit first: domains are independent within a window,
            // so that is the `(cycle, core)`-earliest issue trap, and only
            // then a trap of the requests deferred behind it.
            if self.cancel.load(Ordering::Relaxed) {
                return Exit::Cancelled;
            }
            if self.phase_trap.raised() {
                return Exit::Trapped;
            }

            let deferred =
                self.boards.iter().map(|b| b.0.deferred.load(Ordering::Relaxed)).max().unwrap_or(NOTHING);
            if deferred != NOTHING {
                if deferred == DMA {
                    if t == 0 {
                        self.serve_all(&mut mem);
                    }
                } else {
                    for target in self.owned(t, domains + 1) {
                        self.serve_target(target, &mut mem);
                    }
                }
                self.barrier.wait();
                if self.replay_trap.raised() {
                    return Exit::Trapped;
                }
            }

            for d in self.owned(t, domains) {
                // SAFETY: source step — engine `d` belongs to its owner,
                // the calling thread.
                let engine = unsafe { self.engines[d].get() };
                if deferred != NOTHING {
                    self.settle_domain(d, engine);
                }
                if win.sole.is_some_and(|s| s != d) {
                    engine.skip_to(end);
                }
                engine.deliver_wakes(self.sim.memory(), end);
                let board = &self.boards[d].0;
                board.next_event.store(engine.next_event(end), Ordering::Relaxed);
                board.horizon.store(engine.horizon(), Ordering::Relaxed);
            }
            self.barrier.wait();

            match self.next_window(end) {
                Some(next) => win = next,
                None => return Exit::Finished,
            }
        }
    }
}

/// Drives the sharded engine to completion on `threads` host threads
/// (the calling thread included); domain `d` is simulated and served by
/// thread `d % threads`. Results are bit-identical for every count, and
/// with `adaptive` off (lockstep base-cadence windows, the reference
/// cadence) or on.
pub(super) fn run_sharded(
    sim: &CycleSim,
    cores: u32,
    threads: usize,
    adaptive: bool,
) -> Result<CycleResult, Trap> {
    let topo = sim.topology();
    let domains = topo.num_domains() as usize;
    let reach = adaptive.then(|| Arc::clone(sim.arts.reach()));
    let threads = threads.clamp(1, domains);
    let shards = Shards {
        sim,
        // The lowered tables are part of the shared artifact set: built
        // once per scenario, shared by every worker (and every job of a
        // batch) read-only.
        tables: sim.arts.cycle_tables(),
        epoch: topo.epoch_len(),
        adaptive,
        threads,
        engines: (0..domains as u32)
            .map(|d| PhaseCell::new(DomainEngine::new(sim, d, cores, reach.clone())))
            .collect(),
        lanes: (0..domains * (domains + 1)).map(|_| PhaseCell::new(Lane::default())).collect(),
        boards: (0..domains).map(|_| Aligned(Board::default())).collect(),
        barrier: SpinBarrier::new(threads),
        sole_end: AtomicU64::new(0),
        cancel: AtomicBool::new(false),
        phase_trap: TrapSlot::default(),
        replay_trap: TrapSlot::default(),
    };

    let exit = std::thread::scope(|scope| {
        let shards = &shards;
        let handles: Vec<_> = (1..threads).map(|t| scope.spawn(move || shards.work(t))).collect();
        let exit = shards.work(0);
        for h in handles {
            h.join().expect("domain worker panicked");
        }
        exit
    });

    let engines: Vec<DomainEngine> = shards.engines.into_iter().map(PhaseCell::into_inner).collect();
    sim.epoch_counters
        .solo_instructions
        .store(engines.iter().map(|e| e.solo_instructions).sum(), Ordering::Relaxed);
    if let Exit::Trapped = exit {
        let trap = shards.phase_trap.into_trap().or_else(|| shards.replay_trap.into_trap());
        return Err(trap.expect("a raised trap slot holds its trap"));
    }
    let ctxs: Vec<CoreCtx> = engines.into_iter().flat_map(|engine| engine.ctxs).collect();
    let mut res = CycleSim::result_of(&ctxs);
    res.cancelled = matches!(exit, Exit::Cancelled);
    Ok(res)
}

/// A sense-reversing spin barrier for the per-window step handoff.
///
/// Epochs are only a few simulated cycles, so the handoff latency sits on
/// the critical path; spinning (with a yield fallback so oversubscribed
/// hosts — e.g. single-core CI runners — still make progress) beats a
/// futex round trip by an order of magnitude.
///
/// Everything a thread wrote before `wait` is visible to every thread
/// after it: arrivals are `AcqRel` read-modify-writes of `arrived` (one
/// release sequence the last arriver acquires), and the last arriver's
/// `Release` bump of `generation` pairs with the spinners' `Acquire`
/// loads. The relaxed atomics of the step protocol rely on this.
///
/// The barrier is **poisonable**: a worker that unwinds (a panic or
/// `debug_assert` anywhere in its window loop) poisons it on the way out
/// ([`PoisonOnPanic`]), and every spinner escapes by panicking instead of
/// waiting forever — the thread scope then joins all workers and
/// propagates the original panic rather than hanging the run.
struct SpinBarrier {
    n: usize,
    /// On lines of their own: arrivals hammer `arrived` while everyone
    /// already waiting spins on `generation`.
    arrived: Aligned<AtomicUsize>,
    generation: Aligned<AtomicUsize>,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            arrived: Aligned(AtomicUsize::new(0)),
            generation: Aligned(AtomicUsize::new(0)),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn wait(&self) {
        if self.n == 1 {
            return;
        }
        let generation = self.generation.0.load(Ordering::Acquire);
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.0.store(0, Ordering::Relaxed);
            self.generation.0.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.0.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("a sibling domain worker panicked; aborting the sharded run");
                }
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Poisons the barrier when its worker unwinds, so no sibling spins
/// forever on a step that will never complete.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}
