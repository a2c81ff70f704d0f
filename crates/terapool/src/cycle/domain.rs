//! The per-domain half of the epoch-sharded cycle engine: one
//! event-driven scheduler ([`DomainEngine`]) per topology *group*, owning
//! that group's cores, tile I$ models, bank/port reservation books and
//! ready queue ([`Wheel`]). A domain simulates one epoch at a time with
//! no synchronization; everything that crosses its boundary goes through
//! the [`XRequest`] outbox, which the epoch driver ([`super::epoch`])
//! hands to the owners of the requests' targets between epochs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use terasim_iss::Trap;

use crate::mem::{ClusterMem, DomainBanks, XRequest};

use super::reach::ReachMap;
use super::{CoreCtx, CoreState, CycleSim, FastICache, RunTables};

/// Wheel size in one-cycle slots (power of two; covers every short
/// latency in the model — longer delays take the overflow heap).
pub(super) const WHEEL_SLOTS: u64 = 256;
const WHEEL_MASK: u64 = WHEEL_SLOTS - 1;

/// A domain's ready queue: a calendar wheel of [`WHEEL_SLOTS`]
/// one-cycle slots, each a core-id bitmap (iteration yields ascending
/// ids — the naive scan's issue order — with O(1) insertion). Each
/// non-parked, non-done core has exactly one live entry. Wake times
/// beyond the wheel horizon (rare: deep bank-contention queues) overflow
/// into a heap and migrate back as time advances.
struct Wheel {
    /// `WHEEL_SLOTS × words` bitmap words.
    slots: Vec<u64>,
    /// Queued-core count per slot.
    counts: Vec<u32>,
    /// Total cores queued in the wheel.
    pending: u32,
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Bitmap words per slot (`⌈cores / 64⌉`).
    words: usize,
}

impl Wheel {
    fn new(cores: u32) -> Self {
        let words = (cores as usize).div_ceil(64);
        Self {
            slots: vec![0; WHEEL_SLOTS as usize * words],
            counts: vec![0; WHEEL_SLOTS as usize],
            pending: 0,
            overflow: BinaryHeap::new(),
            words,
        }
    }

    /// Queues `core` to issue at cycle `at` (`at ≥ now`).
    #[inline]
    fn push(&mut self, now: u64, at: u64, core: u32) {
        if at - now < WHEEL_SLOTS {
            let slot = (at & WHEEL_MASK) as usize;
            self.slots[slot * self.words + (core / 64) as usize] |= 1u64 << (core % 64);
            self.counts[slot] += 1;
            self.pending += 1;
        } else {
            self.overflow.push(Reverse((at, core)));
        }
    }

    /// Moves overflow entries inside the `[now, now + WHEEL_SLOTS)` horizon
    /// into the wheel.
    fn migrate(&mut self, now: u64) {
        while let Some(&Reverse((at, core))) = self.overflow.peek() {
            if at >= now + WHEEL_SLOTS {
                break;
            }
            self.overflow.pop();
            self.push(now, at, core);
        }
    }

    /// Earliest wake time queued in the overflow heap.
    fn next_overflow(&self) -> Option<u64> {
        self.overflow.peek().map(|&Reverse((at, _))| at)
    }

    /// Whether the slot for cycle `at` is empty.
    #[inline]
    fn slot_empty(&self, at: u64) -> bool {
        self.counts[(at & WHEEL_MASK) as usize] == 0
    }

    /// Empties the slot for cycle `now`, OR-ing its core bitmap into
    /// `cur`. No-op (and no memory traffic) when the slot is empty.
    fn drain_slot_into(&mut self, now: u64, cur: &mut [u64]) {
        let slot = (now & WHEEL_MASK) as usize;
        let count = self.counts[slot];
        if count == 0 {
            return;
        }
        self.pending -= count;
        self.counts[slot] = 0;
        for (w, s) in cur.iter_mut().enumerate() {
            *s |= std::mem::take(&mut self.slots[slot * self.words + w]);
        }
    }
}

/// One arbitration domain of the epoch-sharded engine: an event-driven
/// scheduler scoped to the cores, tiles and banks of a single topology
/// group (the whole cluster on a single-group topology). All indices
/// below `core_base`-relative state (`ctxs`, wheel bitmaps, `parked`)
/// are *local* core ids; the [`DomainBanks`] translate global tile/bank
/// ids.
pub(super) struct DomainEngine {
    /// First global core id of the domain.
    pub(super) core_base: u32,
    /// Per-core contexts (local index).
    pub(super) ctxs: Vec<CoreCtx>,
    /// Per-tile shared instruction caches (local index).
    pub(super) icaches: Vec<FastICache>,
    /// This domain's bank/port reservation books.
    pub(super) banks: DomainBanks,
    /// Locally parked (`wfi`) cores, woken only at epoch boundaries.
    pub(super) parked: Vec<u32>,
    /// Deferred cross-domain requests issued this epoch, in
    /// `(cycle, core)` order by construction of the event loop.
    pub(super) outbox: Vec<XRequest>,
    /// First trap raised by this domain, tagged `(cycle, core)` so the
    /// epoch driver can abort the run with the globally *earliest* trap —
    /// the same one the sequential full scan would hit first.
    pub(super) trap: Option<(u64, u32, Trap)>,
    /// Instructions retired inside solo drives so far (folded into the
    /// run's [`super::EpochReport`] once, when the run ends).
    pub(super) solo_instructions: u64,
    /// Static reachability map — present when the run uses adaptive
    /// epoch scheduling, absent on fixed cadence (no horizon tracking,
    /// no elision, the retained reference behaviour).
    reach: Option<Arc<ReachMap>>,
    /// Lower bound on the first cycle at which any of this domain's
    /// *ready* cores could issue a possibly-remote uop, refreshed in the
    /// [`Self::run_epoch`] epilogue and amended by wake delivery. The
    /// epoch driver may extend a multi-active epoch up to the minimum of
    /// these bounds without any domain deferring a request into it.
    horizon: u64,
    wheel: Wheel,
    cur: Vec<u64>,
    nxt: Vec<u64>,
    nxt_count: u32,
    now: u64,
    /// `false` until the first epoch ran: the initial ready set (all
    /// cores at cycle 0) is pre-seeded in `cur`, not in the wheel.
    paused: bool,
    /// [`ClusterMem::wake_epoch`] as of the last wake delivery: while it
    /// is unchanged no wake-all was published, so no parked core of this
    /// domain can have a pending wake (see [`Self::deliver_wakes`]).
    seen_wake_epoch: u64,
}

/// Per-window scheduling options the epoch driver hands each
/// [`DomainEngine::run_epoch`] call.
pub(super) struct WindowOpts {
    /// Base epoch length (the fixed-cadence grid unit).
    pub(super) epoch: u64,
    /// Extended window: a solo core issues through the elided run step
    /// ([`CycleSim::issue_run`]) — straight runs of provably-local
    /// single-cycle uops skip the scoreboard and issue whole, clipped to
    /// the window end. Every other core, and every core in a base
    /// window, issues each uop on the full path.
    pub(super) elide: bool,
    /// Sole-active window: on the first deferred request, trim the
    /// window end back to the request's base-cadence boundary so the
    /// replay happens exactly where the fixed cadence would have put it.
    pub(super) trim: bool,
}

impl DomainEngine {
    /// Builds the engine for `domain`, covering the intersection of the
    /// run's core range `0..cores` with the group's cores (possibly
    /// empty for partial-cluster runs).
    pub(super) fn new(sim: &CycleSim, domain: u32, cores: u32, reach: Option<Arc<ReachMap>>) -> Self {
        let topo = sim.topology();
        let lo = (domain * topo.cores_per_group()).min(cores);
        let hi = ((domain + 1) * topo.cores_per_group()).min(cores);
        let ctxs: Vec<CoreCtx> = (lo..hi).map(|core| sim.fresh_ctx(core)).collect();
        let n = hi - lo;
        let wheel = Wheel::new(n.max(1));
        let words = wheel.words;
        let mut cur = vec![0u64; words];
        for local in 0..n {
            cur[(local / 64) as usize] |= 1u64 << (local % 64); // all issue at cycle 0
        }
        Self {
            core_base: lo,
            ctxs,
            icaches: (0..topo.tiles_per_group())
                .map(|_| FastICache::new(topo.icache_bytes, topo.icache_line))
                .collect(),
            banks: DomainBanks::for_domain(topo, domain),
            parked: Vec::new(),
            outbox: Vec::new(),
            trap: None,
            solo_instructions: 0,
            reach,
            horizon: 0,
            wheel,
            nxt: vec![0u64; words],
            cur,
            nxt_count: 0,
            now: 0,
            paused: false,
            seen_wake_epoch: sim.memory().wake_epoch(),
        }
    }

    /// Simulates the window `[start, end)`: processes every queued event
    /// of this domain's cores in that window, deferring cross-domain
    /// accesses into the outbox, then parks exactly at the boundary.
    /// Returns the boundary actually reached — `end`, unless a
    /// sole-active window ([`WindowOpts::trim`]) was trimmed back by a
    /// deferred request.
    ///
    /// A core is *solo* when it is the domain's only event before `end`:
    /// the last bit of the current cycle, nothing due next cycle, and
    /// nothing queued in the wheel or before `end` in its overflow. Wakes
    /// only arrive at boundaries, so it stays alone until `end`, and the
    /// engine drives it in a tight loop instead — issuing at
    /// `max(wake_at, now + 1)` without touching the wheel or the ready
    /// bitmaps, whole straight runs at a time in extended windows — until
    /// its next issue lies at or beyond `end` or it parks, finishes or
    /// traps. It leaves the queues exactly as the per-event steps would.
    ///
    /// On a trap the error is recorded in `self.trap`, tagged with the
    /// trapping issue's cycle; the epoch driver aborts the run
    /// deterministically at the boundary.
    pub(super) fn run_epoch(
        &mut self,
        sim: &CycleSim,
        tables: &RunTables,
        start: u64,
        mut end: u64,
        opts: &WindowOpts,
    ) -> u64 {
        debug_assert!(start < end && self.now <= start);
        if self.trap.is_some() {
            return self.now;
        }
        if self.paused {
            // Resume: pull the cores due exactly at `start` (the
            // epoch driver guarantees no event lies before it).
            self.now = start;
            self.wheel.migrate(start);
            self.wheel.drain_slot_into(start, &mut self.cur);
        }

        // Per-window invariants, hoisted out of the issue loop.
        let trim_to = |now: u64| now / opts.epoch * opts.epoch + opts.epoch;
        loop {
            // Process every core scheduled for `self.now`, in ascending
            // local id — which is ascending global id within the domain.
            for w in 0..self.cur.len() {
                let mut bits = std::mem::take(&mut self.cur[w]);
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    let local = (w * 64) as u32 + bits.trailing_zeros();
                    bits ^= bit;
                    let ctx = &mut self.ctxs[local as usize];
                    let solo = bits == 0
                        && self.nxt_count == 0
                        && self.wheel.pending == 0
                        && self.cur[w + 1..].iter().all(|&b| b == 0)
                        && self.wheel.next_overflow().is_none_or(|at| at >= end);
                    // One issue on the full path, or a whole solo drive
                    // (see above). The sole-window trim is re-applied
                    // after every solo issue: the first deferral pulls
                    // `end` in, and the drive stops at it.
                    let issued = if !solo {
                        sim.issue_fast(
                            ctx,
                            tables,
                            &mut self.icaches,
                            &mut self.banks,
                            self.now,
                            &mut self.outbox,
                        )
                    } else {
                        let first = ctx.stats.instructions;
                        let issued = loop {
                            let max_len = if opts.elide { end - self.now } else { 0 };
                            let issued = sim.issue_run(
                                ctx,
                                tables,
                                &mut self.icaches,
                                &mut self.banks,
                                self.now,
                                max_len,
                                &mut self.outbox,
                            );
                            if issued.is_err() {
                                break issued;
                            }
                            if opts.trim && !self.outbox.is_empty() {
                                end = end.min(trim_to(self.now));
                            }
                            let wake = ctx.wake_at.max(self.now + 1);
                            if ctx.state != CoreState::Ready || wake >= end {
                                break issued;
                            }
                            self.now = wake;
                        };
                        self.solo_instructions += ctx.stats.instructions - first;
                        issued
                    };
                    if let Err(trap) = issued {
                        self.trap = Some((self.now, self.core_base + local, trap));
                        return self.now;
                    }
                    match ctx.state {
                        CoreState::Ready => {
                            let wake = ctx.wake_at.max(self.now + 1);
                            if wake == self.now + 1 {
                                self.nxt[w] |= bit;
                                self.nxt_count += 1;
                            } else {
                                self.wheel.push(self.now, wake, local);
                            }
                        }
                        CoreState::Parked => self.parked.push(local),
                        CoreState::Done => {}
                    }
                    // No mid-epoch wake check: wake-all publications go
                    // through the (deferred) control-region store, so the
                    // wake channel can only move at epoch boundaries.
                }
            }

            // Sole-active trim: a deferred request must be replayed at
            // the same base-cadence boundary the fixed cadence would
            // use, so the first one shrinks the window back to its
            // issue cycle's boundary. (Multi-active extended windows
            // never defer — the epoch driver's horizon guarantees it.)
            if opts.trim && !self.outbox.is_empty() {
                end = end.min(trim_to(self.now));
            }

            // Advance to the next cycle with work, clamped to the epoch.
            if self.nxt_count > 0 {
                if self.now + 1 >= end {
                    // Work due in the next epoch: spill it into the wheel
                    // so the paused state lives entirely there.
                    for w in 0..self.nxt.len() {
                        let mut bits = std::mem::take(&mut self.nxt[w]);
                        while bits != 0 {
                            let local = (w * 64) as u32 + bits.trailing_zeros();
                            bits &= bits - 1;
                            self.wheel.push(self.now, self.now + 1, local);
                        }
                    }
                    self.nxt_count = 0;
                    break;
                }
                self.now += 1;
                std::mem::swap(&mut self.cur, &mut self.nxt);
                self.nxt_count = 0;
                self.wheel.migrate(self.now);
                self.wheel.drain_slot_into(self.now, &mut self.cur);
                continue;
            }
            // Nothing due next cycle: the nearest work lives in the wheel
            // (or beyond its horizon in the overflow heap).
            self.wheel.migrate(self.now);
            if self.wheel.pending == 0 {
                match self.wheel.next_overflow() {
                    Some(at) if at < end => {
                        self.now = at;
                        self.wheel.migrate(at);
                    }
                    // No work left before the boundary.
                    _ => break,
                }
            } else {
                self.now += 1;
            }
            let mut t = self.now;
            while t < end && self.wheel.slot_empty(t) {
                t += 1;
            }
            if t >= end {
                break;
            }
            self.now = t;
            self.wheel.drain_slot_into(t, &mut self.cur);
        }

        self.now = end;
        self.paused = true;
        self.refresh_horizon(end, opts.epoch);
        end
    }

    /// Parks the engine at `end` without simulating anything: the
    /// epoch driver proved this domain has no event before `end` (the
    /// idle half of a sole-active window). State other than the clock is
    /// untouched, so the stored horizon stays valid.
    pub(super) fn skip_to(&mut self, end: u64) {
        debug_assert!(self.now <= end && self.nxt_count == 0);
        self.now = end;
        self.paused = true;
    }

    /// The epoch driver's view of this domain's remote-issue horizon
    /// (`u64::MAX` on fixed-cadence runs — never consulted there).
    pub(super) fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Recomputes the remote-issue horizon after a window ending at
    /// `end`: the minimum over ready cores of `wake_at + dist(pc)` —
    /// each issue takes at least one cycle, so a core due at `wake_at`
    /// whose nearest statically-reachable memory access is `dist`
    /// instructions away cannot defer anything before that sum. The scan
    /// exits early once the running minimum is too close for any
    /// extension to be granted (an extension must gain at least one
    /// whole epoch past the next base window, and the next window starts
    /// no earlier than `end`).
    fn refresh_horizon(&mut self, end: u64, epoch: u64) {
        let Some(reach) = &self.reach else { return };
        let floor = end + 2 * epoch;
        let mut h = u64::MAX;
        for ctx in &self.ctxs {
            if ctx.state != CoreState::Ready {
                continue;
            }
            let hc = ctx.wake_at.saturating_add(reach.dist(ctx.cpu.pc()));
            if hc < h {
                h = hc;
                // Strictly below the grant threshold: no extension can
                // be granted off this value, so the partial minimum is
                // safe to publish without finishing the scan.
                if h < floor {
                    break;
                }
            }
        }
        self.horizon = h;
    }

    /// The earliest cycle (`≥ from`, the boundary just reached) at which
    /// this domain has a queued event, or `u64::MAX` when idle. Parked
    /// cores are not events — they wait on the wake channel.
    pub(super) fn next_event(&self, from: u64) -> u64 {
        debug_assert_eq!(self.nxt_count, 0, "next_event on an un-parked engine");
        let mut best = self.wheel.next_overflow().unwrap_or(u64::MAX);
        if self.wheel.pending > 0 {
            let mut t = from;
            while self.wheel.slot_empty(t) {
                t += 1;
                debug_assert!(t < from + WHEEL_SLOTS, "wheel entry outside its horizon");
            }
            best = best.min(t);
        }
        best
    }

    /// Delivers pending barrier wakes to this domain's parked cores at
    /// the epoch boundary `at` (the cycle the next epoch starts): the
    /// sleeper observes the wake at `at` and can issue from `at + 1`.
    ///
    /// Gated on the wake notification epoch instead of polling every
    /// parked core's bit at every boundary: a wake bit is only ever set
    /// by a wake-all publication, which bumps the epoch, and a core whose
    /// bit is already pending when it reaches `wfi` consumes it at issue
    /// and never parks — so with the epoch unchanged since the last
    /// delivery, no parked core has anything to receive.
    pub(super) fn deliver_wakes(&mut self, mem: &ClusterMem, at: u64) {
        let wake_epoch = mem.wake_epoch();
        if wake_epoch == self.seen_wake_epoch {
            return;
        }
        self.seen_wake_epoch = wake_epoch;
        let mut parked = std::mem::take(&mut self.parked);
        parked.retain(|&local| {
            let core = self.core_base + local;
            if !mem.wake_pending(core) {
                return true;
            }
            let _ = mem.take_wake(core);
            let ctx = &mut self.ctxs[local as usize];
            ctx.stats.stall_wfi += at.saturating_sub(ctx.parked_at);
            ctx.state = CoreState::Ready;
            ctx.wake_at = at + 1;
            // A woken core re-enters the horizon: it can issue from
            // `at + 1` and its nearest memory access is `dist(pc)`
            // instructions downstream of the `wfi`.
            if let Some(reach) = &self.reach {
                self.horizon = self.horizon.min((at + 1).saturating_add(reach.dist(ctx.cpu.pc())));
            }
            self.wheel.push(at, at + 1, local);
            false
        });
        self.parked = parked;
    }
}
