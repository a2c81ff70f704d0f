//! Recycled per-job cluster memories: an [`ArenaBank`] of parked arenas
//! keyed by geometry, and [`MemPool`], one scenario's handle on it.
//!
//! After the artifact/job split, the dominant per-job fixed cost of batch
//! serving is the private [`ClusterMem`]: mapping a fresh 20 MiB arena
//! (16 MiB L2 plus the L1 banks), faulting its pages in and unmapping it
//! costs ~1–2 ms per job on a typical host — which swamps small
//! fast-mode jobs entirely. Returning a job's memory parks it instead,
//! and the next [`acquire`](MemPool::acquire) *resets* it — re-zeroing
//! **only the dirty footprint** tracked at write time (see
//! [`ClusterMem`]'s 4 KiB dirty pages) and applying the acquiring
//! scenario's initial image — instead of mapping.
//!
//! A reset arena is indistinguishable from a fresh one, so pooled runs
//! are bit-identical to fresh-memory runs; the workspace's `pool`
//! integration tests pin this across backends, worker counts and
//! deadlocked (arbitrarily dirty) jobs.
//!
//! **Arenas belong to a geometry, not to a scenario.** The reset makes
//! an arena image-agnostic — the dirty pages are zeroed first, *then*
//! the acquiring pool's image is loaded, and loading marks what it
//! writes — so an arena parked by one scenario serves any other scenario
//! of the same [`Topology`]. The free lists therefore live in the
//! [`ArenaBank`], one per geometry, and outlive every pool: a serving
//! tier that drops a cold scenario and builds the next one keeps its
//! arenas. A [`MemPool`] is the per-scenario handle: which artifacts
//! (hence which image) to apply, and counters of its own activity.
//! [`MemPool::new`] gives a pool a private bank; [`MemPool::in_bank`]
//! shares one bank between pools.
//!
//! **The bank is bounded by construction.** A fresh arena is mapped only
//! when none of that geometry is parked, so the arenas of a geometry
//! never outnumber the most holders it had at one moment. Nothing needs
//! trimming, and there is nothing to configure.
//!
//! Returning a memory of any other topology than the pool's is rejected
//! ([`release`](MemPool::release) returns `false`), and a parked handle
//! that is still aliased by a live view is quietly discarded at acquire
//! time rather than recycled — recycling an arena another job can still
//! see would alias their memory.
//!
//! # Examples
//!
//! ```
//! use terasim_terapool::{FastSim, MemPool, SimArtifacts, Topology};
//! use terasim_riscv::{Assembler, Image, Reg, Segment};
//!
//! let mut a = Assembler::new(Topology::L2_BASE);
//! a.li(Reg::T0, 42);
//! a.sw(Reg::T0, 0x40, Reg::Zero);
//! a.ecall();
//! let mut image = Image::new(Topology::L2_BASE);
//! image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish()?));
//!
//! let arts = SimArtifacts::build(Topology::scaled(8), &image)?;
//! let pool = MemPool::new(arts);
//! for _ in 0..3 {
//!     // Drops return the arena; after the first job the pool recycles.
//!     let mut sim = FastSim::from_pool(&pool);
//!     sim.run_cores(0..1, 1)?;
//!     assert_eq!(sim.memory().read_u32(0x40), 42);
//! }
//! assert_eq!(pool.stats().recycled, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::artifacts::SimArtifacts;
use crate::mem::ClusterMem;
use crate::topology::Topology;

/// Arena activity counters, of one [`MemPool`] ([`MemPool::stats`]) or
/// summed over every pool of an [`ArenaBank`] ([`ArenaBank::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions that mapped a fresh arena (none of the geometry
    /// parked).
    pub fresh: u64,
    /// Acquisitions served by resetting a parked arena.
    pub recycled: u64,
    /// Parked arenas discarded at acquire because a live view still
    /// aliased them (the job leaked a [`ClusterMem`] clone).
    pub discarded: u64,
    /// Returns rejected outright (topology mismatch with the pool's
    /// artifact set).
    pub rejected: u64,
    /// Arenas surrendered by faulted jobs (panic or cancellation) via
    /// [`MemPool::quarantine`]: dropped outright, never recycled.
    pub quarantined: u64,
}

/// The live form of [`PoolStats`]. Plain statistics: relaxed, and they
/// publish nothing.
#[derive(Debug, Default)]
struct Counters {
    fresh: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// The bank's books for one geometry.
#[derive(Debug)]
struct Shelf {
    topo: Topology,
    /// LIFO: the most recently returned arena is the hottest (page-table
    /// and cache residency) and is handed out first.
    parked: Vec<ClusterMem>,
    /// Arenas checked out and not yet returned or quarantined.
    in_use: usize,
}

/// One geometry's share of an [`ArenaBank`], as [`ArenaBank::geometries`]
/// reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGeometry {
    /// The geometry.
    pub topology: Topology,
    /// Arenas parked, ready for the next acquire.
    pub parked: usize,
    /// Arenas out with jobs (or with a resident simulator): checked out
    /// and not yet back through [`MemPool::release`] or
    /// [`MemPool::quarantine`]. A handle dropped without either stays
    /// counted; the simulators always do one or the other.
    pub in_use: usize,
    /// Address space one arena of this geometry maps
    /// ([`ClusterMem::arena_bytes`]).
    pub arena_bytes: usize,
}

impl BankGeometry {
    /// Address space mapped for this geometry: parked and in-use arenas.
    /// Resident memory is less — only the pages jobs touched.
    pub fn mapped_bytes(&self) -> usize {
        (self.parked + self.in_use) * self.arena_bytes
    }
}

/// Parked cluster arenas keyed by geometry, shared by every [`MemPool`]
/// created [`in`](MemPool::in_bank) it, plus the activity totals of
/// those pools. The totals live here, with the arenas, so they outlive
/// any one pool. See the module docs.
#[derive(Debug, Default)]
pub struct ArenaBank {
    /// A handful of geometries at most: found by linear scan.
    shelves: Mutex<Vec<Shelf>>,
    total: Counters,
}

impl ArenaBank {
    /// Creates an empty bank.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Activity summed over every pool this bank has had, dropped ones
    /// included.
    pub fn stats(&self) -> PoolStats {
        self.total.snapshot()
    }

    /// What the bank holds, per geometry, in order of first use.
    pub fn geometries(&self) -> Vec<BankGeometry> {
        self.shelves()
            .iter()
            .map(|s| BankGeometry {
                topology: s.topo,
                parked: s.parked.len(),
                in_use: s.in_use,
                arena_bytes: ClusterMem::arena_bytes(s.topo),
            })
            .collect()
    }

    /// Locks the shelves, recovering from poisoning. They hold plain
    /// owned arenas and a count — no invariant a mid-panic writer could
    /// have broken — and `check_in` runs from `Drop` during unwinding,
    /// where a poison panic would be a panic-in-panic abort.
    fn shelves(&self) -> MutexGuard<'_, Vec<Shelf>> {
        self.shelves.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn shelf(shelves: &mut Vec<Shelf>, topo: Topology) -> &mut Shelf {
        let at = shelves.iter().position(|s| s.topo == topo).unwrap_or_else(|| {
            shelves.push(Shelf { topo, parked: Vec::new(), in_use: 0 });
            shelves.len() - 1
        });
        &mut shelves[at]
    }

    /// Checks one arena of `topo` out: the hottest parked arena nobody
    /// aliases, or `None` when there is none and the caller must map a
    /// fresh one. Also returns how many aliased handles it passed over;
    /// those leave the bank for good (their arenas stay with whoever
    /// kept a view).
    fn check_out(&self, topo: Topology) -> (Option<ClusterMem>, usize) {
        let mut aliased = Vec::new();
        let mem = {
            let mut shelves = self.shelves();
            let shelf = Self::shelf(&mut shelves, topo);
            shelf.in_use += 1;
            loop {
                match shelf.parked.pop() {
                    Some(mem) if !mem.is_unique() => aliased.push(mem),
                    other => break other,
                }
            }
        };
        (mem, aliased.len())
    }

    /// Checks an arena of `topo` back in: parked when `mem` is given,
    /// merely written off (quarantined, or rejected by its pool) when
    /// not.
    fn check_in(&self, topo: Topology, mem: Option<ClusterMem>) {
        let mut shelves = self.shelves();
        let shelf = Self::shelf(&mut shelves, topo);
        // Saturating: a memory made outside the bank may be returned to
        // it.
        shelf.in_use = shelf.in_use.saturating_sub(1);
        shelf.parked.extend(mem);
    }
}

/// One scenario's handle on an [`ArenaBank`]: issues cluster memories in
/// the fresh state of its [`SimArtifacts`] and counts what it did. See
/// the module docs.
#[derive(Debug)]
pub struct MemPool {
    arts: Arc<SimArtifacts>,
    bank: Arc<ArenaBank>,
    own: Counters,
}

impl MemPool {
    /// Creates a pool issuing memories for `arts`' scenario from a bank
    /// of its own.
    ///
    /// Returned in an [`Arc`] because that is how every consumer uses it:
    /// the pool is shared between the batch driver and the jobs whose
    /// simulators return their memory on drop.
    pub fn new(arts: Arc<SimArtifacts>) -> Arc<Self> {
        Self::in_bank(arts, &ArenaBank::new())
    }

    /// As [`new`](Self::new) over a shared `bank`: arenas this pool
    /// returns serve every pool of the same geometry in the bank, and
    /// stay parked there when this pool is dropped.
    pub fn in_bank(arts: Arc<SimArtifacts>, bank: &Arc<ArenaBank>) -> Arc<Self> {
        Arc::new(Self { arts, bank: Arc::clone(bank), own: Counters::default() })
    }

    /// The artifact set this pool issues memories for.
    pub fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    /// Adds `n` to one counter, here and in the bank's totals.
    fn count(&self, counter: impl Fn(&Counters) -> &AtomicU64, n: usize) {
        for counters in [&self.own, &self.bank.total] {
            counter(counters).fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Hands out a cluster memory in the exact fresh state (all-zero plus
    /// the scenario image): a parked arena of the pool's geometry reset
    /// via its dirty page set when the bank has one, a new mapping
    /// otherwise. Parked handles that are still aliased by a live view
    /// are discarded, never recycled.
    pub fn acquire(&self) -> ClusterMem {
        let (parked, aliased) = self.bank.check_out(self.arts.topology());
        self.count(|c| &c.discarded, aliased);
        match parked {
            Some(mem) => {
                self.arts.reset_memory(&mem);
                self.count(|c| &c.recycled, 1);
                mem
            }
            None => {
                self.count(|c| &c.fresh, 1);
                self.arts.fresh_memory()
            }
        }
    }

    /// Returns an arena for recycling. Accepts only memories of the
    /// pool's own topology (any [`acquire`](Self::acquire)d handle
    /// qualifies); a mismatched topology is rejected — the arena has the
    /// wrong geometry for this scenario — and `false` is returned, with
    /// the memory simply dropped.
    ///
    /// The arena may be arbitrarily dirty (a deadlocked or trapped job's
    /// memory is fine): the reset happens at the next acquire.
    pub fn release(&self, mem: ClusterMem) -> bool {
        let topo = mem.topology();
        let accepted = topo == self.arts.topology();
        if !accepted {
            self.count(|c| &c.rejected, 1);
        }
        self.bank.check_in(topo, accepted.then_some(mem));
        accepted
    }

    /// Surrenders an arena from a faulted job (panic mid-run, cooperative
    /// cancellation): the memory is dropped on the spot and **never**
    /// re-enters the bank. A faulted job's arena may have been abandoned
    /// mid-write, so even a dirty-page reset is not trusted — the next
    /// acquire maps fresh instead.
    pub fn quarantine(&self, mem: ClusterMem) {
        self.count(|c| &c.quarantined, 1);
        self.bank.check_in(mem.topology(), None);
        drop(mem);
    }

    /// Arenas of this pool's geometry currently parked in the bank.
    pub fn parked(&self) -> usize {
        let topo = self.arts.topology();
        self.bank.geometries().iter().find(|g| g.topology == topo).map_or(0, |g| g.parked)
    }

    /// Snapshot of this pool's own activity ([`ArenaBank::stats`] has the
    /// totals over a shared bank).
    pub fn stats(&self) -> PoolStats {
        self.own.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    /// A guest storing `value` to 0x20, its text padded with `pad` nops
    /// so that images of different sizes can be told apart.
    fn artifacts_of(cores: u32, value: i32, pad: usize) -> Arc<SimArtifacts> {
        let mut a = Assembler::new(Topology::L2_BASE);
        a.li(Reg::T0, value);
        a.sw(Reg::T0, 0x20, Reg::Zero);
        for _ in 0..pad {
            a.nop();
        }
        a.ecall();
        let mut image = Image::new(Topology::L2_BASE);
        image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
        SimArtifacts::build(Topology::scaled(cores), &image).unwrap()
    }

    fn artifacts(cores: u32) -> Arc<SimArtifacts> {
        artifacts_of(cores, 7, 0)
    }

    #[test]
    fn acquire_recycles_and_resets() {
        let arts = artifacts(8);
        let pool = MemPool::new(Arc::clone(&arts));
        let mem = pool.acquire();
        mem.write_u32(0x100, 0xdead_beef);
        assert!(pool.release(mem));
        assert_eq!(pool.parked(), 1);
        let again = pool.acquire();
        assert_eq!(again.read_u32(0x100), 0, "recycled arena must be reset");
        // The image is re-applied: text word 0 is the fresh `li`.
        assert_eq!(again.read_u32(Topology::L2_BASE), arts.fresh_memory().read_u32(Topology::L2_BASE));
        assert_eq!(pool.stats(), PoolStats { fresh: 1, recycled: 1, ..PoolStats::default() });
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let pool = MemPool::new(artifacts(8));
        let foreign = ClusterMem::new(Topology::scaled(16));
        assert!(!pool.release(foreign), "foreign topology must be rejected");
        assert_eq!(pool.parked(), 0);
        assert_eq!(pool.stats().rejected, 1);
        // The pool still serves correct memories afterwards.
        assert_eq!(pool.acquire().topology(), Topology::scaled(8));
    }

    #[test]
    fn quarantined_arenas_never_reenter_the_bank() {
        let bank = ArenaBank::new();
        let pool = MemPool::in_bank(artifacts(8), &bank);
        let mem = pool.acquire();
        mem.write_u32(0x100, 0xbad);
        pool.quarantine(mem);
        let [shelf] = bank.geometries()[..] else { panic!("one geometry") };
        assert_eq!(
            (shelf.parked, shelf.in_use),
            (0, 0),
            "quarantined arena must neither park nor stay on the books"
        );
        assert_eq!(pool.stats().quarantined, 1);
        // The next acquire, of any pool in the bank, maps fresh.
        let other = MemPool::in_bank(artifacts(8), &bank);
        assert_eq!(other.acquire().read_u32(0x100), 0);
        assert_eq!(other.stats().fresh, 1);
        assert_eq!(bank.stats(), PoolStats { fresh: 2, quarantined: 1, ..PoolStats::default() });
    }

    #[test]
    fn shelves_survive_poisoning() {
        let pool = MemPool::new(artifacts(8));
        let mem = pool.acquire();
        // Poison the bank's mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.bank.shelves.lock().unwrap();
            panic!("poison the bank lock");
        }));
        assert!(pool.bank.shelves.is_poisoned());
        // Release and acquire must recover instead of cascading.
        assert!(pool.release(mem));
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.acquire().read_u32(0x100), 0);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn aliased_returns_are_discarded_not_recycled() {
        let pool = MemPool::new(artifacts(8));
        let mem = pool.acquire();
        let leak = mem.clone();
        assert!(pool.release(mem));
        // The live clone makes the parked arena unrecyclable; acquire
        // must discard it and map fresh instead of aliasing `leak`.
        let fresh = pool.acquire();
        leak.write_u32(0x40, 1);
        assert_eq!(fresh.read_u32(0x40), 0, "acquired arena must not alias the leaked handle");
        let stats = pool.stats();
        assert_eq!((stats.discarded, stats.recycled, stats.fresh), (1, 0, 2));
        assert_eq!(pool.parked(), 0, "the aliased handle left the bank");
    }

    /// Every word of both arrays, through the host view.
    fn contents(mem: &ClusterMem) -> Vec<u32> {
        let l1 = (0..ClusterMem::arena_bytes(mem.topology()) as u32 - Topology::L2_SIZE).step_by(4);
        let l2 = (0..Topology::L2_SIZE).step_by(4).map(|off| Topology::L2_BASE + off);
        l1.chain(l2).map(|addr| mem.read_u32(addr)).collect()
    }

    #[test]
    fn an_arena_crosses_scenarios_of_one_geometry_and_arrives_fresh() {
        let bank = ArenaBank::new();
        // `big`'s text segment is longer than `small`'s, so a reset that
        // only re-applied the next image would leave `big`'s tail behind.
        let big = artifacts_of(8, 7, 600);
        let small = artifacts_of(8, 9, 0);
        let from_big = MemPool::in_bank(Arc::clone(&big), &bank);
        let from_small = MemPool::in_bank(Arc::clone(&small), &bank);

        let mem = from_big.acquire();
        mem.write_u32(0x100, 0xdead_beef);
        mem.write_u32(Topology::L2_BASE + 0x8000, 0xfeed);
        assert!(from_big.release(mem));

        let crossed = from_small.acquire();
        assert_eq!(
            from_small.stats(),
            PoolStats { recycled: 1, ..PoolStats::default() },
            "no second mapping"
        );
        assert!(contents(&crossed) == contents(&small.fresh_memory()), "big -> small: not the fresh state");
        assert!(from_small.release(crossed));

        let back = from_big.acquire();
        assert!(contents(&back) == contents(&big.fresh_memory()), "small -> big: not the fresh state");
        assert_eq!(bank.stats(), PoolStats { fresh: 1, recycled: 2, ..PoolStats::default() });
    }

    #[test]
    fn geometries_never_mix_in_a_shared_bank() {
        let bank = ArenaBank::new();
        let eight = MemPool::in_bank(artifacts(8), &bank);
        let sixteen = MemPool::in_bank(artifacts(16), &bank);
        assert!(eight.release(eight.acquire()));
        // An 8-core arena is parked; a 16-core pool must not take it ...
        let mem = sixteen.acquire();
        assert_eq!(mem.topology(), Topology::scaled(16));
        assert_eq!(sixteen.stats(), PoolStats { fresh: 1, ..PoolStats::default() });
        // ... nor may the 8-core pool accept the 16-core arena back: it
        // is dropped, and written off the 16-core books.
        assert!(!eight.release(mem));
        assert_eq!(eight.stats().rejected, 1);
        let shelves = bank.geometries();
        let books: Vec<_> = shelves.iter().map(|g| (g.topology, g.parked, g.in_use)).collect();
        assert_eq!(books, [(Topology::scaled(8), 1, 0), (Topology::scaled(16), 0, 0)]);
        assert_eq!(shelves[0].mapped_bytes(), ClusterMem::arena_bytes(Topology::scaled(8)));
        assert_eq!(shelves[1].mapped_bytes(), 0);
    }

    #[test]
    fn arenas_and_totals_outlive_their_pool() {
        let bank = ArenaBank::new();
        let first = MemPool::in_bank(artifacts(8), &bank);
        let kept = first.acquire();
        first.quarantine(first.acquire());
        assert!(first.release(kept));
        drop(first);
        assert_eq!(bank.stats(), PoolStats { fresh: 2, quarantined: 1, ..PoolStats::default() });
        // The next pool of the geometry starts on the parked arena.
        let next = MemPool::in_bank(artifacts(8), &bank);
        let _mem = next.acquire();
        assert_eq!(next.stats(), PoolStats { recycled: 1, ..PoolStats::default() });
        assert_eq!(bank.stats(), PoolStats { fresh: 2, recycled: 1, quarantined: 1, ..PoolStats::default() });
    }
}
