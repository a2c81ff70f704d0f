//! The shared cluster memory: banked L1 (both views), L2, control region —
//! plus the domain-partitioned timing state ([`DomainBanks`]) and the
//! cross-domain request record ([`XRequest`]) the epoch-sharded cycle
//! engine exchanges at epoch boundaries.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use terasim_iss::{MemError, MemOp, Memory};
use terasim_riscv::{AmoOp, Image};

use crate::topology::{L1Decode, Topology};

/// Applies an AMO to `old`.
fn amo_apply(op: AmoOp, old: u32, value: u32) -> u32 {
    match op {
        AmoOp::Swap => value,
        AmoOp::Add => old.wrapping_add(value),
        AmoOp::Xor => old ^ value,
        AmoOp::And => old & value,
        AmoOp::Or => old | value,
        AmoOp::Min => (old as i32).min(value as i32) as u32,
        AmoOp::Max => (old as i32).max(value as i32) as u32,
        AmoOp::Minu => old.min(value),
        AmoOp::Maxu => old.max(value),
    }
}

/// Alignment check of a guest access. `size` is 1, 2 or 4, so a mask
/// replaces the hardware divide a runtime `addr % size` compiles to — on
/// the path of every guest load and store.
#[inline]
fn misaligned(addr: u32, size: u32) -> bool {
    debug_assert!(size.is_power_of_two());
    addr & (size - 1) != 0
}

/// Words per dirty-tracking page (4 KiB). Coarse enough that the
/// write-path cost is one extra relaxed byte store per memory store, fine
/// enough that resetting a recycled arena touches only the KiBs a small
/// job actually dirtied instead of the 20 MiB allocation.
const DIRTY_PAGE_WORDS: usize = 1024;

/// The kernel's anonymous-mapping calls, declared here because the
/// workspace depends on nothing but `std`. Flag values are the generic
/// Linux ones, which the architectures listed in the `cfg` share.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
))]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::ptr::NonNull;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64)
            -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    /// Maps `bytes` of zero pages, or `None` if the kernel refuses.
    pub fn map_zeroed(bytes: usize) -> Option<NonNull<u8>> {
        if bytes == 0 {
            return None;
        }
        // SAFETY: a fresh anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; the arguments are valid for
        // any `bytes > 0` and failure is reported as `MAP_FAILED` (-1).
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
        };
        if ptr as isize == -1 {
            None
        } else {
            NonNull::new(ptr.cast())
        }
    }

    /// Unmaps a region [`map_zeroed`] returned.
    ///
    /// # Safety
    ///
    /// `(ptr, bytes)` must be exactly one live `map_zeroed` result, and
    /// nothing may touch the region afterwards.
    pub unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // A failure would leave the region mapped: a leak, not a hazard.
        // SAFETY: the caller's contract above.
        let _ = unsafe { munmap(ptr.as_ptr().cast(), bytes) };
    }
}

/// The portable stand-in: no kernel mapping, so [`Words`] uses the heap.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
)))]
mod sys {
    use std::ptr::NonNull;

    pub fn map_zeroed(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    /// # Safety
    ///
    /// Never called: `map_zeroed` never returns a region.
    pub unsafe fn unmap(_ptr: NonNull<u8>, _bytes: usize) {}
}

/// Allocates a zeroed `Vec<AtomicU32>` through the `calloc` fast path
/// (element-wise construction of multi-MiB atomic arrays dominates
/// simulator start-up otherwise).
fn zeroed_atomics(words: usize) -> Vec<AtomicU32> {
    let zeroed: Vec<u32> = vec![0; words];
    // SAFETY: `AtomicU32` is documented to have "the same size and bit
    // validity as the underlying integer type, u32", and the same
    // alignment on all supported platforms; an all-zero bit pattern is a
    // valid `AtomicU32`. Length/capacity are preserved.
    unsafe {
        let mut v = std::mem::ManuallyDrop::new(zeroed);
        Vec::from_raw_parts(v.as_mut_ptr().cast::<AtomicU32>(), v.len(), v.capacity())
    }
}

/// One zeroed word array of an arena (L1 or L2).
///
/// The words come straight from an anonymous private mapping, so a new
/// array is lazily zero: the kernel supplies a zero page on the first
/// touch of each 4 KiB and nothing is ever memset. `vec![0; n]` only
/// gets that while the request is above malloc's mmap threshold, and
/// glibc raises the threshold to the size of the first mapped chunk it
/// sees freed: after one 16 MiB L2 array is dropped, every later one is
/// carved from the heap and cleared by `calloc`, 20 MiB touched per
/// arena. Where no mapping is to be had the heap is the fallback.
struct Words {
    ptr: NonNull<AtomicU32>,
    len: usize,
    /// The fallback storage `ptr` points into; `None` when `ptr` is a
    /// mapping this value unmaps on drop.
    heap: Option<Vec<AtomicU32>>,
}

// SAFETY: `Words` owns its storage (a private mapping or a `Vec`) and
// hands out only `&[AtomicU32]`, which is `Sync`; no thread-affine state.
unsafe impl Send for Words {}
// SAFETY: as above; shared access goes through the atomics.
unsafe impl Sync for Words {}

impl Words {
    fn zeroed(len: usize) -> Self {
        if let Some(ptr) = sys::map_zeroed(len * std::mem::size_of::<AtomicU32>()) {
            // Page alignment exceeds `AtomicU32`'s, and zero bytes are
            // valid `AtomicU32`s.
            return Self { ptr: ptr.cast(), len, heap: None };
        }
        let heap = zeroed_atomics(len);
        // The buffer does not move when the `Vec` does.
        let ptr = NonNull::new(heap.as_ptr().cast_mut()).expect("Vec pointers are non-null");
        Self { ptr, len, heap: Some(heap) }
    }
}

impl std::ops::Deref for Words {
    type Target = [AtomicU32];

    #[inline]
    fn deref(&self) -> &[AtomicU32] {
        // SAFETY: `ptr` addresses `len` initialised `AtomicU32`s — the
        // whole mapping, or the heap buffer — that live as long as `self`
        // and are only ever accessed through shared references.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        if self.heap.is_none() {
            // SAFETY: without a heap buffer `ptr` is the `map_zeroed`
            // result of exactly this many bytes, unmapped exactly once
            // here, and `self` is gone afterwards.
            unsafe { sys::unmap(self.ptr.cast(), self.len * std::mem::size_of::<AtomicU32>()) };
        }
    }
}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Words").field("len", &self.len).field("mapped", &self.heap.is_none()).finish()
    }
}

#[derive(Debug)]
struct Inner {
    topo: Topology,
    /// L1 physical words, `bank * bank_words + offset`.
    l1: Words,
    /// L2 words.
    l2: Words,
    /// Per-hart pending wake bits (barrier release).
    wake: Vec<AtomicBool>,
    /// Wake notification channel: bumped on every wake-all publication so
    /// event-driven drivers can re-queue parked harts without polling
    /// every per-hart bit on every step.
    wake_epoch: AtomicU64,
    /// End-of-computation register.
    eoc: AtomicU32,
    dma_src: AtomicU32,
    dma_dst: AtomicU32,
    /// Per-page dirty flags for `l1`/`l2`, set (relaxed) on every store
    /// path and consumed by [`ClusterMem::reset`]: recycling an arena
    /// re-zeroes only the pages a job actually wrote. A flag is only ever
    /// *read* while the arena is quiescent (no job running), so relaxed
    /// marking is enough — the pool's lock hands the marks over.
    l1_dirty: Vec<AtomicBool>,
    l2_dirty: Vec<AtomicBool>,
}

/// The cluster's shared memory, cheaply cloneable (an [`Arc`] inside).
///
/// All harts see the same bytes; sub-word stores are implemented with
/// atomic read-modify-write so concurrent access to *different* bytes of a
/// word is safe. The DUT software is data-race-free by construction (each
/// subcarrier problem is core-private, paper §IV), so `SeqCst` atomics give
/// deterministic results.
///
/// # Examples
///
/// ```
/// use terasim_terapool::{ClusterMem, Topology};
///
/// let mem = ClusterMem::new(Topology::scaled(8));
/// mem.write_u32(0x40, 7);
/// assert_eq!(mem.read_u32(0x40), 7);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterMem {
    inner: Arc<Inner>,
}

impl ClusterMem {
    /// Words in the L1 banks of `topo` and in L2.
    fn arena_words(topo: Topology) -> (usize, usize) {
        ((topo.num_banks() * topo.bank_words()) as usize, (Topology::L2_SIZE / 4) as usize)
    }

    /// Bytes of address space one arena of `topo` maps (L1 banks plus
    /// L2). Resident memory is only the pages a job touched.
    pub fn arena_bytes(topo: Topology) -> usize {
        let (l1_words, l2_words) = Self::arena_words(topo);
        (l1_words + l2_words) * std::mem::size_of::<AtomicU32>()
    }

    /// Allocates zeroed cluster memory for `topo`.
    pub fn new(topo: Topology) -> Self {
        let (l1_words, l2_words) = Self::arena_words(topo);
        let inner = Inner {
            topo,
            l1: Words::zeroed(l1_words),
            l2: Words::zeroed(l2_words),
            wake: (0..topo.num_cores()).map(|_| AtomicBool::new(false)).collect(),
            wake_epoch: AtomicU64::new(0),
            eoc: AtomicU32::new(0),
            dma_src: AtomicU32::new(0),
            dma_dst: AtomicU32::new(0),
            l1_dirty: (0..l1_words.div_ceil(DIRTY_PAGE_WORDS)).map(|_| AtomicBool::new(false)).collect(),
            l2_dirty: (0..l2_words.div_ceil(DIRTY_PAGE_WORDS)).map(|_| AtomicBool::new(false)).collect(),
        };
        Self { inner: Arc::new(inner) }
    }

    /// The cluster geometry.
    pub fn topology(&self) -> Topology {
        self.inner.topo
    }

    /// Creates the hart-local view used by simulation drivers.
    pub fn core_view(&self, core: u32) -> CoreMem {
        assert!(core < self.inner.topo.num_cores(), "core {core} out of range");
        CoreMem { mem: self.clone(), core }
    }

    /// Loads every segment of an image: L2 addresses go to L2, L1 addresses
    /// (either view) to the banks.
    ///
    /// # Panics
    ///
    /// Panics if a segment falls outside the modelled regions.
    pub fn load_image(&self, image: &Image) {
        for seg in image.segments() {
            for (i, chunk) in seg.bytes.chunks(4).enumerate() {
                let addr = seg.base + 4 * u32::try_from(i).expect("segment fits");
                let mut word = [0u8; 4];
                word[..chunk.len()].copy_from_slice(chunk);
                self.write_u32(addr, u32::from_le_bytes(word));
            }
        }
    }

    fn word_slot(&self, addr: u32) -> Option<&AtomicU32> {
        let inner = &*self.inner;
        if let Some((bank, off)) = inner.topo.l1_slot(addr & !3) {
            return Some(&inner.l1[(bank * inner.topo.bank_words() + off) as usize]);
        }
        if addr >= Topology::L2_BASE {
            let off = (addr - Topology::L2_BASE) & !3;
            if off < Topology::L2_SIZE {
                return Some(&inner.l2[(off / 4) as usize]);
            }
        }
        None
    }

    /// Sets a dirty flag, testing it first: the flags of all pages pack
    /// into a handful of cache lines that every host thread of a sharded
    /// run marks on every guest store, and an unconditional store would
    /// bounce those lines between the threads even though nearly every
    /// mark hits a page that is already dirty. No RMW either way —
    /// concurrent markers all write `true`.
    #[inline]
    fn mark(flag: &AtomicBool) {
        if !flag.load(Ordering::Relaxed) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Marks the L1 dirty page containing physical word `idx`.
    #[inline]
    pub(crate) fn mark_l1_dirty(&self, idx: usize) {
        Self::mark(&self.inner.l1_dirty[idx / DIRTY_PAGE_WORDS]);
    }

    /// Marks the L2 dirty page containing word `idx`.
    #[inline]
    pub(crate) fn mark_l2_dirty(&self, idx: usize) {
        Self::mark(&self.inner.l2_dirty[idx / DIRTY_PAGE_WORDS]);
    }

    /// [`word_slot`](Self::word_slot) for the *store* paths: identical
    /// lookup, plus marking the word's dirty page so
    /// [`reset`](Self::reset) knows to re-zero it. Every mutation of the
    /// word arrays — host writes, guest stores, AMOs, DMA — funnels
    /// through here (loads stay on the unmarked lookup).
    fn store_slot(&self, addr: u32) -> Option<&AtomicU32> {
        let inner = &*self.inner;
        if let Some((bank, off)) = inner.topo.l1_slot(addr & !3) {
            let idx = (bank * inner.topo.bank_words() + off) as usize;
            self.mark_l1_dirty(idx);
            return Some(&inner.l1[idx]);
        }
        if addr >= Topology::L2_BASE {
            let off = (addr - Topology::L2_BASE) & !3;
            if off < Topology::L2_SIZE {
                let idx = (off / 4) as usize;
                self.mark_l2_dirty(idx);
                return Some(&inner.l2[idx]);
            }
        }
        None
    }

    /// Count of currently dirty 4 KiB pages across both word arrays — the
    /// footprint the next `reset` will re-zero. Intended for
    /// observability (pool statistics, benchmarks, tests).
    pub fn dirty_pages(&self) -> usize {
        let inner = &*self.inner;
        inner.l1_dirty.iter().chain(inner.l2_dirty.iter()).filter(|f| f.load(Ordering::Relaxed)).count()
    }

    /// Returns this handle to the all-zero post-[`new`](Self::new) state
    /// by re-zeroing **only the dirty footprint**: every 4 KiB page a
    /// store path marked since construction (or the previous reset) is
    /// zeroed and its flag cleared; untouched pages are not read or
    /// written. Control/wake state (EOC, DMA registers, pending wakes,
    /// the wake notification epoch) is unconditionally cleared — it is
    /// O(cores), not O(arena).
    ///
    /// The caller must be the only party touching the arena (the pool
    /// guarantees this by recycling only un-aliased handles); dirty marks
    /// made by worker threads are handed over by whatever synchronization
    /// published the memory handle itself.
    pub(crate) fn reset(&self) {
        let inner = &*self.inner;
        for (words, dirty) in [(&inner.l1, &inner.l1_dirty), (&inner.l2, &inner.l2_dirty)] {
            for (page, flag) in dirty.iter().enumerate() {
                if flag.swap(false, Ordering::Relaxed) {
                    let start = page * DIRTY_PAGE_WORDS;
                    let end = (start + DIRTY_PAGE_WORDS).min(words.len());
                    for w in &words[start..end] {
                        w.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
        for w in &inner.wake {
            w.store(false, Ordering::SeqCst);
        }
        inner.wake_epoch.store(0, Ordering::SeqCst);
        inner.eoc.store(0, Ordering::SeqCst);
        inner.dma_src.store(0, Ordering::SeqCst);
        inner.dma_dst.store(0, Ordering::SeqCst);
    }

    /// `true` when this is the only live handle to the arena (no clone,
    /// core/turbo view or job still aliases it) — the pool's recycling
    /// precondition.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }

    /// Host-side aligned word read.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses — host inspection of unmapped memory is
    /// a test bug.
    pub fn read_u32(&self, addr: u32) -> u32 {
        self.word_slot(addr)
            .unwrap_or_else(|| panic!("read_u32: unmapped {addr:#010x}"))
            .load(Ordering::SeqCst)
    }

    /// Host-side aligned word write.
    ///
    /// # Panics
    ///
    /// Panics on unmapped addresses.
    pub fn write_u32(&self, addr: u32, value: u32) {
        self.store_slot(addr)
            .unwrap_or_else(|| panic!("write_u32: unmapped {addr:#010x}"))
            .store(value, Ordering::SeqCst);
    }

    /// Host-side u16 read (little-endian within the word).
    pub fn read_u16(&self, addr: u32) -> u16 {
        let word = self.read_u32(addr & !3);
        if addr & 2 == 0 {
            word as u16
        } else {
            (word >> 16) as u16
        }
    }

    /// Host-side u16 write.
    pub fn write_u16(&self, addr: u32, value: u16) {
        let slot = self.store_slot(addr & !3).unwrap_or_else(|| panic!("write_u16: unmapped {addr:#010x}"));
        let shift = (addr & 2) * 8;
        let mask = 0xffffu32 << shift;
        let _ = slot.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
            Some((old & !mask) | (u32::from(value) << shift))
        });
    }

    /// Value of the end-of-computation register (0 while running).
    pub fn eoc(&self) -> u32 {
        self.inner.eoc.load(Ordering::SeqCst)
    }

    /// Consumes a pending wake for `core`; returns whether one was pending.
    pub fn take_wake(&self, core: u32) -> bool {
        self.inner.wake[core as usize].swap(false, Ordering::SeqCst)
    }

    /// Returns whether a wake is pending without consuming it.
    pub fn wake_pending(&self, core: u32) -> bool {
        self.inner.wake[core as usize].load(Ordering::SeqCst)
    }

    /// Monotonic count of wake-all publications. An event-driven driver
    /// snapshots this and, when it changes, re-checks only its *parked*
    /// harts — the notification path that replaces per-step
    /// [`wake_pending`](Self::wake_pending) polling.
    pub fn wake_epoch(&self) -> u64 {
        self.inner.wake_epoch.load(Ordering::SeqCst)
    }

    fn wake_all_except(&self, writer: u32) {
        for (i, w) in self.inner.wake.iter().enumerate() {
            if i as u32 != writer {
                w.store(true, Ordering::SeqCst);
            }
        }
        self.inner.wake_epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn dma_copy(&self, len: u32) {
        let src = self.inner.dma_src.load(Ordering::SeqCst);
        let dst = self.inner.dma_dst.load(Ordering::SeqCst);
        for off in (0..len).step_by(4) {
            let w = self.read_u32(src + off);
            self.write_u32(dst + off, w);
        }
    }

    fn ctrl_load(&self, addr: u32) -> u32 {
        match addr {
            Topology::CTRL_EOC => self.inner.eoc.load(Ordering::SeqCst),
            Topology::CTRL_NUM_CORES => self.inner.topo.num_cores(),
            Topology::CTRL_DMA_SRC => self.inner.dma_src.load(Ordering::SeqCst),
            Topology::CTRL_DMA_DST => self.inner.dma_dst.load(Ordering::SeqCst),
            // The model's DMA completes synchronously: never busy.
            Topology::CTRL_DMA_BUSY => 0,
            _ => 0,
        }
    }

    fn ctrl_store(&self, addr: u32, value: u32, core: u32) {
        match addr {
            Topology::CTRL_EOC => self.inner.eoc.store(value, Ordering::SeqCst),
            Topology::CTRL_WAKE_ALL => self.wake_all_except(core),
            Topology::CTRL_DMA_SRC => self.inner.dma_src.store(value, Ordering::SeqCst),
            Topology::CTRL_DMA_DST => self.inner.dma_dst.store(value, Ordering::SeqCst),
            Topology::CTRL_DMA_LEN => self.dma_copy(value),
            _ => {}
        }
    }

    fn is_ctrl(addr: u32) -> bool {
        (Topology::CTRL_BASE..Topology::CTRL_BASE + Topology::CTRL_SIZE).contains(&addr)
    }

    /// Whether an access to `addr` can start a DMA copy — the one
    /// control-region effect that reaches into L1/L2 words (see
    /// [`Self::ctrl_store`]). The sharded cycle engine serves an epoch
    /// boundary holding such a request in a single globally ordered pass,
    /// because the copy is ordered against every bank owner's effects.
    pub(crate) fn is_dma_trigger(addr: u32) -> bool {
        addr == Topology::CTRL_DMA_LEN
    }
}

/// Per-domain partition of the cycle engine's arbitration timing state:
/// the `bank_free` / `port_free` reservation books of the banks and tile
/// ports one arbitration domain owns, indexed locally so each domain's
/// hot state is compact and exclusively its own during an epoch.
///
/// The single-domain engines use a [`whole_cluster`](Self::whole_cluster)
/// instance (bases 0), so every issue path arbitrates through the same
/// structure.
#[derive(Debug, Clone)]
pub(crate) struct DomainBanks {
    /// Cycle at which each owned bank is next free (local index).
    pub bank_free: Vec<u64>,
    /// Cycle at which each owned tile's outbound port is next free.
    pub port_free: Vec<u64>,
    bank_base: u32,
    tile_base: u32,
}

impl DomainBanks {
    /// Timing state covering every bank and tile (single-domain engines).
    pub fn whole_cluster(topo: Topology) -> Self {
        Self {
            bank_free: vec![0; topo.num_banks() as usize],
            port_free: vec![0; topo.num_tiles() as usize],
            bank_base: 0,
            tile_base: 0,
        }
    }

    /// Timing state of one arbitration domain (group).
    pub fn for_domain(topo: Topology, domain: u32) -> Self {
        Self {
            bank_free: vec![0; topo.banks_per_group() as usize],
            port_free: vec![0; topo.tiles_per_group() as usize],
            bank_base: domain * topo.banks_per_group(),
            tile_base: domain * topo.tiles_per_group(),
        }
    }

    /// Local index of a (globally numbered) owned bank.
    #[inline]
    pub fn local_bank(&self, bank: u32) -> usize {
        debug_assert!(bank >= self.bank_base, "bank {bank} not owned by this domain");
        (bank - self.bank_base) as usize
    }

    /// Local index of a (globally numbered) owned tile.
    #[inline]
    pub fn local_tile(&self, tile: u32) -> usize {
        debug_assert!(tile >= self.tile_base, "tile {tile} not owned by this domain");
        (tile - self.tile_base) as usize
    }
}

/// One deferred cross-domain memory operation, queued during an epoch and
/// replayed — bank grant, architectural effect, destination writeback —
/// at the next epoch boundary in global `(issue cycle, core id)` order.
///
/// `bank == u32::MAX` marks an L2/control access: those have a fixed
/// 16-cycle latency with no bank arbitration, so only the architectural
/// effect (load value / store / AMO / wake publication) is deferred; the
/// issuing core's timing was already exact at issue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XRequest {
    /// Issue cycle (primary replay sort key).
    pub cycle: u64,
    /// Departure cycle after the issuing tile's port arbitration.
    pub depart: u64,
    /// Issuing hart (secondary replay sort key).
    pub core: u32,
    /// PC of the deferred instruction (trap attribution).
    pub pc: u32,
    /// Effective address (unmasked).
    pub addr: u32,
    /// Captured store value / AMO operand (loads: unused).
    pub value: u32,
    /// Target bank, or `u32::MAX` for L2/control.
    pub bank: u32,
    /// What to do at the target.
    pub op: MemOp,
    /// Destination register index, or [`terasim_iss::NO_REG`] when the
    /// writeback is suppressed (stores, `x0`, post-increment overwrite,
    /// failed `sc.w`).
    pub rd: u8,
    /// `rd`'s per-register write counter captured at issue; the replay
    /// touches `rd` (value and scoreboard) only while the counter is
    /// unchanged, so a later same-epoch WAW writer is never clobbered.
    pub wseq: u64,
    /// LSU queue slot claimed at issue (its completion time is corrected
    /// to the granted latency at replay).
    pub slot: u8,
    /// One-way hop latency to the target bank.
    pub hop: u8,
    /// `sc.w` only: whether the reservation check succeeded at issue.
    pub sc_success: bool,
}

/// One hart's view of the cluster memory; implements
/// [`Memory`](terasim_iss::Memory) with topology-aware latencies.
#[derive(Debug, Clone)]
pub struct CoreMem {
    mem: ClusterMem,
    core: u32,
}

impl CoreMem {
    /// The hart this view belongs to.
    pub fn core(&self) -> u32 {
        self.core
    }

    /// The underlying shared memory.
    pub fn cluster(&self) -> &ClusterMem {
        &self.mem
    }
}

impl Memory for CoreMem {
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        if ClusterMem::is_ctrl(addr) {
            return Ok(self.mem.ctrl_load(addr));
        }
        let slot = self.mem.word_slot(addr).ok_or(MemError::Unmapped { addr })?;
        let word = slot.load(Ordering::SeqCst);
        let shift = (addr & 3) * 8;
        Ok(match size {
            4 => word,
            2 => (word >> shift) & 0xffff,
            _ => (word >> shift) & 0xff,
        })
    }

    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        if ClusterMem::is_ctrl(addr) {
            self.mem.ctrl_store(addr, value, self.core);
            return Ok(());
        }
        let slot = self.mem.store_slot(addr).ok_or(MemError::Unmapped { addr })?;
        if size == 4 {
            slot.store(value, Ordering::SeqCst);
        } else {
            let shift = (addr & 3) * 8;
            let mask = (if size == 2 { 0xffffu32 } else { 0xffu32 }) << shift;
            let _ = slot.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some((old & !mask) | ((value << shift) & mask))
            });
        }
        Ok(())
    }

    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, size: 4 });
        }
        let slot = self.mem.store_slot(addr).ok_or(MemError::Unmapped { addr })?;
        let old = slot
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| Some(amo_apply(op, old, value)))
            .expect("fetch_update closure never fails");
        Ok(old)
    }

    fn latency(&self, addr: u32) -> u32 {
        self.mem.topology().access_latency(self.core, addr)
    }
}

/// Fast view of the cluster memory used by the event-driven and
/// epoch-sharded cycle engines.
///
/// Same bytes and bit-identical values as [`CoreMem`], with two
/// engine-local optimizations:
///
/// * **Relaxed atomic orderings** (and plain read-modify-write instead of
///   CAS loops for sub-word stores and AMOs).
/// * **Shift-based bank decoding** when the topology's divisors are
///   powers of two (they are for every TeraPool configuration), instead
///   of the division/modulo chain in [`Topology::l1_slot`].
///
/// These are sound only under the cycle engines' access discipline, which
/// guarantees no location is ever written concurrently:
///
/// * single-domain engines run every hart on one host thread;
/// * the epoch-sharded engine lets a domain touch **only its own group's
///   banks** during an epoch; cross-group and all L2/control accesses
///   are deferred into [`XRequest`] mailboxes and applied at the epoch
///   boundary by the one host thread that owns the target (a group's
///   banks, or the shared L2/control region), which the domains'
///   synchronization barriers order against all phase reads/writes.
///
/// Never hand this to code outside that discipline — use
/// [`ClusterMem::core_view`] there.
#[derive(Debug, Clone)]
pub(crate) struct TurboMem {
    mem: ClusterMem,
    core: u32,
    decode: L1Decode,
    /// One-entry decode memo primed by the cycle engine's bank
    /// arbitration: the word address it just decoded and the physical L1
    /// word index it decoded to. The mapping is a pure function of the
    /// address, so a stale entry is never *wrong*, only useless.
    primed_addr: u32,
    primed_idx: u32,
}

impl ClusterMem {
    /// Creates the single-threaded fast view for the cycle engine.
    pub(crate) fn turbo_view(&self, core: u32) -> TurboMem {
        assert!(core < self.inner.topo.num_cores(), "core {core} out of range");
        TurboMem {
            mem: self.clone(),
            core,
            decode: L1Decode::new(self.inner.topo),
            primed_addr: u32::MAX,
            primed_idx: 0,
        }
    }
}

impl TurboMem {
    /// Re-targets this view at `core`: the epoch boundary serves the
    /// deferred requests of many harts through one view per host thread,
    /// and a control-region store keeps its issuing hart's identity
    /// (wake-all skips the writer).
    #[inline]
    pub(crate) fn rebind(&mut self, core: u32) {
        self.core = core;
    }

    /// Primes the one-entry decode memo with an L1 mapping the caller
    /// just computed (`addr` word-aligned, `(bank, off)` from the same
    /// [`L1Decode`] this view uses).
    #[inline]
    pub(crate) fn prime(&mut self, addr: u32, bank: u32, off: u32) {
        self.primed_addr = addr;
        self.primed_idx = self.decode.phys_index(bank, off) as u32;
    }

    /// Word slot lookup, bit-identical to [`ClusterMem::word_slot`].
    #[inline]
    fn slot(&self, addr: u32) -> Option<&AtomicU32> {
        let inner = &*self.mem.inner;
        if addr & !3 == self.primed_addr {
            return Some(&inner.l1[self.primed_idx as usize]);
        }
        if let Some((bank, off)) = self.decode.l1_slot(addr & !3) {
            return Some(&inner.l1[self.decode.phys_index(bank, off)]);
        }
        if addr >= Topology::L2_BASE {
            let off = (addr - Topology::L2_BASE) & !3;
            if off < Topology::L2_SIZE {
                return Some(&inner.l2[(off / 4) as usize]);
            }
        }
        None
    }

    /// [`slot`](Self::slot) for the store paths: same lookup (primed memo
    /// included), plus the dirty-page mark — the engine-fast counterpart
    /// of [`ClusterMem::store_slot`].
    #[inline]
    fn store_slot(&self, addr: u32) -> Option<&AtomicU32> {
        let inner = &*self.mem.inner;
        if addr & !3 == self.primed_addr {
            self.mem.mark_l1_dirty(self.primed_idx as usize);
            return Some(&inner.l1[self.primed_idx as usize]);
        }
        if let Some((bank, off)) = self.decode.l1_slot(addr & !3) {
            let idx = self.decode.phys_index(bank, off);
            self.mem.mark_l1_dirty(idx);
            return Some(&inner.l1[idx]);
        }
        if addr >= Topology::L2_BASE {
            let off = (addr - Topology::L2_BASE) & !3;
            if off < Topology::L2_SIZE {
                let idx = (off / 4) as usize;
                self.mem.mark_l2_dirty(idx);
                return Some(&inner.l2[idx]);
            }
        }
        None
    }
}

impl Memory for TurboMem {
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        if ClusterMem::is_ctrl(addr) {
            return Ok(self.mem.ctrl_load(addr));
        }
        let slot = self.slot(addr).ok_or(MemError::Unmapped { addr })?;
        let word = slot.load(Ordering::Relaxed);
        let shift = (addr & 3) * 8;
        Ok(match size {
            4 => word,
            2 => (word >> shift) & 0xffff,
            _ => (word >> shift) & 0xff,
        })
    }

    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        if ClusterMem::is_ctrl(addr) {
            self.mem.ctrl_store(addr, value, self.core);
            return Ok(());
        }
        let slot = self.store_slot(addr).ok_or(MemError::Unmapped { addr })?;
        if size == 4 {
            slot.store(value, Ordering::Relaxed);
        } else {
            let shift = (addr & 3) * 8;
            let mask = (if size == 2 { 0xffffu32 } else { 0xffu32 }) << shift;
            // Single-threaded: plain read-modify-write, no CAS loop.
            let old = slot.load(Ordering::Relaxed);
            slot.store((old & !mask) | ((value << shift) & mask), Ordering::Relaxed);
        }
        Ok(())
    }

    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, size: 4 });
        }
        let slot = self.store_slot(addr).ok_or(MemError::Unmapped { addr })?;
        let old = slot.load(Ordering::Relaxed);
        slot.store(amo_apply(op, old, value), Ordering::Relaxed);
        Ok(old)
    }

    fn latency(&self, addr: u32) -> u32 {
        self.mem.topology().access_latency(self.core, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turbo_view_matches_core_view() {
        // Values and error behaviour must be bit-identical to CoreMem.
        let mem = ClusterMem::new(Topology::scaled(16));
        let mut a = mem.core_view(2);
        let mut b = mem.turbo_view(2);
        for (addr, value) in [
            (0x0u32, 0xdead_beefu32),
            (0x104, 1),
            (Topology::SEQ_BASE + 0x40, 7),
            (Topology::SEQ_BASE + Topology::SEQ_STRIDE + 0x10, 9),
            (Topology::L2_BASE + 0x2000, 0xffff_0001),
        ] {
            b.store(addr, 4, value).unwrap();
            assert_eq!(a.load(addr, 4).unwrap(), value, "{addr:#x} via core view");
            assert_eq!(b.load(addr, 4).unwrap(), value, "{addr:#x} via turbo view");
        }
        // Sub-word merge and AMO.
        b.store(0x200, 2, 0xabcd).unwrap();
        b.store(0x202, 1, 0x7f).unwrap();
        assert_eq!(a.load(0x200, 4).unwrap(), 0x007f_abcd);
        assert_eq!(b.amo(AmoOp::Add, 0x200, 1).unwrap(), 0x007f_abcd);
        assert_eq!(a.load(0x200, 4).unwrap(), 0x007f_abce);
        // Unmapped and misaligned errors match.
        assert_eq!(a.load(0x3000_0000, 4).unwrap_err(), b.load(0x3000_0000, 4).unwrap_err());
        assert_eq!(a.load(0x101, 4).unwrap_err(), b.load(0x101, 4).unwrap_err());
        // Control region goes through the same registers.
        assert_eq!(b.load(Topology::CTRL_NUM_CORES, 4).unwrap(), 16);
        // Latency model unchanged.
        assert_eq!(Memory::latency(&b, 0x40), Memory::latency(&a, 0x40));
    }

    #[test]
    fn views_alias_physical_banks() {
        let mem = ClusterMem::new(Topology::scaled(8));
        // Interleaved word 0 is bank 0 offset 0; sequential tile 0 word 0 too.
        mem.write_u32(0, 0xabcd_1234);
        assert_eq!(mem.read_u32(Topology::SEQ_BASE), 0xabcd_1234);
    }

    #[test]
    fn subword_stores_are_isolated() {
        let mem = ClusterMem::new(Topology::scaled(8));
        let mut a = mem.core_view(0);
        let mut b = mem.core_view(1);
        a.store(0x100, 2, 0x1111).unwrap();
        b.store(0x102, 2, 0x2222).unwrap();
        assert_eq!(mem.read_u32(0x100), 0x2222_1111);
    }

    #[test]
    fn ctrl_region() {
        let topo = Topology::scaled(16);
        let mem = ClusterMem::new(topo);
        let mut v = mem.core_view(3);
        assert_eq!(v.load(Topology::CTRL_NUM_CORES, 4).unwrap(), 16);
        v.store(Topology::CTRL_EOC, 4, 0x55).unwrap();
        assert_eq!(mem.eoc(), 0x55);
        // Wake-all from core 3: everyone except 3 has a pending wake.
        v.store(Topology::CTRL_WAKE_ALL, 4, 1).unwrap();
        assert!(!mem.wake_pending(3));
        assert!(mem.take_wake(7));
        assert!(!mem.take_wake(7), "wake is one-shot");
    }

    #[test]
    fn dma_copies_l2_to_l1() {
        let mem = ClusterMem::new(Topology::scaled(8));
        for i in 0..8u32 {
            mem.write_u32(Topology::L2_BASE + 0x1000 + i * 4, 100 + i);
        }
        let mut v = mem.core_view(0);
        v.store(Topology::CTRL_DMA_SRC, 4, Topology::L2_BASE + 0x1000).unwrap();
        v.store(Topology::CTRL_DMA_DST, 4, 0x200).unwrap();
        v.store(Topology::CTRL_DMA_LEN, 4, 32).unwrap();
        assert_eq!(v.load(Topology::CTRL_DMA_BUSY, 4).unwrap(), 0);
        for i in 0..8u32 {
            assert_eq!(mem.read_u32(0x200 + i * 4), 100 + i);
        }
    }

    #[test]
    fn latency_matches_topology() {
        let topo = Topology::terapool();
        let mem = ClusterMem::new(topo);
        let near = mem.core_view(0);
        assert_eq!(near.latency(Topology::SEQ_BASE), 1);
        assert_eq!(near.latency(Topology::SEQ_BASE + 64 * Topology::SEQ_STRIDE), 9);
        assert_eq!(near.latency(Topology::L2_BASE), 16);
    }

    #[test]
    fn reset_rezeroes_exactly_the_dirty_footprint() {
        let mem = ClusterMem::new(Topology::scaled(8));
        assert_eq!(mem.dirty_pages(), 0, "fresh arena starts clean");
        // Dirty through every store path: host word/halfword, core view
        // (full, sub-word, AMO), turbo view (full, sub-word, AMO, primed).
        mem.write_u32(0x40, 0xdead_beef);
        mem.write_u16(Topology::L2_BASE + 0x9002, 0xabcd);
        {
            let mut c = mem.core_view(1);
            c.store(Topology::SEQ_BASE + 0x100, 4, 7).unwrap();
            c.store(Topology::SEQ_BASE + 0x201, 1, 0x5a).unwrap();
            c.amo(AmoOp::Add, 0x80, 3).unwrap();
            let mut t = mem.turbo_view(2);
            t.store(Topology::L2_BASE + 0x4000, 4, 11).unwrap();
            t.store(0x92, 2, 0x1234).unwrap();
            t.amo(AmoOp::Or, Topology::SEQ_BASE + 0x300, 0xf0).unwrap();
            // Primed-memo store path.
            if let Some((bank, off)) = mem.topology().l1_slot(0x40) {
                t.prime(0x40, bank, off);
            }
            t.store(0x40, 4, 1).unwrap();
            // Control stores (reset unconditionally, not page-tracked).
            c.store(Topology::CTRL_EOC, 4, 9).unwrap();
            c.store(Topology::CTRL_WAKE_ALL, 4, 1).unwrap();
        }
        assert!(mem.dirty_pages() > 0);
        mem.reset();
        assert_eq!(mem.dirty_pages(), 0, "reset consumes the dirty set");
        for addr in [
            0x40,
            0x80,
            0x90,
            Topology::SEQ_BASE + 0x100,
            Topology::SEQ_BASE + 0x200,
            Topology::SEQ_BASE + 0x300,
            Topology::L2_BASE + 0x4000,
            Topology::L2_BASE + 0x9000,
        ] {
            assert_eq!(mem.read_u32(addr), 0, "{addr:#x} must be re-zeroed");
        }
        assert_eq!(mem.eoc(), 0, "control state cleared");
        assert_eq!(mem.wake_epoch(), 0);
        for core in 0..8 {
            assert!(!mem.wake_pending(core), "pending wake survived reset");
        }
        // Loads must not mark.
        let _ = mem.read_u32(0x1000);
        let mut v = mem.core_view(0);
        let _ = v.load(Topology::L2_BASE + 0x100, 4).unwrap();
        assert_eq!(mem.dirty_pages(), 0, "loads never dirty a page");
    }

    #[test]
    fn marking_a_dirty_page_again_keeps_the_footprint_exact() {
        // The dirty marks test before they set. A second store into a
        // page already marked takes the "already dirty" branch and must
        // leave the flag set; a store after `reset` finds the flag clear
        // again and must set it.
        let mem = ClusterMem::new(Topology::scaled(8));
        let mut t = mem.turbo_view(0);
        let (a, b) = (Topology::L2_BASE + 0x5000, Topology::L2_BASE + 0x5ffc);
        t.store(a, 4, 1).unwrap();
        assert_eq!(mem.dirty_pages(), 1);
        t.store(b, 4, 2).unwrap();
        mem.write_u32(a + 8, 3);
        assert_eq!(mem.dirty_pages(), 1, "same page: no second mark");
        t.store(0x40, 4, 4).unwrap();
        t.store(0x42, 2, 5).unwrap();
        assert_eq!(mem.dirty_pages(), 2, "one L1 page, marked once");
        mem.reset();
        assert_eq!(mem.dirty_pages(), 0);
        for addr in [a, a + 8, b, 0x40] {
            assert_eq!(mem.read_u32(addr), 0, "{addr:#x} must be re-zeroed");
        }
        t.store(b, 4, 6).unwrap();
        assert_eq!(mem.dirty_pages(), 1, "a page cleaned by reset is marked afresh");
        mem.reset();
        assert_eq!(mem.read_u32(b), 0, "{b:#x} must be re-zeroed after the second round");
    }

    #[test]
    fn uniqueness_tracks_live_views() {
        let mem = ClusterMem::new(Topology::scaled(8));
        assert!(mem.is_unique());
        let view = mem.core_view(0);
        assert!(!mem.is_unique(), "core view aliases the arena");
        drop(view);
        assert!(mem.is_unique());
    }

    #[test]
    fn amo_is_atomic_across_views() {
        let mem = ClusterMem::new(Topology::scaled(8));
        let n = 64;
        std::thread::scope(|s| {
            for core in 0..8 {
                let mem = mem.clone();
                s.spawn(move || {
                    let mut v = mem.core_view(core);
                    for _ in 0..n {
                        v.amo(AmoOp::Add, 0x80, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(mem.read_u32(0x80), 8 * n);
    }
}
