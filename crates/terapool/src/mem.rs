//! The shared cluster memory: banked L1 (both views), L2, control region —
//! plus the domain-partitioned timing state ([`DomainBanks`]) and the
//! cross-domain request record ([`XRequest`]) the epoch-sharded cycle
//! engine exchanges at epoch boundaries.
//!
//! The host array of the L1 *is* the interleaved view: word `w` of
//! `L1_BASE` is `l1[w]`, one row of all banks after another, and the
//! sequential view decodes into the same rows ([`L1Decode`]). Guests keep
//! their vectors in the interleaved view, so what is contiguous for the
//! guest is contiguous on the host: a hart reading a 64-word operand
//! touches 4 cache lines, a job's pages are the pages of the bytes it
//! used, and [`ClusterMem::reset`] re-zeroes those and no more. A
//! bank-major array would put consecutive guest words a whole bank (1 KiB)
//! apart: 64 lines and 16 pages for that operand, every page of the 4 MiB
//! for 256 KiB of inputs, and a host cache and TLB that hold none of it.

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

/// One dirty bit per page of a word array, 64 pages to an `AtomicU64`:
/// [`ClusterMem::reset`] scans 80 words for a TeraPool arena's 5120
/// pages. Marking is relaxed: a bit is only ever *read* while the arena is
/// quiescent (no job running), and the pool's lock hands the marks over.
#[derive(Debug)]
struct DirtyMap(Vec<AtomicU64>);

impl DirtyMap {
    fn new(words: usize) -> Self {
        Self((0..words.div_ceil(DIRTY_PAGE_WORDS).div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    /// Marks the page holding word `idx`, testing the bit first: the map
    /// is a handful of cache lines that every host thread of a sharded
    /// run marks on every guest store, and an unconditional `fetch_or`
    /// would bounce those lines between the threads even though nearly
    /// every mark hits a page that is already dirty.
    #[inline(always)]
    fn mark(&self, idx: usize) {
        let page = idx / DIRTY_PAGE_WORDS;
        let (cell, bit) = (&self.0[page / 64], 1u64 << (page % 64));
        if cell.load(Ordering::Relaxed) & bit == 0 {
            cell.fetch_or(bit, Ordering::Relaxed);
        }
    }

    fn count(&self) -> usize {
        self.0.iter().map(|cell| cell.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Cleans the map, calling `visit(page)` for every page that was
    /// dirty. The caller is the only party touching the arena.
    fn drain(&self, mut visit: impl FnMut(usize)) {
        for (i, cell) in self.0.iter().enumerate() {
            let mut bits = cell.load(Ordering::Relaxed);
            if bits != 0 {
                cell.store(0, Ordering::Relaxed);
            }
            while bits != 0 {
                visit(i * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

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
    /// The geometry and the one address decode of this arena, shared by
    /// every view.
    decode: L1Decode,
    /// L1 words in interleaved-view order: slot `(bank, offset)` at
    /// `offset * num_banks + bank` ([`L1Decode::phys_index`]).
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
    /// Dirty pages of `l1`/`l2`, marked on every store path and consumed
    /// by [`ClusterMem::reset`]: recycling an arena re-zeroes only the
    /// pages a job actually wrote.
    l1_dirty: DirtyMap,
    l2_dirty: DirtyMap,
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
            decode: L1Decode::new(topo),
            l1: Words::zeroed(l1_words),
            l2: Words::zeroed(l2_words),
            wake: (0..topo.num_cores()).map(|_| AtomicBool::new(false)).collect(),
            wake_epoch: AtomicU64::new(0),
            eoc: AtomicU32::new(0),
            dma_src: AtomicU32::new(0),
            dma_dst: AtomicU32::new(0),
            l1_dirty: DirtyMap::new(l1_words),
            l2_dirty: DirtyMap::new(l2_words),
        };
        Self { inner: Arc::new(inner) }
    }

    /// The cluster geometry.
    pub fn topology(&self) -> Topology {
        self.inner.decode.topo
    }

    /// Creates the hart-local view used by simulation drivers.
    pub fn core_view(&self, core: u32) -> CoreMem {
        assert!(core < self.inner.decode.topo.num_cores(), "core {core} out of range");
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

    /// The word holding `addr`. The L1 windows — the interleaved one a
    /// compare and a shift, the sequential one a few more — are
    /// straight-line code inlined into every caller, down to the load
    /// and store kernels of both engines; L2 is out of line.
    #[inline(always)]
    fn word_slot(&self, addr: u32) -> Option<&AtomicU32> {
        match self.inner.decode.index(addr) {
            Some(idx) => Some(&self.inner.l1[idx]),
            None => self.l2_slot(addr, false),
        }
    }

    /// [`word_slot`](Self::word_slot) for the *store* paths: identical
    /// lookup, plus marking the word's dirty page so
    /// [`reset`](Self::reset) knows to re-zero it. Every mutation of the
    /// word arrays — host writes, guest stores, AMOs, DMA — funnels
    /// through here (loads stay on the unmarked lookup).
    #[inline(always)]
    fn store_slot(&self, addr: u32) -> Option<&AtomicU32> {
        match self.inner.decode.index(addr) {
            Some(idx) => {
                self.inner.l1_dirty.mark(idx);
                Some(&self.inner.l1[idx])
            }
            None => self.l2_slot(addr, true),
        }
    }

    /// The L2 word holding `addr`, marked dirty when `store`.
    #[cold]
    fn l2_slot(&self, addr: u32, store: bool) -> Option<&AtomicU32> {
        let idx = (addr.checked_sub(Topology::L2_BASE).filter(|&off| off < Topology::L2_SIZE)? / 4) as usize;
        if store {
            self.inner.l2_dirty.mark(idx);
        }
        Some(&self.inner.l2[idx])
    }

    /// Count of currently dirty 4 KiB pages across both word arrays — the
    /// footprint the next `reset` will re-zero. Intended for
    /// observability (pool statistics, benchmarks, tests).
    pub fn dirty_pages(&self) -> usize {
        self.inner.l1_dirty.count() + self.inner.l2_dirty.count()
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
            dirty.drain(|page| {
                let start = page * DIRTY_PAGE_WORDS;
                let end = (start + DIRTY_PAGE_WORDS).min(words.len());
                for w in &words[start..end] {
                    w.store(0, Ordering::Relaxed);
                }
            });
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
            Topology::CTRL_NUM_CORES => self.inner.decode.topo.num_cores(),
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

    /// A guest load that [`word_slot`](Self::word_slot) does not map: a
    /// control register (read whole, whatever the access size) or nothing.
    #[cold]
    fn load_outside(&self, addr: u32) -> Result<u32, MemError> {
        Self::is_ctrl(addr).then(|| self.ctrl_load(addr)).ok_or(MemError::Unmapped { addr })
    }

    /// The store counterpart of [`load_outside`](Self::load_outside).
    #[cold]
    fn store_outside(&self, addr: u32, value: u32, core: u32) -> Result<(), MemError> {
        Self::is_ctrl(addr).then(|| self.ctrl_store(addr, value, core)).ok_or(MemError::Unmapped { addr })
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
/// The full-scan reference uses a [`whole_cluster`](Self::whole_cluster)
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
    /// Timing state covering every bank and tile (the full-scan reference).
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

    /// Whether this book holds the (globally numbered) `bank`.
    #[inline]
    pub fn owns_bank(&self, bank: u32) -> bool {
        bank.wrapping_sub(self.bank_base) < self.bank_free.len() as u32
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

/// The `size` bytes at `addr` out of the word that holds them.
#[inline(always)]
fn subword(word: u32, addr: u32, size: u32) -> u32 {
    let shift = (addr & 3) * 8;
    match size {
        4 => word,
        2 => (word >> shift) & 0xffff,
        _ => (word >> shift) & 0xff,
    }
}

/// `old` with the `size < 4` bytes at `addr` replaced by `value`'s.
#[inline(always)]
fn merge_subword(old: u32, addr: u32, size: u32, value: u32) -> u32 {
    let shift = (addr & 3) * 8;
    let mask = (if size == 2 { 0xffffu32 } else { 0xffu32 }) << shift;
    (old & !mask) | ((value << shift) & mask)
}

// `load` and `store` are `inline(always)`: the fast engine's load and store
// kernels hold the L1 decode and the access; the rest leaves by a cold call.
impl Memory for CoreMem {
    #[inline(always)]
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        match self.mem.word_slot(addr) {
            Some(slot) => Ok(subword(slot.load(Ordering::SeqCst), addr, size)),
            None => self.mem.load_outside(addr),
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        let Some(slot) = self.mem.store_slot(addr) else {
            return self.mem.store_outside(addr, value, self.core);
        };
        if size == 4 {
            slot.store(value, Ordering::SeqCst);
        } else {
            let _ = slot.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                Some(merge_subword(old, addr, size, value))
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

    /// L1 and L2 words are plain memory; the control region is not.
    #[inline(always)]
    fn peek(&self, addr: u32, size: u32) -> Option<u32> {
        if misaligned(addr, size) {
            return None;
        }
        self.mem.word_slot(addr).map(|slot| subword(slot.load(Ordering::SeqCst), addr, size))
    }
}

/// Fast view of the cluster memory used by the epoch-sharded cycle
/// engine.
///
/// Same bytes, same address decode and bit-identical values as
/// [`CoreMem`], with **relaxed atomic orderings** (and plain
/// read-modify-write instead of CAS loops for sub-word stores and AMOs).
///
/// That is sound only under the cycle engines' access discipline, which
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
/// A group's banks are one aligned `banks_per_group × 4 B` chunk of every
/// row of the host array ([`L1Decode::phys_index`]): 4 KiB on TeraPool,
/// which is one page of the page-aligned mapping and one dirty page. So
/// no cache line and no dirty bit is shared between domains; the dirty
/// *words* are, which is why [`DirtyMap::mark`] is a `fetch_or`.
///
/// Never hand this to code outside that discipline — use
/// [`ClusterMem::core_view`] there. (Public, but hidden, for the
/// memory-path bench `crates/bench/benches/mem.rs` alone.)
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct TurboMem {
    mem: ClusterMem,
    core: u32,
}

impl ClusterMem {
    /// Creates the single-threaded fast view for the cycle engine.
    #[doc(hidden)]
    pub fn turbo_view(&self, core: u32) -> TurboMem {
        assert!(core < self.inner.decode.topo.num_cores(), "core {core} out of range");
        TurboMem { mem: self.clone(), core }
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
}

impl Memory for TurboMem {
    #[inline(always)]
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        match self.mem.word_slot(addr) {
            Some(slot) => Ok(subword(slot.load(Ordering::Relaxed), addr, size)),
            None => self.mem.load_outside(addr),
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        if misaligned(addr, size) {
            return Err(MemError::Misaligned { addr, size });
        }
        let Some(slot) = self.mem.store_slot(addr) else {
            return self.mem.store_outside(addr, value, self.core);
        };
        // Single writer: plain read-modify-write, no CAS loop.
        let word =
            if size == 4 { value } else { merge_subword(slot.load(Ordering::Relaxed), addr, size, value) };
        slot.store(word, Ordering::Relaxed);
        Ok(())
    }

    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, size: 4 });
        }
        let slot = self.mem.store_slot(addr).ok_or(MemError::Unmapped { addr })?;
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
    fn views_alias_the_same_words_through_every_handle() {
        use crate::topology::tests::odd_topology;

        for topo in [Topology::scaled(8), Topology::scaled(64), Topology::terapool(), odd_topology()] {
            let mem = ClusterMem::new(topo);
            let (mut core, mut turbo) = (mem.core_view(0), mem.turbo_view(0));
            for bank in 0..topo.num_banks() {
                for off in 0..topo.bank_words() {
                    // The two guest addresses of slot `(bank, off)`.
                    let il = Topology::L1_BASE + 4 * (off * topo.num_banks() + bank);
                    let seq = Topology::SEQ_BASE
                        + topo.tile_of_bank(bank) * Topology::SEQ_STRIDE
                        + 4 * (off * topo.banks_per_tile + bank % topo.banks_per_tile);
                    assert_eq!(topo.l1_slot(il), Some((bank, off)));
                    assert_eq!(topo.l1_slot(seq), Some((bank, off)));
                    // Write through one view with one handle, read through
                    // the other view with all three; unique value per slot.
                    let value = 0x8000_0000 | il;
                    let (wr, rd) = if (bank + off) % 2 == 0 { (il, seq) } else { (seq, il) };
                    match (bank + off) % 3 {
                        0 => mem.write_u32(wr, value),
                        1 => core.store(wr, 4, value).unwrap(),
                        _ => turbo.store(wr, 4, value).unwrap(),
                    }
                    assert_eq!(mem.read_u32(rd), value, "host view, slot ({bank}, {off})");
                    assert_eq!(core.load(rd, 4).unwrap(), value, "core view, slot ({bank}, {off})");
                    assert_eq!(turbo.load(rd, 4).unwrap(), value, "turbo view, slot ({bank}, {off})");
                }
            }
            // No write landed on another slot's word.
            for w in 0..topo.l1_bytes() / 4 {
                assert_eq!(mem.read_u32(Topology::L1_BASE + 4 * w), 0x8000_0000 | (4 * w));
            }
            assert_eq!(mem.dirty_pages(), (topo.l1_bytes() as usize).div_ceil(4 * DIRTY_PAGE_WORDS));
        }
    }

    #[test]
    fn dirty_map_round_trips_through_a_partial_last_word() {
        // 70 pages: one full `u64` and 6 bits of a second.
        let map = DirtyMap::new(69 * DIRTY_PAGE_WORDS + 1);
        assert_eq!((map.0.len(), map.count()), (2, 0));
        for page in [0, 1, 63, 64, 69, 63, 0] {
            map.mark(page * DIRTY_PAGE_WORDS + page);
        }
        assert_eq!(map.count(), 5, "marking a dirty page again changes nothing");
        let mut drained = Vec::new();
        map.drain(|page| drained.push(page));
        assert_eq!(drained, [0, 1, 63, 64, 69]);
        assert_eq!(map.count(), 0);
        map.drain(|page| panic!("page {page} survived the drain"));
        map.mark(69 * DIRTY_PAGE_WORDS);
        assert_eq!(map.count(), 1, "a drained page is marked afresh");
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
    fn peek_reads_l1_and_l2_but_not_the_control_region() {
        let mem = ClusterMem::new(Topology::scaled(16));
        mem.write_u32(0x100, 0xa1b2_c3d4);
        mem.write_u32(Topology::L2_BASE + 8, 7);
        let v = mem.core_view(3);
        assert_eq!(v.peek(0x100, 4), Some(0xa1b2_c3d4));
        assert_eq!(v.peek(0x102, 2), Some(0xa1b2));
        assert_eq!(v.peek(0x103, 1), Some(0xa1));
        assert_eq!(v.peek(Topology::L2_BASE + 8, 4), Some(7));
        assert_eq!(v.peek(0x102, 4), None, "misaligned");
        assert_eq!(v.peek(Topology::CTRL_EOC, 4), None);
        assert_eq!(v.peek(Topology::CTRL_NUM_CORES, 4), None);
        assert_eq!(mem.dirty_pages(), 2, "peeking marks nothing dirty");
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
        // (full, sub-word, AMO), turbo view (full, sub-word, AMO).
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
