//! Cluster geometry, address map and NUMA latency table.

/// Geometry and address-map parameters of a TeraPool-style cluster.
///
/// The full configuration ([`Topology::terapool`]) matches the paper: 1024
/// cores, 128 tiles, 4 MiB L1. Scaled-down configurations
/// ([`Topology::scaled`]) keep the hierarchy shape (8 cores/tile, then
/// tiles → subgroups → groups) so contention behaviour stays
/// representative while experiments fit small hosts.
///
/// # Address map
///
/// | Region | Base | Contents |
/// |---|---|---|
/// | L1 interleaved | `0x0000_0000` | word-interleaved across *all* banks of the cluster |
/// | L1 sequential  | `0x1000_0000` + tile·stride | the same physical banks, tile-local view |
/// | Control        | `0x4000_0000` | EOC, barrier wake, DMA registers |
/// | L2             | `0x8000_0000` | text, read-only data, DMA source |
///
/// The dual L1 view mirrors MemPool/TeraPool: vectors in the interleaved
/// region spread consecutive words over different banks (paper §IV), while
/// per-core matrices in the sequential region stay in the owning tile's
/// banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Snitch cores per tile (8 in TeraPool).
    pub cores_per_tile: u32,
    /// Tiles per subgroup (8).
    pub tiles_per_subgroup: u32,
    /// Subgroups per group (4).
    pub subgroups_per_group: u32,
    /// Groups per cluster (4).
    pub groups: u32,
    /// Scratchpad bytes per tile (32 KiB).
    pub tile_spm_bytes: u32,
    /// Banks per tile (32: 4 per core, as in MemPool).
    pub banks_per_tile: u32,
    /// Shared instruction-cache bytes per tile (4 KiB).
    pub icache_bytes: u32,
    /// I$ line size in bytes.
    pub icache_line: u32,
}

impl Topology {
    /// Base address of the word-interleaved L1 view.
    pub const L1_BASE: u32 = 0x0000_0000;
    /// Base address of the sequential (tile-local) L1 view.
    pub const SEQ_BASE: u32 = 0x1000_0000;
    /// Per-tile stride in the sequential view (1 MiB: a power of two ≥ any
    /// tile SPM size we model, including capacity-deepened configurations).
    pub const SEQ_STRIDE: u32 = 0x10_0000;
    /// Base address of the control region.
    pub const CTRL_BASE: u32 = 0x4000_0000;
    /// End-of-computation register (write = report exit).
    pub const CTRL_EOC: u32 = Self::CTRL_BASE;
    /// Read-only register holding the core count.
    pub const CTRL_NUM_CORES: u32 = Self::CTRL_BASE + 0x4;
    /// Barrier wake register: a store wakes every other hart in `wfi`.
    pub const CTRL_WAKE_ALL: u32 = Self::CTRL_BASE + 0x8;
    /// DMA source-address register.
    pub const CTRL_DMA_SRC: u32 = Self::CTRL_BASE + 0x10;
    /// DMA destination-address register.
    pub const CTRL_DMA_DST: u32 = Self::CTRL_BASE + 0x14;
    /// DMA length register (bytes); writing it starts the transfer.
    pub const CTRL_DMA_LEN: u32 = Self::CTRL_BASE + 0x18;
    /// DMA status register (0 = idle).
    pub const CTRL_DMA_BUSY: u32 = Self::CTRL_BASE + 0x1c;
    /// Size of the control region.
    pub const CTRL_SIZE: u32 = 0x100;
    /// Base address of L2.
    pub const L2_BASE: u32 = 0x8000_0000;
    /// Modelled L2 size (16 MiB).
    pub const L2_SIZE: u32 = 16 << 20;

    /// The paper's full 1024-core cluster.
    pub fn terapool() -> Self {
        Self {
            cores_per_tile: 8,
            tiles_per_subgroup: 8,
            subgroups_per_group: 4,
            groups: 4,
            tile_spm_bytes: 32 << 10,
            banks_per_tile: 32,
            icache_bytes: 4 << 10,
            icache_line: 32,
        }
    }

    /// A scaled cluster with `cores` cores (must be a multiple of 8 and a
    /// power of two ≥ 8), shrinking groups first, then subgroups, then
    /// tiles, so small configurations remain hierarchical.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a power of two multiple of 8 or exceeds
    /// 1024.
    pub fn scaled(cores: u32) -> Self {
        assert!(
            cores.is_power_of_two() && (8..=1024).contains(&cores),
            "cores must be a power of two in 8..=1024"
        );
        let mut topo = Self::terapool();
        let mut have = topo.num_cores();
        while have > cores {
            if topo.groups > 1 {
                topo.groups /= 2;
            } else if topo.subgroups_per_group > 1 {
                topo.subgroups_per_group /= 2;
            } else {
                topo.tiles_per_subgroup /= 2;
            }
            have = topo.num_cores();
        }
        topo
    }

    /// One-way pipeline hop cost of a request that crosses a group
    /// boundary — the cluster-level crossbar stages of the paper's
    /// hierarchy, and the *minimum* latency by which one group can affect
    /// another. The epoch-sharded cycle engine sizes its lockstep epochs
    /// to this value: effects a group publishes in one epoch cannot be
    /// observable in another group before the next epoch begins.
    pub const CROSS_GROUP_HOP: u32 = 4;

    /// Total core count.
    pub fn num_cores(&self) -> u32 {
        self.cores_per_tile * self.num_tiles()
    }

    /// Number of independent arbitration domains the cycle engine can
    /// shard into — one per group. Everything a core arbitrates for
    /// *within* an epoch (its tile's I$ and outbound port, the banks it
    /// can reach in fewer than [`Self::CROSS_GROUP_HOP`] cycles) belongs
    /// to exactly one group, which is what makes the group the natural
    /// sharding boundary.
    pub fn num_domains(&self) -> u32 {
        self.groups
    }

    /// Tiles per group.
    pub fn tiles_per_group(&self) -> u32 {
        self.tiles_per_subgroup * self.subgroups_per_group
    }

    /// Cores per group.
    pub fn cores_per_group(&self) -> u32 {
        self.cores_per_tile * self.tiles_per_group()
    }

    /// Banks per group.
    pub fn banks_per_group(&self) -> u32 {
        self.banks_per_tile * self.tiles_per_group()
    }

    /// Arbitration domain (group index) owning a core.
    pub fn domain_of_core(&self, core: u32) -> u32 {
        core / self.cores_per_group()
    }

    /// Arbitration domain (group index) owning a bank.
    pub fn domain_of_bank(&self, bank: u32) -> u32 {
        bank / self.banks_per_group()
    }

    /// Epoch length (cycles) of the sharded cycle engine: the minimum
    /// cross-group latency, so deferred cross-group effects applied at an
    /// epoch boundary are never applied *after* their arrival time.
    pub fn epoch_len(&self) -> u64 {
        u64::from(Self::CROSS_GROUP_HOP)
    }

    /// Total tile count.
    pub fn num_tiles(&self) -> u32 {
        self.tiles_per_subgroup * self.subgroups_per_group * self.groups
    }

    /// Total bank count.
    pub fn num_banks(&self) -> u32 {
        self.banks_per_tile * self.num_tiles()
    }

    /// Total L1 bytes.
    pub fn l1_bytes(&self) -> u32 {
        self.tile_spm_bytes * self.num_tiles()
    }

    /// Tile index of a core.
    pub fn tile_of_core(&self, core: u32) -> u32 {
        core / self.cores_per_tile
    }

    /// Subgroup index (global) of a tile.
    pub fn subgroup_of_tile(&self, tile: u32) -> u32 {
        tile / self.tiles_per_subgroup
    }

    /// Group index of a tile.
    pub fn group_of_tile(&self, tile: u32) -> u32 {
        self.subgroup_of_tile(tile) / self.subgroups_per_group
    }

    /// Maps an L1 address (either view) to `(bank, word-offset-in-bank)`,
    /// or `None` if the address is outside L1.
    ///
    /// Interleaved view: consecutive words rotate over all banks of the
    /// cluster. Sequential view: consecutive words rotate over the banks of
    /// one tile only.
    pub fn l1_slot(&self, addr: u32) -> Option<(u32, u32)> {
        let word = |a: u32| a / 4;
        if addr < Self::L1_BASE + self.l1_bytes() {
            let w = word(addr - Self::L1_BASE);
            return Some((w % self.num_banks(), w / self.num_banks()));
        }
        if addr >= Self::SEQ_BASE {
            let off = addr - Self::SEQ_BASE;
            let tile = off / Self::SEQ_STRIDE;
            let within = off % Self::SEQ_STRIDE;
            if tile < self.num_tiles() && within < self.tile_spm_bytes {
                let w = word(within);
                let bank = tile * self.banks_per_tile + w % self.banks_per_tile;
                return Some((bank, w / self.banks_per_tile));
            }
        }
        None
    }

    /// Words per bank.
    pub fn bank_words(&self) -> u32 {
        self.tile_spm_bytes / 4 / self.banks_per_tile
    }

    /// Tile that physically hosts a bank.
    pub fn tile_of_bank(&self, bank: u32) -> u32 {
        bank / self.banks_per_tile
    }

    /// One-way request latency (cycles) from a core to a bank, without
    /// contention: 0 extra inside the tile, plus pipeline stages at the
    /// subgroup, group and cluster boundaries. The round trip for a remote
    /// group access is the paper's "less than 9 cycles without
    /// contentions".
    pub fn request_latency(&self, core: u32, bank: u32) -> u32 {
        let (ct, bt) = (self.tile_of_core(core), self.tile_of_bank(bank));
        if ct == bt {
            0
        } else if self.subgroup_of_tile(ct) == self.subgroup_of_tile(bt) {
            1
        } else if self.group_of_tile(ct) == self.group_of_tile(bt) {
            2
        } else {
            Self::CROSS_GROUP_HOP
        }
    }

    /// The largest non-contended L1 access latency of this topology — the
    /// paper's conservative uniform choice for the fast timing model
    /// (9 cycles on full TeraPool, smaller for scaled clusters).
    pub fn max_access_latency(&self) -> u32 {
        let max_hop = if self.groups > 1 {
            Self::CROSS_GROUP_HOP
        } else if self.subgroups_per_group > 1 {
            2
        } else if self.tiles_per_subgroup > 1 {
            1
        } else {
            0
        };
        1 + 2 * max_hop
    }

    /// Total non-contended load-to-use latency (request + bank access +
    /// response): 1 inside the tile, up to 9 across groups — the values the
    /// paper quotes.
    pub fn access_latency(&self, core: u32, addr: u32) -> u32 {
        match self.l1_slot(addr) {
            Some((bank, _)) => {
                let hop = self.request_latency(core, bank);
                1 + 2 * hop
            }
            // L2 / ctrl accesses cross the AXI port.
            None => 16,
        }
    }
}

/// Address → host-word decode of the L1, built once per arena (and once
/// per lowered cycle table) and shared by every view of the memory.
///
/// The host array *is* the interleaved view: word `w` of `L1_BASE` lives
/// at host index `w`, so slot `(bank, off)` sits at `off * num_banks +
/// bank` — one row of all banks after another. The interleaved window
/// therefore decodes with a compare and a shift whatever the geometry.
/// The sequential window decodes into the same rows: without a division
/// when the bank counts are powers of two (every TeraPool configuration),
/// through the spec [`Topology::l1_slot`] otherwise (hand-built ones).
#[derive(Debug, Clone, Copy)]
pub(crate) struct L1Decode {
    pub(crate) topo: Topology,
    l1_bytes: u32,
    num_tiles: u32,
    num_banks: u32,
    /// `log2(banks_per_tile)`, when it and `num_banks` are powers of two.
    bpt_shift: Option<u32>,
}

impl L1Decode {
    /// # Panics
    ///
    /// Panics if an L1 window reaches into the next region, or if a
    /// group's chunk of a row (see [`phys_index`](Self::phys_index)) is
    /// not a whole number of 64 B cache lines.
    pub(crate) fn new(topo: Topology) -> Self {
        let (num_banks, bpt, num_tiles) = (topo.num_banks(), topo.banks_per_tile, topo.num_tiles());
        assert!(
            Topology::L1_BASE + topo.l1_bytes() <= Topology::SEQ_BASE
                && num_tiles <= (Topology::CTRL_BASE - Topology::SEQ_BASE) / Topology::SEQ_STRIDE,
            "L1 views overlap the next region"
        );
        assert!(
            topo.groups == 1 || (topo.banks_per_group() * 4).is_multiple_of(64),
            "a group's banks must span whole cache lines of every L1 row"
        );
        let bpt_shift = (num_banks.is_power_of_two() && bpt.is_power_of_two()).then(|| bpt.trailing_zeros());
        Self { topo, l1_bytes: topo.l1_bytes(), num_tiles, num_banks, bpt_shift }
    }

    /// Host word index of an L1 address (either view, any alignment
    /// within the word), or `None` outside L1: the index of the
    /// `(bank, off)` that [`Topology::l1_slot`] gives.
    #[inline(always)]
    pub(crate) fn index(&self, addr: u32) -> Option<usize> {
        let rel = addr.wrapping_sub(Topology::L1_BASE);
        if rel < self.l1_bytes {
            return Some((rel >> 2) as usize);
        }
        let Some(bpt_shift) = self.bpt_shift else {
            return self.index_by_division(addr);
        };
        let rel = addr.checked_sub(Topology::SEQ_BASE)?;
        let (tile, within) = (rel / Topology::SEQ_STRIDE, rel % Topology::SEQ_STRIDE);
        // Row `w / bpt`, column `tile * bpt + w % bpt`.
        let (w, bpt) = (within >> 2, self.topo.banks_per_tile);
        (tile < self.num_tiles && within < self.topo.tile_spm_bytes)
            .then(|| ((w >> bpt_shift) * self.num_banks + tile * bpt + (w & (bpt - 1))) as usize)
    }

    /// Out of line: no load or store kernel carries the divisions.
    #[cold]
    #[inline(never)]
    fn index_by_division(&self, addr: u32) -> Option<usize> {
        self.topo.l1_slot(addr).map(|(bank, off)| self.phys_index(bank, off))
    }

    /// Bank of an L1 address, as [`Topology::l1_slot`] gives it.
    #[inline]
    pub(crate) fn bank(&self, addr: u32) -> Option<u32> {
        let idx = self.index(addr)? as u32;
        Some(match self.bpt_shift {
            Some(_) => idx & (self.num_banks - 1),
            None => idx % self.num_banks,
        })
    }

    /// Host word index of a slot: `off * num_banks + bank`, row `off` of
    /// the interleaved view.
    ///
    /// A group's banks are numbered contiguously, so they are one aligned
    /// `banks_per_group × 4 B` chunk of every row (4 KiB on TeraPool: one
    /// page of the mapping, one dirty page). The domains of the sharded
    /// cycle engine therefore share no cache line of the array.
    #[inline]
    pub(crate) fn phys_index(&self, bank: u32, off: u32) -> usize {
        (off * self.num_banks + bank) as usize
    }

    /// Bit-identical to [`Topology::tile_of_bank`].
    #[inline]
    pub(crate) fn tile_of_bank(&self, bank: u32) -> u32 {
        match self.bpt_shift {
            Some(bpt_shift) => bank >> bpt_shift,
            None => self.topo.tile_of_bank(bank),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A geometry no divisor of which is a power of two (288 banks of 40
    /// words, 48 per tile), so every decode takes the division fallback;
    /// its L1 ends a quarter of the way into a dirty page.
    pub(crate) fn odd_topology() -> Topology {
        Topology {
            tiles_per_subgroup: 3,
            subgroups_per_group: 1,
            groups: 2,
            tile_spm_bytes: 48 * 40 * 4,
            banks_per_tile: 48,
            ..Topology::terapool()
        }
    }

    #[test]
    fn l1_decode_matches_reference_everywhere() {
        for topo in [Topology::scaled(8), Topology::scaled(64), Topology::terapool(), odd_topology()] {
            let decode = L1Decode::new(topo);
            let l1_words = (topo.l1_bytes() / 4) as usize;
            // Every word of both views lands on the host word of the
            // `(bank, off)` the spec gives: row `off`, column `bank`.
            let mut interleaved = vec![false; l1_words];
            let mut sequential = vec![false; l1_words];
            let probe = |addr: u32, seen: &mut [bool]| {
                let (bank, off) = topo.l1_slot(addr).unwrap_or_else(|| panic!("{addr:#010x} is L1"));
                let idx = (off * topo.num_banks() + bank) as usize;
                assert_eq!(decode.index(addr), Some(idx), "{addr:#010x}");
                assert_eq!(decode.index(addr + 3), Some(idx), "{addr:#010x}: byte 3 of the word");
                assert_eq!(decode.bank(addr), Some(bank), "{addr:#010x}");
                assert_eq!(decode.phys_index(bank, off), idx);
                assert_eq!(decode.tile_of_bank(bank), topo.tile_of_bank(bank));
                assert!(!std::mem::replace(&mut seen[idx], true), "{addr:#010x}: host word {idx} hit twice");
            };
            for addr in (0..topo.l1_bytes()).step_by(4) {
                probe(Topology::L1_BASE + addr, &mut interleaved);
            }
            for tile in 0..topo.num_tiles() {
                for within in (0..topo.tile_spm_bytes).step_by(4) {
                    probe(Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + within, &mut sequential);
                }
            }
            // Each view covers `0..l1_words` exactly once: a bijection.
            assert!(interleaved.iter().all(|&hit| hit) && sequential.iter().all(|&hit| hit));
            for outside in [
                Topology::L1_BASE + topo.l1_bytes(),
                Topology::SEQ_BASE - 4,
                Topology::SEQ_BASE + topo.tile_spm_bytes,
                Topology::SEQ_BASE + topo.num_tiles() * Topology::SEQ_STRIDE,
                Topology::CTRL_BASE,
                Topology::L2_BASE,
                u32::MAX,
            ] {
                assert_eq!(topo.l1_slot(outside), None, "{outside:#010x}");
                assert_eq!(decode.index(outside), None, "{outside:#010x}");
                assert_eq!(decode.bank(outside), None, "{outside:#010x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole cache lines")]
    fn l1_decode_rejects_groups_that_share_a_cache_line() {
        // 24 banks per group: a group's 96 B chunk of a row would share
        // its second cache line with the next group.
        let _ = L1Decode::new(Topology {
            tiles_per_subgroup: 1,
            subgroups_per_group: 1,
            groups: 2,
            banks_per_tile: 24,
            ..Topology::terapool()
        });
    }

    #[test]
    fn full_terapool_counts() {
        let t = Topology::terapool();
        assert_eq!(t.num_cores(), 1024);
        assert_eq!(t.num_tiles(), 128);
        assert_eq!(t.num_banks(), 4096);
        assert_eq!(t.l1_bytes(), 4 << 20);
    }

    #[test]
    fn scaled_configs_keep_shape() {
        for cores in [8, 16, 64, 256, 1024] {
            let t = Topology::scaled(cores);
            assert_eq!(t.num_cores(), cores, "scaled({cores})");
            assert_eq!(t.cores_per_tile, 8);
        }
        assert_eq!(Topology::scaled(256).groups, 1);
    }

    #[test]
    fn interleaved_addresses_rotate_banks() {
        let t = Topology::terapool();
        let (b0, o0) = t.l1_slot(0x0).unwrap();
        let (b1, o1) = t.l1_slot(0x4).unwrap();
        assert_eq!((b0, o0), (0, 0));
        assert_eq!((b1, o1), (1, 0));
        // Wrap-around to the same bank, next word.
        let (bw, ow) = t.l1_slot(4 * t.num_banks()).unwrap();
        assert_eq!((bw, ow), (0, 1));
    }

    #[test]
    fn sequential_addresses_stay_in_tile() {
        let t = Topology::terapool();
        for w in 0..64 {
            let (bank, _) = t.l1_slot(Topology::SEQ_BASE + Topology::SEQ_STRIDE * 3 + w * 4).unwrap();
            assert_eq!(t.tile_of_bank(bank), 3);
        }
        // Out of the SPM window within the stride.
        assert_eq!(t.l1_slot(Topology::SEQ_BASE + t.tile_spm_bytes), None);
    }

    #[test]
    fn latency_hierarchy_is_monotone() {
        let t = Topology::terapool();
        // Core 0 (tile 0): in-tile bank, same subgroup, same group, remote group.
        let in_tile = t.access_latency(0, Topology::SEQ_BASE);
        let subgroup = t.access_latency(0, Topology::SEQ_BASE + Topology::SEQ_STRIDE);
        let group = t.access_latency(0, Topology::SEQ_BASE + Topology::SEQ_STRIDE * 8);
        let remote = t.access_latency(0, Topology::SEQ_BASE + Topology::SEQ_STRIDE * 64);
        assert_eq!(in_tile, 1, "1-cycle scratchpad inside the tile");
        assert!(in_tile < subgroup && subgroup < group && group < remote);
        assert_eq!(remote, 9, "worst non-contended access is 9 cycles");
        assert_eq!(t.max_access_latency(), 9);
        assert_eq!(Topology::scaled(8).max_access_latency(), 1, "single tile is all-local");
        assert_eq!(Topology::scaled(64).max_access_latency(), 3);
    }

    #[test]
    fn every_l1_address_maps_to_exactly_one_slot() {
        let t = Topology::scaled(16);
        let mut seen = std::collections::HashSet::new();
        for addr in (0..t.l1_bytes()).step_by(4) {
            let slot = t.l1_slot(addr).unwrap();
            assert!(seen.insert(slot), "slot collision at {addr:#x}");
            assert!(slot.0 < t.num_banks());
            assert!(slot.1 < t.bank_words());
        }
        assert_eq!(seen.len(), (t.l1_bytes() / 4) as usize);
    }

    #[test]
    fn domain_mapping_follows_groups() {
        let t = Topology::terapool();
        assert_eq!(t.num_domains(), 4);
        assert_eq!(t.cores_per_group(), 256);
        assert_eq!(t.banks_per_group(), 1024);
        for core in [0, 255, 256, 1023] {
            assert_eq!(t.domain_of_core(core), t.group_of_tile(t.tile_of_core(core)), "core {core}");
        }
        for bank in [0, 1023, 1024, 4095] {
            assert_eq!(t.domain_of_bank(bank), t.group_of_tile(t.tile_of_bank(bank)), "bank {bank}");
        }
        assert_eq!(Topology::scaled(64).num_domains(), 1);
        assert_eq!(Topology::scaled(512).num_domains(), 2);
        assert_eq!(Topology::scaled(1024).num_domains(), 4);
        assert_eq!(t.epoch_len(), u64::from(Topology::CROSS_GROUP_HOP));
    }

    #[test]
    fn sequential_view_aliases_interleaved_banks() {
        // Both views must agree on the physical bank set (full coverage, no
        // out-of-range slots).
        let t = Topology::scaled(8);
        for tile in 0..t.num_tiles() {
            for w in 0..(t.tile_spm_bytes / 4) {
                let addr = Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + w * 4;
                let (bank, off) = t.l1_slot(addr).unwrap();
                assert_eq!(t.tile_of_bank(bank), tile);
                assert!(off < t.bank_words());
            }
        }
    }
}
