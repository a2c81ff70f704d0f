//! The L1 host layout must be invisible through the public API: both
//! address views reach every word exactly once and agree with
//! `Topology::l1_slot` on which word that is, for the shipped geometries
//! and for one no divisor of which is a power of two; and a job's dirty
//! footprint is the pages of the bytes it wrote.

use terasim_iss::Memory;
use terasim_terapool::{ClusterMem, Topology};

/// 288 banks of 40 words, 48 per tile, 6 tiles in 2 groups: the decode
/// takes its division fallback everywhere.
fn odd_topology() -> Topology {
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
fn sequential_view_is_a_permutation_of_the_interleaved_view() {
    for topo in [Topology::scaled(8), Topology::scaled(64), Topology::terapool(), odd_topology()] {
        let mem = ClusterMem::new(topo);
        let mut core = mem.core_view(topo.num_cores() - 1);
        // Tag every word with its interleaved address through the guest's
        // store path ...
        for addr in (0..topo.l1_bytes()).step_by(4) {
            core.store(Topology::L1_BASE + addr, 4, addr | 1).unwrap();
        }
        // ... and find each tag behind the sequential address of the same
        // `(bank, off)`, from the host and from the guest.
        let mut seen = vec![false; (topo.l1_bytes() / 4) as usize];
        for tile in 0..topo.num_tiles() {
            for within in (0..topo.tile_spm_bytes).step_by(4) {
                let seq = Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + within;
                let (bank, off) = topo.l1_slot(seq).expect("inside the tile's window");
                let tag = (4 * (off * topo.num_banks() + bank)) | 1;
                assert_eq!(topo.l1_slot(tag & !1), Some((bank, off)));
                assert_eq!(mem.read_u32(seq), tag, "{seq:#010x} from the host");
                assert_eq!(core.load(seq, 4).unwrap(), tag, "{seq:#010x} from the guest");
                assert!(!std::mem::replace(&mut seen[(tag / 4) as usize], true), "{seq:#010x} aliases");
            }
        }
        assert!(seen.iter().all(|&hit| hit), "the sequential view misses words");
        // Sub-word stores through the sequential view land in the same word.
        let seq = Topology::SEQ_BASE + (topo.num_tiles() - 1) * Topology::SEQ_STRIDE + 0x40;
        let (bank, off) = topo.l1_slot(seq).expect("inside the tile's window");
        core.store(seq + 2, 2, 0xbeef).unwrap();
        let il = Topology::L1_BASE + 4 * (off * topo.num_banks() + bank);
        assert_eq!(mem.read_u32(il), 0xbeef_0000 | ((il | 1) & 0xffff));
        // Just outside either window is unmapped.
        for outside in [Topology::L1_BASE + topo.l1_bytes(), Topology::SEQ_BASE + topo.tile_spm_bytes] {
            assert!(core.load(outside, 4).is_err(), "{outside:#010x}");
            assert!(core.store(outside, 4, 0).is_err(), "{outside:#010x}");
        }
    }
}

#[test]
fn contiguous_guest_buffer_dirties_only_its_own_pages() {
    // 256 KiB of halfword operands in the interleaved view of the full
    // cluster, as the MMSE kernels' inputs are: 64 pages of data plus one
    // for the misalignment, out of the 1024 pages of the L1.
    let mem = ClusterMem::new(Topology::terapool());
    let mut core = mem.core_view(0);
    let base = Topology::L1_BASE + 0x2_0100;
    for addr in (base..base + (256 << 10)).step_by(2) {
        core.store(addr, 2, addr & 0xffff).unwrap();
    }
    assert!(mem.dirty_pages() <= 65, "{} dirty pages", mem.dirty_pages());
}
