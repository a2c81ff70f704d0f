//! A dropped arena must cost the next one nothing, and a job only the
//! pages of the bytes it wrote. One test, alone in its own test binary,
//! because it reads the resident set of the whole process; only where
//! `ClusterMem` maps its arenas itself (the `cfg` of `mem::sys`).
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
))]

use terasim_terapool::{ClusterMem, Topology};

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
    line.split_whitespace().nth(1).expect("VmRSS value").parse().expect("VmRSS in KiB")
}

/// Arenas used to come from `vec![0; n]`. glibc serves that by `mmap`
/// (lazily zero, nothing touched) only above its mmap threshold, and
/// raises the threshold to the size of the first mapped chunk it sees
/// freed — so from the second arena on, each was carved from the heap
/// and cleared by `calloc`: 20 MiB touched, and resident, per arena.
///
/// The L1 host array is the interleaved view, so a contiguous guest
/// buffer is contiguous host memory: 256 KiB of operands make 64 or 65
/// pages resident. In a bank-major array the same buffer would touch one
/// word in every KiB: all 4 MiB of the L1.
#[test]
fn resident_memory_follows_what_jobs_touch() {
    let topo = Topology::terapool();
    let before = vm_rss_kib();
    for round in 0..6u32 {
        let mem = ClusterMem::new(topo);
        mem.write_u32(Topology::L2_BASE + 0x1000 * round, round + 1);
        assert_eq!(mem.read_u32(Topology::L2_BASE + 0x1000 * round), round + 1);
        drop(mem);
    }
    let mem = ClusterMem::new(topo);
    assert_eq!(mem.read_u32(Topology::L2_BASE), 0);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(grown < 2048, "seven arenas, one page touched in each: VmRSS grew by {grown} KiB");

    let before = vm_rss_kib();
    let base = Topology::L1_BASE + 0x1_2340;
    for addr in (base..base + (256 << 10)).step_by(4) {
        mem.write_u32(addr, addr);
    }
    assert_eq!(mem.read_u32(base + 0x3_0000), base + 0x3_0000);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(grown < 1024, "256 KiB written into a fresh arena: VmRSS grew by {grown} KiB");
}
