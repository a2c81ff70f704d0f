//! A dropped arena must cost the next one nothing. Alone in its own test
//! binary because it reads the resident set of the whole process; only
//! where `ClusterMem` maps its arenas itself (the `cfg` of `mem::sys`).
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
#[test]
fn a_fresh_arena_after_a_dropped_one_touches_no_memory() {
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
}
