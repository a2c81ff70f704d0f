//! Unit-level checks of the adaptive epoch coordinator's **grant/trim
//! protocol**: a sole-active domain earns cap-length extended grants
//! while its cores stay provably local, and the first deferred (cross
//! -domain) access inside a grant trims the window back to the next
//! base boundary — with results bit-identical to the fixed cadence and
//! the full-scan reference throughout — and a core alone in its domain
//! is driven solo.

use std::sync::Arc;

use terasim_riscv::{csr, Assembler, Image, Reg, Segment};
use terasim_terapool::{CycleSim, SimArtifacts, Topology};

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().unwrap()));
    image
}

/// A single active core on a 2-group topology alternates long pure-int
/// spins (sole-active ⇒ cap-length grants) with cross-group stores that
/// land mid-grant (⇒ trim). The telemetry must show both grant kinds,
/// and the run must stay bit-identical to fixed cadence and `run_naive`.
#[test]
fn sole_active_grants_extend_and_trim() {
    let topo = Topology::scaled(512);
    assert!(topo.num_domains() > 1, "topology must shard");
    // First word owned by a *group-1* bank: guaranteed cross-group for
    // core 0 (the interleaved view maps word `w` to bank `w % banks`).
    let remote = (4 * topo.banks_per_group()) as i32;
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        a.li(Reg::T2, 1);
        for round in 0..6i32 {
            // ~200 cycles of local-only work: comfortably inside one
            // cap-length grant, far past the 4-cycle base epoch.
            a.li(Reg::T1, 100);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, top);
            // Cross-group AMO into a group-1 bank word, mid-grant.
            a.li(Reg::A1, remote + 4 * round);
            a.amoadd_w(Reg::A2, Reg::T2, Reg::A1);
        }
    });

    let arts = SimArtifacts::build(topo, &image).unwrap();

    let mut sim_a = CycleSim::from_artifacts(Arc::clone(&arts));
    let ra = sim_a.run(1).unwrap();
    let report = sim_a.epoch_report();
    assert!(report.windows > 0, "no windows recorded");
    assert!(report.extended > 0, "sole-active spins earned no extended grants: {report:?}");
    assert!(report.trimmed > 0, "mid-grant cross traffic caused no trims: {report:?}");
    assert!(
        report.avg_epoch_len() > Topology::CROSS_GROUP_HOP as f64,
        "average window did not beat the base cadence: {report:?}"
    );

    let mut sim_f = CycleSim::from_artifacts(Arc::clone(&arts));
    let rf = sim_f.run_fixed_epochs(1, 1).unwrap();
    assert_eq!(sim_f.epoch_report().extended, 0, "fixed cadence must never extend");
    let mut sim_n = CycleSim::from_artifacts(arts);
    let rn = sim_n.run_naive(1).unwrap();

    for (label, other) in [("fixed", &rf), ("naive", &rn)] {
        assert_eq!(ra.cycles, other.cycles, "{label}: makespan differs");
        assert_eq!(ra.per_core, other.per_core, "{label}: per-core stats differ");
        assert_eq!(ra.parked, other.parked, "{label}: parked set differs");
    }
    for round in 0..6u32 {
        let addr = remote as u32 + 4 * round;
        assert_eq!(sim_a.memory().read_u32(addr), 1, "round {round} store lost");
        assert_eq!(
            sim_a.memory().read_u32(addr),
            sim_f.memory().read_u32(addr),
            "round {round} differs from fixed"
        );
    }
}

/// The barrier-skew shape (hart 0 spins while every other hart parks in
/// `wfi`, then wakes them all): hart 0 is its domain's only event for
/// almost the whole run, so nearly every retired instruction must come
/// from a solo drive — the share `EpochReport::solo_instructions`
/// reports. On a single-group topology too: `run` is the sharded engine
/// there as well, so its report is populated and its windows cover the
/// whole run.
#[test]
fn skew_guest_retires_solo() {
    let image = image_of(|a| {
        a.csrr(Reg::T0, csr::MHARTID);
        let waker = a.new_label();
        let done = a.new_label();
        a.beqz(Reg::T0, waker);
        a.wfi();
        a.j(done);
        a.bind(waker);
        a.li(Reg::T1, 200_000);
        let top = a.new_label();
        a.bind(top);
        a.add(Reg::T4, Reg::T4, Reg::T1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
        a.li(Reg::T2, Topology::CTRL_WAKE_ALL as i32);
        a.sw(Reg::T2, 0, Reg::T2);
        a.bind(done);
    });
    for cores in [16u32, 512] {
        let topo = Topology::scaled(cores);
        let mut sim = CycleSim::from_artifacts(SimArtifacts::build(topo, &image).unwrap());
        let result = sim.run(cores).unwrap();
        assert!(!result.deadlocked, "{cores} cores: every hart must be woken");
        let retired: u64 = result.per_core.iter().map(|s| s.instructions).sum();
        let report = sim.epoch_report();
        assert!(report.windows >= 1, "{cores} cores: no windows recorded: {report:?}");
        assert!(report.cycles >= result.cycles, "{cores} cores: windows miss the makespan: {report:?}");
        let solo = report.solo_instructions;
        assert!(solo <= retired, "{cores} cores: solo {solo} > retired {retired}");
        assert!(solo * 100 >= retired * 99, "{cores} cores: solo drives retired only {solo} of {retired}");
    }
}

/// Full-occupancy pure-int guests never defer, so the multi-active
/// horizon rule extends windows with zero trims — and the elision fast
/// path still counts every retired instruction.
#[test]
fn multi_active_horizon_extends_without_trims() {
    let topo = Topology::scaled(512);
    let cores = 512u32;
    let image = image_of(|a| {
        // Purely local: a long countdown, no memory traffic at all — the
        // reachability pass proves every PC local, so the multi-active
        // horizon rule can extend windows with nothing to defer.
        a.csrr(Reg::T0, csr::MHARTID);
        a.li(Reg::T1, 300);
        let top = a.new_label();
        a.bind(top);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
    });
    let mut sim = CycleSim::from_artifacts(SimArtifacts::build(topo, &image).unwrap());
    let result = sim.run(cores).unwrap();
    let report = sim.epoch_report();
    assert!(report.extended > 0, "local-only full-occupancy run earned no extended grants: {report:?}");
    assert!(report.extended_pct() > 50.0, "extension should dominate here: {report:?}");

    // The elided stretches must not drop retired-instruction counts:
    // every core runs the identical static program.
    let insts: Vec<u64> = result.per_core.iter().map(|s| s.instructions).collect();
    assert!(insts.iter().all(|&i| i == insts[0]), "uneven instruction counts: {insts:?}");
}
