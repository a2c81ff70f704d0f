//! The barrier-skew guest, owned by the benchmark so that edits to the
//! `mips` bench cannot change it: hart 0 spins while every other hart
//! parks in `wfi`, then wakes them all. The cycle engine spends the run
//! in quiescent stretches with a single active hart.

use std::sync::Arc;

use terasim_riscv::{csr, Assembler, Image, Reg, Segment};
use terasim_terapool::{CycleSim, MemPool, SimArtifacts, Topology};

use crate::job::{Job, JobStats};
use crate::stats::Digest;
use crate::trace::{in_span, Open, Tracer};

/// L1 word the host writes the spin count to.
const SPIN_ADDR: u32 = 0x0;
/// L1 word hart 0 stores its loop sum to.
const SUM_ADDR: u32 = 0x4;
/// L1 array where every hart stores `hartid + 1` on its way out.
const FLAGS_ADDR: u32 = 0x1000;

fn image() -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    a.csrr(Reg::T0, csr::MHARTID);
    let waker = a.new_label();
    a.beqz(Reg::T0, waker);
    a.wfi();
    let done = a.new_label();
    a.j(done);
    a.bind(waker);
    a.lw(Reg::T1, SPIN_ADDR as i32, Reg::Zero);
    a.li(Reg::T4, 0);
    let top = a.new_label();
    a.bind(top);
    a.add(Reg::T4, Reg::T4, Reg::T1);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
    a.sw(Reg::T4, SUM_ADDR as i32, Reg::Zero);
    a.li(Reg::T2, Topology::CTRL_WAKE_ALL as i32);
    a.li(Reg::T3, 1);
    a.sw(Reg::T3, 0, Reg::T2);
    a.bind(done);
    a.slli(Reg::T5, Reg::T0, 2);
    a.li(Reg::T6, FLAGS_ADDR as i32);
    a.add(Reg::T5, Reg::T5, Reg::T6);
    a.addi(Reg::T6, Reg::T0, 1);
    a.sw(Reg::T6, 0, Reg::T5);
    a.ecall();
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().expect("skew guest assembles")));
    image
}

#[derive(Debug)]
pub struct Skew {
    cores: u32,
    /// Base spin count; each job adds a seed-derived jitter below 1/256
    /// of it, so inputs follow `--seed` while job size stays put.
    spin: u32,
    arts: Arc<SimArtifacts>,
}

impl Skew {
    /// With a tracer, records `kernels.emit` (guest assembly) and
    /// `terapool.artifacts` under `parent`.
    pub fn prepare(cores: u32, spin: u32, spans: Option<(&Tracer, &Open)>) -> Self {
        let image = in_span(spans, "kernels.emit", image);
        let arts = in_span(spans, "terapool.artifacts", || {
            SimArtifacts::build(Topology::scaled(cores), &image).expect("skew guest translates")
        });
        Self { cores, spin, arts }
    }
}

impl Job for Skew {
    fn artifacts(&self) -> &Arc<SimArtifacts> {
        &self.arts
    }

    fn run(&self, pool: &Arc<MemPool>, seed: u64, spans: Option<(&Tracer, &Open)>) -> JobStats {
        let spin = self.spin + (seed % u64::from(self.spin / 256).max(1)) as u32;
        let mut sim = in_span(spans, "terapool.pool", || CycleSim::from_pool(pool));
        sim.memory().write_u32(SPIN_ADDR, spin);
        let result = in_span(spans, "terapool.cycle_exec", || sim.run(self.cores)).expect("skew guest runs");
        let total = result.aggregate();

        let (verified, result_hash) = in_span(spans, "bench.verify", || {
            let mut hash = Digest::new();
            let sum = sim.memory().read_u32(SUM_ADDR);
            hash.u64(u64::from(sum));
            let want = (u64::from(spin) * (u64::from(spin) + 1) / 2) as u32;
            let mut verified = !result.deadlocked && result.budgeted.is_empty() && sum == want;
            for hart in 0..self.cores {
                let flag = sim.memory().read_u32(FLAGS_ADDR + 4 * hart);
                verified &= flag == hart + 1;
                hash.u64(u64::from(flag));
            }
            (verified, hash.finish())
        });
        let epochs = sim.epoch_report();
        in_span(spans, "terapool.pool", || drop(sim));
        JobStats {
            instructions: total.instructions,
            sim_cycles: result.cycles,
            verified,
            stalls: [total.stall_raw, total.stall_lsu, total.stall_ins, total.stall_acc, total.stall_wfi],
            harts: u64::from(self.cores),
            result_hash,
            epochs,
            ..JobStats::default()
        }
    }
}
