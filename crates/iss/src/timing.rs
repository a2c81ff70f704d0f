//! The fast approximate timing model: static latencies + RAW scoreboard.
//!
//! Following the paper (§III-B), every instruction is assigned a *static*
//! latency and a scoreboard tracks when each destination register becomes
//! available. An instruction issues when (a) the previous instruction has
//! issued (single-issue, in-order Snitch) and (b) all of its source
//! registers are ready. The difference between those two times is the RAW
//! stall the paper's Figure 8 calls `stall-raw`; loads stalled on the
//! conservative 9-cycle memory latency surface the `stall-lsu` effect.

use terasim_riscv::{FpOp, Inst, VfOp};

/// Coarse instruction classes used for latency assignment and the
/// Figure-8-style breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer ALU, `lui`/`auipc`, CSR moves.
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide/remainder.
    Div,
    /// Data-memory loads (including post-increment forms).
    Load,
    /// Data-memory stores.
    Store,
    /// Atomic read-modify-write, `lr.w`, `sc.w`.
    Amo,
    /// Conditional branches.
    Branch,
    /// `jal`/`jalr`.
    Jump,
    /// Scalar FP add/sub/mul/FMA/compare/sign ops.
    Fp,
    /// Scalar FP divide and square root (long-latency iterative unit).
    FpDivSqrt,
    /// SIMD SmallFloat lane ops, shuffles, conversions.
    Simd,
    /// Widening/complex dot products.
    Dotp,
    /// `wfi`, `ecall`, `fence` and friends.
    System,
}

impl InstClass {
    /// Number of classes (for stat arrays).
    pub const COUNT: usize = 13;

    /// All classes, in stat-array order.
    pub const ALL: [InstClass; Self::COUNT] = [
        InstClass::Alu,
        InstClass::Mul,
        InstClass::Div,
        InstClass::Load,
        InstClass::Store,
        InstClass::Amo,
        InstClass::Branch,
        InstClass::Jump,
        InstClass::Fp,
        InstClass::FpDivSqrt,
        InstClass::Simd,
        InstClass::Dotp,
        InstClass::System,
    ];

    /// Stat-array index of the class.
    pub const fn index(self) -> usize {
        match self {
            InstClass::Alu => 0,
            InstClass::Mul => 1,
            InstClass::Div => 2,
            InstClass::Load => 3,
            InstClass::Store => 4,
            InstClass::Amo => 5,
            InstClass::Branch => 6,
            InstClass::Jump => 7,
            InstClass::Fp => 8,
            InstClass::FpDivSqrt => 9,
            InstClass::Simd => 10,
            InstClass::Dotp => 11,
            InstClass::System => 12,
        }
    }

    /// Classifies a decoded instruction.
    pub fn of(inst: &Inst) -> Self {
        match inst {
            Inst::Lui { .. }
            | Inst::Auipc { .. }
            | Inst::OpImm { .. }
            | Inst::Op { .. }
            | Inst::Csr { .. } => InstClass::Alu,
            Inst::MulDiv { op, .. } => match op {
                terasim_riscv::MulDivOp::Mul
                | terasim_riscv::MulDivOp::Mulh
                | terasim_riscv::MulDivOp::Mulhsu
                | terasim_riscv::MulDivOp::Mulhu => InstClass::Mul,
                _ => InstClass::Div,
            },
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::LrW { .. } | Inst::ScW { .. } | Inst::Amo { .. } => InstClass::Amo,
            Inst::Branch { .. } => InstClass::Branch,
            Inst::Jal { .. } | Inst::Jalr { .. } => InstClass::Jump,
            Inst::FpArith { op, .. } => match op {
                FpOp::Div => InstClass::FpDivSqrt,
                _ => InstClass::Fp,
            },
            Inst::FpUn { op, .. } => match op {
                terasim_riscv::FpUnOp::Sqrt => InstClass::FpDivSqrt,
                _ => InstClass::Fp,
            },
            Inst::FpFma { .. } | Inst::FpCmp { .. } => InstClass::Fp,
            Inst::Vf { op, .. } => match op {
                VfOp::DotpExSH
                | VfOp::NDotpExSH
                | VfOp::CdotpExSH
                | VfOp::CdotpExCSH
                | VfOp::DotpExHB
                | VfOp::NDotpExHB
                | VfOp::CmacB
                | VfOp::CmacConjB => InstClass::Dotp,
                _ => InstClass::Simd,
            },
            Inst::Pv { op, .. } => match op {
                terasim_riscv::PvOp::Mac
                | terasim_riscv::PvOp::Msu
                | terasim_riscv::PvOp::DotspH
                | terasim_riscv::PvOp::SdotspH => InstClass::Mul,
                _ => InstClass::Alu,
            },
            Inst::Fence | Inst::Ecall | Inst::Ebreak | Inst::Wfi => InstClass::System,
        }
    }
}

/// Static per-class result latencies (cycles until the destination register
/// is usable) plus control-flow penalties.
///
/// The defaults approximate the Snitch pipeline and its co-processing
/// functional units; they are deliberately public so the latency-model
/// ablation (`ablation_latency`) can perturb them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyModel {
    /// Integer ALU result latency.
    pub alu: u32,
    /// IPU multiply latency.
    pub mul: u32,
    /// IPU divide latency.
    pub div: u32,
    /// Fallback load-use latency when the memory does not refine it. The
    /// paper's conservative choice is the worst non-contended L1 access:
    /// 9 cycles.
    pub load: u32,
    /// AMO round-trip latency.
    pub amo: u32,
    /// FPU add/mul/FMA latency.
    pub fp: u32,
    /// FPU divide/sqrt latency.
    pub fp_div_sqrt: u32,
    /// SIMD lane-op latency.
    pub simd: u32,
    /// Widening/complex dot-product latency.
    pub dotp: u32,
    /// Extra bubbles after a taken branch or jump.
    pub taken_branch_penalty: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            alu: 1,
            mul: 3,
            div: 21,
            load: 9,
            amo: 10,
            fp: 4,
            fp_div_sqrt: 12,
            simd: 4,
            dotp: 4,
            taken_branch_penalty: 2,
        }
    }
}

impl LatencyModel {
    /// Result latency for an instruction of class `class` (loads use the
    /// fallback; drivers override with per-address memory latency).
    pub fn result_latency(&self, class: InstClass) -> u32 {
        match class {
            InstClass::Alu | InstClass::Branch | InstClass::Store | InstClass::System => 1,
            InstClass::Jump => 1,
            InstClass::Mul => self.mul,
            InstClass::Div => self.div,
            InstClass::Load => self.load,
            InstClass::Amo => self.amo,
            InstClass::Fp => self.fp,
            InstClass::FpDivSqrt => self.fp_div_sqrt,
            InstClass::Simd => self.simd,
            InstClass::Dotp => self.dotp,
        }
    }
}

/// Per-hart issue scoreboard: tracks when each register's value becomes
/// available and accumulates RAW stalls.
///
/// # Examples
///
/// ```
/// use terasim_iss::Scoreboard;
/// use terasim_riscv::{Inst, LoadOp, Reg, AluOp};
///
/// let mut sb = Scoreboard::new();
/// let load = Inst::Load { op: LoadOp::Lw, rd: Reg::A0, rs1: Reg::A1, offset: 0, post_inc: false };
/// let use_it = Inst::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A0, imm: 1 };
/// sb.issue(&load, 9);
/// sb.issue(&use_it, 1);
/// // The dependent add waited for the 9-cycle load.
/// assert_eq!(sb.raw_stalls(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scoreboard {
    ready: [u64; 32],
    next_issue: u64,
    raw_stalls: u64,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Scoreboard {
    /// Creates an empty scoreboard at cycle zero.
    pub fn new() -> Self {
        Self { ready: [0; 32], next_issue: 0, raw_stalls: 0 }
    }

    /// Issues `inst` whose result latency is `latency`; returns the issue
    /// cycle.
    pub fn issue(&mut self, inst: &Inst, latency: u32) -> u64 {
        let mut t = self.next_issue;
        for src in inst.srcs() {
            t = t.max(self.ready[src.index()]);
        }
        self.raw_stalls += t - self.next_issue;
        if let Some(rd) = inst.dst() {
            self.ready[rd.index()] = t + u64::from(latency);
        }
        if let Some(base) = inst.post_inc_dst() {
            // The incremented base comes from the ALU path: ready next cycle.
            self.ready[base.index()] = t + 1;
        }
        self.next_issue = t + 1;
        t
    }

    /// As [`Scoreboard::issue`], but over pre-decoded register slots (the
    /// micro-op hot path): `srcs` are source indices with `x0` omitted and
    /// unused entries left 0, `dst`/`post_inc` are destination indices or
    /// [`NO_REG`](crate::uop::NO_REG). Semantically identical to `issue`
    /// on the instruction the slots were lowered from: an unused entry
    /// reads `ready[0]`, which nothing ever writes (`x0` is never a
    /// destination slot), so all three `max`es run unconditionally.
    #[inline]
    pub fn issue_slots(&mut self, srcs: [u8; 3], dst: u8, post_inc: u8, latency: u32) -> u64 {
        let next = self.issue_in_run(self.next_issue, srcs, dst, post_inc, latency);
        self.end_run(next, 1);
        next - 1
    }

    /// Issues one uop of a straight-line run — the block engine's form of
    /// [`issue_slots`](Self::issue_slots), which is a run of one: the
    /// issue clock is the caller's `next`, kept out of memory across the
    /// run, and RAW stalls are counted once per run by
    /// [`end_run`](Self::end_run). Returns the clock after the issue.
    #[inline(always)]
    pub(crate) fn issue_in_run(
        &mut self,
        next: u64,
        srcs: [u8; 3],
        dst: u8,
        post_inc: u8,
        latency: u32,
    ) -> u64 {
        let [a, b, c] = srcs.map(|src| self.ready[(src & 31) as usize]);
        let t = next.max(a).max(b).max(c);
        if dst != crate::uop::NO_REG {
            self.ready[(dst & 31) as usize] = t + u64::from(latency);
        }
        if post_inc != crate::uop::NO_REG {
            self.ready[(post_inc & 31) as usize] = t + 1;
        }
        t + 1
    }

    /// Ends a run of `issued` [`issue_in_run`](Self::issue_in_run) issues
    /// that started at [`cycles`](Self::cycles) and left the clock at
    /// `next`. Each issue advances the clock by one cycle plus its stall,
    /// so the run stalled for `next - start - issued` cycles.
    #[inline(always)]
    pub(crate) fn end_run(&mut self, next: u64, issued: u64) {
        self.raw_stalls += next - self.next_issue - issued;
        self.next_issue = next;
    }

    /// Inserts `n` pipeline bubbles (taken-branch penalty).
    pub fn bubble(&mut self, n: u32) {
        self.next_issue += u64::from(n);
    }

    /// Advances the local clock to at least `t` (used when a cluster
    /// barrier releases: the hart idled until the slowest arrival).
    /// Returns the number of idle cycles inserted.
    pub fn advance_to(&mut self, t: u64) -> u64 {
        let idle = t.saturating_sub(self.next_issue);
        self.next_issue += idle;
        idle
    }

    /// Current cycle estimate (the cycle after the last issue, including
    /// any outstanding result latency is *not* waited for — matching an
    /// in-order core that can retire under outstanding writebacks).
    pub fn cycles(&self) -> u64 {
        self.next_issue
    }

    /// Cycle at which every outstanding result has landed (used at program
    /// end so trailing loads are not cut off).
    pub fn drain_cycles(&self) -> u64 {
        self.ready.iter().copied().fold(self.next_issue, u64::max)
    }

    /// Accumulated read-after-write stall cycles.
    pub fn raw_stalls(&self) -> u64 {
        self.raw_stalls
    }
}

#[cfg(test)]
mod tests {
    use terasim_riscv::{AluOp, LoadOp, Reg};

    use super::*;

    fn load(rd: Reg) -> Inst {
        Inst::Load { op: LoadOp::Lw, rd, rs1: Reg::Sp, offset: 0, post_inc: false }
    }

    fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::Op { op: AluOp::Add, rd, rs1, rs2 }
    }

    #[test]
    fn independent_instructions_dual_stream() {
        let mut sb = Scoreboard::new();
        sb.issue(&load(Reg::A0), 9);
        sb.issue(&load(Reg::A1), 9);
        sb.issue(&add(Reg::A2, Reg::T0, Reg::T1), 1);
        assert_eq!(sb.cycles(), 3, "independent ops issue back to back");
        assert_eq!(sb.raw_stalls(), 0);
    }

    #[test]
    fn dependent_chain_stalls() {
        let mut sb = Scoreboard::new();
        sb.issue(&load(Reg::A0), 9); // issues at 0, a0 ready at 9
        sb.issue(&add(Reg::A1, Reg::A0, Reg::A0), 1); // waits until 9
        assert_eq!(sb.cycles(), 10);
        assert_eq!(sb.raw_stalls(), 8);
        sb.issue(&add(Reg::A2, Reg::A1, Reg::A1), 1); // a1 ready at 10, issues at 10
        assert_eq!(sb.raw_stalls(), 8, "back-to-back ALU has no extra stall");
    }

    #[test]
    fn unrolling_hides_latency() {
        // Two interleaved load-use pairs: the second load issues during the
        // first load's latency, halving total stall - the paper's rationale
        // for unrolled kernels.
        let mut interleaved = Scoreboard::new();
        interleaved.issue(&load(Reg::A0), 9);
        interleaved.issue(&load(Reg::A1), 9);
        interleaved.issue(&add(Reg::A2, Reg::A0, Reg::A0), 1);
        interleaved.issue(&add(Reg::A3, Reg::A1, Reg::A1), 1);

        let mut serial = Scoreboard::new();
        serial.issue(&load(Reg::A0), 9);
        serial.issue(&add(Reg::A2, Reg::A0, Reg::A0), 1);
        serial.issue(&load(Reg::A1), 9);
        serial.issue(&add(Reg::A3, Reg::A1, Reg::A1), 1);

        assert!(interleaved.cycles() < serial.cycles());
        assert_eq!(interleaved.raw_stalls(), 7);
        assert_eq!(serial.raw_stalls(), 16);
    }

    #[test]
    fn drain_includes_trailing_latency() {
        let mut sb = Scoreboard::new();
        sb.issue(&load(Reg::A0), 9);
        assert_eq!(sb.cycles(), 1);
        assert_eq!(sb.drain_cycles(), 9);
    }

    #[test]
    fn issue_slots_matches_issue_on_random_streams() {
        use terasim_riscv::{BranchOp, FmaOp, FpFmt, StoreOp, VfOp};

        use crate::uop::UopMeta;

        // xorshift64*, as in `tests/uop_differential.rs`.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let latency = LatencyModel::default();
        let (mut by_inst, mut by_slots) = (Scoreboard::new(), Scoreboard::new());
        // The block engine's form: runs of random length, closed before
        // every bubble.
        let mut by_run = Scoreboard::new();
        let (mut clock, mut run_len) = (0, 0);
        let (mut x0_srcs, mut x0_dsts, mut post_incs) = (0, 0, 0);
        for _ in 0..20_000 {
            // Eight registers, `x0` among them, so sources, destinations
            // and post-increment bases collide and hit `x0` all the time.
            let mut reg = || Reg::from_num((next() % 8) as u32);
            let (rd, rs1, rs2, rs3) = (reg(), reg(), reg(), reg());
            let post_inc = next() % 2 == 0;
            let inst = match next() % 8 {
                0 => Inst::Load { op: LoadOp::Lw, rd, rs1, offset: 4, post_inc },
                1 => Inst::Store { op: StoreOp::Sh, rs1, rs2, offset: 2, post_inc },
                2 => Inst::OpImm { op: AluOp::Add, rd, rs1, imm: 1 },
                3 => add(rd, rs1, rs2),
                4 => Inst::FpFma { op: FmaOp::Madd, fmt: FpFmt::H, rd, rs1, rs2, rs3 },
                // Accumulating: `rd` is also a source.
                5 => Inst::Vf { op: VfOp::CdotpExSH, rd, rs1, rs2 },
                6 => Inst::Branch { op: BranchOp::Ne, rs1, rs2, offset: -8 },
                _ => Inst::Jal { rd, offset: 8 },
            };
            let meta = UopMeta::of(&inst, &latency);
            let lat = (next() % 12) as u32;
            assert_eq!(
                by_slots.issue_slots(meta.srcs, meta.dst, meta.post_inc, lat),
                by_inst.issue(&inst, lat),
                "{inst}"
            );
            assert_eq!(by_slots.raw_stalls(), by_inst.raw_stalls(), "{inst}");
            assert_eq!(by_slots.drain_cycles(), by_inst.drain_cycles(), "{inst}");
            assert_eq!(by_slots.ready, by_inst.ready, "{inst}");
            clock = by_run.issue_in_run(clock, meta.srcs, meta.dst, meta.post_inc, lat);
            run_len += 1;
            assert_eq!(by_run.ready, by_inst.ready, "{inst}");
            let bubble = next() % 16 == 0;
            if bubble || next() % 5 == 0 {
                by_run.end_run(clock, run_len);
                run_len = 0;
                assert_eq!(by_run.raw_stalls(), by_inst.raw_stalls(), "{inst}");
                assert_eq!(by_run.cycles(), by_inst.cycles(), "{inst}");
            }
            let reads_x0 = match inst {
                Inst::Jal { .. } => false,
                Inst::Load { .. } | Inst::OpImm { .. } => rs1 == Reg::Zero,
                _ => rs1 == Reg::Zero || rs2 == Reg::Zero,
            };
            x0_srcs += u32::from(reads_x0);
            x0_dsts +=
                u32::from(rd == Reg::Zero && !matches!(inst, Inst::Store { .. } | Inst::Branch { .. }));
            post_incs += u32::from(inst.post_inc_dst().is_some());
            if bubble {
                by_inst.bubble(2);
                by_slots.bubble(2);
                by_run.bubble(2);
                clock = by_run.cycles();
            }
        }
        assert_eq!(by_inst.ready[0], 0, "x0's slot is never written: unused `srcs` entries read it");
        assert!(by_inst.raw_stalls() > 0, "the stream must contain RAW stalls");
        assert!(x0_srcs > 1000 && x0_dsts > 1000 && post_incs > 1000, "{x0_srcs} {x0_dsts} {post_incs}");
    }

    #[test]
    fn classification_covers_all_variants() {
        use terasim_riscv::{FmaOp, FpFmt, VfOp};
        assert_eq!(InstClass::of(&add(Reg::A0, Reg::A0, Reg::A0)), InstClass::Alu);
        assert_eq!(InstClass::of(&load(Reg::A0)), InstClass::Load);
        assert_eq!(
            InstClass::of(&Inst::FpFma {
                op: FmaOp::Madd,
                fmt: FpFmt::H,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A0,
                rs3: Reg::A0
            }),
            InstClass::Fp
        );
        assert_eq!(
            InstClass::of(&Inst::Vf { op: VfOp::CdotpExSH, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A0 }),
            InstClass::Dotp
        );
        assert_eq!(
            InstClass::of(&Inst::Vf { op: VfOp::SwapH, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::Zero }),
            InstClass::Simd
        );
        assert_eq!(InstClass::of(&Inst::Wfi), InstClass::System);
        for (i, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
