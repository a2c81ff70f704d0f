//! Macro-op fusion: superinstruction dispatch over the micro-op table.
//!
//! The pre-lowered [`UopProgram`] already removed per-step decoding; the
//! remaining fast-mode cost is *dispatch* — one table fetch, one indirect
//! call and one round of loop bookkeeping per instruction. This module
//! removes half of it for the dominant dynamic pairs: a lowering-time
//! peephole pass ([`FusedProgram::build`]) fuses adjacent instruction
//! pairs — compare+branch loop ends, address-generation+load/store, the
//! MAC chains of the unrolled dot-product kernels — into superinstruction
//! kernels executed with a **single dispatch and a single budget check**.
//!
//! Correctness contract (pinned by `tests/fusion.rs` and the in-module
//! lockstep tests):
//!
//! - **Stats attribution is per constituent.** A fused pair issues both
//!   instructions on the scoreboard individually, bumps `retired` and the
//!   class histogram twice, and applies the taken-branch bubble exactly as
//!   the unfused loop — [`RunStats`] is bit-identical to
//!   [`resume_lowered`](crate::resume_lowered).
//! - **Branch-into-the-middle falls back to the unfused table.** Fused
//!   pairs live only at their head PC; the tail PC keeps its plain
//!   single-uop slot, so any jump (including `jalr` with a runtime target)
//!   into the middle executes unfused at the same PC.
//! - **Traps fall out with per-constituent accounting.** A trap in the
//!   tail leaves the head committed and accounted, exactly as if the two
//!   had executed unfused.
//! - **The budget boundary is exact.** A pair is dispatched only with two
//!   instructions of headroom; at the boundary the head executes through
//!   the single-uop path, so `StopReason::Budget` fires at the identical
//!   retired count.
//!
//! CSR instructions never fuse (a `csrr mcycle`/`minstret` must observe
//! the cycle estimate the unfused loop would have published); `ecall`,
//! `ebreak` and `wfi` never *head* a pair (a pair head must be a plain
//! fall-through instruction) but may be fused as tails.
//!
//! [`resume_spmd`] stacks the second dispatch-amortization lever on top:
//! cluster drivers hand it a *group* of lanes (harts) converged on the
//! same PC and it executes one fetched (super)instruction across all of
//! them in a blocked inner loop — one dispatch amortized N ways, and N
//! consecutive calls to the same kernel pointer, which is exactly what a
//! branch-target predictor wants. Divergence (a branch that resolves
//! differently per lane, a trap, a budget boundary) splits the group and
//! the divergent lanes continue per-core.

use std::collections::VecDeque;

use terasim_riscv::{AluOp, BranchOp, Inst, LoadOp, VfOp};

use crate::cpu::{Cpu, Outcome, Trap};
use crate::mem::Memory;
use crate::program::Program;
use crate::runner::{finalize, RunConfig, RunStats, StopReason};
use crate::timing::InstClass;
use crate::timing::Scoreboard;
use crate::uop::{self, LoweredUop, UopMeta, UopProgram};

/// A superinstruction kernel: executes a fused pair — both constituents'
/// architectural effects *and* their per-constituent timing/statistics
/// bookkeeping — behind one dispatch.
pub type PairKernel<M> =
    fn(&mut Cpu, &PairUop<M>, &mut M, &mut Scoreboard, &mut RunStats, &RunConfig) -> Result<Outcome, Trap>;

/// A fused instruction pair: the superinstruction kernel plus copies of
/// both constituent lowered uops (the kernels replay their exact unfused
/// semantics and accounting).
pub struct PairUop<M> {
    /// The superinstruction kernel (specialized for dominant pairs,
    /// generic otherwise).
    pub exec: PairKernel<M>,
    /// The head constituent (never a control-flow, CSR or system
    /// instruction).
    pub a: LoweredUop<M>,
    /// The tail constituent (anything but a CSR instruction).
    pub b: LoweredUop<M>,
}

impl<M> Clone for PairUop<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for PairUop<M> {}

impl<M> std::fmt::Debug for PairUop<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairUop").field("a", &self.a).field("b", &self.b).finish()
    }
}

/// One slot of a [`FusedProgram`]: what dispatch finds at a PC.
pub enum Slot<M> {
    /// No decodable instruction (illegal fetch when reached).
    Empty,
    /// A plain single micro-op (not fused at this PC — including the tail
    /// of a pair when jumped into directly).
    Single(LoweredUop<M>),
    /// A fused pair headed at this PC.
    Pair(PairUop<M>),
}

impl<M> std::fmt::Debug for Slot<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Slot::Empty => f.write_str("Empty"),
            Slot::Single(lu) => f.debug_tuple("Single").field(lu).finish(),
            Slot::Pair(p) => f.debug_tuple("Pair").field(p).finish(),
        }
    }
}

/// The fused superinstruction table: the unfused [`UopProgram`] slots with
/// eligible adjacent pairs overlaid as [`Slot::Pair`] at their head PC.
///
/// Built once per scenario (cluster drivers cache it in their shared
/// artifact set) by [`FusedProgram::build`]; immutable afterwards and
/// shareable across host threads like the table it derives from.
pub struct FusedProgram<M> {
    entry: u32,
    text_base: u32,
    slots: Vec<Slot<M>>,
    static_pairs: usize,
}

impl<M> std::fmt::Debug for FusedProgram<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedProgram")
            .field("entry", &self.entry)
            .field("len", &self.slots.len())
            .field("static_pairs", &self.static_pairs)
            .finish()
    }
}

// Same sharing contract as `UopProgram`: plain function pointers and POD
// records only, immutable after construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FusedProgram<crate::mem::DenseMemory>>();
};

/// A pair head must fall through unconditionally: no control flow (the
/// tail would execute speculatively), no `ecall`/`wfi` (their outcome ends
/// the dispatch before the tail), no `ebreak` (always traps; fusing it
/// buys nothing), no CSR (the cycle-counter CSRs must observe the unfused
/// publication points).
fn fusable_head(inst: &Inst) -> bool {
    !inst.is_control_flow() && !matches!(inst, Inst::Csr { .. } | Inst::Ecall | Inst::Ebreak | Inst::Wfi)
}

/// A pair tail may be anything whose observable effects do not depend on
/// the per-instruction `mcycle` publication — i.e. anything but a CSR
/// instruction. Control flow, `ecall` and `wfi` tails simply propagate
/// their outcome out of the superinstruction.
fn fusable_tail(inst: &Inst) -> bool {
    !matches!(inst, Inst::Csr { .. })
}

impl<M: Memory> FusedProgram<M> {
    /// Runs the peephole fusion pass over an already-lowered table.
    ///
    /// Pairs are formed greedily left-to-right inside basic blocks only:
    /// statically known branch/`jal` targets and fall-through successors
    /// of control flow are *leaders* and never fused into a preceding
    /// pair, which keeps loop back-edge targets pair-aligned. Runtime
    /// targets (`jalr`) need no special casing — a jump into a pair's
    /// middle fetches the tail's own single-uop slot.
    pub fn build(program: &Program, table: &UopProgram<M>) -> Self {
        let len = program.len();
        let base = program.text_base();
        let pc_of = |i: usize| base.wrapping_add(4 * i as u32);

        // Leader marks: entry, static branch targets, CF fall-throughs.
        let mut leader = vec![false; len];
        let entry_idx = (program.entry().wrapping_sub(base) / 4) as usize;
        if entry_idx < len {
            leader[entry_idx] = true;
        }
        for i in 0..len {
            let Some(inst) = program.fetch(pc_of(i)) else {
                continue;
            };
            if let Inst::Branch { offset, .. } | Inst::Jal { offset, .. } = inst {
                let target = pc_of(i).wrapping_add(offset as u32);
                let ti = (target.wrapping_sub(base) / 4) as usize;
                if target & 3 == 0 && ti < len {
                    leader[ti] = true;
                }
            }
            if inst.is_control_flow() && i + 1 < len {
                leader[i + 1] = true;
            }
        }

        let mut slots: Vec<Slot<M>> = (0..len)
            .map(|i| match table.fetch(pc_of(i)) {
                Some(lu) => Slot::Single(*lu),
                None => Slot::Empty,
            })
            .collect();

        let mut static_pairs = 0;
        let mut i = 0;
        while i + 1 < len {
            let (Some(ia), Some(ib)) = (program.fetch(pc_of(i)), program.fetch(pc_of(i + 1))) else {
                i += 1;
                continue;
            };
            if leader[i + 1] || !fusable_head(&ia) || !fusable_tail(&ib) {
                i += 1;
                continue;
            }
            let (Some(&a), Some(&b)) = (table.fetch(pc_of(i)), table.fetch(pc_of(i + 1))) else {
                i += 1;
                continue;
            };
            let exec = spec2::<M>(&ia, &ib).unwrap_or(pair_generic::<M>);
            slots[i] = Slot::Pair(PairUop { exec, a, b });
            static_pairs += 1;
            i += 2;
        }

        Self { entry: program.entry(), text_base: base, slots, static_pairs }
    }

    /// The program entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Number of statically fused pairs (coverage diagnostics; the
    /// *dynamic* coverage comes from [`resume_profiled`]).
    pub fn static_pairs(&self) -> usize {
        self.static_pairs
    }

    /// Fetches the dispatch slot at `pc` (`None` = illegal fetch).
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<&Slot<M>> {
        if pc & 3 != 0 {
            return None;
        }
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        match self.slots.get(idx) {
            None | Some(Slot::Empty) => None,
            Some(s) => Some(s),
        }
    }
}

// --- Per-constituent execution steps -----------------------------------
//
// These replicate the `resume_lowered` loop body exactly; the `exec`
// parameter is generic so specialized superinstructions pass the concrete
// kernel function (statically dispatched and inlined) while the generic
// pair passes the slot's function pointer.

/// Load latency refinement, identical to the unfused loop: the effective
/// address is computed *before* execution (post-increment bases change).
#[inline(always)]
fn latency_of<M: Memory>(cpu: &Cpu, meta: &UopMeta, mem: &M, config: &RunConfig) -> u32 {
    if config.per_address_latency && meta.is_load {
        let base = cpu.reg_raw(meta.ea_base);
        let addr = if meta.ea_no_offset { base } else { base.wrapping_add(meta.ea_offset as u32) };
        mem.latency(addr)
    } else {
        meta.result_lat as u32
    }
}

/// Executes a pair head: guaranteed fall-through, so no control-flow check
/// and no `mcycle` publication (the tail is never a CSR read).
#[inline(always)]
fn head_step<M: Memory, F>(
    cpu: &mut Cpu,
    lu: &LoweredUop<M>,
    mem: &mut M,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    config: &RunConfig,
    exec: F,
) -> Result<(), Trap>
where
    F: FnOnce(&mut Cpu, uop::Uop, &mut M) -> Result<Outcome, Trap>,
{
    let meta = &lu.meta;
    let latency = latency_of(cpu, meta, mem, config);
    exec(cpu, lu.uop, mem)?;
    sb.issue_slots(meta.srcs, meta.dst, meta.post_inc, latency);
    stats.retired += 1;
    stats.class_counts[meta.class.index()] += 1;
    Ok(())
}

/// Executes one full instruction step — the complete `resume_lowered` loop
/// body: latency refinement, execution, scoreboard issue, statistics,
/// taken-branch bubble, `mcycle` publication. Used for pair tails and for
/// every unfused single step.
#[inline(always)]
fn full_step<M: Memory, F>(
    cpu: &mut Cpu,
    lu: &LoweredUop<M>,
    mem: &mut M,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    config: &RunConfig,
    exec: F,
) -> Result<Outcome, Trap>
where
    F: FnOnce(&mut Cpu, uop::Uop, &mut M) -> Result<Outcome, Trap>,
{
    let meta = &lu.meta;
    let pc = cpu.pc();
    let latency = latency_of(cpu, meta, mem, config);
    let out = exec(cpu, lu.uop, mem)?;
    sb.issue_slots(meta.srcs, meta.dst, meta.post_inc, latency);
    stats.retired += 1;
    stats.class_counts[meta.class.index()] += 1;
    if meta.is_control_flow && cpu.pc() != pc.wrapping_add(4) {
        sb.bubble(config.latency.taken_branch_penalty);
        stats.branch_bubbles += u64::from(config.latency.taken_branch_penalty);
    }
    cpu.set_mcycle(sb.cycles());
    Ok(out)
}

/// The generic fused pair: one dispatch, two (predictably sited) indirect
/// constituent calls, merged loop bookkeeping.
fn pair_generic<M: Memory>(
    cpu: &mut Cpu,
    p: &PairUop<M>,
    mem: &mut M,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    config: &RunConfig,
) -> Result<Outcome, Trap> {
    head_step(cpu, &p.a, mem, sb, stats, config, p.a.exec)?;
    full_step(cpu, &p.b, mem, sb, stats, config, p.b.exec)
}

// Specialized superinstructions for the dominant static pairs of the
// emitted PHY kernels (see the `--fusion-report` histogram): both
// constituent kernels are called statically, so the whole pair compiles
// to straight-line code behind a single dispatch.
macro_rules! spec_pairs {
    ($($name:ident: $ka:ident + $kb:ident;)+) => {$(
        fn $name<M: Memory>(
            cpu: &mut Cpu,
            p: &PairUop<M>,
            mem: &mut M,
            sb: &mut Scoreboard,
            stats: &mut RunStats,
            config: &RunConfig,
        ) -> Result<Outcome, Trap> {
            head_step(cpu, &p.a, mem, sb, stats, config, uop::$ka::<M>)?;
            full_step(cpu, &p.b, mem, sb, stats, config, uop::$kb::<M>)
        }
    )+};
}

spec_pairs! {
    p_addi_beq: k_addi + k_beq;
    p_addi_bne: k_addi + k_bne;
    p_addi_blt: k_addi + k_blt;
    p_addi_bge: k_addi + k_bge;
    p_addi_bltu: k_addi + k_bltu;
    p_addi_bgeu: k_addi + k_bgeu;
    p_addi_addi: k_addi + k_addi;
    p_addi_add: k_addi + k_add;
    p_add_addi: k_add + k_addi;
    p_add_add: k_add + k_add;
    p_slli_add: k_slli + k_add;
    p_slli_addi: k_slli + k_addi;
    p_slli_srli: k_slli + k_srli;
    p_srli_slli: k_srli + k_slli;
    p_slli_or: k_slli + k_or;
    p_add_lw: k_add + k_lw;
    p_slli_lw: k_slli + k_lw;
    p_addi_lw: k_addi + k_lw;
    p_lw_addi: k_lw + k_addi;
    p_lw_lw: k_lw + k_lw;
    p_lwp_lwp: k_lw_post + k_lw_post;
    p_lhp_lhp: k_lh_post + k_lh_post;
    p_lhup_lhup: k_lhu_post + k_lhu_post;
    p_lwp_cdotpc: k_lw_post + k_vfcdotpex_c_s_h;
    p_lwp_dotp: k_lw_post + k_vfdotpex_s_h;
    p_lwp_ndotp: k_lw_post + k_vfndotpex_s_h;
    p_lwp_swap: k_lw_post + k_pv_swap_h;
    p_cdotpc_lwp: k_vfcdotpex_c_s_h + k_lw_post;
    p_dotp_lwp: k_vfdotpex_s_h + k_lw_post;
    p_ndotp_lwp: k_vfndotpex_s_h + k_lw_post;
    p_swap_dotp: k_pv_swap_h + k_vfdotpex_s_h;
    p_fmaddh_fmaddh: k_fmadd_h + k_fmadd_h;
    p_fmaddh_fnmsubh: k_fmadd_h + k_fnmsub_h;
    p_lhp_fmaddh: k_lh_post + k_fmadd_h;
    p_mul_add: k_mul + k_add;
    p_mul_addi: k_mul + k_addi;
    p_addi_mul: k_addi + k_mul;
    p_mul_mul: k_mul + k_mul;
    p_sw_addi: k_sw + k_addi;
    p_addi_sw: k_addi + k_sw;
}

/// Selects a specialized superinstruction for a pair, if one exists.
fn spec2<M: Memory>(a: &Inst, b: &Inst) -> Option<PairKernel<M>> {
    let kern: PairKernel<M> = match (a, b) {
        (Inst::OpImm { op: AluOp::Add, .. }, Inst::Branch { op, .. }) => match op {
            BranchOp::Eq => p_addi_beq::<M>,
            BranchOp::Ne => p_addi_bne::<M>,
            BranchOp::Lt => p_addi_blt::<M>,
            BranchOp::Ge => p_addi_bge::<M>,
            BranchOp::Ltu => p_addi_bltu::<M>,
            BranchOp::Geu => p_addi_bgeu::<M>,
        },
        (Inst::OpImm { op: AluOp::Add, .. }, Inst::OpImm { op: AluOp::Add, .. }) => p_addi_addi::<M>,
        (Inst::OpImm { op: AluOp::Add, .. }, Inst::Op { op: AluOp::Add, .. }) => p_addi_add::<M>,
        (Inst::Op { op: AluOp::Add, .. }, Inst::OpImm { op: AluOp::Add, .. }) => p_add_addi::<M>,
        (Inst::Op { op: AluOp::Add, .. }, Inst::Op { op: AluOp::Add, .. }) => p_add_add::<M>,
        (Inst::OpImm { op: AluOp::Sll, .. }, Inst::Op { op: AluOp::Add, .. }) => p_slli_add::<M>,
        (Inst::OpImm { op: AluOp::Sll, .. }, Inst::OpImm { op: AluOp::Add, .. }) => p_slli_addi::<M>,
        (Inst::OpImm { op: AluOp::Sll, .. }, Inst::OpImm { op: AluOp::Srl, .. }) => p_slli_srli::<M>,
        (Inst::OpImm { op: AluOp::Srl, .. }, Inst::OpImm { op: AluOp::Sll, .. }) => p_srli_slli::<M>,
        (Inst::OpImm { op: AluOp::Sll, .. }, Inst::Op { op: AluOp::Or, .. }) => p_slli_or::<M>,
        (Inst::Op { op: AluOp::Add, .. }, Inst::Load { op: LoadOp::Lw, post_inc: false, .. }) => {
            p_add_lw::<M>
        }
        (Inst::OpImm { op: AluOp::Sll, .. }, Inst::Load { op: LoadOp::Lw, post_inc: false, .. }) => {
            p_slli_lw::<M>
        }
        (Inst::OpImm { op: AluOp::Add, .. }, Inst::Load { op: LoadOp::Lw, post_inc: false, .. }) => {
            p_addi_lw::<M>
        }
        (Inst::Load { op: LoadOp::Lw, post_inc: false, .. }, Inst::OpImm { op: AluOp::Add, .. }) => {
            p_lw_addi::<M>
        }
        (
            Inst::Load { op: LoadOp::Lw, post_inc: false, .. },
            Inst::Load { op: LoadOp::Lw, post_inc: false, .. },
        ) => p_lw_lw::<M>,
        (
            Inst::Load { op: LoadOp::Lw, post_inc: true, .. },
            Inst::Load { op: LoadOp::Lw, post_inc: true, .. },
        ) => p_lwp_lwp::<M>,
        (
            Inst::Load { op: LoadOp::Lh, post_inc: true, .. },
            Inst::Load { op: LoadOp::Lh, post_inc: true, .. },
        ) => p_lhp_lhp::<M>,
        (
            Inst::Load { op: LoadOp::Lhu, post_inc: true, .. },
            Inst::Load { op: LoadOp::Lhu, post_inc: true, .. },
        ) => p_lhup_lhup::<M>,
        (Inst::Load { op: LoadOp::Lw, post_inc: true, .. }, Inst::Vf { op, .. }) => match op {
            VfOp::CdotpExCSH => p_lwp_cdotpc::<M>,
            VfOp::DotpExSH => p_lwp_dotp::<M>,
            VfOp::NDotpExSH => p_lwp_ndotp::<M>,
            VfOp::SwapH => p_lwp_swap::<M>,
            _ => return None,
        },
        (Inst::Vf { op, .. }, Inst::Load { op: LoadOp::Lw, post_inc: true, .. }) => match op {
            VfOp::CdotpExCSH => p_cdotpc_lwp::<M>,
            VfOp::DotpExSH => p_dotp_lwp::<M>,
            VfOp::NDotpExSH => p_ndotp_lwp::<M>,
            _ => return None,
        },
        (Inst::Vf { op: VfOp::SwapH, .. }, Inst::Vf { op: VfOp::DotpExSH, .. }) => p_swap_dotp::<M>,
        (Inst::Load { op: LoadOp::Lh, post_inc: true, .. }, Inst::FpFma { .. }) => {
            if matches!(b, Inst::FpFma { op: terasim_riscv::FmaOp::Madd, fmt: terasim_riscv::FpFmt::H, .. }) {
                p_lhp_fmaddh::<M>
            } else {
                return None;
            }
        }
        (Inst::FpFma { .. }, Inst::FpFma { .. }) => {
            use terasim_riscv::{FmaOp, FpFmt};
            match (a, b) {
                (
                    Inst::FpFma { op: FmaOp::Madd, fmt: FpFmt::H, .. },
                    Inst::FpFma { op: FmaOp::Madd, fmt: FpFmt::H, .. },
                ) => p_fmaddh_fmaddh::<M>,
                (
                    Inst::FpFma { op: FmaOp::Madd, fmt: FpFmt::H, .. },
                    Inst::FpFma { op: FmaOp::Nmsub, fmt: FpFmt::H, .. },
                ) => p_fmaddh_fnmsubh::<M>,
                _ => return None,
            }
        }
        (Inst::MulDiv { op: terasim_riscv::MulDivOp::Mul, .. }, _) => match b {
            Inst::Op { op: AluOp::Add, .. } => p_mul_add::<M>,
            Inst::OpImm { op: AluOp::Add, .. } => p_mul_addi::<M>,
            Inst::MulDiv { op: terasim_riscv::MulDivOp::Mul, .. } => p_mul_mul::<M>,
            _ => return None,
        },
        (Inst::OpImm { op: AluOp::Add, .. }, Inst::MulDiv { op: terasim_riscv::MulDivOp::Mul, .. }) => {
            p_addi_mul::<M>
        }
        (
            Inst::Store { op: terasim_riscv::StoreOp::Sw, post_inc: false, .. },
            Inst::OpImm { op: AluOp::Add, .. },
        ) => p_sw_addi::<M>,
        (
            Inst::OpImm { op: AluOp::Add, .. },
            Inst::Store { op: terasim_riscv::StoreOp::Sw, post_inc: false, .. },
        ) => p_addi_sw::<M>,
        _ => return None,
    };
    Some(kern)
}

// --- Drivers -----------------------------------------------------------

/// As [`resume_lowered`](crate::resume_lowered) over the fused
/// superinstruction table: bit-identical results and statistics, roughly
/// half the dispatches on fused-dense code.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest, with the same
/// per-constituent accounting as the unfused loop.
pub fn resume_fused<M: Memory>(
    cpu: &mut Cpu,
    fp: &FusedProgram<M>,
    mem: &mut M,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
) -> Result<StopReason, Trap> {
    if cpu.pc() == 0 {
        cpu.set_pc(fp.entry);
    }

    loop {
        if stats.retired >= config.max_instructions {
            finalize(stats, sb, cpu, StopReason::Budget);
            return Ok(StopReason::Budget);
        }
        let pc = cpu.pc();
        let out = match fp.fetch(pc) {
            Some(Slot::Pair(p)) => {
                if config.max_instructions - stats.retired >= 2 {
                    (p.exec)(cpu, p, mem, sb, stats, config)?
                } else {
                    // Budget boundary: execute the head alone so Budget
                    // fires at the exact retired count.
                    full_step(cpu, &p.a, mem, sb, stats, config, p.a.exec)?
                }
            }
            Some(Slot::Single(lu)) => full_step(cpu, lu, mem, sb, stats, config, lu.exec)?,
            _ => return Err(Trap::IllegalFetch { pc }),
        };

        match out {
            Outcome::Continue => {}
            Outcome::Exit { code } => {
                let stop = StopReason::Exit { code };
                finalize(stats, sb, cpu, stop);
                return Ok(stop);
            }
            Outcome::Wfi => {
                finalize(stats, sb, cpu, StopReason::Wfi);
                return Ok(StopReason::Wfi);
            }
        }
    }
}

/// One SPMD lane: the per-hart mutable state [`resume_spmd`] advances.
#[derive(Debug)]
pub struct Lane<'a, M> {
    /// Architectural state of the lane's hart.
    pub cpu: &'a mut Cpu,
    /// The lane's private memory view.
    pub mem: &'a mut M,
    /// The lane's issue scoreboard.
    pub sb: &'a mut Scoreboard,
    /// The lane's accumulated run statistics.
    pub stats: &'a mut RunStats,
}

/// Runs a set of lanes to their next stop (exit, `wfi` park, budget),
/// executing converged lanes in lockstep: lanes at the same PC form a
/// group, each fetched (super)instruction is dispatched once and applied
/// across the whole group, and per-lane timing/statistics are accounted
/// exactly as the per-core loop would. Lanes whose branches resolve
/// differently split into subgroups (singletons continue through
/// [`resume_fused`]); every result is bit-identical to running each lane
/// alone.
///
/// Returns one [`StopReason`] per lane, in input order.
///
/// # Errors
///
/// Returns the first [`Trap`] raised by any lane (lane order within a
/// group, group order by lowest lane index). Partial state is abandoned,
/// exactly as cluster drivers treat a trapped run.
pub fn resume_spmd<M: Memory>(
    lanes: &mut [Lane<'_, M>],
    fp: &FusedProgram<M>,
    config: &RunConfig,
) -> Result<Vec<StopReason>, Trap> {
    let mut stops: Vec<StopReason> = vec![StopReason::Budget; lanes.len()];
    for lane in lanes.iter_mut() {
        if lane.cpu.pc() == 0 {
            lane.cpu.set_pc(fp.entry);
        }
    }

    // Initial convergence groups: lanes sharing a PC, lowest lane first.
    let mut work: VecDeque<Vec<usize>> = VecDeque::new();
    {
        let mut parts: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, lane) in lanes.iter().enumerate() {
            let pc = lane.cpu.pc();
            match parts.iter_mut().find(|(q, _)| *q == pc) {
                Some((_, v)) => v.push(i),
                None => parts.push((pc, vec![i])),
            }
        }
        parts.sort_by_key(|(_, v)| v[0]);
        work.extend(parts.into_iter().map(|(_, v)| v));
    }

    while let Some(group) = work.pop_front() {
        if group.len() == 1 {
            let l = &mut lanes[group[0]];
            stops[group[0]] = resume_fused(l.cpu, fp, l.mem, config, l.sb, l.stats)?;
            continue;
        }
        run_group(lanes, &group, fp, config, &mut stops, &mut work)?;
    }
    Ok(stops)
}

/// Lockstep execution of one convergence group until it stops, splits, or
/// nears the instruction budget (then lanes finish per-core for exact
/// budget semantics).
fn run_group<M: Memory>(
    lanes: &mut [Lane<'_, M>],
    group: &[usize],
    fp: &FusedProgram<M>,
    config: &RunConfig,
    stops: &mut [StopReason],
    work: &mut VecDeque<Vec<usize>>,
) -> Result<(), Trap> {
    let mut pc = lanes[group[0]].cpu.pc();
    let mut rem: u64 = group
        .iter()
        .map(|&i| config.max_instructions.saturating_sub(lanes[i].stats.retired))
        .min()
        .unwrap_or(0);

    loop {
        if rem < 2 {
            // Near the budget: per-core execution gets the boundary exact.
            for &i in group {
                let l = &mut lanes[i];
                stops[i] = resume_fused(l.cpu, fp, l.mem, config, l.sb, l.stats)?;
            }
            return Ok(());
        }
        let Some(slot) = fp.fetch(pc) else {
            return Err(Trap::IllegalFetch { pc });
        };
        let (cf, cost, out) = match slot {
            Slot::Pair(p) => {
                let mut out = Outcome::Continue;
                for &i in group {
                    let l = &mut lanes[i];
                    out = (p.exec)(l.cpu, p, l.mem, l.sb, l.stats, config)?;
                }
                (p.b.meta.is_control_flow, 2u64, out)
            }
            Slot::Single(lu) => {
                let mut out = Outcome::Continue;
                for &i in group {
                    let l = &mut lanes[i];
                    out = full_step(l.cpu, lu, l.mem, l.sb, l.stats, config, lu.exec)?;
                }
                (lu.meta.is_control_flow, 1u64, out)
            }
            Slot::Empty => return Err(Trap::IllegalFetch { pc }),
        };
        rem -= cost;

        // The fetched instruction is the same for every lane, so the
        // outcome *kind* is uniform (`ecall` exits everywhere, `wfi`
        // parks everywhere); only exit codes are per-lane.
        match out {
            Outcome::Continue => {}
            Outcome::Exit { .. } => {
                for &i in group {
                    let l = &mut lanes[i];
                    let stop = StopReason::Exit { code: l.cpu.reg_raw(10) };
                    finalize(l.stats, l.sb, l.cpu, stop);
                    stops[i] = stop;
                }
                return Ok(());
            }
            Outcome::Wfi => {
                for &i in group {
                    let l = &mut lanes[i];
                    finalize(l.stats, l.sb, l.cpu, StopReason::Wfi);
                    stops[i] = StopReason::Wfi;
                }
                return Ok(());
            }
        }

        if cf {
            let next = lanes[group[0]].cpu.pc();
            if group.iter().any(|&i| lanes[i].cpu.pc() != next) {
                // Divergence: partition by PC and requeue; singletons run
                // per-core, converged subsets keep lockstepping.
                let mut parts: Vec<(u32, Vec<usize>)> = Vec::new();
                for &i in group {
                    let p = lanes[i].cpu.pc();
                    match parts.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, v)) => v.push(i),
                        None => parts.push((p, vec![i])),
                    }
                }
                parts.sort_by_key(|(_, v)| v[0]);
                work.extend(parts.into_iter().map(|(_, v)| v));
                return Ok(());
            }
            pc = next;
        } else {
            pc = pc.wrapping_add(4 * cost as u32);
        }
    }
}

// --- Profiling ---------------------------------------------------------

/// Dynamic fusion profile: the adjacent-pair histogram and fused-dispatch
/// coverage of one (or many merged) runs. Collected by
/// [`resume_profiled`]; drives pair-selection tuning via the
/// `mips --fusion-report` bench leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionProfile {
    /// `pair_counts[a][b]`: dynamic occurrences of a class-`b` instruction
    /// retiring immediately after a class-`a` instruction on the same
    /// hart (indices per [`InstClass::index`]).
    pub pair_counts: [[u64; InstClass::COUNT]; InstClass::COUNT],
    /// Instructions the fused table dispatches inside a superinstruction.
    pub fused_retired: u64,
    /// Total retired instructions observed.
    pub total_retired: u64,
}

impl Default for FusionProfile {
    fn default() -> Self {
        Self { pair_counts: [[0; InstClass::COUNT]; InstClass::COUNT], fused_retired: 0, total_retired: 0 }
    }
}

impl FusionProfile {
    /// Merges another profile (e.g. another hart's) into this one.
    pub fn merge(&mut self, other: &FusionProfile) {
        for (a, b) in self.pair_counts.iter_mut().zip(other.pair_counts.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
        self.fused_retired += other.fused_retired;
        self.total_retired += other.total_retired;
    }

    /// Percentage of retired instructions dispatched fused (0–100).
    pub fn fused_pct(&self) -> f64 {
        if self.total_retired == 0 {
            0.0
        } else {
            100.0 * self.fused_retired as f64 / self.total_retired as f64
        }
    }

    /// The `k` most frequent dynamic class pairs, descending.
    pub fn top_pairs(&self, k: usize) -> Vec<(InstClass, InstClass, u64)> {
        let mut all: Vec<(InstClass, InstClass, u64)> = Vec::new();
        for (ai, a) in InstClass::ALL.iter().enumerate() {
            for (bi, b) in InstClass::ALL.iter().enumerate() {
                let n = self.pair_counts[ai][bi];
                if n > 0 {
                    all.push((*a, *b, n));
                }
            }
        }
        all.sort_by_key(|pair| std::cmp::Reverse(pair.2));
        all.truncate(k);
        all
    }
}

/// As [`resume_lowered`](crate::resume_lowered) (unfused execution order,
/// bit-identical results) while recording the dynamic adjacent-pair
/// histogram and the coverage the fused table *would* achieve. Slow path —
/// benchmarking legs only.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest.
pub fn resume_profiled<M: Memory>(
    cpu: &mut Cpu,
    fp: &FusedProgram<M>,
    mem: &mut M,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    prof: &mut FusionProfile,
) -> Result<StopReason, Trap> {
    if cpu.pc() == 0 {
        cpu.set_pc(fp.entry);
    }
    let mut prev: Option<usize> = None;
    // Remaining instructions of the fused dispatch the coverage walk is
    // inside (mirrors the fetch decisions `resume_fused` would make on
    // the identical PC stream).
    let mut pending: u64 = 0;
    loop {
        if stats.retired >= config.max_instructions {
            finalize(stats, sb, cpu, StopReason::Budget);
            return Ok(StopReason::Budget);
        }
        let pc = cpu.pc();
        let lu = match fp.fetch(pc) {
            Some(Slot::Pair(p)) => {
                if pending == 0 && config.max_instructions - stats.retired >= 2 {
                    prof.fused_retired += 2;
                    pending = 2;
                }
                &p.a
            }
            Some(Slot::Single(lu)) => lu,
            _ => return Err(Trap::IllegalFetch { pc }),
        };
        if pending == 0 {
            pending = 1;
        }
        let out = full_step(cpu, lu, mem, sb, stats, config, lu.exec)?;
        pending -= 1;
        let class = lu.meta.class.index();
        prof.total_retired += 1;
        if let Some(p) = prev {
            prof.pair_counts[p][class] += 1;
        }
        prev = Some(class);

        match out {
            Outcome::Continue => {}
            Outcome::Exit { code } => {
                let stop = StopReason::Exit { code };
                finalize(stats, sb, cpu, stop);
                return Ok(stop);
            }
            Outcome::Wfi => {
                finalize(stats, sb, cpu, StopReason::Wfi);
                return Ok(StopReason::Wfi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    use super::*;
    use crate::mem::DenseMemory;
    use crate::runner::resume_lowered;

    fn program_of(build: impl FnOnce(&mut Assembler)) -> Program {
        let mut a = Assembler::new(0x8000_0000);
        build(&mut a);
        a.ecall();
        let mut image = Image::new(0x8000_0000);
        image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
        Program::translate(&image).unwrap()
    }

    /// Runs the same program fused and unfused with the given budget and
    /// asserts full-state bit-identity (registers, memory, stats, stop).
    fn differential(build: impl FnOnce(&mut Assembler), max_instructions: u64) {
        let program = program_of(build);
        let config = RunConfig { max_instructions, ..RunConfig::default() };
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &config.latency);
        let fused = FusedProgram::build(&program, &table);

        let mut cpu_u = Cpu::new(0);
        let mut cpu_f = Cpu::new(0);
        let mut mem_u = DenseMemory::new(0, 0x1000);
        let mut mem_f = DenseMemory::new(0, 0x1000);
        let mut sb_u = Scoreboard::new();
        let mut sb_f = Scoreboard::new();
        let mut st_u = RunStats::default();
        let mut st_f = RunStats::default();

        let ru = resume_lowered(&mut cpu_u, &table, &mut mem_u, &config, &mut sb_u, &mut st_u);
        let rf = resume_fused(&mut cpu_f, &fused, &mut mem_f, &config, &mut sb_f, &mut st_f);
        assert_eq!(ru, rf, "stop/trap diverged");
        assert_eq!(st_u, st_f, "stats diverged");
        assert_eq!(cpu_u.pc(), cpu_f.pc(), "pc diverged");
        for r in 0..32u8 {
            assert_eq!(cpu_u.reg_raw(r), cpu_f.reg_raw(r), "x{r} diverged");
        }
        assert_eq!(mem_u.read_bytes(0, 0x1000), mem_f.read_bytes(0, 0x1000), "memory diverged");
    }

    #[test]
    fn loop_and_memory_identical() {
        for budget in [u64::MAX, 100, 7, 6, 5, 2, 1] {
            differential(
                |a| {
                    a.li(Reg::A0, 0);
                    a.li(Reg::T0, 10);
                    let top = a.new_label();
                    a.bind(top);
                    a.add(Reg::A0, Reg::A0, Reg::T0);
                    a.addi(Reg::T0, Reg::T0, -1);
                    a.bnez(Reg::T0, top);
                    a.sw(Reg::A0, 0x40, Reg::Zero);
                    a.lw(Reg::A1, 0x40, Reg::Zero);
                },
                budget,
            );
        }
    }

    #[test]
    fn jump_into_pair_tail_uses_unfused_slot() {
        // `jal` over the pair head lands mid-pair; the tail executes via
        // its own single slot.
        differential(
            |a| {
                let mid = a.new_label();
                a.li(Reg::T0, 5);
                a.j(mid);
                a.addi(Reg::T0, Reg::T0, 100); // pair head, skipped
                a.bind(mid);
                a.addi(Reg::T0, Reg::T0, 1); // potential pair tail
                a.addi(Reg::T1, Reg::T0, 2);
            },
            u64::MAX,
        );
    }

    #[test]
    fn trap_mid_pair_accounts_head() {
        // The second load faults (out of DenseMemory range): the head of
        // the pair must stay committed and accounted identically.
        differential(
            |a| {
                a.li(Reg::A1, 0x100);
                a.lui(Reg::A2, 0x7000_0000u32 as i32);
                a.lw(Reg::A3, 0, Reg::A1); // pair head: fine
                a.lw(Reg::A4, 0, Reg::A2); // pair tail: faults
            },
            u64::MAX,
        );
    }

    #[test]
    fn post_inc_mac_chain_identical() {
        differential(
            |a| {
                a.li(Reg::A0, 0x100);
                a.li(Reg::A1, 0x200);
                a.li(Reg::A6, 4);
                let top = a.new_label();
                a.bind(top);
                a.p_lw(Reg::A2, 4, Reg::A0);
                a.p_lw(Reg::A3, 4, Reg::A1);
                a.vfcdotpex_c_s_h(Reg::T0, Reg::A2, Reg::A3);
                a.addi(Reg::A6, Reg::A6, -1);
                a.bnez(Reg::A6, top);
            },
            u64::MAX,
        );
    }

    #[test]
    fn csr_reads_never_fuse() {
        // mcycle/minstret reads must observe the per-instruction
        // publication; the pass refuses to fuse them and results match.
        differential(
            |a| {
                a.nop().nop().nop();
                a.csrr(Reg::A0, terasim_riscv::csr::MCYCLE);
                a.csrr(Reg::A1, terasim_riscv::csr::MINSTRET);
                a.addi(Reg::A2, Reg::A0, 0);
            },
            u64::MAX,
        );
    }

    #[test]
    fn spmd_lockstep_matches_per_lane() {
        // Four lanes diverging on hart id, then reconverging.
        let program = program_of(|a| {
            a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
            a.andi(Reg::T1, Reg::T0, 1);
            let odd = a.new_label();
            let join = a.new_label();
            a.bnez(Reg::T1, odd);
            a.slli(Reg::A0, Reg::T0, 4);
            a.j(join);
            a.bind(odd);
            a.addi(Reg::A0, Reg::T0, 100);
            a.bind(join);
            a.slli(Reg::T2, Reg::T0, 2);
            a.sw(Reg::A0, 0x80, Reg::T2);
        });
        let config = RunConfig::default();
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &config.latency);
        let fused = FusedProgram::build(&program, &table);

        let run_ref = |hart: u32| {
            let mut cpu = Cpu::new(hart);
            let mut mem = DenseMemory::new(0, 0x1000);
            let mut sb = Scoreboard::new();
            let mut st = RunStats::default();
            let stop = resume_lowered(&mut cpu, &table, &mut mem, &config, &mut sb, &mut st).unwrap();
            (cpu, mem, st, stop)
        };

        let mut cpus: Vec<Cpu> = (0..4).map(Cpu::new).collect();
        let mut mems: Vec<DenseMemory> = (0..4).map(|_| DenseMemory::new(0, 0x1000)).collect();
        let mut sbs: Vec<Scoreboard> = (0..4).map(|_| Scoreboard::new()).collect();
        let mut sts: Vec<RunStats> = (0..4).map(|_| RunStats::default()).collect();
        let mut lanes: Vec<Lane<'_, DenseMemory>> = cpus
            .iter_mut()
            .zip(mems.iter_mut())
            .zip(sbs.iter_mut())
            .zip(sts.iter_mut())
            .map(|(((cpu, mem), sb), stats)| Lane { cpu, mem, sb, stats })
            .collect();
        let stops = resume_spmd(&mut lanes, &fused, &config).unwrap();

        for hart in 0..4u32 {
            let (rc, rm, rst, rstop) = run_ref(hart);
            let i = hart as usize;
            assert_eq!(stops[i], rstop, "hart {hart} stop diverged");
            assert_eq!(sts[i], rst, "hart {hart} stats diverged");
            for r in 0..32u8 {
                assert_eq!(cpus[i].reg_raw(r), rc.reg_raw(r), "hart {hart} x{r} diverged");
            }
            assert_eq!(
                mems[i].read_bytes(0, 0x1000),
                rm.read_bytes(0, 0x1000),
                "hart {hart} memory diverged"
            );
        }
    }

    #[test]
    fn profile_counts_cover_all_retirements() {
        let program = program_of(|a| {
            a.li(Reg::T0, 8);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        let config = RunConfig::default();
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &config.latency);
        let fused = FusedProgram::build(&program, &table);
        let mut cpu = Cpu::new(0);
        let mut mem = DenseMemory::new(0, 0x1000);
        let mut sb = Scoreboard::new();
        let mut st = RunStats::default();
        let mut prof = FusionProfile::default();
        resume_profiled(&mut cpu, &fused, &mut mem, &config, &mut sb, &mut st, &mut prof).unwrap();
        assert_eq!(prof.total_retired, st.retired);
        // The addi+bnez loop body fuses: coverage must be substantial.
        assert!(prof.fused_retired > st.retired / 2, "{prof:?}");
        assert!(prof.fused_pct() > 50.0);
        let pairs = prof.top_pairs(3);
        assert!(!pairs.is_empty());
        // Adjacency counts: every retirement except the first follows one.
        let total: u64 = prof.pair_counts.iter().flatten().sum();
        assert_eq!(total, st.retired - 1);
    }
}
