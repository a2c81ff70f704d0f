//! The pre-lowered micro-op layer shared by the fast ISS driver and the
//! cycle-accurate cluster engine.
//!
//! [`Program::translate`] already decodes the text once; this module goes
//! one step further and *lowers* every decoded [`Inst`] into a
//! [`LoweredUop`]: a dense operand record ([`Uop`]: register indices and
//! immediate), static timing metadata ([`UopMeta`]), and a direct
//! function-pointer execution kernel ([`Kernel`]) selected once at program
//! load. The hot loop then does **no field extraction and no nested
//! matching** — one indexed load fetches everything, one indirect call
//! executes the instruction.
//!
//! Every kernel replicates the corresponding arm of the retained seed
//! interpreter [`Cpu::execute`] exactly (they share the operand-level
//! helpers in `cpu.rs`, so there is a single semantic body per operation).
//! The `uop_differential` integration test pins the lowered path
//! bit-identical — registers, memory, retired counts, traps — to the seed
//! interpreter across every instruction family.
//!
//! Kernels are generic over the driver's [`Memory`] view and monomorphized
//! at lowering time, which is what lets the fast mode (its per-core view),
//! the event-driven cycle engine (its relaxed single-threaded view) and
//! plain [`DenseMemory`](crate::DenseMemory) users all dispatch through
//! plain function pointers with no dynamic dispatch on the memory side.

use terasim_riscv::{
    AluOp, AmoOp, BranchOp, CsrOp, CsrSrc, FmaOp, FpCmpOp, FpFmt, FpOp, FpUnOp, Inst, LoadOp, MulDivOp, PvOp,
    Reg, StoreOp, VfOp,
};

use crate::cpu::{alu, fp_arith, fp_cmp, fp_fma, fp_un, muldiv, pv, vf, Cpu, Outcome, Trap};
use crate::mem::Memory;
use crate::program::Program;
use crate::timing::{InstClass, LatencyModel};

/// Sentinel register index meaning "no register".
pub const NO_REG: u8 = 32;

/// Compact memory-operation descriptor of one lowered instruction.
///
/// Timing drivers that split *request* timing from *architectural*
/// execution (the epoch-sharded cycle engine defers cross-domain accesses
/// to epoch boundaries) need to perform the memory side effect and the
/// destination writeback outside the kernel; this record carries exactly
/// the facts required to do that bit-identically to the kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Not a data-memory instruction.
    None,
    /// A load; `size` in bytes, `signed` selects sign extension.
    Load {
        /// Access width in bytes (1, 2 or 4).
        size: u8,
        /// Sign-extend narrower-than-word results.
        signed: bool,
    },
    /// A store; `size` in bytes.
    Store {
        /// Access width in bytes (1, 2 or 4).
        size: u8,
    },
    /// `lr.w`: a word load that also sets the reservation.
    LoadReserved,
    /// `sc.w`: a conditional word store (success is decided against the
    /// hart-local reservation at issue).
    StoreConditional,
    /// A read-modify-write atomic.
    Amo(AmoOp),
}

impl MemOp {
    /// Classifies a decoded instruction.
    pub fn of(inst: &Inst) -> Self {
        match *inst {
            Inst::Load { op, .. } => {
                MemOp::Load { size: op.size() as u8, signed: matches!(op, LoadOp::Lb | LoadOp::Lh) }
            }
            Inst::Store { op, .. } => MemOp::Store { size: op.size() as u8 },
            Inst::LrW { .. } => MemOp::LoadReserved,
            Inst::ScW { .. } => MemOp::StoreConditional,
            Inst::Amo { op, .. } => MemOp::Amo(op),
            _ => MemOp::None,
        }
    }
}

/// Dense operand record of one lowered instruction.
///
/// The interpretation of each field is fixed by the kernel selected at
/// lowering time (e.g. `imm` is a branch offset for branch kernels, the
/// CSR address for CSR kernels, the ALU immediate for `OpImm` kernels).
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// Destination register index (0 = `x0`, writes discarded).
    pub rd: u8,
    /// First source register index, or the CSR 5-bit immediate.
    pub rs1: u8,
    /// Second source register index.
    pub rs2: u8,
    /// Third source register index (FMA addend).
    pub rs3: u8,
    /// Immediate operand (offset, ALU immediate, or CSR address).
    pub imm: i32,
}

impl Uop {
    pub(crate) const fn new() -> Self {
        Self { rd: 0, rs1: 0, rs2: 0, rs3: 0, imm: 0 }
    }
}

/// A micro-op execution kernel: architectural execution of one lowered
/// instruction, monomorphized for the driver's memory view.
pub type Kernel<M> = fn(&mut Cpu, Uop, &mut M) -> Result<Outcome, Trap>;

/// Static per-instruction facts for timing drivers (scoreboard sources,
/// destination, effective-address recipe, latency class), computed once at
/// lowering so issue loops never re-classify or re-scan operands.
#[derive(Debug, Clone, Copy)]
pub struct UopMeta {
    /// Source register indices, `x0` omitted; unused entries are 0, whose
    /// scoreboard slot is never written, so issue loops read all three.
    pub srcs: [u8; 3],
    /// Destination register index, or [`NO_REG`] (writes to `x0` hidden).
    pub dst: u8,
    /// Post-increment base register index, or [`NO_REG`].
    pub post_inc: u8,
    /// Effective-address base register, or [`NO_REG`] for non-memory ops.
    pub ea_base: u8,
    /// `true` when the effective address ignores the offset (post-inc and
    /// atomics).
    pub ea_no_offset: bool,
    /// Effective-address immediate offset.
    pub ea_offset: i32,
    /// Static result latency of the class (before memory refinement).
    pub result_lat: u64,
    /// Latency/breakdown class.
    pub class: InstClass,
    /// Occupies the FPU (structural hazard with div/sqrt drain).
    pub uses_fpu: bool,
    /// Accesses data memory (load/store/atomic).
    pub is_mem: bool,
    /// Memory-operation descriptor (for drivers that defer the access).
    pub mem: MemOp,
    /// Is a data load (per-address latency refinement applies).
    pub is_load: bool,
    /// Is an atomic (extra bank-busy cycle in the cycle engine).
    pub is_amo: bool,
    /// Occupies the non-pipelined divide/sqrt unit.
    pub is_div_sqrt: bool,
    /// May redirect the PC (taken-branch penalty applies).
    pub is_control_flow: bool,
    /// Never touches data memory, so it can never target a remote group,
    /// the L2, or the control region. The static reachability pass of the
    /// sharded cycle engine builds on this bit: an instruction stream is
    /// *local-only* while every reachable uop has `local_only` set.
    pub local_only: bool,
    /// Eligible for the cycle engine's elided run step: local-only,
    /// no FPU/divider structural hazard, and a single-cycle result, so
    /// issuing it can neither stall nor leave a latency shadow that later
    /// full-path bookkeeping would have to see.
    pub elide_ok: bool,
}

impl UopMeta {
    /// Computes the static metadata of one decoded instruction under the
    /// given latency model.
    pub fn of(inst: &Inst, latency: &LatencyModel) -> Self {
        let class = InstClass::of(inst);
        let mut srcs = [0u8; 3];
        for (slot, src) in srcs.iter_mut().zip(inst.srcs()) {
            *slot = src.index() as u8;
        }
        let (ea_base, ea_no_offset, ea_offset) = match *inst {
            Inst::Load { rs1, offset, post_inc, .. } | Inst::Store { rs1, offset, post_inc, .. } => {
                (rs1.index() as u8, post_inc, offset)
            }
            Inst::LrW { rs1, .. } | Inst::ScW { rs1, .. } | Inst::Amo { rs1, .. } => {
                (rs1.index() as u8, true, 0)
            }
            _ => (NO_REG, true, 0),
        };
        let is_mem = inst.is_mem();
        let uses_fpu =
            matches!(class, InstClass::Fp | InstClass::FpDivSqrt | InstClass::Simd | InstClass::Dotp);
        let result_lat = u64::from(latency.result_latency(class));
        Self {
            srcs,
            dst: inst.dst().map_or(NO_REG, |r| r.index() as u8),
            post_inc: inst.post_inc_dst().map_or(NO_REG, |r| r.index() as u8),
            ea_base,
            ea_no_offset,
            ea_offset,
            result_lat,
            class,
            uses_fpu,
            is_mem,
            mem: MemOp::of(inst),
            is_load: matches!(inst, Inst::Load { .. }),
            is_amo: matches!(class, InstClass::Amo),
            is_div_sqrt: matches!(class, InstClass::FpDivSqrt),
            is_control_flow: inst.is_control_flow(),
            local_only: !is_mem,
            elide_ok: !is_mem && !uses_fpu && result_lat <= 1,
        }
    }
}

/// One fully lowered instruction: kernel pointer + operands + metadata.
pub struct LoweredUop<M> {
    /// The execution kernel, resolved once at lowering.
    pub exec: Kernel<M>,
    /// Dense operand record passed to the kernel.
    pub uop: Uop,
    /// Static timing metadata for issue loops.
    pub meta: UopMeta,
}

impl<M> Clone for LoweredUop<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for LoweredUop<M> {}

impl<M> std::fmt::Debug for LoweredUop<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoweredUop").field("uop", &self.uop).field("meta", &self.meta).finish()
    }
}

/// A fully lowered program: the micro-op table all harts of one driver
/// share. Slots that did not decode stay `None` and trap when reached,
/// exactly like [`Program::fetch`].
pub struct UopProgram<M> {
    entry: u32,
    text_base: u32,
    /// The latency model the table was lowered under (timing metadata is
    /// baked into every [`UopMeta`]). Drivers that share one table across
    /// many runs compare against this to decide whether a re-lower is
    /// needed — see [`UopProgram::latency_model`].
    latency: LatencyModel,
    code: Vec<Option<LoweredUop<M>>>,
}

impl<M> std::fmt::Debug for UopProgram<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UopProgram")
            .field("entry", &self.entry)
            .field("text_base", &self.text_base)
            .field("len", &self.code.len())
            .finish()
    }
}

impl<M: Memory> UopProgram<M> {
    /// Lowers every translated instruction of `program` under the given
    /// latency model. Linear in the text size; done once per driver.
    pub fn lower(program: &Program, latency: &LatencyModel) -> Self {
        let code = (0..program.len())
            .map(|i| {
                let pc = program.text_base().wrapping_add(4 * i as u32);
                program.fetch(pc).map(|inst| {
                    let (exec, uop) = lower::<M>(&inst);
                    LoweredUop { exec, uop, meta: UopMeta::of(&inst, latency) }
                })
            })
            .collect();
        Self { entry: program.entry(), text_base: program.text_base(), latency: latency.clone(), code }
    }

    /// The program entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The latency model the table was lowered under.
    ///
    /// A lowered table is an immutable artifact; a driver holding a shared
    /// table (e.g. one `Arc`'d across a batch of jobs) reuses it iff its
    /// run configuration's latency model equals this one, and re-lowers
    /// privately otherwise.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Fetches the lowered instruction at `pc` (`None` = illegal fetch).
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<&LoweredUop<M>> {
        if pc & 3 != 0 {
            return None;
        }
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        self.code.get(idx).and_then(Option::as_ref)
    }
}

// The lowered table is immutable after construction and holds only plain
// function pointers and POD operand/metadata records, so one table can be
// shared by simulation domains running on different host threads (the
// epoch-sharded cycle engine relies on this). The assertion below turns
// any future introduction of shared mutable state into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<UopProgram<crate::mem::DenseMemory>>();
};

// --- Kernels -----------------------------------------------------------
//
// Each operation variant gets a module holding its two kernels, both
// generated from one semantic body so they cannot drift apart:
//
// - `lane`: one hart, the [`Kernel`] the block loop and the cycle engine
//   call. It replicates the corresponding `Cpu::execute` arm through the
//   shared operand-level helpers, and retires the instruction.
// - `batch`: the same uop on every lane of a converged SPMD group (a
//   [`BatchKernel`]), one loop over the lanes with no per-lane call. It
//   advances neither the PC nor `retired`: the group driver commits both
//   once per block, after every uop of the block ran on every lane.
//
// Operations a group never runs uop-major (CSRs, atomics, `lr`/`sc`,
// `ecall`, `ebreak`, `wfi`) keep a plain `lane` function. The constant
// op/format arguments constant-fold after inlining, leaving straight-line
// code behind every pointer.

/// The lanes of one converged SPMD group as a [`BatchKernel`] sees them:
/// each lane's hart and memory view, in group order.
pub(crate) struct Batch<'g, M> {
    pub(crate) cpus: Vec<&'g mut Cpu>,
    pub(crate) mems: Vec<&'g mut M>,
    /// The running block's stores, oldest first: what rolling the block
    /// back writes back.
    pub(crate) undo: Vec<Undo>,
    /// Binary16 uops run eight lanes per AVX2 + F16C instruction; set only
    /// where `terasim_softfloat::lanes::available()` holds.
    pub(crate) simd: bool,
}

/// Whether this host runs [`Batch`]'s eight-lane binary16 path.
pub(crate) fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return terasim_softfloat::lanes::available();
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// One store a batch kernel made: the lane, where, and the bytes it
/// overwrote.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Undo {
    pub(crate) lane: u32,
    pub(crate) addr: u32,
    pub(crate) size: u32,
    pub(crate) old: u32,
}

/// A batch kernel stopped before its uop's effect on some lane: that
/// lane's access would fail or reach a device register ([`Memory::peek`]
/// said `None`). The lanes before it completed the uop; the driver rolls
/// the whole block back.
#[derive(Debug)]
pub(crate) struct Abort;

/// A lane-batched kernel: the uop at `pc` on every lane of a [`Batch`].
pub(crate) type BatchKernel<M> = fn(&mut Batch<'_, M>, Uop, u32) -> Result<(), Abort>;

/// Kernels of the uops whose only effect is `rd = $value`, evaluated on
/// the lane's registers.
macro_rules! reg_kernels {
    ($($name:ident: |$cpu:ident, $u:ident| $value:expr;)+) => {$(
        mod $name {
            use super::*;

            pub(super) fn lane<M: Memory>($cpu: &mut Cpu, $u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
                let v = $value;
                $cpu.set_reg_raw($u.rd, v);
                $cpu.retire_next();
                Ok(Outcome::Continue)
            }

            pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, $u: Uop, _pc: u32) -> Result<(), Abort> {
                for $cpu in lanes.cpus.iter_mut() {
                    let v = $value;
                    $cpu.set_reg_raw($u.rd, v);
                }
                Ok(())
            }
        }
    )+};
}

reg_kernels! {
    k_lui: |cpu, u| u.imm as u32;
}

mod k_auipc {
    use super::*;

    pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
        cpu.set_reg_raw(u.rd, cpu.pc().wrapping_add(u.imm as u32));
        cpu.retire_next();
        Ok(Outcome::Continue)
    }

    pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, pc: u32) -> Result<(), Abort> {
        for cpu in lanes.cpus.iter_mut() {
            cpu.set_reg_raw(u.rd, pc.wrapping_add(u.imm as u32));
        }
        Ok(())
    }
}

mod k_jal {
    use super::*;

    pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
        let pc = cpu.pc();
        cpu.set_reg_raw(u.rd, pc.wrapping_add(4));
        cpu.retire_jump(pc.wrapping_add(u.imm as u32));
        Ok(Outcome::Continue)
    }

    pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, pc: u32) -> Result<(), Abort> {
        for cpu in lanes.cpus.iter_mut() {
            cpu.set_reg_raw(u.rd, pc.wrapping_add(4));
            cpu.pc = pc.wrapping_add(u.imm as u32);
        }
        Ok(())
    }
}

mod k_jalr {
    use super::*;

    pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
        let target = cpu.reg_raw(u.rs1).wrapping_add(u.imm as u32) & !1;
        cpu.set_reg_raw(u.rd, cpu.pc().wrapping_add(4));
        cpu.retire_jump(target);
        Ok(Outcome::Continue)
    }

    pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, pc: u32) -> Result<(), Abort> {
        for cpu in lanes.cpus.iter_mut() {
            let target = cpu.reg_raw(u.rs1).wrapping_add(u.imm as u32) & !1;
            cpu.set_reg_raw(u.rd, pc.wrapping_add(4));
            cpu.pc = target;
        }
        Ok(())
    }
}

macro_rules! branch_kernels {
    ($($name:ident: |$a:ident, $b:ident| $taken:expr;)+) => {$(
        mod $name {
            use super::*;

            pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
                let ($a, $b) = (cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
                if $taken {
                    cpu.retire_jump(cpu.pc().wrapping_add(u.imm as u32));
                } else {
                    cpu.retire_next();
                }
                Ok(Outcome::Continue)
            }

            pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, pc: u32) -> Result<(), Abort> {
                for cpu in lanes.cpus.iter_mut() {
                    let ($a, $b) = (cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
                    cpu.pc = pc.wrapping_add(if $taken { u.imm as u32 } else { 4 });
                }
                Ok(())
            }
        }
    )+};
}

branch_kernels! {
    k_beq: |a, b| a == b;
    k_bne: |a, b| a != b;
    k_blt: |a, b| (a as i32) < (b as i32);
    k_bge: |a, b| (a as i32) >= (b as i32);
    k_bltu: |a, b| a < b;
    k_bgeu: |a, b| a >= b;
}

/// Loads: the effective address is `rs1 + imm`, or `rs1` with `rs1 +=
/// imm` afterwards (post-increment). The batch kernel reads through
/// [`Memory::peek`], which never faults or reaches a device register.
macro_rules! load_kernels {
    ($($plain:ident / $post:ident: $size:expr, |$raw:ident| $cvt:expr;)+) => {$(
        load_kernels!(@one $plain, false, $size, |$raw| $cvt);
        load_kernels!(@one $post, true, $size, |$raw| $cvt);
    )+};
    (@one $name:ident, $post:expr, $size:expr, |$raw:ident| $cvt:expr) => {
        mod $name {
            use super::*;

            pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
                let base = cpu.reg_raw(u.rs1);
                let addr = if $post { base } else { base.wrapping_add(u.imm as u32) };
                let $raw = mem.load(addr, $size).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
                cpu.set_reg_raw(u.rd, $cvt);
                if $post {
                    cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
                }
                cpu.retire_next();
                Ok(Outcome::Continue)
            }

            pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, _pc: u32) -> Result<(), Abort> {
                for (cpu, mem) in lanes.cpus.iter_mut().zip(&lanes.mems) {
                    let base = cpu.reg_raw(u.rs1);
                    let addr = if $post { base } else { base.wrapping_add(u.imm as u32) };
                    let $raw = mem.peek(addr, $size).ok_or(Abort)?;
                    cpu.set_reg_raw(u.rd, $cvt);
                    if $post {
                        cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
                    }
                }
                Ok(())
            }
        }
    };
}

load_kernels! {
    k_lb / k_lb_post: 1, |raw| raw as u8 as i8 as i32 as u32;
    k_lh / k_lh_post: 2, |raw| raw as u16 as i16 as i32 as u32;
    k_lw / k_lw_post: 4, |raw| raw;
    k_lbu / k_lbu_post: 1, |raw| raw;
    k_lhu / k_lhu_post: 2, |raw| raw;
}

/// Stores, addressed like loads. The batch kernel peeks the bytes it is
/// about to overwrite and logs them in [`Batch::undo`] before storing.
macro_rules! store_kernels {
    ($($plain:ident / $post:ident: $size:expr;)+) => {$(
        store_kernels!(@one $plain, false, $size);
        store_kernels!(@one $post, true, $size);
    )+};
    (@one $name:ident, $post:expr, $size:expr) => {
        mod $name {
            use super::*;

            pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
                let base = cpu.reg_raw(u.rs1);
                let addr = if $post { base } else { base.wrapping_add(u.imm as u32) };
                mem.store(addr, $size, cpu.reg_raw(u.rs2)).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
                if $post {
                    cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
                }
                cpu.retire_next();
                Ok(Outcome::Continue)
            }

            pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, _pc: u32) -> Result<(), Abort> {
                let Batch { cpus, mems, undo, .. } = lanes;
                for (lane, (cpu, mem)) in (0..).zip(cpus.iter_mut().zip(mems.iter_mut())) {
                    let base = cpu.reg_raw(u.rs1);
                    let addr = if $post { base } else { base.wrapping_add(u.imm as u32) };
                    let old = mem.peek(addr, $size).ok_or(Abort)?;
                    undo.push(Undo { lane, addr, size: $size, old });
                    let stored = mem.store(addr, $size, cpu.reg_raw(u.rs2));
                    debug_assert!(stored.is_ok(), "a store to a peeked word cannot fail");
                    if $post {
                        cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
                    }
                }
                Ok(())
            }
        }
    };
}

store_kernels! {
    k_sb / k_sb_post: 1;
    k_sh / k_sh_post: 2;
    k_sw / k_sw_post: 4;
}

macro_rules! alu_kernels {
    ($($imm:ident / $reg:ident: $op:expr;)+) => {
        reg_kernels! {$(
            $imm: |cpu, u| alu($op, cpu.reg_raw(u.rs1), u.imm as u32);
            $reg: |cpu, u| alu($op, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

alu_kernels! {
    k_addi / k_add: AluOp::Add;
    k_subi / k_sub: AluOp::Sub;
    k_slli / k_sll: AluOp::Sll;
    k_slti / k_slt: AluOp::Slt;
    k_sltiu / k_sltu: AluOp::Sltu;
    k_xori / k_xor: AluOp::Xor;
    k_srli / k_srl: AluOp::Srl;
    k_srai / k_sra: AluOp::Sra;
    k_ori / k_or: AluOp::Or;
    k_andi / k_and: AluOp::And;
}

macro_rules! muldiv_kernels {
    ($($name:ident: $op:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| muldiv($op, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

muldiv_kernels! {
    k_mul: MulDivOp::Mul;
    k_mulh: MulDivOp::Mulh;
    k_mulhsu: MulDivOp::Mulhsu;
    k_mulhu: MulDivOp::Mulhu;
    k_div: MulDivOp::Div;
    k_divu: MulDivOp::Divu;
    k_rem: MulDivOp::Rem;
    k_remu: MulDivOp::Remu;
}

fn k_lr_w<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
    let addr = cpu.reg_raw(u.rs1);
    let value = mem.load(addr, 4).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
    cpu.reservation = Some(addr);
    cpu.set_reg_raw(u.rd, value);
    cpu.retire_next();
    Ok(Outcome::Continue)
}

fn k_sc_w<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
    let addr = cpu.reg_raw(u.rs1);
    if cpu.reservation == Some(addr) {
        mem.store(addr, 4, cpu.reg_raw(u.rs2)).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
        cpu.set_reg_raw(u.rd, 0);
    } else {
        cpu.set_reg_raw(u.rd, 1);
    }
    cpu.reservation = None;
    cpu.retire_next();
    Ok(Outcome::Continue)
}

macro_rules! amo_kernels {
    ($($name:ident: $op:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
            let old = mem
                .amo($op, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2))
                .map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
            cpu.set_reg_raw(u.rd, old);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

amo_kernels! {
    k_amoswap: AmoOp::Swap;
    k_amoadd: AmoOp::Add;
    k_amoxor: AmoOp::Xor;
    k_amoand: AmoOp::And;
    k_amoor: AmoOp::Or;
    k_amomin: AmoOp::Min;
    k_amomax: AmoOp::Max;
    k_amominu: AmoOp::Minu;
    k_amomaxu: AmoOp::Maxu;
}

macro_rules! csr_kernels {
    ($($name:ident: $op:expr, $imm_form:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let addr = u.imm as u16;
            let old = cpu.read_csr(addr);
            cpu.set_reg_raw(u.rd, old);
            // Operand read *after* the rd write, matching the seed order.
            let operand = if $imm_form { u32::from(u.rs1) } else { cpu.reg_raw(u.rs1) };
            let write_needed = match $op {
                CsrOp::Rw => true,
                _ => u.rs1 != 0,
            };
            if write_needed {
                let new = match $op {
                    CsrOp::Rw => operand,
                    CsrOp::Rs => old | operand,
                    CsrOp::Rc => old & !operand,
                };
                cpu.write_csr(addr, new);
            }
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

csr_kernels! {
    k_csrrw: CsrOp::Rw, false;
    k_csrrs: CsrOp::Rs, false;
    k_csrrc: CsrOp::Rc, false;
    k_csrrwi: CsrOp::Rw, true;
    k_csrrsi: CsrOp::Rs, true;
    k_csrrci: CsrOp::Rc, true;
}

macro_rules! fp_arith_kernels {
    ($($name:ident: $op:expr, $fmt:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| fp_arith($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

fp_arith_kernels! {
    k_fsub_h: FpOp::Sub, FpFmt::H;
    k_fdiv_h: FpOp::Div, FpFmt::H;
    k_fmin_h: FpOp::Min, FpFmt::H;
    k_fmax_h: FpOp::Max, FpFmt::H;
    k_fsgnj_h: FpOp::SgnJ, FpFmt::H;
    k_fsgnjn_h: FpOp::SgnJN, FpFmt::H;
    k_fsgnjx_h: FpOp::SgnJX, FpFmt::H;
    k_fadd_s: FpOp::Add, FpFmt::S;
    k_fsub_s: FpOp::Sub, FpFmt::S;
    k_fmul_s: FpOp::Mul, FpFmt::S;
    k_fdiv_s: FpOp::Div, FpFmt::S;
    k_fmin_s: FpOp::Min, FpFmt::S;
    k_fmax_s: FpOp::Max, FpFmt::S;
    k_fsgnj_s: FpOp::SgnJ, FpFmt::S;
    k_fsgnjn_s: FpOp::SgnJN, FpFmt::S;
    k_fsgnjx_s: FpOp::SgnJX, FpFmt::S;
}

macro_rules! fp_un_kernels {
    ($($name:ident: $op:expr, $fmt:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| fp_un($op, $fmt, cpu.reg_raw(u.rs1));
        )+}
    };
}

fp_un_kernels! {
    k_fsqrt_h: FpUnOp::Sqrt, FpFmt::H;
    k_fsqrt_s: FpUnOp::Sqrt, FpFmt::S;
    k_fcvt_w_h: FpUnOp::CvtWFromFp, FpFmt::H;
    k_fcvt_w_s: FpUnOp::CvtWFromFp, FpFmt::S;
    k_fcvt_h_w: FpUnOp::CvtFpFromW, FpFmt::H;
    k_fcvt_s_w: FpUnOp::CvtFpFromW, FpFmt::S;
    k_fcvt_s_h: FpUnOp::CvtSFromH, FpFmt::H;
    k_fcvt_h_s: FpUnOp::CvtHFromS, FpFmt::H;
}

macro_rules! fp_fma_kernels {
    ($($name:ident: $op:expr, $fmt:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| fp_fma($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2), cpu.reg_raw(u.rs3));
        )+}
    };
}

fp_fma_kernels! {
    k_fmsub_h: FmaOp::Msub, FpFmt::H;
    k_fnmadd_h: FmaOp::Nmadd, FpFmt::H;
    k_fmadd_s: FmaOp::Madd, FpFmt::S;
    k_fmsub_s: FmaOp::Msub, FpFmt::S;
    k_fnmadd_s: FmaOp::Nmadd, FpFmt::S;
    k_fnmsub_s: FmaOp::Nmsub, FpFmt::S;
}

macro_rules! fp_cmp_kernels {
    ($($name:ident: $op:expr, $fmt:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| fp_cmp($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

fp_cmp_kernels! {
    k_feq_h: FpCmpOp::Eq, FpFmt::H;
    k_flt_h: FpCmpOp::Lt, FpFmt::H;
    k_fle_h: FpCmpOp::Le, FpFmt::H;
    k_feq_s: FpCmpOp::Eq, FpFmt::S;
    k_flt_s: FpCmpOp::Lt, FpFmt::S;
    k_fle_s: FpCmpOp::Le, FpFmt::S;
}

macro_rules! vf_kernels {
    ($($name:ident: $op:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| vf($op, cpu.reg_raw(u.rd), cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

vf_kernels! {
    k_vfsub_h: VfOp::SubH;
    k_vfmul_h: VfOp::MulH;
    k_vfmac_h: VfOp::MacH;
    k_vfdotpex_s_h: VfOp::DotpExSH;
    k_vfndotpex_s_h: VfOp::NDotpExSH;
    k_vfdotpex_h_b: VfOp::DotpExHB;
    k_vfndotpex_h_b: VfOp::NDotpExHB;
    k_vfcpka_h_s: VfOp::CpkAHS;
    k_vfcvt_h_b_lo: VfOp::CvtHBLo;
    k_vfcvt_h_b_hi: VfOp::CvtHBHi;
    k_vfcvt_b_h: VfOp::CvtBH;
    k_pv_swap_h: VfOp::SwapH;
    k_pv_swap_b: VfOp::SwapB;
    k_pv_cmac_b: VfOp::CmacB;
    k_pv_cmac_c_b: VfOp::CmacConjB;
}

macro_rules! pv_kernels {
    ($($name:ident: $op:expr;)+) => {
        reg_kernels! {$(
            $name: |cpu, u| pv($op, cpu.reg_raw(u.rd), cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
        )+}
    };
}

pv_kernels! {
    k_pv_add_h: PvOp::AddH;
    k_pv_add_b: PvOp::AddB;
    k_pv_sub_h: PvOp::SubH;
    k_pv_sub_b: PvOp::SubB;
    k_p_mac: PvOp::Mac;
    k_p_msu: PvOp::Msu;
    k_pv_dotsp_h: PvOp::DotspH;
    k_pv_sdotsp_h: PvOp::SdotspH;
}

/// Whether the binary16 value in a register word's low half is a NaN.
fn nan_h(w: u32) -> bool {
    w as u16 & 0x7fff > 0x7c00
}

/// Whether either binary16 half of a register word is a NaN.
fn nan_h2(w: u32) -> bool {
    nan_h(w) || nan_h(w >> 16)
}

/// The batch body of a binary16 uop: `rd = lane(srcs)` on every lane.
///
/// With [`Batch::simd`] the lanes go eight at a time through `simd` (the
/// [`h8`] op of the uop, on the same source registers), and every lane
/// whose result word `is_nan` is recomputed through `lane`, the uop's own
/// per-lane semantics: which NaN a host operation returns depends on
/// operand order in the compiled code, so only the per-lane kernel's
/// compiled code gives the per-lane kernel's NaN bits. Without SIMD every
/// lane runs `lane`.
#[inline(always)]
fn batch_fp16<M, const N: usize>(
    lanes: &mut Batch<'_, M>,
    rd: u8,
    srcs: [u8; N],
    simd: unsafe fn(&[&mut Cpu], [u8; N]) -> [u32; 8],
    lane: impl Fn([u32; N]) -> u32,
    is_nan: fn(u32) -> bool,
) {
    let value = |cpu: &Cpu| lane(srcs.map(|r| cpu.reg_raw(r)));
    if !lanes.simd {
        for cpu in lanes.cpus.iter_mut() {
            let v = value(cpu);
            cpu.set_reg_raw(rd, v);
        }
        return;
    }
    for chunk in lanes.cpus.chunks_mut(8) {
        // SAFETY: `Batch::simd` is set only where `lanes::available()`
        // returned true: the host runs AVX2 and F16C.
        let out = unsafe { simd(chunk, srcs) };
        // A lane's registers change only here, so its NaN recompute still
        // reads its sources.
        for (cpu, &v) in chunk.iter_mut().zip(&out) {
            let v = if is_nan(v) { value(cpu) } else { v };
            cpu.set_reg_raw(rd, v);
        }
    }
}

/// Kernels of the binary16 uops whose batch kernel runs through
/// [`batch_fp16`] and the [`h8`] op of the same name.
macro_rules! fp16_kernels {
    ($($name:ident: |$($x:ident = $src:ident),+| $value:expr, $is_nan:expr;)+) => {$(
        mod $name {
            use super::*;

            pub(super) fn lane<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
                let [$($x),+] = [$(cpu.reg_raw(u.$src)),+];
                cpu.set_reg_raw(u.rd, $value);
                cpu.retire_next();
                Ok(Outcome::Continue)
            }

            pub(super) fn batch<M: Memory>(lanes: &mut Batch<'_, M>, u: Uop, _pc: u32) -> Result<(), Abort> {
                batch_fp16(lanes, u.rd, [$(u.$src),+], h8::$name, |[$($x),+]| $value, $is_nan);
                Ok(())
            }
        }
    )+};
}

fp16_kernels! {
    k_fadd_h: |a = rs1, b = rs2| fp_arith(FpOp::Add, FpFmt::H, a, b), nan_h;
    k_fmul_h: |a = rs1, b = rs2| fp_arith(FpOp::Mul, FpFmt::H, a, b), nan_h;
    k_fmadd_h: |a = rs1, b = rs2, c = rs3| fp_fma(FmaOp::Madd, FpFmt::H, a, b, c), nan_h;
    k_fnmsub_h: |a = rs1, b = rs2, c = rs3| fp_fma(FmaOp::Nmsub, FpFmt::H, a, b, c), nan_h;
    k_vfadd_h: |acc = rd, a = rs1, b = rs2| vf(VfOp::AddH, acc, a, b), nan_h2;
    k_vfcdotpex_s_h: |acc = rd, a = rs1, b = rs2| vf(VfOp::CdotpExSH, acc, a, b), nan_h2;
    k_vfcdotpex_c_s_h: |acc = rd, a = rs1, b = rs2| vf(VfOp::CdotpExCSH, acc, a, b), nan_h2;
}

/// The eight-lane ops of [`batch_fp16`]: up to eight lanes' source
/// registers through `terasim_softfloat::lanes`, in the operand order of
/// the kernels of the same name (lanes past the chunk compute on zeros).
/// Scalar results come back sign-extended like `box_h`, pairs packed
/// `[lo, hi]`. Non-NaN lanes equal the per-lane kernels bit for bit (the
/// lanes module's contract); NaN lanes are recomputed by [`batch_fp16`].
///
/// Every op needs AVX2 and F16C: call it only once
/// `terasim_softfloat::lanes::available()` has returned true.
#[cfg(target_arch = "x86_64")]
mod h8 {
    use terasim_softfloat::lanes::{self as l8, H8};

    use crate::cpu::Cpu;

    /// The low binary16 halves of register `r`.
    #[target_feature(enable = "avx2,f16c")]
    fn lo(chunk: &[&mut Cpu], r: u8) -> H8 {
        let mut h = [0; 8];
        for (h, cpu) in h.iter_mut().zip(chunk) {
            *h = cpu.reg_raw(r) as u16;
        }
        H8::from_bits(h)
    }

    /// Register `r` as a binary16 pair `[lo, hi]`.
    #[target_feature(enable = "avx2,f16c")]
    fn pair(chunk: &[&mut Cpu], r: u8) -> [H8; 2] {
        let (mut lo, mut hi) = ([0; 8], [0; 8]);
        for ((lo, hi), cpu) in lo.iter_mut().zip(&mut hi).zip(chunk) {
            let w = cpu.reg_raw(r);
            (*lo, *hi) = (w as u16, (w >> 16) as u16);
        }
        [H8::from_bits(lo), H8::from_bits(hi)]
    }

    fn boxed(h: H8) -> [u32; 8] {
        h.to_bits().map(|x| x as i16 as i32 as u32)
    }

    fn packed([lo, hi]: [H8; 2]) -> [u32; 8] {
        let (lo, hi) = (lo.to_bits(), hi.to_bits());
        std::array::from_fn(|l| u32::from(lo[l]) | (u32::from(hi[l]) << 16))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_fadd_h(c: &[&mut Cpu], [a, b]: [u8; 2]) -> [u32; 8] {
        boxed(l8::fadd_h(lo(c, a), lo(c, b)))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_fmul_h(c: &[&mut Cpu], [a, b]: [u8; 2]) -> [u32; 8] {
        boxed(l8::fmul_h(lo(c, a), lo(c, b)))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_fmadd_h(c: &[&mut Cpu], [a, b, s]: [u8; 3]) -> [u32; 8] {
        boxed(l8::fmadd_h(lo(c, a), lo(c, b), lo(c, s)))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_fnmsub_h(c: &[&mut Cpu], [a, b, s]: [u8; 3]) -> [u32; 8] {
        boxed(l8::fnmsub_h(lo(c, a), lo(c, b), lo(c, s)))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_vfadd_h(c: &[&mut Cpu], [_, a, b]: [u8; 3]) -> [u32; 8] {
        let (a, b) = (pair(c, a), pair(c, b));
        packed([l8::fadd_h(a[0], b[0]), l8::fadd_h(a[1], b[1])])
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_vfcdotpex_s_h(c: &[&mut Cpu], [acc, a, b]: [u8; 3]) -> [u32; 8] {
        packed(l8::vfcdotpex_s_h(pair(c, acc), pair(c, a), pair(c, b)))
    }

    #[target_feature(enable = "avx2,f16c")]
    pub(super) fn k_vfcdotpex_c_s_h(c: &[&mut Cpu], [acc, a, b]: [u8; 3]) -> [u32; 8] {
        packed(l8::vfcdotpex_conj_s_h(pair(c, acc), pair(c, a), pair(c, b)))
    }
}

/// Off x86-64 there are no eight-lane ops and [`Batch::simd`] is never
/// set, so none of these is ever called.
#[cfg(not(target_arch = "x86_64"))]
mod h8 {
    use crate::cpu::Cpu;

    macro_rules! absent {
        ($($name:ident: $n:literal;)+) => {$(
            pub(super) unsafe fn $name(_: &[&mut Cpu], _: [u8; $n]) -> [u32; 8] {
                unreachable!("eight-lane binary16 ops exist on x86-64 only")
            }
        )+};
    }

    absent! {
        k_fadd_h: 2;
        k_fmul_h: 2;
        k_fmadd_h: 3;
        k_fnmsub_h: 3;
        k_vfadd_h: 3;
        k_vfcdotpex_s_h: 3;
        k_vfcdotpex_c_s_h: 3;
    }
}

mod k_fence {
    use super::*;

    pub(super) fn lane<M: Memory>(cpu: &mut Cpu, _u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
        cpu.retire_next();
        Ok(Outcome::Continue)
    }

    pub(super) fn batch<M: Memory>(_lanes: &mut Batch<'_, M>, _u: Uop, _pc: u32) -> Result<(), Abort> {
        Ok(())
    }
}

fn k_ecall<M: Memory>(cpu: &mut Cpu, _u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    cpu.retire_next();
    Ok(Outcome::Exit { code: cpu.reg(Reg::A0) })
}

fn k_ebreak<M: Memory>(cpu: &mut Cpu, _u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    Err(Trap::Breakpoint { pc: cpu.pc() })
}

fn k_wfi<M: Memory>(cpu: &mut Cpu, _u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    cpu.retire_next();
    Ok(Outcome::Wfi)
}

// --- Lowering ----------------------------------------------------------

/// Lowers one decoded instruction to its kernel and operand record.
///
/// The returned kernel, applied to the returned [`Uop`], is bit-identical
/// to `Cpu::execute(inst, ..)` in every observable effect (registers, PC,
/// retired count, memory, reservation, outcome, traps).
pub fn lower<M: Memory>(inst: &Inst) -> (Kernel<M>, Uop) {
    let (exec, _, uop) = lower_uop::<M>(inst);
    (exec, uop)
}

/// [`lower`], plus the uop's [`BatchKernel`] when an SPMD group may run it
/// uop-major (everything but CSRs, atomics, `lr`/`sc`, `ecall`, `ebreak`
/// and `wfi`).
pub(crate) fn lower_uop<M: Memory>(inst: &Inst) -> (Kernel<M>, Option<BatchKernel<M>>, Uop) {
    macro_rules! both {
        ($k:ident) => {
            ($k::lane::<M> as Kernel<M>, Some($k::batch::<M> as BatchKernel<M>))
        };
    }
    macro_rules! lane {
        ($k:ident) => {
            ($k::<M> as Kernel<M>, None)
        };
    }
    let mut u = Uop::new();
    let (exec, batch) = match *inst {
        Inst::Lui { rd, imm } => {
            u.rd = rd.index() as u8;
            u.imm = imm;
            both!(k_lui)
        }
        Inst::Auipc { rd, imm } => {
            u.rd = rd.index() as u8;
            u.imm = imm;
            both!(k_auipc)
        }
        Inst::Jal { rd, offset } => {
            u.rd = rd.index() as u8;
            u.imm = offset;
            both!(k_jal)
        }
        Inst::Jalr { rd, rs1, offset } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = offset;
            both!(k_jalr)
        }
        Inst::Branch { op, rs1, rs2, offset } => {
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.imm = offset;
            match op {
                BranchOp::Eq => both!(k_beq),
                BranchOp::Ne => both!(k_bne),
                BranchOp::Lt => both!(k_blt),
                BranchOp::Ge => both!(k_bge),
                BranchOp::Ltu => both!(k_bltu),
                BranchOp::Geu => both!(k_bgeu),
            }
        }
        Inst::Load { op, rd, rs1, offset, post_inc } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = offset;
            match (op, post_inc) {
                (LoadOp::Lb, false) => both!(k_lb),
                (LoadOp::Lh, false) => both!(k_lh),
                (LoadOp::Lw, false) => both!(k_lw),
                (LoadOp::Lbu, false) => both!(k_lbu),
                (LoadOp::Lhu, false) => both!(k_lhu),
                (LoadOp::Lb, true) => both!(k_lb_post),
                (LoadOp::Lh, true) => both!(k_lh_post),
                (LoadOp::Lw, true) => both!(k_lw_post),
                (LoadOp::Lbu, true) => both!(k_lbu_post),
                (LoadOp::Lhu, true) => both!(k_lhu_post),
            }
        }
        Inst::Store { op, rs1, rs2, offset, post_inc } => {
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.imm = offset;
            match (op, post_inc) {
                (StoreOp::Sb, false) => both!(k_sb),
                (StoreOp::Sh, false) => both!(k_sh),
                (StoreOp::Sw, false) => both!(k_sw),
                (StoreOp::Sb, true) => both!(k_sb_post),
                (StoreOp::Sh, true) => both!(k_sh_post),
                (StoreOp::Sw, true) => both!(k_sw_post),
            }
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = imm;
            match op {
                AluOp::Add => both!(k_addi),
                AluOp::Sub => both!(k_subi), // unreachable from decode; kept total
                AluOp::Sll => both!(k_slli),
                AluOp::Slt => both!(k_slti),
                AluOp::Sltu => both!(k_sltiu),
                AluOp::Xor => both!(k_xori),
                AluOp::Srl => both!(k_srli),
                AluOp::Sra => both!(k_srai),
                AluOp::Or => both!(k_ori),
                AluOp::And => both!(k_andi),
            }
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                AluOp::Add => both!(k_add),
                AluOp::Sub => both!(k_sub),
                AluOp::Sll => both!(k_sll),
                AluOp::Slt => both!(k_slt),
                AluOp::Sltu => both!(k_sltu),
                AluOp::Xor => both!(k_xor),
                AluOp::Srl => both!(k_srl),
                AluOp::Sra => both!(k_sra),
                AluOp::Or => both!(k_or),
                AluOp::And => both!(k_and),
            }
        }
        Inst::MulDiv { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                MulDivOp::Mul => both!(k_mul),
                MulDivOp::Mulh => both!(k_mulh),
                MulDivOp::Mulhsu => both!(k_mulhsu),
                MulDivOp::Mulhu => both!(k_mulhu),
                MulDivOp::Div => both!(k_div),
                MulDivOp::Divu => both!(k_divu),
                MulDivOp::Rem => both!(k_rem),
                MulDivOp::Remu => both!(k_remu),
            }
        }
        Inst::LrW { rd, rs1 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            lane!(k_lr_w)
        }
        Inst::ScW { rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            lane!(k_sc_w)
        }
        Inst::Amo { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                AmoOp::Swap => lane!(k_amoswap),
                AmoOp::Add => lane!(k_amoadd),
                AmoOp::Xor => lane!(k_amoxor),
                AmoOp::And => lane!(k_amoand),
                AmoOp::Or => lane!(k_amoor),
                AmoOp::Min => lane!(k_amomin),
                AmoOp::Max => lane!(k_amomax),
                AmoOp::Minu => lane!(k_amominu),
                AmoOp::Maxu => lane!(k_amomaxu),
            }
        }
        Inst::Csr { op, rd, src, csr } => {
            u.rd = rd.index() as u8;
            u.imm = i32::from(csr);
            match src {
                CsrSrc::Reg(r) => {
                    u.rs1 = r.index() as u8;
                    match op {
                        CsrOp::Rw => lane!(k_csrrw),
                        CsrOp::Rs => lane!(k_csrrs),
                        CsrOp::Rc => lane!(k_csrrc),
                    }
                }
                CsrSrc::Imm(i) => {
                    u.rs1 = i;
                    match op {
                        CsrOp::Rw => lane!(k_csrrwi),
                        CsrOp::Rs => lane!(k_csrrsi),
                        CsrOp::Rc => lane!(k_csrrci),
                    }
                }
            }
        }
        Inst::FpArith { op, fmt, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match (op, fmt) {
                (FpOp::Add, FpFmt::H) => both!(k_fadd_h),
                (FpOp::Sub, FpFmt::H) => both!(k_fsub_h),
                (FpOp::Mul, FpFmt::H) => both!(k_fmul_h),
                (FpOp::Div, FpFmt::H) => both!(k_fdiv_h),
                (FpOp::Min, FpFmt::H) => both!(k_fmin_h),
                (FpOp::Max, FpFmt::H) => both!(k_fmax_h),
                (FpOp::SgnJ, FpFmt::H) => both!(k_fsgnj_h),
                (FpOp::SgnJN, FpFmt::H) => both!(k_fsgnjn_h),
                (FpOp::SgnJX, FpFmt::H) => both!(k_fsgnjx_h),
                (FpOp::Add, FpFmt::S) => both!(k_fadd_s),
                (FpOp::Sub, FpFmt::S) => both!(k_fsub_s),
                (FpOp::Mul, FpFmt::S) => both!(k_fmul_s),
                (FpOp::Div, FpFmt::S) => both!(k_fdiv_s),
                (FpOp::Min, FpFmt::S) => both!(k_fmin_s),
                (FpOp::Max, FpFmt::S) => both!(k_fmax_s),
                (FpOp::SgnJ, FpFmt::S) => both!(k_fsgnj_s),
                (FpOp::SgnJN, FpFmt::S) => both!(k_fsgnjn_s),
                (FpOp::SgnJX, FpFmt::S) => both!(k_fsgnjx_s),
            }
        }
        Inst::FpUn { op, fmt, rd, rs1 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            match (op, fmt) {
                (FpUnOp::Sqrt, FpFmt::H) => both!(k_fsqrt_h),
                (FpUnOp::Sqrt, FpFmt::S) => both!(k_fsqrt_s),
                (FpUnOp::CvtWFromFp, FpFmt::H) => both!(k_fcvt_w_h),
                (FpUnOp::CvtWFromFp, FpFmt::S) => both!(k_fcvt_w_s),
                (FpUnOp::CvtFpFromW, FpFmt::H) => both!(k_fcvt_h_w),
                (FpUnOp::CvtFpFromW, FpFmt::S) => both!(k_fcvt_s_w),
                (FpUnOp::CvtSFromH, _) => both!(k_fcvt_s_h),
                (FpUnOp::CvtHFromS, _) => both!(k_fcvt_h_s),
            }
        }
        Inst::FpFma { op, fmt, rd, rs1, rs2, rs3 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.rs3 = rs3.index() as u8;
            match (op, fmt) {
                (FmaOp::Madd, FpFmt::H) => both!(k_fmadd_h),
                (FmaOp::Msub, FpFmt::H) => both!(k_fmsub_h),
                (FmaOp::Nmadd, FpFmt::H) => both!(k_fnmadd_h),
                (FmaOp::Nmsub, FpFmt::H) => both!(k_fnmsub_h),
                (FmaOp::Madd, FpFmt::S) => both!(k_fmadd_s),
                (FmaOp::Msub, FpFmt::S) => both!(k_fmsub_s),
                (FmaOp::Nmadd, FpFmt::S) => both!(k_fnmadd_s),
                (FmaOp::Nmsub, FpFmt::S) => both!(k_fnmsub_s),
            }
        }
        Inst::FpCmp { op, fmt, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match (op, fmt) {
                (FpCmpOp::Eq, FpFmt::H) => both!(k_feq_h),
                (FpCmpOp::Lt, FpFmt::H) => both!(k_flt_h),
                (FpCmpOp::Le, FpFmt::H) => both!(k_fle_h),
                (FpCmpOp::Eq, FpFmt::S) => both!(k_feq_s),
                (FpCmpOp::Lt, FpFmt::S) => both!(k_flt_s),
                (FpCmpOp::Le, FpFmt::S) => both!(k_fle_s),
            }
        }
        Inst::Vf { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                VfOp::AddH => both!(k_vfadd_h),
                VfOp::SubH => both!(k_vfsub_h),
                VfOp::MulH => both!(k_vfmul_h),
                VfOp::MacH => both!(k_vfmac_h),
                VfOp::DotpExSH => both!(k_vfdotpex_s_h),
                VfOp::NDotpExSH => both!(k_vfndotpex_s_h),
                VfOp::CdotpExSH => both!(k_vfcdotpex_s_h),
                VfOp::CdotpExCSH => both!(k_vfcdotpex_c_s_h),
                VfOp::DotpExHB => both!(k_vfdotpex_h_b),
                VfOp::NDotpExHB => both!(k_vfndotpex_h_b),
                VfOp::CpkAHS => both!(k_vfcpka_h_s),
                VfOp::CvtHBLo => both!(k_vfcvt_h_b_lo),
                VfOp::CvtHBHi => both!(k_vfcvt_h_b_hi),
                VfOp::CvtBH => both!(k_vfcvt_b_h),
                VfOp::SwapH => both!(k_pv_swap_h),
                VfOp::SwapB => both!(k_pv_swap_b),
                VfOp::CmacB => both!(k_pv_cmac_b),
                VfOp::CmacConjB => both!(k_pv_cmac_c_b),
            }
        }
        Inst::Pv { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                PvOp::AddH => both!(k_pv_add_h),
                PvOp::AddB => both!(k_pv_add_b),
                PvOp::SubH => both!(k_pv_sub_h),
                PvOp::SubB => both!(k_pv_sub_b),
                PvOp::Mac => both!(k_p_mac),
                PvOp::Msu => both!(k_p_msu),
                PvOp::DotspH => both!(k_pv_dotsp_h),
                PvOp::SdotspH => both!(k_pv_sdotsp_h),
            }
        }
        Inst::Fence => both!(k_fence),
        Inst::Ecall => lane!(k_ecall),
        Inst::Ebreak => lane!(k_ebreak),
        Inst::Wfi => lane!(k_wfi),
    };
    (exec, batch, u)
}
#[cfg(test)]
mod tests {
    use terasim_riscv::{Assembler, Image, Segment};

    use super::*;
    use crate::mem::DenseMemory;

    /// Executes the same program through the seed interpreter and the
    /// lowered table, comparing full state after every instruction.
    fn lockstep(build: impl FnOnce(&mut Assembler)) {
        let mut a = Assembler::new(0x8000_0000);
        build(&mut a);
        a.ecall();
        let mut image = Image::new(0x8000_0000);
        image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
        let program = Program::translate(&image).unwrap();
        let table: UopProgram<DenseMemory> = UopProgram::lower(&program, &LatencyModel::default());

        let mut seed_cpu = Cpu::new(0);
        let mut uop_cpu = Cpu::new(0);
        seed_cpu.set_pc(program.entry());
        uop_cpu.set_pc(program.entry());
        let mut seed_mem = DenseMemory::new(0, 0x1000);
        let mut uop_mem = DenseMemory::new(0, 0x1000);

        for step in 0..10_000 {
            let seed_out = seed_cpu.step(&program, &mut seed_mem);
            let lu = table.fetch(uop_cpu.pc()).copied();
            let uop_out = match lu {
                Some(lu) => (lu.exec)(&mut uop_cpu, lu.uop, &mut uop_mem),
                None => Err(Trap::IllegalFetch { pc: uop_cpu.pc() }),
            };
            assert_eq!(seed_out, uop_out, "outcome diverged at step {step}");
            assert_eq!(seed_cpu.pc(), uop_cpu.pc(), "pc diverged at step {step}");
            assert_eq!(seed_cpu.retired(), uop_cpu.retired(), "retired diverged at step {step}");
            for r in 0..32u8 {
                assert_eq!(seed_cpu.reg_raw(r), uop_cpu.reg_raw(r), "x{r} diverged at step {step}");
            }
            if matches!(seed_out, Ok(Outcome::Exit { .. }) | Err(_)) {
                assert_eq!(seed_mem.read_bytes(0, 0x1000), uop_mem.read_bytes(0, 0x1000));
                return;
            }
        }
        panic!("program did not exit");
    }

    #[test]
    fn integer_and_memory_lockstep() {
        lockstep(|a| {
            a.li(Reg::T0, 6);
            a.li(Reg::T1, -7);
            a.mul(Reg::A0, Reg::T0, Reg::T1);
            a.sw(Reg::A0, 0x40, Reg::Zero);
            a.lw(Reg::A1, 0x40, Reg::Zero);
            a.p_sw(Reg::T0, 4, Reg::A2);
            a.p_lw(Reg::A3, 4, Reg::A4);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.amoadd_w(Reg::A5, Reg::T1, Reg::A2);
            a.csrr(Reg::A6, terasim_riscv::csr::MHARTID);
        });
    }

    // --- Batch kernels against their per-lane kernels --------------------

    /// Small deterministic xorshift64* generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// A binary16 pattern biased towards the encodings NaN handling,
        /// rounding and the lanes' early-outs key on.
        fn half(&mut self) -> u16 {
            let r = self.next();
            let (sign, bits) = ((r >> 16) as u16 & 0x8000, (r >> 32) as u16);
            sign | match r % 10 {
                0 => 0x7e00 | (bits & 0x01ff),     // qNaN, any payload
                1 => 0x7c00 | (bits % 0x01ff + 1), // sNaN, nonzero payload
                2 => 0x7c00,                       // Inf
                3 => bits & 0x03ff,                // subnormal or zero
                4 => 0,                            // zero
                5 => 0x7800 | (bits & 0x03ff),     // near the largest finite
                6 => 0x3c00 | (bits & 0x00ff),     // near one
                _ => bits & 0x7fff,
            }
        }

        /// A register word: binary16 sign-extended (as a result is boxed),
        /// binary16 under an arbitrary upper half, a binary16 pair, or
        /// anything.
        fn word(&mut self) -> u32 {
            match self.next() % 4 {
                0 => self.half() as i16 as i32 as u32,
                1 => u32::from(self.half()) | (self.next() as u32) << 16,
                2 => u32::from(self.half()) | u32::from(self.half()) << 16,
                _ => self.next() as u32,
            }
        }

        fn reg(&mut self) -> Reg {
            Reg::from_num(1 + (self.next() % 31) as u32)
        }
    }

    /// One instruction of every operation that has a batch kernel, with
    /// random registers (overlaps included) and immediates.
    fn batched_insts(rng: &mut Rng) -> Vec<Inst> {
        use terasim_riscv::{BranchOp as B, FmaOp as Fma, FpCmpOp as Cmp, FpOp as Op, FpUnOp as Un};
        let fmts = [FpFmt::H, FpFmt::S];
        let alu = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ];
        let vf = [
            VfOp::AddH,
            VfOp::SubH,
            VfOp::MulH,
            VfOp::MacH,
            VfOp::DotpExSH,
            VfOp::NDotpExSH,
            VfOp::CdotpExSH,
            VfOp::CdotpExCSH,
            VfOp::DotpExHB,
            VfOp::NDotpExHB,
            VfOp::CpkAHS,
            VfOp::CvtHBLo,
            VfOp::CvtHBHi,
            VfOp::CvtBH,
            VfOp::SwapH,
            VfOp::SwapB,
            VfOp::CmacB,
            VfOp::CmacConjB,
        ];
        let pv = [
            PvOp::AddH,
            PvOp::AddB,
            PvOp::SubH,
            PvOp::SubB,
            PvOp::Mac,
            PvOp::Msu,
            PvOp::DotspH,
            PvOp::SdotspH,
        ];
        let mul = [
            MulDivOp::Mul,
            MulDivOp::Mulh,
            MulDivOp::Mulhsu,
            MulDivOp::Mulhu,
            MulDivOp::Div,
            MulDivOp::Divu,
            MulDivOp::Rem,
            MulDivOp::Remu,
        ];
        let imm = |rng: &mut Rng| ((rng.next() as i32) << 20) >> 20;
        let mut insts = vec![
            Inst::Lui { rd: rng.reg(), imm: (rng.next() as i32) & !0xfff },
            Inst::Auipc { rd: rng.reg(), imm: (rng.next() as i32) & !0xfff },
            Inst::Jal { rd: rng.reg(), offset: imm(rng) & !1 },
            Inst::Jalr { rd: rng.reg(), rs1: rng.reg(), offset: imm(rng) },
            Inst::Fence,
        ];
        for op in [B::Eq, B::Ne, B::Lt, B::Ge, B::Ltu, B::Geu] {
            insts.push(Inst::Branch { op, rs1: rng.reg(), rs2: rng.reg(), offset: imm(rng) & !1 });
        }
        for post_inc in [false, true] {
            // Offsets keep every address inside the lane's memory (see
            // `check_batch`); a post-increment load whose `rd` is its base
            // is kept, it is where the write order shows.
            for op in [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu] {
                let offset = 4 * (rng.next() % 8) as i32;
                insts.push(Inst::Load { op, rd: rng.reg(), rs1: rng.reg(), offset, post_inc });
            }
            for op in [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw] {
                let offset = 4 * (rng.next() % 8) as i32;
                insts.push(Inst::Store { op, rs1: rng.reg(), rs2: rng.reg(), offset, post_inc });
            }
        }
        for op in alu {
            insts.push(Inst::OpImm { op, rd: rng.reg(), rs1: rng.reg(), imm: imm(rng) });
            insts.push(Inst::Op { op, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
        }
        for op in mul {
            insts.push(Inst::MulDiv { op, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
        }
        for fmt in fmts {
            for op in [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Min, Op::Max, Op::SgnJ, Op::SgnJN, Op::SgnJX] {
                insts.push(Inst::FpArith { op, fmt, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
            }
            for op in [Un::Sqrt, Un::CvtWFromFp, Un::CvtFpFromW, Un::CvtSFromH, Un::CvtHFromS] {
                insts.push(Inst::FpUn { op, fmt, rd: rng.reg(), rs1: rng.reg() });
            }
            for op in [Fma::Madd, Fma::Msub, Fma::Nmadd, Fma::Nmsub] {
                let (rd, rs1, rs2, rs3) = (rng.reg(), rng.reg(), rng.reg(), rng.reg());
                insts.push(Inst::FpFma { op, fmt, rd, rs1, rs2, rs3 });
            }
            for op in [Cmp::Eq, Cmp::Lt, Cmp::Le] {
                insts.push(Inst::FpCmp { op, fmt, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
            }
        }
        for op in vf {
            insts.push(Inst::Vf { op, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
        }
        for op in pv {
            insts.push(Inst::Pv { op, rd: rng.reg(), rs1: rng.reg(), rs2: rng.reg() });
        }
        insts
    }

    const PC: u32 = 0x8000_0100;

    /// Runs `inst` on `lanes` through its batch kernel and, on copies, each
    /// lane through its per-lane kernel; asserts equal registers, PC,
    /// `retired` and memory once the batch is committed as the group
    /// driver commits a block (`retired` + 1; PC to the fall-through
    /// unless the uop set it).
    fn check_batch(inst: Inst, lanes: &[(Cpu, DenseMemory)], simd: bool) {
        let (exec, batch, u) = lower_uop::<DenseMemory>(&inst);
        let batch = batch.unwrap_or_else(|| panic!("{inst} has no batch kernel"));
        let mut want = lanes.to_vec();
        for (cpu, mem) in &mut want {
            cpu.set_pc(PC);
            exec(cpu, u, mem).unwrap_or_else(|t| panic!("{inst}: {t}"));
        }
        let mut got = lanes.to_vec();
        let (cpus, mems) = got.iter_mut().map(|(c, m)| (c, m)).unzip();
        let mut b = Batch { cpus, mems, undo: Vec::new(), simd };
        for cpu in &mut b.cpus {
            cpu.set_pc(PC);
        }
        assert!(batch(&mut b, u, PC).is_ok(), "{inst}: batch kernel aborted");
        let flow = UopMeta::of(&inst, &LatencyModel::default()).is_control_flow;
        for cpu in &mut b.cpus {
            cpu.retired += 1;
            if !flow {
                cpu.pc = PC + 4;
            }
        }
        for (l, ((gc, gm), (wc, wm))) in got.iter().zip(&want).enumerate() {
            for r in 0..32u8 {
                let (g, w) = (gc.reg_raw(r), wc.reg_raw(r));
                assert_eq!(g, w, "{inst} (simd {simd}) lane {l}: x{r} {g:#010x} != per-lane {w:#010x}");
            }
            assert_eq!((gc.pc(), gc.retired()), (wc.pc(), wc.retired()), "{inst} lane {l}: pc, retired");
            assert_eq!(gm.read_bytes(0, 0x200), wm.read_bytes(0, 0x200), "{inst} lane {l}: memory");
        }
    }

    /// `n` lanes of random adversarial registers over random memory;
    /// `inst`'s address base (if any) points into the memory, aligned.
    fn random_lanes(rng: &mut Rng, inst: &Inst, n: usize) -> Vec<(Cpu, DenseMemory)> {
        (0..n)
            .map(|hart| {
                let mut cpu = Cpu::new(hart as u32);
                for r in 1..32 {
                    cpu.set_reg_raw(r, rng.word());
                }
                if let Inst::Load { rs1, .. } | Inst::Store { rs1, .. } = *inst {
                    cpu.set_reg(rs1, 4 * (rng.next() % 64) as u32);
                }
                let mut mem = DenseMemory::new(0, 0x200);
                let bytes: Vec<u8> = (0..0x200).map(|_| rng.next() as u8).collect();
                mem.write_bytes(0, &bytes);
                (cpu, mem)
            })
            .collect()
    }

    fn sweep(simd: bool) {
        let mut rng = Rng(0x5eed_0046);
        for round in 0..200 {
            for inst in batched_insts(&mut rng) {
                // Full chunks of eight, plus a short tail on odd rounds.
                let n = if round % 2 == 0 { 8 } else { 11 };
                let lanes = random_lanes(&mut rng, &inst, n);
                check_batch(inst, &lanes, simd);
            }
        }
    }

    #[test]
    fn batch_kernels_match_lane_kernels_scalar() {
        sweep(false);
    }

    #[test]
    fn batch_kernels_match_lane_kernels_simd() {
        if simd_available() {
            sweep(true);
        }
    }

    /// Every batched binary16 uop over every binary16 `a × b` pair, with
    /// seeded addends and accumulators, on the eight-lane path (or the
    /// scalar one where the host has no AVX2 + F16C).
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run with --ignored in release"]
    fn fp16_batch_kernels_exhaustive() {
        let (a, b, c, d) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3);
        let insts = [
            Inst::FpArith { op: FpOp::Add, fmt: FpFmt::H, rd: d, rs1: a, rs2: b },
            Inst::FpArith { op: FpOp::Mul, fmt: FpFmt::H, rd: d, rs1: a, rs2: b },
            Inst::FpFma { op: FmaOp::Madd, fmt: FpFmt::H, rd: d, rs1: a, rs2: b, rs3: c },
            Inst::FpFma { op: FmaOp::Nmsub, fmt: FpFmt::H, rd: d, rs1: a, rs2: b, rs3: c },
            Inst::Vf { op: VfOp::AddH, rd: d, rs1: a, rs2: b },
            Inst::Vf { op: VfOp::CdotpExSH, rd: d, rs1: a, rs2: b },
            Inst::Vf { op: VfOp::CdotpExCSH, rd: d, rs1: a, rs2: b },
        ];
        let kernels: Vec<_> = insts.iter().map(|i| lower_uop::<DenseMemory>(i)).collect();
        let simd = simd_available();
        let threads = std::thread::available_parallelism().map_or(1, usize::from).min(4);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (kernels, insts) = (&kernels, &insts);
                scope.spawn(move || {
                    let mut rng = Rng(0xfeed_0046 + t as u64);
                    let mut mem = DenseMemory::new(0, 0);
                    let (mut got, mut want) = (vec![Cpu::new(0); 8], vec![Cpu::new(0); 8]);
                    let cpus = got.iter_mut().collect();
                    let mut got = Batch { cpus, mems: Vec::new(), undo: Vec::new(), simd };
                    for hi in (t..=0xffff).step_by(threads) {
                        for lo in (0..=0xffff).step_by(8) {
                            // Lane l: a = hi, b = lo + l as scalars, and the
                            // pairs [a, b] and [b, a]; a seeded addend and
                            // accumulator.
                            let (c_bits, d_bits): ([u32; 8], [u32; 8]) = (
                                std::array::from_fn(|_| u32::from(rng.half())),
                                std::array::from_fn(|_| u32::from(rng.half()) | u32::from(rng.half()) << 16),
                            );
                            for (l, (g, w)) in got.cpus.iter_mut().zip(&mut want).enumerate() {
                                let (x, y) = (hi as u32, (lo + l) as u32);
                                for cpu in [&mut **g, w] {
                                    cpu.set_reg(a, x | y << 16);
                                    cpu.set_reg(b, y | x << 16);
                                    cpu.set_reg(c, c_bits[l]);
                                }
                            }
                            for ((exec, batch, u), inst) in kernels.iter().zip(insts) {
                                for (l, (g, w)) in got.cpus.iter_mut().zip(&mut want).enumerate() {
                                    g.set_reg(d, d_bits[l]);
                                    w.set_reg(d, d_bits[l]);
                                    exec(w, *u, &mut mem).unwrap();
                                }
                                batch.expect("batched")(&mut got, *u, 0).unwrap();
                                for (l, (g, w)) in got.cpus.iter().zip(&want).enumerate() {
                                    assert_eq!(g.reg(d), w.reg(d), "{inst}: a {hi:#06x}, b {:#06x}", lo + l);
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn fp_and_simd_lockstep() {
        use terasim_softfloat::F16;
        lockstep(|a| {
            a.li(Reg::T0, F16::from_f32(1.5).to_bits() as i32);
            a.li(Reg::T1, F16::from_f32(-2.25).to_bits() as i32);
            a.li(Reg::T2, F16::from_f32(0.125).to_bits() as i32);
            a.fmadd_h(Reg::A0, Reg::T0, Reg::T1, Reg::T2);
            a.inst(Inst::FpArith { op: FpOp::Div, fmt: FpFmt::H, rd: Reg::A1, rs1: Reg::T0, rs2: Reg::T1 });
            a.inst(Inst::FpUn { op: FpUnOp::Sqrt, fmt: FpFmt::H, rd: Reg::A2, rs1: Reg::T0 });
            a.vfcdotpex_s_h(Reg::A3, Reg::T0, Reg::T1);
            a.pv_swap_h(Reg::A4, Reg::T0);
            a.inst(Inst::Pv { op: PvOp::Mac, rd: Reg::A5, rs1: Reg::T0, rs2: Reg::T1 });
        });
    }
}
