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
// One function per operation variant; each replicates the corresponding
// `Cpu::execute` arm through the shared operand-level helpers. The
// constant op/format arguments constant-fold after inlining, leaving
// straight-line code behind every pointer.

fn k_lui<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    cpu.set_reg_raw(u.rd, u.imm as u32);
    cpu.retire_next();
    Ok(Outcome::Continue)
}

fn k_auipc<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    cpu.set_reg_raw(u.rd, cpu.pc().wrapping_add(u.imm as u32));
    cpu.retire_next();
    Ok(Outcome::Continue)
}

fn k_jal<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    let pc = cpu.pc();
    cpu.set_reg_raw(u.rd, pc.wrapping_add(4));
    cpu.retire_jump(pc.wrapping_add(u.imm as u32));
    Ok(Outcome::Continue)
}

fn k_jalr<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    let target = cpu.reg_raw(u.rs1).wrapping_add(u.imm as u32) & !1;
    cpu.set_reg_raw(u.rd, cpu.pc().wrapping_add(4));
    cpu.retire_jump(target);
    Ok(Outcome::Continue)
}

macro_rules! branch_kernels {
    ($($name:ident: |$a:ident, $b:ident| $taken:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let ($a, $b) = (cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            if $taken {
                cpu.retire_jump(cpu.pc().wrapping_add(u.imm as u32));
            } else {
                cpu.retire_next();
            }
            Ok(Outcome::Continue)
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

macro_rules! load_kernels {
    ($($plain:ident / $post:ident: $size:expr, |$raw:ident| $cvt:expr;)+) => {$(
        fn $plain<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
            let addr = cpu.reg_raw(u.rs1).wrapping_add(u.imm as u32);
            let $raw = mem.load(addr, $size).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
            cpu.set_reg_raw(u.rd, $cvt);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
        fn $post<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
            let base = cpu.reg_raw(u.rs1);
            let $raw = mem.load(base, $size).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
            cpu.set_reg_raw(u.rd, $cvt);
            cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

load_kernels! {
    k_lb / k_lb_post: 1, |raw| raw as u8 as i8 as i32 as u32;
    k_lh / k_lh_post: 2, |raw| raw as u16 as i16 as i32 as u32;
    k_lw / k_lw_post: 4, |raw| raw;
    k_lbu / k_lbu_post: 1, |raw| raw;
    k_lhu / k_lhu_post: 2, |raw| raw;
}

macro_rules! store_kernels {
    ($($plain:ident / $post:ident: $size:expr;)+) => {$(
        fn $plain<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
            let addr = cpu.reg_raw(u.rs1).wrapping_add(u.imm as u32);
            mem.store(addr, $size, cpu.reg_raw(u.rs2)).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
        fn $post<M: Memory>(cpu: &mut Cpu, u: Uop, mem: &mut M) -> Result<Outcome, Trap> {
            let base = cpu.reg_raw(u.rs1);
            mem.store(base, $size, cpu.reg_raw(u.rs2)).map_err(|err| Trap::Mem { pc: cpu.pc(), err })?;
            cpu.set_reg_raw(u.rs1, base.wrapping_add(u.imm as u32));
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

store_kernels! {
    k_sb / k_sb_post: 1;
    k_sh / k_sh_post: 2;
    k_sw / k_sw_post: 4;
}

macro_rules! alu_kernels {
    ($($imm:ident / $reg:ident: $op:expr;)+) => {$(
        fn $imm<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = alu($op, cpu.reg_raw(u.rs1), u.imm as u32);
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
        fn $reg<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = alu($op, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
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
    ($($name:ident: $op:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = muldiv($op, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
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
    ($($name:ident: $op:expr, $fmt:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = fp_arith($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

fp_arith_kernels! {
    k_fadd_h: FpOp::Add, FpFmt::H;
    k_fsub_h: FpOp::Sub, FpFmt::H;
    k_fmul_h: FpOp::Mul, FpFmt::H;
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
    ($($name:ident: $op:expr, $fmt:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = fp_un($op, $fmt, cpu.reg_raw(u.rs1));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
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
    ($($name:ident: $op:expr, $fmt:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = fp_fma($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2), cpu.reg_raw(u.rs3));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

fp_fma_kernels! {
    k_fmadd_h: FmaOp::Madd, FpFmt::H;
    k_fmsub_h: FmaOp::Msub, FpFmt::H;
    k_fnmadd_h: FmaOp::Nmadd, FpFmt::H;
    k_fnmsub_h: FmaOp::Nmsub, FpFmt::H;
    k_fmadd_s: FmaOp::Madd, FpFmt::S;
    k_fmsub_s: FmaOp::Msub, FpFmt::S;
    k_fnmadd_s: FmaOp::Nmadd, FpFmt::S;
    k_fnmsub_s: FmaOp::Nmsub, FpFmt::S;
}

macro_rules! fp_cmp_kernels {
    ($($name:ident: $op:expr, $fmt:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = fp_cmp($op, $fmt, cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
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
    ($($name:ident: $op:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = vf($op, cpu.reg_raw(u.rd), cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
}

vf_kernels! {
    k_vfadd_h: VfOp::AddH;
    k_vfsub_h: VfOp::SubH;
    k_vfmul_h: VfOp::MulH;
    k_vfmac_h: VfOp::MacH;
    k_vfdotpex_s_h: VfOp::DotpExSH;
    k_vfndotpex_s_h: VfOp::NDotpExSH;
    k_vfcdotpex_s_h: VfOp::CdotpExSH;
    k_vfcdotpex_c_s_h: VfOp::CdotpExCSH;
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
    ($($name:ident: $op:expr;)+) => {$(
        fn $name<M: Memory>(cpu: &mut Cpu, u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
            let v = pv($op, cpu.reg_raw(u.rd), cpu.reg_raw(u.rs1), cpu.reg_raw(u.rs2));
            cpu.set_reg_raw(u.rd, v);
            cpu.retire_next();
            Ok(Outcome::Continue)
        }
    )+};
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

fn k_fence<M: Memory>(cpu: &mut Cpu, _u: Uop, _mem: &mut M) -> Result<Outcome, Trap> {
    cpu.retire_next();
    Ok(Outcome::Continue)
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
    let mut u = Uop::new();
    let exec: Kernel<M> = match *inst {
        Inst::Lui { rd, imm } => {
            u.rd = rd.index() as u8;
            u.imm = imm;
            k_lui::<M>
        }
        Inst::Auipc { rd, imm } => {
            u.rd = rd.index() as u8;
            u.imm = imm;
            k_auipc::<M>
        }
        Inst::Jal { rd, offset } => {
            u.rd = rd.index() as u8;
            u.imm = offset;
            k_jal::<M>
        }
        Inst::Jalr { rd, rs1, offset } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = offset;
            k_jalr::<M>
        }
        Inst::Branch { op, rs1, rs2, offset } => {
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.imm = offset;
            match op {
                BranchOp::Eq => k_beq::<M>,
                BranchOp::Ne => k_bne::<M>,
                BranchOp::Lt => k_blt::<M>,
                BranchOp::Ge => k_bge::<M>,
                BranchOp::Ltu => k_bltu::<M>,
                BranchOp::Geu => k_bgeu::<M>,
            }
        }
        Inst::Load { op, rd, rs1, offset, post_inc } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = offset;
            match (op, post_inc) {
                (LoadOp::Lb, false) => k_lb::<M>,
                (LoadOp::Lh, false) => k_lh::<M>,
                (LoadOp::Lw, false) => k_lw::<M>,
                (LoadOp::Lbu, false) => k_lbu::<M>,
                (LoadOp::Lhu, false) => k_lhu::<M>,
                (LoadOp::Lb, true) => k_lb_post::<M>,
                (LoadOp::Lh, true) => k_lh_post::<M>,
                (LoadOp::Lw, true) => k_lw_post::<M>,
                (LoadOp::Lbu, true) => k_lbu_post::<M>,
                (LoadOp::Lhu, true) => k_lhu_post::<M>,
            }
        }
        Inst::Store { op, rs1, rs2, offset, post_inc } => {
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.imm = offset;
            match (op, post_inc) {
                (StoreOp::Sb, false) => k_sb::<M>,
                (StoreOp::Sh, false) => k_sh::<M>,
                (StoreOp::Sw, false) => k_sw::<M>,
                (StoreOp::Sb, true) => k_sb_post::<M>,
                (StoreOp::Sh, true) => k_sh_post::<M>,
                (StoreOp::Sw, true) => k_sw_post::<M>,
            }
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.imm = imm;
            match op {
                AluOp::Add => k_addi::<M>,
                AluOp::Sub => k_subi::<M>, // unreachable from decode; kept total
                AluOp::Sll => k_slli::<M>,
                AluOp::Slt => k_slti::<M>,
                AluOp::Sltu => k_sltiu::<M>,
                AluOp::Xor => k_xori::<M>,
                AluOp::Srl => k_srli::<M>,
                AluOp::Sra => k_srai::<M>,
                AluOp::Or => k_ori::<M>,
                AluOp::And => k_andi::<M>,
            }
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                AluOp::Add => k_add::<M>,
                AluOp::Sub => k_sub::<M>,
                AluOp::Sll => k_sll::<M>,
                AluOp::Slt => k_slt::<M>,
                AluOp::Sltu => k_sltu::<M>,
                AluOp::Xor => k_xor::<M>,
                AluOp::Srl => k_srl::<M>,
                AluOp::Sra => k_sra::<M>,
                AluOp::Or => k_or::<M>,
                AluOp::And => k_and::<M>,
            }
        }
        Inst::MulDiv { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                MulDivOp::Mul => k_mul::<M>,
                MulDivOp::Mulh => k_mulh::<M>,
                MulDivOp::Mulhsu => k_mulhsu::<M>,
                MulDivOp::Mulhu => k_mulhu::<M>,
                MulDivOp::Div => k_div::<M>,
                MulDivOp::Divu => k_divu::<M>,
                MulDivOp::Rem => k_rem::<M>,
                MulDivOp::Remu => k_remu::<M>,
            }
        }
        Inst::LrW { rd, rs1 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            k_lr_w::<M>
        }
        Inst::ScW { rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            k_sc_w::<M>
        }
        Inst::Amo { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                AmoOp::Swap => k_amoswap::<M>,
                AmoOp::Add => k_amoadd::<M>,
                AmoOp::Xor => k_amoxor::<M>,
                AmoOp::And => k_amoand::<M>,
                AmoOp::Or => k_amoor::<M>,
                AmoOp::Min => k_amomin::<M>,
                AmoOp::Max => k_amomax::<M>,
                AmoOp::Minu => k_amominu::<M>,
                AmoOp::Maxu => k_amomaxu::<M>,
            }
        }
        Inst::Csr { op, rd, src, csr } => {
            u.rd = rd.index() as u8;
            u.imm = i32::from(csr);
            match src {
                CsrSrc::Reg(r) => {
                    u.rs1 = r.index() as u8;
                    match op {
                        CsrOp::Rw => k_csrrw::<M>,
                        CsrOp::Rs => k_csrrs::<M>,
                        CsrOp::Rc => k_csrrc::<M>,
                    }
                }
                CsrSrc::Imm(i) => {
                    u.rs1 = i;
                    match op {
                        CsrOp::Rw => k_csrrwi::<M>,
                        CsrOp::Rs => k_csrrsi::<M>,
                        CsrOp::Rc => k_csrrci::<M>,
                    }
                }
            }
        }
        Inst::FpArith { op, fmt, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match (op, fmt) {
                (FpOp::Add, FpFmt::H) => k_fadd_h::<M>,
                (FpOp::Sub, FpFmt::H) => k_fsub_h::<M>,
                (FpOp::Mul, FpFmt::H) => k_fmul_h::<M>,
                (FpOp::Div, FpFmt::H) => k_fdiv_h::<M>,
                (FpOp::Min, FpFmt::H) => k_fmin_h::<M>,
                (FpOp::Max, FpFmt::H) => k_fmax_h::<M>,
                (FpOp::SgnJ, FpFmt::H) => k_fsgnj_h::<M>,
                (FpOp::SgnJN, FpFmt::H) => k_fsgnjn_h::<M>,
                (FpOp::SgnJX, FpFmt::H) => k_fsgnjx_h::<M>,
                (FpOp::Add, FpFmt::S) => k_fadd_s::<M>,
                (FpOp::Sub, FpFmt::S) => k_fsub_s::<M>,
                (FpOp::Mul, FpFmt::S) => k_fmul_s::<M>,
                (FpOp::Div, FpFmt::S) => k_fdiv_s::<M>,
                (FpOp::Min, FpFmt::S) => k_fmin_s::<M>,
                (FpOp::Max, FpFmt::S) => k_fmax_s::<M>,
                (FpOp::SgnJ, FpFmt::S) => k_fsgnj_s::<M>,
                (FpOp::SgnJN, FpFmt::S) => k_fsgnjn_s::<M>,
                (FpOp::SgnJX, FpFmt::S) => k_fsgnjx_s::<M>,
            }
        }
        Inst::FpUn { op, fmt, rd, rs1 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            match (op, fmt) {
                (FpUnOp::Sqrt, FpFmt::H) => k_fsqrt_h::<M>,
                (FpUnOp::Sqrt, FpFmt::S) => k_fsqrt_s::<M>,
                (FpUnOp::CvtWFromFp, FpFmt::H) => k_fcvt_w_h::<M>,
                (FpUnOp::CvtWFromFp, FpFmt::S) => k_fcvt_w_s::<M>,
                (FpUnOp::CvtFpFromW, FpFmt::H) => k_fcvt_h_w::<M>,
                (FpUnOp::CvtFpFromW, FpFmt::S) => k_fcvt_s_w::<M>,
                (FpUnOp::CvtSFromH, _) => k_fcvt_s_h::<M>,
                (FpUnOp::CvtHFromS, _) => k_fcvt_h_s::<M>,
            }
        }
        Inst::FpFma { op, fmt, rd, rs1, rs2, rs3 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            u.rs3 = rs3.index() as u8;
            match (op, fmt) {
                (FmaOp::Madd, FpFmt::H) => k_fmadd_h::<M>,
                (FmaOp::Msub, FpFmt::H) => k_fmsub_h::<M>,
                (FmaOp::Nmadd, FpFmt::H) => k_fnmadd_h::<M>,
                (FmaOp::Nmsub, FpFmt::H) => k_fnmsub_h::<M>,
                (FmaOp::Madd, FpFmt::S) => k_fmadd_s::<M>,
                (FmaOp::Msub, FpFmt::S) => k_fmsub_s::<M>,
                (FmaOp::Nmadd, FpFmt::S) => k_fnmadd_s::<M>,
                (FmaOp::Nmsub, FpFmt::S) => k_fnmsub_s::<M>,
            }
        }
        Inst::FpCmp { op, fmt, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match (op, fmt) {
                (FpCmpOp::Eq, FpFmt::H) => k_feq_h::<M>,
                (FpCmpOp::Lt, FpFmt::H) => k_flt_h::<M>,
                (FpCmpOp::Le, FpFmt::H) => k_fle_h::<M>,
                (FpCmpOp::Eq, FpFmt::S) => k_feq_s::<M>,
                (FpCmpOp::Lt, FpFmt::S) => k_flt_s::<M>,
                (FpCmpOp::Le, FpFmt::S) => k_fle_s::<M>,
            }
        }
        Inst::Vf { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                VfOp::AddH => k_vfadd_h::<M>,
                VfOp::SubH => k_vfsub_h::<M>,
                VfOp::MulH => k_vfmul_h::<M>,
                VfOp::MacH => k_vfmac_h::<M>,
                VfOp::DotpExSH => k_vfdotpex_s_h::<M>,
                VfOp::NDotpExSH => k_vfndotpex_s_h::<M>,
                VfOp::CdotpExSH => k_vfcdotpex_s_h::<M>,
                VfOp::CdotpExCSH => k_vfcdotpex_c_s_h::<M>,
                VfOp::DotpExHB => k_vfdotpex_h_b::<M>,
                VfOp::NDotpExHB => k_vfndotpex_h_b::<M>,
                VfOp::CpkAHS => k_vfcpka_h_s::<M>,
                VfOp::CvtHBLo => k_vfcvt_h_b_lo::<M>,
                VfOp::CvtHBHi => k_vfcvt_h_b_hi::<M>,
                VfOp::CvtBH => k_vfcvt_b_h::<M>,
                VfOp::SwapH => k_pv_swap_h::<M>,
                VfOp::SwapB => k_pv_swap_b::<M>,
                VfOp::CmacB => k_pv_cmac_b::<M>,
                VfOp::CmacConjB => k_pv_cmac_c_b::<M>,
            }
        }
        Inst::Pv { op, rd, rs1, rs2 } => {
            u.rd = rd.index() as u8;
            u.rs1 = rs1.index() as u8;
            u.rs2 = rs2.index() as u8;
            match op {
                PvOp::AddH => k_pv_add_h::<M>,
                PvOp::AddB => k_pv_add_b::<M>,
                PvOp::SubH => k_pv_sub_h::<M>,
                PvOp::SubB => k_pv_sub_b::<M>,
                PvOp::Mac => k_p_mac::<M>,
                PvOp::Msu => k_p_msu::<M>,
                PvOp::DotspH => k_pv_dotsp_h::<M>,
                PvOp::SdotspH => k_pv_sdotsp_h::<M>,
            }
        }
        Inst::Fence => k_fence::<M>,
        Inst::Ecall => k_ecall::<M>,
        Inst::Ebreak => k_ebreak::<M>,
        Inst::Wfi => k_wfi::<M>,
    };
    (exec, u)
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
