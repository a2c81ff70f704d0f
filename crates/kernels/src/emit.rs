//! Code generation for the parallel MMSE kernel (paper §IV).
//!
//! The generated program is shared by every hart: each core reads
//! `mhartid`, derives its operand pointers and solves its batch of
//! subcarrier problems, then joins the cluster barrier (`amoadd` +
//! `wfi`/wake). The Gram-matrix and matched-filter loops use the selected
//! [`Precision`]'s instructions with two interleaved accumulation chains
//! (the paper's loop unrolling, which hides FPU and memory latency); the
//! Cholesky factorization and triangular solves run in scalar binary16.

use terasim_riscv::{csr, AsmError, Assembler, Image, Reg, Segment};
use terasim_terapool::Topology;

use crate::layout::{LayoutError, ProblemLayout};
use crate::Precision;

// Global register roles for the generated kernel.
const H: Reg = Reg::S0; // H base (current problem, column-major)
const Y: Reg = Reg::S1; // y base (current problem)
const X: Reg = Reg::S2; // x̂ base (current problem)
const G: Reg = Reg::S3; // Gram triangle (core scratch)
const L: Reg = Reg::S4; // Cholesky triangle (core scratch)
const W: Reg = Reg::S5; // work vector z/w (core scratch)
const SIG: Reg = Reg::S6; // prepared σ² (format depends on precision)
const RD: Reg = Reg::S7; // reciprocal-diagonal base (core scratch)
const SIGP: Reg = Reg::S8; // σ² load pointer (advances per problem)
const PCNT: Reg = Reg::S9; // problems remaining
const I: Reg = Reg::S10; // outer loop counter
const J: Reg = Reg::S11; // inner loop counter

/// Generator for the software-defined MMSE detector.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct MmseKernel {
    /// MIMO size `N` (4, 8, 16 or 32 in the paper).
    pub n: u32,
    /// Arithmetic precision of the Gram/matched-filter stages.
    pub precision: Precision,
    /// Subcarrier problems each core solves back to back (1 for the
    /// parallel experiment, `NSC / cores` for the Monte-Carlo batch).
    pub problems_per_core: u32,
    /// Harts that participate (`None` = all cores of the topology).
    pub active_cores: Option<u32>,
    /// Requested unroll factor of the dot-product loops (clamped so the
    /// unrolled body divides `N`).
    pub unroll: u32,
    /// Adversarial operand placement for the layout ablation
    /// (`ablation_layout`): pads per-problem strides so every core's `H`/`y` start in the
    /// *same* banks, serializing the whole cluster on a few banks. The
    /// default (`false`) is the paper's Figure-4 interleaved layout.
    pub bank_aligned_inputs: bool,
}

impl MmseKernel {
    /// Creates a kernel for `n × n` MIMO in the given precision, one
    /// problem per core on all cores, with the paper's default unrolling.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `4..=32`.
    pub fn new(n: u32, precision: Precision) -> Self {
        assert!(n.is_power_of_two() && (4..=32).contains(&n), "n must be 4, 8, 16 or 32");
        Self { n, precision, problems_per_core: 1, active_cores: None, unroll: 2, bank_aligned_inputs: false }
    }

    /// Sets the number of problems each core solves (Monte-Carlo batching).
    pub fn with_problems_per_core(mut self, problems: u32) -> Self {
        assert!(problems >= 1);
        self.problems_per_core = problems;
        self
    }

    /// Restricts execution to the first `cores` harts.
    pub fn with_active_cores(mut self, cores: u32) -> Self {
        self.active_cores = Some(cores);
        self
    }

    /// Sets the requested dot-product unroll factor (ablation D3).
    pub fn with_unroll(mut self, unroll: u32) -> Self {
        assert!(unroll >= 1);
        self.unroll = unroll;
        self
    }

    /// Selects the adversarial bank-aligned operand placement (ablation
    /// D4); see the field documentation.
    pub fn with_bank_aligned_inputs(mut self, aligned: bool) -> Self {
        self.bank_aligned_inputs = aligned;
        self
    }

    /// Effective unroll factor after clamping to the problem size: the
    /// unrolled body consumes `2 * unroll * elements_per_load` elements
    /// and must divide `N`.
    pub fn effective_unroll(&self) -> u32 {
        let epl = self.precision.elements_per_load() as u32;
        let mut u = self.unroll;
        while u > 1 && !self.n.is_multiple_of(2 * u * epl) {
            u -= 1;
        }
        u.max(1)
    }

    /// Resolves the operand layout for `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when the configuration exceeds L1 capacity
    /// or the core count.
    pub fn layout(&self, topo: &Topology) -> Result<ProblemLayout, LayoutError> {
        ProblemLayout::resolve(self, topo)
    }

    /// Generates the program image (text at [`Topology::L2_BASE`]).
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] wrapping a [`LayoutError`] when the layout
    /// fails, or an assembly error (which would be a generator bug).
    pub fn build(&self, topo: &Topology) -> Result<Image, BuildError> {
        let layout = self.layout(topo)?;
        assert!(topo.cores_per_tile == 8, "the generated prologue hard-codes 8 cores per tile (TeraPool)");
        let mut a = Assembler::new(Topology::L2_BASE);
        self.emit_program(&mut a, &layout);
        let words = a.finish()?;
        let mut image = Image::new(Topology::L2_BASE);
        image.push_segment(Segment::from_words(Topology::L2_BASE, &words));
        Ok(image)
    }

    fn emit_program(&self, a: &mut Assembler, l: &ProblemLayout) {
        let exit = a.new_label();
        let work = a.new_label();

        // ---- prologue: role discovery --------------------------------
        a.csrr(Reg::T0, csr::MHARTID);
        a.li(Reg::T1, l.active_cores as i32);
        a.bltu(Reg::T0, Reg::T1, work);
        a.j(exit); // inactive harts exit immediately (and skip the barrier)
        a.bind(work);

        // first problem = hart * problems_per_core
        a.li(Reg::T1, l.problems_per_core as i32);
        a.mul(Reg::T2, Reg::T0, Reg::T1);
        let ptr = |a: &mut Assembler, dst: Reg, base: u32, stride: u32| {
            a.li(Reg::T3, stride as i32);
            a.mul(Reg::T4, Reg::T2, Reg::T3);
            a.li(Reg::T5, base as i32);
            a.add(dst, Reg::T4, Reg::T5);
        };
        ptr(a, H, l.h_base, l.h_stride);
        ptr(a, Y, l.y_base, l.y_stride);
        ptr(a, X, l.x_base, l.x_stride);
        ptr(a, SIGP, l.sigma_base, l.sigma_stride);

        // scratch base = SEQ_BASE + tile*STRIDE + seq_off + within*core_scratch
        a.srli(Reg::T3, Reg::T0, 3); // tile (8 cores per tile)
        a.li(Reg::T4, Topology::SEQ_STRIDE as i32);
        a.mul(Reg::T3, Reg::T3, Reg::T4);
        a.li(Reg::T5, (Topology::SEQ_BASE + l.seq_scratch_off) as i32);
        a.add(Reg::T3, Reg::T3, Reg::T5);
        a.andi(Reg::T4, Reg::T0, 7);
        a.li(Reg::T6, l.core_scratch as i32);
        a.mul(Reg::T4, Reg::T4, Reg::T6);
        a.add(Reg::T3, Reg::T3, Reg::T4);
        let offset_into = |a: &mut Assembler, dst: Reg, off: u32| {
            a.li(Reg::T5, off as i32);
            a.add(dst, Reg::T3, Reg::T5);
        };
        offset_into(a, G, l.g_off);
        offset_into(a, L, l.l_off);
        offset_into(a, W, l.w_off);
        offset_into(a, RD, l.rdiag_off);

        a.li(PCNT, l.problems_per_core as i32);

        // ---- per-problem body -----------------------------------------
        let problem_top = a.new_label();
        a.bind(problem_top);
        self.emit_sigma_prep(a);
        self.emit_gram(a);
        self.emit_mvm(a);
        self.emit_cholesky(a);
        self.emit_forward(a);
        self.emit_backward(a);

        // advance to the next problem
        a.li(Reg::T0, l.h_stride as i32);
        a.add(H, H, Reg::T0);
        a.addi(Y, Y, l.y_stride as i32);
        a.addi(SIGP, SIGP, l.sigma_stride as i32);
        a.addi(X, X, l.x_stride as i32);
        a.addi(PCNT, PCNT, -1);
        a.bnez(PCNT, problem_top);

        // ---- barrier + exit -------------------------------------------
        let not_last = a.new_label();
        a.li(Reg::A0, l.barrier_addr as i32);
        a.li(Reg::A1, 1);
        a.amoadd_w(Reg::A2, Reg::A1, Reg::A0);
        a.li(Reg::A3, (l.active_cores - 1) as i32);
        a.bne(Reg::A2, Reg::A3, not_last);
        a.li(Reg::A4, Topology::CTRL_WAKE_ALL as i32);
        a.sw(Reg::A1, 0, Reg::A4);
        a.j(exit);
        a.bind(not_last);
        a.wfi();
        a.bind(exit);
        a.li(Reg::A0, 0);
        a.ecall();
    }

    /// Loads this problem's σ² and prepares [`SIG`] for the precision's
    /// diagonal update.
    fn emit_sigma_prep(&self, a: &mut Assembler) {
        a.lhu(Reg::T0, 0, SIGP);
        match self.precision {
            // Scalar binary16 add on the real part.
            Precision::Half16 => {
                a.mv(SIG, Reg::T0);
            }
            // The wide accumulator adds σ² in f32 before packing.
            Precision::WDotp16 => {
                a.fcvt_s_h(SIG, Reg::T0);
            }
            // Packed [σ², +0] added lanewise after packing.
            Precision::CDotp16 | Precision::Quarter8 | Precision::WDotp8 => {
                a.mv(SIG, Reg::T0);
            }
        }
    }

    /// One dot-product step of accumulation chain `chain` (0 or 1): loads
    /// the next elements of both streams (post-increment) and accumulates
    /// `conj(a)·b`.
    fn emit_cmac_step(&self, a: &mut Assembler, chain: usize) {
        let eb = self.precision.element_bytes() as i32;
        let (re, im) = if chain == 0 { (Reg::T0, Reg::T1) } else { (Reg::T2, Reg::T3) };
        match self.precision {
            Precision::Half16 => {
                a.p_lh(Reg::A2, 2, Reg::A0); // ar
                a.p_lh(Reg::A3, 2, Reg::A0); // ai
                a.p_lh(Reg::A4, 2, Reg::A1); // br
                a.p_lh(Reg::A5, 2, Reg::A1); // bi
                a.fmadd_h(re, Reg::A2, Reg::A4, re); // re += ar*br
                a.fmadd_h(re, Reg::A3, Reg::A5, re); // re += ai*bi
                a.fmadd_h(im, Reg::A2, Reg::A5, im); // im += ar*bi
                a.fnmsub_h(im, Reg::A3, Reg::A4, im); // im -= ai*br
            }
            Precision::WDotp16 => {
                a.p_lw(Reg::A2, eb, Reg::A0);
                a.p_lw(Reg::A3, eb, Reg::A1);
                a.pv_swap_h(Reg::A4, Reg::A3);
                a.vfdotpex_s_h(re, Reg::A2, Reg::A3); // re += ar*br + ai*bi
                a.vfndotpex_s_h(im, Reg::A2, Reg::A4); // im += ar*bi - ai*br
            }
            Precision::CDotp16 => {
                a.p_lw(Reg::A2, eb, Reg::A0);
                a.p_lw(Reg::A3, eb, Reg::A1);
                a.vfcdotpex_c_s_h(re, Reg::A2, Reg::A3);
            }
            Precision::Quarter8 => {
                a.p_lhu(Reg::A2, eb, Reg::A0);
                a.p_lhu(Reg::A3, eb, Reg::A1);
                a.pv_cmac_c_b(re, Reg::A2, Reg::A3);
            }
            Precision::WDotp8 => {
                a.p_lw(Reg::A2, 4, Reg::A0); // two packed complexes
                a.p_lw(Reg::A3, 4, Reg::A1);
                a.pv_swap_b(Reg::A4, Reg::A3);
                a.vfdotpex_h_b(re, Reg::A2, Reg::A3); // re pair += ar*br + ai*bi
                a.vfndotpex_h_b(im, Reg::A2, Reg::A4); // im pair += ar*bi - ai*br
            }
        }
    }

    /// Emits a full `conj(a)·b` dot product over `N` elements: both
    /// streams walked by post-increment from `a0`/`a1`, result packed
    /// binary16 `[re, im]` in `t0`. Uses `t0..t3`, `a2..a5`, `a6`.
    fn emit_dot(&self, a: &mut Assembler, diag: bool) {
        // Zero the accumulators.
        for r in [Reg::T0, Reg::T1, Reg::T2, Reg::T3] {
            a.mv(r, Reg::Zero);
        }
        let epl = self.precision.elements_per_load() as u32;
        let u = self.effective_unroll();
        let steps = 2 * u; // alternating chains
        let trips = self.n / (steps * epl);
        debug_assert!(trips >= 1 && trips * steps * epl == self.n);

        let k_loop = a.new_label();
        if trips > 1 {
            a.li(Reg::A6, trips as i32);
            a.bind(k_loop);
        }
        for s in 0..steps {
            self.emit_cmac_step(a, (s % 2) as usize);
        }
        if trips > 1 {
            a.addi(Reg::A6, Reg::A6, -1);
            a.bnez(Reg::A6, k_loop);
        }
        self.emit_dot_finish(a, diag);
    }

    /// Combines the two chains, applies σ² on diagonal entries, and packs
    /// the result into `t0` as `[im|re]` binary16.
    fn emit_dot_finish(&self, a: &mut Assembler, diag: bool) {
        let pack_t0_t1 = |a: &mut Assembler| {
            a.slli(Reg::T0, Reg::T0, 16);
            a.srli(Reg::T0, Reg::T0, 16);
            a.slli(Reg::T1, Reg::T1, 16);
            a.or(Reg::T0, Reg::T0, Reg::T1);
        };
        match self.precision {
            Precision::Half16 => {
                a.fadd_h(Reg::T0, Reg::T0, Reg::T2);
                a.fadd_h(Reg::T1, Reg::T1, Reg::T3);
                if diag {
                    a.fadd_h(Reg::T0, Reg::T0, SIG);
                }
                pack_t0_t1(a);
            }
            Precision::WDotp16 => {
                a.fadd_s(Reg::T0, Reg::T0, Reg::T2);
                a.fadd_s(Reg::T1, Reg::T1, Reg::T3);
                if diag {
                    a.fadd_s(Reg::T0, Reg::T0, SIG);
                }
                a.vfcpka_h_s(Reg::T0, Reg::T0, Reg::T1);
            }
            Precision::CDotp16 => {
                a.vfadd_h(Reg::T0, Reg::T0, Reg::T2);
                if diag {
                    a.vfadd_h(Reg::T0, Reg::T0, SIG);
                }
            }
            Precision::Quarter8 => {
                a.vfcvt_h_b_lo(Reg::T0, Reg::T0);
                a.vfcvt_h_b_lo(Reg::T2, Reg::T2);
                a.vfadd_h(Reg::T0, Reg::T0, Reg::T2);
                if diag {
                    a.vfadd_h(Reg::T0, Reg::T0, SIG);
                }
            }
            Precision::WDotp8 => {
                a.vfadd_h(Reg::T0, Reg::T0, Reg::T2); // re lane partials
                a.vfadd_h(Reg::T1, Reg::T1, Reg::T3); // im lane partials
                a.pv_swap_h(Reg::A2, Reg::T0);
                a.vfadd_h(Reg::T0, Reg::T0, Reg::A2); // horizontal re (both lanes)
                a.pv_swap_h(Reg::A2, Reg::T1);
                a.vfadd_h(Reg::T1, Reg::T1, Reg::A2); // horizontal im
                pack_t0_t1(a);
                if diag {
                    a.vfadd_h(Reg::T0, Reg::T0, SIG);
                }
            }
        }
    }

    /// Gram matrix: lower triangle of `G = H^H H + σ² I`, row-major packed
    /// binary16 in core scratch.
    fn emit_gram(&self, a: &mut Assembler) {
        let col = (self.n * self.precision.element_bytes()) as i32;
        a.mv(Reg::T4, H); // column i base
        a.mv(Reg::A7, G); // triangle store walker
        a.li(I, 0);
        let i_loop = a.new_label();
        a.bind(i_loop);
        {
            a.mv(Reg::T5, H); // column j base
            a.li(J, 0);
            let j_check = a.new_label();
            let diag = a.new_label();
            a.bind(j_check);
            a.beq(J, I, diag);
            {
                a.mv(Reg::A0, Reg::T4);
                a.mv(Reg::A1, Reg::T5);
                self.emit_dot(a, false);
                a.p_sw(Reg::T0, 4, Reg::A7);
                a.addi(Reg::T5, Reg::T5, col);
                a.addi(J, J, 1);
                a.j(j_check);
            }
            a.bind(diag);
            a.mv(Reg::A0, Reg::T4);
            a.mv(Reg::A1, Reg::T4);
            self.emit_dot(a, true);
            a.p_sw(Reg::T0, 4, Reg::A7);
        }
        a.addi(Reg::T4, Reg::T4, col);
        a.addi(I, I, 1);
        a.li(Reg::T6, self.n as i32);
        a.blt(I, Reg::T6, i_loop);
    }

    /// Matched filter: `z[i] = conj(H[:,i]) · y` into the work vector.
    fn emit_mvm(&self, a: &mut Assembler) {
        let col = (self.n * self.precision.element_bytes()) as i32;
        a.mv(Reg::T4, H);
        a.mv(Reg::A7, W);
        a.li(I, 0);
        let loop_top = a.new_label();
        a.bind(loop_top);
        a.mv(Reg::A0, Reg::T4);
        a.mv(Reg::A1, Y);
        self.emit_dot(a, false);
        a.p_sw(Reg::T0, 4, Reg::A7);
        a.addi(Reg::T4, Reg::T4, col);
        a.addi(I, I, 1);
        a.li(Reg::T6, self.n as i32);
        a.blt(I, Reg::T6, loop_top);
    }

    /// In-scratch Cholesky factorization `G = L L^H` in binary16, storing
    /// the reciprocal diagonal for the solves.
    fn emit_cholesky(&self, a: &mut Assembler) {
        let n = self.n as i32;
        a.mv(Reg::A0, G); // &G[j][j]
        a.mv(Reg::A2, L); // &L[j][0]
        a.mv(Reg::A3, RD); // rdiag walker
        a.li(I, 0);
        let chol_j = a.new_label();
        a.bind(chol_j);
        {
            // s = G[j][j].re - sum |L[j][k]|^2
            a.lh(Reg::T0, 0, Reg::A0);
            a.mv(Reg::A1, Reg::A2);
            let dks = a.new_label();
            a.beqz(I, dks);
            {
                a.mv(Reg::T5, I);
                let dk = a.new_label();
                a.bind(dk);
                a.p_lh(Reg::T1, 2, Reg::A1);
                a.p_lh(Reg::T2, 2, Reg::A1);
                a.fnmsub_h(Reg::T0, Reg::T1, Reg::T1, Reg::T0);
                a.fnmsub_h(Reg::T0, Reg::T2, Reg::T2, Reg::T0);
                a.addi(Reg::T5, Reg::T5, -1);
                a.bnez(Reg::T5, dk);
            }
            a.bind(dks);
            a.fsqrt_h(Reg::T3, Reg::T0);
            a.sh(Reg::T3, 0, Reg::A1); // L[j][j] = (d, 0)
            a.sh(Reg::Zero, 2, Reg::A1);
            a.li(Reg::T4, 0x3c00); // 1.0 in binary16
            a.fdiv_h(Reg::T4, Reg::T4, Reg::T3);
            a.p_sh(Reg::T4, 2, Reg::A3); // rdiag[j] = 1/d

            // i-loop: L[i][j] = (G[i][j] - sum L[i][k] conj(L[j][k])) / d
            let next_j = a.new_label();
            a.addi(J, I, 1);
            a.li(Reg::T6, n);
            a.beq(J, Reg::T6, next_j);
            {
                a.slli(Reg::T5, I, 2);
                a.addi(Reg::T5, Reg::T5, 4);
                a.add(Reg::A4, Reg::A0, Reg::T5); // &G[i][j]
                a.add(Reg::A5, Reg::A2, Reg::T5); // &L[i][0]
                let chol_i = a.new_label();
                a.bind(chol_i);
                a.lh(Reg::T0, 0, Reg::A4); // c.re
                a.lh(Reg::T1, 2, Reg::A4); // c.im
                a.mv(Reg::A6, Reg::A5);
                a.mv(Reg::A7, Reg::A2);
                let cks = a.new_label();
                a.beqz(I, cks);
                {
                    a.mv(Reg::T5, I);
                    let ck = a.new_label();
                    a.bind(ck);
                    a.p_lh(Reg::T2, 2, Reg::A6); // L[i][k].re
                    a.p_lh(Reg::T3, 2, Reg::A6); // L[i][k].im
                    a.p_lh(Reg::T4, 2, Reg::A7); // L[j][k].re
                    a.p_lh(Reg::T6, 2, Reg::A7); // L[j][k].im
                                                 // c -= L[i][k] * conj(L[j][k])
                    a.fnmsub_h(Reg::T0, Reg::T2, Reg::T4, Reg::T0);
                    a.fnmsub_h(Reg::T0, Reg::T3, Reg::T6, Reg::T0);
                    a.fnmsub_h(Reg::T1, Reg::T3, Reg::T4, Reg::T1);
                    a.fmadd_h(Reg::T1, Reg::T2, Reg::T6, Reg::T1);
                    a.addi(Reg::T5, Reg::T5, -1);
                    a.bnez(Reg::T5, ck);
                }
                a.bind(cks);
                a.lh(Reg::T4, -2, Reg::A3); // rdiag[j]
                a.fmul_h(Reg::T0, Reg::T0, Reg::T4);
                a.fmul_h(Reg::T1, Reg::T1, Reg::T4);
                a.sh(Reg::T0, 0, Reg::A6); // a6 landed on &L[i][j]
                a.sh(Reg::T1, 2, Reg::A6);
                a.slli(Reg::T5, J, 2);
                a.addi(Reg::T5, Reg::T5, 4);
                a.add(Reg::A4, Reg::A4, Reg::T5); // next row: += (i+1)*4
                a.add(Reg::A5, Reg::A5, Reg::T5);
                a.addi(J, J, 1);
                a.li(Reg::T6, n);
                a.bne(J, Reg::T6, chol_i);
            }
            a.bind(next_j);
            a.slli(Reg::T5, I, 2);
            a.addi(Reg::T6, Reg::T5, 8);
            a.add(Reg::A0, Reg::A0, Reg::T6); // &G[j+1][j+1]: += (j+2)*4
            a.addi(Reg::T6, Reg::T5, 4);
            a.add(Reg::A2, Reg::A2, Reg::T6); // &L[j+1][0]: += (j+1)*4
        }
        a.addi(I, I, 1);
        a.li(Reg::T6, n);
        a.bne(I, Reg::T6, chol_j);
    }

    /// Forward substitution `L w = z` in place over the work vector.
    fn emit_forward(&self, a: &mut Assembler) {
        let n = self.n as i32;
        a.mv(Reg::A3, W); // &w[i]
        a.mv(Reg::A1, L); // &L[i][0]
        a.mv(Reg::A2, RD);
        a.li(I, 0);
        let fwd_i = a.new_label();
        a.bind(fwd_i);
        a.lh(Reg::T0, 0, Reg::A3);
        a.lh(Reg::T1, 2, Reg::A3);
        a.mv(Reg::A6, Reg::A1);
        a.mv(Reg::A7, W);
        let fks = a.new_label();
        a.beqz(I, fks);
        {
            a.mv(Reg::T5, I);
            let fk = a.new_label();
            a.bind(fk);
            a.p_lh(Reg::T2, 2, Reg::A6); // L[i][k].re
            a.p_lh(Reg::T3, 2, Reg::A6); // L[i][k].im
            a.p_lh(Reg::T4, 2, Reg::A7); // w[k].re
            a.p_lh(Reg::T6, 2, Reg::A7); // w[k].im
                                         // c -= L[i][k] * w[k]
            a.fnmsub_h(Reg::T0, Reg::T2, Reg::T4, Reg::T0);
            a.fmadd_h(Reg::T0, Reg::T3, Reg::T6, Reg::T0);
            a.fnmsub_h(Reg::T1, Reg::T2, Reg::T6, Reg::T1);
            a.fnmsub_h(Reg::T1, Reg::T3, Reg::T4, Reg::T1);
            a.addi(Reg::T5, Reg::T5, -1);
            a.bnez(Reg::T5, fk);
        }
        a.bind(fks);
        a.p_lh(Reg::T4, 2, Reg::A2); // rdiag[i]
        a.fmul_h(Reg::T0, Reg::T0, Reg::T4);
        a.fmul_h(Reg::T1, Reg::T1, Reg::T4);
        a.sh(Reg::T0, 0, Reg::A3);
        a.sh(Reg::T1, 2, Reg::A3);
        a.addi(Reg::A3, Reg::A3, 4);
        a.slli(Reg::T5, I, 2);
        a.addi(Reg::T5, Reg::T5, 4);
        a.add(Reg::A1, Reg::A1, Reg::T5);
        a.addi(I, I, 1);
        a.li(Reg::T6, n);
        a.bne(I, Reg::T6, fwd_i);
    }

    /// Backward substitution `L^H x̂ = w`, writing `x̂` to the interleaved
    /// output region.
    fn emit_backward(&self, a: &mut Assembler) {
        let n = self.n as i32;
        a.li(Reg::T5, (n - 1) * 4);
        a.add(Reg::A3, W, Reg::T5); // &w[n-1]
        a.add(Reg::A4, X, Reg::T5); // &x̂[n-1]
        a.li(Reg::T5, (n - 1) * 2);
        a.add(Reg::A2, RD, Reg::T5); // &rdiag[n-1]
        a.li(I, n - 1);
        let bwd_i = a.new_label();
        a.bind(bwd_i);
        a.lh(Reg::T0, 0, Reg::A3);
        a.lh(Reg::T1, 2, Reg::A3);
        // L[k][i] column walker: offset tri(i+1)+i, increments (k+1)*4.
        a.addi(Reg::T5, I, 1);
        a.addi(Reg::T6, I, 2);
        a.mul(Reg::T5, Reg::T5, Reg::T6);
        a.srli(Reg::T5, Reg::T5, 1);
        a.add(Reg::T5, Reg::T5, I);
        a.slli(Reg::T5, Reg::T5, 2);
        a.add(Reg::A6, L, Reg::T5); // &L[i+1][i]
        a.slli(Reg::A7, Reg::T6, 2); // increment (i+2)*4
        a.addi(Reg::A5, Reg::A4, 4); // &x̂[i+1]
        a.li(Reg::T6, n - 1);
        a.sub(Reg::T5, Reg::T6, I); // trip count n-1-i
        let bks = a.new_label();
        a.beqz(Reg::T5, bks);
        {
            let bk = a.new_label();
            a.bind(bk);
            a.lh(Reg::T2, 0, Reg::A6); // L[k][i].re
            a.lh(Reg::T3, 2, Reg::A6); // L[k][i].im
            a.add(Reg::A6, Reg::A6, Reg::A7);
            a.addi(Reg::A7, Reg::A7, 4);
            a.p_lh(Reg::T4, 2, Reg::A5); // x̂[k].re
            a.p_lh(Reg::T6, 2, Reg::A5); // x̂[k].im
                                         // c -= conj(L[k][i]) * x̂[k]
            a.fnmsub_h(Reg::T0, Reg::T2, Reg::T4, Reg::T0);
            a.fnmsub_h(Reg::T0, Reg::T3, Reg::T6, Reg::T0);
            a.fnmsub_h(Reg::T1, Reg::T2, Reg::T6, Reg::T1);
            a.fmadd_h(Reg::T1, Reg::T3, Reg::T4, Reg::T1);
            a.addi(Reg::T5, Reg::T5, -1);
            a.bnez(Reg::T5, bk);
        }
        a.bind(bks);
        a.lh(Reg::T4, 0, Reg::A2);
        a.addi(Reg::A2, Reg::A2, -2);
        a.fmul_h(Reg::T0, Reg::T0, Reg::T4);
        a.fmul_h(Reg::T1, Reg::T1, Reg::T4);
        a.sh(Reg::T0, 0, Reg::A4);
        a.sh(Reg::T1, 2, Reg::A4);
        a.addi(Reg::A3, Reg::A3, -4);
        a.addi(Reg::A4, Reg::A4, -4);
        a.addi(I, I, -1);
        a.bge(I, Reg::Zero, bwd_i);
    }
}

/// Error produced by [`MmseKernel::build`].
#[derive(Debug)]
pub enum BuildError {
    /// The configuration does not fit the cluster.
    Layout(LayoutError),
    /// Code generation produced an invalid program (a generator bug).
    Asm(AsmError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Layout(e) => write!(f, "layout error: {e}"),
            BuildError::Asm(e) => write!(f, "assembly error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<LayoutError> for BuildError {
    fn from(e: LayoutError) -> Self {
        BuildError::Layout(e)
    }
}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> Self {
        BuildError::Asm(e)
    }
}
