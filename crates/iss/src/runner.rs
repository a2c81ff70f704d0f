//! The fast per-hart driver: architectural execution + scoreboard timing.
//!
//! The hot loop runs over the pre-lowered micro-op table
//! ([`UopProgram`]): one indexed load per instruction fetches the kernel
//! pointer, operands and timing metadata, so no per-step decoding, field
//! extraction or class matching remains. [`trace_core`] keeps the seed
//! interpreter path (it needs the decoded [`Inst`] for its observer).

use terasim_riscv::Inst;

use crate::cpu::{Cpu, Outcome, Trap};
use crate::mem::Memory;
use crate::program::Program;
use crate::timing::{InstClass, LatencyModel, Scoreboard};
use crate::uop::UopProgram;

/// Configuration of a fast-mode run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Latency model used by the scoreboard.
    pub latency: LatencyModel,
    /// Stop after this many retired instructions (safety net against
    /// runaway guests).
    pub max_instructions: u64,
    /// When `true`, loads ask the [`Memory`] for a per-address latency;
    /// when `false`, the uniform conservative `latency.load` is used
    /// (the paper's Banshee configuration). `ablation_latency` toggles this.
    pub per_address_latency: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { latency: LatencyModel::default(), max_instructions: u64::MAX, per_address_latency: false }
    }
}

/// Why [`run_core`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The guest executed `ecall`; the exit code is `a0`.
    Exit {
        /// Value of `a0` at exit.
        code: u32,
    },
    /// The guest executed `wfi` (cluster drivers park the hart).
    Wfi,
    /// The instruction budget ran out.
    #[default]
    Budget,
}

/// Statistics of one fast-mode run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Retired instructions.
    pub retired: u64,
    /// Estimated cycles (scoreboard, drained).
    pub est_cycles: u64,
    /// RAW stall cycles accumulated by the scoreboard.
    pub raw_stalls: u64,
    /// Taken-branch bubbles inserted.
    pub branch_bubbles: u64,
    /// Barrier idle cycles (`stall-wfi`), accounted by cluster drivers.
    pub wfi_stalls: u64,
    /// Retired-instruction histogram by [`InstClass`] (index with
    /// [`InstClass::index`]).
    pub class_counts: [u64; InstClass::COUNT],
}

impl RunStats {
    /// Retired count for one class.
    pub fn count(&self, class: InstClass) -> u64 {
        self.class_counts[class.index()]
    }

    /// Merges another run's statistics into this one (used when batching
    /// subcarrier problems on one hart).
    pub fn merge(&mut self, other: &RunStats) {
        self.retired += other.retired;
        self.est_cycles += other.est_cycles;
        self.raw_stalls += other.raw_stalls;
        self.branch_bubbles += other.branch_bubbles;
        self.wfi_stalls += other.wfi_stalls;
        for (a, b) in self.class_counts.iter_mut().zip(other.class_counts) {
            *a += b;
        }
    }
}

/// Runs one hart until exit, `wfi`, or budget exhaustion, estimating cycles
/// with the static-latency scoreboard.
///
/// The CPU's `mcycle` view is refreshed on return so guest reads of the
/// cycle CSR observe the estimate.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest (illegal fetch, memory
/// fault, breakpoint).
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn run_core(
    cpu: &mut Cpu,
    program: &Program,
    mem: &mut impl Memory,
    config: &RunConfig,
) -> Result<RunStats, Trap> {
    let mut sb = Scoreboard::new();
    let mut stats = RunStats::default();
    // One lowering pass per whole-program run: O(text), amortized over
    // execution, which visits every instruction at least once.
    let table = UopProgram::lower(program, &config.latency);
    let blocks = crate::fuse::BlockProgram::build(program, &table);
    crate::fuse::resume_blocks(cpu, &blocks, mem, config, &mut sb, &mut stats)?;
    Ok(stats)
}

/// As [`resume_core`] over an already-lowered micro-op table — the form
/// cluster drivers use so the (one-time, linear) lowering cost is not
/// re-paid on every barrier resume.
///
/// The table must have been lowered with the same latency model as
/// `config.latency`, or static result latencies will disagree with the
/// scoreboard configuration.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest.
pub fn resume_lowered<M: Memory>(
    cpu: &mut Cpu,
    table: &UopProgram<M>,
    mem: &mut M,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
) -> Result<StopReason, Trap> {
    if cpu.pc() == 0 {
        cpu.set_pc(table.entry());
    }

    loop {
        if stats.retired >= config.max_instructions {
            finalize(stats, sb, cpu, StopReason::Budget);
            return Ok(StopReason::Budget);
        }
        let pc = cpu.pc();
        let lu = table.fetch(pc).ok_or(Trap::IllegalFetch { pc })?;
        let meta = lu.meta;

        // Loads: latency comes from the memory map (or the pre-lowered
        // static class latency).
        let latency = if config.per_address_latency && meta.is_load {
            let base = cpu.reg_raw(meta.ea_base);
            let addr = if meta.ea_no_offset { base } else { base.wrapping_add(meta.ea_offset as u32) };
            mem.latency(addr)
        } else {
            meta.result_lat as u32
        };

        let outcome = (lu.exec)(cpu, lu.uop, mem)?;
        sb.issue_slots(meta.srcs, meta.dst, meta.post_inc, latency);
        stats.retired += 1;
        stats.class_counts[meta.class.index()] += 1;

        if meta.is_control_flow && cpu.pc() != pc.wrapping_add(4) {
            sb.bubble(config.latency.taken_branch_penalty);
            stats.branch_bubbles += u64::from(config.latency.taken_branch_penalty);
        }
        cpu.set_mcycle(sb.cycles());

        match outcome {
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

/// One retired instruction, as seen by a [`trace_core`] observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue cycle of the instruction (scoreboard estimate).
    pub cycle: u64,
    /// Program counter.
    pub pc: u32,
    /// The decoded instruction (disassemble with `to_string()`).
    pub inst: Inst,
}

/// As [`run_core`] but invokes `observer` for every retired instruction —
/// the equivalent of Banshee's `--trace` stream. The observer receives
/// the issue cycle, the PC and the decoded instruction.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest.
///
/// # Examples
///
/// ```
/// use terasim_iss::{trace_core, Cpu, DenseMemory, Program, RunConfig};
/// use terasim_riscv::{Assembler, Image, Reg, Segment};
///
/// let mut a = Assembler::new(0x8000_0000);
/// a.li(Reg::A0, 3);
/// a.ecall();
/// let mut image = Image::new(0x8000_0000);
/// image.push_segment(Segment::from_words(0x8000_0000, &a.finish()?));
/// let program = Program::translate(&image)?;
///
/// let mut lines = Vec::new();
/// let mut cpu = Cpu::new(0);
/// let mut mem = DenseMemory::new(0, 0x100);
/// trace_core(&mut cpu, &program, &mut mem, &RunConfig::default(), &mut |e| {
///     lines.push(format!("{:>6}  {:#010x}  {}", e.cycle, e.pc, e.inst));
/// })?;
/// assert_eq!(lines.len(), 2);
/// assert!(lines[0].contains("addi a0, zero, 3"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_core(
    cpu: &mut Cpu,
    program: &Program,
    mem: &mut impl Memory,
    config: &RunConfig,
    observer: &mut impl FnMut(TraceEntry),
) -> Result<RunStats, Trap> {
    let mut sb = Scoreboard::new();
    let mut stats = RunStats::default();
    run_impl(cpu, program, mem, config, &mut sb, &mut stats, &mut Some(observer))?;
    Ok(stats)
}

/// Resumable form of [`run_core`]: the scoreboard and statistics live
/// outside, so a cluster driver can park the hart at `wfi` (barrier) and
/// continue it later with timing intact.
///
/// Runs the retained seed interpreter path — no per-call lowering cost,
/// matching a resume's "continue cheaply" contract. Drivers that resume
/// many harts over the same program should lower once
/// ([`UopProgram::lower`]) and use [`resume_lowered`] instead.
///
/// # Errors
///
/// Propagates any [`Trap`] raised by the guest.
pub fn resume_core(
    cpu: &mut Cpu,
    program: &Program,
    mem: &mut impl Memory,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
) -> Result<StopReason, Trap> {
    run_impl(cpu, program, mem, config, sb, stats, &mut None::<&mut fn(TraceEntry)>)
}

/// The retained seed driver loop (decoded-`Inst` execution through
/// [`Cpu::execute`]); kept for [`trace_core`], whose observer needs the
/// decoded instruction, and as the reference the micro-op path is pinned
/// against.
fn run_impl<F: FnMut(TraceEntry)>(
    cpu: &mut Cpu,
    program: &Program,
    mem: &mut impl Memory,
    config: &RunConfig,
    sb: &mut Scoreboard,
    stats: &mut RunStats,
    observer: &mut Option<&mut F>,
) -> Result<StopReason, Trap> {
    if cpu.pc() == 0 {
        cpu.set_pc(program.entry());
    }

    loop {
        if stats.retired >= config.max_instructions {
            finalize(stats, sb, cpu, StopReason::Budget);
            return Ok(StopReason::Budget);
        }
        let pc = cpu.pc();
        let inst = program.fetch(pc).ok_or(Trap::IllegalFetch { pc })?;
        let class = InstClass::of(&inst);

        // Loads: latency comes from the memory map (or the uniform
        // conservative value). The effective address is computable before
        // execution because Snitch is in-order.
        let latency = match inst {
            Inst::Load { rs1, offset, post_inc, .. } if config.per_address_latency => {
                let base = cpu.reg(rs1);
                let addr = if post_inc { base } else { base.wrapping_add(offset as u32) };
                mem.latency(addr)
            }
            _ => config.latency.result_latency(class),
        };

        let outcome = cpu.execute(inst, mem)?;
        let issue_cycle = sb.issue(&inst, latency);
        stats.retired += 1;
        stats.class_counts[class.index()] += 1;
        if let Some(obs) = observer.as_mut() {
            obs(TraceEntry { cycle: issue_cycle, pc, inst });
        }

        if inst.is_control_flow() && cpu.pc() != pc.wrapping_add(4) {
            sb.bubble(config.latency.taken_branch_penalty);
            stats.branch_bubbles += u64::from(config.latency.taken_branch_penalty);
        }
        cpu.set_mcycle(sb.cycles());

        match outcome {
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

pub(crate) fn finalize(stats: &mut RunStats, sb: &Scoreboard, cpu: &mut Cpu, stop: StopReason) {
    stats.stop = stop;
    stats.est_cycles = sb.drain_cycles();
    stats.raw_stalls = sb.raw_stalls();
    cpu.set_mcycle(stats.est_cycles);
}

#[cfg(test)]
mod tests {
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    use super::*;
    use crate::mem::DenseMemory;

    fn build(f: impl FnOnce(&mut Assembler)) -> Program {
        let mut a = Assembler::new(0x8000_0000);
        f(&mut a);
        a.ecall();
        let mut image = Image::new(0x8000_0000);
        image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
        Program::translate(&image).unwrap()
    }

    #[test]
    fn counts_and_cycles() {
        let program = build(|a| {
            a.li(Reg::A1, 0x100);
            a.lw(Reg::A0, 0, Reg::A1);
            a.addi(Reg::A0, Reg::A0, 1); // depends on the load: 9-cycle stall
        });
        let mut cpu = Cpu::new(0);
        let mut mem = DenseMemory::new(0, 0x1000);
        let stats = run_core(&mut cpu, &program, &mut mem, &RunConfig::default()).unwrap();
        assert_eq!(stats.retired, 4);
        assert_eq!(stats.count(InstClass::Load), 1);
        assert!(stats.raw_stalls >= 8, "load-use stall missing: {stats:?}");
        assert!(stats.est_cycles >= 11);
    }

    #[test]
    fn budget_stops_infinite_loops() {
        let program = build(|a| {
            let spin = a.new_label();
            a.bind(spin);
            a.j(spin);
        });
        let mut cpu = Cpu::new(0);
        let mut mem = DenseMemory::new(0, 0x10);
        let config = RunConfig { max_instructions: 100, ..RunConfig::default() };
        let stats = run_core(&mut cpu, &program, &mut mem, &config).unwrap();
        assert_eq!(stats.retired, 100);
    }

    #[test]
    fn taken_branches_add_bubbles() {
        let program = build(|a| {
            a.li(Reg::T0, 8);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        let mut cpu = Cpu::new(0);
        let mut mem = DenseMemory::new(0, 0x10);
        let stats = run_core(&mut cpu, &program, &mut mem, &RunConfig::default()).unwrap();
        // 7 taken branches x 2-cycle penalty.
        assert_eq!(stats.branch_bubbles, 14);
    }

    #[test]
    fn mcycle_visible_to_guest() {
        let program = build(|a| {
            a.nop().nop().nop();
            a.csrr(Reg::A0, terasim_riscv::csr::MCYCLE);
        });
        let mut cpu = Cpu::new(0);
        let mut mem = DenseMemory::new(0, 0x10);
        run_core(&mut cpu, &program, &mut mem, &RunConfig::default()).unwrap();
        assert!(cpu.reg(Reg::A0) >= 3, "guest saw mcycle = {}", cpu.reg(Reg::A0));
    }
}
