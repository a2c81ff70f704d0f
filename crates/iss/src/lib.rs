//! Instruction-accurate simulation of Snitch cores — the Banshee equivalent.
//!
//! The original Banshee translates RISC-V binaries to host code through
//! LLVM. This crate keeps Banshee's *architecture* — a two-phase
//! translate/emulate flow, deterministic instruction-accurate semantics, and
//! a fast approximate timing model — while replacing LLVM codegen with a
//! pre-decoding threaded interpreter. The substitution trades host speed
//! for a std-only, portable build; semantics and the static timing model
//! do not depend on how instructions are dispatched:
//!
//! 1. **Translation** ([`Program::translate`]): the flat binary image is
//!    decoded once into a dense array of [`Inst`](terasim_riscv::Inst) with
//!    branch targets resolvable by index — the moral equivalent of Banshee's
//!    LLVM-IR generation.
//! 2. **Emulation** ([`Cpu::step`] / [`run_core`]): each simulated hart
//!    executes the pre-decoded stream against a [`Memory`]; independent
//!    harts can run on independent host threads.
//!
//! Timing follows the paper (§III-B): every instruction carries a *static
//! latency* ([`LatencyModel`]) and a [`Scoreboard`] tracks read-after-write
//! dependencies, so long-latency loads and FPU ops stall dependent
//! instructions only — exactly Banshee's fast first-order estimate. Memory
//! latency defaults to the conservative 9-cycle worst-case non-contended
//! access of the TeraPool hierarchy and can be refined per address by the
//! [`Memory`] implementation.
//!
//! # Examples
//!
//! ```
//! use terasim_iss::{run_core, Cpu, DenseMemory, Program, RunConfig};
//! use terasim_riscv::{Assembler, Image, Reg, Segment};
//!
//! // A loop that sums 1..=10 into a0, then halts.
//! let mut a = Assembler::new(0x8000_0000);
//! a.li(Reg::A0, 0);
//! a.li(Reg::T0, 10);
//! let top = a.new_label();
//! a.bind(top);
//! a.add(Reg::A0, Reg::A0, Reg::T0);
//! a.addi(Reg::T0, Reg::T0, -1);
//! a.bnez(Reg::T0, top);
//! a.ecall();
//! let mut image = Image::new(0x8000_0000);
//! image.push_segment(Segment::from_words(0x8000_0000, &a.finish()?));
//!
//! let program = Program::translate(&image)?;
//! let mut cpu = Cpu::new(0);
//! let mut mem = DenseMemory::new(0x0, 0x1000);
//! let stats = run_core(&mut cpu, &program, &mut mem, &RunConfig::default())?;
//! assert_eq!(cpu.reg(Reg::A0), 55);
//! assert!(stats.retired > 30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpu;
pub mod fuse;
mod mem;
mod program;
mod runner;
mod timing;
pub mod uop;

pub use cpu::{Cpu, Outcome, Trap};
pub use fuse::{resume_blocks, resume_spmd, BlockProgram, Lane, MAX_GROUP};
pub use mem::{DenseMemory, MemError, Memory};
pub use program::{Program, TranslateError};
pub use runner::{
    resume_core, resume_lowered, run_core, trace_core, RunConfig, RunStats, StopReason, TraceEntry,
};
pub use timing::{InstClass, LatencyModel, Scoreboard};
pub use uop::{Kernel, LoweredUop, MemOp, Uop, UopMeta, UopProgram, NO_REG};
