//! End-to-end co-simulation of many-RISC-V-core SDR baseband transceivers.
//!
//! `terasim` reproduces the DAC 2025 framework of Bertuletti et al.: a
//! Banshee-style fast simulator for the 1024-core TeraPool-SDR cluster,
//! coupled to wireless channel models for Monte-Carlo analysis of
//! software-defined MMSE detection, with a cycle-accurate cluster model
//! standing in for RTL simulation. The pieces live in focused crates —
//!
//! * `terasim_softfloat` — binary16/E4M3 arithmetic and SDR dot products,
//! * [`terasim_riscv`] — the Snitch ISA, assembler and disassembler,
//! * [`terasim_iss`] — instruction-accurate emulation + timing scoreboard,
//! * [`terasim_terapool`] — the cluster: fast mode and cycle mode,
//! * [`terasim_kernels`] — MMSE guest code generation + native models,
//! * [`terasim_phy`] — QAM, channels, BER Monte-Carlo
//!
//! — and this crate ties them into the paper's experiments:
//!
//! * [`detectors`] — plug DUT models (native or ISS-in-the-loop) into the
//!   PHY's [`Detector`](terasim_phy::Detector) interface.
//! * [`experiments`] — the prepared-scenario types
//!   ([`experiments::ParallelScenario`] for the parallel-MMSE runtime of
//!   Figures 5–8, [`experiments::SymbolScenario`] for the batched
//!   Monte-Carlo symbol runtime of Figure 6) that share one immutable
//!   artifact set across a batch of jobs, each job described by a
//!   [`experiments::JobSpec`]; and BER curves (Figures 9–10).
//! * [`serve`] — the batched job-serving layer: a work-stealing
//!   [`serve::BatchRunner`] that drives many independent simulations over
//!   shared artifacts with submission-order (deterministic) results, and
//!   its supervised mode ([`serve::BatchRunner::try_run`]) that contains panics, traps,
//!   deadlocks, exhausted budgets and cancellations as per-job
//!   [`serve::JobError`]s under a [`serve::RunPolicy`].
//! * [`daemon`] — the persistent serving tier above [`serve`]: a
//!   long-lived [`daemon::Daemon`] with a bounded admission queue
//!   (backpressure via [`daemon::Rejected`]), an LRU artifact cache
//!   keyed by [`daemon::ScenarioKey`] whose warm memory pools survive
//!   across requests, graceful drain, and a deterministic open-loop
//!   load generator ([`daemon::open_loop`]). `SERVING.md` documents the
//!   full serving contract.
//! * [`faults`] — the deterministic fault-injection harness driving the
//!   workspace's fault-containment differential tests.
//!
//! # Examples
//!
//! Simulate a full 16-core parallel MMSE and compare the fast estimate
//! against the cycle-accurate reference:
//!
//! ```
//! use terasim::experiments::{CycleEngine, JobSpec, ParallelConfig, ParallelScenario};
//! use terasim_kernels::Precision;
//!
//! let config = ParallelConfig { cores: 16, n: 4, precision: Precision::CDotp16, seed: 1, unroll: 2 };
//! let scenario = ParallelScenario::prepare(&config)?;
//! let job = JobSpec::seeded(config.seed);
//! let fast = scenario.run_fast(&job, 2, None)?;
//! let cycle = scenario.run_cycle(&job, CycleEngine::EventDriven)?;
//! assert!(fast.verified && cycle.verified);
//! // Banshee-style estimates land within a factor ~2 of the reference.
//! let err = (fast.cluster_cycles as f64 - cycle.cycles as f64).abs() / cycle.cycles as f64;
//! assert!(err < 1.0, "estimate error {err}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod daemon;
pub mod detectors;
pub mod experiments;
pub mod faults;
pub mod serve;

pub use detectors::{DetectorKind, IssDetector, NativeDut};
pub use serve::{BatchRunner, JobCtx, JobError, RunPolicy};
pub use terasim_terapool::CancelToken;
