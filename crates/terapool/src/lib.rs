//! A simulatable model of the TeraPool-SDR many-core cluster (paper §II).
//!
//! TeraPool is the largest shared-memory RISC-V cluster in the open
//! literature: 1024 Snitch cores organised as 8 cores per **Tile** (32 KiB
//! of scratchpad in word-interleaved banks, 1-cycle access, 4 KiB shared
//! I$), 8 Tiles per **SubGroup**, 4 SubGroups per **Group** and 4 Groups
//! per cluster — 128 Tiles and 4 MiB of L1 in total, glued by hierarchical
//! crossbars with pipeline stages at each boundary (≤ 9 cycles without
//! contention). An AXI port and a DMA engine move data from L2.
//!
//! The crate offers the two simulation backends the paper compares:
//!
//! * [`FastSim`] — the Banshee-style mode: every hart executes
//!   independently (parallelizable over host threads) with the static
//!   timing model of `terasim-iss`; barriers park harts cooperatively.
//! * [`CycleSim`] — the QuestaSim stand-in: a cycle-stepped model with
//!   per-bank arbitration, NUMA pipeline latencies, shared-I$ refills, a
//!   non-pipelined FP divide/sqrt unit and `wfi` sleep — the reference
//!   timing the paper's Figures 7–8 are measured against. The engine
//!   **shards by group** on every topology: each group is an independent
//!   arbitration domain (a single-group cluster is one domain) advancing
//!   in lockstep epochs, scheduled event-driven inside (a calendar-wheel
//!   ready queue keyed on per-core wake cycles), with cross-group and
//!   L2/control traffic exchanged through mailboxes at epoch boundaries
//!   ([`CycleSim::run`] drives the domains on the calling thread,
//!   [`CycleSim::run_parallel`] on host threads; results are
//!   bit-identical at every thread count). A full-scan scheduler of the
//!   same epoch-deferred model is retained as [`CycleSim::run_naive`] and
//!   pinned bit-identical by the workspace's differential tests.
//!
//! Both backends execute the *same* pre-decoded program through the same
//! [`Cpu`](terasim_iss::Cpu) semantics, so results are bit-identical and
//! only timing differs.
//!
//! # Artifacts vs. jobs
//!
//! Construction is split into two layers (see [`SimArtifacts`]):
//! everything immutable — decoded program, lowered micro-op tables,
//! topology maps, the initial memory image — lives in a shared
//! `Arc<SimArtifacts>` built once per scenario, while `FastSim`/`CycleSim`
//! are thin per-job mutable state (private [`ClusterMem`], scoreboards,
//! scheduler queues) instantiated from it via `from_artifacts`. The
//! plain `new(topo, &image)` constructors build a single-use artifact set
//! internally, so one-shot use reads exactly as before; batch drivers
//! (e.g. `terasim::serve::BatchRunner`) share one set across hundreds of
//! jobs and skip the per-run rebuild entirely. The remaining per-job
//! fixed cost — mapping the private `ClusterMem` — is removed by the
//! recycling [`MemPool`]: simulators built with `from_pool` return their
//! arena on drop, and the next job gets it back reset (only the dirty
//! footprint is re-zeroed), bit-identical to a fresh mapping. Parked
//! arenas are kept per geometry in an [`ArenaBank`], so they serve every
//! scenario of that geometry and outlive the pool that parked them.
//!
//! # Examples
//!
//! ```
//! use terasim_terapool::{FastSim, Topology};
//! use terasim_riscv::{Assembler, Image, Reg, Segment};
//!
//! // Every core writes its hart id to L1 and exits.
//! let topo = Topology::scaled(16);
//! let mut a = Assembler::new(Topology::L2_BASE);
//! a.csrr(Reg::T0, terasim_riscv::csr::MHARTID);
//! a.slli(Reg::T1, Reg::T0, 2);
//! a.sw(Reg::T0, 0, Reg::T1);
//! a.ecall();
//! let mut image = Image::new(Topology::L2_BASE);
//! image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish()?));
//!
//! let mut sim = FastSim::new(topo, &image)?;
//! let result = sim.run_all(1)?;
//! assert_eq!(result.per_core.len(), 16);
//! assert_eq!(sim.memory().read_u32(4 * 7), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifacts;
mod cancel;
mod cycle;
mod fast;
mod mem;
mod pool;
mod topology;

pub use artifacts::SimArtifacts;
pub use cancel::CancelToken;
pub use cycle::{CycleResult, CycleSim, CycleStats, EpochReport};
pub use fast::{ClusterResult, FastSim};
pub use mem::{ClusterMem, CoreMem};
pub use pool::{ArenaBank, BankGeometry, MemPool, PoolStats};
pub use topology::Topology;
