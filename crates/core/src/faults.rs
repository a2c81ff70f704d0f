//! Deterministic fault injection for the serving stack's containment
//! tests.
//!
//! A [`FaultPlan`] marks chosen job indices with a [`Fault`]; batch test
//! drivers consult the plan inside their job closure and trip the listed
//! fault instead of (or on top of) the healthy work. Every fault is a
//! *deterministic* function of the job index — a panic with a pinned
//! payload, a guest image that traps or deadlocks identically on both
//! backends, a tiny instruction budget, a fixed spin — so the workspace's
//! `faults` integration tests can require bit-exact results at every
//! healthy index while errors appear at exactly the injected ones, for
//! every worker count, pooled and unpooled.
//!
//! The faulty *guests* are real programs run through the real engines:
//! [`trap_artifacts`] builds an image whose first instruction jumps to
//! address `0` (outside the text segment — an
//! [`IllegalFetch`](terasim_iss::Trap::IllegalFetch) on both backends),
//! and [`deadlock_artifacts`] parks every hart in `wfi` with no waker
//! (the engine-level deadlock surface pinned in `terapool`'s cycle
//! tests). [`run_fault_guest_fast`] / [`run_fault_guest_cycle`] drive
//! them and map the outcome to the [`JobError`] taxonomy.
//!
//! # Examples
//!
//! ```
//! use terasim::faults::{Fault, FaultPlan};
//! use terasim::serve::{BatchRunner, JobError, RunPolicy};
//!
//! let plan = FaultPlan::new().inject(1, Fault::Panic).inject(3, Fault::Slow { spins: 100 });
//! let out = BatchRunner::with_workers(2).try_run(&RunPolicy::new(), None, (0..4u32).collect(), |_ctx, &j| {
//!     match plan.fault(j as usize) {
//!         Some(Fault::Panic) => terasim::faults::inject_panic(j as usize),
//!         Some(Fault::Slow { spins }) => {
//!             terasim::faults::spin(spins);
//!             Ok(j)
//!         }
//!         _ => Ok(j),
//!     }
//! });
//! assert!(matches!(out[1], Err(JobError::Panicked { .. })));
//! assert_eq!(out[3], Ok(3));
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use terasim_riscv::{Assembler, Image, Segment};
use terasim_terapool::{CycleSim, FastSim, SimArtifacts, Topology};

use crate::serve::JobError;

/// One injectable fault kind. Every kind is deterministic for a given
/// job index and configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The job closure panics with the pinned payload of
    /// [`panic_payload`].
    Panic,
    /// The job runs the [`trap_artifacts`] guest: an architectural
    /// [`IllegalFetch`](terasim_iss::Trap::IllegalFetch) at address `0`,
    /// identical on both backends.
    Trap,
    /// The job runs the [`deadlock_artifacts`] guest: every hart parks in
    /// `wfi` with no waker.
    Deadlock,
    /// The job runs its healthy guest under a per-core instruction budget
    /// too small to finish, exercising the engines' safety net.
    BudgetExhaust {
        /// The deliberately-too-small per-core instruction budget.
        budget: u64,
    },
    /// The job spins deterministically before doing its healthy work — a
    /// straggler, not an error; its result must still be bit-identical.
    Slow {
        /// Busy-loop iterations ([`spin`]).
        spins: u32,
    },
}

/// A deterministic assignment of [`Fault`]s to job indices.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, Fault>,
}

impl FaultPlan {
    /// An empty plan (every job healthy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `index` with `fault` (builder style; a later injection at
    /// the same index replaces the earlier one).
    #[must_use]
    pub fn inject(mut self, index: usize, fault: Fault) -> Self {
        self.faults.insert(index, fault);
        self
    }

    /// The fault injected at `index`, if any.
    pub fn fault(&self, index: usize) -> Option<Fault> {
        self.faults.get(&index).copied()
    }

    /// Whether `index` carries an injected fault that must surface as a
    /// [`JobError`] ([`Fault::Slow`] is a straggler, not an error).
    pub fn expects_error(&self, index: usize) -> bool {
        self.faults.get(&index).is_some_and(|f| !matches!(f, Fault::Slow { .. }))
    }

    /// The injected indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.faults.keys().copied()
    }
}

/// The pinned panic payload of [`Fault::Panic`] at `index` (tests match
/// the caught [`JobError::Panicked`] payload against this).
pub fn panic_payload(index: usize) -> String {
    format!("injected panic at job {index}")
}

/// Panics with [`panic_payload`]`(index)`.
pub fn inject_panic(index: usize) -> ! {
    panic!("{}", panic_payload(index));
}

/// Deterministic busy work for [`Fault::Slow`]: `spins` dependent
/// multiply-xor rounds the optimizer cannot elide.
pub fn spin(spins: u32) -> u32 {
    let mut acc = 0x9e37_79b9u32;
    for i in 0..spins {
        acc = std::hint::black_box(acc.wrapping_mul(0x85eb_ca6b) ^ i);
    }
    acc
}

fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut a = Assembler::new(Topology::L2_BASE);
    build(&mut a);
    let mut image = Image::new(Topology::L2_BASE);
    image.push_segment(Segment::from_words(Topology::L2_BASE, &a.finish().expect("fault guest assembles")));
    image
}

/// A guest whose first instruction returns to address `0` — outside the
/// text segment — raising `IllegalFetch { pc: 0 }` on both backends.
pub fn trap_image() -> Image {
    // `ret` is `jalr x0, ra, 0` and `ra` is zero at reset.
    image_of(|a| {
        a.ret();
    })
}

/// A guest where every hart parks in `wfi` with no waker: the canonical
/// guest deadlock (wfi-with-no-waker, pinned at engine level in the
/// cycle tests).
pub fn deadlock_image() -> Image {
    image_of(|a| {
        a.wfi();
        a.ecall();
    })
}

/// Shared artifacts for the [`trap_image`] guest on `topo`.
pub fn trap_artifacts(topo: Topology) -> Arc<SimArtifacts> {
    SimArtifacts::build(topo, &trap_image()).expect("trap guest translates")
}

/// Shared artifacts for the [`deadlock_image`] guest on `topo`.
pub fn deadlock_artifacts(topo: Topology) -> Arc<SimArtifacts> {
    SimArtifacts::build(topo, &deadlock_image()).expect("deadlock guest translates")
}

/// Runs a faulty guest on the fast backend over `cores` harts and
/// returns the [`JobError`] it produces.
///
/// # Panics
///
/// Panics if the guest completes cleanly — that would be a harness bug,
/// not an acceptable test outcome.
pub fn run_fault_guest_fast(arts: &Arc<SimArtifacts>, cores: u32) -> JobError {
    let mut sim = FastSim::from_artifacts(Arc::clone(arts));
    match sim.run_cores(0..cores, 1) {
        Err(trap) => JobError::Trap(trap),
        Ok(res) => JobError::check_fast(&res, None)
            .expect_err("fault guest must not complete cleanly (fast backend)"),
    }
}

/// Runs a faulty guest on the cycle backend over `cores` harts and
/// returns the [`JobError`] it produces.
///
/// # Panics
///
/// Panics if the guest completes cleanly — that would be a harness bug,
/// not an acceptable test outcome.
pub fn run_fault_guest_cycle(arts: &Arc<SimArtifacts>, cores: u32) -> JobError {
    let mut sim = CycleSim::from_artifacts(Arc::clone(arts));
    match sim.run(cores) {
        Err(trap) => JobError::Trap(trap),
        Ok(res) => JobError::check_cycle(&res, None)
            .expect_err("fault guest must not complete cleanly (cycle backend)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terasim_iss::Trap;

    #[test]
    fn trap_guest_raises_the_same_illegal_fetch_on_both_backends() {
        let arts = trap_artifacts(Topology::scaled(8));
        let fast = run_fault_guest_fast(&arts, 1);
        let cycle = run_fault_guest_cycle(&arts, 1);
        assert_eq!(fast, JobError::Trap(Trap::IllegalFetch { pc: 0 }));
        assert_eq!(fast, cycle, "trap must be backend-independent");
    }

    #[test]
    fn deadlock_guest_parks_every_hart_on_both_backends() {
        let arts = deadlock_artifacts(Topology::scaled(8));
        for err in [run_fault_guest_fast(&arts, 4), run_fault_guest_cycle(&arts, 4)] {
            let JobError::Deadlocked { parked } = err else { panic!("expected Deadlocked, got {err:?}") };
            assert_eq!(parked, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn spin_is_deterministic() {
        assert_eq!(spin(1000), spin(1000));
        assert_ne!(spin(1000), spin(1001));
    }
}
