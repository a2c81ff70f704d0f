//! Cluster-memory placement of MMSE operands (paper §IV, Figure 4).
//!
//! Inputs (`H`, `y`, `σ²`) and outputs (`x̂`) live in the *interleaved* L1
//! view: consecutive elements spread over different banks, so cores fetch
//! from many banks at once. Intermediates (`G`, `L`, `w`, reciprocal
//! diagonal) live in the *sequential* view: each core's scratch stays in
//! its own tile's banks. Because both views alias the same physical banks,
//! the layout splits each bank's offset space — interleaved data at the
//! bottom, per-core scratch at the top.

use core::fmt;

use terasim_terapool::Topology;

use crate::emit::MmseKernel;
use crate::Precision;

/// Error produced when a kernel configuration does not fit the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The interleaved operand area plus per-core scratch exceeds L1.
    Capacity {
        /// Bytes needed in the interleaved region.
        interleaved: u32,
        /// Bytes needed per tile for core scratch.
        scratch_per_tile: u32,
        /// Bytes available per tile.
        tile_bytes: u32,
    },
    /// More active cores were requested than the topology has.
    TooManyCores {
        /// Requested count.
        requested: u32,
        /// Available count.
        available: u32,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Capacity { interleaved, scratch_per_tile, tile_bytes } => write!(
                f,
                "operands do not fit L1: {interleaved} B interleaved + {scratch_per_tile} B/tile scratch > {tile_bytes} B/tile"
            ),
            LayoutError::TooManyCores { requested, available } => {
                write!(f, "{requested} active cores requested but the cluster has {available}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Resolved addresses of every operand region.
///
/// All `*_base`/`*_stride` pairs address the interleaved L1 view; the
/// `g/l/w/rdiag` offsets are relative to each core's sequential-view
/// scratch base ([`ProblemLayout::core_scratch_base`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemLayout {
    /// MIMO size `N` (the paper uses square `N×N` problems).
    pub n: u32,
    /// Kernel precision (fixes element sizes).
    pub precision: Precision,
    /// Total problems (`active_cores * problems_per_core`).
    pub problems: u32,
    /// Problems each active core solves back to back.
    pub problems_per_core: u32,
    /// Harts that participate.
    pub active_cores: u32,
    /// Barrier counter word (interleaved region).
    pub barrier_addr: u32,
    /// Channel matrices, column-major per problem.
    pub h_base: u32,
    /// Bytes between consecutive problems' `H`.
    pub h_stride: u32,
    /// Received vectors.
    pub y_base: u32,
    /// Bytes between consecutive problems' `y`.
    pub y_stride: u32,
    /// Noise powers (binary16, one per problem).
    pub sigma_base: u32,
    /// Bytes between consecutive problems' `σ²`.
    pub sigma_stride: u32,
    /// Detected symbols (packed binary16 complex).
    pub x_base: u32,
    /// Bytes between consecutive problems' `x̂`.
    pub x_stride: u32,
    /// Sequential-view byte offset where per-core scratch begins in each
    /// tile (keeps scratch rows clear of the interleaved area).
    pub seq_scratch_off: u32,
    /// Scratch bytes per core.
    pub core_scratch: u32,
    /// Offset of the `G` triangle inside core scratch.
    pub g_off: u32,
    /// Offset of the `L` triangle inside core scratch.
    pub l_off: u32,
    /// Offset of the work vector `w` (holds `z`, then `w`).
    pub w_off: u32,
    /// Offset of the reciprocal-diagonal vector.
    pub rdiag_off: u32,
}

impl ProblemLayout {
    pub(crate) fn resolve(kernel: &MmseKernel, topo: &Topology) -> Result<Self, LayoutError> {
        let n = kernel.n;
        let eb = kernel.precision.element_bytes();
        let active_cores = kernel.active_cores.unwrap_or(topo.num_cores());
        if active_cores > topo.num_cores() {
            return Err(LayoutError::TooManyCores { requested: active_cores, available: topo.num_cores() });
        }
        let problems = active_cores * kernel.problems_per_core;

        let align = |x: u32, a: u32| x.div_ceil(a) * a;
        let barrier_addr = Topology::L1_BASE;
        let h_base = barrier_addr + 64;
        // Ablation D4: bank-aligned strides put every problem's operands in
        // the same banks (maximal conflicts); default packs them densely so
        // the interleaved view spreads traffic (paper Figure 4).
        let row = topo.num_banks() * 4;
        let h_stride = if kernel.bank_aligned_inputs { align(n * n * eb, row) } else { n * n * eb };
        let y_base = align(h_base + problems * h_stride, 4);
        let y_stride = if kernel.bank_aligned_inputs { align(n * eb, row) } else { n * eb };
        let sigma_base = align(y_base + problems * y_stride, 4);
        let sigma_stride = 4;
        let x_base = align(sigma_base + problems * sigma_stride, 4);
        let x_stride = n * 4;
        let interleaved_end = x_base + problems * x_stride;

        // Scratch per core: G and L triangles (packed f16 complex), w, rdiag.
        let tri_bytes = n * (n + 1) / 2 * 4;
        let g_off = 0;
        let l_off = g_off + tri_bytes;
        let w_off = l_off + tri_bytes;
        let rdiag_off = w_off + n * 4;
        let core_scratch = align(rdiag_off + align(n * 2, 4), 8);

        // Bank-offset split: interleaved rows come first.
        let row_bytes = topo.banks_per_tile * 4; // one bank-offset row, per tile
        let int_rows = (interleaved_end / 4).div_ceil(topo.num_banks());
        let seq_scratch_off = int_rows * row_bytes;
        let scratch_per_tile = core_scratch * topo.cores_per_tile;
        if seq_scratch_off + scratch_per_tile > topo.tile_spm_bytes {
            return Err(LayoutError::Capacity {
                interleaved: interleaved_end,
                scratch_per_tile: seq_scratch_off + scratch_per_tile,
                tile_bytes: topo.tile_spm_bytes,
            });
        }

        Ok(Self {
            n,
            precision: kernel.precision,
            problems,
            problems_per_core: kernel.problems_per_core,
            active_cores,
            barrier_addr,
            h_base,
            h_stride,
            y_base,
            y_stride,
            sigma_base,
            sigma_stride,
            x_base,
            x_stride,
            seq_scratch_off,
            core_scratch,
            g_off,
            l_off,
            w_off,
            rdiag_off,
        })
    }

    /// Address of `H[k][i]` (row `k`, column `i`) of `problem` —
    /// column-major storage.
    pub fn h_addr(&self, problem: u32, k: u32, i: u32) -> u32 {
        debug_assert!(k < self.n && i < self.n && problem < self.problems);
        self.h_base + problem * self.h_stride + (i * self.n + k) * self.precision.element_bytes()
    }

    /// Address of `y[k]` of `problem`.
    pub fn y_addr(&self, problem: u32, k: u32) -> u32 {
        self.y_base + problem * self.y_stride + k * self.precision.element_bytes()
    }

    /// Address of `σ²` of `problem`.
    pub fn sigma_addr(&self, problem: u32) -> u32 {
        self.sigma_base + problem * self.sigma_stride
    }

    /// Address of `x̂[i]` of `problem` (packed binary16 complex).
    pub fn x_addr(&self, problem: u32, i: u32) -> u32 {
        self.x_base + problem * self.x_stride + i * 4
    }

    /// Sequential-view base address of `core`'s scratch area.
    pub fn core_scratch_base(&self, topo: &Topology, core: u32) -> u32 {
        let tile = topo.tile_of_core(core);
        let within = core % topo.cores_per_tile;
        Topology::SEQ_BASE + tile * Topology::SEQ_STRIDE + self.seq_scratch_off + within * self.core_scratch
    }

    /// Address of triangle entry `(i, j)` (`j <= i`) in `core`'s `G`.
    pub fn g_addr(&self, topo: &Topology, core: u32, i: u32, j: u32) -> u32 {
        debug_assert!(j <= i && i < self.n);
        self.core_scratch_base(topo, core) + self.g_off + (i * (i + 1) / 2 + j) * 4
    }

    /// Address of triangle entry `(i, j)` in `core`'s `L`.
    pub fn l_addr(&self, topo: &Topology, core: u32, i: u32, j: u32) -> u32 {
        debug_assert!(j <= i && i < self.n);
        self.core_scratch_base(topo, core) + self.l_off + (i * (i + 1) / 2 + j) * 4
    }

    /// First problem index handled by `core`.
    pub fn first_problem(&self, core: u32) -> u32 {
        core * self.problems_per_core
    }
}

#[cfg(test)]
mod tests {
    use crate::MmseKernel;

    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let topo = Topology::scaled(64);
        for precision in Precision::ALL {
            let kernel = MmseKernel::new(8, precision);
            let l = kernel.layout(&topo).unwrap();
            assert!(l.h_base >= l.barrier_addr + 4);
            assert!(l.y_base >= l.h_base + l.problems * l.h_stride);
            assert!(l.sigma_base >= l.y_base + l.problems * l.y_stride);
            assert!(l.x_base >= l.sigma_base + l.problems * l.sigma_stride);
        }
    }

    #[test]
    fn scratch_rows_clear_interleaved_rows() {
        let topo = Topology::scaled(64);
        let kernel = MmseKernel::new(8, Precision::CDotp16);
        let l = kernel.layout(&topo).unwrap();
        let int_end = l.x_base + l.problems * l.x_stride;
        // Physical row of the last interleaved word vs the first scratch word.
        let last_int_row = (int_end / 4 - 1) / topo.num_banks();
        let first_scratch_row = l.seq_scratch_off / 4 / topo.banks_per_tile;
        assert!(first_scratch_row > last_int_row);
        // And the scratch slots are valid L1 addresses.
        let base = l.core_scratch_base(&topo, 63);
        assert!(topo.l1_slot(base + l.core_scratch - 4).is_some());
    }

    #[test]
    fn capacity_error_when_too_big() {
        let topo = Topology::scaled(1024); // 4 MiB L1, 32 KiB tiles
        let kernel = MmseKernel::new(32, Precision::CDotp16);
        assert!(matches!(kernel.layout(&topo), Err(LayoutError::Capacity { .. })));
        // A deeper-bank configuration fits: where the taped-out 32 KiB
        // tiles are too small, the experiments deepen the banks instead
        // (`experiments::topology_for`).
        let big = Topology { tile_spm_bytes: 128 << 10, ..topo };
        assert!(kernel.layout(&big).is_ok());
    }

    #[test]
    fn address_helpers_are_consistent() {
        let topo = Topology::scaled(16);
        let kernel = MmseKernel::new(4, Precision::WDotp8).with_problems_per_core(2);
        let l = kernel.layout(&topo).unwrap();
        assert_eq!(l.problems, 32);
        // Column-major: consecutive k in one column are adjacent.
        assert_eq!(l.h_addr(1, 1, 0), l.h_addr(1, 0, 0) + 2);
        // Columns are n elements apart.
        assert_eq!(l.h_addr(0, 0, 1), l.h_addr(0, 0, 0) + 4 * 2);
        assert_eq!(l.first_problem(3), 6);
    }
}
