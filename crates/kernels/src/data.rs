//! Host-side operand quantization, injection and result readback.
//!
//! The same quantization functions feed both the cluster memory (consumed
//! by the generated guest code) and the [`native`](crate::native) models,
//! so the two paths start from identical bits.

use terasim_softfloat::{F16, F8};
use terasim_terapool::ClusterMem;

use crate::layout::ProblemLayout;
use crate::native::Operands;
use crate::C64;

/// Quantizes a real to binary16 (single RNE rounding from `f64`).
pub fn q16(x: f64) -> F16 {
    F16::from_f64(x)
}

/// Quantizes a real to binary8 (single RNE rounding from `f64`).
pub fn q8(x: f64) -> F8 {
    F8::from_f64(x)
}

/// Packs a quantized complex binary16 value as its memory word
/// (`[im|re]`).
pub(crate) fn pack_h16(c: [F16; 2]) -> u32 {
    u32::from(c[0].to_bits()) | (u32::from(c[1].to_bits()) << 16)
}

/// Packs a quantized complex binary8 value as its memory halfword
/// (`[im|re]`).
pub(crate) fn pack_b8(c: [F8; 2]) -> u16 {
    u16::from(c[0].to_bits()) | (u16::from(c[1].to_bits()) << 8)
}

/// Packs a complex binary16 value as its memory word (`[im|re]`).
pub fn pack_c16(c: C64) -> u32 {
    pack_h16([q16(c.0), q16(c.1)])
}

/// Packs a complex binary8 value as its memory halfword (`[im|re]`).
pub fn pack_c8(c: C64) -> u16 {
    pack_b8([q8(c.0), q8(c.1)])
}

/// An `n × n` identity channel (useful for smoke tests: `x̂ ≈ y`).
pub fn identity_channel(n: usize) -> Vec<C64> {
    let mut h = vec![(0.0, 0.0); n * n];
    for i in 0..n {
        h[i * n + i] = (1.0, 0.0);
    }
    h
}

/// Writes one subcarrier problem's operands into cluster memory.
///
/// `h` is row-major `h[k*n + i]` = element `(row k, column i)`; the writer
/// transposes into the kernel's column-major storage. `y` has `n` entries;
/// `sigma` is the noise power σ². Quantizes (see [`Operands::quantize`])
/// and writes with [`write_operands`].
///
/// # Panics
///
/// Panics if slice lengths do not match `layout.n` or `problem` is out of
/// range.
pub fn write_problem(
    mem: &ClusterMem,
    layout: &ProblemLayout,
    problem: u32,
    h: &[C64],
    y: &[C64],
    sigma: f64,
) {
    let operands = Operands::quantize(layout.precision, layout.n as usize, h, y, sigma);
    write_operands(mem, layout, problem, &operands);
}

/// Writes one subcarrier problem's quantized operands into cluster
/// memory: `H` column-major, `y` and σ², at the layout's addresses.
///
/// # Panics
///
/// Panics if the operands' size is not `layout.n`, they were quantized
/// for the other element width, or `problem` is out of range.
pub fn write_operands(mem: &ClusterMem, layout: &ProblemLayout, problem: u32, operands: &Operands) {
    let n = layout.n;
    assert_eq!(operands.n(), n as usize, "operands must be n");
    assert!(problem < layout.problems, "problem index out of range");
    let wide = layout.precision.element_bytes() == 4;
    assert_eq!(operands.is_16bit(), wide, "operands quantized for another precision");

    let write = |addr: u32, word: u32| {
        if wide {
            mem.write_u32(addr, word);
        } else {
            mem.write_u16(addr, word as u16);
        }
    };
    for k in 0..n {
        for i in 0..n {
            write(layout.h_addr(problem, k, i), operands.h_word(k as usize, i as usize));
        }
    }
    for k in 0..n {
        write(layout.y_addr(problem, k), operands.y_word(k as usize));
    }
    mem.write_u16(layout.sigma_addr(problem), operands.sigma().to_bits());
}

/// Reads back the detected symbol vector of one problem (packed binary16
/// complex, `[re, im]` per entry).
pub fn read_xhat(mem: &ClusterMem, layout: &ProblemLayout, problem: u32) -> Vec<[F16; 2]> {
    (0..layout.n)
        .map(|i| {
            let word = mem.read_u32(layout.x_addr(problem, i));
            [F16::from_bits(word as u16), F16::from_bits((word >> 16) as u16)]
        })
        .collect()
}

/// Reads back a Gram-triangle entry from a core's scratch (test support).
pub fn read_g(
    mem: &ClusterMem,
    topo: &terasim_terapool::Topology,
    layout: &ProblemLayout,
    core: u32,
    i: u32,
    j: u32,
) -> [F16; 2] {
    let word = mem.read_u32(layout.g_addr(topo, core, i, j));
    [F16::from_bits(word as u16), F16::from_bits((word >> 16) as u16)]
}

#[cfg(test)]
mod tests {
    use terasim_terapool::Topology;

    use super::*;
    use crate::{MmseKernel, Precision};

    #[test]
    fn roundtrip_through_memory() {
        let topo = Topology::scaled(8);
        let kernel = MmseKernel::new(4, Precision::CDotp16).with_active_cores(2);
        let layout = kernel.layout(&topo).unwrap();
        let mem = ClusterMem::new(topo);
        let h = identity_channel(4);
        let y = vec![(0.5, -0.25); 4];
        write_problem(&mem, &layout, 1, &h, &y, 0.125);
        // H[0][0] of problem 1 is 1.0.
        assert_eq!(mem.read_u32(layout.h_addr(1, 0, 0)), pack_c16((1.0, 0.0)));
        // Column-major: H[1][0] sits 4 bytes after H[0][0] and is 0.
        assert_eq!(mem.read_u32(layout.h_addr(1, 1, 0)), 0);
        assert_eq!(mem.read_u16(layout.sigma_addr(1)), q16(0.125).to_bits());
    }

    #[test]
    fn quantizers_match_softfloat() {
        assert_eq!(pack_c16((1.0, -1.0)), 0xbc00_3c00);
        assert_eq!(pack_c8((1.0, -1.0)), 0xbc3c);
    }
}
