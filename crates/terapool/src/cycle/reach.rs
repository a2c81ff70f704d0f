//! Static local-only reachability over the decoded program.
//!
//! The adaptive epoch driver may only extend an epoch while no core
//! can issue a *possibly-remote* uop (any data-memory access — the static
//! pass cannot know whether a register-based address lands in the local
//! group, a remote group, the L2, or the control region, so every
//! `is_mem` uop counts). This pass computes, for every PC, a lower bound
//! on the number of instructions a core starting at that PC must issue
//! before its first possibly-remote issue. Because every issue consumes
//! at least one cycle, a core that becomes runnable at cycle `w` with
//! `dist(pc) = d` cannot issue remote traffic before cycle `w + d` —
//! the bound the epoch driver turns into a safe extension horizon.
//!
//! The distance is the shortest path to any memory instruction over the
//! static control-flow graph:
//!
//! - a memory instruction has distance 0;
//! - `jal` follows its target, `branch` both arms, everything
//!   straight-line falls through to `pc + 4`;
//! - `jalr` has dynamic successors, so it conservatively assumes the
//!   very next instruction could be remote (distance 1);
//! - edges leaving the decoded text (fallthrough off the end, jump
//!   targets outside) are treated like `jalr` targets: unknown, so the
//!   instruction gets distance 1;
//! - `wfi`, `ecall` and `ebreak` terminate the stream (the core parks,
//!   exits, or traps before issuing anything further) — a PC that can
//!   only reach terminators keeps the infinite distance
//!   [`ReachMap::LOCAL_INF`].
//!
//! Distances are exact shortest paths (multi-source BFS on the reversed
//! CFG), capped at `u16::MAX - 1`; the cap only matters for programs
//! whose nearest memory access is further than any extension the
//! epoch driver would grant anyway.

use terasim_iss::Program;
use terasim_riscv::Inst;

/// Sentinel distance: no possibly-remote uop is reachable from this PC.
const INF: u16 = u16::MAX;

/// Per-PC lower bounds on instructions-until-possibly-remote-issue.
///
/// Built once per [`super::super::SimArtifacts`](crate::SimArtifacts)
/// and shared by every domain engine (and, through the artifact cache,
/// every daemon job on the same scenario).
#[derive(Debug)]
pub struct ReachMap {
    text_base: u32,
    dist: Vec<u16>,
}

impl ReachMap {
    /// Distance reported for PCs that can never reach a memory access
    /// (or that leave the decoded text — fetching there traps, which
    /// also never produces remote traffic).
    pub const LOCAL_INF: u64 = u64::MAX;

    /// Runs the static pass over the decoded program.
    pub fn build(program: &Program) -> Self {
        let n = program.len();
        let base = program.text_base();
        let inst_at = |idx: usize| program.fetch(base.wrapping_add((idx * 4) as u32));
        // Forward successor sets as indices; `None` marks an unknown
        // successor (jalr target or an edge leaving the text).
        let index_of = |pc: u32| -> Option<usize> {
            let idx = (pc.wrapping_sub(base) / 4) as usize;
            (pc.is_multiple_of(4) && idx < n).then_some(idx)
        };

        let mut dist = vec![INF; n];
        // Seed the BFS frontier with distance-0 nodes (memory accesses)
        // and distance-1 nodes (unknown successors).
        let mut frontier: Vec<usize> = Vec::new();
        let mut next: Vec<usize> = Vec::new();
        for (idx, d) in dist.iter_mut().enumerate() {
            let Some(inst) = inst_at(idx) else { continue };
            if inst.is_mem() {
                *d = 0;
                frontier.push(idx);
            }
        }
        // Reverse adjacency: predecessors of every node, derived from the
        // forward successor relation in one pass.
        let mut pred_heads = vec![usize::MAX; n];
        let mut pred_links: Vec<(usize, usize)> = Vec::new(); // (pred, next link)
        let link = |preds: &mut Vec<(usize, usize)>, heads: &mut Vec<usize>, from: usize, to: usize| {
            preds.push((from, heads[to]));
            heads[to] = preds.len() - 1;
        };
        for (idx, d) in dist.iter_mut().enumerate() {
            let Some(inst) = inst_at(idx) else { continue };
            let pc = base.wrapping_add((idx * 4) as u32);
            let mut unknown = false;
            let mut add = |target: Option<usize>, unknown: &mut bool| match target {
                Some(t) => link(&mut pred_links, &mut pred_heads, idx, t),
                None => *unknown = true,
            };
            match inst {
                Inst::Wfi | Inst::Ecall | Inst::Ebreak => {}
                Inst::Jal { offset, .. } => {
                    add(index_of(pc.wrapping_add(offset as u32)), &mut unknown);
                }
                Inst::Jalr { .. } => unknown = true,
                Inst::Branch { offset, .. } => {
                    add(index_of(pc.wrapping_add(offset as u32)), &mut unknown);
                    add(index_of(pc.wrapping_add(4)), &mut unknown);
                }
                _ => add(index_of(pc.wrapping_add(4)), &mut unknown),
            }
            if unknown && *d > 1 {
                *d = 1;
                next.push(idx);
            }
        }

        // Multi-source BFS on the reversed CFG, one distance band at a
        // time: `frontier` holds band `d`, `next` band `d + 1`.
        let mut d = 0u16;
        while !frontier.is_empty() || !next.is_empty() {
            for &node in &frontier {
                if dist[node] != d {
                    continue; // superseded by a tighter unknown-successor seed
                }
                let nd = d.saturating_add(1).min(INF - 1);
                let mut cursor = pred_heads[node];
                while cursor != usize::MAX {
                    let (pred, next_link) = pred_links[cursor];
                    cursor = next_link;
                    if dist[pred] > nd {
                        dist[pred] = nd;
                        next.push(pred);
                    }
                }
            }
            frontier = std::mem::take(&mut next);
            d += 1;
        }

        Self { text_base: base, dist }
    }

    /// Lower bound on the number of instructions a core at `pc` issues
    /// before its first possibly-remote uop. [`Self::LOCAL_INF`] when no
    /// memory access is statically reachable.
    #[inline]
    pub fn dist(&self, pc: u32) -> u64 {
        if !pc.is_multiple_of(4) {
            return Self::LOCAL_INF; // fetch traps before anything issues
        }
        let idx = (pc.wrapping_sub(self.text_base) / 4) as usize;
        match self.dist.get(idx) {
            Some(&INF) | None => Self::LOCAL_INF,
            Some(&d) => u64::from(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terasim_riscv::{Assembler, Image, Reg, Segment};

    fn program_of(build: impl FnOnce(&mut Assembler)) -> Program {
        let mut a = Assembler::new(0x8000_0000);
        build(&mut a);
        let mut image = Image::new(0x8000_0000);
        image.push_segment(Segment::from_words(0x8000_0000, &a.finish().unwrap()));
        Program::translate(&image).unwrap()
    }

    #[test]
    fn straight_line_distances_count_down_to_the_load() {
        let p = program_of(|a| {
            a.li(Reg::A0, 1); // may take 2 insts (li can expand); measure below
            a.lw(Reg::A1, 0, Reg::A0);
            a.ecall();
        });
        let base = p.text_base();
        // Find the load and check each earlier pc counts down to it.
        let load_idx = (0..p.len())
            .find(|&i| p.fetch(base + (i * 4) as u32).unwrap().is_mem())
            .expect("guest contains a load");
        let map = ReachMap::build(&p);
        for i in 0..load_idx {
            assert_eq!(map.dist(base + (i * 4) as u32), (load_idx - i) as u64);
        }
        assert_eq!(map.dist(base + (load_idx * 4) as u32), 0);
    }

    #[test]
    fn pure_compute_loop_is_local_forever() {
        let p = program_of(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 10);
            let top = a.new_label();
            a.bind(top);
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.ecall();
        });
        let map = ReachMap::build(&p);
        for i in 0..p.len() {
            assert_eq!(map.dist(p.text_base() + (i * 4) as u32), ReachMap::LOCAL_INF);
        }
    }

    #[test]
    fn loop_with_a_store_bounds_every_iteration_point() {
        let p = program_of(|a| {
            a.li(Reg::A0, 0x1000);
            let top = a.new_label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, 1);
            a.sw(Reg::T0, 0, Reg::A0);
            a.bnez(Reg::T0, top);
            a.ecall();
        });
        let map = ReachMap::build(&p);
        let base = p.text_base();
        for i in 0..p.len() {
            let inst = p.fetch(base + (i * 4) as u32).unwrap();
            let d = map.dist(base + (i * 4) as u32);
            if inst.is_mem() {
                assert_eq!(d, 0);
            } else if !matches!(inst, Inst::Ecall) {
                assert!((1..8).contains(&d), "pc {i} distance {d}");
            }
        }
    }

    #[test]
    fn jalr_assumes_the_worst_about_its_target() {
        let p = program_of(|a| {
            a.li(Reg::T0, 0x7fff_0000);
            a.inst(Inst::Jalr { rd: Reg::Ra, rs1: Reg::T0, offset: 0 });
            a.ecall();
        });
        let map = ReachMap::build(&p);
        let base = p.text_base();
        let jalr_idx = (0..p.len())
            .find(|&i| matches!(p.fetch(base + (i * 4) as u32), Some(Inst::Jalr { .. })))
            .unwrap();
        assert_eq!(map.dist(base + (jalr_idx * 4) as u32), 1);
    }

    #[test]
    fn misaligned_and_out_of_text_pcs_are_local() {
        let p = program_of(|a| {
            a.ecall();
        });
        let map = ReachMap::build(&p);
        assert_eq!(map.dist(p.text_base() + 2), ReachMap::LOCAL_INF);
        assert_eq!(map.dist(p.text_base() + (p.len() * 4) as u32), ReachMap::LOCAL_INF);
        assert_eq!(map.dist(0), ReachMap::LOCAL_INF);
    }
}
