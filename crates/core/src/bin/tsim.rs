//! `tsim` — command-line front end to the terasim co-simulation framework.
//!
//! ```text
//! tsim run    --mimo 8 --precision 16bCDotp --cores 64 --backend fast|cycle
//! tsim symbol --mimo 4 --precision 16bHalf --nsc 128
//! tsim ber    --mimo 4 --mod 16qam --channel awgn --detector 16bCDotp --snr 6,10,14,18
//! tsim info   --cores 1024
//! ```

use std::process::ExitCode;

use terasim::experiments::{
    self, BatchConfig, CycleEngine, JobSpec, ParallelConfig, ParallelScenario, SymbolScenario,
};
use terasim::DetectorKind;
use terasim_kernels::Precision;
use terasim_phy::{ChannelKind, Mimo, Modulation};
use terasim_terapool::Topology;

#[path = "common/args.rs"]
mod args;
use args::Args;

/// Unwraps a numeric flag or exits with the parse error naming the flag.
/// The optional fourth argument is a range check: a value it rejects
/// exits with an error naming the flag and the values it takes.
macro_rules! flag {
    ($args:expr, $name:expr, $default:expr) => {
        flag!($args, $name, $default, (|_| true, ""))
    };
    ($args:expr, $name:expr, $default:expr, $range:expr) => {{
        let (valid, want): (fn(u32) -> bool, &str) = $range;
        match $args.get::<u32>($name, $default) {
            Ok(v) if valid(v) => v,
            Ok(v) => {
                eprintln!("error: invalid value for {}: {v} (want {want})", $name);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }};
}

/// `--cores`: the cluster sizes `Topology::scaled` builds.
const CORES: (fn(u32) -> bool, &str) =
    (|c| c.is_power_of_two() && (8..=1024).contains(&c), "a power of two in 8..=1024");
/// `--mimo` on the simulated kernels: the sizes `MmseKernel` emits.
const MIMO: (fn(u32) -> bool, &str) = (|n| n.is_power_of_two() && (4..=32).contains(&n), "4, 8, 16 or 32");
/// `--threads`, `--nsc`, `--unroll`, `--errors`, native `--mimo`: at
/// least one.
const POSITIVE: (fn(u32) -> bool, &str) = (|v| v >= 1, "at least 1");

fn parse_precision(s: &str) -> Option<Precision> {
    Precision::ALL.into_iter().find(|p| p.paper_name().eq_ignore_ascii_case(s))
}

/// The `--precision` names, comma-separated.
fn precisions() -> String {
    Precision::ALL.map(|p| p.paper_name()).join(", ")
}

/// The error for a flag value outside the names the flag takes.
fn invalid(flag: &str, value: &str, want: &str) -> ExitCode {
    eprintln!("error: invalid value for {flag}: {value:?} (want one of {want})");
    ExitCode::FAILURE
}

/// `--precision`, defaulting to 16bCDotp.
fn precision_of(args: &Args) -> Result<Precision, ExitCode> {
    let v = args.value("--precision").unwrap_or("16bCDotp");
    parse_precision(v).ok_or_else(|| invalid("--precision", v, &precisions()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage (defaults after =):\n  tsim run    [--mimo 4|8|16|32 =4] [--precision P =16bCDotp] [--cores N =64] [--backend fast|cycle =fast] [--threads T =2 fast, 1 cycle] [--seed S =1] [--unroll U =2]\n  tsim symbol [--mimo 4|8|16|32 =4] [--precision P =16bCDotp] [--nsc N =128] [--seed S =1] [--unroll U =2]\n  tsim ber    [--mimo N =4] [--detector 64b|P|iss:P =64b] [--mod qpsk|16qam|64qam =16qam] [--channel awgn|rayleigh =awgn] [--snr a,b,c =6,10,14,18] [--errors E =500]\n  tsim info   [--cores N =1024]\n\nprecisions P: {}",
        precisions()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage();
    };
    let (run, flags): (fn(&Args) -> ExitCode, &[&str]) = match cmd.as_str() {
        "run" => {
            (cmd_run, &["--mimo", "--precision", "--cores", "--backend", "--threads", "--seed", "--unroll"])
        }
        "symbol" => (cmd_symbol, &["--mimo", "--precision", "--nsc", "--seed", "--unroll"]),
        "ber" => (cmd_ber, &["--mimo", "--detector", "--mod", "--channel", "--snr", "--errors"]),
        "info" => (cmd_info, &["--cores"]),
        _ => return usage(),
    };
    match Args::parse(rest, flags, &["--help", "-h"]) {
        Ok(args) if args.switch("--help") || args.switch("-h") => usage(),
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("error: tsim {cmd}: {e}");
            usage()
        }
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    let n = flag!(args, "--mimo", 4, MIMO);
    let precision = match precision_of(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let config = ParallelConfig {
        cores: flag!(args, "--cores", 64, CORES),
        n,
        precision,
        seed: u64::from(flag!(args, "--seed", 1)),
        unroll: flag!(args, "--unroll", 2, POSITIVE),
    };
    match args.value("--backend").unwrap_or("fast") {
        "fast" => {
            let threads = flag!(args, "--threads", 2, POSITIVE) as usize;
            let job = JobSpec::seeded(config.seed);
            let run = ParallelScenario::prepare(&config)
                .and_then(|s| s.run_fast(&job, threads, None).map_err(Into::into));
            match run {
                Ok(out) => {
                    println!(
                        "fast: {} cores x {}x{} {} -> {} instructions, ~{} cluster cycles, {:.2} MIPS, wall {:?}, verified={}",
                        config.cores,
                        n,
                        n,
                        precision,
                        out.instructions,
                        out.cluster_cycles,
                        out.mips,
                        out.wall,
                        out.verified
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cycle" => {
            // Bit-identical at every thread count; one thread is
            // `CycleSim::run`. The engine shards by group, so it uses at
            // most one host thread per group: report what it used.
            let threads = flag!(args, "--threads", 1, POSITIVE) as usize;
            let threads = threads.min(Topology::scaled(config.cores).num_domains() as usize);
            let job = JobSpec::seeded(config.seed);
            let run = ParallelScenario::prepare(&config)
                .and_then(|s| s.run_cycle(&job, CycleEngine::Parallel(threads)).map_err(Into::into));
            match run {
                Ok(out) => {
                    let b = out.breakdown;
                    println!(
                        "cycle: {} cores x {}x{} {} on {threads} host threads -> {} cycles (instr {} raw {} lsu {} ins {} acc {} wfi {}), wall {:?}, verified={}",
                        config.cores,
                        n,
                        n,
                        precision,
                        out.cycles,
                        b.instructions,
                        b.stall_raw,
                        b.stall_lsu,
                        b.stall_ins,
                        b.stall_acc,
                        b.stall_wfi,
                        out.wall,
                        out.verified
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        other => invalid("--backend", other, "fast, cycle"),
    }
}

fn cmd_symbol(args: &Args) -> ExitCode {
    let precision = match precision_of(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let config = BatchConfig {
        n: flag!(args, "--mimo", 4, MIMO),
        precision,
        nsc: flag!(args, "--nsc", 128, POSITIVE),
        seed: u64::from(flag!(args, "--seed", 1)),
        unroll: flag!(args, "--unroll", 2, POSITIVE),
    };
    let run = SymbolScenario::prepare(&config)
        .and_then(|s| s.run(&JobSpec::seeded(config.seed)).map_err(Into::into));
    match run {
        Ok(out) => {
            println!(
                "symbol: NSC={} {}x{} {} -> {} instructions, {} Snitch cycles, {:.2} MIPS, wall {:?}, verified={}",
                config.nsc, config.n, config.n, precision, out.instructions, out.cycles, out.mips, out.wall, out.verified
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ber(args: &Args) -> ExitCode {
    let detector = match args.value("--detector").unwrap_or("64b") {
        "64b" | "64bDouble" => DetectorKind::Reference64,
        s => {
            let kind = match s.strip_prefix("iss:") {
                Some(rest) => parse_precision(rest).map(DetectorKind::Iss),
                None => parse_precision(s).map(DetectorKind::Native),
            };
            match kind {
                Some(kind) => kind,
                None => return invalid("--detector", s, &format!("64b, P, iss:P for P in {}", precisions())),
            }
        }
    };
    // The native models take any positive size, the simulated kernel only
    // the ones it emits.
    let n = match detector {
        DetectorKind::Iss(_) => flag!(args, "--mimo", 4, MIMO),
        _ => flag!(args, "--mimo", 4, POSITIVE),
    } as usize;
    let modulation = match args.value("--mod").unwrap_or("16qam") {
        "qpsk" => Modulation::Qpsk,
        "16qam" => Modulation::Qam16,
        "64qam" => Modulation::Qam64,
        other => return invalid("--mod", other, "qpsk, 16qam, 64qam"),
    };
    let channel = match args.value("--channel").unwrap_or("awgn") {
        "awgn" => ChannelKind::Awgn,
        "rayleigh" => ChannelKind::Rayleigh,
        other => return invalid("--channel", other, "awgn, rayleigh"),
    };
    let mut snrs: Vec<f64> = Vec::new();
    for part in args.value("--snr").unwrap_or("6,10,14,18").split(',') {
        match part.trim().parse() {
            Ok(v) => snrs.push(v),
            Err(_) => {
                eprintln!("error: invalid value for --snr: {:?} is not a number", part.trim());
                return ExitCode::FAILURE;
            }
        }
    }
    if snrs.is_empty() {
        return usage();
    }
    let scenario = Mimo { n_tx: n, n_rx: n, modulation, channel };
    let errors = u64::from(flag!(args, "--errors", 500, POSITIVE));
    println!("BER {}x{} {} {} — {}", n, n, modulation.name(), channel.name(), detector.label());
    for p in experiments::ber_curve(scenario, &snrs, detector, errors, 50_000, 1) {
        println!(
            "  {:>5.1} dB: BER {:.3e}  ({} errors / {} bits, {} iterations)",
            p.snr_db,
            p.ber(),
            p.errors,
            p.bits,
            p.iterations
        );
    }
    ExitCode::SUCCESS
}

fn cmd_info(args: &Args) -> ExitCode {
    let topo = Topology::scaled(flag!(args, "--cores", 1024, CORES));
    println!("TeraPool topology:");
    println!("  cores: {} ({} per tile)", topo.num_cores(), topo.cores_per_tile);
    println!(
        "  hierarchy: {} tiles = {} subgroups x {} -> {} groups",
        topo.num_tiles(),
        topo.tiles_per_subgroup,
        topo.subgroups_per_group,
        topo.groups
    );
    println!(
        "  L1: {} KiB in {} banks ({} KiB / tile)",
        topo.l1_bytes() >> 10,
        topo.num_banks(),
        topo.tile_spm_bytes >> 10
    );
    println!("  worst non-contended access: {} cycles", topo.max_access_latency());
    println!("  I$: {} B per tile, {} B lines", topo.icache_bytes, topo.icache_line);
    ExitCode::SUCCESS
}
