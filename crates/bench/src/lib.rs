//! Shared plumbing for the paper-figure reproduction binaries.
//!
//! Every binary accepts `--full` to run at paper scale (1024 cores, all
//! MIMO sizes, NSC = 1638); the default is a reduced configuration that
//! preserves the figures' *shape* on a laptop. The active scale is always
//! printed in the banner so a recorded output states it.
//!
//! The sweep binaries no longer hand-roll their own parallel loops: every
//! multi-configuration sweep is a batch of jobs on
//! [`terasim::serve::BatchRunner`] (work stealing, submission-order
//! results, shared artifacts within a job's scenario).

use std::time::Duration;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-sized: reduced cores/sizes/Monte-Carlo volume.
    Reduced,
    /// Paper-sized (`--full`).
    Full,
}

impl Scale {
    /// Parses the process arguments: `--full` or nothing. Any other
    /// argument exits with status 2 and names it, rather than running
    /// at a scale nobody asked for.
    pub fn from_args() -> Self {
        let mut scale = Scale::Reduced;
        for arg in std::env::args().skip(1) {
            if arg != "--full" {
                eprintln!("error: unknown argument {arg:?} (the only flag is --full)");
                std::process::exit(2);
            }
            scale = Scale::Full;
        }
        scale
    }

    /// Simulated cluster cores for the parallel experiments.
    pub fn cores(self) -> u32 {
        match self {
            Scale::Reduced => 64,
            Scale::Full => 1024,
        }
    }

    /// MIMO sizes swept.
    pub fn mimo_sizes(self) -> &'static [u32] {
        match self {
            Scale::Reduced => &[4, 8, 16],
            Scale::Full => &[4, 8, 16, 32],
        }
    }

    /// Subcarriers per OFDM symbol (full scale: the paper's 50 MHz NR
    /// carrier at 30 kHz spacing).
    pub fn nsc(self) -> u32 {
        match self {
            Scale::Reduced => 128,
            Scale::Full => terasim_phy::NrCarrier::new(50_000_000, terasim_phy::Scs::Khz30).subcarriers(),
        }
    }

    /// Monte-Carlo stopping target (bit errors per SNR point).
    pub fn target_errors(self) -> u64 {
        match self {
            Scale::Reduced => 500,
            Scale::Full => 2_000,
        }
    }

    /// Monte-Carlo iteration cap per SNR point.
    pub fn max_iterations(self) -> u64 {
        match self {
            Scale::Reduced => 20_000,
            Scale::Full => 500_000,
        }
    }

    /// Banner line for the output header.
    pub fn banner(self, figure: &str) -> String {
        let label = match self {
            Scale::Reduced => "REDUCED scale (pass --full for paper scale)",
            Scale::Full => "FULL paper scale",
        };
        format!("=== {figure} — {label} ===")
    }
}

/// Host worker threads to use.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Formats a duration like the paper's `min:sec` axes.
pub fn min_sec(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{}m{:04.1}s", (s / 60.0) as u64, s % 60.0)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults() {
        assert_eq!(Scale::Reduced.cores(), 64);
        assert_eq!(Scale::Full.cores(), 1024);
        assert_eq!(Scale::Full.nsc(), 1638);
        assert!(Scale::Reduced.banner("Fig 5").contains("REDUCED"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(min_sec(Duration::from_secs_f64(9.44)), "9.44s");
        assert_eq!(min_sec(Duration::from_secs(184)), "3m04.0s");
    }
}
