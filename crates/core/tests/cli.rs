//! The command-line front ends reject what they do not know: an unknown
//! or retired flag, or a flag without its value, is an error naming the
//! flag — never a run on the defaults.

use std::process::{Command, Output};

const TSIM: &str = env!("CARGO_BIN_EXE_tsim");
const SERVE: &str = env!("CARGO_BIN_EXE_terasim-serve");

/// Runs `exe` with the whitespace-separated arguments `args`.
fn run(exe: &str, args: &str) -> Output {
    Command::new(exe).args(args.split_whitespace()).output().expect("binary runs")
}

/// Asserts the command failed and its error names `flag`.
fn assert_rejected(exe: &str, args: &str, flag: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`{args}` was accepted: {}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains(flag), "`{args}`: error does not name {flag}: {stderr}");
}

#[test]
fn retired_engine_mode_flags_are_rejected() {
    assert_rejected(TSIM, "run --mimo 4 --fusion off", "--fusion");
    assert_rejected(TSIM, "symbol --epochs fixed", "--epochs");
    assert_rejected(SERVE, "--requests 1 --fusion off", "--fusion");
    assert_rejected(SERVE, "--requests 1 --epochs fixed", "--epochs");
}

#[test]
fn misspelled_and_valueless_flags_are_rejected() {
    assert_rejected(TSIM, "run --thread 4", "--thread");
    assert_rejected(TSIM, "info --cores", "--cores");
    assert_rejected(TSIM, "info --mimo 4", "--mimo");
    assert_rejected(SERVE, "--worker 2", "--worker");
    assert_rejected(SERVE, "--requests", "--requests");
}

#[test]
fn out_of_range_numbers_are_rejected_before_anything_runs() {
    assert_rejected(TSIM, "run --cores 12", "--cores");
    assert_rejected(TSIM, "run --cores 4 --backend cycle", "--cores");
    assert_rejected(TSIM, "run --cores 2048", "--cores");
    assert_rejected(TSIM, "info --cores 12", "--cores");
    assert_rejected(TSIM, "run --backend fast --threads 0", "--threads");
    assert_rejected(TSIM, "run --backend cycle --threads 0", "--threads");
    for mimo in ["0", "2", "12", "64"] {
        assert_rejected(TSIM, &format!("run --mimo {mimo}"), "--mimo");
        assert_rejected(TSIM, &format!("symbol --mimo {mimo}"), "--mimo");
        assert_rejected(TSIM, &format!("ber --mimo {mimo} --detector iss:16bCDotp"), "--mimo");
    }
    assert_rejected(TSIM, "symbol --nsc 0", "--nsc");
    assert_rejected(TSIM, "run --unroll 0", "--unroll");
    assert_rejected(TSIM, "symbol --unroll 0", "--unroll");
    assert_rejected(TSIM, "ber --errors 0", "--errors");
    assert_rejected(TSIM, "ber --mimo 0 --detector 64b", "--mimo");
    assert_rejected(TSIM, "ber --mimo 0 --detector 16bCDotp", "--mimo");
    assert_rejected(SERVE, "--workers 0", "--workers");
    assert_rejected(SERVE, "--depth 0", "--depth");
    assert_rejected(SERVE, "--cache 0", "--cache");
    for rate in ["-5", "nan", "inf", "-inf"] {
        assert_rejected(SERVE, &format!("--rate {rate}"), "--rate");
    }
}

#[test]
fn unknown_names_are_rejected_with_the_names_a_flag_takes() {
    for (args, flag, want) in [
        ("run --precision foo", "--precision", "16bCDotp"),
        ("symbol --precision foo", "--precision", "16bHalf"),
        ("run --backend foo", "--backend", "fast, cycle"),
        ("ber --detector foo", "--detector", "iss:P"),
        ("ber --detector iss:foo", "--detector", "iss:P"),
        ("ber --mod 256qam", "--mod", "qpsk, 16qam, 64qam"),
        ("ber --channel foo", "--channel", "awgn, rayleigh"),
    ] {
        let out = run(TSIM, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let value = args.rsplit(' ').next().unwrap();
        assert_eq!(out.status.code(), Some(1), "`{args}`: {stderr}");
        assert!(
            stderr.contains(&format!("error: invalid value for {flag}: \"{value}\" (want one of ")),
            "`{args}`: {stderr}"
        );
        assert!(stderr.contains(want), "`{args}`: error does not list {want}: {stderr}");
    }
}

#[test]
fn usage_shows_the_defaults() {
    let stderr = String::from_utf8_lossy(&run(TSIM, "--help").stderr).into_owned();
    assert!(stderr.contains("--precision P =16bCDotp"), "{stderr}");
    assert!(stderr.contains("--backend fast|cycle =fast"), "{stderr}");
    let stderr = String::from_utf8_lossy(&run(SERVE, "--help").stderr).into_owned();
    assert!(stderr.contains("--rate R =0 (saturating)"), "{stderr}");
    assert!(stderr.contains("--budget B =0 (none)"), "{stderr}");
}

#[test]
fn a_valid_cycle_run_is_accepted_and_verifies() {
    let out = run(TSIM, "run --mimo 4 --precision 16bCDotp --cores 16 --backend cycle --threads 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("verified=true"), "{stdout}");
    // 16 cores are one group, so the engine runs one host thread.
    assert!(stdout.contains("on 1 host threads"), "the thread count actually used: {stdout}");
}
