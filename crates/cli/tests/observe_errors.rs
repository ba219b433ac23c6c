//! A failed write to the `--observe` file is an I/O error (exit 3) naming
//! the file, never a panic — with and without checkpointing, and before any
//! checkpoint could record a byte cursor past what reached the file. The
//! same holds for standard output, whether it is full or its pipe is
//! closed, while a full stderr loses only the progress lines.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn run_to_dev_full(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args([
            "run",
            "--sensors",
            "20",
            "--sinks",
            "2",
            "--duration",
            "2000",
            "--observe",
            "/dev/full",
            "--window",
            "100",
        ])
        .args(extra)
        .output()
        .expect("the dftmsn binary runs")
}

fn assert_io_error_naming_dev_full(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("error: cannot write observe file '/dev/full'"),
        "{stderr}"
    );
}

#[test]
fn a_full_observe_file_exits_3() {
    assert_io_error_naming_dev_full(&run_to_dev_full(&[]));
}

#[test]
fn a_full_observe_file_exits_3_before_any_checkpoint() {
    let ckpt = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("observe_dev_full.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_str = ckpt.to_str().expect("UTF-8 temp path");
    let out = run_to_dev_full(&["--checkpoint", ckpt_str, "--checkpoint-every", "500"]);
    assert_io_error_naming_dev_full(&out);
    assert!(
        !ckpt.exists(),
        "a checkpoint was written after the failed write"
    );
}

fn dftmsn_to_dev_full(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(args)
        .stdout(File::create("/dev/full").expect("/dev/full opens"))
        .output()
        .expect("the dftmsn binary runs")
}

fn assert_stdout_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("error: cannot write 'standard output'"),
        "{stderr}"
    );
}

#[test]
fn a_full_stdout_exits_3_for_every_command() {
    let run = [
        "run",
        "--sensors",
        "10",
        "--sinks",
        "2",
        "--duration",
        "200",
        "--json",
    ];
    for args in [&["help"][..], &run[..], &["analyze"][..]] {
        assert_stdout_error(&dftmsn_to_dev_full(args));
    }
}

#[test]
fn a_closed_stdout_pipe_exits_3() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(["run", "--duration", "3000", "--csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the dftmsn binary runs");
    // The run simulates for a while before it writes the delivery log, so
    // the read end is gone by the time the report is written.
    drop(child.stdout.take());
    assert_stdout_error(&child.wait_with_output().expect("the run ends"));
}

#[test]
fn a_full_stderr_costs_only_the_progress_lines() {
    let args = [
        "run",
        "--sensors",
        "10",
        "--sinks",
        "2",
        "--duration",
        "200",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(args)
        .stderr(File::create("/dev/full").expect("/dev/full opens"))
        .output()
        .expect("the dftmsn binary runs");
    let quiet = Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(args)
        .output()
        .expect("the dftmsn binary runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(out.stdout, quiet.stdout);
}
