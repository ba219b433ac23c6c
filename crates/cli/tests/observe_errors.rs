//! A failed write to the `--observe` file is an I/O error (exit 3) naming
//! the file, never a panic — with and without checkpointing, and before any
//! checkpoint could record a byte cursor past what reached the file.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::{Command, Output};

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
