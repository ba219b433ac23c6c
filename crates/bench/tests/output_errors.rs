//! The experiment binaries end with exit 3 and one `error:` line, never a
//! panic, when a result file or standard output cannot be written, and
//! with exit 2 and a usage line on an argument they do not take.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory for one test, so the binaries write their
/// `results/` there and not into the repository.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("output_errors_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn assert_write_error(out: &Output, naming: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: cannot write {naming}")),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn a_full_stdout_exits_3() {
    let out = Command::new(env!("CARGO_BIN_EXE_opt_tables"))
        .current_dir(workdir("full_stdout"))
        .stdout(File::create("/dev/full").expect("/dev/full opens"))
        .output()
        .expect("opt_tables runs");
    assert_write_error(&out, "standard output");
}

#[test]
fn an_unwritable_results_dir_exits_3() {
    let dir = workdir("results_is_a_file");
    std::fs::write(dir.join("results"), "not a directory").expect("plant the file");
    let out = Command::new(env!("CARGO_BIN_EXE_opt_tables"))
        .current_dir(&dir)
        .output()
        .expect("opt_tables runs");
    assert_write_error(&out, "results");
}

#[test]
fn a_bad_argument_exits_2_before_any_run() {
    for args in [&["--quick", "--seed", "5"][..], &["--duration", "10s"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
            .current_dir(workdir("bad_argument"))
            .args(args)
            .output()
            .expect("fig2 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("\nusage: fig2 [--quick]"), "{stderr}");
        assert!(!stderr.contains("seeds @"), "the grid started: {stderr}");
    }
}
