//! `dftmsn inspect` against damaged observation files, driven through the
//! built binary so the exit status is what a user would see.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dftmsn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(args)
        .output()
        .expect("the dftmsn binary runs")
}

#[test]
fn a_deeply_nested_line_is_skipped_and_the_windows_still_render() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("inspect_deeply_nested.jsonl");
    let path_str = path.to_str().expect("UTF-8 temp path");
    let run = dftmsn(&[
        "run",
        "--sensors",
        "10",
        "--sinks",
        "1",
        "--duration",
        "300",
        "--observe",
        path_str,
        "--window",
        "100",
    ]);
    assert!(run.status.success(), "run failed: {run:?}");

    let mut text = std::fs::read_to_string(&path).expect("observe file written");
    text.push_str(&"[".repeat(200_000));
    text.push('\n');
    std::fs::write(&path, text).expect("append the nested line");

    let out = dftmsn(&["inspect", path_str]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("skipping unparseable line"), "{stderr}");
    assert!(stdout.contains("3 windows of 100 s"), "{stdout}");
    assert!(stdout.contains("deliveries"), "{stdout}");
}
