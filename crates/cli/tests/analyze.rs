//! `dftmsn analyze` on scenarios the simulator also accepts.

use std::process::Command;

#[test]
fn no_motion_gives_infinite_expected_delays() {
    let out = Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(["analyze", "--speed-max", "0"])
        .output()
        .expect("the dftmsn binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let delays: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("expected delay"))
        .collect();
    assert_eq!(delays.len(), 2, "{stdout}");
    assert!(delays.iter().all(|l| l.ends_with(": inf s")), "{stdout}");
}
