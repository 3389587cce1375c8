//! Drives the `lbc` binary itself.

use std::process::Command;

#[test]
fn run_accepts_graphs_beyond_64_nodes() {
    // Inputs must not be limited to one 64-bit word.
    let output = Command::new(env!("CARGO_BIN_EXE_lbc"))
        .args(["run", "alg1", "c70", "1", "0", "honest"])
        .output()
        .expect("lbc runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("agreement=true validity=true termination=true"));
    // Every node, including those past index 63, reports an output.
    assert!(stdout.contains("v69="));
}

fn lbc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lbc"))
        .args(args)
        .output()
        .expect("lbc runs")
}

#[test]
fn check_rejects_a_non_numeric_t() {
    // Used to run as t = 0 and exit 0.
    let output = lbc(&["check", "c5", "1", "abc"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no report for a bad input");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid t: abc"), "stderr:\n{stderr}");
}

#[test]
fn check_rejects_t_above_f() {
    // Used to exit 0 and silently drop the hybrid line.
    let output = lbc(&["check", "c5", "1", "3"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("invalid t: 3 exceeds f = 1"),
        "stderr:\n{stderr}"
    );
    let bad_f = lbc(&["check", "c5", "x"]);
    assert_eq!(bad_f.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_f.stderr).contains("invalid f: x"));
}

#[test]
fn check_notes_that_algorithm2_misses_omission_faults() {
    let output = lbc(&["check", "c5", "1", "1"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let efficient = lines
        .iter()
        .position(|line| line.starts_with("efficient (2f-connected"))
        .expect("efficient line");
    let note = lines[efficient + 1];
    assert!(
        note.contains("Algorithm 2 does not cover omission faults")
            && note.contains("EXPERIMENTS.md"),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("hybrid (f = 1, t = 1):"),
        "stdout:\n{stdout}"
    );
}
