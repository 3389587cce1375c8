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
