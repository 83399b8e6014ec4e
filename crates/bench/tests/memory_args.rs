//! The `memory` bin's arguments are read before any stage runs.

use std::process::Command;

#[test]
fn an_out_with_no_path_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_memory"))
        .args(["--quick", "--out"])
        .output()
        .expect("run the memory bin");
    assert!(!out.status.success(), "exit status {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out needs a path"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "a stage ran before the arguments were read"
    );
}
