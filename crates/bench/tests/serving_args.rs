//! The `serving` bin's `--precision` is read before any sweep runs: a
//! flag with no value, or a value other than `f32` / `int8`, exits 1
//! with a message and writes no JSON.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `serving` with `args` in a directory of its own, named `tag`,
/// and returns its output and that directory.
fn serving(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("serving-args-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("make a scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_serving"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run the serving bin");
    (out, dir)
}

fn assert_refused(tag: &str, args: &[&str], message: &str) {
    let (out, dir) = serving(tag, args);
    let wrote = dir.join("BENCH_serving.json").exists();
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?}: exit status {}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{args:?}: stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a sweep ran before the arguments were read"
    );
    assert!(!wrote, "{args:?}: wrote BENCH_serving.json");
}

#[test]
fn a_precision_with_no_value_exits_nonzero() {
    assert_refused(
        "bare",
        &["--smoke", "--precision"],
        "--precision needs f32 or int8",
    );
}

#[test]
fn an_unknown_precision_exits_nonzero() {
    assert_refused(
        "bf16",
        &["--smoke", "--precision", "bf16"],
        "unknown precision \"bf16\"",
    );
}
