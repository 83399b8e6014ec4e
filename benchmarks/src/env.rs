//! The environment stamp every result set carries: a number without the
//! machine and build it came from cannot be compared with another.

use std::process::Command;

use crate::json::Json;

/// The registry stand-ins under `shims/`, `name version` as in
/// `Cargo.lock`.
pub const SHIMS: &[&str] = &[
    "rand 0.8.99",
    "crossbeam 0.8.99",
    "parking_lot 0.12.99",
    "serde 1.0.999",
    "serde_derive 1.0.999",
    "bytes 1.99.0",
];

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// `pool_threads` and `kernel_threads` are what the workload pinned, not
/// what the host offers.
pub fn stamp(seed: u64, pool_threads: usize, kernel_threads: usize) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Outside a git checkout (the acceptance driver's copy) both read
    // "unknown".
    let rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("logical_cores", Json::Num(cores as f64)),
        ("cpu_model", Json::str(cpu_model())),
        // Which microkernels compiled in: the f32 kernel keys off fma and
        // avx512f, the int8 kernel off avx512vnni.
        ("target_fma", Json::Bool(cfg!(target_feature = "fma"))),
        (
            "target_avx512f",
            Json::Bool(cfg!(target_feature = "avx512f")),
        ),
        (
            "target_avx512vnni",
            Json::Bool(cfg!(target_feature = "avx512vnni")),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        (
            "git_rev",
            Json::str(rev.unwrap_or_else(|| "unknown".to_string())),
        ),
        ("git_dirty", dirty.map_or(Json::str("unknown"), Json::Bool)),
        ("seed", Json::Num(seed as f64)),
        ("pool_threads", Json::Num(pool_threads as f64)),
        ("kernel_threads", Json::Num(kernel_threads as f64)),
        (
            "shims",
            Json::Arr(SHIMS.iter().map(|s| Json::str(*s)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_versions_match_the_lock_file() {
        let lock = include_str!("../Cargo.lock");
        for shim in SHIMS {
            let (name, version) = shim.split_once(' ').unwrap();
            let entry = format!("name = \"{name}\"\nversion = \"{version}\"\n");
            assert!(lock.contains(&entry), "Cargo.lock lacks {shim}");
            // A shim has no registry source line.
            let after = &lock[lock.find(&entry).unwrap() + entry.len()..];
            assert!(
                !after.starts_with("source ="),
                "{shim} resolved from a registry"
            );
        }
    }

    #[test]
    fn stamp_names_the_machine_and_build() {
        let s = stamp(42, 2, 1);
        assert!(s.get("logical_cores").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(s
            .get("rustc")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("rustc"));
        assert_eq!(s.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(
            s.get("shims").and_then(Json::as_arr).unwrap().len(),
            SHIMS.len()
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
