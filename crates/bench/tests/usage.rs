//! The two bench drivers reject bad invocations as usage errors: exit
//! status 2, before they run or write anything. Every `--hours` that is
//! not a positive, finite number is one, and so, for `bench_sim`, is a
//! worker pool wider than the host.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Each driver's path, and whether it takes `--out` (any flag a driver
/// does not take is itself a usage error, which would mask the check).
const DRIVERS: [(&str, &str, bool); 2] = [
    ("run_all", env!("CARGO_BIN_EXE_run_all"), false),
    ("bench_sim", env!("CARGO_BIN_EXE_bench_sim"), true),
];

/// A fresh, empty working directory for one run.
fn work_dir(name: &str, case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cloudmedia-bench-usage-{}-{name}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

/// Runs `cmd` in `dir` and asserts a usage error that printed nothing
/// to stdout and wrote nothing.
fn assert_usage_error(mut cmd: Command, dir: &Path, what: &str) {
    let out = cmd.current_dir(dir).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "{what} printed");
    assert!(is_empty(dir), "{what} wrote a file");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_non_positive_or_non_finite_horizon_is_a_usage_error() {
    for (name, exe, takes_out) in DRIVERS {
        for hours in ["0", "nan"] {
            let dir = work_dir(name, hours);
            let mut cmd = Command::new(exe);
            cmd.args(["--hours", hours]);
            if takes_out {
                cmd.arg("--out").arg(dir.join("out.json"));
            }
            assert_usage_error(cmd, &dir, &format!("{name} --hours {hours}"));
        }
    }
}

/// The refusal comes before the pool starts, so this starts no thread.
#[test]
fn bench_sim_refuses_a_pool_wider_than_the_host() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = work_dir("bench_sim", "pool");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_sim"));
    cmd.env("RAYON_NUM_THREADS", (host + 1).to_string())
        .arg("--out")
        .arg(dir.join("out.json"));
    assert_usage_error(cmd, &dir, "bench_sim on a pool of host + 1 threads");
}
