//! Every bench binary that takes `--hours` rejects a horizon that is not
//! a positive, finite number as a usage error: exit status 2, before it
//! runs or writes anything.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Each binary's path, and whether it takes `--out` (any flag a binary
/// does not take is itself a usage error, which would mask the check).
const BINARIES: [(&str, &str, bool); 10] = [
    ("run_all", env!("CARGO_BIN_EXE_run_all"), false),
    ("bench_sim", env!("CARGO_BIN_EXE_bench_sim"), true),
    ("bench_des", env!("CARGO_BIN_EXE_bench_des"), true),
    ("bench_scale", env!("CARGO_BIN_EXE_bench_scale"), true),
    ("bench_chaos", env!("CARGO_BIN_EXE_bench_chaos"), true),
    ("bench_profile", env!("CARGO_BIN_EXE_bench_profile"), true),
    (
        "ext_multi_region_sim",
        env!("CARGO_BIN_EXE_ext_multi_region_sim"),
        true,
    ),
    (
        "ablation_predictor",
        env!("CARGO_BIN_EXE_ablation_predictor"),
        false,
    ),
    (
        "ablation_provisioner",
        env!("CARGO_BIN_EXE_ablation_provisioner"),
        false,
    ),
    (
        "ablation_provisioning_target",
        env!("CARGO_BIN_EXE_ablation_provisioning_target"),
        false,
    ),
];

/// A fresh, empty working directory for one run.
fn work_dir(name: &str, hours: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cloudmedia-bench-usage-{}-{name}-{hours}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

#[test]
fn a_non_positive_or_non_finite_horizon_is_a_usage_error() {
    for (name, exe, takes_out) in BINARIES {
        for hours in ["0", "nan"] {
            let dir = work_dir(name, hours);
            let mut cmd = Command::new(exe);
            cmd.current_dir(&dir).args(["--hours", hours]);
            if takes_out {
                cmd.arg("--out").arg(dir.join("out.json"));
            }
            let out = cmd.output().unwrap();
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} --hours {hours}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.stdout.is_empty(), "{name} --hours {hours} printed");
            assert!(is_empty(&dir), "{name} --hours {hours} wrote a file");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
