//! Golden-run pinning for the giant-channel flash-crowd scenario: a
//! committed single-channel config with a sharp arrival bump, plus the
//! exact `Metrics` JSON each engine family must reproduce —
//! Scan/Indexed share one golden (they are bit-identical by contract),
//! the sharded engine has its own (different per-channel RNG streams,
//! same process). Any change to allocation arithmetic, RNG consumption
//! order, the packed peer layout's semantics, or the download cohorts
//! shows up here as a diff against a checked-in file.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! CLOUDMEDIA_BLESS=1 cargo test -p cloudmedia-sim --test golden_flash_crowd
//! ```
//!
//! and commit the rewritten `tests/fixtures/` files with the change
//! that required them.

use std::path::PathBuf;

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::metrics::Metrics;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};
use cloudmedia_workload::viewing::ViewingModel;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("CLOUDMEDIA_BLESS").is_some()
}

/// The scenario: one channel, a quiet baseline, and a sharp flash
/// crowd one hour in — the giant-channel shape, where many downloads
/// share each cohort, at a population small enough to keep the suite
/// fast.
fn fixture_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
    cfg.catalog = Catalog::zipf(1, 0.8, ViewingModel::paper_default(), 150.0, 300.0).unwrap();
    cfg.trace.horizon_seconds = 2.0 * 3600.0;
    cfg.trace.seed = 0xF1A5_C04D;
    cfg.trace.diurnal = DiurnalPattern::new(
        0.6,
        vec![FlashCrowd {
            peak_hour: 1.0,
            width_hours: 0.25,
            amplitude: 8.0,
        }],
    )
    .unwrap();
    cfg.behaviour_seed = 0x5EED_F1A5;
    cfg
}

fn run(mut cfg: SimConfig, kernel: SimKernel) -> Metrics {
    cfg.kernel = kernel;
    Simulator::new(cfg).unwrap().run().unwrap()
}

/// Compares `got` against the committed golden (or rewrites it under
/// `CLOUDMEDIA_BLESS=1`). Comparison is on parsed `Metrics` structs —
/// persistence.rs pins that the JSON round trip is bit-exact — so the
/// goldens are insensitive to formatting, only to values.
fn assert_matches_golden(got: &Metrics, file: &str) {
    let path = fixture_path(file);
    if blessing() {
        let json = serde_json::to_string_pretty(got).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        return;
    }
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with CLOUDMEDIA_BLESS=1", file));
    let want: Metrics = serde_json::from_str(&json).unwrap();
    assert_eq!(
        &want, got,
        "{file}: run diverged from the committed golden (re-bless only for \
         intentional behavior changes)"
    );
}

/// The committed config fixture stays in sync with the in-code
/// constructor, so the golden metrics are pinned to a config readers
/// can inspect (and load themselves) rather than to code history.
#[test]
fn fixture_config_matches_the_committed_json() {
    let cfg = fixture_config();
    let path = fixture_path("flash_crowd_config.json");
    if blessing() {
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        return;
    }
    let json = std::fs::read_to_string(&path).expect("committed config fixture");
    let committed: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(committed, cfg, "fixture config drifted from the test's");
    committed.validate().unwrap();
}

/// Scan and Indexed agree with each other *and* with the committed
/// golden for the flash-crowd scenario.
#[test]
fn round_engines_match_the_flash_crowd_golden() {
    let scan = run(fixture_config(), SimKernel::Scan);
    let indexed = run(fixture_config(), SimKernel::Indexed);
    assert_eq!(scan, indexed, "Scan and Indexed diverged");
    assert!(scan.peak_peers() > 0, "the scenario exercised nobody");
    assert_matches_golden(&scan, "flash_crowd_round_engines.json");
}

/// The sharded engine (parallel) matches its own golden — pinning the
/// giant-channel shard path end to end.
#[test]
fn sharded_engine_matches_the_flash_crowd_golden() {
    let sharded = run(fixture_config(), SimKernel::Sharded);
    assert!(sharded.peak_peers() > 0, "the scenario exercised nobody");
    assert_matches_golden(&sharded, "flash_crowd_sharded.json");
}
