//! Golden-run pinning for the steady-state mega-catalog scenario: a
//! small Zipf catalog under a plain diurnal profile (no flash crowds)
//! on the sharded engine. The committed `Metrics` JSON was blessed from
//! a run of the round-skipping engine that has since been removed; the
//! stepped path reproduces it byte for byte, so the fixture also pins
//! that every shard stepping every round changed no result.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! CLOUDMEDIA_BLESS=1 cargo test -p cloudmedia-sim --test golden_steady
//! ```
//!
//! and commit the rewritten `tests/fixtures/` files with the change
//! that required them.

use std::path::PathBuf;

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::metrics::Metrics;
use cloudmedia_sim::simulator::Simulator;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn blessing() -> bool {
    std::env::var_os("CLOUDMEDIA_BLESS").is_some()
}

/// The scenario: a 16-channel Zipf mega catalog at a population small
/// enough to keep the suite fast, over a horizon long enough to cross
/// several provisioning intervals and let channels settle.
fn fixture_config() -> SimConfig {
    let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 16, 1500.0).unwrap();
    cfg.trace.horizon_seconds = 3.0 * 3600.0;
    cfg.trace.seed = 0x57EA_D1E5;
    cfg.behaviour_seed = 0x5EED_57EA;
    cfg
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
    let path = fixture_path("steady_config.json");
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

/// The sharded engine matches the committed golden.
#[test]
fn sharded_engine_matches_the_steady_golden() {
    let metrics = Simulator::new(fixture_config()).unwrap().run().unwrap();
    assert!(metrics.peak_peers() > 0, "the scenario exercised nobody");
    assert_matches_golden(&metrics, "steady_sharded.json");
}
