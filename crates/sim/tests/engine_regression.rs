//! Regression tests pinning the indexed engine to the scan-based
//! reference: for the same seeded configuration, `SimKernel::Indexed`
//! must reproduce `SimKernel::Scan`'s `Metrics` **exactly** (full
//! structural equality, every float bit farmed through the run) — the
//! indexed engine is an optimization, never a behavior change.

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::FaultSchedule;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::diurnal::{DiurnalPattern, FlashCrowd};
use cloudmedia_workload::viewing::ViewingModel;

fn run(cfg: SimConfig) -> cloudmedia_sim::Metrics {
    Simulator::new(cfg)
        .expect("config valid")
        .run()
        .expect("run succeeds")
}

/// Runs `cfg` on both engines, asserts they agree exactly, and returns
/// the (shared) metrics for scenario checks.
fn assert_engines_agree(mut cfg: SimConfig, label: &str) -> cloudmedia_sim::Metrics {
    cfg.kernel = SimKernel::Scan;
    let scan = run(cfg.clone());
    cfg.kernel = SimKernel::Indexed;
    let indexed = run(cfg);
    assert_eq!(scan, indexed, "engines diverged: {label}");
    assert!(
        scan.peak_peers() > 0,
        "{label}: the scenario exercised nobody"
    );
    scan
}

fn base_config(mode: SimMode, channels: usize, population: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.catalog = Catalog::zipf(
        channels,
        0.8,
        ViewingModel::paper_default(),
        population,
        300.0,
    )
    .unwrap();
    cfg.trace.horizon_seconds = 4.0 * 3600.0;
    cfg
}

#[test]
fn engines_agree_client_server() {
    assert_engines_agree(
        base_config(SimMode::ClientServer, 3, 80.0),
        "client-server small",
    );
}

#[test]
fn engines_agree_p2p() {
    assert_engines_agree(base_config(SimMode::P2p, 3, 80.0), "p2p small");
}

#[test]
fn engines_agree_under_heavy_churn() {
    // High jump and leave probabilities maximize removals and
    // `swap_remove` re-keying — the paths where the indexed engine's
    // caches must invalidate to stay bit-exact.
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = base_config(mode, 4, 120.0);
        cfg.catalog = Catalog::zipf(
            4,
            0.8,
            ViewingModel {
                chunks: 12,
                start_at_beginning: 0.5,
                jump_prob: 0.35,
                leave_prob: 0.3,
            },
            120.0,
            300.0,
        )
        .unwrap();
        assert_engines_agree(cfg, &format!("heavy churn {mode:?}"));
    }
}

#[test]
fn engines_agree_across_seeds() {
    for seed in [1u64, 0xDEAD_BEEF, 0x1234_5678_9ABC] {
        let mut cfg = base_config(SimMode::P2p, 3, 60.0);
        cfg.behaviour_seed = seed;
        cfg.trace.seed = seed.wrapping_mul(0x9E37_79B9);
        assert_engines_agree(cfg, &format!("seed {seed:#x}"));
    }
}

#[test]
fn engines_agree_when_chunk_time_misaligns_with_rounds() {
    // chunk_seconds that is not a multiple of round_seconds produces
    // wake times inside the current round's already-drained wheel
    // bucket — the case where a buggy wheel strands waiting peers
    // forever (regression for exactly that bug).
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = base_config(mode, 3, 80.0);
        cfg.chunk_seconds = 12.0;
        cfg.round_seconds = 10.0;
        cfg.sample_interval = 300.0;
        cfg.trace.horizon_seconds = 12.0 * 3600.0;
        assert_engines_agree(cfg, &format!("misaligned chunk time {mode:?}"));
    }
}

#[test]
fn engines_agree_with_non_default_round() {
    // A round length that does not divide the horizon exactly exercises
    // the final clamped round and the wake wheel's bucket math with a
    // drifting clock.
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = base_config(mode, 3, 60.0);
        cfg.round_seconds = 7.3;
        cfg.sample_interval = 300.0;
        cfg.trace.horizon_seconds = 3.0 * 3600.0 + 11.0;
        assert_engines_agree(cfg, &format!("odd round length {mode:?}"));
    }
}

#[test]
fn engines_agree_through_a_total_fleet_outage() {
    // Every VM fails at 1.5 h and the fleet takes 40 min to recover:
    // in client-server mode nothing is served in between, so downloads
    // that start during the outage keep their full chunk size — the
    // same bytes-left as the fresh downloads that join after them.
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = base_config(mode, 3, 150.0);
        cfg.faults = FaultSchedule::vm_outage(5400.0, 1.0, 2400.0);
        let m = assert_engines_agree(cfg, &format!("total fleet outage {mode:?}"));
        if mode == SimMode::ClientServer {
            assert!(
                m.samples
                    .iter()
                    .any(|s| s.time > 5400.0 && s.used_bandwidth == 0.0),
                "the outage never stopped cloud service"
            );
        }
    }
}

#[test]
fn engines_agree_on_a_starved_one_channel_burst() {
    // One channel, a quiet 0.3 baseline and a 12x burst at hour 1 (the
    // flash-crowd benchmark's shape): served ratios fall below 1 and
    // downloads trickle on across many rounds.
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let mut cfg = base_config(mode, 1, 400.0);
        cfg.trace.horizon_seconds = 2.0 * 3600.0;
        cfg.trace.diurnal = DiurnalPattern::new(
            0.3,
            vec![FlashCrowd {
                peak_hour: 1.0,
                width_hours: 0.15,
                amplitude: 12.0,
            }],
        )
        .unwrap();
        let m = assert_engines_agree(cfg, &format!("starved burst {mode:?}"));
        assert!(
            m.mean_quality() < 0.95,
            "{mode:?}: the burst never starved anyone (quality {})",
            m.mean_quality()
        );
    }
}
