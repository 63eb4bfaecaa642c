//! The sub-channel lane determinism contract: splitting a shard's
//! downloading peers across **lanes** — any lane count, on any number
//! of pool threads — cannot change a single bit of the results.
//!
//! One layer below `sharding.rs`: there the unit of parallelism is the
//! channel shard; here it is the contiguous peer-index lane *inside* a
//! shard (the giant-channel path, `docs/SCALING.md`). Lanes only read
//! shared round state snapshotted before the fan-out and accumulate
//! into private integer partials that the coordinator folds in fixed
//! lane order, so the reference run — serial, single-lane — must be
//! reproduced exactly. CI drives this suite under several
//! `RAYON_NUM_THREADS` settings; the thread count is pool-global per
//! process, which is why it is an environment axis rather than a
//! proptest parameter.

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::FaultSchedule;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;

/// A sharded configuration with few, hot channels — the shape where
/// lanes engage (an explicit lane count lowers the engagement
/// threshold to benchmark/test scale).
fn lane_config(
    mode: SimMode,
    channels: usize,
    population: f64,
    trace_seed: u64,
    behaviour_seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.catalog = Catalog::zipf(
        channels,
        0.8,
        ViewingModel::paper_default(),
        population,
        300.0,
    )
    .unwrap();
    cfg.trace.horizon_seconds = 3.0 * 3600.0;
    cfg.trace.seed = trace_seed;
    cfg.behaviour_seed = behaviour_seed;
    cfg.kernel = SimKernel::Sharded;
    cfg
}

/// Runs `cfg` and returns the metrics + fault counters.
fn run(cfg: SimConfig) -> cloudmedia_sim::FaultRun {
    Simulator::new(cfg).unwrap().run_with_faults().unwrap()
}

proptest! {
    // Each case is several multi-hour simulations; a reduced fixed case
    // count keeps CI within budget (the vendored proptest has no
    // env-var override, so the count lives here).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance contract: for any configuration and any lane
    /// count, the parallel laned run is bit-identical to the serial
    /// single-lane reference.
    #[test]
    fn any_lane_count_matches_the_serial_single_lane_reference(
        channels in 1usize..4,
        population in 150.0..450.0f64,
        lanes in 0usize..48,
        trace_seed in any::<u64>(),
        behaviour_seed in any::<u64>(),
        p2p in any::<bool>(),
        with_faults in any::<bool>(),
    ) {
        let mode = if p2p { SimMode::P2p } else { SimMode::ClientServer };
        let mut reference = lane_config(
            mode, channels, population, trace_seed, behaviour_seed,
        );
        if with_faults {
            // An active fault plane mid-horizon: outage boundaries,
            // arrival shedding, and retry accounting must all stay on
            // the serial path's bit pattern too.
            reference.faults = FaultSchedule::vm_outage(3600.0, 0.4, 900.0);
        }
        let mut laned = reference.clone();
        reference.parallel_channels = false;
        laned.parallel_channels = true;
        laned.lanes = lanes;
        let a = run(reference);
        let b = run(laned);
        // Full structural equality: every sample, interval record, and
        // cost, f64s compared exactly — plus the fault counters.
        prop_assert_eq!(a.metrics, b.metrics);
        prop_assert_eq!(a.fault_stats, b.fault_stats);
    }
}

/// A directed sweep on one fixed giant-channel config: every explicit
/// lane count (including over-provisioned ones far beyond the
/// downloading population / `LANE_MIN_FORCED` quotient) reproduces the
/// serial reference, and so does auto mode.
#[test]
fn lane_count_sweep_on_a_giant_channel_is_invariant() {
    let mut reference = lane_config(SimMode::ClientServer, 1, 400.0, 0xC10D_1A4E, 0x5EED_0001);
    reference.parallel_channels = false;
    let want = run(reference.clone());
    for lanes in [0usize, 1, 2, 3, 5, 8, 64] {
        let mut cfg = reference.clone();
        cfg.parallel_channels = true;
        cfg.lanes = lanes;
        let got = run(cfg);
        assert_eq!(want.metrics, got.metrics, "lanes={lanes}");
        assert_eq!(want.fault_stats, got.fault_stats, "lanes={lanes}");
    }
}

/// Forced lane counts can cut the download index into fewer slices
/// than sub-lanes: with at least `LANE_MIN_FORCED` (8) downloads per
/// sub-lane, `ceil(n / ceil(n / subs))` falls below `subs` from ten
/// sub-lanes on (81 downloads over 10 make 9 slices of 9). The
/// sub-lanes left without a slice must sit the round out: folding
/// their scratch once replayed an earlier round's completions and
/// panicked. The one-channel 2,000-viewer run at 16 and 32 lanes must
/// match the serial reference.
#[test]
fn lane_counts_beyond_the_slice_count_match_serial() {
    let mut reference = SimConfig::scale_out(SimMode::ClientServer, 1, 2000.0).unwrap();
    reference.trace.horizon_seconds = 3600.0;
    reference.parallel_channels = false;
    let want = run(reference.clone());
    for lanes in [16usize, 32] {
        let mut cfg = reference.clone();
        cfg.parallel_channels = true;
        cfg.lanes = lanes;
        let got = run(cfg);
        assert_eq!(want.metrics, got.metrics, "lanes={lanes}");
        assert_eq!(want.fault_stats, got.fault_stats, "lanes={lanes}");
    }
}

/// The fan-out must actually engage on a hot channel — otherwise every
/// assertion above is vacuous. The `hist/lane_wall_ns` histogram only
/// receives observations from the split path's sampled timers, so a
/// non-empty histogram is proof the laned code ran.
#[test]
fn laned_runs_actually_take_the_split_path() {
    let mut cfg = lane_config(SimMode::ClientServer, 1, 400.0, 0xFA40_0071, 0x5EED_0001);
    cfg.parallel_channels = true;
    cfg.lanes = 4;
    let tel = cloudmedia_sim::telem::new_registry(false);
    Simulator::new(cfg)
        .unwrap()
        .run_with_telemetry(&tel)
        .unwrap();
    let snap = tel.snapshot();
    let observations: u64 = snap
        .buckets(cloudmedia_sim::telem::HIST_LANE_WALL)
        .iter()
        .sum();
    assert!(
        observations > 0,
        "no sub-lane wall samples recorded: the lane fan-out never engaged"
    );
}

/// Lanes compose with shard parallelism: many channels and forced
/// lanes at once still match serial, with faults active.
#[test]
fn lanes_and_shards_compose_under_faults() {
    let mut reference = lane_config(SimMode::P2p, 5, 500.0, 7, 11);
    reference.faults = FaultSchedule::vm_outage(5400.0, 0.5, 1200.0);
    reference.parallel_channels = false;
    let mut laned = reference.clone();
    laned.parallel_channels = true;
    laned.lanes = 4;
    let a = run(reference);
    let b = run(laned);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.fault_stats, b.fault_stats);
}
