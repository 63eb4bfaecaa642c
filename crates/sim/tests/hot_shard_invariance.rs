//! The hot-shard determinism contract: a Sharded run whose population
//! sits on a few hot channels — down to one giant channel, the
//! flash-crowd shape — is bit-identical serial and parallel, on any
//! number of pool threads, with or without an active fault plane.
//!
//! One layer beside `sharding.rs`, which sweeps many-channel catalogs:
//! here a shard holds most of the population, so its download cohorts
//! grow large and its rounds are heavy, while the segment driver still
//! folds every cross-shard sum in fixed shard order. CI drives this
//! suite under several `RAYON_NUM_THREADS` settings; the thread count
//! is pool-global per process, which is why it is an environment axis
//! rather than a proptest parameter.

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::FaultSchedule;
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;

/// A sharded configuration with few, hot channels.
fn hot_config(
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

/// Runs `reference` serially and in parallel and asserts the two are
/// bit-identical, fault counters included.
fn assert_serial_matches_parallel(mut reference: SimConfig) {
    let mut parallel = reference.clone();
    reference.parallel_channels = false;
    parallel.parallel_channels = true;
    let a = run(reference);
    let b = run(parallel);
    // Full structural equality: every sample, interval record, and
    // cost, f64s compared exactly — plus the fault counters.
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.fault_stats, b.fault_stats);
}

proptest! {
    // Each case is several multi-hour simulations; a reduced fixed case
    // count keeps CI within budget (the vendored proptest has no
    // env-var override, so the count lives here).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance contract: for any few-channel configuration, the
    /// parallel run is bit-identical to the serial reference.
    #[test]
    fn any_hot_shard_run_matches_the_serial_reference(
        channels in 1usize..4,
        population in 150.0..450.0f64,
        trace_seed in any::<u64>(),
        behaviour_seed in any::<u64>(),
        p2p in any::<bool>(),
        with_faults in any::<bool>(),
    ) {
        let mode = if p2p { SimMode::P2p } else { SimMode::ClientServer };
        let mut cfg = hot_config(mode, channels, population, trace_seed, behaviour_seed);
        if with_faults {
            // An active fault plane mid-horizon: outage boundaries,
            // arrival shedding, and retry accounting must all stay on
            // the serial path's bit pattern too.
            cfg.faults = FaultSchedule::vm_outage(3600.0, 0.4, 900.0);
        }
        assert_serial_matches_parallel(cfg);
    }
}

/// One fixed giant channel: the whole population on one shard.
#[test]
fn giant_channel_parallel_run_matches_serial() {
    assert_serial_matches_parallel(hot_config(
        SimMode::ClientServer,
        1,
        400.0,
        0xC10D_1A4E,
        0x5EED_0001,
    ));
}

/// Shard parallelism with faults active: five channels with a
/// half-fleet outage still match serial.
#[test]
fn shards_match_serial_under_faults() {
    let mut cfg = hot_config(SimMode::P2p, 5, 500.0, 7, 11);
    cfg.faults = FaultSchedule::vm_outage(5400.0, 0.5, 1200.0);
    assert_serial_matches_parallel(cfg);
}
