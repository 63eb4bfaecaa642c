//! The channel shards' determinism contract: serial and
//! channel-parallel execution produce **bit-identical** metrics for the
//! same configuration — over random catalogs, seeds, populations, and
//! modes — plus a scale smoke that fans the shards out.
//!
//! The analogue of `federation.rs`'s parallel-regions pinning, one
//! layer down: here the unit of parallelism is the channel shard, and
//! thread count / shard grouping must be unobservable in the results.
//! A site below `FAN_OUT_MIN_PEERS` (5,000) connected viewers steps
//! inline either way, so the random catalogs pin the knob and the scale
//! smoke pins the pool; the in-crate unit tests additionally force every
//! shard-to-task grouping on small sites. This suite drives the public
//! API.

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;

/// A configuration with the given shape knobs.
fn sharded_config(
    mode: SimMode,
    channels: usize,
    population: f64,
    hours: f64,
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
    cfg.trace.horizon_seconds = hours * 3600.0;
    cfg.trace.seed = trace_seed;
    cfg.behaviour_seed = behaviour_seed;
    cfg
}

proptest! {
    // Each case is a pair of multi-hour simulations; keep the case
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance contract: for any configuration, disabling
    /// `parallel_channels` cannot change a single bit of the metrics.
    #[test]
    fn serial_and_parallel_sharded_runs_are_bit_identical(
        channels in 1usize..10,
        population in 50.0..400.0f64,
        trace_seed in any::<u64>(),
        behaviour_seed in any::<u64>(),
        p2p in any::<bool>(),
    ) {
        let mode = if p2p { SimMode::P2p } else { SimMode::ClientServer };
        let hours = 3.0;
        let mut parallel = sharded_config(
            mode, channels, population, hours, trace_seed, behaviour_seed,
        );
        parallel.parallel_channels = true;
        let mut serial = parallel.clone();
        serial.parallel_channels = false;
        let a = Simulator::new(parallel).unwrap().run().unwrap();
        let b = Simulator::new(serial).unwrap().run().unwrap();
        // `Metrics` equality is full structural equality over every
        // sample, interval record, and cost — f64s compared exactly.
        prop_assert_eq!(a, b);
    }
}

/// Repeated runs of the same sharded configuration are identical
/// (the per-shard RNG streams are pure functions of the seeds).
#[test]
fn sharded_runs_are_deterministic() {
    let cfg = sharded_config(SimMode::P2p, 4, 160.0, 4.0, 0xC10D_4ED1, 0x5EED_0001);
    let a = Simulator::new(cfg.clone()).unwrap().run().unwrap();
    let b = Simulator::new(cfg).unwrap().run().unwrap();
    assert_eq!(a, b);
}

/// A mega-catalog scale smoke at a population no single paper-default
/// run approaches, in both execution modes — the small-footprint
/// sibling of the CI scale smoke and `bench_scale`'s sweep. The ramp
/// passes `FAN_OUT_MIN_PEERS`, so the parallel run fans its shards out
/// over the pool, and it must match the serial run bit for bit.
#[test]
fn mega_catalog_smoke_runs_serial_and_parallel() {
    let runs = [false, true].map(|parallel| {
        let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 100, 50_000.0).unwrap();
        cfg.trace.horizon_seconds = 1800.0;
        cfg.parallel_channels = parallel;
        let m = Simulator::new(cfg).unwrap().run().unwrap();
        assert!(
            m.peak_peers() > 10_000,
            "ramp reached {} viewers (parallel={parallel})",
            m.peak_peers()
        );
        assert!(m.mean_quality() > 0.9);
        m
    });
    assert_eq!(runs[0], runs[1], "serial and parallel diverged");
}
