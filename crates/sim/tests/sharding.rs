//! The sharded engine's determinism contract: serial and
//! channel-parallel execution produce **bit-identical** metrics for the
//! same configuration — over random catalogs, seeds, populations, and
//! modes — plus scale smoke and the federation guard rail.
//!
//! The analogue of `federation.rs`'s parallel-regions pinning, one
//! layer down: here the unit of parallelism is the channel shard, and
//! thread count / shard grouping must be unobservable in the results
//! (the in-crate unit tests additionally pin grouping invariance
//! directly; this suite drives the public API).

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;
use proptest::prelude::*;

/// A sharded configuration with the given shape knobs.
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
    cfg.kernel = SimKernel::Sharded;
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

/// The sharded engine agrees with the Indexed engine in distribution:
/// not bit-for-bit (per-channel RNG streams are a different sample of
/// the same process), but the steady-state aggregates must line up.
#[test]
fn sharded_tracks_indexed_in_the_mean() {
    let mut sharded_cfg = sharded_config(SimMode::ClientServer, 5, 300.0, 12.0, 7, 11);
    let mut indexed_cfg = sharded_cfg.clone();
    indexed_cfg.kernel = SimKernel::Indexed;
    sharded_cfg.parallel_channels = true;
    let sharded = Simulator::new(sharded_cfg).unwrap().run().unwrap();
    let indexed = Simulator::new(indexed_cfg).unwrap().run().unwrap();
    let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-9);
    assert!(
        rel(sharded.mean_used_bandwidth(), indexed.mean_used_bandwidth()) < 0.10,
        "used bandwidth: sharded {} vs indexed {}",
        sharded.mean_used_bandwidth(),
        indexed.mean_used_bandwidth()
    );
    assert!(
        rel(sharded.total_vm_cost, indexed.total_vm_cost) < 0.10,
        "cost: sharded {} vs indexed {}",
        sharded.total_vm_cost,
        indexed.total_vm_cost
    );
    assert!(sharded.mean_quality() > 0.9);
}

/// A mega-catalog scale smoke at a population no single paper-default
/// run approaches, in both execution modes — the small-footprint
/// sibling of the CI scale smoke and `bench_scale`'s sweep.
#[test]
fn mega_catalog_smoke_runs_serial_and_parallel() {
    for parallel in [false, true] {
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
    }
}

/// The federated simulator runs Sharded regions: every region is one
/// shard per channel, stepped in the same pool fan-out as every other
/// region's shards.
#[test]
fn federation_runs_sharded_regions() {
    let mut fc =
        FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::ClientServer, 2.0);
    fc.base.kernel = SimKernel::Sharded;
    let channels = fc.base.catalog.len();
    let m = FederatedSimulator::new(fc).unwrap().run().unwrap();
    assert_eq!(m.per_region.len(), 3);
    for r in &m.per_region {
        assert_eq!(r.metrics.intervals.len(), 2, "one record per hour");
        for s in &r.metrics.samples {
            assert_eq!(s.per_channel_peers.len(), channels);
            assert_eq!(s.per_channel_peers.iter().sum::<usize>(), s.active_peers);
        }
    }
    assert!(m.peak_peers() > 0, "viewers showed up");
    assert!(m.mean_quality() > 0.9, "quality {}", m.mean_quality());
}
