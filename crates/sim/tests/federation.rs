//! Integration contract of the federated multi-region deployment
//! (`geo_federation`): on the default three-site deployment the
//! federation's total cost sits between the two extremes the repo
//! already modeled —
//!
//! ```text
//! central  ≤  federated  ≤  independent
//! ```
//!
//! - **independent** pays every region's peak at its own regional
//!   prices;
//! - **federated** redirects peak/premium demand into cheaper off-peak
//!   sites (paying transfer + SLA latency penalty per redirected GB),
//!   and all-local remains feasible, so it can only improve on
//!   independent;
//! - **central** enjoys both time-zone multiplexing (flattest demand
//!   curve) and the reference market's prices, with no transfer costs —
//!   the cost floor (its price is the latency of serving almost everyone
//!   remotely, which the cost metric does not see).
//!
//! The full-week numbers are recorded by `bench_sim` in the
//! `geo_federation` section of `BENCH_sim.json`; this suite pins the
//! ordering (and the presence of redirected traffic) on the default
//! three-site week so `cargo test` keeps it honest PR to PR.

use cloudmedia_sim::config::SimMode;
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};

fn run(kind: DeploymentKind, hours: f64) -> cloudmedia_sim::federation::FederatedMetrics {
    FederatedSimulator::new(FederatedConfig::paper_default(
        kind,
        SimMode::ClientServer,
        hours,
    ))
    .unwrap()
    .run()
    .unwrap()
}

#[test]
fn three_way_cost_ordering_holds_with_redirection() {
    // The paper's full experimental horizon: one week.
    const HOURS: f64 = 168.0;
    let independent = run(DeploymentKind::Independent, HOURS);
    let federated = run(DeploymentKind::Federated, HOURS);
    let central = run(DeploymentKind::Central, HOURS);

    // The federation actually redirects traffic on the default
    // deployment (premium-priced regions tap the reference market).
    assert!(
        federated.redirected_share() > 0.01,
        "expected redirected traffic, got share {}",
        federated.redirected_share()
    );
    assert_eq!(independent.redirected_share(), 0.0);
    assert!(federated.total_transfer_cost > 0.0);
    assert!(federated.total_latency_penalty_cost > 0.0);

    // The acceptance ordering.
    let (c, f, i) = (
        central.total_cost(),
        federated.total_cost(),
        independent.total_cost(),
    );
    assert!(
        f <= i * 1.001,
        "federated ${f:.2} must not exceed independent ${i:.2}"
    );
    assert!(
        f >= c * 0.999,
        "federated ${f:.2} must not undercut central ${c:.2}"
    );

    // Every deployment still serves its viewers well.
    assert!(
        independent.mean_quality() > 0.9,
        "independent quality {}",
        independent.mean_quality()
    );
    assert!(
        federated.mean_quality() > 0.9,
        "federated quality {}",
        federated.mean_quality()
    );
    assert!(
        central.mean_quality() > 0.9,
        "central quality {}",
        central.mean_quality()
    );
}

#[test]
fn federated_viewers_see_the_same_demand_as_independent() {
    // Redirection moves VM-hours between sites, not viewers between
    // regions: both deployments replay identical arrival traces, so
    // their populations agree closely (session *lengths* can drift a
    // little — different VM boot ramps shift chunk completions, and with
    // them the viewing-model's RNG draws).
    const HOURS: f64 = 12.0;
    let independent = run(DeploymentKind::Independent, HOURS);
    let federated = run(DeploymentKind::Federated, HOURS);
    let (pi, pf) = (
        independent.peak_peers() as f64,
        federated.peak_peers() as f64,
    );
    assert!(
        (pi - pf).abs() / pi.max(1.0) < 0.05,
        "peak populations diverged: independent {pi}, federated {pf}"
    );
    for (a, b) in independent.per_region.iter().zip(&federated.per_region) {
        assert_eq!(a.metrics.intervals.len(), b.metrics.intervals.len());
        assert_eq!(a.region, b.region);
    }
}

/// The federated simulator fans its regions out on the rayon pool;
/// shards share no accumulator inside a segment and every coupling
/// happens at a barrier, so the parallel execution must reproduce the
/// serial one exactly — every float bit of every region's metrics.
#[test]
fn parallel_and_serial_region_execution_are_bit_identical() {
    const HOURS: f64 = 8.0;
    let mut serial_cfg =
        FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::ClientServer, HOURS);
    serial_cfg.base.parallel_channels = false;
    let mut parallel_cfg = serial_cfg.clone();
    parallel_cfg.base.parallel_channels = true;

    let serial = FederatedSimulator::new(serial_cfg).unwrap().run().unwrap();
    let parallel = FederatedSimulator::new(parallel_cfg)
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(
        serial.total_cost().to_bits(),
        parallel.total_cost().to_bits(),
        "total cost diverged"
    );
    assert_eq!(
        serial.total_transfer_cost.to_bits(),
        parallel.total_transfer_cost.to_bits()
    );
    assert_eq!(serial.per_region.len(), parallel.per_region.len());
    for (s, p) in serial.per_region.iter().zip(&parallel.per_region) {
        assert_eq!(s.metrics, p.metrics, "region {} diverged", s.region.name);
        assert_eq!(s.cloud_bytes.to_bits(), p.cloud_bytes.to_bits());
        assert_eq!(s.redirected_bytes.to_bits(), p.redirected_bytes.to_bits());
    }
}

/// Every region steps one shard per channel: its samples split by
/// channel, and the channel counts add up to the region's viewers.
#[test]
fn federation_runs_one_shard_per_channel_in_every_region() {
    let fc = FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::ClientServer, 2.0);
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

#[test]
fn premium_regions_are_the_ones_redirecting() {
    const HOURS: f64 = 24.0;
    let federated = run(DeploymentKind::Federated, HOURS);
    // The reference-priced americas site never redirects its own demand
    // on the default week (its market is the cheapest); the premium
    // sites do.
    let americas = &federated.per_region[0];
    let premium_redirected: f64 = federated.per_region[1..]
        .iter()
        .map(|r| r.redirected_bytes)
        .sum();
    assert!(
        premium_redirected > 0.0,
        "premium sites should redirect into the reference market"
    );
    assert!(
        americas.redirected_share() < 0.5,
        "americas share {}",
        americas.redirected_share()
    );
}
