//! Telemetry is a pure side channel: enabling the metrics registry (or
//! the trace sink on top of it) must not change a single bit of any
//! simulation result. This suite pins that contract for all three
//! kernels, for a single site stepped inline and fanned out over the
//! pool, and for the federated simulator in both its serial and
//! parallel region-execution modes.
//!
//! The engines read no state back out of the registry — every telemetry
//! call is write-only — so the only ways the contract could break are a
//! refactor that accidentally moves simulation work inside an
//! `if tel.enabled()` block, or a sampling clock that starts gating
//! simulation (not just measurement) logic. Both would show up here as
//! a metrics mismatch. The last tests pin what the round-loop counters
//! read: non-zero, equal between serial and parallel federated runs and
//! between Scan (the reference engine, through
//! `Simulator::run_reference`) and Indexed, `peers_peak` summed per
//! sample, and which stages a run times inline and which as one fan-out
//! stage.

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::FaultRun;
use cloudmedia_sim::federation::{
    DeploymentKind, FederatedConfig, FederatedMetrics, FederatedSimulator,
};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::telem;
use cloudmedia_sim::SimError;
use cloudmedia_telemetry::{MetricId, Snapshot, Telemetry};

/// How a test runs a simulator's config while recording into a
/// registry.
type Runner = fn(&Simulator, &Telemetry) -> Result<FaultRun, SimError>;

/// The round engines: the reference, which the tests reach through
/// `Simulator::run_reference`, and the production engine.
const ROUND_ENGINES: [(&str, Runner); 2] = [
    ("Scan", Simulator::run_reference),
    ("Indexed", Simulator::run_with_telemetry),
];

/// Short enough to keep the suite fast, long enough to cross several
/// provisioning intervals, diurnal phases, and (for the sampled stage
/// clocks) many `STAGE_TIME_SAMPLE` periods.
const HOURS: f64 = 6.0;

fn config(kernel: SimKernel, mode: SimMode) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.trace.horizon_seconds = HOURS * 3600.0;
    cfg.kernel = kernel;
    cfg
}

/// Runs `cfg` with `run` three ways — telemetry off, metrics-only
/// registry, and metrics + trace registry — and asserts the metrics and
/// fault counters are bit-identical across all three. Returns the run
/// and the metrics-only registry's snapshot.
fn assert_single_site_deterministic(cfg: SimConfig, run: Runner) -> (FaultRun, Snapshot) {
    let sim = Simulator::new(cfg).unwrap();
    let dark = run(&sim, &Telemetry::disabled()).unwrap();

    let metrics_tel = telem::new_registry(false);
    let lit = run(&sim, &metrics_tel).unwrap();
    assert_eq!(
        dark.metrics, lit.metrics,
        "metrics registry changed the results"
    );
    assert_eq!(dark.fault_stats, lit.fault_stats);
    let snap = metrics_tel.snapshot();
    assert!(
        snap.value(telem::ROUNDS) > 0 || snap.value(telem::DES_EVENTS) > 0,
        "the lit run recorded nothing"
    );

    let trace_tel = telem::new_registry(true);
    let traced = run(&sim, &trace_tel).unwrap();
    assert_eq!(
        dark.metrics, traced.metrics,
        "trace recording changed the results"
    );
    assert_eq!(dark.fault_stats, traced.fault_stats);
    (dark, snap)
}

#[test]
fn scan_kernel_is_telemetry_invariant() {
    let cfg = config(SimKernel::Indexed, SimMode::ClientServer);
    assert_single_site_deterministic(cfg, Simulator::run_reference);
}

#[test]
fn indexed_kernel_is_telemetry_invariant() {
    for mode in [SimMode::ClientServer, SimMode::P2p] {
        let cfg = config(SimKernel::Indexed, mode);
        assert_single_site_deterministic(cfg, Simulator::run_with_telemetry);
    }
}

#[test]
fn event_driven_kernel_is_telemetry_invariant() {
    let cfg = config(SimKernel::EventDriven, SimMode::ClientServer);
    assert_single_site_deterministic(cfg, Simulator::run_with_telemetry);
}

/// A site past the driver's fan-out threshold: serial it steps inline
/// and times its round stages, parallel it fans its shards out on the
/// pool and times them as `stage/shard_step`. Either way telemetry
/// changes nothing, and the two runs agree.
#[test]
fn sharded_kernel_is_telemetry_invariant_serial_and_parallel() {
    let mut runs = Vec::new();
    for parallel in [false, true] {
        let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 30, 8_000.0).unwrap();
        cfg.trace.horizon_seconds = 2.0 * 3600.0;
        cfg.parallel_channels = parallel;
        let (run, snap) = assert_single_site_deterministic(cfg, Simulator::run_with_telemetry);
        let shard_step = snap.value(telem::STAGE_SHARD_STEP);
        if parallel {
            assert!(shard_step > 0, "the parallel run fanned out");
        } else {
            assert_eq!(shard_step, 0, "the serial run stepped inline");
            assert!(
                snap.value(telem::STAGE_ALLOCATION) > 0,
                "serial: allocation"
            );
        }
        runs.push(run);
    }
    assert_eq!(
        runs[0].metrics, runs[1].metrics,
        "serial and parallel diverged"
    );
}

/// Field-by-field equality for [`FederatedMetrics`] (the struct holds
/// site/region specs that don't implement `PartialEq`, so a derive
/// isn't available). Floats are compared by bit pattern: determinism
/// here means *bit*-identical, not approximately equal.
fn assert_federated_eq(a: &FederatedMetrics, b: &FederatedMetrics, label: &str) {
    assert_eq!(
        a.total_vm_cost.to_bits(),
        b.total_vm_cost.to_bits(),
        "{label}: vm cost"
    );
    assert_eq!(
        a.total_storage_cost.to_bits(),
        b.total_storage_cost.to_bits(),
        "{label}: storage cost"
    );
    assert_eq!(
        a.total_transfer_cost.to_bits(),
        b.total_transfer_cost.to_bits(),
        "{label}: transfer cost"
    );
    assert_eq!(
        a.total_latency_penalty_cost.to_bits(),
        b.total_latency_penalty_cost.to_bits(),
        "{label}: latency penalty"
    );
    assert_eq!(a.fault_stats, b.fault_stats, "{label}: fault stats");
    assert_eq!(a.per_region.len(), b.per_region.len());
    for (ra, rb) in a.per_region.iter().zip(&b.per_region) {
        assert_eq!(ra.metrics, rb.metrics, "{label}: region metrics");
        assert_eq!(
            ra.cloud_bytes.to_bits(),
            rb.cloud_bytes.to_bits(),
            "{label}: region cloud bytes"
        );
        assert_eq!(
            ra.redirected_bytes.to_bits(),
            rb.redirected_bytes.to_bits(),
            "{label}: region redirected bytes"
        );
        assert_eq!(
            ra.transfer_cost.to_bits(),
            rb.transfer_cost.to_bits(),
            "{label}: region transfer cost"
        );
        assert_eq!(
            ra.latency_penalty_cost.to_bits(),
            rb.latency_penalty_cost.to_bits(),
            "{label}: region latency penalty"
        );
    }
}

/// The round-loop counters every round-engine run records the same way.
const EVENT_COUNTERS: [(MetricId, &str); 5] = [
    (telem::ROUNDS, "rounds"),
    (telem::COMPLETED_CHUNKS, "completed_chunks"),
    (telem::WOKEN_PEERS, "woken_peers"),
    (telem::ARRIVALS_ADMITTED, "arrivals_admitted"),
    (telem::PEERS_PEAK, "peers_peak"),
];

/// The event counters of a run's registry, each asserted non-zero.
fn event_counts(tel: &Telemetry, label: &str) -> Vec<u64> {
    let snap = tel.snapshot();
    EVENT_COUNTERS
        .iter()
        .map(|&(id, name)| {
            let v = snap.value(id);
            assert!(v > 0, "{label}: {name} recorded nothing");
            v
        })
        .collect()
}

#[test]
fn federated_simulator_is_telemetry_invariant_serial_and_parallel() {
    let mut counts = Vec::new();
    for parallel in [false, true] {
        let mut fc = FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::P2p, HOURS);
        fc.base.parallel_channels = parallel;
        let sim = FederatedSimulator::new(fc).unwrap();
        let label = if parallel { "parallel" } else { "serial" };

        let dark = sim.run().unwrap();

        let metrics_tel = telem::new_registry(false);
        let lit = sim.run_with_telemetry(&metrics_tel).unwrap();
        assert_federated_eq(&dark, &lit, label);
        counts.push(event_counts(&metrics_tel, label));

        let trace_tel = telem::new_registry(true);
        let traced = sim.run_with_telemetry(&trace_tel).unwrap();
        assert_federated_eq(&dark, &traced, label);
    }
    assert_eq!(
        counts[0], counts[1],
        "serial and parallel counted differently"
    );
}

/// Scan and Indexed replay the same events, so they count the same.
#[test]
fn scan_and_indexed_record_equal_event_counts() {
    let sim = Simulator::new(config(SimKernel::Indexed, SimMode::P2p)).unwrap();
    let counts: Vec<Vec<u64>> = ROUND_ENGINES
        .into_iter()
        .map(|(engine, run)| {
            let tel = telem::new_registry(false);
            run(&sim, &tel).unwrap();
            event_counts(&tel, engine)
        })
        .collect();
    assert_eq!(counts[0], counts[1], "Scan and Indexed counted differently");
}

/// On every round engine `peers_peak` is the high-water mark of the
/// connected population at sample instants — for a federation, of the
/// population summed across regions — so it equals the results' own
/// `peak_peers()` rather than, say, the end-of-run population.
#[test]
fn peers_peak_gauge_is_the_sampled_high_water_mark() {
    let sim = Simulator::new(config(SimKernel::Indexed, SimMode::P2p)).unwrap();
    for (engine, run) in ROUND_ENGINES {
        let tel = telem::new_registry(false);
        let run = run(&sim, &tel).unwrap();
        assert_eq!(
            tel.snapshot().value(telem::PEERS_PEAK),
            run.metrics.peak_peers() as u64,
            "{engine}"
        );
    }

    // A day: the regions' evening peaks fall well inside the horizon.
    let fc = FederatedConfig::paper_default(DeploymentKind::Federated, SimMode::P2p, 24.0);
    let tel = telem::new_registry(false);
    let m = FederatedSimulator::new(fc)
        .unwrap()
        .run_with_telemetry(&tel)
        .unwrap();
    let final_population: usize = m
        .per_region
        .iter()
        .map(|r| r.metrics.samples.last().map_or(0, |s| s.active_peers))
        .sum();
    assert!(
        m.peak_peers() > final_population,
        "the horizon ends at the peak, so the check cannot tell the two apart"
    );
    assert_eq!(
        tel.snapshot().value(telem::PEERS_PEAK),
        m.peak_peers() as u64,
        "federated"
    );
}

/// The segment driver's two rules, read from the counters (never from
/// timing). A paper-scale site holds fewer than 5,000 viewers, so it
/// steps inline and its shards time their own round stages; a
/// 200k-viewer site on 400 channels fans its shards out, and each such
/// segment is timed as one `stage/shard_step`.
#[test]
fn small_sites_time_round_stages_and_large_ones_the_shard_step() {
    let mut paper = SimConfig::paper_default(SimMode::P2p);
    paper.trace.horizon_seconds = 24.0 * 3600.0;
    let tel = telem::new_registry(false);
    Simulator::new(paper)
        .unwrap()
        .run_with_telemetry(&tel)
        .unwrap();
    let snap = tel.snapshot();
    assert!(snap.value(telem::STAGE_ALLOCATION) > 0, "paper: allocation");
    assert!(snap.value(telem::STAGE_ADVANCE) > 0, "paper: advance");
    assert_eq!(snap.value(telem::STAGE_SHARD_STEP), 0, "paper: shard step");

    let mut large = SimConfig::scale_out(SimMode::ClientServer, 400, 200_000.0).unwrap();
    large.trace.horizon_seconds = 3600.0;
    let tel = telem::new_registry(false);
    Simulator::new(large)
        .unwrap()
        .run_with_telemetry(&tel)
        .unwrap();
    let snap = tel.snapshot();
    assert!(snap.value(telem::STAGE_SHARD_STEP) > 0, "large: shard step");
    assert!(
        snap.buckets(telem::HIST_SHARD_WALL).iter().sum::<u64>() > 0,
        "large: shard wall histogram"
    );
}
