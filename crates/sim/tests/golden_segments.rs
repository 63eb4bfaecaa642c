//! Golden pinning of the round engines' segment boundaries.
//!
//! The round engines and the federated simulator step their shards and
//! regions through whole segments of rounds between synchronization
//! points (`docs/SCALING.md`, "Segments"). The serial ≡ parallel suites
//! cannot see an ordering change that both paths share, and every other
//! golden runs fault-free on aligned 10 s / 300 s / 3600 s intervals, so
//! this suite pins sixteen runs whose boundaries never line up:
//!
//! - 7 s rounds, 95 s samples, 1000 s provisioning intervals, and a
//!   horizon that ends 3 s into a round;
//! - a VM burst at 0.4 · horizon + 13 s, a tracker blackout, a budget
//!   shock between boundaries, and `ShedNewArrivals`, all landing
//!   mid-segment;
//! - for the federated and independent deployments, an outage of site 1
//!   from 3 h 10 min 13 s lasting 1.5 h + 11 s, and for the last four
//!   single-site runs the same outage of site 0, so both emergency
//!   re-plans fire between boundaries.
//!
//! The runs are client–server and P2P on a 6-channel Zipf catalog on the
//! Indexed and event-driven engines and on the reference Scan engine
//! (through `Simulator::run_reference`), and the paper-default
//! federated, independent and central deployments in both modes on
//! Indexed regions (the central deployment's one region has no site 1,
//! so it runs the single-site schedule only), then the Indexed and
//! event-driven engines again with their one site going down. Every
//! engine's hourly control path is therefore pinned under faults.
//! Floats are recorded as IEEE-754 bit patterns; each interval's
//! samples and per-channel vectors are recorded as a count plus an
//! FNV-1a digest of every bit pattern, which keeps the fixture small
//! while still failing on a one-ulp change anywhere.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! CLOUDMEDIA_BLESS=1 cargo test -p cloudmedia-sim --test golden_segments
//! ```
//!
//! and commit the rewritten `tests/fixtures/` file with the change that
//! required it.

use std::fmt::Write as _;
use std::path::PathBuf;

use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
use cloudmedia_sim::faults::{DegradeMode, FaultRun, FaultSchedule, FaultStats, SiteOutage};
use cloudmedia_sim::federation::{DeploymentKind, FederatedConfig, FederatedSimulator};
use cloudmedia_sim::metrics::{IntervalRecord, Metrics, Sample};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_sim::SimError;
use cloudmedia_telemetry::Telemetry;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;

const FIXTURE: &str = "golden_segments.txt";

const ROUND: f64 = 7.0;
const SAMPLE: f64 = 95.0;
const PROVISION: f64 = 1000.0;
/// 2828 rounds of 7 s plus 3 s: the last round is cut short.
const HORIZON: f64 = 2828.0 * ROUND + 3.0;
/// Site outage start (3 h 10 min 13 s) and length (1.5 h + 11 s).
const OUTAGE_AT: f64 = 3.0 * 3600.0 + 10.0 * 60.0 + 13.0;
const OUTAGE_FOR: f64 = 1.5 * 3600.0 + 11.0;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn blessing() -> bool {
    std::env::var_os("CLOUDMEDIA_BLESS").is_some()
}

/// Every single-site fault class, each landing between segment
/// boundaries.
fn faults() -> FaultSchedule {
    let mut s = FaultSchedule::vm_outage(0.4 * HORIZON + 13.0, 0.5, 0.15 * HORIZON);
    s.tracker_dropouts =
        FaultSchedule::tracker_blackout(0.6 * HORIZON + 29.0, 0.1 * HORIZON).tracker_dropouts;
    s.cost_shocks = FaultSchedule::budget_shock(0.8 * HORIZON + 41.0, 0.6).cost_shocks;
    s.degrade = DegradeMode::ShedNewArrivals;
    s
}

/// Unaligned intervals, the horizon, and the fault schedule.
fn unaligned(cfg: &mut SimConfig) {
    cfg.round_seconds = ROUND;
    cfg.sample_interval = SAMPLE;
    cfg.provisioning_interval = PROVISION;
    cfg.trace.horizon_seconds = HORIZON;
    cfg.faults = faults();
}

fn single_site(kernel: SimKernel, mode: SimMode) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.catalog = Catalog::zipf(6, 0.8, ViewingModel::paper_default(), 200.0, 300.0).unwrap();
    cfg.kernel = kernel;
    unaligned(&mut cfg);
    cfg
}

/// The site outage, of site `site`.
fn outage(site: usize) -> Vec<SiteOutage> {
    vec![SiteOutage {
        at: OUTAGE_AT,
        site,
        duration_seconds: OUTAGE_FOR,
    }]
}

/// A deployment under the single-site schedule plus, where it has a
/// site 1, the site outage.
fn deployment_config(kind: DeploymentKind, kernel: SimKernel, mode: SimMode) -> FederatedConfig {
    let mut fc = FederatedConfig::paper_default(kind, mode, HORIZON / 3600.0);
    fc.base.kernel = kernel;
    unaligned(&mut fc.base);
    if kind != DeploymentKind::Central {
        fc.base.faults.site_outages = outage(1);
    }
    fc
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.f(x));
    }

    fn counts(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x as u64));
    }
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn sample_digest(samples: &[Sample]) -> String {
    let mut d = Digest::new();
    for s in samples {
        d.f(s.time);
        d.f(s.reserved_bandwidth);
        d.f(s.used_bandwidth);
        d.f(s.quality);
        d.word(s.active_peers as u64);
        d.counts(&s.per_channel_peers);
        d.floats(&s.per_channel_quality);
        d.f(s.mean_startup_delay);
    }
    format!("{}:{:016x}", samples.len(), d.0)
}

fn interval_line(rec: &IntervalRecord) -> String {
    let mut channels = Digest::new();
    channels.floats(&rec.per_channel_demand);
    channels.floats(&rec.per_channel_storage_utility);
    channels.floats(&rec.per_channel_vm_utility);
    channels.counts(&rec.per_channel_peers);
    format!(
        "t={} vm_targets={:?} cost={} demand={} peer={} refreshed={} channels={:016x}",
        bits(rec.time),
        rec.vm_targets,
        bits(rec.vm_hourly_cost),
        bits(rec.total_cloud_demand),
        bits(rec.expected_peer_contribution),
        rec.placement_refreshed,
        channels.0,
    )
}

/// One line per provisioning interval (its record plus the digest of
/// the samples taken before the next boundary), then the site's bill.
fn site_lines(out: &mut String, label: &str, m: &Metrics) {
    let mut rest = m.samples.as_slice();
    for (k, rec) in m.intervals.iter().enumerate() {
        let end = m.intervals.get(k + 1).map_or(f64::INFINITY, |r| r.time);
        let split = rest.partition_point(|s| s.time <= end);
        let (within, later) = rest.split_at(split);
        rest = later;
        writeln!(
            out,
            "{label} i{k:02} {} samples={}",
            interval_line(rec),
            sample_digest(within)
        )
        .unwrap();
    }
    assert!(rest.is_empty(), "{label}: samples after the last interval");
    writeln!(
        out,
        "{label} bill vm={} storage={}",
        bits(m.total_vm_cost),
        bits(m.total_storage_cost)
    )
    .unwrap();
}

fn fault_line(out: &mut String, label: &str, s: &FaultStats) {
    writeln!(
        out,
        "{label} faults killed={} recovered={} shed={} retries={} backoff={} degraded={} \
         fallbacks={} replans={}",
        s.vms_killed,
        s.vms_recovered,
        s.shed_arrivals,
        s.retry_attempts,
        bits(s.retry_backoff_seconds),
        s.degraded_submissions,
        s.fallback_intervals,
        s.emergency_replans,
    )
    .unwrap();
}

/// Every run's fault counters, for the coverage test.
fn runs() -> (String, Vec<(String, FaultStats)>) {
    let mut out = String::new();
    let mut stats = Vec::new();
    let indexed = SimKernel::Indexed;
    deployment_runs(
        &mut out,
        &mut stats,
        "federated",
        DeploymentKind::Federated,
        indexed,
    );
    let (des, run) = (SimKernel::EventDriven, Simulator::run_with_faults);
    single_site_runs(&mut out, &mut stats, "indexed", indexed, run, &[]);
    single_site_runs(&mut out, &mut stats, "des", des, run, &[]);
    single_site_runs(&mut out, &mut stats, "scan", indexed, reference, &[]);
    deployment_runs(
        &mut out,
        &mut stats,
        "independent",
        DeploymentKind::Independent,
        indexed,
    );
    deployment_runs(
        &mut out,
        &mut stats,
        "central",
        DeploymentKind::Central,
        indexed,
    );
    // Appended last, so every line above stays byte-identical.
    for (engine, kernel) in [("indexed_down", indexed), ("des_down", des)] {
        single_site_runs(&mut out, &mut stats, engine, kernel, run, &outage(0));
    }
    (out, stats)
}

/// The reference engine's run of a simulator's config.
fn reference(sim: &Simulator) -> Result<FaultRun, SimError> {
    sim.run_reference(&Telemetry::disabled())
}

/// A deployment's C/S and P2P runs with `kernel` in every region: each
/// region's lines, then the deployment's totals and fault counters.
fn deployment_runs(
    out: &mut String,
    stats: &mut Vec<(String, FaultStats)>,
    deployment: &str,
    kind: DeploymentKind,
    kernel: SimKernel,
) {
    for (name, mode) in [("cs", SimMode::ClientServer), ("p2p", SimMode::P2p)] {
        let label = format!("{deployment}_{name}");
        let m = FederatedSimulator::new(deployment_config(kind, kernel, mode))
            .unwrap()
            .run()
            .unwrap();
        for (j, r) in m.per_region.iter().enumerate() {
            let region = format!("{label} r{j}");
            site_lines(out, &region, &r.metrics);
            writeln!(
                out,
                "{region} cloud_bytes={} redirected={} transfer={} penalty={}",
                bits(r.cloud_bytes),
                bits(r.redirected_bytes),
                bits(r.transfer_cost),
                bits(r.latency_penalty_cost),
            )
            .unwrap();
        }
        writeln!(
            out,
            "{label} totals vm={} storage={} transfer={} penalty={}",
            bits(m.total_vm_cost),
            bits(m.total_storage_cost),
            bits(m.total_transfer_cost),
            bits(m.total_latency_penalty_cost),
        )
        .unwrap();
        fault_line(out, &label, &m.fault_stats);
        stats.push((label, m.fault_stats));
    }
}

/// A single-site engine's C/S and P2P runs on the faulted 6-channel
/// config with `kernel`, plus `site_outages`, each executed by `run`.
fn single_site_runs(
    out: &mut String,
    stats: &mut Vec<(String, FaultStats)>,
    engine: &str,
    kernel: SimKernel,
    run: fn(&Simulator) -> Result<FaultRun, SimError>,
    site_outages: &[SiteOutage],
) {
    for (name, mode) in [("cs", SimMode::ClientServer), ("p2p", SimMode::P2p)] {
        let label = format!("{engine}_{name}");
        let mut cfg = single_site(kernel, mode);
        cfg.faults.site_outages = site_outages.to_vec();
        let run = run(&Simulator::new(cfg).unwrap()).unwrap();
        site_lines(out, &label, &run.metrics);
        fault_line(out, &label, &run.fault_stats);
        stats.push((label, run.fault_stats));
    }
}

#[test]
fn segment_boundaries_match_the_golden() {
    let (got, _) = runs();
    let path = fixture_path();
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {FIXTURE} ({e}); run with CLOUDMEDIA_BLESS=1"));
    for (n, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            w,
            g,
            "{FIXTURE} line {}: run diverged from the committed golden (re-bless only \
             for intentional behavior changes)",
            n + 1
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "{FIXTURE}: line count changed"
    );
}

/// The fixture exercises what it claims to: the horizon ends inside a
/// round, the burst kills VMs, sheds arrivals and is repaired, the
/// blackout replays a plan, and the outage forces both emergency
/// re-plans.
#[test]
fn golden_covers_every_boundary_kind() {
    assert_eq!(HORIZON % ROUND, 3.0);
    let (_, stats) = runs();
    assert_eq!(
        stats.len(),
        16,
        "eight engines or deployments, two modes each"
    );
    for (label, s) in &stats {
        assert!(s.fallback_intervals > 0, "{label}: blackout never replayed");
        assert!(s.shed_arrivals > 0, "{label}: nothing shed");
        assert!(s.vms_killed > 0, "{label}: burst killed nothing");
        assert!(s.vms_recovered > 0, "{label}: repair restored nothing");
        let replans = if label.starts_with("federated")
            || label.starts_with("independent")
            || label.contains("_down_")
        {
            2
        } else {
            // No outage, or a central deployment without a site 1.
            0
        };
        assert_eq!(s.emergency_replans, replans, "{label}: outage re-plans");
    }
}
