//! The simulator's metric catalog: the fixed-slot [`Spec`] table every
//! engine records into, plus helpers for wiring process-wide counters
//! and the fault plane into a registry.
//!
//! # Determinism contract
//!
//! Telemetry is a pure side channel. Nothing in this module (or in any
//! engine's recording code) feeds a metric value back into simulation
//! arithmetic or control flow, so a telemetry-enabled run produces
//! bit-identical [`Metrics`](crate::metrics::Metrics) to a disabled
//! run — pinned by `tests/telemetry_determinism.rs`. The segment
//! driver's shards count into their own fields and the driver adds them
//! to the registry in fixed site and shard order; counter totals are
//! order-free integer sums either way.

use cloudmedia_telemetry::{Kind, MetricId, Spec, Telemetry};

use crate::faults::FaultStats;

/// Round-sampling period for the round-stage lap clocks of an inline
/// segment's shards: in one round in this many (counted from the start
/// of the run) one of the segment's `n` shards — picked by a hash of the
/// round index — times its stages, and its laps are scaled by the period
/// times `n`. 17 keeps the per-round telemetry cost to a fraction of a
/// clock read, however many channels step inline, while still sampling
/// thousands of rounds on any multi-hour horizon.
///
/// The period must stay co-prime with the round counts of the
/// simulation's own periodic structure — above all the provisioning
/// interval (360 rounds at the paper's 10 s rounds / 1 h intervals).
/// A power-of-two period aliases against it: with period 16, every
/// other provisioning boundary lands on a sampled round and the rare
/// expensive stage is scaled ×16 from a biased sample (~8×
/// overestimate). With a period co-prime to the interval the sampled
/// phase walks through every residue, so periodic spikes are sampled
/// at their true 1-in-`STAGE_TIME_SAMPLE` rate.
pub const STAGE_TIME_SAMPLE: u64 = 17;

/// Shorthand for declaring the catalog below.
const fn c(name: &'static str, unit: &'static str) -> Spec {
    Spec::new(name, Kind::Counter, unit)
}
const fn g(name: &'static str, unit: &'static str) -> Spec {
    Spec::new(name, Kind::Gauge, unit)
}
const fn h(name: &'static str, unit: &'static str) -> Spec {
    Spec::new(name, Kind::Histogram, unit)
}

/// The simulator's metric catalog. Slot order is the export order; the
/// `MetricId` constants below index into it and must stay in sync.
///
/// Naming scheme: `stage/*` are the top-level round-loop stages (their
/// sum estimates the loop's wall time; `cloudmedia profile` tables
/// exactly this prefix), `prov/*` are provisioning sub-stages (subsets
/// of `stage/provisioning`, excluded from the profile table so nothing
/// double-counts), `solver/*`, `broker/*` and `arrivals/*` are deltas
/// of process-wide counters, `des/*` is event-kernel health, `faults/*`
/// mirrors [`FaultStats`], and `hist/*` are log2 histograms.
///
/// Every round-engine run steps on the segment driver, which laps
/// `stage/provisioning`, `stage/cloud`, `stage/reduce` and
/// `stage/sampling` once per segment of rounds, unsampled. How it times
/// the shards' work depends on how the segment stepped (the driver's
/// two rules, `crate::segments`): a segment fanned out over the pool is
/// one stage, `stage/shard_step` for a single site or
/// `stage/region_step` for the federation; an inline segment's shards
/// instead time their own round stages (`stage/arrivals` …
/// `stage/events`, and `stage/sampling` for their sample partials) as
/// sampled estimates: one shard in one round in [`STAGE_TIME_SAMPLE`],
/// scaled by the period times the shard count (see
/// [`Telemetry::stage_clock_sampled`]), so a clock read per stage
/// boundary is paid on ~6 % of rounds, on one shard, instead of on
/// every shard of every round. No stage counter nests inside another.
/// The DES engine times its event loop as one unsampled stage.
pub const SPECS: &[Spec] = &[
    c("stage/provisioning", "ns"),
    c("stage/arrivals", "ns"),
    c("stage/allocation", "ns"),
    c("stage/advance", "ns"),
    c("stage/events", "ns"),
    c("stage/cloud", "ns"),
    c("stage/sampling", "ns"),
    c("stage/reduce", "ns"),
    c("prov/tracker_summarize", "ns"),
    c("prov/controller_plan", "ns"),
    c("prov/broker_submit", "ns"),
    c("rounds", "count"),
    c("completed_chunks", "count"),
    c("woken_peers", "count"),
    c("arrivals_admitted", "count"),
    g("peers_peak", "count"),
    c("arrivals/generated", "count"),
    c("broker/submits", "count"),
    c("solver/direct_solves", "count"),
    c("solver/lu_factorizations", "count"),
    c("solver/lu_solves", "count"),
    c("solver/sm_updates", "count"),
    c("solver/sm_fallbacks", "count"),
    c("des/events_delivered", "count"),
    g("des/peak_pending", "count"),
    c("des/cancelled", "count"),
    c("des/recycled_slots", "count"),
    g("des/events_per_sec", "events/s"),
    c("faults/vms_killed", "count"),
    c("faults/vms_recovered", "count"),
    c("faults/shed_arrivals", "count"),
    c("faults/retry_attempts", "count"),
    c("faults/degraded_submissions", "count"),
    c("faults/fallback_intervals", "count"),
    c("faults/emergency_replans", "count"),
    c("faults/retry_backoff_us", "us"),
    h("hist/shard_wall_ns", "ns"),
    h("hist/region_wall_ns", "ns"),
    c("run", "ns"),
    c("prov/interval", "ns"),
    c("stage/shard_step", "ns"),
    c("stage/region_step", "ns"),
    h("hist/lane_wall_ns", "ns"),
    c("quiesce/rounds_skipped", "count"),
    c("quiesce/dirty_channels", "count"),
];

/// `stage/provisioning` — the boundary work before a segment's first
/// round: fault boundaries, provisioning, the federation's re-plans.
pub const STAGE_PROVISIONING: MetricId = MetricId(0);
/// `stage/arrivals` — arrival ingestion.
pub const STAGE_ARRIVALS: MetricId = MetricId(1);
/// `stage/allocation` — the engine's allocation stage.
pub const STAGE_ALLOCATION: MetricId = MetricId(2);
/// `stage/advance` — download advancement.
pub const STAGE_ADVANCE: MetricId = MetricId(3);
/// `stage/events` — completion/wake-up event handling.
pub const STAGE_EVENTS: MetricId = MetricId(4);
/// `stage/cloud` — the pre-step of every round of a segment: fault
/// boundaries, online fractions, cloud lifecycle + billing ticks.
pub const STAGE_CLOUD: MetricId = MetricId(5);
/// `stage/sampling` — metric sampling: the driver's fold of the
/// shards' sample partials, plus (round engine) the shard's sampled
/// partial writes.
pub const STAGE_SAMPLING: MetricId = MetricId(6);
/// `stage/reduce` — the round-by-round fold of the shards' used cloud
/// rates (and the federation's redirected-traffic metering).
pub const STAGE_REDUCE: MetricId = MetricId(7);
/// `prov/tracker_summarize` — interval statistics drain.
pub const PROV_TRACKER: MetricId = MetricId(8);
/// `prov/controller_plan` — the provisioning optimizer.
pub const PROV_PLAN: MetricId = MetricId(9);
/// `prov/broker_submit` — broker submission (with retries).
pub const PROV_SUBMIT: MetricId = MetricId(10);
/// `rounds` — simulation rounds executed.
pub const ROUNDS: MetricId = MetricId(11);
/// `completed_chunks` — chunk downloads completed.
pub const COMPLETED_CHUNKS: MetricId = MetricId(12);
/// `woken_peers` — playback-gate wake-ups handled.
pub const WOKEN_PEERS: MetricId = MetricId(13);
/// `arrivals_admitted` — arrivals admitted into the system.
pub const ARRIVALS_ADMITTED: MetricId = MetricId(14);
/// `peers_peak` — high-water mark of the connected population summed
/// over every site, at sample instants: the largest sample's
/// `active_peers` for a single site, `FederatedMetrics::peak_peers` for
/// a federation. Every round-engine run records it, and `rounds`,
/// `completed_chunks`, `woken_peers` and `arrivals_admitted`, the same
/// way.
pub const PEERS_PEAK: MetricId = MetricId(15);
/// `arrivals/generated` — trace arrivals drawn (process-wide delta).
pub const ARRIVALS_GENERATED: MetricId = MetricId(16);
/// `broker/submits` — broker requests submitted (process-wide delta).
pub const BROKER_SUBMITS: MetricId = MetricId(17);
/// `solver/direct_solves` — dense Gaussian solves.
pub const SOLVER_DIRECT: MetricId = MetricId(18);
/// `solver/lu_factorizations` — LU factorizations.
pub const SOLVER_LU_FACTOR: MetricId = MetricId(19);
/// `solver/lu_solves` — back-substitutions against a cached LU.
pub const SOLVER_LU_SOLVE: MetricId = MetricId(20);
/// `solver/sm_updates` — Sherman–Morrison rank-one row updates.
pub const SOLVER_SM_UPDATE: MetricId = MetricId(21);
/// `solver/sm_fallbacks` — rows that fell back to a direct solve.
pub const SOLVER_SM_FALLBACK: MetricId = MetricId(22);
/// `des/events_delivered` — events the DES kernel delivered.
pub const DES_EVENTS: MetricId = MetricId(23);
/// `des/peak_pending` — pending-event high-water mark.
pub const DES_PEAK_PENDING: MetricId = MetricId(24);
/// `des/cancelled` — cancellations that hit a live event.
pub const DES_CANCELLED: MetricId = MetricId(25);
/// `des/recycled_slots` — timing-wheel slot reuses.
pub const DES_RECYCLED: MetricId = MetricId(26);
/// `des/events_per_sec` — delivered events per wall second.
pub const DES_EVENTS_PER_SEC: MetricId = MetricId(27);
/// `faults/vms_killed`.
pub const FAULT_VMS_KILLED: MetricId = MetricId(28);
/// `faults/vms_recovered`.
pub const FAULT_VMS_RECOVERED: MetricId = MetricId(29);
/// `faults/shed_arrivals`.
pub const FAULT_SHED_ARRIVALS: MetricId = MetricId(30);
/// `faults/retry_attempts`.
pub const FAULT_RETRY_ATTEMPTS: MetricId = MetricId(31);
/// `faults/degraded_submissions`.
pub const FAULT_DEGRADED: MetricId = MetricId(32);
/// `faults/fallback_intervals`.
pub const FAULT_FALLBACKS: MetricId = MetricId(33);
/// `faults/emergency_replans`.
pub const FAULT_REPLANS: MetricId = MetricId(34);
/// `faults/retry_backoff_us` — simulated backoff, microseconds.
pub const FAULT_BACKOFF_US: MetricId = MetricId(35);
/// `hist/shard_wall_ns` — one observation per shard: its whole-run
/// wall time stepping segments.
pub const HIST_SHARD_WALL: MetricId = MetricId(36);
/// `hist/region_wall_ns` — one observation per region: the sum of its
/// shards' whole-run wall times stepping segments (rounds and sample
/// partials; the cloud ticks run in `stage/cloud`).
pub const HIST_REGION_WALL: MetricId = MetricId(37);
/// `run` — whole-run wall time (also the trace's top-level span).
pub const RUN_WALL: MetricId = MetricId(38);
/// `prov/interval` — one whole provisioning boundary (trace span; the
/// stage counter equivalent is `stage/provisioning`).
pub const PROV_INTERVAL: MetricId = MetricId(39);
/// `stage/shard_step` — a single site's fanned-out segments (arrivals,
/// allocation, advance, events and sample partials happen inside the
/// shards on the pool, so the profile reports them as one stage).
pub const STAGE_SHARD_STEP: MetricId = MetricId(40);
/// `stage/region_step` — the federated simulator's fanned-out segments
/// over every shard of every region (arrivals, allocation, advance,
/// events and sample partials).
pub const STAGE_REGION_STEP: MetricId = MetricId(41);
/// `hist/lane_wall_ns` — always empty. The sub-channel lane fan-out
/// that observed its per-lane wall times here was removed (a shard
/// steps on one thread); the slot stays because the repository
/// benchmark (`perfbench/src/layers.rs`) still reads it as
/// `sim.lane_wall_p50_us` and `sim.lane_wall_p99_us`.
pub const HIST_LANE_WALL: MetricId = MetricId(42);
/// `quiesce/rounds_skipped` — always 0. The round-skipping engine that
/// counted skipped shard-rounds here was removed (every shard steps
/// every round); the slot stays because the repository benchmark
/// (`perfbench/src/layers.rs`) still reads it.
pub const QUIESCE_ROUNDS_SKIPPED: MetricId = MetricId(43);
/// `quiesce/dirty_channels` — always 0, kept for the same reason as
/// [`QUIESCE_ROUNDS_SKIPPED`].
pub const QUIESCE_DIRTY_CHANNELS: MetricId = MetricId(44);

/// A live registry over the simulator catalog; with `trace` the
/// explicit span call sites also buffer Chrome trace events.
pub fn new_registry(trace: bool) -> Telemetry {
    if trace {
        Telemetry::with_trace(SPECS)
    } else {
        Telemetry::new(SPECS)
    }
}

/// Copies the fault plane's counters into the registry (`faults/*`).
/// Call once per run, after the fault driver has finished.
pub fn record_fault_stats(tel: &Telemetry, stats: &FaultStats) {
    if !tel.enabled() {
        return;
    }
    tel.add(FAULT_VMS_KILLED, stats.vms_killed);
    tel.add(FAULT_VMS_RECOVERED, stats.vms_recovered);
    tel.add(FAULT_SHED_ARRIVALS, stats.shed_arrivals);
    tel.add(FAULT_RETRY_ATTEMPTS, stats.retry_attempts);
    tel.add(FAULT_DEGRADED, stats.degraded_submissions);
    tel.add(FAULT_FALLBACKS, stats.fallback_intervals);
    tel.add(FAULT_REPLANS, stats.emergency_replans);
    tel.add(
        FAULT_BACKOFF_US,
        (stats.retry_backoff_seconds * 1e6).round() as u64,
    );
}

/// A capture of the process-wide instrumentation counters that live in
/// the library crates (solver kernels, broker, trace generator), taken
/// before a run so the after-run delta can be attributed to it.
///
/// The statics are process-wide: with a single coordinator the deltas
/// are exact per-run; if other simulations run concurrently in the same
/// process (federated regions stepping in parallel each drive their own
/// broker), a run's delta includes their activity too, so treat the
/// values as whole-process totals in that case.
#[derive(Debug, Clone, Copy)]
pub struct GlobalCounters {
    arrivals_generated: u64,
    broker_submits: u64,
    direct_solves: u64,
    lu_factorizations: u64,
    lu_solves: u64,
    sm_updates: u64,
    sm_fallbacks: u64,
}

impl GlobalCounters {
    /// Reads the current totals.
    pub fn capture() -> Self {
        Self {
            arrivals_generated: cloudmedia_workload::trace::ARRIVALS_GENERATED.get(),
            broker_submits: cloudmedia_cloud::broker::BROKER_SUBMITS.get(),
            direct_solves: cloudmedia_queueing::linalg::DIRECT_SOLVES.get(),
            lu_factorizations: cloudmedia_queueing::linalg::LU_FACTORIZATIONS.get(),
            lu_solves: cloudmedia_queueing::linalg::LU_SOLVES.get(),
            sm_updates: cloudmedia_core::analysis::p2p::SHERMAN_MORRISON_UPDATES.get(),
            sm_fallbacks: cloudmedia_core::analysis::p2p::SHERMAN_MORRISON_FALLBACKS.get(),
        }
    }

    /// Records `now - self` into the registry's delta counters.
    pub fn record_delta(&self, tel: &Telemetry) {
        if !tel.enabled() {
            return;
        }
        let now = Self::capture();
        let d = |a: u64, b: u64| a.wrapping_sub(b);
        tel.add(
            ARRIVALS_GENERATED,
            d(now.arrivals_generated, self.arrivals_generated),
        );
        tel.add(BROKER_SUBMITS, d(now.broker_submits, self.broker_submits));
        tel.add(SOLVER_DIRECT, d(now.direct_solves, self.direct_solves));
        tel.add(
            SOLVER_LU_FACTOR,
            d(now.lu_factorizations, self.lu_factorizations),
        );
        tel.add(SOLVER_LU_SOLVE, d(now.lu_solves, self.lu_solves));
        tel.add(SOLVER_SM_UPDATE, d(now.sm_updates, self.sm_updates));
        tel.add(SOLVER_SM_FALLBACK, d(now.sm_fallbacks, self.sm_fallbacks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `MetricId` constants must agree with their slot in `SPECS`.
    #[test]
    fn ids_match_catalog_order() {
        let pairs: &[(MetricId, &str)] = &[
            (STAGE_PROVISIONING, "stage/provisioning"),
            (STAGE_REDUCE, "stage/reduce"),
            (PROV_SUBMIT, "prov/broker_submit"),
            (ROUNDS, "rounds"),
            (PEERS_PEAK, "peers_peak"),
            (ARRIVALS_GENERATED, "arrivals/generated"),
            (SOLVER_SM_FALLBACK, "solver/sm_fallbacks"),
            (DES_EVENTS_PER_SEC, "des/events_per_sec"),
            (FAULT_REPLANS, "faults/emergency_replans"),
            (HIST_SHARD_WALL, "hist/shard_wall_ns"),
            (HIST_REGION_WALL, "hist/region_wall_ns"),
            (RUN_WALL, "run"),
            (PROV_INTERVAL, "prov/interval"),
            (STAGE_SHARD_STEP, "stage/shard_step"),
            (STAGE_REGION_STEP, "stage/region_step"),
            (HIST_LANE_WALL, "hist/lane_wall_ns"),
            (QUIESCE_ROUNDS_SKIPPED, "quiesce/rounds_skipped"),
            (QUIESCE_DIRTY_CHANNELS, "quiesce/dirty_channels"),
        ];
        for &(id, name) in pairs {
            assert_eq!(SPECS[id.0].name, name);
        }
        assert_eq!(SPECS.len(), 45);
    }

    #[test]
    fn fault_stats_map_onto_counters() {
        let tel = new_registry(false);
        let stats = FaultStats {
            vms_killed: 3,
            shed_arrivals: 7,
            emergency_replans: 2,
            ..FaultStats::default()
        };
        record_fault_stats(&tel, &stats);
        let snap = tel.snapshot();
        assert_eq!(snap.value(FAULT_VMS_KILLED), 3);
        assert_eq!(snap.value(FAULT_SHED_ARRIVALS), 7);
        assert_eq!(snap.value(FAULT_REPLANS), 2);
        assert_eq!(snap.value(FAULT_RETRY_ATTEMPTS), 0);
    }

    #[test]
    fn global_counter_deltas_are_attributed() {
        let before = GlobalCounters::capture();
        cloudmedia_cloud::broker::BROKER_SUBMITS.inc();
        cloudmedia_queueing::linalg::LU_SOLVES.add(4);
        let tel = new_registry(false);
        before.record_delta(&tel);
        let snap = tel.snapshot();
        // Other tests in the process may also bump these; deltas are
        // at least what we added here.
        assert!(snap.value(BROKER_SUBMITS) >= 1);
        assert!(snap.value(SOLVER_LU_SOLVE) >= 4);
    }
}
