//! Zero-dependency runtime telemetry plane for the CloudMedia
//! reproduction: a fixed-slot metrics registry (counters, gauges,
//! log2-bucket histograms), scoped stage timers, and a span recorder
//! that exports Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! # Design rules
//!
//! The simulators carry a determinism contract (telemetry-on runs must
//! be bit-identical to telemetry-off), so everything here is a pure
//! side channel:
//!
//! - Recording never branches simulation control flow: a [`Telemetry`]
//!   handle built with [`Telemetry::disabled`] makes every operation a
//!   single predictable branch and *no* clock read.
//! - Counter and histogram cells are `u64`s combined with wrapping
//!   addition, which is commutative and associative — totals are
//!   independent of thread interleaving.
//! - Wall-clock *values* (stage timers) are inherently run-to-run
//!   noisy; only their existence, never their magnitude, may feed back
//!   into the run. Nothing in this crate is read by simulation code.
//!
//! # Example
//!
//! ```
//! use cloudmedia_telemetry::{Kind, MetricId, Spec, Telemetry};
//!
//! const SPECS: &[Spec] = &[
//!     Spec::new("stage/arrivals", Kind::Counter, "ns"),
//!     Spec::new("rounds", Kind::Counter, "count"),
//! ];
//! const STAGE_ARRIVALS: MetricId = MetricId(0);
//! const ROUNDS: MetricId = MetricId(1);
//!
//! let tel = Telemetry::new(SPECS);
//! {
//!     let _span = tel.span(STAGE_ARRIVALS);
//!     tel.add(ROUNDS, 1);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.value(ROUNDS), 1);
//! assert!(snap.value(STAGE_ARRIVALS) > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Number of buckets in a log2 histogram: bucket 0 counts zero values,
/// bucket `b` (1 ≤ b ≤ 64) counts values in `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// What a registry slot measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone sum (wrapping `u64` addition).
    Counter,
    /// Last-written value; use [`Telemetry::gauge_max`] for high-water
    /// marks that may race across threads.
    Gauge,
    /// Log2-bucket histogram of `u64` observations.
    Histogram,
}

/// Static description of one registry slot.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Stable metric name, e.g. `"stage/arrivals"`.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: Kind,
    /// Unit label carried into the JSON export (`"ns"`, `"count"`, …).
    pub unit: &'static str,
}

impl Spec {
    /// Describes one slot (usable in `const` spec tables).
    pub const fn new(name: &'static str, kind: Kind, unit: &'static str) -> Self {
        Self { name, kind, unit }
    }

    const fn cell_count(&self) -> usize {
        match self.kind {
            Kind::Counter | Kind::Gauge => 1,
            Kind::Histogram => HIST_BUCKETS,
        }
    }
}

/// Index of a metric in the spec slice its registry was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub usize);

/// Maps an observation to its log2 bucket: `0` for zero, else
/// `floor(log2(v)) + 1`, so bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` covered by histogram bucket `b`.
/// Bucket 0 is `[0, 0]`; bucket 64 is `[2^63, u64::MAX]`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (b - 1), (1 << b) - 1),
    }
}

/// One emitted trace span (begin/end pair) in the recorder buffer.
#[derive(Debug, Clone, Copy)]
struct TraceSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    tid: u32,
}

/// A named table of `u64` rows attached to the metrics export —
/// used for per-entity series that do not fit fixed slots, like
/// per-shard wall time or per-region round timings.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name, e.g. `"shards"`.
    pub name: &'static str,
    /// Column labels, one per entry of each row.
    pub columns: &'static [&'static str],
    /// Row data, `columns.len()` entries each.
    pub rows: Vec<Vec<u64>>,
}

/// The telemetry handle: a fixed-slot registry plus (optionally) a
/// trace-span recorder. Cheap to share by reference; all recording
/// methods take `&self`.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    trace_enabled: bool,
    specs: &'static [Spec],
    offsets: Vec<u32>,
    cells: Vec<AtomicU64>,
    epoch: Instant,
    /// One empty lap's cost, ns (see [`lap_cost_ns`]); 0 when disabled.
    lap_ns: u64,
    spans: Mutex<Vec<TraceSpan>>,
    tables: Mutex<Vec<Table>>,
}

/// The cost of one empty lap, ns: the median gap between 63
/// back-to-back laps (a clock read and a relaxed add each) with no work
/// between them. The interval between two lap stamps spans one lap's
/// own cost besides the stage's work, so [`StageClock::lap`] subtracts
/// this; otherwise a clock that laps many small stages (one per channel
/// shard) would credit each of them a lap.
fn lap_cost_ns() -> u64 {
    let sink = AtomicU64::new(0);
    let mut gaps = [0u64; 63];
    let mut last = Instant::now();
    for gap in &mut gaps {
        let now = Instant::now();
        *gap = u64::try_from(now.duration_since(last).as_nanos()).unwrap_or(u64::MAX);
        sink.fetch_add(*gap, Ordering::Relaxed);
        last = now;
    }
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

fn layout(specs: &[Spec]) -> (Vec<u32>, usize) {
    let mut offsets = Vec::with_capacity(specs.len());
    let mut total = 0usize;
    for spec in specs {
        offsets.push(total as u32);
        total += spec.cell_count();
    }
    (offsets, total)
}

impl Telemetry {
    /// An enabled registry over `specs`, without trace recording.
    pub fn new(specs: &'static [Spec]) -> Self {
        Self::build(specs, true, false)
    }

    /// An enabled registry that also records trace spans for export
    /// via [`Telemetry::trace_json`].
    pub fn with_trace(specs: &'static [Spec]) -> Self {
        Self::build(specs, true, true)
    }

    /// The no-op sink: every recording method returns after one
    /// branch, and no clocks are read. This is what simulation entry
    /// points pass when the caller did not ask for telemetry.
    pub fn disabled() -> Self {
        Self::build(&[], false, false)
    }

    fn build(specs: &'static [Spec], enabled: bool, trace_enabled: bool) -> Self {
        let (offsets, total) = layout(specs);
        let mut cells = Vec::with_capacity(total);
        cells.resize_with(total, AtomicU64::default);
        Self {
            enabled,
            trace_enabled,
            specs,
            offsets,
            cells,
            epoch: Instant::now(),
            lap_ns: if enabled { lap_cost_ns() } else { 0 },
            spans: Mutex::new(Vec::new()),
            tables: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is live (false for [`Telemetry::disabled`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being buffered for trace export.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled
    }

    #[inline]
    fn cell(&self, id: MetricId) -> &AtomicU64 {
        &self.cells[self.offsets[id.0] as usize]
    }

    /// Adds `v` to a counter (wrapping).
    #[inline]
    pub fn add(&self, id: MetricId, v: u64) {
        if !self.enabled {
            return;
        }
        self.cell(id).fetch_add(v, Ordering::Relaxed);
    }

    /// Stores `v` into a gauge (last writer wins).
    #[inline]
    pub fn gauge_set(&self, id: MetricId, v: u64) {
        if !self.enabled {
            return;
        }
        self.cell(id).store(v, Ordering::Relaxed);
    }

    /// Raises a gauge to `v` if `v` is larger (high-water mark; safe
    /// to race from many threads).
    #[inline]
    pub fn gauge_max(&self, id: MetricId, v: u64) {
        if !self.enabled {
            return;
        }
        self.cell(id).fetch_max(v, Ordering::Relaxed);
    }

    /// Records `v` into a histogram's log2 bucket.
    #[inline]
    pub fn observe(&self, id: MetricId, v: u64) {
        if !self.enabled {
            return;
        }
        let base = self.offsets[id.0] as usize;
        self.cells[base + bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a scoped timer: on drop, the elapsed nanoseconds are
    /// added to counter `id`, and (when tracing) a begin/end span pair
    /// is buffered under the metric's name.
    #[inline]
    pub fn span(&self, id: MetricId) -> Span<'_> {
        Span {
            tel: self,
            id,
            start: self.enabled.then(Instant::now),
        }
    }

    /// A lap clock for timing consecutive stages with a single clock
    /// read per boundary — half the cost of nested spans in hot loops.
    #[inline]
    pub fn stage_clock(&self) -> StageClock<'_> {
        self.stage_clock_sampled(1)
    }

    /// A lap clock that scales each recorded lap by `period`. A caller
    /// that builds one for only one round in `period` (as the segment
    /// driver does) gets stage counters that are unbiased estimates of
    /// the true totals at `1/period` of the clock-read cost.
    #[inline]
    pub fn stage_clock_sampled(&self, period: u64) -> StageClock<'_> {
        StageClock {
            tel: self,
            last: self.enabled.then(Instant::now),
            period: period.max(1),
        }
    }

    /// Attaches a named row table to the export (per-shard, per-region
    /// series). Push in a fixed order from the coordinator.
    pub fn push_table(
        &self,
        name: &'static str,
        columns: &'static [&'static str],
        rows: Vec<Vec<u64>>,
    ) {
        if !self.enabled {
            return;
        }
        self.lock_tables().push(Table {
            name,
            columns,
            rows,
        });
    }

    /// Nanoseconds since this handle was constructed (trace timebase).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let tid = current_tid();
        self.lock_spans().push(TraceSpan {
            name,
            start_ns,
            end_ns,
            tid,
        });
    }

    fn lock_spans(&self) -> std::sync::MutexGuard<'_, Vec<TraceSpan>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tables(&self) -> std::sync::MutexGuard<'_, Vec<Table>> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time copy of every slot plus the attached tables.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            specs: self.specs,
            offsets: self.offsets.clone(),
            cells: self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            tables: self.lock_tables().clone(),
        }
    }

    /// The buffered spans as Chrome trace-event JSON (`ph: "B"`/`"E"`
    /// pairs, microsecond timestamps). Load the file in Perfetto or
    /// `chrome://tracing`.
    pub fn trace_json(&self) -> String {
        let spans = self.lock_spans();
        let mut out = String::with_capacity(64 + spans.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_trace_event(&mut out, s.name, 'B', s.start_ns, s.tid);
            out.push(',');
            push_trace_event(&mut out, s.name, 'E', s.end_ns, s.tid);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn push_trace_event(out: &mut String, name: &str, ph: char, ts_ns: u64, tid: u32) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"cloudmedia\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{tid}}}",
        escape(name),
        ts_ns / 1_000,
        ts_ns % 1_000
    );
}

static TID_SEED: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_TID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn current_tid() -> u32 {
    THREAD_TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let fresh = TID_SEED.fetch_add(1, Ordering::Relaxed) + 1;
        t.set(fresh);
        fresh
    })
}

/// RAII stage timer from [`Telemetry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    tel: &'a Telemetry,
    id: MetricId,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        self.tel.cell(self.id).fetch_add(ns, Ordering::Relaxed);
        if self.tel.trace_enabled {
            let end_ns = self.tel.elapsed_ns();
            self.tel.record_span(
                self.tel.specs[self.id.0].name,
                end_ns.saturating_sub(ns),
                end_ns,
            );
        }
    }
}

/// Lap clock from [`Telemetry::stage_clock`] /
/// [`Telemetry::stage_clock_sampled`]: each [`StageClock::lap`]
/// attributes the time since the previous boundary, less the lap's own
/// cost, to one stage counter with a single clock read. Laps feed
/// counters only — they never emit trace events, so a per-round lap in
/// a million-round loop costs one clock read and one relaxed add, and
/// trace files stay bounded by the explicit [`Telemetry::span`] call
/// sites. A sampled clock scales each recorded lap up by `period`, so
/// timing one round in `period` keeps the counters unbiased estimates
/// of the true stage totals.
#[derive(Debug)]
pub struct StageClock<'a> {
    tel: &'a Telemetry,
    /// The previous boundary; `None` on a disabled registry.
    last: Option<Instant>,
    period: u64,
}

impl StageClock<'_> {
    /// Ends the current stage, crediting its duration less one empty
    /// lap (scaled by the sampling period) to `id`, and starts the next
    /// one.
    #[inline]
    pub fn lap(&mut self, id: MetricId) {
        let Some(last) = self.last else { return };
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(last).as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_sub(self.tel.lap_ns);
        self.tel
            .cell(id)
            .fetch_add(ns.saturating_mul(self.period), Ordering::Relaxed);
        self.last = Some(now);
    }

    /// Restarts the clock without attributing the elapsed interval to
    /// any stage (for gaps that should not be counted).
    #[inline]
    pub fn skip(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

/// A point-in-time view of a registry, decoupled from the atomics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    specs: &'static [Spec],
    offsets: Vec<u32>,
    cells: Vec<u64>,
    tables: Vec<Table>,
}

impl Snapshot {
    /// The value of a counter or gauge slot.
    pub fn value(&self, id: MetricId) -> u64 {
        self.cells[self.offsets[id.0] as usize]
    }

    /// The 65 bucket counts of a histogram slot.
    pub fn buckets(&self, id: MetricId) -> &[u64] {
        let base = self.offsets[id.0] as usize;
        &self.cells[base..base + HIST_BUCKETS]
    }

    /// The specs this snapshot was taken over.
    pub fn specs(&self) -> &'static [Spec] {
        self.specs
    }

    /// The attached row tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Counter/gauge slots whose name starts with `prefix`, sorted by
    /// descending value — the "sorted stage-time table" shape.
    pub fn sorted_by_value(&self, prefix: &str) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = self
            .specs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind != Kind::Histogram && s.name.starts_with(prefix))
            .map(|(i, s)| (s.name, self.value(MetricId(i))))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The registry as a JSON document: a `metrics` array (histograms
    /// as sparse `[bucket, count]` pairs) plus the attached `tables`.
    pub fn metrics_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256 + self.specs.len() * 96);
        out.push_str("{\n  \"schema\": \"cloudmedia-telemetry/v1\",\n  \"metrics\": [");
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",",
                escape(spec.name),
                match spec.kind {
                    Kind::Counter => "counter",
                    Kind::Gauge => "gauge",
                    Kind::Histogram => "histogram",
                },
                escape(spec.unit)
            );
            match spec.kind {
                Kind::Counter | Kind::Gauge => {
                    let _ = write!(out, "\"value\":{}}}", self.value(MetricId(i)));
                }
                Kind::Histogram => {
                    out.push_str("\"buckets\":[");
                    let mut first = true;
                    for (b, &count) in self.buckets(MetricId(i)).iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(out, "[{b},{count}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  ],\n  \"tables\": [");
        for (t, table) in self.tables.iter().enumerate() {
            if t > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\":\"{}\",\"columns\":[",
                escape(table.name)
            );
            for (c, col) in table.columns.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", escape(col));
            }
            out.push_str("],\"rows\":[");
            for (r, row) in table.rows.iter().enumerate() {
                if r > 0 {
                    out.push(',');
                }
                out.push('[');
                for (v, val) in row.iter().enumerate() {
                    if v > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{val}");
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A process-global relaxed counter for instrumenting deep call sites
/// (solver kernels, broker submissions) without threading a handle
/// through their APIs. Readers take before/after deltas around a run.
#[derive(Debug, Default)]
pub struct GlobalCounter(AtomicU64);

impl GlobalCounter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn escape(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &[Spec] = &[
        Spec::new("stage/a", Kind::Counter, "ns"),
        Spec::new("gauge/peak", Kind::Gauge, "count"),
        Spec::new("hist/values", Kind::Histogram, "count"),
        Spec::new("stage/b", Kind::Counter, "ns"),
    ];
    const A: MetricId = MetricId(0);
    const PEAK: MetricId = MetricId(1);
    const HIST: MetricId = MetricId(2);
    const B: MetricId = MetricId(3);

    #[test]
    fn disabled_sink_records_nothing() {
        let tel = Telemetry::disabled();
        tel.add(A, 5);
        tel.gauge_max(PEAK, 9);
        tel.observe(HIST, 7);
        {
            let _s = tel.span(A);
        }
        let mut clk = tel.stage_clock();
        clk.lap(A);
        assert!(!tel.enabled());
        assert!(tel.trace_json().contains("\"traceEvents\":[]"));
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let tel = Telemetry::new(SPECS);
        tel.add(A, 5);
        tel.add(A, 7);
        tel.gauge_set(PEAK, 3);
        tel.gauge_max(PEAK, 10);
        tel.gauge_max(PEAK, 4);
        tel.observe(HIST, 0);
        tel.observe(HIST, 1);
        tel.observe(HIST, 1024);
        let snap = tel.snapshot();
        assert_eq!(snap.value(A), 12);
        assert_eq!(snap.value(PEAK), 10);
        assert_eq!(snap.buckets(HIST)[0], 1);
        assert_eq!(snap.buckets(HIST)[1], 1);
        assert_eq!(snap.buckets(HIST)[11], 1);
        let json = snap.metrics_json();
        assert!(json.contains("\"name\":\"stage/a\""));
        assert!(json.contains("\"value\":12"));
        assert!(json.contains("[11,1]"));
    }

    #[test]
    fn spans_feed_counters_and_trace_pairs_match() {
        let tel = Telemetry::with_trace(SPECS);
        {
            let _outer = tel.span(A);
            let _inner = tel.span(B);
        }
        let snap = tel.snapshot();
        assert!(snap.value(A) > 0);
        assert!(snap.value(B) > 0);
        let trace = tel.trace_json();
        let begins = trace.matches("\"ph\":\"B\"").count();
        let ends = trace.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 2);
        assert_eq!(begins, ends);
    }

    #[test]
    fn stage_clock_attributes_laps() {
        let tel = Telemetry::new(SPECS);
        let mut clk = tel.stage_clock();
        std::thread::sleep(std::time::Duration::from_millis(1));
        clk.lap(A);
        clk.skip();
        clk.lap(B);
        let snap = tel.snapshot();
        assert!(snap.value(A) >= 1_000_000);
    }

    #[test]
    fn empty_laps_credit_a_small_fraction_of_their_own_cost() {
        // Each lap takes the registry's measured lap cost out, so
        // back-to-back empty laps credit only their jitter, well under
        // half the time they take; uncalibrated, they would credit all
        // of it. A preemption credits its whole length to one lap, so
        // the check passes if any of five attempts does.
        let tel = Telemetry::new(SPECS);
        let calibrated = (0..5).any(|_| {
            let before = tel.snapshot().value(A);
            let start = Instant::now();
            let mut clk = tel.stage_clock();
            for _ in 0..10_000 {
                clk.lap(A);
            }
            let took = start.elapsed().as_nanos();
            let credited = u128::from(tel.snapshot().value(A) - before);
            credited < took / 2
        });
        assert!(calibrated, "empty laps credited their own cost");
    }

    #[test]
    fn sampled_stage_clock_times_one_round_in_period() {
        // The segment driver builds a clock with the sampling period for
        // the one round in `period` it times: each of its laps stands for
        // `period` laps, so it credits `period` times its interval less
        // one empty lap. The interval lies between the sleep and the
        // wall time measured around the clock.
        let tel = Telemetry::new(SPECS);
        for (period, id) in [(4, A), (1, B)] {
            let start = Instant::now();
            let mut clk = tel.stage_clock_sampled(period);
            std::thread::sleep(std::time::Duration::from_millis(1));
            clk.lap(id);
            let outer = u64::try_from(start.elapsed().as_nanos()).unwrap();
            let credited = tel.snapshot().value(id);
            assert!(
                (period * (1_000_000 - tel.lap_ns)..=period * outer).contains(&credited),
                "period {period}: credited {credited} ns over {outer} ns"
            );
        }

        // A disabled registry's sampled clock records nothing.
        let off = Telemetry::disabled();
        let mut clk = off.stage_clock_sampled(4);
        clk.lap(A);
    }

    #[test]
    fn sorted_table_orders_by_value() {
        let tel = Telemetry::new(SPECS);
        tel.add(A, 10);
        tel.add(B, 90);
        let rows = tel.snapshot().sorted_by_value("stage/");
        assert_eq!(rows[0], ("stage/b", 90));
        assert_eq!(rows[1], ("stage/a", 10));
    }

    #[test]
    fn tables_export_rows() {
        let tel = Telemetry::new(SPECS);
        tel.push_table(
            "shards",
            &["channel", "wall_ns"],
            vec![vec![0, 17], vec![1, 4]],
        );
        let json = tel.snapshot().metrics_json();
        assert!(json.contains("\"name\":\"shards\""));
        assert!(json.contains("[0,17]"));
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64).1, u64::MAX);
        for b in 0..HIST_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(b);
            let (lo_next, _) = bucket_bounds(b + 1);
            assert_eq!(hi.wrapping_add(1), lo_next, "bucket {b} not contiguous");
        }
    }

    #[test]
    fn global_counter_accumulates() {
        static C: GlobalCounter = GlobalCounter::new();
        let before = C.get();
        C.inc();
        C.add(2);
        assert_eq!(C.get() - before, 3);
    }
}
