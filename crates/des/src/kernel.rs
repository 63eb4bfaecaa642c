//! The event queue and logical clock.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::wheel::TimingWheel;

/// Identifier of a component (an event destination). Scenario engines
/// assign these; the kernel only routes on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

/// Identifier of a scheduled event, usable to cancel it before delivery.
/// Events are numbered sequentially from 0 in schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u64);

/// Which event-queue scheduler backs a [`Kernel`].
///
/// Both schedulers implement the identical delivery contract — strict
/// `(time, sequence number)` order, FIFO within a timestamp — and are
/// property-tested to produce bit-identical event sequences for the same
/// schedule. They differ only in cost model:
///
/// - [`SchedulerKind::BinaryHeap`]: `O(log n)` sift work per schedule and
///   pop, lazy cancellation through a tombstone set. Kept as the simple
///   reference implementation and benchmark baseline.
/// - [`SchedulerKind::TimingWheel`] (default): the hierarchical
///   timing-wheel scheduler (`src/wheel.rs`) — O(1) amortized
///   schedule/cancel/pop over slab-allocated events with free-list
///   recycling, the design high-event-rate simulators (ns-3, OMNeT++)
///   converged on.
///
/// ```
/// use cloudmedia_des::{ComponentId, Kernel, SchedulerKind};
///
/// // Same schedule on both backends → identical delivery order.
/// const DEST: ComponentId = ComponentId(0);
/// let mut deliveries: Vec<Vec<(f64, &str)>> = Vec::new();
/// for kind in [SchedulerKind::BinaryHeap, SchedulerKind::TimingWheel] {
///     let mut kernel: Kernel<&str> = Kernel::with_scheduler(kind);
///     assert_eq!(kernel.scheduler(), kind);
///     kernel.schedule_at(3.0, DEST, "provision");
///     kernel.schedule_at(1.0, DEST, "arrival");
///     kernel.schedule_at(1.0, DEST, "arrival-tie"); // FIFO on equal times
///     let mut seen = Vec::new();
///     while let Some(event) = kernel.pop() {
///         seen.push((event.time, event.payload));
///     }
///     deliveries.push(seen);
/// }
/// assert_eq!(deliveries[0], deliveries[1]);
/// assert_eq!(deliveries[0][0].1, "arrival");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Binary-heap priority queue with lazy cancellation.
    BinaryHeap,
    /// Hierarchical timing wheel with eager O(1) cancellation.
    #[default]
    TimingWheel,
}

/// A delivered event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event<E> {
    /// The event's identifier (its schedule sequence number).
    pub id: EventId,
    /// Delivery time on the logical clock.
    pub time: f64,
    /// Destination component.
    pub dest: ComponentId,
    /// The typed payload.
    pub payload: E,
}

/// Heap entry. Ordered so that `BinaryHeap` (a max-heap) pops the
/// *earliest* time first, and among equal times the *lowest* sequence
/// number first — i.e. FIFO within a timestamp. The sequence number is
/// a total tie-breaker, so the ordering is total and never falls back to
/// heap insertion internals.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    dest: ComponentId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap must surface the smallest (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The binary-heap backend: the original queue implementation, preserved
/// verbatim as the reference scheduler.
#[derive(Debug)]
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids currently scheduled and not yet delivered or cancelled.
    pending_ids: HashSet<u64>,
    /// Ids cancelled before delivery; lazily swept from the heap.
    cancelled: HashSet<u64>,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            pending_ids: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Drops cancelled entries sitting at the top of the heap.
    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

/// The scheduler backend selected at kernel construction.
#[derive(Debug)]
enum Queue<E> {
    Heap(HeapQueue<E>),
    Wheel(TimingWheel<E>),
}

/// The deterministic event kernel: logical clock + event queue +
/// cancellation.
///
/// See the crate docs for the determinism contract. The kernel is generic
/// over the payload type `E`, so one simulation's whole event vocabulary
/// is a single enum and dispatch is exhaustively type-checked. The queue
/// backend is chosen by [`SchedulerKind`] at construction
/// ([`Kernel::with_scheduler`]); both backends deliver the identical
/// event sequence for the same schedule.
#[derive(Debug)]
pub struct Kernel<E> {
    clock: f64,
    queue: Queue<E>,
    /// Next schedule sequence number (doubles as the event id).
    next_seq: u64,
    /// Events delivered so far.
    delivered: u64,
    /// Events cancelled before delivery.
    cancelled: u64,
    /// High-water mark of the pending-event count.
    peak_pending: usize,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Kernel<E> {
    /// Creates an empty kernel with the clock at 0 and the default
    /// scheduler ([`SchedulerKind::TimingWheel`]).
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default())
    }

    /// Creates an empty kernel backed by the given scheduler.
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        Self {
            clock: 0.0,
            queue: match kind {
                SchedulerKind::BinaryHeap => Queue::Heap(HeapQueue::new()),
                SchedulerKind::TimingWheel => Queue::Wheel(TimingWheel::new()),
            },
            next_seq: 0,
            delivered: 0,
            cancelled: 0,
            peak_pending: 0,
        }
    }

    /// The scheduler backing this kernel.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.queue {
            Queue::Heap(_) => SchedulerKind::BinaryHeap,
            Queue::Wheel(_) => SchedulerKind::TimingWheel,
        }
    }

    /// The current logical time. Advances only through [`Kernel::pop`].
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Schedules `payload` for delivery to `dest` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN or earlier than the current clock —
    /// scheduling into the past would break clock monotonicity, and a
    /// silent clamp would hide the modeling bug that produced it.
    pub fn schedule_at(&mut self, at: f64, dest: ComponentId, payload: E) -> EventId {
        assert!(!at.is_nan(), "event time must not be NaN");
        assert!(
            at >= self.clock,
            "cannot schedule into the past: {at} < clock {}",
            self.clock
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.queue {
            Queue::Heap(q) => {
                q.pending_ids.insert(seq);
                q.heap.push(Entry {
                    time: at,
                    seq,
                    dest,
                    payload,
                });
            }
            Queue::Wheel(w) => w.schedule(at, seq, dest, payload),
        }
        self.peak_pending = self.peak_pending.max(self.pending());
        EventId(seq)
    }

    /// Schedules `payload` for delivery to `dest` after `delay` seconds.
    /// A zero delay delivers at the current instant, after every event
    /// already scheduled for it (FIFO).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, dest: ComponentId, payload: E) -> EventId {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.schedule_at(self.clock + delay, dest, payload)
    }

    /// Cancels a scheduled event (a cancellable timer). Returns `true` if
    /// the event was still pending; cancelling an already-delivered,
    /// already-cancelled, or never-scheduled event returns `false` and
    /// has no effect.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = match &mut self.queue {
            Queue::Heap(q) => {
                if q.pending_ids.remove(&id.0) {
                    // The entry stays in the heap until it surfaces;
                    // `skip_cancelled` sweeps it then.
                    q.cancelled.insert(id.0);
                    true
                } else {
                    false
                }
            }
            Queue::Wheel(w) => w.cancel(id.0),
        };
        self.cancelled += u64::from(hit);
        hit
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        match &mut self.queue {
            Queue::Heap(q) => {
                q.skip_cancelled();
                q.heap.peek().map(|e| e.time)
            }
            Queue::Wheel(w) => w.peek_time(),
        }
    }

    /// Pops the next event and advances the clock to its time.
    ///
    /// Delivery order is the lexicographic order of `(time, sequence
    /// number)`: strictly increasing time, and FIFO among events
    /// scheduled for the same instant. The sequence number makes the
    /// order total, so two runs with the same schedule sequence pop the
    /// same sequence of events — the foundation of the determinism
    /// contract. The order is a property of the contract, not the
    /// backend: both schedulers produce it bit-identically.
    pub fn pop(&mut self) -> Option<Event<E>> {
        let event = match &mut self.queue {
            Queue::Heap(q) => {
                q.skip_cancelled();
                let entry = q.heap.pop()?;
                q.pending_ids.remove(&entry.seq);
                Event {
                    id: EventId(entry.seq),
                    time: entry.time,
                    dest: entry.dest,
                    payload: entry.payload,
                }
            }
            Queue::Wheel(w) => {
                let e = w.pop()?;
                Event {
                    id: EventId(e.seq),
                    time: e.time,
                    dest: e.dest,
                    payload: e.payload,
                }
            }
        };
        debug_assert!(
            event.time >= self.clock,
            "queue order preserves monotonicity"
        );
        self.clock = event.time;
        self.delivered += 1;
        Some(event)
    }

    /// Number of pending (scheduled, not yet delivered or cancelled)
    /// events.
    pub fn pending(&self) -> usize {
        match &self.queue {
            Queue::Heap(q) => q.pending_ids.len(),
            Queue::Wheel(w) => w.pending(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total events delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Total events cancelled before delivery.
    pub fn cancelled_count(&self) -> u64 {
        self.cancelled
    }

    /// High-water mark of the pending-event count over the kernel's
    /// lifetime — the queue depth a scheduler backend actually had to
    /// sustain.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Slab slots the timing wheel recycled through its free list
    /// (0 for the binary-heap backend, which has no arena).
    pub fn recycled_count(&self) -> u64 {
        match &self.queue {
            Queue::Heap(_) => 0,
            Queue::Wheel(w) => w.recycled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ComponentId = ComponentId(0);
    const B: ComponentId = ComponentId(1);

    /// Both backends, so every contract test runs against each.
    fn kernels<E>() -> Vec<Kernel<E>> {
        vec![
            Kernel::with_scheduler(SchedulerKind::BinaryHeap),
            Kernel::with_scheduler(SchedulerKind::TimingWheel),
        ]
    }

    #[test]
    fn default_scheduler_is_the_wheel() {
        let k: Kernel<()> = Kernel::new();
        assert_eq!(k.scheduler(), SchedulerKind::TimingWheel);
        let k: Kernel<()> = Kernel::with_scheduler(SchedulerKind::BinaryHeap);
        assert_eq!(k.scheduler(), SchedulerKind::BinaryHeap);
    }

    #[test]
    fn pops_in_time_order() {
        for mut k in kernels::<u32>() {
            k.schedule_at(5.0, A, 1);
            k.schedule_at(1.0, A, 2);
            k.schedule_at(3.0, B, 3);
            let order: Vec<u32> = std::iter::from_fn(|| k.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec![2, 3, 1]);
            assert_eq!(k.now(), 5.0);
        }
    }

    #[test]
    fn same_time_events_are_fifo() {
        for mut k in kernels::<u32>() {
            for i in 0..100 {
                k.schedule_at(7.0, A, i);
            }
            let order: Vec<u32> = std::iter::from_fn(|| k.pop()).map(|e| e.payload).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_delay_delivers_after_existing_same_instant_events() {
        for mut k in kernels::<&'static str>() {
            k.schedule_at(2.0, A, "first");
            k.schedule_at(2.0, A, "second");
            let e = k.pop().unwrap();
            assert_eq!(e.payload, "first");
            // Now at t=2: a zero-delay event lands after "second".
            k.schedule_in(0.0, B, "third");
            assert_eq!(k.pop().unwrap().payload, "second");
            assert_eq!(k.pop().unwrap().payload, "third");
        }
    }

    #[test]
    fn clock_is_monotonic_and_starts_at_zero() {
        for mut k in kernels::<()>() {
            assert_eq!(k.now(), 0.0);
            k.schedule_at(10.0, A, ());
            k.schedule_at(10.0, A, ());
            let mut last = 0.0;
            while let Some(e) = k.pop() {
                assert!(e.time >= last);
                last = e.time;
            }
            assert_eq!(k.now(), 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k: Kernel<()> = Kernel::new();
        k.schedule_at(5.0, A, ());
        k.pop();
        k.schedule_at(1.0, A, ());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_time_panics() {
        let mut k: Kernel<()> = Kernel::new();
        k.schedule_at(f64::NAN, A, ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        for mut k in kernels::<u32>() {
            let a = k.schedule_at(1.0, A, 1);
            let b = k.schedule_at(2.0, A, 2);
            k.schedule_at(3.0, A, 3);
            assert!(k.cancel(b));
            assert!(!k.cancel(b), "double cancel reports false");
            assert_eq!(k.pending(), 2);
            let order: Vec<u32> = std::iter::from_fn(|| k.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec![1, 3]);
            assert!(!k.cancel(a), "cancelling a delivered event is a no-op");
        }
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        for mut k in kernels::<()>() {
            assert!(!k.cancel(EventId(42)));
        }
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        for mut k in kernels::<u32>() {
            let head = k.schedule_at(1.0, A, 1);
            k.schedule_at(5.0, A, 2);
            k.cancel(head);
            assert_eq!(k.peek_time(), Some(5.0));
            assert_eq!(k.pop().unwrap().payload, 2);
        }
    }

    #[test]
    fn counters_track_lifecycle() {
        for mut k in kernels::<()>() {
            let a = k.schedule_at(1.0, A, ());
            k.schedule_at(2.0, A, ());
            assert_eq!(k.pending(), 2);
            k.cancel(a);
            assert_eq!(k.pending(), 1);
            assert_eq!(k.cancelled_count(), 1);
            k.cancel(a);
            assert_eq!(k.cancelled_count(), 1, "failed cancels are not counted");
            k.pop();
            assert_eq!(k.delivered_count(), 1);
            assert!(k.is_empty());
            assert_eq!(k.peak_pending(), 2, "high-water mark survives drain");
        }
    }

    /// The wheel reports free-list recycling; the heap (no arena)
    /// reports zero. Peak pending tracks the deepest the queue ever got,
    /// not the current depth.
    #[test]
    fn health_counters_expose_wheel_internals() {
        let mut w: Kernel<u32> = Kernel::with_scheduler(SchedulerKind::TimingWheel);
        for i in 0..8 {
            w.schedule_at(f64::from(i) + 1.0, A, i);
        }
        while w.pop().is_some() {}
        assert_eq!(w.peak_pending(), 8);
        // Delivered slots went to the free list; new events reuse them.
        for i in 0..4 {
            w.schedule_at(100.0 + f64::from(i), A, i);
        }
        assert!(w.recycled_count() >= 4, "recycled {}", w.recycled_count());

        let mut h: Kernel<u32> = Kernel::with_scheduler(SchedulerKind::BinaryHeap);
        h.schedule_at(1.0, A, 0);
        h.pop();
        h.schedule_at(2.0, A, 1);
        assert_eq!(h.recycled_count(), 0);
    }

    /// The two backends deliver bit-identical sequences for an
    /// interleaved schedule/pop/cancel workload (the exhaustive random
    /// version lives in `tests/determinism.rs`).
    #[test]
    fn backends_agree_on_interleaved_workload() {
        let mut heap: Kernel<u64> = Kernel::with_scheduler(SchedulerKind::BinaryHeap);
        let mut wheel: Kernel<u64> = Kernel::with_scheduler(SchedulerKind::TimingWheel);
        let mut state = 0xFEED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut live: Vec<EventId> = Vec::new();
        for round in 0..2000u64 {
            let op = next() % 10;
            if op < 6 {
                let delay = (next() % 1000) as f64 * 0.037;
                let dest = ComponentId((next() % 3) as usize);
                let ha = heap.schedule_in(delay, dest, round);
                let wa = wheel.schedule_in(delay, dest, round);
                assert_eq!(ha, wa);
                live.push(ha);
            } else if op < 8 {
                if !live.is_empty() {
                    let id = live.swap_remove((next() as usize) % live.len());
                    assert_eq!(heap.cancel(id), wheel.cancel(id));
                }
            } else {
                let he = heap.pop();
                let we = wheel.pop();
                match (&he, &we) {
                    (Some(h), Some(w)) => {
                        assert_eq!(h, w);
                        live.retain(|&id| id != h.id);
                    }
                    (None, None) => {}
                    _ => panic!("backends diverged: {he:?} vs {we:?}"),
                }
            }
        }
        loop {
            let he = heap.pop();
            let we = wheel.pop();
            assert_eq!(he, we);
            if he.is_none() {
                break;
            }
        }
    }
}
