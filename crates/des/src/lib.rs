//! `cloudmedia-des`: a deterministic discrete-event simulation kernel.
//!
//! The fluid-round simulator in `cloudmedia-sim` advances the whole world
//! in fixed provisioning rounds, which cannot express per-request latency,
//! VM boot delays, or failures at their natural timestamps. This crate is
//! the substrate for the event-driven engine that can: a minimal,
//! dependency-free kernel in the style of component/event-queue DES
//! frameworks (dslab, SimPy, CloudSim), stripped to exactly what the
//! CloudMedia scenario engine needs.
//!
//! - [`kernel::Kernel`]: a monotonic `f64` logical clock plus an event
//!   queue. Events scheduled for the same instant are delivered in
//!   schedule order (stable FIFO tie-breaking via sequence numbers), and
//!   timers are cancellable in O(1) amortized time. The queue backend is
//!   selected by [`kernel::SchedulerKind`]: the default hierarchical
//!   timing wheel (O(1) amortized schedule/cancel/pop over
//!   slab-allocated events; see `src/wheel.rs` for the design), or the
//!   reference binary heap. Both deliver bit-identical event sequences.
//! - [`component::Component`]: the typed handler trait. A scenario engine
//!   owns its components as concrete struct fields and dispatches each
//!   popped [`kernel::Event`] to the component named by its destination
//!   id, handing the handler mutable access to the kernel so it can
//!   schedule follow-up events. Components communicate *only* through
//!   events; they never reach into each other's state.
//!
//! # Determinism contract
//!
//! A simulation built on this kernel is reproducible bit-for-bit across
//! runs and platforms as long as its components honor three rules:
//!
//! 1. **No wall-clock time.** The only clock is [`kernel::Kernel::now`],
//!    which advances exclusively through event delivery. The kernel never
//!    reads `std::time`.
//! 2. **Seeded randomness only.** The kernel itself draws no random
//!    numbers. Components that need randomness must own explicitly seeded
//!    generators and draw from them *inside event handlers*, so the draw
//!    sequence is a pure function of the (deterministic) event order.
//! 3. **No iteration over unordered collections** when the iteration
//!    order can influence scheduling or RNG draws. Event delivery order
//!    is fully determined by `(time, sequence number)`: ties broken by
//!    schedule order, never by heap internals — [`kernel::Kernel::pop`]
//!    documents the ordering proof.
//!
//! Under these rules, the same seed produces the identical event
//! schedule, the identical handler execution order, and therefore
//! identical outputs — the property `cloudmedia-sim`'s event-driven
//! engine relies on and its regression tests enforce.
//!
//! # Accuracy vs the round engine
//!
//! The event-driven CloudMedia engine built on this kernel is *not*
//! bit-identical to the `Indexed` round engine — it is a
//! different microscopic model (per-request service times instead of
//! fluid bandwidth sharing; an independently sampled arrival stream).
//! The two models agree in the mean: over a steady-state horizon both are
//! driven by the same viewing-model Markov chain, the same diurnal
//! arrival-rate profile, and the identical provisioning control path
//! (tracker → controller → broker), so per-channel cloud bandwidth and
//! rental cost converge to the same equilibria. The documented tolerance
//! (see `cloudmedia-sim`'s `event_driven` module and its
//! `des_vs_indexed` regression test) is a *relative-mean* bound, not a
//! per-sample one.
//!
//! # Example
//!
//! ```
//! use cloudmedia_des::{Component, ComponentId, Event, Kernel};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Msg {
//!     Ping,
//!     Pong,
//! }
//!
//! struct Ponger {
//!     me: ComponentId,
//!     peer: ComponentId,
//!     pongs: u32,
//! }
//!
//! impl Component<Msg> for Ponger {
//!     fn handle(&mut self, event: Event<Msg>, kernel: &mut Kernel<Msg>) {
//!         if event.payload == Msg::Ping && self.pongs < 3 {
//!             self.pongs += 1;
//!             kernel.schedule_in(1.0, self.peer, Msg::Pong);
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new();
//! let ponger_id = ComponentId(0);
//! let mut ponger = Ponger { me: ponger_id, peer: ComponentId(1), pongs: 0 };
//! kernel.schedule_at(0.0, ponger_id, Msg::Ping);
//! while let Some(ev) = kernel.pop() {
//!     match ev.dest {
//!         id if id == ponger.me => ponger.handle(ev, &mut kernel),
//!         _ => {} // the peer, were it registered
//!     }
//! }
//! assert_eq!(ponger.pongs, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod component;
pub mod kernel;
mod wheel;

pub use component::Component;
pub use kernel::{ComponentId, Event, EventId, Kernel, SchedulerKind};
