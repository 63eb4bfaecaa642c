//! The engine's event vocabulary and component addresses.

use cloudmedia_des::ComponentId;

/// The viewer-sessions component.
pub(crate) const SESSIONS: ComponentId = ComponentId(0);
/// The admission/service component.
pub(crate) const ADMISSION: ComponentId = ComponentId(1);
/// The provisioning component (tracker + planner + broker + billing).
pub(crate) const PROVISIONER: ComponentId = ComponentId(2);
/// The engine itself (metrics sampling).
pub(crate) const ENGINE: ComponentId = ComponentId(3);

/// Every event the CloudMedia components exchange. One enum keeps the
/// dispatch exhaustively type-checked.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CmEvent {
    // ---- delivered to SESSIONS ----
    /// The next trace arrival is due: admit it and schedule the one after.
    NextArrival,
    /// A flash-crowd-injected viewer joins `channel`.
    SyntheticJoin {
        /// Channel joined.
        channel: usize,
        /// Upload capacity, bytes/s.
        upload: f64,
    },
    /// A waiting session's timer fired (prefetch gate opened, or playback
    /// drained before departure).
    Wake {
        /// Session id.
        session: u64,
    },
    /// A requested chunk finished downloading.
    Delivered {
        /// Session id.
        session: u64,
        /// The chunk delivered.
        chunk: usize,
        /// Admission wait the request experienced (for startup/stall
        /// attribution the session does not need it, but scenarios print
        /// per-delivery waits in debug runs).
        admission_wait: f64,
    },
    /// Scenario injection: `extra` viewers arrive at `channel` over the
    /// next `window` seconds.
    FlashCrowd {
        /// Channel hit.
        channel: usize,
        /// Extra viewers.
        extra: usize,
        /// Spread window, seconds.
        window: f64,
    },

    // ---- delivered to ADMISSION ----
    /// A session requests a chunk (the session tracks its own deadline).
    ChunkRequest {
        /// Session id.
        session: u64,
        /// Channel.
        channel: usize,
        /// Chunk requested.
        chunk: usize,
        /// Usable upload of the peers currently owning this chunk,
        /// bytes/s — the per-chunk supply constraint the fluid
        /// allocator's `owner_upload` imposes, snapshotted at request
        /// time by the sessions component (which owns the buffers).
        owner_upload: f64,
    },
    /// A transfer admitted earlier finishes now; release its server or
    /// pool share.
    TransferDone {
        /// Channel.
        channel: usize,
        /// True if the transfer was cloud-served (occupied a VM).
        cloud: bool,
    },
    /// A transfer redirected to the remote overflow site finishes now;
    /// release its remote slot (remote slots are one global pool, so no
    /// channel is needed).
    RemoteTransferDone,
    /// The sessions component's usable upload pool for `channel` changed.
    PoolUpdate {
        /// Channel.
        channel: usize,
        /// Pool of usable (efficiency-scaled) peer upload, bytes/s.
        usable_upload: f64,
    },
    /// The provisioner announces the current cloud capacity.
    CapacityUpdate {
        /// Bandwidth reserved per channel by the current plan, bytes/s.
        channel_reserved: Vec<f64>,
        /// Bandwidth of VMs actually running (boot/shutdown aware).
        running_bandwidth: f64,
    },

    // ---- delivered to PROVISIONER ----
    /// Hourly provisioning boundary.
    ProvisionTick,
    /// A VM lifecycle transition is due: advance the cloud and
    /// re-announce capacity.
    CloudSync,
    /// A fault-schedule instant: a fleet failure or repair, or a site
    /// outage's start or end.
    FaultBoundary {
        /// True for a repair or an outage's end: capacity returns once
        /// VMs boot, not once they shut down.
        restores: bool,
    },
    /// Tracker measurement: a viewer arrived at `channel` at `chunk`.
    TrackJoin {
        /// Channel.
        channel: usize,
        /// Start chunk.
        chunk: usize,
        /// False for an arrival `ShedNewArrivals` refused: measured
        /// demand, but no connected viewer.
        admitted: bool,
    },
    /// Tracker measurement: a chunk-to-chunk transition.
    TrackTransition {
        /// Channel.
        channel: usize,
        /// From chunk.
        from: usize,
        /// To chunk.
        to: usize,
    },
    /// Tracker measurement: a departure after `from`.
    TrackLeave {
        /// Channel.
        channel: usize,
        /// Last chunk watched.
        from: usize,
    },

    // ---- delivered to ENGINE ----
    /// Metrics sampling boundary.
    SampleTick,
}
