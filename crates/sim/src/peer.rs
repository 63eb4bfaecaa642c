//! Peer state: pipelined chunk downloads, buffer, playback smoothness.
//!
//! A viewer's player downloads the next chunk of its trajectory while the
//! current one plays, starting up to one extra playback window early (the
//! paper's clients buffer aggressively — "the local playback buffer is
//! sufficient to cache any one video"). A chunk whose download finishes
//! after its playback deadline causes a stall of `done − deadline`
//! seconds; the paper's smooth-playback criterion is the absence of such
//! stalls over the trailing five-minute window.
//!
//! # Packed layout
//!
//! [`Peer`] is the per-viewer record every engine keeps resident, so at
//! scale-out populations (10⁶–10⁷ connected viewers) its size *is* the
//! memory model. The struct packs to **72 bytes**: the [`PeerState`]
//! enum is stored as a one-byte tag plus two overlaid `f64` payload
//! slots (bytes-left / wake-time and the deadline), the chunk index is a
//! `u8` (chunk sets are `u64` bitmaps, so a chunk index never exceeds
//! 63), the channel id is a `u32`, and the "never stalled" niche of
//! `last_stall_at` is a NaN sentinel instead of an `Option`
//! discriminant. The payloads remain the exact `f64` values the
//! unpacked representation held, so packing is invisible to every
//! metric — [`Peer::state`] reconstructs the logical enum bit-for-bit.
//! `crates/sim/tests/peer_footprint.rs` pins the size so future field
//! additions fail loudly instead of silently regressing RSS.

/// Maximum number of chunks per channel supported by the `u64` buffer
/// bitmap.
pub const MAX_CHUNKS: usize = 64;

/// How far ahead of a chunk's playback deadline its download may start,
/// in playback windows (`T0`). Two windows bound the prefetch lead to one
/// chunk beyond the currently playing one.
pub const PREFETCH_WINDOWS: f64 = 2.0;

/// What a peer is currently doing — the logical view reconstructed from
/// the packed tag + payload fields (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeerState {
    /// Downloading `chunk`, needed for playback by `deadline`
    /// (`f64::INFINITY` for the session's first chunk, whose playback
    /// simply starts when it arrives).
    Downloading {
        /// Chunk being fetched.
        chunk: usize,
        /// Bytes still to download.
        bytes_left: f64,
        /// Playback deadline; finishing later is a stall.
        deadline: f64,
    },
    /// Not downloading: either gated prefetch (the next download may not
    /// start before `wake_at`) or draining playback before departure.
    Waiting {
        /// The next chunk to download and its deadline; `None` means the
        /// peer leaves at `wake_at`.
        next: Option<PendingChunk>,
        /// Time to start the pending download, or to depart.
        wake_at: f64,
    },
}

/// A decided-but-not-yet-started chunk download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingChunk {
    /// Chunk to download.
    pub chunk: usize,
    /// Playback deadline of that chunk.
    pub deadline: f64,
}

/// Packed state tags (see the module docs).
const TAG_DOWNLOADING: u8 = 0;
const TAG_WAIT_NEXT: u8 = 1;
const TAG_WAIT_LEAVE: u8 = 2;

/// One connected viewer, packed to 72 bytes (pinned by
/// `crates/sim/tests/peer_footprint.rs`; see the module docs for the
/// layout).
///
/// Bytes-left invariant: under the `Indexed` engine a downloading
/// peer's `f_a` keeps the bytes left at the
/// download's start — the engine's download cohort holds the live
/// value.
/// No code outside the engine may read a downloading peer's `f_a`
/// between rounds; the reference engine writes it back every round, so
/// the tests that pin Indexed against it would catch a reader that
/// depends on it.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Stable identifier from the arrival trace.
    pub id: u64,
    /// Upload capacity, bytes per second (P2P mode).
    pub upload_capacity: f64,
    /// State payload A: bytes still to download (downloading) or the
    /// wake time (waiting).
    f_a: f64,
    /// State payload B: the current (downloading) or pending (waiting
    /// with a next chunk) chunk's playback deadline; unused while
    /// draining toward departure.
    f_b: f64,
    /// Bitmap of chunks buffered (available for upload).
    pub buffer: u64,
    /// Time of the most recent stall event; NaN = never stalled.
    last_stall_at: f64,
    /// Total stall seconds accumulated over the session.
    pub total_stall: f64,
    /// Time the peer joined the channel.
    pub joined_at: f64,
    /// Channel the peer is watching.
    channel: u32,
    /// Which [`PeerState`] variant the payload slots hold.
    tag: u8,
    /// Current (downloading) or pending (waiting) chunk; < 64.
    chunk: u8,
}

impl PartialEq for Peer {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.channel == other.channel
            && self.upload_capacity == other.upload_capacity
            && self.tag == other.tag
            && self.chunk == other.chunk
            && self.f_a == other.f_a
            && self.f_b == other.f_b
            && self.buffer == other.buffer
            && self.last_stall_at() == other.last_stall_at()
            && self.total_stall == other.total_stall
            && self.joined_at == other.joined_at
    }
}

impl Peer {
    /// Creates a peer that starts downloading `chunk` at `now` with no
    /// deadline (initial buffering is start-up delay, not a stall).
    pub fn new(
        id: u64,
        channel: usize,
        upload_capacity: f64,
        chunk: usize,
        chunk_bytes: f64,
        now: f64,
    ) -> Self {
        debug_assert!(chunk < MAX_CHUNKS);
        debug_assert!(u32::try_from(channel).is_ok());
        Self {
            id,
            upload_capacity,
            f_a: chunk_bytes,
            f_b: f64::INFINITY,
            buffer: 0,
            last_stall_at: f64::NAN,
            total_stall: 0.0,
            joined_at: now,
            channel: channel as u32,
            tag: TAG_DOWNLOADING,
            chunk: chunk as u8,
        }
    }

    /// Channel the peer is watching.
    #[inline]
    pub fn channel(&self) -> usize {
        self.channel as usize
    }

    /// The logical state, reconstructed from the packed fields. The
    /// payloads are stored as the exact `f64` values, so this is a
    /// lossless view.
    #[inline]
    pub fn state(&self) -> PeerState {
        match self.tag {
            TAG_DOWNLOADING => PeerState::Downloading {
                chunk: self.chunk as usize,
                bytes_left: self.f_a,
                deadline: self.f_b,
            },
            TAG_WAIT_NEXT => PeerState::Waiting {
                next: Some(PendingChunk {
                    chunk: self.chunk as usize,
                    deadline: self.f_b,
                }),
                wake_at: self.f_a,
            },
            _ => PeerState::Waiting {
                next: None,
                wake_at: self.f_a,
            },
        }
    }

    /// Packs the logical state into the tag + payload fields.
    #[inline]
    pub fn set_state(&mut self, state: PeerState) {
        match state {
            PeerState::Downloading {
                chunk,
                bytes_left,
                deadline,
            } => {
                debug_assert!(chunk < MAX_CHUNKS);
                self.tag = TAG_DOWNLOADING;
                self.chunk = chunk as u8;
                self.f_a = bytes_left;
                self.f_b = deadline;
            }
            PeerState::Waiting {
                next: Some(pending),
                wake_at,
            } => {
                debug_assert!(pending.chunk < MAX_CHUNKS);
                self.tag = TAG_WAIT_NEXT;
                self.chunk = pending.chunk as u8;
                self.f_a = wake_at;
                self.f_b = pending.deadline;
            }
            PeerState::Waiting {
                next: None,
                wake_at,
            } => {
                self.tag = TAG_WAIT_LEAVE;
                self.chunk = 0;
                self.f_a = wake_at;
                self.f_b = 0.0;
            }
        }
    }

    /// The wake time of a waiting peer (prefetch gate or departure
    /// drain). Must not be called while downloading.
    #[inline]
    pub fn wake_at(&self) -> f64 {
        debug_assert_ne!(self.tag, TAG_DOWNLOADING, "wake_at of a downloader");
        self.f_a
    }

    /// The chunk the peer is currently fetching, if downloading.
    pub fn downloading_chunk(&self) -> Option<usize> {
        (self.tag == TAG_DOWNLOADING).then_some(self.chunk as usize)
    }

    /// True if the peer has `chunk` buffered.
    pub fn owns(&self, chunk: usize) -> bool {
        debug_assert!(chunk < MAX_CHUNKS);
        self.buffer & (1u64 << chunk) != 0
    }

    /// Marks `chunk` as buffered.
    pub fn add_to_buffer(&mut self, chunk: usize) {
        debug_assert!(chunk < MAX_CHUNKS);
        self.buffer |= 1u64 << chunk;
    }

    /// Number of buffered chunks.
    pub fn buffered_chunks(&self) -> u32 {
        self.buffer.count_ones()
    }

    /// Time of the most recent stall event, if any.
    pub fn last_stall_at(&self) -> Option<f64> {
        if self.last_stall_at.is_nan() {
            None
        } else {
            Some(self.last_stall_at)
        }
    }

    /// Records a stall of `seconds` observed at `now`.
    pub fn record_stall(&mut self, now: f64, seconds: f64) {
        debug_assert!(seconds > 0.0);
        self.last_stall_at = now;
        self.total_stall += seconds;
    }

    /// True if the peer experienced smooth playback throughout the window
    /// `[now − window, now]`: no recorded stall in the window and no
    /// in-flight download already past its deadline.
    pub fn smooth_in_window(&self, now: f64, window: f64) -> bool {
        // NaN (never stalled) compares false, which is exactly the
        // "no stall in the window" answer.
        if self.last_stall_at >= now - window {
            return false;
        }
        if self.tag == TAG_DOWNLOADING && now > self.f_b {
            return false; // currently stalled mid-download
        }
        true
    }

    /// Begins downloading `chunk` with the given playback `deadline`.
    pub fn start_chunk(&mut self, chunk: usize, chunk_bytes: f64, deadline: f64) {
        debug_assert!(chunk < MAX_CHUNKS);
        self.tag = TAG_DOWNLOADING;
        self.chunk = chunk as u8;
        self.f_a = chunk_bytes;
        self.f_b = deadline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer() -> Peer {
        Peer::new(1, 0, 100e3, 0, 15e6, 0.0)
    }

    #[test]
    fn new_peer_downloads_start_chunk_without_deadline() {
        let p = peer();
        assert_eq!(p.downloading_chunk(), Some(0));
        assert_eq!(p.buffered_chunks(), 0);
        // No deadline: start-up buffering never counts as a stall.
        assert!(p.smooth_in_window(1e9, 300.0));
    }

    #[test]
    fn packed_layout_stays_at_72_bytes() {
        assert_eq!(std::mem::size_of::<Peer>(), 72);
    }

    #[test]
    fn state_round_trips_through_the_packed_fields() {
        let mut p = peer();
        for state in [
            PeerState::Downloading {
                chunk: 7,
                bytes_left: 123.456,
                deadline: f64::INFINITY,
            },
            PeerState::Waiting {
                next: Some(PendingChunk {
                    chunk: 63,
                    deadline: 900.25,
                }),
                wake_at: 300.5,
            },
            PeerState::Waiting {
                next: None,
                wake_at: 42.0,
            },
        ] {
            p.set_state(state);
            assert_eq!(p.state(), state);
        }
    }

    #[test]
    fn buffer_bitmap_roundtrip() {
        let mut p = peer();
        assert!(!p.owns(5));
        p.add_to_buffer(5);
        p.add_to_buffer(0);
        assert!(p.owns(5));
        assert!(p.owns(0));
        assert!(!p.owns(1));
        assert_eq!(p.buffered_chunks(), 2);
        p.add_to_buffer(5);
        assert_eq!(p.buffered_chunks(), 2, "idempotent");
    }

    #[test]
    fn stall_breaks_smoothness_within_window_only() {
        let mut p = peer();
        p.set_state(PeerState::Waiting {
            next: None,
            wake_at: 1e9,
        });
        p.record_stall(100.0, 5.0);
        assert!(!p.smooth_in_window(150.0, 300.0));
        assert!(p.smooth_in_window(500.0, 300.0), "stall aged out");
        assert_eq!(p.total_stall, 5.0);
        assert_eq!(p.last_stall_at(), Some(100.0));
    }

    #[test]
    fn overdue_download_counts_as_stalled() {
        let mut p = peer();
        p.start_chunk(3, 15e6, 400.0);
        assert!(p.smooth_in_window(399.0, 300.0));
        assert!(!p.smooth_in_window(401.0, 300.0));
    }

    #[test]
    fn waiting_peer_is_smooth() {
        let mut p = peer();
        p.set_state(PeerState::Waiting {
            next: Some(PendingChunk {
                chunk: 2,
                deadline: 900.0,
            }),
            wake_at: 300.0,
        });
        assert!(p.smooth_in_window(500.0, 300.0));
        assert_eq!(p.wake_at(), 300.0);
    }

    #[test]
    fn start_chunk_sets_deadline_and_preserves_buffer() {
        let mut p = peer();
        p.add_to_buffer(0);
        p.start_chunk(3, 15e6, 777.0);
        assert_eq!(p.downloading_chunk(), Some(3));
        match p.state() {
            PeerState::Downloading {
                bytes_left,
                deadline,
                ..
            } => {
                assert_eq!(bytes_left, 15e6);
                assert_eq!(deadline, 777.0);
            }
            _ => panic!("expected Downloading"),
        }
        assert!(p.owns(0));
    }

    #[test]
    fn fresh_identical_peers_compare_equal() {
        // `last_stall_at` is a NaN sentinel internally; equality must
        // treat two never-stalled peers as equal regardless.
        assert_eq!(peer(), peer());
        let mut stalled = peer();
        stalled.record_stall(10.0, 1.0);
        assert_ne!(peer(), stalled);
    }
}
