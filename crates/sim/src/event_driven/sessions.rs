//! The viewer-sessions component.
//!
//! Owns every connected session: arrivals (pulled lazily from the
//! streaming trace iterator, one `NextArrival` event per arrival),
//! the viewing-model walk after each delivered chunk, prefetch gating,
//! stall accounting, and departures. Everything the rest of the system
//! needs to know leaves as events: `ChunkRequest` / `PoolUpdate` to the
//! admission component, `TrackJoin` / `TrackTransition` / `TrackLeave`
//! to the provisioner's tracker — exactly the measurements the paper's
//! tracking server collects.

use std::collections::BTreeMap;

use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::BoundedPareto;
use cloudmedia_workload::trace::{ArrivalStream, UserArrival};
use cloudmedia_workload::viewing::NextAction;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::events::{CmEvent, ADMISSION, PROVISIONER, SESSIONS};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::peer::{PendingChunk, PREFETCH_WINDOWS};

/// Session ids injected by flash-crowd bursts start here, far above any
/// trace user id.
const SYNTHETIC_ID_BASE: u64 = 1 << 40;

/// What one session is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessState {
    /// A chunk request is in flight (admission wait + transfer).
    Downloading {
        chunk: usize,
        /// Playback deadline; `+inf` for the first chunk.
        deadline: f64,
    },
    /// Gated prefetch or pre-departure playback drain.
    Waiting { next: Option<PendingChunk> },
}

/// One connected viewer session.
#[derive(Debug, Clone, Copy)]
struct Session {
    channel: usize,
    /// Efficiency-scaled upload contribution, bytes/s.
    usable_upload: f64,
    /// Buffered-chunk bitmap.
    buffer: u64,
    state: SessState,
    last_stall_at: Option<f64>,
    joined_at: f64,
}

/// Point-in-time quality snapshot handed to the engine's sampler.
#[derive(Debug)]
pub(crate) struct QualitySnapshot {
    pub quality: f64,
    pub active: usize,
    pub per_channel_peers: Vec<usize>,
    pub per_channel_quality: Vec<f64>,
    pub mean_startup_delay: f64,
}

/// The sessions component; see the module docs.
#[derive(Debug)]
pub struct Sessions {
    catalog: Catalog,
    rng: StdRng,
    chunk_seconds: f64,
    eff: f64,
    sample_window: f64,
    stream: ArrivalStream,
    /// The arrival the pending `NextArrival` event will admit.
    pending_arrival: Option<UserArrival>,
    /// Connected sessions, ordered by id (deterministic iteration).
    sessions: BTreeMap<u64, Session>,
    /// Usable (efficiency-scaled) upload pool per channel.
    pool: Vec<f64>,
    /// Per-channel, per-chunk usable upload of the chunk's owners — the
    /// fluid allocator's `owner_upload` constraint, maintained
    /// incrementally on buffer additions and departures.
    owner_upload: Vec<Vec<f64>>,
    /// Upload-capacity distribution for injected viewers.
    upload_dist: BoundedPareto,
    next_synthetic_id: u64,
    injected: u64,
    /// The configuration's fault schedule (arrival shedding under
    /// [`crate::faults::DegradeMode::ShedNewArrivals`]).
    faults: crate::faults::FaultSchedule,
    /// Trace arrivals refused while shedding.
    shed: u64,
    /// Start-up delay accumulators for the current sample window.
    startup_sum: f64,
    startup_count: usize,
}

impl Sessions {
    /// Builds the component from the run configuration.
    ///
    /// # Errors
    ///
    /// Propagates trace-configuration validation failures.
    pub(crate) fn new(cfg: &SimConfig) -> Result<Self, SimError> {
        let stream = ArrivalStream::new(&cfg.catalog, &cfg.trace)?;
        let upload_dist = BoundedPareto::new(
            cfg.trace.upload_min_bps,
            cfg.trace.upload_max_bps,
            cfg.trace.upload_shape,
        )?;
        Ok(Self {
            catalog: cfg.catalog.clone(),
            rng: StdRng::seed_from_u64(cfg.behaviour_seed),
            chunk_seconds: cfg.chunk_seconds,
            eff: cfg.peer_efficiency,
            sample_window: cfg.sample_interval,
            stream,
            pending_arrival: None,
            sessions: BTreeMap::new(),
            pool: vec![0.0; cfg.catalog.len()],
            owner_upload: cfg
                .catalog
                .channels()
                .iter()
                .map(|spec| vec![0.0; spec.viewing.chunks])
                .collect(),
            upload_dist,
            next_synthetic_id: SYNTHETIC_ID_BASE,
            injected: 0,
            faults: cfg.faults.clone(),
            shed: 0,
            startup_sum: 0.0,
            startup_count: 0,
        })
    }

    /// Pulls the first trace arrival and schedules its `NextArrival`.
    pub(crate) fn schedule_first_arrival(&mut self, kernel: &mut Kernel<CmEvent>) {
        if let Some(a) = self.stream.next() {
            kernel.schedule_at(a.time, SESSIONS, CmEvent::NextArrival);
            self.pending_arrival = Some(a);
        }
    }

    /// Viewers injected by flash-crowd bursts so far.
    pub(crate) fn injected_viewers(&self) -> u64 {
        self.injected
    }

    /// Trace arrivals refused by the shedding degrade policy so far.
    pub(crate) fn shed_arrivals(&self) -> u64 {
        self.shed
    }

    /// Admits one viewer: creates the session and announces it.
    fn join(
        &mut self,
        kernel: &mut Kernel<CmEvent>,
        id: u64,
        channel: usize,
        start_chunk: usize,
        upload: f64,
    ) {
        let now = kernel.now();
        let usable = upload * self.eff;
        self.sessions.insert(
            id,
            Session {
                channel,
                usable_upload: usable,
                buffer: 0,
                state: SessState::Downloading {
                    chunk: start_chunk,
                    deadline: f64::INFINITY,
                },
                last_stall_at: None,
                joined_at: now,
            },
        );
        self.pool[channel] += usable;
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::PoolUpdate {
                channel,
                usable_upload: self.pool[channel],
            },
        );
        kernel.schedule_in(
            0.0,
            PROVISIONER,
            CmEvent::TrackJoin {
                channel,
                chunk: start_chunk,
                admitted: true,
            },
        );
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::ChunkRequest {
                session: id,
                channel,
                chunk: start_chunk,
                owner_upload: self.owner_upload[channel]
                    .get(start_chunk)
                    .copied()
                    .unwrap_or(0.0),
            },
        );
    }

    /// Removes a departed session and announces the pool change.
    fn depart(&mut self, kernel: &mut Kernel<CmEvent>, id: u64) {
        let s = self
            .sessions
            .remove(&id)
            .expect("departing session is connected");
        self.pool[s.channel] = (self.pool[s.channel] - s.usable_upload).max(0.0);
        let mut bits = s.buffer;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(o) = self.owner_upload[s.channel].get_mut(k) {
                *o = (*o - s.usable_upload).max(0.0);
            }
        }
        kernel.schedule_in(
            0.0,
            ADMISSION,
            CmEvent::PoolUpdate {
                channel: s.channel,
                usable_upload: self.pool[s.channel],
            },
        );
    }

    /// Walks the viewing model after `chunk` finished (or was found
    /// buffered): starts/gates the next download or schedules departure.
    /// `play_end` is the playback end time of `chunk`.
    fn advance_playback(
        &mut self,
        kernel: &mut Kernel<CmEvent>,
        id: u64,
        chunk: usize,
        mut play_end: f64,
    ) {
        let now = kernel.now();
        let s = self.sessions.get(&id).expect("session is connected");
        let channel = s.channel;
        let buffer = s.buffer;
        let viewing = self.catalog.channel(channel).viewing;
        let mut current = chunk;
        loop {
            match viewing.sample_next(&mut self.rng, current) {
                NextAction::Watch(next) => {
                    kernel.schedule_in(
                        0.0,
                        PROVISIONER,
                        CmEvent::TrackTransition {
                            channel,
                            from: current,
                            to: next,
                        },
                    );
                    if buffer & (1u64 << next) != 0 {
                        // Already buffered (a jump back): plays straight
                        // from the buffer; decide again after it.
                        play_end += self.chunk_seconds;
                        current = next;
                        continue;
                    }
                    let gate = play_end - PREFETCH_WINDOWS * self.chunk_seconds;
                    let s = self.sessions.get_mut(&id).expect("session is connected");
                    if gate > now {
                        s.state = SessState::Waiting {
                            next: Some(PendingChunk {
                                chunk: next,
                                deadline: play_end,
                            }),
                        };
                        kernel.schedule_at(gate, SESSIONS, CmEvent::Wake { session: id });
                    } else {
                        s.state = SessState::Downloading {
                            chunk: next,
                            deadline: play_end,
                        };
                        kernel.schedule_in(
                            0.0,
                            ADMISSION,
                            CmEvent::ChunkRequest {
                                session: id,
                                channel,
                                chunk: next,
                                owner_upload: self.owner_upload[channel]
                                    .get(next)
                                    .copied()
                                    .unwrap_or(0.0),
                            },
                        );
                    }
                    return;
                }
                NextAction::Leave => {
                    kernel.schedule_in(
                        0.0,
                        PROVISIONER,
                        CmEvent::TrackLeave {
                            channel,
                            from: current,
                        },
                    );
                    if play_end <= now {
                        self.depart(kernel, id);
                    } else {
                        // Drain playback (still uploading), then depart.
                        let s = self.sessions.get_mut(&id).expect("session is connected");
                        s.state = SessState::Waiting { next: None };
                        kernel.schedule_at(play_end, SESSIONS, CmEvent::Wake { session: id });
                    }
                    return;
                }
            }
        }
    }

    /// Builds the quality sample for `[now - window, now]` and resets the
    /// start-up accumulators.
    pub(crate) fn quality_snapshot(&mut self, now: f64) -> QualitySnapshot {
        let n_channels = self.pool.len();
        let mut per_channel_peers = vec![0usize; n_channels];
        let mut per_channel_smooth = vec![0usize; n_channels];
        let mut smooth = 0usize;
        for s in self.sessions.values() {
            per_channel_peers[s.channel] += 1;
            let stalled_recently = s
                .last_stall_at
                .is_some_and(|t| t >= now - self.sample_window);
            let overdue = matches!(
                s.state,
                SessState::Downloading { deadline, .. } if now > deadline
            );
            if !stalled_recently && !overdue {
                smooth += 1;
                per_channel_smooth[s.channel] += 1;
            }
        }
        let active = self.sessions.len();
        let quality = if active == 0 {
            1.0
        } else {
            smooth as f64 / active as f64
        };
        let per_channel_quality = per_channel_peers
            .iter()
            .zip(&per_channel_smooth)
            .map(|(&n, &s)| if n == 0 { 1.0 } else { s as f64 / n as f64 })
            .collect();
        let mean_startup_delay = if self.startup_count > 0 {
            self.startup_sum / self.startup_count as f64
        } else {
            0.0
        };
        self.startup_sum = 0.0;
        self.startup_count = 0;
        QualitySnapshot {
            quality,
            active,
            per_channel_peers,
            per_channel_quality,
            mean_startup_delay,
        }
    }
}

impl Component<CmEvent> for Sessions {
    fn handle(&mut self, event: Event<CmEvent>, kernel: &mut Kernel<CmEvent>) {
        let now = event.time;
        match event.payload {
            CmEvent::NextArrival => {
                let a = self
                    .pending_arrival
                    .take()
                    .expect("a NextArrival event always has its arrival staged");
                debug_assert_eq!(a.time, now);
                // Graceful degradation: during an active fleet-failure
                // window with ShedNewArrivals, refuse admission. The
                // tracker still measures the arrival as demand.
                if self.faults.shed_arrivals_at(a.time) {
                    self.shed += 1;
                    kernel.schedule_in(
                        0.0,
                        PROVISIONER,
                        CmEvent::TrackJoin {
                            channel: a.channel,
                            chunk: a.start_chunk,
                            admitted: false,
                        },
                    );
                } else {
                    self.join(
                        kernel,
                        a.user_id,
                        a.channel,
                        a.start_chunk,
                        a.upload_bytes_per_sec,
                    );
                }
                if let Some(next) = self.stream.next() {
                    kernel.schedule_at(next.time, SESSIONS, CmEvent::NextArrival);
                    self.pending_arrival = Some(next);
                }
            }
            CmEvent::FlashCrowd {
                channel,
                extra,
                window,
            } => {
                // Sub-round timing: each injected viewer lands at its own
                // uniformly sampled instant inside the window.
                for _ in 0..extra {
                    let dt = self.rng.random::<f64>() * window;
                    let upload = self.upload_dist.sample(&mut self.rng);
                    kernel.schedule_in(dt, SESSIONS, CmEvent::SyntheticJoin { channel, upload });
                }
            }
            CmEvent::SyntheticJoin { channel, upload } => {
                let start_chunk = self
                    .catalog
                    .channel(channel)
                    .viewing
                    .sample_start_chunk(&mut self.rng);
                let id = self.next_synthetic_id;
                self.next_synthetic_id += 1;
                self.injected += 1;
                self.join(kernel, id, channel, start_chunk, upload);
            }
            CmEvent::Wake { session } => {
                let s = self
                    .sessions
                    .get_mut(&session)
                    .expect("waiting sessions stay until they wake");
                let SessState::Waiting { next } = s.state else {
                    unreachable!("wake events target waiting sessions");
                };
                match next {
                    Some(pending) => {
                        let channel = s.channel;
                        s.state = SessState::Downloading {
                            chunk: pending.chunk,
                            deadline: pending.deadline,
                        };
                        kernel.schedule_in(
                            0.0,
                            ADMISSION,
                            CmEvent::ChunkRequest {
                                session,
                                channel,
                                chunk: pending.chunk,
                                owner_upload: self.owner_upload[channel]
                                    .get(pending.chunk)
                                    .copied()
                                    .unwrap_or(0.0),
                            },
                        );
                    }
                    None => self.depart(kernel, session),
                }
            }
            CmEvent::Delivered { session, chunk, .. } => {
                let s = self
                    .sessions
                    .get_mut(&session)
                    .expect("downloads belong to connected sessions");
                let SessState::Downloading {
                    chunk: cur,
                    deadline,
                } = s.state
                else {
                    unreachable!("deliveries target downloading sessions");
                };
                debug_assert_eq!(cur, chunk);
                s.buffer |= 1u64 << chunk;
                let (ch, usable) = (s.channel, s.usable_upload);
                if let Some(o) = self.owner_upload[ch].get_mut(chunk) {
                    *o += usable;
                }
                if deadline.is_finite() {
                    if now > deadline {
                        s.last_stall_at = Some(now);
                    }
                } else {
                    // First chunk: playback starts now.
                    self.startup_sum += now - s.joined_at;
                    self.startup_count += 1;
                }
                let play_start = if deadline.is_finite() {
                    deadline.max(now)
                } else {
                    now
                };
                self.advance_playback(kernel, session, chunk, play_start + self.chunk_seconds);
            }
            other => unreachable!("sessions received {other:?}"),
        }
    }
}
