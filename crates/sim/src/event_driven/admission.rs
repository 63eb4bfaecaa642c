//! The admission/service component.
//!
//! Implements, per *request*, exactly the queueing system the paper's
//! controller provisions for: each channel's cloud reservation is a FIFO
//! M/M/m server fleet (service time = chunk bytes at one VM's bandwidth
//! ≈ 12 s). The online fleet, `⌊min(running, reserved) / per-VM
//! bandwidth⌋` servers, is split across channels by largest remainder
//! of their reservations, so a fleet short of its plan idles no running
//! VM (flooring each channel's share on its own would leave every
//! one-VM channel without a server). In P2P
//! mode the peer upload pool absorbs a share of the chunk-request stream
//! before it reaches the cloud — the event-driven analogue of the round
//! engines' "peers serve first, cloud covers the residual" allocation.
//!
//! - **Peer mesh.** Peers serve first: the channel's usable upload pool
//!   is a fleet of `round(pool / per-connection bandwidth)` transfer
//!   slots, and a request takes one iff some peer owns the chunk (the
//!   fluid allocator's `owner_upload` constraint, snapshotted by the
//!   sessions component) and a slot is free. Slots bound aggregate mesh
//!   throughput by the physical pool to within half a connection
//!   (rounding to the nearest slot is the unbiased discretization;
//!   flooring systematically under-serves by up to one connection per
//!   channel, which measurably widens the gap to the fluid engines).
//!   Overflow falls through to the cloud — "peers serve first, the
//!   cloud covers the residual", per request. Peer transfers never
//!   touch the VM queue or the used-cloud meter.
//! - **Cloud queue.** A cloud-served request takes a free server
//!   immediately or *queues FIFO* until one frees (capacity growth pops
//!   the queue as boots complete). The admission wait is therefore an
//!   **emergent** quantity — real queueing, not a sampled distribution —
//!   and is the per-request latency [`super::DesReport`] summarizes: the
//!   quantity the paper's "mean retrieval time ≤ T0" provisioning target
//!   bounds but the round engines cannot observe. For each cloud request
//!   the component also evaluates the Erlang-C wait probability
//!   ([`cloudmedia_queueing::erlang_c_wait_probability`]) at the
//!   currently measured `(m, λ_cloud/μ)`; the report compares this
//!   analytic prediction against the measured wait fraction, validating
//!   the paper's M/M/m model against its own event-driven realization.
//!
//! Before the first VMs boot (or after a failure burst) `m` is 0 and
//! cloud-bound requests simply wait in the queue — the event-driven
//! analogue of a fluid download that does not progress until capacity
//! exists.
//!
//! - **Remote overflow (federation hook).** With
//!   [`super::DesScenario::remote_overflow`] set, a request that would
//!   have to queue locally may instead take a slot at a remote
//!   federation site: served immediately, delivered late by the
//!   inter-region latency, never touching the local queue or the local
//!   used-bandwidth meter — the per-request analogue of
//!   [`crate::federation`]'s overflow redirection.
//!
//! Used cloud bandwidth is integrated *exactly* between events: the
//! channel's take is `busy servers × per-VM bandwidth` (capped at its
//! online servers while a shrinking fleet drains), piecewise
//! constant between service starts and completions, so over any window
//! the integral equals the bytes the cloud actually served — the same
//! quantity the round engines accumulate from their per-round served
//! rates.

use std::collections::VecDeque;

use cloudmedia_des::{Component, Event, Kernel};
use cloudmedia_queueing::erlang_c_wait_probability;

use super::events::{CmEvent, ADMISSION, SESSIONS};
use super::RemoteOverflowSpec;
use crate::allocation::apportion;
use crate::config::{SimConfig, SimMode};

/// EWMA weight for the per-channel mean inter-request gap.
const GAP_EWMA_WEIGHT: f64 = 0.05;

/// A request waiting for a free server.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    session: u64,
    chunk: usize,
    enqueued_at: f64,
}

/// One channel's admission state.
#[derive(Debug, Default)]
struct ChannelQueue {
    /// Online servers: the channel's largest-remainder share of the
    /// online fleet.
    servers: usize,
    /// Servers currently serving a transfer. May transiently exceed
    /// `servers` while a shrunk fleet drains.
    busy: usize,
    /// FIFO queue of requests awaiting a server.
    waiting: VecDeque<QueuedRequest>,
    /// Usable peer upload pool, bytes/s.
    pool: f64,
    /// Concurrent peer-served transfers.
    active_peer: u64,
    /// EWMA mean inter-request gap, seconds (0 = no data).
    mean_gap: f64,
    /// Last request time (−1 before the first).
    last_req_t: f64,
    /// Current cloud take, bytes/s.
    used_rate: f64,
}

impl ChannelQueue {
    /// The EWMA request rate λ, per second (0 = no data yet).
    fn lambda(&self) -> f64 {
        if self.mean_gap > 0.0 {
            1.0 / self.mean_gap
        } else {
            0.0
        }
    }
}

/// The admission component; see the module docs.
#[derive(Debug)]
pub struct Admission {
    p2p: bool,
    vm_bandwidth: f64,
    chunk_bytes: f64,
    /// Reserved cloud bandwidth per channel (current plan).
    reserved: Vec<f64>,
    reserved_total: f64,
    /// Bandwidth of VMs actually running.
    running: f64,
    channels: Vec<ChannelQueue>,
    used_rate_total: f64,
    /// Time of the last used-bandwidth integration.
    last_t: f64,
    /// ∫ used dt since the last sample flush, bytes.
    window_used: f64,
    /// Per-request admission waits, seconds.
    waits: Vec<f32>,
    deliveries: u64,
    cloud_requests: u64,
    peer_requests: u64,
    /// Σ Erlang-C wait probabilities evaluated at admission (cloud
    /// requests): the analytic prediction of `waited_requests`.
    predicted_wait_prob_sum: f64,
    /// Cloud requests that measurably waited for a server.
    waited_requests: u64,
    /// Remote overflow pool (federation hook): slot fleet, occupancy,
    /// and the latency its deliveries pay.
    remote: Option<RemoteState>,
    /// Requests redirected to the remote pool.
    redirected: u64,
}

/// Live state of the remote overflow pool.
#[derive(Debug)]
struct RemoteState {
    /// Transfer slots the remote capacity funds.
    slots: u64,
    /// Slots currently serving a redirected transfer.
    busy: u64,
    /// Extra delivery latency per redirected chunk, seconds.
    extra_latency: f64,
}

impl Admission {
    pub(crate) fn new(
        cfg: &SimConfig,
        vm_bandwidth: f64,
        remote_overflow: Option<RemoteOverflowSpec>,
    ) -> Self {
        let n = cfg.catalog.len();
        let remote = remote_overflow.map(|spec| RemoteState {
            slots: (spec.capacity_bps.max(0.0) / vm_bandwidth).floor() as u64,
            busy: 0,
            extra_latency: spec.extra_latency_seconds.max(0.0),
        });
        Self {
            remote,
            redirected: 0,
            p2p: cfg.mode == SimMode::P2p,
            vm_bandwidth,
            chunk_bytes: cfg.chunk_bytes(),
            reserved: vec![0.0; n],
            reserved_total: 0.0,
            running: 0.0,
            channels: (0..n)
                .map(|_| ChannelQueue {
                    last_req_t: -1.0,
                    ..ChannelQueue::default()
                })
                .collect(),
            used_rate_total: 0.0,
            last_t: 0.0,
            window_used: 0.0,
            waits: Vec::new(),
            deliveries: 0,
            cloud_requests: 0,
            peer_requests: 0,
            predicted_wait_prob_sum: 0.0,
            waited_requests: 0,
        }
    }

    /// Integrates the piecewise-constant used rate up to `now`.
    fn advance(&mut self, now: f64) {
        debug_assert!(now >= self.last_t);
        self.window_used += self.used_rate_total * (now - self.last_t);
        self.last_t = now;
    }

    /// Recomputes channel `c`'s cloud take after a state change.
    fn refresh_channel(&mut self, c: usize) {
        let ch = &mut self.channels[c];
        let new = ch.busy.min(ch.servers) as f64 * self.vm_bandwidth;
        self.used_rate_total += new - ch.used_rate;
        ch.used_rate = new;
    }

    /// Flushes and returns ∫ used dt since the previous flush.
    pub(crate) fn window_used(&mut self, now: f64) -> f64 {
        self.advance(now);
        std::mem::take(&mut self.window_used)
    }

    /// The recorded admission waits (consumes them).
    pub(crate) fn take_waits(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.waits)
    }

    /// Completed transfers.
    pub(crate) fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Requests routed to the cloud queue / served by peers.
    pub(crate) fn request_split(&self) -> (u64, u64) {
        (self.cloud_requests, self.peer_requests)
    }

    /// Requests redirected to the remote overflow site.
    pub(crate) fn redirected_requests(&self) -> u64 {
        self.redirected
    }

    /// Mean Erlang-C wait probability predicted at admission over all
    /// cloud requests, and the fraction that measurably waited — the
    /// model-vs-measured pair the report prints.
    pub(crate) fn wait_model_check(&self) -> (f64, f64) {
        if self.cloud_requests == 0 {
            return (0.0, 0.0);
        }
        (
            self.predicted_wait_prob_sum / self.cloud_requests as f64,
            self.waited_requests as f64 / self.cloud_requests as f64,
        )
    }

    /// Puts a request into service on channel `c` now; it waited since
    /// `enqueued_at`.
    fn start_service(&mut self, kernel: &mut Kernel<CmEvent>, c: usize, req: QueuedRequest) {
        let now = kernel.now();
        let wait = now - req.enqueued_at;
        self.waits.push(wait as f32);
        if wait > 1e-9 {
            self.waited_requests += 1;
        }
        self.channels[c].busy += 1;
        self.refresh_channel(c);
        let service = self.chunk_bytes / self.vm_bandwidth;
        // Release fires before delivery at the same instant (FIFO), so a
        // queued request takes the freed server before the delivered
        // session's follow-up request arrives.
        kernel.schedule_in(
            service,
            ADMISSION,
            CmEvent::TransferDone {
                channel: c,
                cloud: true,
            },
        );
        kernel.schedule_in(
            service,
            SESSIONS,
            CmEvent::Delivered {
                session: req.session,
                chunk: req.chunk,
                admission_wait: wait,
            },
        );
    }

    /// Starts queued requests while channel `c` has free servers.
    fn drain_queue(&mut self, kernel: &mut Kernel<CmEvent>, c: usize) {
        while self.channels[c].busy < self.channels[c].servers {
            let Some(req) = self.channels[c].waiting.pop_front() else {
                break;
            };
            self.start_service(kernel, c, req);
        }
    }

    /// Splits the online fleet, `⌊min(running, reserved) / per-VM
    /// bandwidth⌋` servers, across channels by largest remainder of their
    /// reservations, and serves whatever the new capacity admits.
    fn resize_channels(&mut self, kernel: &mut Kernel<CmEvent>) {
        // The epsilon absorbs float noise: a fully booted plan of k VMs
        // must give k servers, not floor(k - 0.00…1).
        let online = self.running.min(self.reserved_total);
        let total = (online / self.vm_bandwidth + 1e-6).floor() as usize;
        for (c, servers) in apportion(total, &self.reserved).into_iter().enumerate() {
            self.channels[c].servers = servers;
            self.refresh_channel(c);
            self.drain_queue(kernel, c);
        }
    }
}

impl Component<CmEvent> for Admission {
    fn handle(&mut self, event: Event<CmEvent>, kernel: &mut Kernel<CmEvent>) {
        let now = event.time;
        match event.payload {
            CmEvent::ChunkRequest {
                session,
                channel,
                chunk,
                owner_upload,
            } => {
                self.advance(now);
                let c = channel;
                // Channel λ EWMA from observed inter-request gaps (zero
                // gaps — simultaneous requests — count, or λ would read
                // low under clustered arrivals).
                {
                    let ch = &mut self.channels[c];
                    if ch.last_req_t >= 0.0 && now >= ch.last_req_t {
                        let gap = now - ch.last_req_t;
                        ch.mean_gap = if ch.mean_gap > 0.0 {
                            (1.0 - GAP_EWMA_WEIGHT) * ch.mean_gap + GAP_EWMA_WEIGHT * gap
                        } else {
                            gap
                        };
                    }
                    ch.last_req_t = now;
                }

                // Peers serve first, the cloud covers the residual —
                // the fluid allocator's order, realized per request. The
                // mesh is a fleet of `round(pool / per-connection
                // bandwidth)` transfer slots (nearest-slot rounding: see
                // the module docs): a request takes one iff some peer
                // owns the chunk (the fluid `owner_upload` constraint)
                // and a slot is free; otherwise it falls through to the
                // cloud. Slots bound aggregate peer throughput by the
                // physical pool (to within half a connection) —
                // per-transfer "fair share" rates would not (the early
                // transfers keep their high frozen rates while later
                // ones join, a harmonic-sum leak).
                let pool = self.channels[c].pool;
                let n_peer = self.channels[c].active_peer;
                let peer_slots = (pool / self.vm_bandwidth).round() as u64;
                let peer_ok = self.p2p && owner_upload > 0.0 && n_peer < peer_slots;
                if peer_ok {
                    self.peer_requests += 1;
                    let ch = &mut self.channels[c];
                    ch.active_peer += 1;
                    let transfer = self.chunk_bytes / self.vm_bandwidth;
                    self.waits.push(0.0);
                    kernel.schedule_in(
                        transfer,
                        ADMISSION,
                        CmEvent::TransferDone {
                            channel: c,
                            cloud: false,
                        },
                    );
                    kernel.schedule_in(
                        transfer,
                        SESSIONS,
                        CmEvent::Delivered {
                            session,
                            chunk,
                            admission_wait: 0.0,
                        },
                    );
                    return;
                }

                // Federation hook: a request that would have to *queue*
                // locally (every online server busy) may instead take a
                // free slot at the remote overflow site — served
                // immediately, delivered late by the inter-region
                // latency, and never touching the local queue or the
                // local used-bandwidth meter. (With redirection active
                // the local queue is an overflow system, so the Erlang-C
                // check below applies to the non-redirected stream only.)
                if self.channels[c].busy >= self.channels[c].servers {
                    if let Some(remote) = &mut self.remote {
                        if remote.busy < remote.slots {
                            remote.busy += 1;
                            self.redirected += 1;
                            self.waits.push(0.0);
                            let transfer = self.chunk_bytes / self.vm_bandwidth;
                            kernel.schedule_in(transfer, ADMISSION, CmEvent::RemoteTransferDone);
                            kernel.schedule_in(
                                transfer + remote.extra_latency,
                                SESSIONS,
                                CmEvent::Delivered {
                                    session,
                                    chunk,
                                    admission_wait: 0.0,
                                },
                            );
                            return;
                        }
                    }
                }

                // Cloud-served: record the analytic wait prediction at
                // the measured operating point, then queue FIFO. The
                // cloud-facing rate is the residual of the measured
                // request rate after the mesh's share.
                self.cloud_requests += 1;
                let m = self.channels[c].servers;
                let mu = self.vm_bandwidth / self.chunk_bytes;
                let lambda = self.channels[c].lambda();
                let peer_share = if self.p2p && lambda > 0.0 {
                    (pool / (lambda * self.chunk_bytes)).min(1.0)
                } else {
                    0.0
                };
                let lambda_cloud = lambda * (1.0 - peer_share);
                self.predicted_wait_prob_sum += erlang_c_wait_probability(m, lambda_cloud / mu);
                let req = QueuedRequest {
                    session,
                    chunk,
                    enqueued_at: now,
                };
                if self.channels[c].busy < m {
                    self.start_service(kernel, c, req);
                } else {
                    self.channels[c].waiting.push_back(req);
                }
            }
            CmEvent::TransferDone { channel, cloud } => {
                self.advance(now);
                self.deliveries += 1;
                if cloud {
                    debug_assert!(self.channels[channel].busy > 0);
                    self.channels[channel].busy -= 1;
                    self.refresh_channel(channel);
                    self.drain_queue(kernel, channel);
                } else {
                    debug_assert!(self.channels[channel].active_peer > 0);
                    self.channels[channel].active_peer -= 1;
                }
            }
            CmEvent::RemoteTransferDone => {
                self.advance(now);
                self.deliveries += 1;
                let remote = self.remote.as_mut().expect("remote transfers need a pool");
                debug_assert!(remote.busy > 0);
                remote.busy -= 1;
            }
            CmEvent::PoolUpdate {
                channel,
                usable_upload,
            } => {
                // Pools feed future admission decisions only; the used
                // meter tracks cloud transfers.
                self.channels[channel].pool = usable_upload;
            }
            CmEvent::CapacityUpdate {
                channel_reserved,
                running_bandwidth,
            } => {
                self.advance(now);
                self.reserved_total = channel_reserved.iter().sum();
                self.reserved = channel_reserved;
                self.running = running_bandwidth;
                self.resize_channels(kernel);
            }
            other => unreachable!("admission received {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_cloud::cluster::PAPER_VM_BANDWIDTH;

    #[test]
    fn a_fleet_short_of_its_plan_idles_no_running_vm() {
        // 20 one-VM channels at online scale 0.925: 18.5 VMs' worth runs,
        // so 18 whole servers. Flooring each channel's 0.925 on its own
        // would give none.
        let cfg = SimConfig::paper_default(SimMode::ClientServer);
        assert_eq!(cfg.catalog.len(), 20);
        let vm = PAPER_VM_BANDWIDTH;
        let mut admission = Admission::new(&cfg, vm, None);
        let mut kernel = Kernel::new();
        kernel.schedule_at(
            0.0,
            ADMISSION,
            CmEvent::CapacityUpdate {
                channel_reserved: vec![vm; 20],
                running_bandwidth: 0.925 * 20.0 * vm,
            },
        );
        let update = kernel.pop().expect("scheduled");
        admission.handle(update, &mut kernel);
        let servers: Vec<usize> = admission.channels.iter().map(|c| c.servers).collect();
        assert_eq!(servers.iter().sum::<usize>(), 18, "{servers:?}");
        assert!(
            servers.iter().all(|&m| m <= 1),
            "beyond the plan: {servers:?}"
        );
    }
}
