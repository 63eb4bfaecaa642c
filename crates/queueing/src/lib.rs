//! Queueing-theory substrate for the CloudMedia reproduction.
//!
//! The CloudMedia paper (ICDCS 2011) models each video channel as an open
//! Jackson network of `M/M/m` queues — one queue per video chunk — and
//! derives the server capacity that keeps the mean chunk retrieval time
//! within the chunk playback time. This crate provides the general
//! queueing-theory machinery that analysis rests on:
//!
//! - [`erlang`]: numerically stable Erlang B / Erlang C formulas,
//! - [`mmm`]: `M/M/m` equilibrium metrics and the inverse
//!   minimum-servers-for-target-sojourn search,
//! - [`jackson`]: open Jackson networks and their traffic equations,
//! - [`absorbing`]: absorbing Markov chain analysis (visit counts, hitting
//!   and hit-before probabilities) used by the P2P joint-ownership
//!   estimator,
//! - [`birth_death`]: truncated birth–death chains, the test oracle for
//!   [`mmm::MmmQueue::expected_in_system`] (its tests
//!   `truncated_mmm_matches_closed_form_expected_n` and
//!   `truncated_mmm_matches_state_probabilities`),
//! - [`linalg`]: the small dense linear-algebra kernel behind the solvers.
//!
//! # Example
//!
//! Derive the number of 10 Mbps cloud VMs needed so that a chunk with 0.5
//! viewer arrivals per second is retrieved, on average, within its 5-minute
//! playback window (the paper's Sec. VI parameters):
//!
//! ```
//! use cloudmedia_queueing::mmm::{min_servers_for_sojourn, MmmQueue};
//!
//! let mu = 1.0 / 12.0;          // chunk service rate of one VM (per s)
//! let t0 = 300.0;               // chunk playback time (s)
//! let m = min_servers_for_sojourn(0.5, mu, t0).unwrap();
//! let queue = MmmQueue::new(0.5, mu, m).unwrap();
//! assert!(queue.mean_sojourn_time() <= t0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod absorbing;
pub mod birth_death;
pub mod erlang;
mod error;
pub mod jackson;
pub mod linalg;
pub mod mmm;

pub use erlang::erlang_c_wait_probability;
pub use error::QueueingError;
