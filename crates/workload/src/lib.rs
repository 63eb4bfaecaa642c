//! Synthetic VoD workload generation for the CloudMedia reproduction.
//!
//! The CloudMedia paper evaluates against a synthetic trace modelled on
//! PPLive VoD measurements; the trace itself was never released, so this
//! crate regenerates it from the *stated* statistics:
//!
//! - [`distributions`]: bounded Pareto (peer upload capacities,
//!   `[180 kbps, 10 Mbps]`, shape 3) and Zipf (channel popularity),
//! - [`diurnal`]: daily arrival-rate profiles with two flash crowds (noon
//!   and evening),
//! - [`viewing`]: the parametric viewer behaviour model and its exact
//!   translation into the chunk transfer probability matrix `P(c)`,
//! - [`catalog`]: Zipf-popular channel catalogs calibrated to a target
//!   concurrent population via Little's law,
//! - [`trace`]: deterministic, seeded arrival streams, merged across the
//!   catalog or one channel at a time,
//! - [`stats`]: the tracker-side estimators that measure `Λ(c)`, `P(c)`
//!   and `α` per provisioning interval (paper Sec. V-B).
//!
//! # Example
//!
//! ```
//! use cloudmedia_workload::catalog::Catalog;
//! use cloudmedia_workload::trace::{ArrivalStream, TraceConfig};
//!
//! let catalog = Catalog::paper_default();        // 20 channels, ~2500 users
//! let mut config = TraceConfig::paper_default(); // one week, flash crowds
//! config.horizon_seconds = 3600.0;               // trim for the example
//! let arrivals: Vec<_> = ArrivalStream::new(&catalog, &config).unwrap().collect();
//! assert!(!arrivals.is_empty());
//! assert!(arrivals.windows(2).all(|w| w[0].time <= w[1].time));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod distributions;
pub mod diurnal;
mod error;
pub mod stats;
pub mod trace;
pub mod viewing;

pub use error::WorkloadError;
