//! IaaS cloud infrastructure model for the CloudMedia reproduction.
//!
//! The paper built its cloud from 100+ lab machines running Xen; this crate
//! models that infrastructure at the level the provisioning algorithms
//! interact with it — the functional modules of the paper's Fig. 1:
//!
//! - [`cluster`]: virtual clusters (Table II) and NFS clusters (Table III),
//! - [`vm`]: VM lifecycle with the measured ~25 s boot latency,
//! - [`scheduler`]: the VM scheduler (fleet convergence, parallel boot) and
//!   NFS scheduler (capacity-checked chunk placement),
//! - [`billing`]: usage-time metering (per VM-hour, per GB-hour),
//! - [`broker`]: the consumer-facing facade — SLA terms, resource change
//!   requests, time advancement,
//! - [`pricing`]: money and rates.
//!
//! # Example
//!
//! ```
//! use cloudmedia_cloud::broker::{Cloud, ResourceRequest};
//!
//! let mut cloud = Cloud::paper_default().unwrap();
//! cloud.submit_request(&ResourceRequest {
//!     vm_targets: vec![10, 0, 0],   // ten Standard VMs
//!     placement: None,
//! }).unwrap();
//! cloud.tick(25.0).unwrap();        // boot latency elapses
//! assert!(cloud.running_bandwidth() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod billing;
pub mod broker;
pub mod cluster;
mod error;
pub mod pricing;
pub mod scheduler;
pub mod vm;

pub use error::CloudError;
