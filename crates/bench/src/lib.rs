//! Experiment harness for the CloudMedia reproduction.
//!
//! Each table and figure of the paper's evaluation (Sec. VI) has a binary
//! in `src/bin/` that prints the corresponding series as CSV; the shared
//! logic lives here so `run_all` can regenerate everything in one process
//! (reusing the expensive week-long simulations across figures).
//!
//! | Paper artifact | Module / binary |
//! |---|---|
//! | Table II & III | [`tables`] / `tables` |
//! | Fig. 4 provisioned vs used | [`report`] / `fig4_provision_vs_usage` |
//! | Fig. 5 streaming quality | [`report`] / `fig5_streaming_quality` |
//! | Fig. 6 quality vs channel size | [`report`] / `fig6_quality_vs_channel_size` |
//! | Fig. 7 bandwidth vs channel size | [`report`] / `fig7_bandwidth_vs_channel_size` |
//! | Fig. 8 storage utility | [`four_channel`] / `fig8_storage_utility` |
//! | Fig. 9 VM utility | [`four_channel`] / `fig9_vm_utility` |
//! | Fig. 10 VM cost | [`report`] / `fig10_vm_cost` |
//! | Fig. 11 upload sufficiency | [`fig11`] / `fig11_upload_sufficiency` |
//! | Sec. VI-C VM latency | [`latency`] / `provisioning_latency` |
//! | Footnote 3 chunk size | [`chunk_size`] / `ablation_chunk_size` |

pub mod chunk_size;
pub mod fig11;
pub mod four_channel;
pub mod geo_sim;
pub mod harness;
pub mod latency;
pub mod profile;
pub mod report;
pub mod resilience;
pub mod scale;
pub mod tables;

pub use harness::{paper_runs, HarnessArgs, PaperRuns};

/// Schema tag of `bench_sim`'s top-level keys of `BENCH_sim.json` (the
/// record's own `schema`, `e2e` and `kernels`).
pub const SIM_SCHEMA: &str = "cloudmedia-bench-sim/v2";

/// Schema tag of `bench_des`'s `des_comparison` section.
pub const DES_SCHEMA: &str = "cloudmedia-bench-des/v1";

/// Schema tag of `bench_des`'s `engine_throughput` section.
pub const DES_THROUGHPUT_SCHEMA: &str = "cloudmedia-bench-des-throughput/v1";
