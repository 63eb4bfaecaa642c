//! Experiment harness for the CloudMedia reproduction.
//!
//! The `run_all` binary regenerates every table and figure of the
//! paper's evaluation (Sec. VI) in one process, reusing the expensive
//! week-long simulations across figures, and writes each as a CSV in
//! `results/`. The logic lives in these modules:
//!
//! | Paper artifact | Module | `run_all` output |
//! |---|---|---|
//! | Table II & III | [`tables`] | `table2.csv`, `table3.csv` |
//! | Fig. 4 provisioned vs used | [`report`] | `fig4.csv` |
//! | Fig. 5 streaming quality | [`report`] | `fig5.csv` |
//! | Fig. 6 quality vs channel size | [`report`] | `fig6.csv` |
//! | Fig. 7 bandwidth vs channel size | [`report`] | `fig7.csv` |
//! | Fig. 8 storage utility | [`four_channel`] | `fig8.csv` |
//! | Fig. 9 VM utility | [`four_channel`] | `fig9.csv` |
//! | Fig. 10 VM cost | [`report`] | `fig10.csv` |
//! | Fig. 11 upload sufficiency | [`fig11`] | `fig11.csv` |
//! | Sec. VI-C VM latency | [`latency`] | `provisioning_latency.csv` |
//! | Footnote 3 chunk size | [`chunk_size`] | `ablation_chunk_size.csv` |

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
