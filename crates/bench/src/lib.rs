//! Experiment harness for the CloudMedia reproduction, behind two
//! drivers, one per output.
//!
//! The `run_all` binary regenerates every table and figure of the
//! paper's evaluation (Sec. VI) and the ablations in one process,
//! reusing the expensive week-long simulations across figures, and
//! writes each as a CSV in `results/`. The logic lives in these modules:
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
//! | Greedy vs exact optimizers | [`ablation`] | `ablation_optimizer.csv` |
//! | Ψ estimators | [`ablation`] | `ablation_psi.csv` |
//! | Demand predictors | [`ablation`] | `ablation_predictor.csv` |
//! | Provisioning strategies | [`ablation`] | `ablation_provisioner.csv` |
//! | Retrieval-time targets | [`ablation`] | `ablation_provisioning_target.csv` |
//!
//! The `bench_sim` binary writes the whole perf record `BENCH_sim.json`
//! ([`record`]) in one process:
//!
//! | Section | Module |
//! |---|---|
//! | `e2e`, `kernels` | [`record`] |
//! | `des_comparison`, `engine_throughput` | [`des`] |
//! | `geo_federation` | [`geo_sim`] |
//! | `scale_sweep` | [`scale`] |
//! | `resilience` | [`resilience`] |
//! | `stage_profile` | [`profile`] |

pub mod ablation;
pub mod chunk_size;
pub mod des;
pub mod fig11;
pub mod four_channel;
pub mod geo_sim;
pub mod harness;
pub mod latency;
pub mod profile;
pub mod record;
pub mod report;
pub mod resilience;
pub mod scale;
pub mod tables;

pub use harness::{paper_runs, HarnessArgs, PaperRuns};
