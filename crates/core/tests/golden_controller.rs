//! Golden pinning of the provisioning controller: every field of every
//! `ProvisioningPlan`, bit for bit, over 24 hourly plans of the paper
//! catalog under each controller configuration the simulators use —
//! client–server, the P2P default, the path-based Ψ estimator, the
//! sojourn-quantile target, a best-effort budget cut, and the EWMA and
//! moving-average predictors.
//! Loads follow the paper's diurnal profile and
//! every observed routing matrix is perturbed (some entries zeroed), so
//! the solvers see a different system every hour.
//!
//! Floats are recorded as IEEE-754 bit patterns. Per-chunk vectors
//! (chunk demands, VM allocations, placements) are recorded as their
//! length plus an FNV-1a digest of every key and bit pattern, which keeps
//! the fixture small while still failing on a one-ulp change anywhere.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! CLOUDMEDIA_BLESS=1 cargo test -p cloudmedia-core --test golden_controller
//! ```
//!
//! and commit the rewritten `tests/fixtures/` file with the change that
//! required it.

use std::fmt::Write as _;
use std::path::PathBuf;

use cloudmedia_cloud::broker::SlaTerms;
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_core::analysis::{ProvisioningTarget, PsiEstimator};
use cloudmedia_core::controller::{
    BudgetPolicy, Controller, ControllerConfig, ProvisioningPlan, StreamingMode,
};
use cloudmedia_core::predictor::{ChannelObservation, PredictorKind};
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::BoundedPareto;
use cloudmedia_workload::diurnal::DiurnalPattern;

const HOURS: usize = 24;
const FIXTURE: &str = "golden_controller.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn blessing() -> bool {
    std::env::var_os("CLOUDMEDIA_BLESS").is_some()
}

/// The effective mean peer upload the simulators feed the controller
/// (the paper's bounded Pareto access links, 85 % peer efficiency).
fn mean_upload() -> f64 {
    BoundedPareto::new(180e3 / 8.0, 10e6 / 8.0, 3.0)
        .unwrap()
        .mean()
        * 0.85
}

fn p2p(psi: PsiEstimator) -> ControllerConfig {
    ControllerConfig::paper_default(StreamingMode::P2p {
        mean_upload: mean_upload(),
        psi,
    })
}

/// A named controller configuration, its predictor, and the hour (if
/// any) at which its VM budget is cut to a quarter.
struct Case {
    name: &'static str,
    config: ControllerConfig,
    predictor: PredictorKind,
    budget_cut_hour: Option<usize>,
}

fn cases() -> Vec<Case> {
    let case = |name, config| Case {
        name,
        config,
        predictor: PredictorKind::LastInterval,
        budget_cut_hour: None,
    };
    let mut quantile = p2p(PsiEstimator::Independent);
    quantile.target = ProvisioningTarget::SojournQuantile { epsilon: 0.05 };
    let mut best_effort = ControllerConfig::paper_default(StreamingMode::ClientServer);
    best_effort.budget_policy = BudgetPolicy::BestEffort;
    vec![
        case(
            "cs",
            ControllerConfig::paper_default(StreamingMode::ClientServer),
        ),
        case("p2p", p2p(PsiEstimator::Independent)),
        case("p2p_path_based", p2p(PsiEstimator::PathBased)),
        case("p2p_quantile", quantile),
        Case {
            budget_cut_hour: Some(8),
            ..case("cs_best_effort_cut", best_effort)
        },
        // The smoothing predictors blend the skipped and perturbed
        // observations, so the analysis sees averaged routing matrices.
        Case {
            predictor: PredictorKind::Ewma { weight: 0.5 },
            ..case("p2p_ewma", p2p(PsiEstimator::Independent))
        },
        Case {
            predictor: PredictorKind::MovingAverage { window: 3 },
            ..case(
                "cs_moving_average",
                ControllerConfig::paper_default(StreamingMode::ClientServer),
            )
        },
    ]
}

/// SplitMix64 of a tuple: a deterministic uniform in `[0, 1)`.
fn unit(a: usize, b: usize, c: usize, d: usize) -> f64 {
    let mut z = (a as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((b as u64) << 40)
        .wrapping_add((c as u64) << 20)
        .wrapping_add(d as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// What a tracker would report at hour `hour` for every catalog channel:
/// 70 % of the diurnal arrival rate (the paper's fleet covers the evening
/// peak in client–server mode), a slightly noisy start split, and the
/// viewing model's routing with every entry shrunk by up to 20 % (about
/// one in twenty zeroed), which keeps every row substochastic. Each channel skips one hour in seven, so the
/// controller also plans from carried-over predictions.
fn observations(
    catalog: &Catalog,
    diurnal: &DiurnalPattern,
    hour: usize,
) -> Vec<(usize, ChannelObservation)> {
    let multiplier = 0.7 * diurnal.multiplier((hour as f64 + 0.5) * 3600.0);
    let mut stats = Vec::new();
    for spec in catalog.channels() {
        if hour > 0 && (hour + spec.id).is_multiple_of(7) {
            continue;
        }
        let mut routing = spec.viewing.routing_rows().unwrap();
        for (i, row) in routing.iter_mut().enumerate() {
            for (j, p) in row.iter_mut().enumerate() {
                let u = unit(hour, spec.id, i, j);
                *p = if u < 0.05 { 0.0 } else { *p * (0.8 + 0.2 * u) };
            }
        }
        let alpha =
            (spec.viewing.start_at_beginning * (0.95 + 0.1 * unit(hour, spec.id, 99, 0))).min(1.0);
        stats.push((
            spec.id,
            ChannelObservation {
                arrival_rate: spec.base_arrival_rate * multiplier,
                alpha,
                routing,
            },
        ));
    }
    stats
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One fixture line per plan: every scalar and short vector verbatim (as
/// bits), every per-chunk collection as `len:digest`.
fn record(plan: &ProvisioningPlan) -> String {
    let mut demands = Digest::new();
    for d in &plan.chunk_demands {
        demands.word(d.key.channel as u64);
        demands.word(d.key.chunk as u64);
        demands.f(d.demand);
    }
    let mut allocations = Digest::new();
    let mut allocation_count = 0;
    for (key, allocs) in &plan.vm_plan.allocations {
        allocations.word(key.channel as u64);
        allocations.word(key.chunk as u64);
        allocations.word(allocs.len() as u64);
        for a in allocs {
            allocations.word(a.cluster as u64);
            allocations.f(a.vms);
            allocation_count += 1;
        }
    }
    let placement = match &plan.placement {
        None => "none".to_string(),
        Some(p) => {
            let mut d = Digest::new();
            for (key, cluster) in p {
                d.word(key.channel as u64);
                d.word(key.chunk as u64);
                d.word(*cluster as u64);
            }
            format!("{}:{:016x}", p.len(), d.0)
        }
    };
    let fractions: Vec<String> = plan.vm_plan.vm_fractions.iter().map(|&f| bits(f)).collect();
    let mut line = String::new();
    write!(
        line,
        "vm_targets={:?} total_cloud={} peer={} storage_utility={} \
         demands={}:{:016x} placement={placement} \
         plan.vm_targets={:?} plan.vm_fractions=[{}] plan.utility={} \
         plan.fractional_cost={} plan.integer_cost={} plan.allocations={}/{}:{:016x}",
        plan.vm_targets,
        bits(plan.total_cloud_demand),
        bits(plan.expected_peer_contribution),
        bits(plan.storage_utility),
        plan.chunk_demands.len(),
        demands.0,
        plan.vm_plan.vm_targets,
        fractions.join(","),
        bits(plan.vm_plan.total_utility),
        bits(plan.vm_plan.fractional_hourly_cost),
        bits(plan.vm_plan.integer_hourly_cost),
        plan.vm_plan.allocations.len(),
        allocation_count,
        allocations.0,
    )
    .unwrap();
    line
}

/// Runs every case for 24 hours: `(case, hour, plan or error text)`.
fn plans() -> Vec<(&'static str, usize, Result<ProvisioningPlan, String>)> {
    let catalog = Catalog::paper_default();
    let diurnal = DiurnalPattern::paper_default();
    let sla = SlaTerms {
        virtual_clusters: paper_virtual_clusters(),
        nfs_clusters: paper_nfs_clusters(),
    };
    let mut out = Vec::new();
    for case in cases() {
        let mut controller = Controller::new(case.config, case.predictor).unwrap();
        for hour in 0..HOURS {
            if case.budget_cut_hour == Some(hour) {
                controller.scale_vm_budget(0.25).unwrap();
            }
            let stats = observations(&catalog, &diurnal, hour);
            let plan = controller
                .plan_interval(&stats, &sla)
                .map_err(|e| e.to_string());
            out.push((case.name, hour, plan));
        }
    }
    out
}

/// The fixture text: one line per plan.
fn render() -> String {
    let mut out = String::new();
    for (name, hour, plan) in plans() {
        let outcome = match plan {
            Ok(plan) => record(&plan),
            Err(e) => format!("error={e}"),
        };
        writeln!(out, "{name} h{hour:02} {outcome}").unwrap();
    }
    out
}

#[test]
fn controller_plans_match_the_golden() {
    let got = render();
    let path = fixture_path();
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {FIXTURE} ({e}); run with CLOUDMEDIA_BLESS=1"));
    for (n, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            w,
            g,
            "{FIXTURE} line {}: plan diverged from the committed golden (re-bless only \
             for intentional behavior changes)",
            n + 1
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "{FIXTURE}: plan count changed"
    );
}

/// The fixture exercises what it claims to: every plan succeeds, the
/// P2P cases count on peers, and the budget cut degrades the busy hours
/// to the new budget.
#[test]
fn golden_covers_every_configuration() {
    let mut cs_demand = [0.0; HOURS];
    let mut degraded_hours = 0;
    for (name, hour, plan) in plans() {
        let plan = plan.unwrap_or_else(|e| panic!("{name} h{hour}: {e}"));
        assert!(plan.total_cloud_demand > 0.0, "{name} h{hour}");
        assert_eq!(
            plan.expected_peer_contribution > 0.0,
            name.starts_with("p2p"),
            "{name} h{hour}"
        );
        match name {
            "cs" => cs_demand[hour] = plan.total_cloud_demand,
            "cs_best_effort_cut" if hour >= 8 => {
                assert!(
                    plan.vm_plan.integer_hourly_cost <= 25.0 + 1.0,
                    "{name} h{hour}: ${}/h after the cut",
                    plan.vm_plan.integer_hourly_cost
                );
                if plan.total_cloud_demand < cs_demand[hour] {
                    degraded_hours += 1;
                }
            }
            _ => {}
        }
    }
    assert!(degraded_hours > 0, "the budget cut never bound");
}
