//! Simulation-level multi-region experiment (paper's future work): the
//! **three-way deployment comparison** behind the `geo_federation`
//! section of `BENCH_sim.json`.
//!
//! All three deployments serve the identical global demand through the
//! real provisioning loop, with each region billing at its own site's
//! prices ([`cloudmedia_core::federation::paper_sites`]):
//!
//! - **independent** — one full system simulation per region (local-time
//!   diurnal patterns, population-share catalogs), no traffic exchange;
//! - **federated** — the same per-region simulations coupled by the
//!   global placement optimizer: peak/premium demand is redirected into
//!   cheaper off-peak sites, paying egress + SLA latency penalty per
//!   redirected gigabyte;
//! - **central** — a single reference-priced site simulating the
//!   time-zone-multiplexed *mixture* of the shifted patterns.
//!
//! The interesting outcome is the cost sandwich `central ≤ federated ≤
//! independent` (pinned by `crates/sim/tests/federation.rs`): time-zone
//! multiplexing bounds what any placement can save, and the federation
//! recovers part of that gap while keeping every byte in a regional
//! site.

use cloudmedia_sim::config::SimMode;
use cloudmedia_sim::federation::{
    DeploymentKind, FederatedConfig, FederatedMetrics, FederatedSimulator,
};
use serde::Serialize;

/// Outcome of the three deployments for one streaming mode.
#[derive(Debug, Clone)]
pub struct ThreeWayResult {
    /// Streaming mode the comparison ran in.
    pub mode: SimMode,
    /// Simulated horizon, hours.
    pub hours: f64,
    /// Per-region sites, no redirection.
    pub independent: FederatedMetrics,
    /// Per-region sites plus the global placement optimizer.
    pub federated: FederatedMetrics,
    /// One multiplexed reference-priced site.
    pub central: FederatedMetrics,
}

/// Runs the three deployments over `hours` hours in `mode` (in
/// parallel — they are independent simulations).
///
/// # Panics
///
/// Panics if a simulation fails.
pub fn run_three_way(mode: SimMode, hours: f64) -> ThreeWayResult {
    let deploy = |kind: DeploymentKind| -> FederatedMetrics {
        FederatedSimulator::new(FederatedConfig::paper_default(kind, mode, hours))
            .expect("paper federation config is valid")
            .run()
            .expect("deployment run succeeds")
    };
    std::thread::scope(|s| {
        let independent = s.spawn(|| deploy(DeploymentKind::Independent));
        let federated = s.spawn(|| deploy(DeploymentKind::Federated));
        let central = s.spawn(|| deploy(DeploymentKind::Central));
        ThreeWayResult {
            mode,
            hours,
            independent: independent.join().expect("independent thread"),
            federated: federated.join().expect("federated thread"),
            central: central.join().expect("central thread"),
        }
    })
}

/// CSV summary of the comparison (one row per deployment, plus one per
/// federated region showing where traffic moved).
pub fn csv(result: &ThreeWayResult) -> String {
    let mut out = String::from(
        "deployment,total_cost,vm_cost,transfer_cost,latency_penalty_cost,\
         redirected_share,mean_quality\n",
    );
    for (name, m) in [
        ("independent", &result.independent),
        ("federated", &result.federated),
        ("central", &result.central),
    ] {
        out.push_str(&format!(
            "{name},{:.2},{:.2},{:.4},{:.4},{:.4},{:.4}\n",
            m.total_cost(),
            m.total_vm_cost,
            m.total_transfer_cost,
            m.total_latency_penalty_cost,
            m.redirected_share(),
            m.mean_quality(),
        ));
    }
    for r in &result.federated.per_region {
        out.push_str(&format!(
            "federated_{},{:.2},{:.2},{:.4},{:.4},{:.4},{:.4}\n",
            r.region.name,
            // Same cost composition as the deployment rows (VM + storage
            // + transfer + penalty), so the three region totals sum to
            // the federated deployment total.
            r.metrics.total_vm_cost
                + r.metrics.total_storage_cost
                + r.transfer_cost
                + r.latency_penalty_cost,
            r.metrics.total_vm_cost,
            r.transfer_cost,
            r.latency_penalty_cost,
            r.redirected_share(),
            r.metrics.mean_quality(),
        ));
    }
    out
}

/// One deployment's row in the `geo_federation` section.
#[derive(Debug, Serialize)]
pub struct DeploymentRow {
    /// Deployment name (`independent` / `federated` / `central`).
    pub deployment: String,
    /// Total cost (VM + storage + transfer + latency penalty), dollars.
    pub total_cost: f64,
    /// VM rental across sites, dollars.
    pub vm_cost: f64,
    /// Egress charges, dollars.
    pub transfer_cost: f64,
    /// SLA latency-penalty credits, dollars.
    pub latency_penalty_cost: f64,
    /// Fraction of cloud-served bytes redirected.
    pub redirected_share: f64,
    /// Population-weighted mean streaming quality.
    pub mean_quality: f64,
    /// Peak concurrent viewers.
    pub peak_peers: usize,
}

impl DeploymentRow {
    fn new(name: &str, m: &FederatedMetrics) -> Self {
        Self {
            deployment: name.to_owned(),
            total_cost: m.total_cost(),
            vm_cost: m.total_vm_cost,
            transfer_cost: m.total_transfer_cost,
            latency_penalty_cost: m.total_latency_penalty_cost,
            redirected_share: m.redirected_share(),
            mean_quality: m.mean_quality(),
            peak_peers: m.peak_peers(),
        }
    }
}

/// One streaming mode's comparison in the `geo_federation` section.
#[derive(Debug, Serialize)]
pub struct ModeComparison {
    /// Streaming mode.
    pub mode: String,
    /// Simulated horizon, hours.
    pub sim_hours: f64,
    /// The three deployments, independent first.
    pub deployments: Vec<DeploymentRow>,
    /// Federated-vs-independent saving, fraction of independent cost.
    pub federated_saving_vs_independent: f64,
    /// Central-vs-independent saving (the multiplexing bound).
    pub central_saving_vs_independent: f64,
}

/// Schema tag of the `geo_federation` section.
pub const SCHEMA: &str = "cloudmedia-bench-geo-federation/v1";

/// The `geo_federation` section appended to `BENCH_sim.json`.
#[derive(Debug, Serialize)]
pub struct GeoFederationSection {
    /// Schema tag.
    pub schema: String,
    /// Reading notes.
    pub notes: Vec<String>,
    /// One comparison per streaming mode.
    pub modes: Vec<ModeComparison>,
}

/// Builds one mode's section entry from a three-way result.
pub fn mode_comparison(result: &ThreeWayResult) -> ModeComparison {
    let ind = result.independent.total_cost();
    let saving = |m: &FederatedMetrics| {
        if ind > 0.0 {
            1.0 - m.total_cost() / ind
        } else {
            0.0
        }
    };
    ModeComparison {
        mode: format!("{:?}", result.mode),
        sim_hours: result.hours,
        deployments: vec![
            DeploymentRow::new("independent", &result.independent),
            DeploymentRow::new("federated", &result.federated),
            DeploymentRow::new("central", &result.central),
        ],
        federated_saving_vs_independent: saving(&result.federated),
        central_saving_vs_independent: saving(&result.central),
    }
}

/// Wraps mode comparisons into the full section.
pub fn section(modes: Vec<ModeComparison>) -> GeoFederationSection {
    GeoFederationSection {
        schema: SCHEMA.into(),
        notes: vec![
            "Three-site deployment (americas 1.0x / europe 1.15x / apac 1.30x VM \
             prices, $0.01/GB egress, $0.005/GB SLA latency penalty). The cost \
             sandwich central <= federated <= independent is pinned by \
             crates/sim/tests/federation.rs."
                .into(),
        ],
        modes,
    }
}

/// Writes `section_json` as the section `key` of the benchmark file.
/// An existing `key` is replaced in place, so every other section keeps
/// its content and position; a new key goes at the end. A missing file
/// starts a fresh record.
///
/// # Errors
///
/// Fails if the file cannot be read or written, or if it or
/// `section_json` is not JSON (the file must hold a JSON object).
pub fn append_section(out_path: &str, key: &str, section_json: &str) -> std::io::Result<()> {
    let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let section: serde::Value =
        serde_json::from_str(section_json).map_err(|e| invalid(e.to_string()))?;
    let mut fields = match std::fs::read_to_string(out_path) {
        Ok(text) => match serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))? {
            serde::Value::Object(fields) => fields,
            _ => return Err(invalid(format!("{out_path} does not hold a JSON object"))),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => vec![(
            "schema".to_owned(),
            serde::Value::String("cloudmedia-bench-sim/v1".into()),
        )],
        Err(e) => return Err(e),
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, value)) => *value = section,
        None => fields.push((key.to_owned(), section)),
    }
    let json = serde_json::to_string_pretty(&serde::Value::Object(fields))
        .map_err(|e| invalid(e.to_string()))?;
    std::fs::write(out_path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_deployments_serve_the_same_demand_well() {
        let r = run_three_way(SimMode::ClientServer, 4.0);
        assert_eq!(r.independent.per_region.len(), 3);
        assert_eq!(r.federated.per_region.len(), 3);
        assert_eq!(r.central.per_region.len(), 1);
        for m in [&r.independent, &r.federated, &r.central] {
            assert!(m.mean_quality() > 0.9, "quality {}", m.mean_quality());
            assert!(m.total_vm_cost > 0.0);
        }
        let c = csv(&r);
        assert_eq!(c.lines().count(), 7, "3 deployments + 3 regions + header");
        let section = mode_comparison(&r);
        assert_eq!(section.deployments.len(), 3);
        assert!(serde_json::to_string(&section).is_ok());
    }

    #[test]
    fn central_peak_population_exceeds_any_single_region() {
        let r = run_three_way(SimMode::ClientServer, 4.0);
        let max_region = r
            .independent
            .per_region
            .iter()
            .map(|reg| {
                reg.metrics
                    .samples
                    .iter()
                    .map(|s| s.active_peers)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap();
        assert!(r.central.peak_peers() > max_region);
    }

    #[test]
    fn append_section_is_idempotent_per_key() {
        let dir = std::env::temp_dir().join("cloudmedia-geo-fed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_section(path, "geo_federation", "{\"a\": 1}").unwrap();
        append_section(path, "geo_federation", "{\"a\": 2}").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let parsed: serde::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(text.matches("geo_federation").count(), 1, "{text}");
        assert_eq!(
            parsed.get("geo_federation").unwrap().get("a"),
            Some(&serde::Value::UInt(2))
        );

        // Regenerating a middle section keeps the sections after it,
        // in their original order.
        std::fs::remove_file(path).unwrap();
        for key in ["a", "b", "c"] {
            append_section(path, key, "{\"v\": 1}").unwrap();
        }
        append_section(path, "b", "{\"v\": 2}").unwrap();
        let parsed: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let serde::Value::Object(fields) = &parsed else {
            panic!("the record is a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "a", "b", "c"]);
        let v = |key: &str| parsed.get(key).unwrap().get("v").cloned();
        assert_eq!(v("a"), Some(serde::Value::UInt(1)));
        assert_eq!(v("b"), Some(serde::Value::UInt(2)));
        assert_eq!(v("c"), Some(serde::Value::UInt(1)));
    }
}
