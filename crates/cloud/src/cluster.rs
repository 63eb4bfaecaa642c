//! Virtual (VM) and NFS cluster specifications.
//!
//! The paper's cloud groups computing servers into *virtual clusters* of
//! identically configured VMs and storage servers into *NFS clusters* by
//! performance level. Tables II and III give the exact experimental
//! configurations, reproduced here as constructors.

use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CloudError};
use crate::pricing::Rate;

/// Specification of one virtual cluster (paper Table II row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualClusterSpec {
    /// Display name (e.g. "Standard").
    pub name: String,
    /// Performance factor `u~_v`; larger is better.
    pub utility: f64,
    /// Rental price per VM per hour `p~_v`.
    pub price: Rate,
    /// Maximum VMs the cluster can provision, `N_v`.
    pub max_vms: usize,
    /// Guaranteed bandwidth per VM, `R`, in bytes per second.
    pub vm_bandwidth_bytes_per_sec: f64,
}

impl VirtualClusterSpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive utility, bandwidth, or price.
    pub fn validate(&self) -> Result<(), CloudError> {
        if !(self.utility.is_finite() && self.utility > 0.0) {
            return Err(invalid_param(
                "utility",
                format!("must be positive, got {}", self.utility),
            ));
        }
        if !(self.price.dollars_per_hour.is_finite() && self.price.dollars_per_hour > 0.0) {
            return Err(invalid_param(
                "price",
                format!("must be positive, got {}", self.price.dollars_per_hour),
            ));
        }
        if !(self.vm_bandwidth_bytes_per_sec.is_finite() && self.vm_bandwidth_bytes_per_sec > 0.0) {
            return Err(invalid_param(
                "vm_bandwidth_bytes_per_sec",
                format!("must be positive, got {}", self.vm_bandwidth_bytes_per_sec),
            ));
        }
        Ok(())
    }

    /// Marginal utility per dollar, the sort key of the paper's VM
    /// configuration heuristic (`u~_v / p~_v`).
    pub fn utility_per_dollar(&self) -> f64 {
        self.utility / self.price.dollars_per_hour
    }
}

/// Specification of one NFS cluster (paper Table III row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfsClusterSpec {
    /// Display name (e.g. "High").
    pub name: String,
    /// Performance factor `u_f`; larger is better.
    pub utility: f64,
    /// Storage price per gigabyte per hour, `p_f`.
    pub price_per_gb: Rate,
    /// Storage capacity `S_f` in bytes.
    pub capacity_bytes: u64,
}

impl NfsClusterSpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive utility, price, or capacity.
    pub fn validate(&self) -> Result<(), CloudError> {
        if !(self.utility.is_finite() && self.utility > 0.0) {
            return Err(invalid_param(
                "utility",
                format!("must be positive, got {}", self.utility),
            ));
        }
        if !(self.price_per_gb.dollars_per_hour.is_finite()
            && self.price_per_gb.dollars_per_hour > 0.0)
        {
            return Err(invalid_param(
                "price_per_gb",
                format!(
                    "must be positive, got {}",
                    self.price_per_gb.dollars_per_hour
                ),
            ));
        }
        if self.capacity_bytes == 0 {
            return Err(invalid_param("capacity_bytes", "must be positive"));
        }
        Ok(())
    }

    /// Marginal utility per dollar-per-GB-hour, the sort key of the
    /// paper's storage rental heuristic (`u_f / p_f`).
    pub fn utility_per_dollar(&self) -> f64 {
        self.utility / self.price_per_gb.dollars_per_hour
    }
}

/// Bytes per gigabyte (decimal, as cloud providers bill).
pub const GIB: f64 = 1e9;

/// 10 Mbps in bytes per second — the fixed VM bandwidth `R` of the paper's
/// experiments.
pub const PAPER_VM_BANDWIDTH: f64 = 10e6 / 8.0;

/// The paper's Table II: three virtual clusters.
///
/// | Type     | Utility | Price/h | VMs |
/// |----------|---------|---------|-----|
/// | Standard | 0.6     | $0.450  | 75  |
/// | Medium   | 0.8     | $0.700  | 30  |
/// | Advanced | 1.0     | $0.800  | 45  |
pub fn paper_virtual_clusters() -> Vec<VirtualClusterSpec> {
    vec![
        VirtualClusterSpec {
            name: "Standard".to_owned(),
            utility: 0.6,
            price: Rate::per_hour(0.450),
            max_vms: 75,
            vm_bandwidth_bytes_per_sec: PAPER_VM_BANDWIDTH,
        },
        VirtualClusterSpec {
            name: "Medium".to_owned(),
            utility: 0.8,
            price: Rate::per_hour(0.700),
            max_vms: 30,
            vm_bandwidth_bytes_per_sec: PAPER_VM_BANDWIDTH,
        },
        VirtualClusterSpec {
            name: "Advanced".to_owned(),
            utility: 1.0,
            price: Rate::per_hour(0.800),
            max_vms: 45,
            vm_bandwidth_bytes_per_sec: PAPER_VM_BANDWIDTH,
        },
    ]
}

/// The paper's Table III: two NFS clusters of 20 GB each.
///
/// | Type     | Utility | Price per GB·h | Capacity |
/// |----------|---------|----------------|----------|
/// | Standard | 0.8     | $1.11e-4       | 20 GB    |
/// | High     | 1.0     | $2.08e-4       | 20 GB    |
pub fn paper_nfs_clusters() -> Vec<NfsClusterSpec> {
    vec![
        NfsClusterSpec {
            name: "Standard".to_owned(),
            utility: 0.8,
            price_per_gb: Rate::per_hour(1.11e-4),
            capacity_bytes: 20_000_000_000,
        },
        NfsClusterSpec {
            name: "High".to_owned(),
            utility: 1.0,
            price_per_gb: Rate::per_hour(2.08e-4),
            capacity_bytes: 20_000_000_000,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_validate() {
        for c in paper_virtual_clusters() {
            c.validate().unwrap();
        }
        for c in paper_nfs_clusters() {
            c.validate().unwrap();
        }
    }

    #[test]
    fn paper_table_ii_values() {
        let vcs = paper_virtual_clusters();
        assert_eq!(vcs.len(), 3);
        assert_eq!(vcs[0].name, "Standard");
        assert_eq!(vcs[0].max_vms, 75);
        assert_eq!(vcs[1].max_vms, 30);
        assert_eq!(vcs[2].max_vms, 45);
        assert!((vcs[0].price.dollars_per_hour - 0.45).abs() < 1e-12);
        assert!((vcs[2].utility - 1.0).abs() < 1e-12);
        // Total fleet: 150 VMs.
        let total: usize = vcs.iter().map(|c| c.max_vms).sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn paper_table_iii_values() {
        let nfs = paper_nfs_clusters();
        assert_eq!(nfs.len(), 2);
        assert!((nfs[0].price_per_gb.dollars_per_hour - 1.11e-4).abs() < 1e-15);
        assert!((nfs[1].price_per_gb.dollars_per_hour - 2.08e-4).abs() < 1e-15);
        assert_eq!(nfs[0].capacity_bytes, 20_000_000_000);
    }

    #[test]
    fn utility_per_dollar_ordering_matches_heuristic_intuition() {
        // Advanced (1.0/$0.80 = 1.25) beats Medium (0.8/$0.70 ~ 1.143)
        // and Standard (0.6/$0.45 ~ 1.333) tops both — the greedy heuristic
        // prefers Standard first, as in the paper's cost-oriented design.
        let vcs = paper_virtual_clusters();
        let std_upd = vcs[0].utility_per_dollar();
        let med_upd = vcs[1].utility_per_dollar();
        let adv_upd = vcs[2].utility_per_dollar();
        assert!(std_upd > adv_upd);
        assert!(adv_upd > med_upd);
    }

    #[test]
    fn nfs_standard_is_better_value_high_is_better_performance() {
        let nfs = paper_nfs_clusters();
        assert!(nfs[0].utility_per_dollar() > nfs[1].utility_per_dollar());
        assert!(nfs[1].utility > nfs[0].utility);
    }

    #[test]
    fn vm_bandwidth_is_10_mbps() {
        assert!((PAPER_VM_BANDWIDTH - 1.25e6).abs() < 1e-9);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = paper_virtual_clusters()[0].clone();
        c.utility = 0.0;
        assert!(c.validate().is_err());
        let mut c = paper_virtual_clusters()[0].clone();
        c.price = Rate::per_hour(-1.0);
        assert!(c.validate().is_err());
        let mut n = paper_nfs_clusters()[0].clone();
        n.capacity_bytes = 0;
        assert!(n.validate().is_err());
    }
}
