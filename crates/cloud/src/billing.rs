//! Usage-time billing.
//!
//! Meters VM rental (per instance-hour, per cluster price) and NFS storage
//! (per GB-hour, per cluster price) exactly as the paper's charging model
//! prescribes, by integrating usage between accrual points.

use serde::{Deserialize, Serialize};

use crate::cluster::{NfsClusterSpec, VirtualClusterSpec, GIB};
use crate::error::{invalid_param, CloudError};
use crate::pricing::Money;

/// A metered billing account for one cloud consumer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BillingMeter {
    vm_prices: Vec<f64>,
    storage_prices: Vec<f64>,
    last_accrual: f64,
    vm_cost: Money,
    storage_cost: Money,
    vm_cost_per_cluster: Vec<Money>,
    /// (time, incremental vm cost, incremental storage cost) per accrual.
    ledger: Vec<LedgerEntry>,
}

/// One accrual record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// End time of the accrual period.
    pub time: f64,
    /// VM cost accrued over the period.
    pub vm_cost: Money,
    /// Storage cost accrued over the period.
    pub storage_cost: Money,
}

impl BillingMeter {
    /// Creates a meter for the given cluster price books.
    ///
    /// # Errors
    ///
    /// Propagates spec validation failures.
    pub fn new(
        virtual_clusters: &[VirtualClusterSpec],
        nfs_clusters: &[NfsClusterSpec],
    ) -> Result<Self, CloudError> {
        for s in virtual_clusters {
            s.validate()?;
        }
        for s in nfs_clusters {
            s.validate()?;
        }
        Ok(Self {
            vm_prices: virtual_clusters
                .iter()
                .map(|s| s.price.dollars_per_hour)
                .collect(),
            storage_prices: nfs_clusters
                .iter()
                .map(|s| s.price_per_gb.dollars_per_hour)
                .collect(),
            last_accrual: 0.0,
            vm_cost: Money::ZERO,
            storage_cost: Money::ZERO,
            vm_cost_per_cluster: vec![Money::ZERO; virtual_clusters.len()],
            ledger: Vec::new(),
        })
    }

    /// Accrues charges for the period `(last_accrual, now]` given the
    /// billable VM counts and stored bytes that held over that period, and
    /// returns the incremental charge.
    ///
    /// # Errors
    ///
    /// Rejects out-of-order accruals and mismatched vector lengths.
    pub fn accrue(
        &mut self,
        now: f64,
        billable_vms: &[usize],
        stored_bytes: &[u64],
    ) -> Result<LedgerEntry, CloudError> {
        if now < self.last_accrual {
            return Err(CloudError::TimeWentBackwards {
                last: self.last_accrual,
                submitted: now,
            });
        }
        if billable_vms.len() != self.vm_prices.len() {
            return Err(invalid_param(
                "billable_vms",
                format!(
                    "expected {} clusters, got {}",
                    self.vm_prices.len(),
                    billable_vms.len()
                ),
            ));
        }
        if stored_bytes.len() != self.storage_prices.len() {
            return Err(invalid_param(
                "stored_bytes",
                format!(
                    "expected {} clusters, got {}",
                    self.storage_prices.len(),
                    stored_bytes.len()
                ),
            ));
        }
        let hours = (now - self.last_accrual) / 3600.0;
        let mut vm_inc = Money::ZERO;
        for (c, (&count, &price)) in billable_vms.iter().zip(&self.vm_prices).enumerate() {
            let inc = Money::dollars(count as f64 * price * hours);
            self.vm_cost_per_cluster[c] += inc;
            vm_inc += inc;
        }
        let storage_inc: Money = stored_bytes
            .iter()
            .zip(&self.storage_prices)
            .map(|(&bytes, &price)| Money::dollars(bytes as f64 / GIB * price * hours))
            .sum();
        self.vm_cost += vm_inc;
        self.storage_cost += storage_inc;
        self.last_accrual = now;
        let entry = LedgerEntry {
            time: now,
            vm_cost: vm_inc,
            storage_cost: storage_inc,
        };
        self.ledger.push(entry);
        Ok(entry)
    }

    /// Total VM rental cost to date.
    pub fn vm_cost(&self) -> Money {
        self.vm_cost
    }

    /// Total storage cost to date.
    pub fn storage_cost(&self) -> Money {
        self.storage_cost
    }

    /// Total cost to date.
    pub fn total_cost(&self) -> Money {
        self.vm_cost + self.storage_cost
    }

    /// VM cost per virtual cluster.
    pub fn vm_cost_per_cluster(&self) -> &[Money] {
        &self.vm_cost_per_cluster
    }

    /// The accrual ledger.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// Time of the last accrual.
    pub fn last_accrual(&self) -> f64 {
        self.last_accrual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{paper_nfs_clusters, paper_virtual_clusters};

    fn meter() -> BillingMeter {
        BillingMeter::new(&paper_virtual_clusters(), &paper_nfs_clusters()).unwrap()
    }

    #[test]
    fn one_standard_vm_for_one_hour_costs_45_cents() {
        let mut m = meter();
        let e = m.accrue(3600.0, &[1, 0, 0], &[0, 0]).unwrap();
        assert!((e.vm_cost.as_dollars() - 0.45).abs() < 1e-12);
        assert_eq!(e.storage_cost, Money::ZERO);
        assert!((m.total_cost().as_dollars() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn mixed_fleet_hourly_cost() {
        // 10 Standard + 5 Medium + 2 Advanced = 4.5 + 3.5 + 1.6 = $9.6/h.
        let mut m = meter();
        let e = m.accrue(3600.0, &[10, 5, 2], &[0, 0]).unwrap();
        assert!((e.vm_cost.as_dollars() - 9.6).abs() < 1e-9);
        let per = m.vm_cost_per_cluster();
        assert!((per[0].as_dollars() - 4.5).abs() < 1e-9);
        assert!((per[1].as_dollars() - 3.5).abs() < 1e-9);
        assert!((per[2].as_dollars() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn storage_cost_per_gb_hour() {
        let mut m = meter();
        // 1 GB on Standard for 1 h = $1.11e-4; 2 GB on High = $4.16e-4.
        let e = m
            .accrue(3600.0, &[0, 0, 0], &[1_000_000_000, 2_000_000_000])
            .unwrap();
        assert!((e.storage_cost.as_dollars() - (1.11e-4 + 4.16e-4)).abs() < 1e-12);
    }

    #[test]
    fn accrual_is_prorated_by_time() {
        let mut m = meter();
        m.accrue(1800.0, &[2, 0, 0], &[0, 0]).unwrap();
        assert!(
            (m.vm_cost().as_dollars() - 0.45).abs() < 1e-12,
            "2 VMs x 0.5 h"
        );
        m.accrue(3600.0, &[4, 0, 0], &[0, 0]).unwrap();
        assert!((m.vm_cost().as_dollars() - (0.45 + 0.9)).abs() < 1e-12);
    }

    #[test]
    fn ledger_records_every_accrual() {
        let mut m = meter();
        m.accrue(3600.0, &[1, 0, 0], &[0, 0]).unwrap();
        m.accrue(7200.0, &[2, 0, 0], &[0, 0]).unwrap();
        m.accrue(10800.0, &[1, 0, 0], &[0, 0]).unwrap();
        let ledger = m.ledger();
        assert_eq!(ledger.len(), 3);
        for (entry, (time, cost)) in
            ledger
                .iter()
                .zip([(3600.0, 0.45), (7200.0, 0.9), (10800.0, 0.45)])
        {
            assert_eq!(entry.time, time);
            assert!((entry.vm_cost.as_dollars() - cost).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_time_backwards_and_bad_lengths() {
        let mut m = meter();
        m.accrue(100.0, &[0, 0, 0], &[0, 0]).unwrap();
        assert!(m.accrue(50.0, &[0, 0, 0], &[0, 0]).is_err());
        assert!(m.accrue(200.0, &[0, 0], &[0, 0]).is_err());
        assert!(m.accrue(200.0, &[0, 0, 0], &[0]).is_err());
    }

    #[test]
    fn zero_duration_accrual_is_free() {
        let mut m = meter();
        m.accrue(0.0, &[10, 10, 10], &[1_000_000_000, 0]).unwrap();
        assert_eq!(m.total_cost(), Money::ZERO);
    }
}
