//! Federated multi-region placement — the overflow-redirection middle
//! ground between fully independent regional sites and one centralized
//! site.
//!
//! The paper's future work ("expanding to cloud systems spanning
//! different geographic locations") is modeled in two deployment
//! extremes by [`crate::geo`]: independent per-region sites (every byte
//! served locally) and a single central site (time-zone multiplexing,
//! every remote viewer pays latency). This module adds the federation in
//! between: regions keep their own cloud sites, but every provisioning
//! interval a **global placement optimizer** decides how much of each
//! region's predicted demand is served locally and how much is
//! *redirected* to remote sites — because the local site's capacity cap
//! overflowed, or simply because an off-peak remote site sells the same
//! VM-hour cheaper than the local peak-priced one, even after paying for
//! the inter-region transfer and the SLA latency penalty.
//!
//! The optimizer is a greedy water-filling over marginal cost. For
//! region `i`, serving one byte/s for an hour costs:
//!
//! - locally: `price_i` (the site's bandwidth price),
//! - at remote site `j`: `price_j + egress_j + penalty`, where `egress_j`
//!   is site `j`'s per-volume transfer price expressed per sustained
//!   bandwidth-hour and `penalty` prices the extra delivery latency a
//!   redirected viewer experiences (an SLA credit, in dollars per GB).
//!
//! Demand is assigned to sites in ascending marginal-cost order,
//! respecting each site's residual capacity cap; when every candidate is
//! exhausted the remainder falls back to the local site regardless of its
//! cap (caps are *planning* limits — the local site is always the server
//! of last resort, it just stops being cheap). Redirection away from an
//! uncapped local site additionally requires the remote marginal cost to
//! undercut the local one by the policy's hysteresis margin, so tiny
//! price differences do not thrash traffic across the planet.

use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, CoreError};

/// Economic description of one region's cloud site, the per-region terms
/// the federation optimizer prices placements with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSpec {
    /// Multiplier on the reference price book's VM rental prices
    /// (1.0 = reference region).
    pub vm_price_factor: f64,
    /// Cap on the cloud bandwidth this site can sell, bytes per second
    /// (`f64::INFINITY` = uncapped). A *planning* limit: demand beyond
    /// every cap still lands on the local site.
    pub capacity_cap_bps: f64,
    /// Price of egress traffic this site charges for serving a remote
    /// region, dollars per decimal gigabyte.
    pub egress_price_per_gb: f64,
}

impl SiteSpec {
    /// An uncapped reference-priced site with the given egress price.
    pub fn reference(egress_price_per_gb: f64) -> Self {
        Self {
            vm_price_factor: 1.0,
            capacity_cap_bps: f64::INFINITY,
            egress_price_per_gb,
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.vm_price_factor.is_finite() && self.vm_price_factor > 0.0) {
            return Err(invalid_param("vm_price_factor", "must be positive"));
        }
        // NaN caps fail here too (the comparison is false for NaN).
        if self.capacity_cap_bps <= 0.0 || self.capacity_cap_bps.is_nan() {
            return Err(invalid_param("capacity_cap_bps", "must be positive"));
        }
        if !(self.egress_price_per_gb.is_finite() && self.egress_price_per_gb >= 0.0) {
            return Err(invalid_param("egress_price_per_gb", "must be non-negative"));
        }
        Ok(())
    }
}

/// The three-site economics matching [`crate::geo::three_sites`]:
/// Americas is the reference market, Europe and Asia-Pacific rent the
/// same VM classes at a premium, and every site charges $0.01/GB egress.
/// Caps sit well above each region's diurnal mean so only flash-crowd
/// peaks overflow.
pub fn paper_sites() -> Vec<SiteSpec> {
    vec![
        SiteSpec {
            vm_price_factor: 1.0,
            capacity_cap_bps: 80e6,
            egress_price_per_gb: 0.01,
        },
        SiteSpec {
            vm_price_factor: 1.15,
            capacity_cap_bps: 70e6,
            egress_price_per_gb: 0.01,
        },
        SiteSpec {
            vm_price_factor: 1.30,
            capacity_cap_bps: 60e6,
            egress_price_per_gb: 0.01,
        },
    ]
}

/// Knobs of the global placement optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FederationPolicy {
    /// Master switch: disabled means every region serves all of its own
    /// demand locally (the independent-geo deployment, but run through
    /// the same machinery so the comparison is apples-to-apples).
    pub enabled: bool,
    /// SLA latency penalty priced onto every redirected gigabyte,
    /// dollars per decimal GB. Models the credit a provider owes viewers
    /// it serves from a remote region.
    pub latency_penalty_per_gb: f64,
    /// Hysteresis: voluntary (non-overflow) redirection requires the
    /// remote marginal cost to be below `local × (1 − margin)`. Protects
    /// the integer VM plan from thrashing on sub-percent price noise.
    pub redirect_margin: f64,
}

impl FederationPolicy {
    /// Redirection enabled with the default penalty ($0.005/GB) and a 5 %
    /// hysteresis margin.
    pub fn federated() -> Self {
        Self {
            enabled: true,
            latency_penalty_per_gb: 0.005,
            redirect_margin: 0.05,
        }
    }

    /// Redirection disabled: the independent-geo deployment.
    pub fn independent() -> Self {
        Self {
            enabled: false,
            latency_penalty_per_gb: 0.0,
            redirect_margin: 0.0,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects negative penalties and margins outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.latency_penalty_per_gb.is_finite() && self.latency_penalty_per_gb >= 0.0) {
            return Err(invalid_param(
                "latency_penalty_per_gb",
                "must be non-negative",
            ));
        }
        if !(self.redirect_margin >= 0.0 && self.redirect_margin < 1.0) {
            return Err(invalid_param("redirect_margin", "must be in [0, 1)"));
        }
        Ok(())
    }
}

impl Default for FederationPolicy {
    fn default() -> Self {
        Self::independent()
    }
}

/// The placement the optimizer decided for one provisioning interval.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalPlacement {
    /// `assignment[i][j]` = bytes/s of region `i`'s cloud demand served
    /// by site `j`. Row sums equal the input demands.
    pub assignment: Vec<Vec<f64>>,
    /// Total demand redirected away from its home region, bytes/s.
    pub redirected_bps: f64,
    /// Estimated total marginal cost of the placement, dollars per hour
    /// (fluid estimate — the integer VM plan and per-byte metering refine
    /// it during simulation).
    pub estimated_hourly_cost: f64,
}

impl GlobalPlacement {
    /// Fraction of region `i`'s demand served away from home (0 when the
    /// region has no demand).
    pub fn redirect_fraction(&self, i: usize) -> f64 {
        let row = &self.assignment[i];
        let total: f64 = row.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        (total - row[i]) / total
    }

    /// Fraction of global demand served away from home.
    pub fn redirected_share(&self) -> f64 {
        let total: f64 = self.assignment.iter().flatten().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.redirected_bps / total
    }
}

/// Plans one interval's global placement: assigns each region's predicted
/// cloud demand (`demands[i]`, bytes/s) to sites by greedy water-filling
/// over marginal cost. `local_prices[j]` is site `j`'s *own published*
/// price of one byte/s for one hour (see
/// `SlaTerms::bandwidth_price_per_bps_hour` in `cloudmedia-cloud`, taken
/// from each site's SLA) — passing each site's price directly means no
/// assumption about which region is the reference market or how the
/// caller ordered them.
///
/// # Errors
///
/// Rejects mismatched lengths, invalid sites/policy/prices, and
/// non-finite or negative demands.
pub fn plan_global_placement(
    demands: &[f64],
    sites: &[SiteSpec],
    local_prices: &[f64],
    policy: &FederationPolicy,
) -> Result<GlobalPlacement, CoreError> {
    if demands.len() != sites.len() || local_prices.len() != sites.len() || sites.is_empty() {
        return Err(invalid_param(
            "demands",
            format!(
                "expected one demand and one price per site, got {} demands / {} prices / {} sites",
                demands.len(),
                local_prices.len(),
                sites.len()
            ),
        ));
    }
    for s in sites {
        s.validate()?;
    }
    policy.validate()?;
    for (j, p) in local_prices.iter().enumerate() {
        if !(p.is_finite() && *p > 0.0) {
            return Err(invalid_param(
                "local_prices",
                format!("price[{j}] must be positive, got {p}"),
            ));
        }
    }
    for (i, d) in demands.iter().enumerate() {
        if !(d.is_finite() && *d >= 0.0) {
            return Err(invalid_param(
                "demands",
                format!("demand[{i}] must be finite and non-negative, got {d}"),
            ));
        }
    }

    let n = sites.len();
    let local_price = local_prices;
    let penalty_bps_hour = policy.latency_penalty_per_gb * 3600.0 / 1e9;
    // Marginal cost of serving region i's demand at site j, $/bps·h.
    let marginal = |i: usize, j: usize| -> f64 {
        if i == j {
            local_price[j]
        } else {
            local_price[j] + sites[j].egress_price_per_gb * 3600.0 / 1e9 + penalty_bps_hour
        }
    };

    let mut residual: Vec<f64> = sites.iter().map(|s| s.capacity_cap_bps).collect();
    let mut assignment = vec![vec![0.0; n]; n];
    let mut redirected = 0.0;
    let mut cost = 0.0;

    if !policy.enabled {
        for (i, &d) in demands.iter().enumerate() {
            assignment[i][i] = d;
            cost += d * local_price[i];
        }
        return Ok(GlobalPlacement {
            assignment,
            redirected_bps: 0.0,
            estimated_hourly_cost: cost,
        });
    }

    // Regions place in descending demand order: the heaviest (peak)
    // region gets first pick of the cheap off-peak capacity, which is the
    // assignment a global optimizer would also prefer (the heaviest
    // region has the most to gain per unit moved).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        demands[b]
            .partial_cmp(&demands[a])
            .expect("demands are finite")
            .then(a.cmp(&b))
    });

    for &i in &order {
        let mut remaining = demands[i];
        if remaining <= 0.0 {
            continue;
        }
        // Candidate sites in ascending marginal cost (stable on ties so
        // the placement is deterministic).
        let mut candidates: Vec<usize> = (0..n).collect();
        candidates.sort_by(|&a, &b| {
            marginal(i, a)
                .partial_cmp(&marginal(i, b))
                .expect("marginal costs are finite")
                .then(a.cmp(&b))
        });
        // Two passes over the candidates. Pass 0 is *voluntary*
        // redirection: a remote site is taken only when its marginal
        // cost clears the hysteresis margin against the local price.
        // Pass 1 is *overflow*: whatever the voluntary pass (including
        // the capped local site) could not place takes any site with
        // room, margin or not — a remote site skipped as "not cheap
        // enough" in pass 0 is still far better than over-committing a
        // capped local site.
        for pass in 0..2 {
            if remaining <= 0.0 {
                break;
            }
            for &j in &candidates {
                if remaining <= 0.0 {
                    break;
                }
                if residual[j] <= 0.0 {
                    continue;
                }
                if pass == 0
                    && j != i
                    && marginal(i, j) >= local_price[i] * (1.0 - policy.redirect_margin)
                {
                    continue;
                }
                let take = remaining.min(residual[j]);
                assignment[i][j] += take;
                residual[j] -= take;
                remaining -= take;
                cost += take * marginal(i, j);
                if j != i {
                    redirected += take;
                }
            }
        }
        // Every cap exhausted: the local site serves the rest anyway
        // (caps are planning limits, not brownouts).
        if remaining > 0.0 {
            assignment[i][i] += remaining;
            cost += remaining * local_price[i];
        }
    }

    Ok(GlobalPlacement {
        assignment,
        redirected_bps: redirected,
        estimated_hourly_cost: cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper price reference: $0.45/h per 1.25 MB/s VM.
    const BW_PRICE: f64 = 0.45 / 1.25e6;

    /// Each site's published price: the reference times its factor.
    fn prices(sites: &[SiteSpec]) -> Vec<f64> {
        sites.iter().map(|s| BW_PRICE * s.vm_price_factor).collect()
    }

    fn sites(factors: &[f64], caps: &[f64]) -> Vec<SiteSpec> {
        factors
            .iter()
            .zip(caps)
            .map(|(&f, &c)| SiteSpec {
                vm_price_factor: f,
                capacity_cap_bps: c,
                egress_price_per_gb: 0.01,
            })
            .collect()
    }

    #[test]
    fn disabled_policy_serves_everything_locally() {
        let s = sites(&[1.0, 1.3], &[10.0, 10.0]);
        let p = plan_global_placement(
            &[100.0, 100.0],
            &s,
            &prices(&s),
            &FederationPolicy::independent(),
        )
        .unwrap();
        assert_eq!(p.assignment[0][0], 100.0);
        assert_eq!(p.assignment[1][1], 100.0);
        assert_eq!(p.redirected_bps, 0.0);
        assert_eq!(p.redirected_share(), 0.0);
    }

    #[test]
    fn expensive_region_redirects_to_cheap_one_when_worthwhile() {
        // Site 1 is 30 % dearer; transfer + penalty cost far less than
        // the 30 % VM premium at these prices, so region 1's demand moves
        // to site 0 while site 0 has room.
        let s = sites(&[1.0, 1.3], &[2e6, 2e6]);
        let p = plan_global_placement(&[0.0, 1e6], &s, &prices(&s), &FederationPolicy::federated())
            .unwrap();
        assert!(
            p.assignment[1][0] > 0.999e6,
            "assignment {:?}",
            p.assignment
        );
        assert!((p.redirect_fraction(1) - 1.0).abs() < 1e-9);
        // Row sum conservation.
        let served: f64 = p.assignment[1].iter().sum();
        assert!((served - 1e6).abs() < 1e-6);
    }

    #[test]
    fn margin_blocks_marginal_redirection() {
        // 3 % price difference < 5 % margin: stay local.
        let s = sites(&[1.0, 1.03], &[2e6, 2e6]);
        let p = plan_global_placement(&[0.0, 1e6], &s, &prices(&s), &FederationPolicy::federated())
            .unwrap();
        assert_eq!(p.assignment[1][0], 0.0);
        assert!((p.assignment[1][1] - 1e6).abs() < 1e-6);
    }

    #[test]
    fn overflow_spills_to_remote_capacity_then_falls_back_local() {
        // Same price everywhere (no voluntary redirection), but region 0
        // overflows its 1 MB/s cap threefold: the second MB/s takes the
        // remote site's spare capacity (overflow redirection buys real
        // serving headroom even at a transfer premium), and only once
        // every cap is exhausted does the rest land back on the over-cap
        // local site.
        let s = sites(&[1.0, 1.0], &[1e6, 1e6]);
        let p = plan_global_placement(&[3e6, 0.0], &s, &prices(&s), &FederationPolicy::federated())
            .unwrap();
        assert!(
            (p.assignment[0][0] - 2e6).abs() < 1e-6,
            "{:?}",
            p.assignment
        );
        assert!((p.assignment[0][1] - 1e6).abs() < 1e-6);
        assert!((p.redirected_bps - 1e6).abs() < 1e-6);
    }

    #[test]
    fn margin_skipped_remote_is_revisited_for_overflow() {
        // Site 1 is 3 % cheaper — inside the 5 % hysteresis margin, so
        // region 0 does not *voluntarily* redirect to it. But region 0
        // overflows its 1 MB/s cap threefold, and the overflow pass must
        // come back to the margin-skipped remote site (with 10 MB/s of
        // room) rather than over-committing the capped local site.
        let s = sites(&[1.0, 0.97], &[1e6, 10e6]);
        let p = plan_global_placement(&[3e6, 0.0], &s, &prices(&s), &FederationPolicy::federated())
            .unwrap();
        assert!(
            (p.assignment[0][0] - 1e6).abs() < 1e-6,
            "local serves exactly its cap: {:?}",
            p.assignment
        );
        assert!((p.assignment[0][1] - 2e6).abs() < 1e-6);
        assert!((p.redirected_bps - 2e6).abs() < 1e-6);
    }

    #[test]
    fn federated_cost_never_exceeds_independent_cost() {
        // While no region overflows its cap, the all-local assignment is
        // feasible and the greedy placement can only improve on it. (Once
        // a cap overflows the comparison is no longer cost-only: the
        // federation pays a transfer premium to buy serving capacity the
        // capped local site physically lacks.)
        let s = paper_sites();
        let policy = FederationPolicy::federated();
        for demands in [
            vec![10e6, 20e6, 55e6],
            vec![50e6, 50e6, 50e6],
            vec![0.0, 0.0, 5e6],
            vec![75e6, 3e6, 1e6],
        ] {
            let fed = plan_global_placement(&demands, &s, &prices(&s), &policy).unwrap();
            let ind =
                plan_global_placement(&demands, &s, &prices(&s), &FederationPolicy::independent())
                    .unwrap();
            assert!(
                fed.estimated_hourly_cost <= ind.estimated_hourly_cost + 1e-9,
                "federated {} > independent {} for {demands:?}",
                fed.estimated_hourly_cost,
                ind.estimated_hourly_cost
            );
            // Conservation per region.
            for (i, &d) in demands.iter().enumerate() {
                let served: f64 = fed.assignment[i].iter().sum();
                assert!((served - d).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let s = paper_sites();
        let policy = FederationPolicy::federated();
        let pr = prices(&s);
        assert!(plan_global_placement(&[1.0], &s, &pr, &policy).is_err());
        assert!(plan_global_placement(&[1.0, 1.0, f64::NAN], &s, &pr, &policy).is_err());
        assert!(plan_global_placement(&[1.0, 1.0, -1.0], &s, &pr, &policy).is_err());
        assert!(plan_global_placement(&[1.0, 1.0, 1.0], &s, &[0.0; 3], &policy).is_err());
        assert!(plan_global_placement(&[1.0, 1.0, 1.0], &s, &pr[..2], &policy).is_err());
        let mut bad = paper_sites();
        bad[0].vm_price_factor = 0.0;
        assert!(plan_global_placement(&[1.0, 1.0, 1.0], &bad, &pr, &policy).is_err());
        let mut bad_policy = FederationPolicy::federated();
        bad_policy.redirect_margin = 1.5;
        assert!(plan_global_placement(&[1.0, 1.0, 1.0], &s, &pr, &bad_policy).is_err());
    }
}
