//! Multi-region provisioning — the paper's stated future work ("we are
//! expanding to cloud systems spanning different geographic locations").
//!
//! Each region hosts its own cloud site (clusters, prices, SLAs) and its
//! own viewer base whose diurnal pattern follows *local* time; a
//! [`GeoController`] runs one per-region provisioning controller and
//! aggregates the plans. The interesting phenomenon this exposes is
//! *time-zone multiplexing*: summed across offset time zones the global
//! demand curve is much flatter than any single region's, so one
//! centralized site can be provisioned closer to the mean — at the price
//! of serving most viewers from a remote region. The
//! `ext_multi_region` bench quantifies that trade.

use cloudmedia_cloud::broker::SlaTerms;
use serde::{Deserialize, Serialize};

use crate::controller::{Controller, ControllerConfig, ProvisioningPlan};
use crate::error::{invalid_param, CoreError};
use crate::predictor::{ChannelObservation, PredictorKind};

/// A geographic region: its share of the viewer base and its clock.
///
/// ```
/// use cloudmedia_core::geo::{three_sites, RegionSpec};
///
/// let apac = RegionSpec {
///     name: "apac".into(),
///     population_share: 0.25,
///     timezone_offset_hours: 14.0,
/// };
/// assert_eq!(three_sites()[2], apac);
/// // Shares across a deployment must sum to ~1.
/// let total: f64 = three_sites().iter().map(|r| r.population_share).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Display name (e.g. "us-east").
    pub name: String,
    /// Share of the global viewer population in `(0, 1]`; shares across a
    /// deployment should sum to 1.
    pub population_share: f64,
    /// Time-zone offset in hours relative to the reference region. Flash
    /// crowds happen in *local* evening time, so offsets de-correlate the
    /// regions' demand peaks.
    pub timezone_offset_hours: f64,
}

impl RegionSpec {
    fn validate(&self) -> Result<(), CoreError> {
        if !(self.population_share > 0.0 && self.population_share <= 1.0) {
            return Err(invalid_param(
                "population_share",
                format!("must be in (0, 1], got {}", self.population_share),
            ));
        }
        if !self.timezone_offset_hours.is_finite() {
            return Err(invalid_param("timezone_offset_hours", "must be finite"));
        }
        Ok(())
    }
}

/// Tolerance on the deployment-wide population-share sum.
const SHARE_SUM_TOLERANCE: f64 = 1e-3;

/// Validates a deployment's region list: at least one region, each
/// region individually valid, and the population shares summing to ~1
/// (a deployment that covers 80 % of its viewers — or 120 % — is a
/// configuration bug, not a smaller system). Shared by [`GeoController`]
/// and the federated simulator.
///
/// # Errors
///
/// Names the offending region or the off-by share sum.
pub fn validate_regions(regions: &[RegionSpec]) -> Result<(), CoreError> {
    if regions.is_empty() {
        return Err(invalid_param("regions", "at least one region required"));
    }
    for r in regions {
        r.validate()?;
    }
    let total: f64 = regions.iter().map(|r| r.population_share).sum();
    if (total - 1.0).abs() > SHARE_SUM_TOLERANCE {
        return Err(invalid_param(
            "population_share",
            format!("shares across the deployment must sum to ~1.0, got {total}"),
        ));
    }
    Ok(())
}

/// The classic three-site deployment: Americas, Europe, Asia-Pacific.
pub fn three_sites() -> Vec<RegionSpec> {
    vec![
        RegionSpec {
            name: "americas".into(),
            population_share: 0.40,
            timezone_offset_hours: 0.0,
        },
        RegionSpec {
            name: "europe".into(),
            population_share: 0.35,
            timezone_offset_hours: 7.0,
        },
        RegionSpec {
            name: "apac".into(),
            population_share: 0.25,
            timezone_offset_hours: 14.0,
        },
    ]
}

/// Aggregated outcome of one geo provisioning interval.
#[derive(Debug, Clone)]
pub struct GeoPlan {
    /// One plan per region, in region order.
    pub per_region: Vec<ProvisioningPlan>,
    /// Total VM rental cost across regions, dollars per hour.
    pub total_hourly_cost: f64,
    /// Total cloud demand across regions, bytes per second.
    pub total_cloud_demand: f64,
}

/// One provisioning controller per region, fed region-local statistics.
#[derive(Debug)]
pub struct GeoController {
    regions: Vec<RegionSpec>,
    controllers: Vec<Controller>,
}

impl GeoController {
    /// Creates a controller per region from a shared configuration. Each
    /// region receives the full VM/storage budget (sites are independent
    /// accounts).
    ///
    /// # Errors
    ///
    /// Propagates region and configuration validation failures,
    /// including population shares not summing to ~1 across the
    /// deployment.
    pub fn new(
        config: ControllerConfig,
        predictor: PredictorKind,
        regions: Vec<RegionSpec>,
    ) -> Result<Self, CoreError> {
        validate_regions(&regions)?;
        let controllers = regions
            .iter()
            .map(|_| Controller::new(config.clone(), predictor))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            regions,
            controllers,
        })
    }

    /// The regions, in plan order.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// Plans one interval: `stats[k]` carries region `k`'s measured
    /// channel statistics, `slas[k]` its site's SLA terms.
    ///
    /// # Errors
    ///
    /// Fails on dimension mismatch or any regional planning failure (the
    /// error names the paper's budget/feasibility signals).
    pub fn plan_interval(
        &mut self,
        stats: &[Vec<(usize, ChannelObservation)>],
        slas: &[SlaTerms],
    ) -> Result<GeoPlan, CoreError> {
        if stats.len() != self.regions.len() || slas.len() != self.regions.len() {
            return Err(invalid_param(
                "stats",
                format!(
                    "expected {} regions, got {} stats / {} slas",
                    self.regions.len(),
                    stats.len(),
                    slas.len()
                ),
            ));
        }
        let mut per_region = Vec::with_capacity(self.regions.len());
        for ((controller, region_stats), sla) in self.controllers.iter_mut().zip(stats).zip(slas) {
            per_region.push(controller.plan_interval(region_stats, sla)?);
        }
        let total_hourly_cost = per_region
            .iter()
            .map(|p| p.vm_plan.integer_hourly_cost)
            .sum();
        let total_cloud_demand = per_region.iter().map(|p| p.total_cloud_demand).sum();
        Ok(GeoPlan {
            per_region,
            total_hourly_cost,
            total_cloud_demand,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use crate::controller::StreamingMode;
    use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};

    fn sla() -> SlaTerms {
        SlaTerms {
            virtual_clusters: paper_virtual_clusters(),
            nfs_clusters: paper_nfs_clusters(),
        }
    }

    fn observation(rate: f64) -> ChannelObservation {
        let model = ChannelModel::paper_default(0, rate);
        ChannelObservation {
            arrival_rate: rate,
            alpha: model.alpha,
            routing: model.routing,
        }
    }

    fn geo() -> GeoController {
        GeoController::new(
            ControllerConfig::paper_default(StreamingMode::ClientServer),
            PredictorKind::LastInterval,
            three_sites(),
        )
        .unwrap()
    }

    #[test]
    fn three_sites_cover_the_population() {
        let total: f64 = three_sites().iter().map(|r| r.population_share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_region_plans_track_per_region_demand() {
        let mut g = geo();
        let slas = vec![sla(), sla(), sla()];
        let stats = vec![
            vec![(0, observation(0.4))], // americas at evening peak
            vec![(0, observation(0.1))], // europe at night
            vec![(0, observation(0.05))],
        ];
        let plan = g.plan_interval(&stats, &slas).unwrap();
        assert_eq!(plan.per_region.len(), 3);
        let d: Vec<f64> = plan
            .per_region
            .iter()
            .map(|p| p.total_cloud_demand)
            .collect();
        assert!(
            d[0] > d[1] && d[1] > d[2],
            "demand order follows load: {d:?}"
        );
        assert!((plan.total_cloud_demand - d.iter().sum::<f64>()).abs() < 1e-9);
        assert!(plan.total_hourly_cost > 0.0);
    }

    #[test]
    fn regions_plan_independently_across_intervals() {
        let mut g = geo();
        let slas = vec![sla(), sla(), sla()];
        g.plan_interval(
            &[
                vec![(0, observation(0.3))],
                vec![(0, observation(0.3))],
                vec![(0, observation(0.3))],
            ],
            &slas,
        )
        .unwrap();
        // Region 1 quiets down; only its plan shrinks.
        let plan = g
            .plan_interval(
                &[
                    vec![(0, observation(0.3))],
                    vec![(0, observation(0.05))],
                    vec![(0, observation(0.3))],
                ],
                &slas,
            )
            .unwrap();
        assert!(plan.per_region[1].total_cloud_demand < plan.per_region[0].total_cloud_demand);
        assert!(
            (plan.per_region[0].total_cloud_demand - plan.per_region[2].total_cloud_demand).abs()
                < 1e-6
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut g = geo();
        let slas = vec![sla()];
        assert!(g.plan_interval(&[], &slas).is_err());
    }

    #[test]
    fn shares_not_summing_to_one_rejected() {
        // Two regions covering only 60 % of the population: a deployment
        // bug the per-region checks used to miss.
        let partial = vec![
            RegionSpec {
                name: "a".into(),
                population_share: 0.4,
                timezone_offset_hours: 0.0,
            },
            RegionSpec {
                name: "b".into(),
                population_share: 0.2,
                timezone_offset_hours: 7.0,
            },
        ];
        let err = GeoController::new(
            ControllerConfig::paper_default(StreamingMode::ClientServer),
            PredictorKind::LastInterval,
            partial,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("sum to ~1.0"),
            "expected share-sum error, got: {err}"
        );
        // Over-covered deployments fail too.
        let over = vec![
            RegionSpec {
                name: "a".into(),
                population_share: 0.8,
                timezone_offset_hours: 0.0,
            },
            RegionSpec {
                name: "b".into(),
                population_share: 0.8,
                timezone_offset_hours: 7.0,
            },
        ];
        assert!(validate_regions(&over).is_err());
        // A single full-coverage region (the central deployment) passes.
        assert!(validate_regions(&[RegionSpec {
            name: "central".into(),
            population_share: 1.0,
            timezone_offset_hours: 0.0,
        }])
        .is_ok());
    }

    #[test]
    fn invalid_regions_rejected() {
        let bad = vec![RegionSpec {
            name: "x".into(),
            population_share: 0.0,
            timezone_offset_hours: 0.0,
        }];
        assert!(GeoController::new(
            ControllerConfig::paper_default(StreamingMode::ClientServer),
            PredictorKind::LastInterval,
            bad,
        )
        .is_err());
        assert!(GeoController::new(
            ControllerConfig::paper_default(StreamingMode::ClientServer),
            PredictorKind::LastInterval,
            vec![],
        )
        .is_err());
    }
}
