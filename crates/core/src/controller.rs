//! The dynamic cloud provisioning controller (paper Sec. V-B).
//!
//! Once per interval `T` (one hour in the paper, matching hourly cloud
//! billing), the controller:
//!
//! 1. ingests the tracker's measured statistics (`Λ(c)`, `α`, `P(c)`),
//! 2. predicts next-interval demand (last-interval by default),
//! 3. derives per-chunk equilibrium cloud demand `Δ_i` via the Sec. IV
//!    analysis (client–server or P2P),
//! 4. solves the VM configuration heuristic for VM targets per cluster,
//! 5. re-solves the storage rental heuristic when demand has shifted
//!    significantly since the current placement,
//! 6. emits a [`ProvisioningPlan`] to submit through the cloud broker.

use std::collections::HashMap;

use cloudmedia_cloud::broker::SlaTerms;
use cloudmedia_cloud::scheduler::ChunkKey;
use serde::{Deserialize, Serialize};

use crate::analysis::client_server::ProvisioningTarget;
use crate::analysis::p2p::{cloud_share, validate_classes, PsiEstimator, UploadClass};
use crate::analysis::pass::{ChannelPass, PassScratch};
use crate::analysis::DemandPooling;
use crate::channel::ChannelModel;
use crate::error::{invalid_param, CoreError};
use crate::predictor::{ChannelObservation, DemandPredictor, PredictorKind};
use crate::provisioning::storage::{
    left_join, placement_utility, ChunkDemand, Placement, StorageProblem,
};
use crate::provisioning::vm::{VmPlan, VmProblem};

/// Streaming architecture the controller provisions for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamingMode {
    /// All chunks served by the cloud.
    ClientServer,
    /// Mesh P2P with cloud supplementation.
    P2p {
        /// Mean per-peer upload capacity `u`, bytes per second.
        mean_upload: f64,
        /// Joint-ownership estimator for the Eqn. 5 waterfilling.
        psi: PsiEstimator,
    },
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Provisioning interval `T`, seconds (paper: 3600).
    pub interval_seconds: f64,
    /// VM rental budget `B_M`, dollars per hour (paper: 100).
    pub vm_budget_per_hour: f64,
    /// Storage budget `B_S`, dollars per hour (paper: 1).
    pub storage_budget_per_hour: f64,
    /// Streaming architecture.
    pub mode: StreamingMode,
    /// Streaming playback rate `r`, bytes per second.
    pub streaming_rate: f64,
    /// Chunk playback time `T0`, seconds.
    pub chunk_seconds: f64,
    /// Per-VM bandwidth `R`, bytes per second.
    pub vm_bandwidth: f64,
    /// Relative L1 demand shift above which the storage placement is
    /// recomputed (paper: recompute "if the demand for chunks has changed
    /// significantly").
    pub placement_refresh_threshold: f64,
    /// Multiplier applied to every chunk demand before provisioning
    /// (1.0 = provision exactly the equilibrium demand).
    pub safety_factor: f64,
    /// Demand pooling model (see [`DemandPooling`]).
    pub pooling: DemandPooling,
    /// Minimum cloud reserve in P2P mode, as a fraction of each chunk's
    /// baseline (peer-less) capacity demand. Guards against the analytic
    /// peer contribution being optimistic right at supply/demand parity,
    /// where `Δ_i` would otherwise vanish and leave no fallback for
    /// replica-thin chunks or estimation error. The paper's own P2P
    /// reservations (Fig. 4) never approach zero.
    pub p2p_cloud_floor: f64,
    /// Retrieval-time guarantee used when sizing capacity (the paper's
    /// mean-sojourn criterion, or the tail-aware quantile extension).
    pub target: ProvisioningTarget,
    /// What to do when the VM budget cannot cover the derived demand.
    pub budget_policy: BudgetPolicy,
    /// Optional heterogeneous peer upload classes; when set (P2P mode),
    /// the waterfilling uses the per-class analysis instead of the single
    /// mean upload.
    pub upload_classes: Option<Vec<UploadClass>>,
}

/// Behaviour when the derived demand exceeds the VM budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BudgetPolicy {
    /// The paper's behaviour: fail with the required budget so the
    /// provider can raise it.
    #[default]
    Strict,
    /// Degrade gracefully: scale every chunk's demand down uniformly
    /// until the cheapest assignment fits the budget, trading streaming
    /// quality for a hard cost cap.
    BestEffort,
}

impl ControllerConfig {
    /// The paper's experimental configuration for the given mode.
    pub fn paper_default(mode: StreamingMode) -> Self {
        Self {
            interval_seconds: 3600.0,
            vm_budget_per_hour: 100.0,
            storage_budget_per_hour: 1.0,
            mode,
            streaming_rate: 50_000.0,
            chunk_seconds: 300.0,
            vm_bandwidth: 10e6 / 8.0,
            placement_refresh_threshold: 0.2,
            safety_factor: 1.0,
            pooling: DemandPooling::ChannelPooled,
            p2p_cloud_floor: 0.15,
            target: ProvisioningTarget::MeanSojourn,
            budget_policy: BudgetPolicy::Strict,
            upload_classes: None,
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.interval_seconds.is_finite() && self.interval_seconds > 0.0) {
            return Err(invalid_param("interval_seconds", "must be positive"));
        }
        if !(self.safety_factor.is_finite() && self.safety_factor > 0.0) {
            return Err(invalid_param("safety_factor", "must be positive"));
        }
        if !(self.placement_refresh_threshold.is_finite()
            && self.placement_refresh_threshold >= 0.0)
        {
            return Err(invalid_param(
                "placement_refresh_threshold",
                "must be non-negative",
            ));
        }
        if let StreamingMode::P2p { mean_upload, .. } = self.mode {
            if !(mean_upload.is_finite() && mean_upload >= 0.0) {
                return Err(invalid_param("mean_upload", "must be non-negative"));
            }
        }
        if !(self.p2p_cloud_floor.is_finite() && (0.0..=1.0).contains(&self.p2p_cloud_floor)) {
            return Err(invalid_param("p2p_cloud_floor", "must be in [0, 1]"));
        }
        Ok(())
    }
}

/// The plan the controller sends to the cloud for the next interval.
#[derive(Debug, Clone)]
pub struct ProvisioningPlan {
    /// Target VM counts per virtual cluster.
    pub vm_targets: Vec<usize>,
    /// New chunk placement, or `None` when the existing one is kept.
    pub placement: Option<Placement>,
    /// The per-chunk cloud demands `Δ_i` (after the safety factor), in
    /// chunk-key order.
    pub chunk_demands: Vec<ChunkDemand>,
    /// Total cloud demand, bytes per second.
    pub total_cloud_demand: f64,
    /// Expected peer contribution, bytes per second (zero in C/S mode).
    pub expected_peer_contribution: f64,
    /// The solved VM configuration.
    pub vm_plan: VmPlan,
    /// Aggregate storage utility of the (possibly retained) placement.
    pub storage_utility: f64,
}

/// The dynamic provisioning controller.
///
/// Besides its prediction and placement state, it keeps the buffers one
/// interval works in — a model per channel, the analysis pass's scratch,
/// the channel list — so a steady-state interval allocates little beyond
/// the plan it returns.
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    predictor: DemandPredictor,
    /// The storage placement in force, in key order.
    placement: Option<Placement>,
    /// The chunk demands the placement in force was solved for, in key
    /// order.
    placement_demands: Vec<ChunkDemand>,
    /// One model per planned channel, refreshed from its prediction.
    models: HashMap<usize, ChannelModel>,
    /// The buffers every channel's analysis pass works in.
    pass: PassScratch,
    /// The channels planned this interval.
    channels: Vec<usize>,
}

impl Controller {
    /// Creates a controller with the given prediction strategy.
    ///
    /// # Errors
    ///
    /// Propagates configuration and predictor validation failures.
    pub fn new(config: ControllerConfig, predictor: PredictorKind) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Self {
            config,
            predictor: DemandPredictor::new(predictor)?,
            placement: None,
            placement_demands: Vec::new(),
            models: HashMap::new(),
            pass: PassScratch::default(),
            channels: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Scales the VM rental budget `B_M` by `factor` — the mid-run
    /// budget-cut (or raise) shock of the fault plane. Prediction and
    /// placement state carry over, so the next interval re-optimizes the
    /// same demand under the new budget.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive factors.
    pub fn scale_vm_budget(&mut self, factor: f64) -> Result<(), CoreError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(invalid_param("factor", "must be positive"));
        }
        self.config.vm_budget_per_hour *= factor;
        Ok(())
    }

    /// Runs one provisioning interval: ingest measured stats, predict,
    /// analyze, optimize. `stats` carries one entry per channel (channels
    /// with no entry reuse their previous prediction).
    ///
    /// # Errors
    ///
    /// Propagates analysis and optimization failures, including the
    /// paper's infeasible-budget signal.
    pub fn plan_interval(
        &mut self,
        stats: &[(usize, ChannelObservation)],
        sla: &SlaTerms,
    ) -> Result<ProvisioningPlan, CoreError> {
        for (channel, obs) in stats {
            self.predictor.observe(*channel, obs);
        }
        // Channels we have ever observed, in stable order.
        self.channels.clear();
        self.channels.extend(stats.iter().map(|(c, _)| *c));
        self.channels.extend(
            self.placement_demands
                .chunk_by(|a, b| a.key.channel == b.key.channel)
                .map(|run| run[0].key.channel),
        );
        self.channels.sort_unstable();
        self.channels.dedup();

        // The last placement's chunk count is the usual plan size.
        let mut chunk_demands: Vec<ChunkDemand> = Vec::with_capacity(self.placement_demands.len());
        let mut total_cloud = 0.0;
        let mut total_peer = 0.0;
        for &channel in &self.channels {
            let Some(predicted) = self.predictor.predict(channel) else {
                continue;
            };
            let model = self.models.entry(channel).or_insert_with(|| ChannelModel {
                id: channel,
                streaming_rate: self.config.streaming_rate,
                chunk_seconds: self.config.chunk_seconds,
                vm_bandwidth: self.config.vm_bandwidth,
                arrival_rate: 0.0,
                alpha: 0.0,
                routing: Vec::new(),
            });
            model.arrival_rate = predicted.arrival_rate;
            model.alpha = predicted.alpha;
            model.routing.clone_from(&predicted.routing);
            // One analysis pass per channel: the peer supply and the
            // baseline it offsets both read one solve of the traffic
            // equations.
            let (pooling, target) = (self.config.pooling, self.config.target);
            let safety = self.config.safety_factor;
            let mut push = |chunk, demand: f64| {
                let scaled = demand * safety;
                total_cloud += scaled;
                chunk_demands.push(ChunkDemand {
                    key: ChunkKey { channel, chunk },
                    demand: scaled,
                });
            };
            match self.config.mode {
                StreamingMode::ClientServer => {
                    ChannelPass::new(model, false, &mut self.pass)?.baseline(pooling, target)?;
                    for (chunk, &demand) in self.pass.demand.upload_demand.iter().enumerate() {
                        push(chunk, demand);
                    }
                }
                StreamingMode::P2p { mean_upload, psi } => {
                    let mean = [UploadClass {
                        share: 1.0,
                        upload: mean_upload,
                    }];
                    let classes = self.config.upload_classes.as_deref().unwrap_or(&mean);
                    validate_classes(classes)?;
                    let mut pass = ChannelPass::new(model, true, &mut self.pass)?;
                    total_peer += pass
                        .peer_supply(classes, psi)?
                        .contribution
                        .iter()
                        .sum::<f64>();
                    pass.baseline(pooling, target)?;
                    let scratch = &self.pass;
                    // Enforce the minimum fallback reserve per chunk.
                    let floor = self.config.p2p_cloud_floor;
                    for (chunk, (&b, &g)) in scratch
                        .demand
                        .upload_demand
                        .iter()
                        .zip(&scratch.supply.contribution)
                        .enumerate()
                    {
                        push(chunk, cloud_share(b, g).max(floor * b));
                    }
                }
            }
        }

        // VM configuration (Sec. V-A.2).
        let vm_plan = {
            let vm_problem = VmProblem {
                demands: &chunk_demands,
                clusters: &sla.virtual_clusters,
                budget_per_hour: self.config.vm_budget_per_hour,
            };
            match vm_problem.greedy() {
                Ok(plan) => plan,
                Err(CoreError::Infeasible {
                    required_budget,
                    configured_budget,
                    ..
                }) if self.config.budget_policy == BudgetPolicy::BestEffort
                    && required_budget > 0.0 =>
                {
                    // Degrade uniformly to fit the budget (small headroom
                    // below the exact ratio absorbs rounding).
                    let scale = (configured_budget / required_budget) * 0.999;
                    for d in &mut chunk_demands {
                        d.demand *= scale;
                    }
                    total_cloud *= scale;
                    let scaled = VmProblem {
                        demands: &chunk_demands,
                        clusters: &sla.virtual_clusters,
                        budget_per_hour: self.config.vm_budget_per_hour,
                    };
                    scaled.greedy()?
                }
                Err(e) => return Err(e),
            }
        };

        // Storage rental (Sec. V-A.1): recompute on first run or when the
        // demand profile shifted beyond the threshold.
        let needs_refresh = match &self.placement {
            None => true,
            Some(placement) => {
                // New chunks (new videos) force a re-placement.
                left_join(&chunk_demands, placement).any(|(_, placed)| placed.is_none())
                    || demand_shift(&self.placement_demands, &chunk_demands)
                        > self.config.placement_refresh_threshold
            }
        };
        let chunk_bytes = (self.config.streaming_rate * self.config.chunk_seconds) as u64;
        let placement_out = if needs_refresh {
            let storage_problem = StorageProblem {
                demands: &chunk_demands,
                clusters: &sla.nfs_clusters,
                chunk_bytes,
                budget_per_hour: self.config.storage_budget_per_hour,
            };
            let plan = storage_problem.greedy()?;
            self.placement
                .get_or_insert_with(Vec::new)
                .clone_from(&plan.placement);
            self.placement_demands.clone_from(&chunk_demands);
            Some(plan.placement)
        } else {
            None
        };

        let storage_utility = self
            .placement
            .as_ref()
            .map(|p| placement_utility(p, &sla.nfs_clusters, &chunk_demands))
            .unwrap_or(0.0);

        Ok(ProvisioningPlan {
            vm_targets: vm_plan.vm_targets.clone(),
            placement: placement_out,
            chunk_demands,
            total_cloud_demand: total_cloud,
            expected_peer_contribution: total_peer,
            vm_plan,
            storage_utility,
        })
    }
}

/// Relative L1 shift between two key-ordered demand lists: the old
/// entries in key order, then the new chunks the old list lacks.
fn demand_shift(old: &[ChunkDemand], new: &[ChunkDemand]) -> f64 {
    let mut diff = 0.0;
    let mut base = 0.0;
    for (o, n) in left_join(old, new) {
        diff += (o.demand - n.map_or(0.0, |n| n.demand)).abs();
        base += o.demand;
    }
    for (n, o) in left_join(new, old) {
        if o.is_none() {
            diff += n.demand;
        }
    }
    if base <= 0.0 {
        return if diff > 0.0 { f64::INFINITY } else { 0.0 };
    }
    diff / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
    use cloudmedia_queueing::QueueingError;

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

    fn controller(mode: StreamingMode) -> Controller {
        Controller::new(
            ControllerConfig::paper_default(mode),
            PredictorKind::LastInterval,
        )
        .unwrap()
    }

    #[test]
    fn first_interval_produces_full_plan() {
        let mut c = controller(StreamingMode::ClientServer);
        let plan = c.plan_interval(&[(0, observation(0.3))], &sla()).unwrap();
        assert!(plan.placement.is_some(), "first interval places storage");
        assert!(plan.vm_targets.iter().sum::<usize>() > 0);
        assert!(plan.total_cloud_demand > 0.0);
        assert_eq!(plan.expected_peer_contribution, 0.0);
    }

    #[test]
    fn p2p_mode_needs_less_cloud() {
        let mut cs = controller(StreamingMode::ClientServer);
        let mut p2p = controller(StreamingMode::P2p {
            mean_upload: 60_000.0,
            psi: PsiEstimator::Independent,
        });
        let cs_plan = cs.plan_interval(&[(0, observation(0.4))], &sla()).unwrap();
        let p2p_plan = p2p.plan_interval(&[(0, observation(0.4))], &sla()).unwrap();
        assert!(p2p_plan.total_cloud_demand < cs_plan.total_cloud_demand);
        assert!(p2p_plan.expected_peer_contribution > 0.0);
        assert!(
            p2p_plan.vm_plan.integer_hourly_cost < cs_plan.vm_plan.integer_hourly_cost,
            "P2P rents fewer VM dollars"
        );
    }

    #[test]
    fn stable_demand_keeps_placement() {
        let mut c = controller(StreamingMode::ClientServer);
        let p1 = c.plan_interval(&[(0, observation(0.3))], &sla()).unwrap();
        assert!(p1.placement.is_some());
        let p2 = c.plan_interval(&[(0, observation(0.3))], &sla()).unwrap();
        assert!(p2.placement.is_none(), "identical demand: no re-placement");
        assert!(p2.storage_utility > 0.0, "utility still evaluated");
    }

    #[test]
    fn large_demand_shift_triggers_replacement() {
        let mut c = controller(StreamingMode::ClientServer);
        c.plan_interval(&[(0, observation(0.2))], &sla()).unwrap();
        let p2 = c.plan_interval(&[(0, observation(1.2))], &sla()).unwrap();
        assert!(p2.placement.is_some(), "6x demand shift re-places storage");
    }

    #[test]
    fn new_channel_forces_replacement() {
        let mut c = controller(StreamingMode::ClientServer);
        c.plan_interval(&[(0, observation(0.3))], &sla()).unwrap();
        let mut obs1 = observation(0.3);
        obs1.arrival_rate = 0.3;
        let p2 = c
            .plan_interval(&[(0, observation(0.3)), (1, obs1)], &sla())
            .unwrap();
        assert!(p2.placement.is_some(), "new video deployed: re-place");
        let placement = p2.placement.unwrap();
        assert!(placement.iter().any(|(k, _)| k.channel == 1));
    }

    #[test]
    fn vm_targets_track_demand_up_and_down() {
        let mut c = controller(StreamingMode::ClientServer);
        let low = c.plan_interval(&[(0, observation(0.1))], &sla()).unwrap();
        let high = c.plan_interval(&[(0, observation(1.0))], &sla()).unwrap();
        let low2 = c.plan_interval(&[(0, observation(0.1))], &sla()).unwrap();
        let sum = |p: &ProvisioningPlan| p.vm_targets.iter().sum::<usize>();
        assert!(sum(&high) > sum(&low));
        assert_eq!(sum(&low2), sum(&low), "scaling back down is symmetric");
    }

    #[test]
    fn channel_without_new_stats_reuses_prediction() {
        let mut c = controller(StreamingMode::ClientServer);
        let p1 = c.plan_interval(&[(0, observation(0.5))], &sla()).unwrap();
        // Next interval reports nothing for channel 0; demand persists.
        let p2 = c.plan_interval(&[], &sla()).unwrap();
        assert!((p2.total_cloud_demand - p1.total_cloud_demand).abs() < 1e-6);
    }

    #[test]
    fn safety_factor_scales_demand() {
        let mut base = controller(StreamingMode::ClientServer);
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.safety_factor = 1.5;
        let mut padded = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let p_base = base
            .plan_interval(&[(0, observation(0.4))], &sla())
            .unwrap();
        let p_padded = padded
            .plan_interval(&[(0, observation(0.4))], &sla())
            .unwrap();
        assert!((p_padded.total_cloud_demand - 1.5 * p_base.total_cloud_demand).abs() < 1e-6);
    }

    #[test]
    fn best_effort_policy_degrades_instead_of_failing() {
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.vm_budget_per_hour = 10.0;
        cfg.budget_policy = BudgetPolicy::BestEffort;
        let mut c = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let plan = c.plan_interval(&[(0, observation(1.0))], &sla()).unwrap();
        assert!(
            plan.vm_plan.integer_hourly_cost <= 10.0 + 0.81,
            "cost capped (one VM of slack)"
        );
        assert!(plan.total_cloud_demand > 0.0, "still provisions something");

        // Strict policy with the same inputs fails.
        let mut strict_cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        strict_cfg.vm_budget_per_hour = 10.0;
        let mut strict = Controller::new(strict_cfg, PredictorKind::LastInterval).unwrap();
        assert!(strict
            .plan_interval(&[(0, observation(1.0))], &sla())
            .is_err());
    }

    #[test]
    fn best_effort_with_sufficient_budget_changes_nothing() {
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.budget_policy = BudgetPolicy::BestEffort;
        let mut best = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let mut strict = controller(StreamingMode::ClientServer);
        let a = best
            .plan_interval(&[(0, observation(0.3))], &sla())
            .unwrap();
        let b = strict
            .plan_interval(&[(0, observation(0.3))], &sla())
            .unwrap();
        assert_eq!(a.vm_targets, b.vm_targets);
        assert!((a.total_cloud_demand - b.total_cloud_demand).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget_is_surfaced() {
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.vm_budget_per_hour = 0.01;
        let mut c = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let err = c
            .plan_interval(&[(0, observation(1.0))], &sla())
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
    }

    #[test]
    fn upload_classes_override_mean_upload() {
        // Single class identical to the mean: same plan.
        let mut cfg = ControllerConfig::paper_default(StreamingMode::P2p {
            mean_upload: 34_000.0,
            psi: PsiEstimator::Independent,
        });
        cfg.upload_classes = Some(vec![UploadClass {
            share: 1.0,
            upload: 34_000.0,
        }]);
        let mut hetero = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let mut homo = controller(StreamingMode::P2p {
            mean_upload: 34_000.0,
            psi: PsiEstimator::Independent,
        });
        let a = hetero
            .plan_interval(&[(0, observation(0.3))], &sla())
            .unwrap();
        let b = homo
            .plan_interval(&[(0, observation(0.3))], &sla())
            .unwrap();
        assert!((a.total_cloud_demand - b.total_cloud_demand).abs() < 1e-6);

        // A poorer class mix needs more cloud.
        let mut poor_cfg = ControllerConfig::paper_default(StreamingMode::P2p {
            mean_upload: 34_000.0,
            psi: PsiEstimator::Independent,
        });
        poor_cfg.upload_classes = Some(vec![
            UploadClass {
                share: 0.9,
                upload: 10_000.0,
            },
            UploadClass {
                share: 0.1,
                upload: 34_000.0,
            },
        ]);
        let mut poor = Controller::new(poor_cfg, PredictorKind::LastInterval).unwrap();
        let c = poor
            .plan_interval(&[(0, observation(0.3))], &sla())
            .unwrap();
        assert!(c.total_cloud_demand > b.total_cloud_demand);
    }

    #[test]
    fn budget_shock_shrinks_the_plan() {
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.budget_policy = BudgetPolicy::BestEffort;
        let mut c = Controller::new(cfg, PredictorKind::LastInterval).unwrap();
        let before = c.plan_interval(&[(0, observation(1.0))], &sla()).unwrap();
        // Cut the budget 10x: best-effort now degrades the same demand.
        c.scale_vm_budget(0.1).unwrap();
        let after = c.plan_interval(&[(0, observation(1.0))], &sla()).unwrap();
        assert!(after.vm_plan.integer_hourly_cost < before.vm_plan.integer_hourly_cost);
        assert!(c.scale_vm_budget(0.0).is_err());
        assert!(c.scale_vm_budget(f64::NAN).is_err());
    }

    #[test]
    fn recirculating_routing_is_a_singular_system() {
        // Viewers who never leave make M = I − Pᵀ singular: both modes
        // report the traffic equations' pivot failure, not a plan.
        for mode in [
            StreamingMode::ClientServer,
            StreamingMode::P2p {
                mean_upload: 34_000.0,
                psi: PsiEstimator::Independent,
            },
        ] {
            let obs = ChannelObservation {
                arrival_rate: 0.3,
                alpha: 0.7,
                routing: vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            };
            let err = controller(mode)
                .plan_interval(&[(0, obs)], &sla())
                .unwrap_err();
            assert_eq!(
                err,
                CoreError::Queueing(QueueingError::SingularSystem { column: 1 })
            );
        }
    }

    #[test]
    fn demand_shift_metric() {
        let demand = |chunk, demand| ChunkDemand {
            key: ChunkKey { channel: 0, chunk },
            demand,
        };
        let a = vec![demand(0, 10.0)];
        assert_eq!(demand_shift(&a, &a), 0.0);
        let b = vec![demand(0, 15.0)];
        assert!((demand_shift(&a, &b) - 0.5).abs() < 1e-12);
        let b = vec![demand(0, 15.0), demand(1, 10.0)];
        assert!((demand_shift(&a, &b) - 1.5).abs() < 1e-12);
        // A chunk the new list lacks counts its whole old demand.
        assert!((demand_shift(&b, &a) - 15.0 / 25.0).abs() < 1e-12);
        assert_eq!(demand_shift(&[], &b), f64::INFINITY);
        assert_eq!(demand_shift(&[], &[]), 0.0);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.interval_seconds = 0.0;
        assert!(Controller::new(cfg, PredictorKind::LastInterval).is_err());
        let mut cfg = ControllerConfig::paper_default(StreamingMode::ClientServer);
        cfg.safety_factor = 0.0;
        assert!(Controller::new(cfg, PredictorKind::LastInterval).is_err());
        let cfg = ControllerConfig::paper_default(StreamingMode::P2p {
            mean_upload: -5.0,
            psi: PsiEstimator::Independent,
        });
        assert!(Controller::new(cfg, PredictorKind::LastInterval).is_err());
    }
}
