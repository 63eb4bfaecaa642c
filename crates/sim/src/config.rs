//! Simulation configuration.

use cloudmedia_core::analysis::{ProvisioningTarget, PsiEstimator};
use cloudmedia_core::baseline::ProvisionerKind;
use cloudmedia_core::controller::StreamingMode;
use cloudmedia_core::predictor::PredictorKind;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::distributions::BoundedPareto;
use cloudmedia_workload::trace::TraceConfig;
use serde::{Deserialize, Serialize};

use crate::error::{invalid_param, SimError};
use crate::faults::FaultSchedule;

/// Which streaming architecture the simulated system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimMode {
    /// All chunks come from cloud VMs.
    ClientServer,
    /// Mesh P2P with rarest-first peer scheduling and cloud fallback.
    P2p,
}

/// Which simulation model drives the run.
///
/// The *round* model (`Indexed`) runs on the segment driver, one shard
/// per channel, each channel with its own arrival sub-stream and
/// behaviour RNG stream. Config files that name the removed `Sharded`
/// or `Scan` kernels load as `Indexed`, which runs their results bit
/// for bit; the reference round engine stays as the tests' oracle
/// ([`crate::Simulator::run_reference`]). The *event-driven* engine is
/// a different microscopic model on the `cloudmedia-des` kernel: it
/// agrees with the round model in steady-state means (see
/// [`crate::event_driven`] for the tolerance argument) and additionally
/// models per-request admission latency, VM boot delay, and failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SimKernel {
    /// The round engine: per-channel download cohorts (one record per
    /// group of downloads that advance in lockstep),
    /// incrementally-tracked chunk-owner counts and supply aggregates,
    /// fused single-pass per-channel aggregation into reusable scratch,
    /// and mask-sparse in-place allocation kernels. Large sites fan
    /// their channel shards out over the rayon pool (see
    /// [`SimConfig::parallel_channels`]).
    #[default]
    Indexed,
    /// Event-driven engine on the deterministic DES kernel: components
    /// (viewer sessions, admission, provisioner) exchange timestamped
    /// events instead of being scanned per round, which adds per-request
    /// latency, VM boot/teardown delay, failure injection, and
    /// sub-round-timed flash crowds to the scenario space.
    EventDriven,
}

/// Full configuration of one simulation run.
///
/// `Deserialize` is implemented by hand (the vendored derive has no
/// `#[serde(default)]`): fields added after config files were in the
/// wild are optional, unknown keys are ignored (a `"scheduler"` written
/// before the event-driven engine's queue choice was removed still
/// loads), and a `"kernel"` of `"Sharded"` or `"Scan"`, written before
/// those kernels left the configuration, loads as
/// [`SimKernel::Indexed`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimConfig {
    /// Channel catalog (popularity, viewing models, arrival rates).
    pub catalog: Catalog,
    /// Trace generation settings (horizon, diurnal profile, uploads, seed).
    pub trace: TraceConfig,
    /// Streaming architecture.
    pub mode: SimMode,
    /// Provisioning interval `T`, seconds.
    pub provisioning_interval: f64,
    /// VM rental budget `B_M`, dollars per hour.
    pub vm_budget_per_hour: f64,
    /// Storage budget `B_S`, dollars per hour.
    pub storage_budget_per_hour: f64,
    /// Demand predictor used by the controller.
    pub predictor: PredictorKind,
    /// Joint-ownership estimator for P2P analysis.
    pub psi: PsiEstimator,
    /// Retrieval-time guarantee used when sizing capacity.
    pub provisioning_target: ProvisioningTarget,
    /// Provisioning strategy: the paper's model-driven controller or a
    /// baseline (reactive autoscaler / fixed dedicated fleet).
    pub provisioner: ProvisionerKind,
    /// Provisioning safety factor (1.0 = provision the raw equilibrium
    /// demand).
    pub safety_factor: f64,
    /// Fluid allocation round, seconds.
    pub round_seconds: f64,
    /// Metrics sampling interval, seconds (paper's quality window: 5 min).
    pub sample_interval: f64,
    /// RNG seed for viewer behaviour inside the simulator.
    pub behaviour_seed: u64,
    /// Streaming playback rate `r`, bytes per second.
    pub streaming_rate: f64,
    /// Chunk playback time `T0`, seconds.
    pub chunk_seconds: f64,
    /// Fraction of peers' upload capacity usable per round in P2P mode,
    /// in `(0, 1]`. Models mesh friction the fluid allocator does not see
    /// — stale buffer maps, neighbor fan-out limits, request pipelining
    /// gaps.
    pub peer_efficiency: f64,
    /// Simulation model: the round engine or the event-driven model.
    pub kernel: SimKernel,
    /// Let the segment driver fan its channel shards across the rayon
    /// worker pool (default): a site's shards once it holds at least
    /// 5,000 connected viewers (a measured threshold; smaller sites step
    /// as one task, and a segment of one task runs inline), and in a
    /// federated run (as `FederatedConfig::base`) every region plus the
    /// regions' controller plans. Shards never share an accumulator
    /// inside a segment of rounds and every cross-shard coupling
    /// (provisioning, the online scale, metric assembly) happens at
    /// synchronization barriers in fixed shard order, so serial and
    /// parallel execution are **bit-identical**. Disable to force
    /// serial stepping (debugging, single-core baselines); the
    /// event-driven kernel ignores it.
    pub parallel_channels: bool,
    /// Multiplier on the paper's Table II/III cloud capacity (fleet
    /// sizes and NFS storage; per-VM bandwidth and prices unchanged).
    /// 1.0 is the paper testbed — 150 VMs sized for ~2500 concurrent
    /// viewers; [`SimConfig::scale_out`] grows it (and the budgets) in
    /// proportion to the target population.
    pub fleet_scale: f64,
    /// The deterministic fault plane: timed fleet failures, site
    /// outages, tracker dropouts, and cost shocks every engine replays
    /// identically (see [`crate::faults`] and `docs/RESILIENCE.md`).
    /// Empty by default — no faults.
    pub faults: FaultSchedule,
}

impl serde::Deserialize for SimConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn req<T: serde::Deserialize>(v: &serde::Value, field: &str) -> Result<T, serde::DeError> {
            T::from_value(
                v.get(field).ok_or_else(|| {
                    serde::de_error(format!("SimConfig: missing field `{field}`"))
                })?,
            )
        }
        Ok(Self {
            catalog: req(v, "catalog")?,
            trace: req(v, "trace")?,
            mode: req(v, "mode")?,
            provisioning_interval: req(v, "provisioning_interval")?,
            vm_budget_per_hour: req(v, "vm_budget_per_hour")?,
            storage_budget_per_hour: req(v, "storage_budget_per_hour")?,
            predictor: req(v, "predictor")?,
            psi: req(v, "psi")?,
            provisioning_target: req(v, "provisioning_target")?,
            provisioner: req(v, "provisioner")?,
            safety_factor: req(v, "safety_factor")?,
            round_seconds: req(v, "round_seconds")?,
            sample_interval: req(v, "sample_interval")?,
            behaviour_seed: req(v, "behaviour_seed")?,
            streaming_rate: req(v, "streaming_rate")?,
            chunk_seconds: req(v, "chunk_seconds")?,
            peer_efficiency: req(v, "peer_efficiency")?,
            // `Sharded` was the one-shard-per-channel partition every
            // round engine now runs, and `Scan` the reference engine;
            // Indexed runs both bit for bit.
            kernel: match v.get("kernel") {
                Some(serde::Value::String(name)) if name == "Sharded" || name == "Scan" => {
                    SimKernel::Indexed
                }
                _ => req(v, "kernel")?,
            },
            // Optional with a default: added after configs were already
            // in the wild.
            parallel_channels: match v.get("parallel_channels") {
                Some(value) => serde::Deserialize::from_value(value)?,
                None => true,
            },
            fleet_scale: match v.get("fleet_scale") {
                Some(value) => serde::Deserialize::from_value(value)?,
                None => 1.0,
            },
            // Optional: configs written before the fault plane existed
            // load with an empty (no-fault) schedule.
            faults: match v.get("faults") {
                Some(value) => serde::Deserialize::from_value(value)?,
                None => FaultSchedule::default(),
            },
        })
    }
}

impl SimConfig {
    /// The paper's experimental setup for the given mode: 20 channels,
    /// one week, hourly provisioning, `B_M` = $100/h, `B_S` = $1/h.
    ///
    /// The concurrent population is calibrated so the *flash-crowd peak*
    /// is ≈ 2500 viewers (the paper's stated scale). The paper's Table II
    /// fleet is 150 VMs = 1500 Mbps; at 400 kbps per viewer the peak
    /// population a pure client–server deployment can serve is ≈ 3000, so
    /// 2500 must be the peak, not the diurnal mean — otherwise the paper's
    /// own flash crowds (Fig. 4 peaks ≈ 2250 Mbps) would be unservable.
    pub fn paper_default(mode: SimMode) -> Self {
        // Peak diurnal multiplier ≈ 3.5; unit-multiplier population of
        // ~715 puts the flash-crowd peak at ≈ 2500 concurrent viewers.
        let catalog = Catalog::zipf(
            20,
            0.8,
            cloudmedia_workload::viewing::ViewingModel::paper_default(),
            715.0,
            300.0,
        )
        .expect("paper defaults are valid");
        Self {
            catalog,
            trace: TraceConfig::paper_default(),
            mode,
            provisioning_interval: 3600.0,
            vm_budget_per_hour: 100.0,
            storage_budget_per_hour: 1.0,
            predictor: PredictorKind::LastInterval,
            psi: PsiEstimator::Independent,
            provisioning_target: ProvisioningTarget::MeanSojourn,
            provisioner: ProvisionerKind::Model,
            safety_factor: 1.0,
            round_seconds: 10.0,
            sample_interval: 300.0,
            behaviour_seed: 0x5EED_0001,
            streaming_rate: 50_000.0,
            chunk_seconds: 300.0,
            peer_efficiency: 0.85,
            kernel: SimKernel::default(),
            parallel_channels: true,
            fleet_scale: 1.0,
            faults: FaultSchedule::default(),
        }
    }

    /// A scale-out configuration: a [`Catalog::mega_catalog`] of
    /// `channels` Zipf channels calibrated to `population` expected
    /// concurrent viewers, with the fleet and budgets grown to match.
    /// Everything else follows the paper defaults, the engine and
    /// [`SimConfig::parallel_channels`] included (the default Indexed
    /// engine fans a large site's shards out by itself); set
    /// `trace.horizon_seconds` for the run length.
    ///
    /// ```
    /// use cloudmedia_sim::config::{SimConfig, SimKernel, SimMode};
    ///
    /// let mut cfg = SimConfig::scale_out(SimMode::ClientServer, 500, 50_000.0).unwrap();
    /// cfg.trace.horizon_seconds = 2.0 * 3600.0;
    /// // The kernel and `parallel_channels` stay at the paper defaults.
    /// assert_eq!(cfg.kernel, SimKernel::Indexed);
    /// assert!(cfg.parallel_channels);
    /// assert_eq!(cfg.catalog.len(), 500);
    /// cfg.validate().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates catalog validation failures (zero channels,
    /// non-positive population).
    pub fn scale_out(mode: SimMode, channels: usize, population: f64) -> Result<Self, SimError> {
        let mut cfg = Self::paper_default(mode);
        cfg.catalog = Catalog::mega_catalog(channels, population)
            .map_err(|e| invalid_param("catalog", e.to_string()))?;
        // The paper testbed (150 VMs, $100/h + $1/h budgets) serves
        // ~2500 concurrent viewers; grow capacity and budgets in
        // proportion so the controller's optimization stays feasible at
        // any population.
        let factor = (population / 2500.0).max(1.0);
        cfg.fleet_scale = factor;
        cfg.vm_budget_per_hour *= factor;
        cfg.storage_budget_per_hour *= factor;
        Ok(cfg)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive intervals or a sampling interval
    /// finer than the round.
    pub fn validate(&self) -> Result<(), SimError> {
        self.trace.validate()?;
        if !(self.round_seconds.is_finite() && self.round_seconds > 0.0) {
            return Err(invalid_param("round_seconds", "must be positive"));
        }
        if self.sample_interval < self.round_seconds {
            return Err(invalid_param(
                "sample_interval",
                "must be at least one allocation round",
            ));
        }
        if self.provisioning_interval < self.sample_interval {
            return Err(invalid_param(
                "provisioning_interval",
                "must be at least one sample interval",
            ));
        }
        if !(self.safety_factor.is_finite() && self.safety_factor > 0.0) {
            return Err(invalid_param("safety_factor", "must be positive"));
        }
        if self.catalog.is_empty() {
            return Err(invalid_param(
                "catalog",
                "must contain at least one channel",
            ));
        }
        // Every engine keeps per-peer chunk sets as u64 bitmaps; a
        // channel beyond 64 chunks would silently alias buffer slots in
        // release builds, so reject it at the configuration boundary.
        for spec in self.catalog.channels() {
            if spec.viewing.chunks > crate::peer::MAX_CHUNKS {
                return Err(invalid_param(
                    "catalog",
                    format!(
                        "channel {} has {} chunks; chunk sets are u64 bitmaps, max {}",
                        spec.id,
                        spec.viewing.chunks,
                        crate::peer::MAX_CHUNKS
                    ),
                ));
            }
        }
        if !(self.streaming_rate.is_finite() && self.streaming_rate > 0.0) {
            return Err(invalid_param("streaming_rate", "must be positive"));
        }
        if !(self.chunk_seconds.is_finite() && self.chunk_seconds > 0.0) {
            return Err(invalid_param("chunk_seconds", "must be positive"));
        }
        if !(self.peer_efficiency > 0.0 && self.peer_efficiency <= 1.0) {
            return Err(invalid_param("peer_efficiency", "must be in (0, 1]"));
        }
        if !(self.fleet_scale.is_finite() && self.fleet_scale >= 1.0) {
            return Err(invalid_param(
                "fleet_scale",
                "must be at least 1.0 (the paper testbed)",
            ));
        }
        self.faults.validate()?;
        Ok(())
    }

    /// Chunk size in bytes, `r · T0`.
    pub fn chunk_bytes(&self) -> f64 {
        self.streaming_rate * self.chunk_seconds
    }

    /// Mean per-peer upload capacity implied by the trace's Pareto
    /// parameters; fed to the controller's P2P analysis.
    pub fn mean_upload(&self) -> f64 {
        BoundedPareto::new(
            self.trace.upload_min_bps,
            self.trace.upload_max_bps,
            self.trace.upload_shape,
        )
        .map(|p| p.mean())
        .unwrap_or(0.0)
    }

    /// The controller streaming mode corresponding to [`SimMode`].
    ///
    /// The P2P mean upload fed to the analysis is the *effective* value
    /// `mean_upload() × peer_efficiency`: the provider calibrates `u` from
    /// the peer throughput its tracker actually observes, not from the
    /// nominal access-link distribution. (Feeding the nominal mean makes
    /// the analytic peer contribution systematically optimistic and the
    /// cloud fallback vanishes exactly when peer supply ≈ demand.)
    pub fn streaming_mode(&self) -> StreamingMode {
        match self.mode {
            SimMode::ClientServer => StreamingMode::ClientServer,
            SimMode::P2p => StreamingMode::P2p {
                mean_upload: self.mean_upload() * self.peer_efficiency,
                psi: self.psi,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_json_with_a_scheduler_field_still_loads() {
        // The event-driven engine once took its queue from `scheduler`;
        // config files written then (naming either queue) still load.
        let cfg = SimConfig::paper_default(SimMode::P2p);
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        fields.push(("scheduler".into(), serde::Value::String("Heap".into())));
        let legacy = serde::Value::Object(fields);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn config_json_without_parallel_channels_field_still_loads() {
        let cfg = SimConfig::paper_default(SimMode::P2p);
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        fields.retain(|(k, _)| k != "parallel_channels");
        let legacy = serde::Value::Object(fields);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
        assert!(parsed.parallel_channels, "defaults to parallel");
        assert_eq!(parsed, cfg);
    }

    /// Configs written while the removed sub-channel `lanes` knob
    /// existed carry the key; it is ignored like any unknown key.
    #[test]
    fn config_json_with_legacy_lanes_key_loads_unchanged() {
        let cfg = SimConfig::paper_default(SimMode::P2p);
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        assert!(fields.iter().all(|(k, _)| k != "lanes"));
        fields.push(("lanes".into(), serde::Serialize::to_value(&4usize)));
        let legacy = serde::Value::Object(fields);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn config_json_without_faults_field_still_loads() {
        let cfg = SimConfig::paper_default(SimMode::P2p);
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        fields.retain(|(k, _)| k != "faults");
        let legacy = serde::Value::Object(fields);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
        assert!(parsed.faults.is_empty(), "defaults to no faults");
        assert_eq!(parsed, cfg);
    }

    /// Configs written while the removed `quiescence` knob existed carry
    /// the key; it is ignored like any unknown key.
    #[test]
    fn config_json_with_legacy_quiescence_key_loads_unchanged() {
        let cfg = SimConfig::paper_default(SimMode::P2p);
        let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
            panic!("config serializes to an object");
        };
        assert!(fields.iter().all(|(k, _)| k != "quiescence"));
        fields.push(("quiescence".into(), serde::Value::Bool(false)));
        let legacy = serde::Value::Object(fields);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn fault_schedule_round_trips_and_validates_through_config() {
        use crate::faults::{DegradeMode, FaultSchedule};
        let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
        cfg.faults = FaultSchedule::vm_outage(3600.0, 0.4, 900.0);
        cfg.faults.degrade = DegradeMode::ShedNewArrivals;
        let value = serde::Serialize::to_value(&cfg);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(parsed, cfg);
        cfg.validate().unwrap();
        cfg.faults.vm_failures[0].fraction = 2.0;
        assert!(cfg.validate().is_err(), "schedule validated with config");
    }

    /// The scale-out settings a sharded config carries round-trip.
    #[test]
    fn sharded_config_round_trips_through_json() {
        let mut cfg = SimConfig::scale_out(SimMode::P2p, 40, 100_000.0).unwrap();
        cfg.parallel_channels = false;
        let value = serde::Serialize::to_value(&cfg);
        let parsed = <SimConfig as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(parsed, cfg);
        assert!(!parsed.parallel_channels);
        assert_eq!(parsed.fleet_scale, 40.0);
    }

    /// Configs written while the `Sharded` or `Scan` kernel was a
    /// config value load as the same config with `Indexed`, which runs
    /// what either ran.
    #[test]
    fn legacy_sharded_kernel_loads_as_indexed() {
        let cfg = SimConfig::scale_out(SimMode::ClientServer, 400, 200_000.0).unwrap();
        assert_eq!(cfg.kernel, SimKernel::Indexed);
        for legacy_kernel in ["Sharded", "Scan"] {
            let serde::Value::Object(mut fields) = serde::Serialize::to_value(&cfg) else {
                panic!("config serializes to an object");
            };
            for (key, value) in &mut fields {
                if key == "kernel" {
                    *value = serde::Value::String(legacy_kernel.into());
                }
            }
            let legacy = serde::Value::Object(fields);
            let parsed = <SimConfig as serde::Deserialize>::from_value(&legacy).unwrap();
            assert_eq!(parsed, cfg, "{legacy_kernel}");
        }
    }

    #[test]
    fn scale_out_builds_a_sharded_mega_config() {
        let cfg = SimConfig::scale_out(SimMode::P2p, 300, 25_000.0).unwrap();
        let paper = SimConfig::paper_default(SimMode::P2p);
        assert_eq!(cfg.kernel, paper.kernel);
        assert_eq!(cfg.parallel_channels, paper.parallel_channels);
        assert_eq!(cfg.catalog.len(), 300);
        let pop = cfg.catalog.expected_population(cfg.chunk_seconds);
        assert!((pop - 25_000.0).abs() / 25_000.0 < 1e-9, "population {pop}");
        cfg.validate().unwrap();
        assert!(SimConfig::scale_out(SimMode::P2p, 0, 25_000.0).is_err());
        assert!(SimConfig::scale_out(SimMode::P2p, 10, -5.0).is_err());
    }

    #[test]
    fn paper_default_validates() {
        SimConfig::paper_default(SimMode::ClientServer)
            .validate()
            .unwrap();
        SimConfig::paper_default(SimMode::P2p).validate().unwrap();
    }

    #[test]
    fn mean_upload_is_within_pareto_bounds() {
        let c = SimConfig::paper_default(SimMode::P2p);
        let u = c.mean_upload();
        assert!(u > c.trace.upload_min_bps && u < c.trace.upload_max_bps);
        // Shape-3 Pareto concentrates near the minimum: mean well below
        // the midpoint.
        assert!(u < (c.trace.upload_min_bps + c.trace.upload_max_bps) / 4.0);
    }

    #[test]
    fn streaming_mode_maps_correctly() {
        let cs = SimConfig::paper_default(SimMode::ClientServer);
        assert!(matches!(cs.streaming_mode(), StreamingMode::ClientServer));
        let p2p = SimConfig::paper_default(SimMode::P2p);
        assert!(matches!(p2p.streaming_mode(), StreamingMode::P2p { .. }));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SimConfig::paper_default(SimMode::P2p);
        c.round_seconds = 0.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_default(SimMode::P2p);
        c.sample_interval = 1.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_default(SimMode::P2p);
        c.provisioning_interval = 100.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::paper_default(SimMode::P2p);
        c.safety_factor = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn over_64_chunk_channels_rejected() {
        let mut c = SimConfig::paper_default(SimMode::P2p);
        let mut viewing = cloudmedia_workload::viewing::ViewingModel::paper_default();
        viewing.chunks = 80;
        c.catalog =
            cloudmedia_workload::catalog::Catalog::zipf(2, 0.8, viewing, 40.0, 300.0).unwrap();
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("u64 bitmaps"), "got: {err}");
    }
}
