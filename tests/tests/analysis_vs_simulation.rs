//! Consistency between the Sec. IV analytic model and the simulated
//! system: the equilibrium the queueing network predicts should be what
//! the discrete-event simulator actually produces.

use cloudmedia_core::analysis::{p2p_capacity, pooled_capacity_demand, PsiEstimator};
use cloudmedia_core::channel::ChannelModel;
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;

fn single_channel_config(mode: SimMode, population: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.catalog = Catalog::zipf(1, 0.0, ViewingModel::paper_default(), population, 300.0)
        .expect("single-channel catalog");
    // Flat arrivals isolate the equilibrium from diurnal effects.
    cfg.trace.diurnal = cloudmedia_workload::diurnal::DiurnalPattern::flat();
    cfg.trace.horizon_seconds = 12.0 * 3600.0;
    cfg
}

#[test]
fn simulated_population_matches_littles_law() {
    let cfg = single_channel_config(SimMode::ClientServer, 300.0);
    let m = Simulator::new(cfg).unwrap().run().unwrap();
    // Skip the 2 h warm-up, then compare mean population to the target.
    let samples: Vec<_> = m.samples_in(2.0 * 3600.0, 12.0 * 3600.0).collect();
    let mean = samples.iter().map(|s| s.active_peers as f64).sum::<f64>() / samples.len() as f64;
    assert!(
        (mean - 300.0).abs() / 300.0 < 0.15,
        "simulated mean population {mean} vs Little's-law target 300"
    );
}

#[test]
fn provisioned_bandwidth_matches_analytic_demand() {
    let cfg = single_channel_config(SimMode::ClientServer, 300.0);
    let arrival = cfg.catalog.channel(0).base_arrival_rate;
    let m = Simulator::new(cfg).unwrap().run().unwrap();
    // Analytic pooled demand for the true arrival rate.
    let model = ChannelModel::paper_default(0, arrival);
    let analytic = pooled_capacity_demand(&model)
        .unwrap()
        .total_upload_demand();
    // Post-warm-up intervals should reserve close to the analytic demand.
    let tail: Vec<_> = m.intervals.iter().skip(3).collect();
    let mean_demand: f64 =
        tail.iter().map(|r| r.total_cloud_demand).sum::<f64>() / tail.len() as f64;
    assert!(
        (mean_demand - analytic).abs() / analytic < 0.2,
        "controller demand {mean_demand:.0} vs analytic {analytic:.0}"
    );
}

#[test]
fn p2p_peer_contribution_prediction_is_conservative() {
    // The controller's expected peer contribution should be in the same
    // regime as what peers actually serve in the simulator (within ~35%,
    // given the mesh-efficiency friction).
    let cfg = single_channel_config(SimMode::P2p, 300.0);
    let m = Simulator::new(cfg).unwrap().run().unwrap();
    let tail: Vec<_> = m.intervals.iter().skip(3).collect();
    let predicted_peer: f64 = tail
        .iter()
        .map(|r| r.expected_peer_contribution)
        .sum::<f64>()
        / tail.len() as f64;
    // Actual peer serving = total streaming consumption - cloud used.
    let samples: Vec<_> = m.samples_in(3.0 * 3600.0, 12.0 * 3600.0).collect();
    let used_cloud: f64 =
        samples.iter().map(|s| s.used_bandwidth).sum::<f64>() / samples.len() as f64;
    let population: f64 =
        samples.iter().map(|s| s.active_peers as f64).sum::<f64>() / samples.len() as f64;
    let total_consumption = population * 50_000.0; // ~r per viewer
    let actual_peer = (total_consumption - used_cloud).max(0.0);
    assert!(
        predicted_peer > 0.5 * actual_peer && predicted_peer < 2.0 * actual_peer,
        "predicted peer contribution {predicted_peer:.0} vs actual ~{actual_peer:.0}"
    );
}

#[test]
fn p2p_cloud_demand_below_client_server_demand_analytically_and_in_sim() {
    let model = ChannelModel::paper_default(0, 0.2);
    let cs = pooled_capacity_demand(&model)
        .unwrap()
        .total_upload_demand();
    let p2p = p2p_capacity(&model, 34_000.0, PsiEstimator::Independent)
        .unwrap()
        .total_cloud_demand();
    assert!(p2p < cs, "analytic: P2P {p2p} < C/S {cs}");

    let m_cs = Simulator::new(single_channel_config(SimMode::ClientServer, 300.0))
        .unwrap()
        .run()
        .unwrap();
    let m_p2p = Simulator::new(single_channel_config(SimMode::P2p, 300.0))
        .unwrap()
        .run()
        .unwrap();
    assert!(
        m_p2p.mean_used_bandwidth() < m_cs.mean_used_bandwidth(),
        "simulated: P2P uses {p} < C/S {c}",
        p = m_p2p.mean_used_bandwidth(),
        c = m_cs.mean_used_bandwidth()
    );
}

#[test]
fn tracker_measurements_recover_catalog_parameters() {
    // After a day of simulation, the controller's interval records should
    // reflect the true arrival rates (the tracker measured them).
    let cfg = single_channel_config(SimMode::ClientServer, 200.0);
    let arrival = cfg.catalog.channel(0).base_arrival_rate;
    let m = Simulator::new(cfg).unwrap().run().unwrap();
    // Demand scales with measured arrivals; compare the demand of the
    // last interval against the analytically expected demand.
    let model = ChannelModel::paper_default(0, arrival);
    let analytic = pooled_capacity_demand(&model)
        .unwrap()
        .total_upload_demand();
    let last = m.intervals.last().unwrap();
    assert!(
        (last.total_cloud_demand - analytic).abs() / analytic < 0.3,
        "last-interval demand {d:.0} vs analytic {analytic:.0}",
        d = last.total_cloud_demand
    );
}
