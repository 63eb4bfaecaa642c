//! Flash crowd: drive the dynamic provisioning controller through a
//! demand surge and watch it track the load hour by hour — the paper's
//! central "cloud on demand meets video on demand" scenario.
//!
//! Run with: `cargo run -p cloudmedia-examples --bin flash_crowd --release`

use cloudmedia_cloud::broker::{Cloud, ResourceRequest};
use cloudmedia_core::controller::{Controller, ControllerConfig, StreamingMode};
use cloudmedia_core::predictor::{ChannelObservation, PredictorKind};
use cloudmedia_workload::viewing::ViewingModel;

fn main() {
    let mut cloud = Cloud::paper_default().expect("paper cloud is valid");
    let sla = cloud.sla_terms();
    let mut controller = Controller::new(
        ControllerConfig::paper_default(StreamingMode::ClientServer),
        PredictorKind::LastInterval,
    )
    .expect("paper config is valid");

    let viewing = ViewingModel::paper_default();
    let routing = viewing
        .routing_rows()
        .expect("paper viewing model is valid");

    // A flash crowd: arrivals ramp 4x over three hours, then recede.
    let arrival_rates = [0.10, 0.15, 0.25, 0.40, 0.38, 0.25, 0.15, 0.10];
    println!("hour,arrival_rate,demand_mbps,vm_targets,running_mbps,hour_cost");
    for (hour, &rate) in arrival_rates.iter().enumerate() {
        let t = hour as f64 * 3600.0;
        let obs = ChannelObservation {
            arrival_rate: rate,
            alpha: viewing.start_at_beginning,
            routing: routing.clone(),
        };
        let plan = controller
            .plan_interval(&[(0, obs)], &sla)
            .expect("budget covers the surge");
        cloud
            .submit_request(&ResourceRequest {
                vm_targets: plan.vm_targets.clone(),
                placement: plan.placement.as_ref().map(|p| p.iter().copied().collect()),
            })
            .expect("targets fit the fleet");
        // Boot latency: capacity is online ~25 s into the hour.
        cloud.tick(t + 30.0).expect("time advances");
        let running = cloud.running_bandwidth();
        let cost_before = cloud.billing().total_cost();
        cloud.tick(t + 3600.0).expect("time advances");
        let hour_cost = cloud.billing().total_cost() - cost_before;
        println!(
            "{hour},{rate},{:.1},{:?},{:.1},{}",
            plan.total_cloud_demand * 8.0 / 1e6,
            plan.vm_targets,
            running * 8.0 / 1e6,
            hour_cost,
        );
    }
    println!(
        "\ntotal cost over {} hours: {}",
        arrival_rates.len(),
        cloud.billing().total_cost()
    );
    println!(
        "(a statically peak-provisioned deployment would have paid {} — \
         the elastic cloud pays only for what the crowd needs)",
        {
            // Peak-hour VM cost held for the whole window.
            let peak = 0.40_f64;
            let obs = ChannelObservation {
                arrival_rate: peak,
                alpha: viewing.start_at_beginning,
                routing: routing.clone(),
            };
            let mut c2 = Controller::new(
                ControllerConfig::paper_default(StreamingMode::ClientServer),
                PredictorKind::LastInterval,
            )
            .expect("valid");
            let plan = c2.plan_interval(&[(0, obs)], &sla).expect("within budget");
            cloudmedia_cloud::pricing::Money::dollars(
                plan.vm_plan.integer_hourly_cost * arrival_rates.len() as f64,
            )
        }
    );
}
