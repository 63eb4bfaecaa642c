//! Billing invariants across the cloud model and the simulator.

use cloudmedia_cloud::billing::BillingMeter;
use cloudmedia_cloud::broker::{Cloud, ResourceRequest};
use cloudmedia_cloud::cluster::{paper_nfs_clusters, paper_virtual_clusters};
use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::simulator::Simulator;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;

#[test]
fn ledger_sums_to_totals() {
    // The increments `accrue` returns sum to the meter's totals.
    let mut meter = BillingMeter::new(&paper_virtual_clusters(), &paper_nfs_clusters()).unwrap();
    let mut from_ledger = 0.0;
    for h in 1..=12 {
        let e = meter
            .accrue(h as f64 * 3600.0, &[10, 5, 3], &[2_000_000_000, 0])
            .unwrap();
        from_ledger += e.vm_cost.as_dollars() + e.storage_cost.as_dollars();
    }
    assert!((from_ledger - meter.total_cost().as_dollars()).abs() < 1e-9);
    assert!(meter.storage_cost().as_dollars() > 0.0);

    let mut cloud = Cloud::paper_default().unwrap();
    cloud
        .submit_request(&ResourceRequest {
            vm_targets: vec![10, 5, 3],
            placement: None,
        })
        .unwrap();
    for h in 1..=12 {
        cloud.tick(h as f64 * 3600.0).unwrap();
    }
    // 10 Std + 5 Med + 3 Adv = 4.5 + 3.5 + 2.4 = $10.4/h for 12 h.
    assert!((cloud.billing().total_cost().as_dollars() - 124.8).abs() < 1e-6);
}

#[test]
fn per_cluster_costs_sum_to_vm_total() {
    let mut cloud = Cloud::paper_default().unwrap();
    cloud
        .submit_request(&ResourceRequest {
            vm_targets: vec![7, 2, 9],
            placement: None,
        })
        .unwrap();
    cloud.tick(7200.0).unwrap();
    let billing = cloud.billing();
    let per: f64 = billing
        .vm_cost_per_cluster()
        .iter()
        .map(|m| m.as_dollars())
        .sum();
    assert!((per - billing.vm_cost().as_dollars()).abs() < 1e-9);
}

#[test]
fn sim_total_cost_equals_billing_ledger() {
    let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
    cfg.catalog = Catalog::zipf(3, 0.8, ViewingModel::paper_default(), 90.0, 300.0).unwrap();
    cfg.trace.horizon_seconds = 6.0 * 3600.0;
    let budget = cfg.vm_budget_per_hour;
    let m = Simulator::new(cfg).unwrap().run().unwrap();
    // Total VM cost bounded by budget x hours (billing can only charge
    // what the controller requested, which respects the budget).
    assert!(m.total_vm_cost <= budget * 6.0 + 1e-6);
    // And bounded below by the sum of interval plans minus shutdown slack.
    let planned: f64 = m.intervals.iter().map(|r| r.vm_hourly_cost).sum();
    assert!(
        m.total_vm_cost <= planned * 1.1 + 1.0,
        "billed {b} far exceeds planned {planned}",
        b = m.total_vm_cost
    );
    assert!(
        m.total_vm_cost >= planned * 0.8 - 1.0,
        "billed {b} far below planned {planned}",
        b = m.total_vm_cost
    );
}

#[test]
fn scaling_down_saves_money() {
    // Same workload, but one cloud holds peak VMs all day: elastic must
    // be cheaper.
    let mut elastic = Cloud::paper_default().unwrap();
    let mut fixed = Cloud::paper_default().unwrap();
    let targets = [30usize, 10, 10, 10, 40, 40, 10, 10];
    fixed
        .submit_request(&ResourceRequest {
            vm_targets: vec![40, 0, 0],
            placement: None,
        })
        .unwrap();
    for (h, &t) in targets.iter().enumerate() {
        elastic
            .submit_request(&ResourceRequest {
                vm_targets: vec![t, 0, 0],
                placement: None,
            })
            .unwrap();
        elastic.tick((h + 1) as f64 * 3600.0).unwrap();
        fixed.tick((h + 1) as f64 * 3600.0).unwrap();
    }
    let e = elastic.billing().total_cost().as_dollars();
    let f = fixed.billing().total_cost().as_dollars();
    assert!(e < f, "elastic ${e} should beat fixed ${f}");
    // Fixed: 40 VMs x 8 h x $0.45 = $144.
    assert!((f - 144.0).abs() < 1e-6);
}

#[test]
fn billing_includes_boot_and_shutdown_periods() {
    // Usage-time billing runs from launch to fully-off: a VM booted and
    // immediately shut down still costs its boot + shutdown window.
    let mut cloud = Cloud::paper_default().unwrap();
    cloud
        .submit_request(&ResourceRequest {
            vm_targets: vec![1, 0, 0],
            placement: None,
        })
        .unwrap();
    cloud.tick(10.0).unwrap(); // still booting
    cloud
        .submit_request(&ResourceRequest {
            vm_targets: vec![0, 0, 0],
            placement: None,
        })
        .unwrap();
    cloud.tick(3600.0).unwrap();
    let cost = cloud.billing().vm_cost().as_dollars();
    // Billed for 10 s booting + 10 s shutdown = 20 s of $0.45/h.
    assert!((cost - 0.45 * 20.0 / 3600.0).abs() < 1e-9, "cost {cost}");
}
