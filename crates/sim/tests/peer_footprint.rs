//! Differential memory regression: the scale-out story rests on small
//! per-viewer resident state, and this suite pins it two ways — the
//! analytic worst case computed from real type layouts, and a measured
//! end-of-run footprint from a live flash-crowd run. Either
//! assertion fails the moment a per-peer field grows past the budget.

use cloudmedia_sim::config::{SimConfig, SimMode};
use cloudmedia_sim::footprint;
use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::viewing::ViewingModel;

/// The analytic ceiling: the worst-case peer must fit the budget with
/// the layouts the compiler actually produced.
#[test]
fn worst_case_peer_fits_the_budget() {
    let worst = footprint::worst_case_bytes_per_peer();
    assert!(
        worst <= footprint::PEER_BUDGET_BYTES,
        "worst-case peer is {worst} B, budget is {} B",
        footprint::PEER_BUDGET_BYTES
    );
    // The packed record itself is the bulk of the budget; if it grows,
    // someone widened a field without re-packing (see peer.rs's layout
    // pin for the exact figure).
    assert_eq!(std::mem::size_of::<cloudmedia_sim::peer::Peer>(), 72);
}

/// The measured footprint of a live single-channel flash-crowd run —
/// the giant-channel shape — stays within the budget. The measurement
/// also counts the download cohorts, which their members share.
#[test]
fn measured_flash_crowd_footprint_stays_under_budget() {
    let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
    cfg.catalog = Catalog::zipf(1, 0.8, ViewingModel::paper_default(), 500.0, 300.0).unwrap();
    cfg.trace.horizon_seconds = 2.0 * 3600.0;
    let fp = footprint::measure(&cfg).unwrap();
    assert!(
        fp.peers > 100,
        "measurement run ended with only {} connected viewers",
        fp.peers
    );
    let per_peer = fp.bytes_per_peer();
    assert!(
        per_peer <= footprint::PEER_BUDGET_BYTES as f64,
        "measured {per_peer:.1} B/peer over {} peers, budget {}",
        fp.peers,
        footprint::PEER_BUDGET_BYTES
    );
    // And the measurement is not trivially zero-byte: the packed Peer
    // alone accounts for 72 B of every viewer.
    assert!(
        per_peer >= std::mem::size_of::<cloudmedia_sim::peer::Peer>() as f64,
        "measured {per_peer:.1} B/peer is below the bare record size"
    );
}

/// The measurement helper validates its configuration first.
#[test]
fn measure_rejects_invalid_configs() {
    let mut cfg = SimConfig::paper_default(SimMode::ClientServer);
    cfg.round_seconds = 0.0;
    assert!(footprint::measure(&cfg).is_err());
}
