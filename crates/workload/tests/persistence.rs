//! JSON persistence round trips for the workload inputs: a catalog and a
//! trace config, archived, regenerate the same arrivals bit-exactly.

use cloudmedia_workload::catalog::Catalog;
use cloudmedia_workload::trace::TraceConfig;
use cloudmedia_workload::viewing::ViewingModel;

fn catalog() -> Catalog {
    Catalog::zipf(3, 0.9, ViewingModel::paper_default(), 120.0, 300.0).unwrap()
}

#[test]
fn catalog_and_config_round_trip_exactly() {
    let c = catalog();
    let back: Catalog = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
    assert_eq!(c, back);
    let cfg = TraceConfig::paper_default();
    let back: TraceConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(cfg, back);
}
