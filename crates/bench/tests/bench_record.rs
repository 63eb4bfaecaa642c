//! The committed perf record, `BENCH_sim.json` at the repository root,
//! holds every section its bench binaries write, each stamped with the
//! schema string the current code writes. A writer that drops another
//! writer's section, or a schema bump without a regeneration, fails
//! here.

use cloudmedia_bench::{geo_sim, profile, resilience, scale};
use cloudmedia_bench::{DES_SCHEMA, DES_THROUGHPUT_SCHEMA, SIM_SCHEMA};
use serde::Value;

fn schema_of(value: &Value) -> Option<&str> {
    match value.get("schema") {
        Some(Value::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

#[test]
fn committed_record_holds_every_section_at_its_current_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("the committed BENCH_sim.json");
    let record: Value = serde_json::from_str(&text).expect("BENCH_sim.json is JSON");
    // Written by `bench_sim`, which owns the top level.
    assert_eq!(schema_of(&record), Some(SIM_SCHEMA));
    let sections = [
        // Both written by `bench_des`.
        ("des_comparison", DES_SCHEMA),
        ("engine_throughput", DES_THROUGHPUT_SCHEMA),
        ("geo_federation", geo_sim::SCHEMA),
        ("scale_sweep", scale::SCHEMA),
        ("resilience", resilience::SCHEMA),
        ("stage_profile", profile::SCHEMA),
    ];
    for (key, schema) in sections {
        let section = record
            .get(key)
            .unwrap_or_else(|| panic!("BENCH_sim.json lacks the `{key}` section"));
        assert_eq!(schema_of(section), Some(schema), "section `{key}`");
    }
}
