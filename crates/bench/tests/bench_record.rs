//! The committed perf record, `BENCH_sim.json` at the repository root,
//! holds exactly the top-level keys `bench_sim` writes, in its order,
//! and each section is stamped with the schema string the current code
//! writes. A schema bump or a new or retired key without a regeneration
//! fails here.

use cloudmedia_bench::{des, geo_sim, profile, record, resilience, scale};
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
    let Value::Object(fields) = &record else {
        panic!("BENCH_sim.json holds a JSON object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, record::KEYS);

    assert_eq!(schema_of(&record), Some(record::SCHEMA));
    let sections = [
        ("des_comparison", des::SCHEMA),
        ("engine_throughput", des::THROUGHPUT_SCHEMA),
        ("geo_federation", geo_sim::SCHEMA),
        ("scale_sweep", scale::SCHEMA),
        ("resilience", resilience::SCHEMA),
        ("stage_profile", profile::SCHEMA),
    ];
    for (key, schema) in sections {
        let section = record.get(key).expect("checked above");
        assert_eq!(schema_of(section), Some(schema), "section `{key}`");
    }
}
