//! Schema guard over the checked-in `BENCH_results.json`: the perf-trend
//! step diffs fresh runs against this document, so a malformed or
//! silently-regressed baseline would turn every future comparison into
//! a list of added leaves instead of deltas. This test pins the shape
//! of the document — not timing values, so it is stable on any machine.

use wcet_bench::json::Json;

fn checked_in_results() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path).expect("BENCH_results.json is checked in");
    Json::parse(&text).expect("BENCH_results.json parses")
}

#[test]
fn results_schema_is_current_and_campaign_throughput_parses() {
    let doc = checked_in_results();
    let schema = doc
        .get("schema")
        .and_then(Json::as_u64)
        .expect("document carries a schema number");
    assert!(schema >= 11, "schema regressed below 11: {schema}");

    // Schema 9's suite-level wall clock.
    let total_ms = doc
        .get("total_ms")
        .and_then(Json::as_f64)
        .expect("schema 9 documents carry total_ms");
    assert!(total_ms > 0.0, "total_ms must be positive: {total_ms}");

    // The trend step's campaign headline number must exist and parse.
    let cells_per_sec = doc
        .get_path(&["campaign", "cold", "cells_per_sec"])
        .and_then(Json::as_f64)
        .expect("campaign.cold.cells_per_sec exists and parses");
    assert!(
        cells_per_sec > 0.0,
        "campaign cold throughput must be positive: {cells_per_sec}"
    );
}

#[test]
fn all_thirteen_experiments_run_in_process_with_rows() {
    let doc = checked_in_results();
    let exps = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array");
    let ids: Vec<&str> = exps
        .iter()
        .map(|e| e.get("id").and_then(Json::as_str).expect("entry has an id"))
        .collect();
    assert_eq!(ids.len(), 13, "the suite has 13 experiments: {ids:?}");
    for (e, id) in exps.iter().zip(&ids) {
        assert_eq!(e.get("ok"), Some(&Json::from(true)), "{id} failed");
        let rows = e.get("rows").and_then(Json::as_arr).unwrap_or_default();
        assert!(!rows.is_empty(), "{id} carries no rows");
        for r in rows {
            assert!(
                r.get("wcet").and_then(Json::as_u64).is_some(),
                "{id}: a row without an exact wcet"
            );
        }
    }
}

#[test]
fn fixpoint_blocks_carry_schema9_kernel_counters() {
    let doc = checked_in_results();
    let exps = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array");
    let mut with_fixpoint = 0usize;
    for e in exps {
        // Experiments that run no cache analysis carry `fixpoint: null`.
        let Some(fp) = e.get("fixpoint") else {
            continue;
        };
        if matches!(fp, Json::Null) {
            continue;
        }
        with_fixpoint += 1;
        for key in ["kernel_words", "arena_bytes", "arena_resets"] {
            let v = fp.get(key).and_then(Json::as_u64);
            assert!(
                v.is_some(),
                "fixpoint block of {:?} lacks {key}",
                e.get("id")
            );
        }
        assert!(
            fp.get("kernel_words").and_then(Json::as_u64).unwrap_or(0) > 0,
            "an analysis that ran must have pushed words through the kernels"
        );
    }
    assert!(with_fixpoint > 0, "no experiment carried a fixpoint block");
}
