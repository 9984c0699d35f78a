//! The benchmark's own determinism checks: the work counters repeat
//! exactly for one seed and move with another (so the seed reaches the
//! generated inputs), and `BENCHMARK.json` declares exactly the workloads
//! and metrics the binary prints.

use aj_core::obs::json::{self, Value};
use ajbench::solve::{counters, SolveWorkload};
use ajbench::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn counters_repeat_per_seed_and_move_with_it() {
    for w in [SolveWorkload::Dist256, SolveWorkload::Shared4R2Auto] {
        let a = counters(w, 7).expect("counters for seed 7");
        let again = counters(w, 7).expect("counters for seed 7");
        let b = counters(w, 8).expect("counters for seed 8");
        assert_eq!(a, again, "{w:?}: one seed gave two sets of counters");
        // Sweep counts are near-integers and can coincide for two seeds;
        // simulated time carries the seeded jitter and cannot.
        assert_ne!(a, b, "{w:?}: the counters ignore the seed");
        assert_ne!(
            a.sim_ticks_to_tol, b.sim_ticks_to_tol,
            "{w:?}: ticks ignore the seed"
        );
        if w == SolveWorkload::Dist256 {
            assert_ne!(a.puts, b.puts, "{w:?}: puts ignore the seed");
        } else {
            assert_eq!(a.puts, 0.0, "shared memory issues no puts");
        }
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry.get(key).and_then(Value::as_str).unwrap_or_default()
}

#[test]
fn benchmark_json_carries_every_workload_with_its_reason() {
    let doc = benchmark_json();
    let declared: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(declared, WORKLOADS);
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let doc = benchmark_json();
    for (key, printed) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(&str, &str)> = entries(&doc, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(declared, printed, "{key}");
    }
}
