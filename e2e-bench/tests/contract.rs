//! Every workload runs clean on both images, and the metric names the
//! benchmark prints are exactly the ones `BENCHMARK.json` declares.

use e2e_bench::{check_parallelism, run, Workload};
use std::collections::BTreeSet;

/// The `"name"` values inside the top-level array `key` of the
/// repository's `BENCHMARK.json`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let from = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &text[from..];
    let section = &section[..section.find(']').expect("array is closed")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn workloads_match_benchmark_json() {
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, declared("workloads"));
}

#[test]
fn every_workload_is_correct_and_prints_the_declared_metrics() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in Workload::ALL {
        if check_parallelism(w, cpus()).is_err() {
            assert!(run(w, 1, 0.2, false).is_err(), "{} must refuse", w.name());
            continue;
        }
        for traced in [false, true] {
            let r = run(w, 1, 0.2, traced).expect("benchmark runs");
            assert_eq!(r.failed, 0, "{} traced={traced}", w.name());
            assert!(r.attempted > 0);
            assert_eq!(r.get("fail_frac").unwrap_or(0.0), 0.0);
            assert!(r.problems.is_empty(), "{}: {:?}", w.name(), r.problems);
            let printed: BTreeSet<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                printed,
                if traced { layers.clone() } else { e2e.clone() },
                "{} traced={traced}",
                w.name()
            );
            if traced {
                for image in ["", "legacy."] {
                    let attributed = r.get(&format!("{image}trace.attributed_pct")).unwrap();
                    assert!(attributed >= 95.0, "{}: {attributed}", w.name());
                }
            } else {
                for m in &r.metrics {
                    assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
                }
            }
        }
    }
}
