//! The seed fixes the inputs: the same seed gives the same privops order
//! and the same per-layer counts, another seed another order.

use e2e_bench::images::{PrivSeq, PRIVOPS};
use e2e_bench::{run, Workload};

fn privops_order(seed: u64, n: usize) -> Vec<&'static str> {
    let mut seq = PrivSeq::new(seed);
    (0..n).map(|_| PRIVOPS[seq.next_op()].name).collect()
}

#[test]
fn seed_fixes_the_privops_order() {
    let a = privops_order(7, 256);
    assert_eq!(a, privops_order(7, 256));
    assert_ne!(a, privops_order(8, 256));
    for cycle in a.chunks(8) {
        let mut sorted = cycle.to_vec();
        sorted.sort();
        let mut all: Vec<_> = PRIVOPS.iter().map(|p| p.name).collect();
        all.sort();
        assert_eq!(sorted, all, "each cycle runs every entry once");
        let at = |name| cycle.iter().position(|&n| n == name).unwrap();
        assert!(at("mount") < at("umount"));
    }
}

/// Counts that depend only on which operations ran, not on timing.
fn is_count(name: &str) -> bool {
    let name = name.strip_prefix("legacy.").unwrap_or(name);
    name == "userland.kernel_entries_per_op"
        || (name.starts_with("syscall.") && name.ends_with("_calls_per_op"))
        || name == "vfs.resolves_per_op"
        || name == "lsm.deny_per_op"
        || name == "audit.events_per_op"
}

#[test]
fn same_seed_repeats_per_layer_counts_exactly() {
    for w in [Workload::Web, Workload::Mail, Workload::Privops] {
        let counts = || -> Vec<(String, f64)> {
            let r = run(w, 3, 0.2, true).expect("traced run");
            assert!(r.correct(), "{}", w.name());
            r.metrics
                .into_iter()
                .filter(|m| is_count(&m.name))
                .map(|m| (m.name, m.value))
                .collect()
        };
        let first = counts();
        assert_eq!(first.len(), 2 * 9);
        assert_eq!(first, counts(), "{}", w.name());
    }
}
