//! # bench
//!
//! Workloads and fixtures for regenerating the paper's evaluation
//! (Table 5 and the ablations), driven by the `tables` binary.
//!
//! The measured quantity is the cost of the simulated operation path:
//! Protego and the legacy system run the *identical* kernel mechanism
//! plus their respective policy code, so the relative overhead isolates
//! exactly what the paper measured — the added policy checks per
//! operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fuzz;
pub mod json;
pub mod micro;
pub mod seccomp_derive;
pub mod table5;

use sim_kernel::task::Pid;
use userland::{boot, System, SystemMode};

/// A booted system plus ready sessions for benchmarking.
pub struct Fixture {
    /// The system under test.
    pub sys: System,
    /// A root session.
    pub root: Pid,
    /// An unprivileged session (alice).
    pub user: Pid,
}

/// Boots a benchmark fixture in the given mode.
pub fn fixture(mode: SystemMode) -> Fixture {
    let mut sys = boot(mode);
    let root = sys.login("root", "rootpw").expect("root login");
    let user = sys.login("alice", "alicepw").expect("user login");
    Fixture { sys, root, user }
}

/// Both systems, legacy first, so a [`paired_median`] round picks its
/// side with `&mut both[variant as usize]`.
pub fn both() -> [Fixture; 2] {
    [fixture(SystemMode::Legacy), fixture(SystemMode::Protego)]
}

/// Measures the mean wall-clock nanoseconds of `op` over `iters`
/// iterations (after `warmup` unmeasured ones): one round of
/// [`paired_median`].
pub fn quick_time_ns<F: FnMut()>(warmup: u32, iters: u32, mut op: F) -> f64 {
    for _ in 0..warmup {
        op();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Measured rounds per side of every paired comparison — the K of
/// median-of-K. Odd, so the reported median is an actually-measured
/// round rather than an average of two.
pub const MICRO_RUNS: usize = 7;

/// Median of a sample (empty -> 0).
fn median_of(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Every measured round of a baseline-vs-variant comparison (ns/op, in
/// run order), as [`paired_median`] took them.
#[derive(Clone, Debug)]
pub struct Paired {
    /// Baseline rounds.
    pub base_runs_ns: Vec<f64>,
    /// Variant rounds.
    pub variant_runs_ns: Vec<f64>,
}

impl Paired {
    /// The baseline's median round.
    pub fn base_ns(&self) -> f64 {
        median_of(&self.base_runs_ns)
    }

    /// The variant's median round.
    pub fn variant_ns(&self) -> f64 {
        median_of(&self.variant_runs_ns)
    }

    /// Percent overhead of the variant's median over the baseline's.
    pub fn overhead_pct(&self) -> f64 {
        overhead_pct(self.base_ns(), self.variant_ns())
    }
}

/// The one estimator behind every two-sided row: `round(false)` times one
/// baseline round and `round(true)` one variant round, each returning
/// ns/op.
///
/// One unmeasured round per side comes first, so one-time costs (name
/// interning, dcache fill, pool growth) never land inside a measured
/// window. Then [`MICRO_RUNS`] measured rounds per side alternate
/// pairwise (base, variant, base, ...), so host drift — frequency
/// scaling, competing load, allocator state — lands on both sides alike
/// instead of biasing whichever ran later; the median then discards
/// outlier rounds entirely, where a mean would smear them into the
/// result and a best-of pick would understate cost.
pub fn paired_median(mut round: impl FnMut(bool) -> f64) -> Paired {
    round(false);
    round(true);
    let mut p = Paired {
        base_runs_ns: Vec::with_capacity(MICRO_RUNS),
        variant_runs_ns: Vec::with_capacity(MICRO_RUNS),
    };
    for _ in 0..MICRO_RUNS {
        p.base_runs_ns.push(round(false));
        p.variant_runs_ns.push(round(true));
    }
    p
}

/// Percent overhead of `b` over `a`.
pub fn overhead_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_boot() {
        let [l, p] = both();
        assert_eq!(l.sys.mode, SystemMode::Legacy);
        assert_eq!(p.sys.mode, SystemMode::Protego);
    }

    #[test]
    fn paired_median_interleaves_after_one_unmeasured_round_per_side() {
        let mut calls = Vec::new();
        let p = paired_median(|variant| {
            calls.push(variant);
            calls.len() as f64
        });
        let order: Vec<bool> = (0..MICRO_RUNS + 1).flat_map(|_| [false, true]).collect();
        assert_eq!(calls, order);
        // Rounds 3, 5, ..., 15 and 4, 6, ..., 16: the warm-up pair is
        // discarded and each median is the middle measured round.
        assert_eq!(p.base_runs_ns.len(), MICRO_RUNS);
        assert_eq!(p.base_ns(), 9.0);
        assert_eq!(p.variant_ns(), 10.0);
        assert!((p.overhead_pct() - 100.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(100.0, 107.4) - 7.4).abs() < 1e-9);
        assert_eq!(overhead_pct(0.0, 5.0), 0.0);
        assert!(overhead_pct(100.0, 95.0) < 0.0);
    }
}
