//! The latency histogram's quantiles are within one bucket (<= 1%) of
//! the exact quantiles, and it never allocates after construction.

use e2e_bench::hist::{bucket_of, bucket_width, LatencyHist};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calling thread's allocations, so tests running on other
/// threads do not disturb the count.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Log-uniform nanosecond latencies between 100 ns and ~10 ms.
fn sample(n: usize) -> Vec<u64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let exp = 100f64.ln() + (x % 1_000_000) as f64 / 1e6 * 1e5f64.ln();
            exp.exp() as u64
        })
        .collect()
}

#[test]
fn quantiles_are_within_one_bucket_of_exact() {
    let values = sample(100_000);
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let mut hist = LatencyHist::new();
    for &v in &values {
        hist.record(v);
    }
    assert_eq!(hist.count(), values.len() as u64);
    for q in [0.5, 0.9, 0.99, 0.999] {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        let exact = sorted[rank - 1];
        let width = bucket_width(bucket_of(exact));
        assert!(width as f64 <= exact as f64 / 100.0, "bucket wider than 1%");
        let got = hist.quantile(q);
        assert!(
            (got - exact as f64).abs() <= width as f64,
            "q={q}: histogram {got}, exact {exact}"
        );
    }
}

#[test]
fn no_allocation_after_construction() {
    let values = sample(10_000);
    let mut hist = LatencyHist::new();
    let before = allocations();
    for round in 0..3 {
        hist.clear();
        for &v in &values {
            hist.record(v + round);
        }
        std::hint::black_box((hist.quantile(0.5), hist.quantile(0.99)));
    }
    assert_eq!(allocations(), before);
}
