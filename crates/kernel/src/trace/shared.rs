//! Concurrency-ready wrappers over the audit ring and metrics: a
//! [`SharedAuditRing`] with per-worker staged (batched) writes, and
//! [`ShardedMetrics`] accumulating per-worker and merging on snapshot.
//!
//! Both exist so that `Kernel::dispatch` can take `&self` and be driven
//! from many worker threads against one kernel without funnelling every
//! syscall through a single audit/metrics lock:
//!
//! * audit events are staged in a per-thread buffer and flushed into the
//!   bounded ring in one lock acquisition per [`AUDIT_STAGE_BATCH`]
//!   events — except denials, which flush immediately (denials are
//!   always recorded, never parked in a buffer);
//! * every read API flushes **all** threads' staging first and re-sorts
//!   the ring by sequence number, so `/proc/<lsm>/audit` never shows a
//!   stale or out-of-order view;
//! * metrics accumulate into a per-thread [`Metrics`] shard without any
//!   cross-worker contention; [`ShardedMetrics::snapshot`] merges all
//!   shards into one value.

use super::event::AuditEvent;
use super::metrics::Metrics;
use super::ring::{AuditRing, DEFAULT_RING_CAPACITY};
use crate::sync::{lock, PerThread};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Staged events per worker before a batched ring flush.
pub const AUDIT_STAGE_BATCH: usize = 32;

type StageSlot = Arc<Mutex<Vec<AuditEvent>>>;

/// A bounded audit ring shareable across worker threads.
///
/// Wraps one [`AuditRing`] behind a mutex, assigns sequence numbers from
/// an atomic (so `seq` stays gap-revealing and strictly increasing even
/// under concurrency), and batches writes through per-thread staging
/// buffers registered in a shared list — a reader on any thread can
/// drain every writer's staging.
pub struct SharedAuditRing {
    ring: Mutex<AuditRing>,
    next_seq: AtomicU64,
    stages: Mutex<Vec<StageSlot>>,
    my_stage: PerThread<Option<StageSlot>>,
}

impl Default for SharedAuditRing {
    fn default() -> Self {
        SharedAuditRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl std::fmt::Debug for SharedAuditRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedAuditRing")
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl SharedAuditRing {
    /// An empty shared ring holding at most `cap` events.
    pub fn new(cap: usize) -> SharedAuditRing {
        SharedAuditRing {
            ring: Mutex::new(AuditRing::new(cap)),
            next_seq: AtomicU64::new(0),
            stages: Mutex::new(Vec::new()),
            my_stage: PerThread::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        lock(&self.ring).capacity()
    }

    /// Replaces the inner ring with an empty one of capacity `cap`,
    /// discarding stored and staged events (tests exercising overflow
    /// accounting shrink the ring this way). Sequence numbering is NOT
    /// reset — `seq` stays strictly increasing for the kernel's lifetime.
    pub fn set_capacity(&self, cap: usize) {
        self.flush();
        *lock(&self.ring) = AuditRing::new(cap);
    }

    /// Allocates the next sequence number (0-based, return-then-increment
    /// like [`AuditRing::assign_seq`]).
    pub fn assign_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The sequence number the next emitted event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// This thread's staging buffer, registering it on first use.
    fn stage(&self) -> StageSlot {
        self.my_stage.with(|slot| match slot {
            Some(s) => Arc::clone(s),
            None => {
                let s: StageSlot = Arc::new(Mutex::new(Vec::new()));
                lock(&self.stages).push(Arc::clone(&s));
                *slot = Some(Arc::clone(&s));
                s
            }
        })
    }

    /// Stages an event for the ring. Denials flush immediately (they are
    /// always recorded); informational events flush once the staging
    /// buffer reaches [`AUDIT_STAGE_BATCH`], amortizing the ring lock.
    pub fn push(&self, ev: AuditEvent) {
        let urgent = ev.is_denial();
        let stage = self.stage();
        let staged = {
            let mut s = lock(&stage);
            s.push(ev);
            s.len()
        };
        if urgent || staged >= AUDIT_STAGE_BATCH {
            self.flush();
        }
    }

    /// Drains every thread's staging buffer into the ring in one ring
    /// lock acquisition, restoring seq order.
    pub fn flush(&self) {
        let mut batch: Vec<AuditEvent> = Vec::new();
        {
            let stages = lock(&self.stages);
            for s in stages.iter() {
                batch.append(&mut lock(s));
            }
        }
        if batch.is_empty() {
            return;
        }
        batch.sort_by_key(|e| e.seq);
        let mut ring = lock(&self.ring);
        for ev in batch {
            ring.push(ev);
        }
        ring.sort_by_seq();
    }

    /// Number of events currently stored (staging flushed first).
    pub fn len(&self) -> usize {
        self.flush();
        lock(&self.ring).len()
    }

    /// Whether no events are stored (staging flushed first).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded due to backlog overflow.
    pub fn dropped(&self) -> u64 {
        self.flush();
        lock(&self.ring).dropped
    }

    /// All stored events, oldest first (staging flushed first).
    pub fn events(&self) -> Vec<AuditEvent> {
        self.flush();
        lock(&self.ring).iter().cloned().collect()
    }

    /// Stored events with `seq >= since` (staging flushed first).
    pub fn since(&self, since: u64) -> Vec<AuditEvent> {
        self.flush();
        lock(&self.ring).since(since).cloned().collect()
    }

    /// The most recent stored event, if any (staging flushed first).
    pub fn last(&self) -> Option<AuditEvent> {
        self.flush();
        lock(&self.ring).last().cloned()
    }

    /// Discards all stored and staged events (drop/seq counters kept).
    pub fn clear(&self) {
        let stages = lock(&self.stages);
        for s in stages.iter() {
            lock(s).clear();
        }
        drop(stages);
        lock(&self.ring).clear();
    }

    /// Renders the `/proc/<lsm>/audit` view (staging flushed first, so
    /// the rendering is never stale or out of order).
    pub fn render(&self) -> String {
        self.flush();
        lock(&self.ring).render()
    }
}

type MetricsSlot = Arc<Mutex<Metrics>>;

/// Per-worker [`Metrics`] accumulation with merge-on-snapshot.
///
/// Each thread records into its own shard (an uncontended mutex);
/// [`ShardedMetrics::snapshot`] folds every shard into a single value
/// with [`Metrics::merge`], which is sound because every `Metrics` field
/// is a sum, count, min/max, or bucketed histogram — all commutative
/// monoids, so per-worker accumulation then merging equals recording
/// centrally in any order.
#[derive(Default)]
pub struct ShardedMetrics {
    shards: Mutex<Vec<MetricsSlot>>,
    my_shard: PerThread<Option<MetricsSlot>>,
}

impl std::fmt::Debug for ShardedMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMetrics").finish()
    }
}

impl ShardedMetrics {
    /// An empty sharded collector.
    pub fn new() -> ShardedMetrics {
        ShardedMetrics::default()
    }

    /// Runs `f` over this thread's shard, registering it on first use.
    pub fn with<R>(&self, f: impl FnOnce(&mut Metrics) -> R) -> R {
        let shard = self.my_shard.with(|slot| match slot {
            Some(s) => Arc::clone(s),
            None => {
                let s: MetricsSlot = Arc::new(Mutex::new(Metrics::default()));
                lock(&self.shards).push(Arc::clone(&s));
                *slot = Some(Arc::clone(&s));
                s
            }
        });
        let mut m = lock(&shard);
        f(&mut m)
    }

    /// Folds an audit event into this thread's shard.
    pub fn record(&self, ev: &AuditEvent) {
        self.with(|m| m.record(ev));
    }

    /// Observes a named latency sample on this thread's shard.
    pub fn observe_latency(&self, pathway: &'static str, delta: u64) {
        self.with(|m| m.observe_latency(pathway, delta));
    }

    /// Merges every worker's shard into one self-contained value.
    pub fn snapshot(&self) -> Metrics {
        let mut out = Metrics::default();
        let shards = lock(&self.shards);
        for s in shards.iter() {
            out.merge(&lock(s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Errno;
    use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};

    fn ev(ring: &SharedAuditRing, deny: bool) -> AuditEvent {
        let (kind, errno) = if deny {
            (DecisionKind::Deny, Some(Errno::EPERM))
        } else {
            (DecisionKind::Info, None)
        };
        AuditEvent {
            seq: ring.assign_seq(),
            clock: 0,
            pid: 1,
            ruid: 0,
            euid: 0,
            syscall: "test",
            object: AuditObject::None,
            provenance: Provenance::kernel(Hook::Lifecycle, kind, errno),
            message: "m".into(),
        }
    }

    #[test]
    fn denials_flush_immediately_infos_batch() {
        let r = SharedAuditRing::new(256);
        let info = ev(&r, false);
        r.push(info);
        // Staged, not yet in the ring (peek without flushing).
        assert_eq!(lock(&r.ring).len(), 0);
        let deny = ev(&r, true);
        r.push(deny);
        // The denial flushed everything staged so far.
        assert_eq!(lock(&r.ring).len(), 2);
    }

    #[test]
    fn reads_flush_and_sort() {
        let r = SharedAuditRing::new(256);
        for _ in 0..5 {
            let e = ev(&r, false);
            r.push(e);
        }
        assert_eq!(r.len(), 5);
        let seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.last().unwrap().seq, 4);
        assert_eq!(r.since(3).len(), 2);
        assert_eq!(r.next_seq(), 5);
    }

    #[test]
    fn cross_thread_staging_is_visible_to_any_reader() {
        let r = std::sync::Arc::new(SharedAuditRing::new(256));
        let r2 = std::sync::Arc::clone(&r);
        std::thread::spawn(move || {
            let e = ev(&r2, false);
            r2.push(e);
        })
        .join()
        .unwrap();
        // The writer thread exited with its event still staged; this
        // thread's read drains it.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn concurrent_pushes_keep_every_event_ordered() {
        let r = std::sync::Arc::new(SharedAuditRing::new(4096));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let e = ev(&r, i % 50 == 0);
                    r.push(e);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = r.events();
        assert_eq!(events.len(), 800);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "ring view is seq-ordered");
        assert_eq!(r.next_seq(), 800);
    }

    #[test]
    fn sharded_metrics_merge_across_threads() {
        let m = std::sync::Arc::new(ShardedMetrics::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    m.observe_latency("p", 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        let stats = snap.latency.get("p").expect("latency recorded");
        assert_eq!(stats.samples, 400);
        assert_eq!(stats.mean(), 3);
    }
}
