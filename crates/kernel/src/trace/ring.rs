//! Bounded audit ring buffer with kernel-audit-backlog drop semantics,
//! shareable across worker threads.

use super::event::AuditEvent;
use crate::sync::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default backlog, mirroring `audit_backlog_limit`-style bounds.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The stored events, kept in ascending `seq` order, and the overflow
/// count.
#[derive(Debug)]
struct Backlog {
    buf: VecDeque<AuditEvent>,
    cap: usize,
    dropped: u64,
}

impl Backlog {
    fn new(cap: usize) -> Backlog {
        Backlog {
            buf: VecDeque::with_capacity(cap.clamp(1, DEFAULT_RING_CAPACITY)),
            cap: cap.max(1),
            dropped: 0,
        }
    }
}

/// A bounded, seq-ordered buffer of audit events shareable across
/// worker threads.
///
/// Sequence numbers come from one atomic counter, so `seq` stays
/// strictly increasing and gap-revealing under concurrency. Events reach
/// [`AuditRing::push`] in whatever order their emitting threads get the
/// lock; each is inserted at its seq position (scanning from the back,
/// where it almost always belongs). When full, the lowest seq is
/// discarded and the drop counter incremented — the log never grows
/// without bound and never loses the *newest* (most relevant) events.
#[derive(Debug)]
pub struct AuditRing {
    backlog: Mutex<Backlog>,
    next_seq: AtomicU64,
}

impl Default for AuditRing {
    fn default() -> Self {
        AuditRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl AuditRing {
    /// An empty ring holding at most `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> AuditRing {
        AuditRing {
            backlog: Mutex::new(Backlog::new(cap)),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        lock(&self.backlog).cap
    }

    /// Replaces the backlog with an empty one of capacity `cap`,
    /// discarding stored events and the drop count (tests exercising
    /// overflow accounting shrink the ring this way). Sequence numbering
    /// is NOT reset — `seq` stays strictly increasing for the kernel's
    /// lifetime.
    pub fn set_capacity(&self, cap: usize) {
        *lock(&self.backlog) = Backlog::new(cap);
    }

    /// Allocates the next sequence number. Every emitted event gets one,
    /// stored or not, so `seq` gaps reveal trace-gated events.
    pub fn assign_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The sequence number the next emitted event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Stores an event at its seq position. At capacity the lowest seq
    /// is evicted — the incoming event itself, if it is older than
    /// everything stored.
    pub fn push(&self, ev: AuditEvent) {
        let mut b = lock(&self.backlog);
        if b.buf.len() >= b.cap {
            b.dropped += 1;
            if b.buf.front().is_some_and(|oldest| ev.seq < oldest.seq) {
                return;
            }
            b.buf.pop_front();
        }
        let at = b
            .buf
            .iter()
            .rposition(|e| e.seq < ev.seq)
            .map_or(0, |i| i + 1);
        b.buf.insert(at, ev);
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        lock(&self.backlog).buf.len()
    }

    /// Whether no events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded due to backlog overflow.
    pub fn dropped(&self) -> u64 {
        lock(&self.backlog).dropped
    }

    /// All stored events, oldest first.
    pub fn events(&self) -> Vec<AuditEvent> {
        lock(&self.backlog).buf.iter().cloned().collect()
    }

    /// Stored events with `seq >= since` (e.g. "everything since I last
    /// looked", using a saved [`AuditRing::next_seq`]).
    pub fn since(&self, since: u64) -> Vec<AuditEvent> {
        let b = lock(&self.backlog);
        b.buf.iter().filter(|e| e.seq >= since).cloned().collect()
    }

    /// The most recent stored event, if any.
    pub fn last(&self) -> Option<AuditEvent> {
        lock(&self.backlog).buf.back().cloned()
    }

    /// Renders the `/proc/<lsm>/audit` view: a summary header followed by
    /// one structured line per stored event.
    pub fn render(&self) -> String {
        let b = lock(&self.backlog);
        let mut out = format!(
            "# audit ring: stored={} capacity={} dropped={} next_seq={}\n",
            b.buf.len(),
            b.cap,
            b.dropped,
            self.next_seq()
        );
        for ev in &b.buf {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};

    fn ev(seq: u64) -> AuditEvent {
        AuditEvent {
            seq,
            clock: 0,
            pid: 1,
            ruid: 0,
            euid: 0,
            syscall: "test",
            object: AuditObject::None,
            provenance: Provenance::kernel(Hook::Lifecycle, DecisionKind::Info, None),
        }
    }

    fn seqs(r: &AuditRing) -> Vec<u64> {
        r.events().iter().map(|e| e.seq).collect()
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let r = AuditRing::new(3);
        for _ in 0..5 {
            r.push(ev(r.assign_seq()));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(seqs(&r), vec![2, 3, 4], "newest events are retained");
        assert_eq!(r.last().unwrap().seq, 4);
        assert_eq!(r.next_seq(), 5);
    }

    #[test]
    fn out_of_order_pushes_at_capacity_keep_seq_order_and_evict_lowest() {
        let r = AuditRing::new(3);
        for s in [4, 1, 3] {
            r.push(ev(s));
        }
        assert_eq!(seqs(&r), vec![1, 3, 4]);
        // Full: a newer event in the middle evicts seq 1.
        r.push(ev(2));
        assert_eq!(seqs(&r), vec![2, 3, 4]);
        // An event older than everything stored is itself the lowest.
        r.push(ev(0));
        assert_eq!(seqs(&r), vec![2, 3, 4]);
        r.push(ev(5));
        assert_eq!(seqs(&r), vec![3, 4, 5]);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn since_filters_by_seq() {
        let r = AuditRing::new(10);
        for _ in 0..6 {
            r.push(ev(r.assign_seq()));
        }
        let tail: Vec<u64> = r.since(4).iter().map(|e| e.seq).collect();
        assert_eq!(tail, vec![4, 5]);
    }

    #[test]
    fn render_carries_header_and_lines() {
        let r = AuditRing::new(2);
        r.push(ev(r.assign_seq()));
        let text = r.render();
        assert!(text.starts_with("# audit ring: stored=1 capacity=2 dropped=0 next_seq=1\n"));
        assert!(text.contains("seq=0"));
        assert!(text.contains("hook=lifecycle"));
    }

    #[test]
    fn concurrent_pushes_keep_every_event_ordered() {
        let r = std::sync::Arc::new(AuditRing::new(4096));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    r.push(ev(r.assign_seq()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let got = seqs(&r);
        assert_eq!(got.len(), 800);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "ring view is seq-ordered");
        assert_eq!(r.next_seq(), 800);
    }
}
