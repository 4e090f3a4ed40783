//! Structured kernel observability: typed audit events with decision
//! provenance, a bounded ring buffer with kernel-audit-backlog drop
//! semantics, and per-hook / per-syscall decision metrics.
//!
//! This replaces the original unbounded `Vec<String>` audit trail. Every
//! policy-relevant decision site in the syscall layer now emits an
//! [`AuditEvent`] carrying *which* LSM hook decided, *which* policy rule
//! matched (when the module tracks one), the resulting decision kind and
//! errno, and the subject (pid + credentials) and object (path, port,
//! device, uid…) involved. Events carry typed fields only; text exists
//! only when a reader asks for it ([`AuditEvent::render`], the
//! `/proc/<lsm>/audit` view), so emitting an event allocates nothing
//! beyond what its object owns.
//!
//! Recording policy (see `Kernel::emit_event`):
//!
//! * `Deny` events are **always** recorded — dropping security denials
//!   because tracing is off would blind incident response;
//! * all other kinds (`Allow`, `UseDefault`, `Defer`, `Info`) are
//!   recorded only when `Kernel::trace` is on;
//! * [`Metrics`] counters observe every emitted event regardless of the
//!   flag.

mod event;
pub mod hist;
mod metrics;
mod recorder;
mod ring;
pub mod span;

pub use event::{AuditEvent, AuditObject, DecisionKind, Hook, Provenance};
pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub use metrics::{
    CacheStats, DecisionCounters, HookCounters, Metrics, ShardedMetrics, SyscallCounters,
};
pub use recorder::{Divergence, Trace, TraceEntry, TraceError, TraceRecorder, TraceReplayer};
pub use ring::{AuditRing, DEFAULT_RING_CAPACITY};
pub use span::{span, Pathway, SpanGuard, TimingSnapshot};
