//! Per-hook and per-syscall decision counters, an errno histogram and
//! cache snapshots, accumulated per worker thread by [`ShardedMetrics`].
//!
//! The hot-path counters ([`HookCounters`], [`SyscallCounters`]) are
//! fixed arrays indexed by enum discriminant, so recording an event
//! never touches a map. Cold aggregates (errnos, cache snapshots) stay
//! in `BTreeMap`s. Rendering sorts by name at read time, which keeps the
//! `/proc/<lsm>/metrics` output byte-identical to the old all-`BTreeMap`
//! layout.

use super::event::{AuditEvent, DecisionKind, Hook};
use crate::sync::{lock, PerThread};
use crate::syscall::Syscall;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Allow/deny/use-default/defer/info counts for one key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Module-granted decisions.
    pub allow: u64,
    /// Denials.
    pub deny: u64,
    /// Stock-policy decisions.
    pub use_default: u64,
    /// Deferred decisions (pending transitions).
    pub defer: u64,
    /// Informational events.
    pub info: u64,
}

impl DecisionCounters {
    /// Increments the counter for `kind`.
    pub fn bump(&mut self, kind: DecisionKind) {
        match kind {
            DecisionKind::Allow => self.allow += 1,
            DecisionKind::Deny => self.deny += 1,
            DecisionKind::UseDefault => self.use_default += 1,
            DecisionKind::Defer => self.defer += 1,
            DecisionKind::Info => self.info += 1,
        }
    }

    /// Sum over all decision kinds.
    pub fn total(&self) -> u64 {
        self.allow + self.deny + self.use_default + self.defer + self.info
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &DecisionCounters) {
        self.allow += other.allow;
        self.deny += other.deny;
        self.use_default += other.use_default;
        self.defer += other.defer;
        self.info += other.info;
    }
}

/// Hit/miss/invalidation counters for one kernel-side cache (the VFS
/// dcache, an LSM's compiled-policy lookup caches, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the slow path.
    pub misses: u64,
    /// Times the cache was flushed (generation bump, reload, overflow)
    /// or, for the dcache, a stale entry was rejected at probe time.
    pub invalidations: u64,
}

impl CacheStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// Per-hook decision counters as a fixed array indexed by [`Hook`]
/// discriminant: bumping a counter on the dispatch path is an array write,
/// not a map lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HookCounters {
    table: [DecisionCounters; Hook::COUNT],
}

impl Default for HookCounters {
    fn default() -> HookCounters {
        HookCounters {
            table: [DecisionCounters::default(); Hook::COUNT],
        }
    }
}

impl HookCounters {
    /// Increments the counter for `hook`/`kind`.
    #[inline]
    pub fn bump(&mut self, hook: Hook, kind: DecisionKind) {
        self.table[hook.index()].bump(kind);
    }

    /// The counters for `hook` (zero if never hit).
    pub fn get(&self, hook: Hook) -> DecisionCounters {
        self.table[hook.index()]
    }

    /// Touched hooks as `(name, counters)` pairs, sorted by name — the
    /// same visiting order the old `BTreeMap` produced.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &DecisionCounters)> {
        self.into_iter()
    }

    /// Total denials across all hooks.
    pub fn total_denials(&self) -> u64 {
        self.table.iter().map(|c| c.deny).sum()
    }

    /// Adds another table into this one, element-wise.
    pub fn merge(&mut self, other: &HookCounters) {
        for (mine, theirs) in self.table.iter_mut().zip(other.table.iter()) {
            mine.merge(theirs);
        }
    }
}

impl<'a> IntoIterator for &'a HookCounters {
    type Item = (&'static str, &'a DecisionCounters);
    type IntoIter = std::vec::IntoIter<(&'static str, &'a DecisionCounters)>;

    fn into_iter(self) -> Self::IntoIter {
        let mut rows: Vec<(&'static str, &'a DecisionCounters)> = Hook::ALL
            .iter()
            .map(|h| (h.name(), &self.table[h.index()]))
            .filter(|(_, c)| c.total() > 0)
            .collect();
        rows.sort_by_key(|(name, _)| *name);
        rows.into_iter()
    }
}

/// Per-syscall decision counters: a fixed array indexed by the ABI name's
/// variant position (see [`Syscall::name_index`]) for the dispatch fast
/// path, plus a `BTreeMap` overflow for kernel-internal pathway names
/// (`"auth"`, `"register_lsm"`, `"capable"`, test fixtures, …) that are
/// not ABI syscalls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyscallCounters {
    fixed: SyscallFixed,
    overflow: BTreeMap<&'static str, DecisionCounters>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct SyscallFixed([DecisionCounters; Syscall::COUNT]);

impl Default for SyscallFixed {
    fn default() -> SyscallFixed {
        SyscallFixed([DecisionCounters::default(); Syscall::COUNT])
    }
}

impl SyscallCounters {
    /// Increments the counter for `name`/`kind`. ABI names hit the fixed
    /// table; anything else falls back to the overflow map.
    #[inline]
    pub fn bump(&mut self, name: &'static str, kind: DecisionKind) {
        match Syscall::name_index(name) {
            Some(i) => self.fixed.0[i].bump(kind),
            None => self.overflow.entry(name).or_default().bump(kind),
        }
    }

    /// The counters recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&DecisionCounters> {
        match Syscall::name_index(name) {
            Some(i) => {
                let c = &self.fixed.0[i];
                if c.total() > 0 {
                    Some(c)
                } else {
                    None
                }
            }
            None => self.overflow.get(name),
        }
    }

    /// Touched syscalls as `(name, counters)` pairs, sorted by name — the
    /// same visiting order the old `BTreeMap` produced (fixed-table and
    /// overflow rows interleaved alphabetically).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &DecisionCounters)> {
        let mut rows: Vec<(&'static str, &DecisionCounters)> = Syscall::NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| (*name, &self.fixed.0[i]))
            .filter(|(_, c)| c.total() > 0)
            .collect();
        rows.extend(self.overflow.iter().map(|(k, v)| (*k, v)));
        rows.sort_by_key(|(name, _)| *name);
        rows.into_iter()
    }

    /// Adds another table into this one.
    pub fn merge(&mut self, other: &SyscallCounters) {
        for (mine, theirs) in self.fixed.0.iter_mut().zip(other.fixed.0.iter()) {
            mine.merge(theirs);
        }
        for (k, v) in &other.overflow {
            self.overflow.entry(k).or_default().merge(v);
        }
    }
}

impl std::ops::Index<&str> for SyscallCounters {
    type Output = DecisionCounters;

    fn index(&self, name: &str) -> &DecisionCounters {
        match Syscall::name_index(name) {
            Some(i) => &self.fixed.0[i],
            None => &self.overflow[name],
        }
    }
}

/// Kernel-wide observability counters. Updated on every emitted event,
/// independent of the `trace` flag and of ring-buffer eviction.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Decision counts per LSM hook (fixed array, no map on the hot path).
    pub per_hook: HookCounters,
    /// Decision counts per syscall name (fixed array + overflow map).
    pub per_syscall: SyscallCounters,
    /// Denial errno histogram.
    pub errnos: BTreeMap<&'static str, u64>,
    /// Cache counters keyed by cache name, synchronized from the VFS
    /// dcache and the registered module's policy caches when the
    /// `/proc/<lsm>/metrics` view is rendered.
    pub caches: BTreeMap<&'static str, CacheStats>,
    /// Total events emitted.
    pub events: u64,
}

impl Metrics {
    /// Folds one event into the counters.
    pub fn record(&mut self, ev: &AuditEvent) {
        self.events += 1;
        let kind = ev.provenance.decision;
        self.per_hook.bump(ev.provenance.hook, kind);
        self.per_syscall.bump(ev.syscall, kind);
        if let Some(e) = ev.provenance.errno {
            *self.errnos.entry(e.name()).or_insert(0) += 1;
        }
    }

    /// Overwrites the snapshot for cache `name`. Cache owners keep the
    /// live counters (interior-mutable, on the hot path); this copies the
    /// current totals into the metrics view.
    pub fn record_cache(&mut self, name: &'static str, stats: CacheStats) {
        self.caches.insert(name, stats);
    }

    /// The counters for `hook` (zero if never hit).
    pub fn hook(&self, hook: Hook) -> DecisionCounters {
        self.per_hook.get(hook)
    }

    /// Total denials across all hooks.
    pub fn total_denials(&self) -> u64 {
        self.per_hook.total_denials()
    }

    /// Adds another metrics snapshot into this one (corpus aggregation).
    pub fn merge(&mut self, other: &Metrics) {
        self.events += other.events;
        self.per_hook.merge(&other.per_hook);
        self.per_syscall.merge(&other.per_syscall);
        for (k, v) in &other.errnos {
            *self.errnos.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.caches {
            self.caches.entry(k).or_default().merge(v);
        }
    }

    /// Renders the `/proc/<lsm>/metrics` view: one `key value` line per
    /// counter, stable-ordered for easy diffing.
    pub fn render(&self) -> String {
        let mut out = format!("events_total {}\n", self.events);
        for (hook, c) in self.per_hook.iter() {
            out.push_str(&format!(
                "hook_{} allow={} deny={} use_default={} defer={} info={}\n",
                hook, c.allow, c.deny, c.use_default, c.defer, c.info
            ));
        }
        for (sys, c) in self.per_syscall.iter() {
            out.push_str(&format!(
                "syscall_{} allow={} deny={} use_default={} defer={} info={}\n",
                sys, c.allow, c.deny, c.use_default, c.defer, c.info
            ));
        }
        for (errno, n) in &self.errnos {
            out.push_str(&format!("errno_{} {}\n", errno, n));
        }
        for (cache, c) in &self.caches {
            out.push_str(&format!(
                "cache_{} hits={} misses={} invalidations={}\n",
                cache, c.hits, c.misses, c.invalidations
            ));
        }
        out
    }
}

type MetricsSlot = Arc<Mutex<Metrics>>;

/// Per-worker [`Metrics`] accumulation with merge-on-snapshot.
///
/// Each thread records into its own shard (an uncontended mutex), so
/// `Kernel::dispatch` can run on many workers without funnelling every
/// event through one metrics lock; [`ShardedMetrics::snapshot`] folds
/// every shard into a single value with [`Metrics::merge`], which is
/// sound because every `Metrics` field is a sum — per-worker
/// accumulation then merging equals recording centrally in any order.
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
    use crate::trace::{AuditObject, Provenance};

    fn ev(hook: Hook, kind: DecisionKind, errno: Option<Errno>) -> AuditEvent {
        AuditEvent {
            seq: 0,
            clock: 0,
            pid: 1,
            ruid: 1000,
            euid: 1000,
            syscall: "mount",
            object: AuditObject::None,
            provenance: Provenance::lsm("protego", hook, None, kind, errno),
        }
    }

    #[test]
    fn counters_follow_decisions() {
        let mut m = Metrics::default();
        m.record(&ev(Hook::SbMount, DecisionKind::Allow, None));
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EACCES)));
        let c = m.hook(Hook::SbMount);
        assert_eq!((c.allow, c.deny, c.use_default), (1, 2, 0));
        assert_eq!(m.per_syscall["mount"].total(), 3);
        assert_eq!(m.errnos["EPERM"], 1);
        assert_eq!(m.errnos["EACCES"], 1);
        assert_eq!(m.total_denials(), 2);
    }

    #[test]
    fn non_abi_syscall_names_land_in_overflow() {
        let mut m = Metrics::default();
        let mut e = ev(Hook::Auth, DecisionKind::Info, None);
        e.syscall = "auth";
        m.record(&e);
        m.record(&ev(Hook::SbMount, DecisionKind::Allow, None));
        assert_eq!(m.per_syscall["auth"].info, 1);
        assert_eq!(m.per_syscall.get("auth").unwrap().total(), 1);
        // Sorted interleave: "auth" (overflow) precedes "mount" (fixed).
        let names: Vec<_> = m.per_syscall.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["auth", "mount"]);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        b.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        a.merge(&b);
        assert_eq!(a.hook(Hook::SbMount).deny, 2);
        assert_eq!(a.errnos["EPERM"], 2);
        assert_eq!(a.events, 2);
    }

    #[test]
    fn cache_counters_render_and_merge() {
        let mut m = Metrics::default();
        m.record_cache(
            "dcache",
            CacheStats {
                hits: 10,
                misses: 3,
                invalidations: 1,
            },
        );
        assert!(m
            .render()
            .contains("cache_dcache hits=10 misses=3 invalidations=1"));
        let mut other = Metrics::default();
        other.record_cache(
            "dcache",
            CacheStats {
                hits: 5,
                misses: 1,
                invalidations: 0,
            },
        );
        m.merge(&other);
        assert_eq!(
            m.caches["dcache"],
            CacheStats {
                hits: 15,
                misses: 4,
                invalidations: 1
            }
        );
    }

    /// Worker threads fill their own metrics shards and whichever thread
    /// takes the snapshot merges them — that only works if `Metrics`
    /// stays `Send + 'static`. This is a compile-time guarantee; the
    /// function body never runs.
    #[allow(dead_code)]
    fn metrics_crosses_threads() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Metrics>();
    }

    #[test]
    fn fixed_table_render_matches_btreemap_order() {
        // Bump hooks and syscalls deliberately out of alphabetical order;
        // the render must still come out sorted (byte-compatible with the
        // old BTreeMap layout).
        let mut m = Metrics::default();
        let mut e = ev(Hook::TaskSetuid, DecisionKind::Allow, None);
        e.syscall = "setuid";
        m.record(&e);
        let mut e = ev(Hook::Capable, DecisionKind::UseDefault, None);
        e.syscall = "chmod";
        m.record(&e);
        let text = m.render();
        let hook_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("hook_")).collect();
        assert_eq!(hook_lines.len(), 2);
        assert!(hook_lines[0].starts_with("hook_capable "));
        assert!(hook_lines[1].starts_with("hook_task_setuid "));
        let sys_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("syscall_")).collect();
        assert_eq!(sys_lines.len(), 2);
        assert!(sys_lines[0].starts_with("syscall_chmod "));
        assert!(sys_lines[1].starts_with("syscall_setuid "));
    }

    #[test]
    fn render_is_line_per_counter() {
        let mut m = Metrics::default();
        m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        let text = m.render();
        assert!(text.starts_with("events_total 1\n"));
        assert!(text.contains("hook_sb_mount allow=0 deny=1"));
        assert!(text.contains("syscall_mount"));
        assert!(text.contains("errno_EPERM 1"));
    }

    #[test]
    fn sharded_metrics_merge_across_threads() {
        let m = std::sync::Arc::new(ShardedMetrics::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    m.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.events, 400);
        assert_eq!(snap.hook(Hook::SbMount).deny, 400);
        assert_eq!(snap.per_syscall["mount"].deny, 400);
        assert_eq!(snap.errnos["EPERM"], 400);
    }
}
