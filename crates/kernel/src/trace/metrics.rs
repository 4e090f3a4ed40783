//! Per-hook and per-syscall decision counters, an errno histogram, and
//! logical-clock latency observations.
//!
//! The hot-path counters ([`HookCounters`], [`SyscallCounters`]) are
//! fixed arrays indexed by enum discriminant, so recording an event
//! never touches a map. Cold
//! aggregates (errnos, named latency pathways, cache snapshots) stay in
//! `BTreeMap`s. Rendering sorts by name at read time, which keeps the
//! `/proc/<lsm>/metrics` output byte-identical to the old all-`BTreeMap`
//! layout.

use super::event::{AuditEvent, DecisionKind, Hook};
use crate::syscall::Syscall;
use std::collections::BTreeMap;

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
    /// Times the cache was flushed (generation bump, reload, overflow).
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

/// Logical-clock latency aggregate for one pathway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of observations.
    pub samples: u64,
    /// Sum of observed logical-clock deltas.
    pub total: u64,
    /// Smallest observed delta (`u64::MAX` until the first observation,
    /// so merges are order-independent; use [`LatencyStats::observed_min`]
    /// for display).
    pub min: u64,
    /// Largest observed delta.
    pub max: u64,
}

impl Default for LatencyStats {
    fn default() -> LatencyStats {
        LatencyStats {
            samples: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyStats {
    /// Records one observation.
    pub fn observe(&mut self, delta: u64) {
        self.samples += 1;
        // Saturating like `LatencyHistogram::observe`: a clamped sum of
        // non-negative deltas is still order-independent under merge.
        self.total = self.total.saturating_add(delta);
        self.min = self.min.min(delta);
        self.max = self.max.max(delta);
    }

    /// The smallest observation, or 0 when empty (the sentinel never
    /// leaks into rendered output).
    pub fn observed_min(&self) -> u64 {
        if self.samples == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean observation (0 when empty) — preserved exactly across merges
    /// because `samples` and `total` both fold.
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.samples).unwrap_or(0)
    }

    /// Adds another aggregate into this one. Folds every field — samples,
    /// total, min, and max — so thread merges lose no fidelity and are
    /// associative, commutative, and order-independent.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples += other.samples;
        self.total = self.total.saturating_add(other.total);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
        let mut rows: Vec<(&'static str, &DecisionCounters)> = Hook::ALL
            .iter()
            .map(|h| (h.name(), &self.table[h.index()]))
            .filter(|(_, c)| c.total() > 0)
            .collect();
        rows.sort_by_key(|(name, _)| *name);
        rows.into_iter()
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
    /// Logical-clock latency aggregates (e.g. authentication prompts).
    pub latency: BTreeMap<&'static str, LatencyStats>,
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

    /// Records a logical-clock latency observation.
    pub fn observe_latency(&mut self, pathway: &'static str, delta: u64) {
        self.latency.entry(pathway).or_default().observe(delta);
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
        for (k, v) in &other.latency {
            self.latency.entry(k).or_default().merge(v);
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
        for (pathway, l) in &self.latency {
            out.push_str(&format!(
                "latency_{} samples={} total={} min={} max={}\n",
                pathway,
                l.samples,
                l.total,
                l.observed_min(),
                l.max
            ));
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
            message: String::new(),
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
    fn latency_aggregates() {
        let mut m = Metrics::default();
        m.observe_latency("auth", 3);
        m.observe_latency("auth", 7);
        let l = m.latency["auth"];
        assert_eq!((l.samples, l.total, l.max), (2, 10, 7));
        assert_eq!(l.observed_min(), 3);
        assert_eq!(l.mean(), 5);
    }

    #[test]
    fn latency_merge_keeps_min_and_mean_fidelity() {
        let mut a = LatencyStats::default();
        a.observe(10);
        a.observe(20);
        let mut b = LatencyStats::default();
        b.observe(2);
        // Merge order must not matter, and min/mean must survive.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.observed_min(), 2);
        assert_eq!(ab.mean(), 32 / 3);
        // An empty aggregate is the merge identity.
        let mut with_empty = ab;
        with_empty.merge(&LatencyStats::default());
        assert_eq!(with_empty, ab);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        b.record(&ev(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)));
        b.observe_latency("auth", 5);
        a.merge(&b);
        assert_eq!(a.hook(Hook::SbMount).deny, 2);
        assert_eq!(a.errnos["EPERM"], 2);
        assert_eq!(a.latency["auth"].samples, 1);
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
}
