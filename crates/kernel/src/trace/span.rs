//! Kernel-wide timing spans with per-pathway latency histograms.
//!
//! A [`SpanGuard`] brackets one traversal of a named kernel pathway
//! (syscall dispatch, an interceptor pass, a `SecurityModule` hook, the
//! VFS resolve walk, …). Spans nest: the registry keeps a stack of
//! child-time accumulators so each pathway is charged its **self time**
//! (elapsed minus time spent in nested spans) as well as its inclusive
//! elapsed time. Summed self time over all pathways therefore equals the
//! root-span wall time by construction, which is what lets the
//! span-attribution test (`tests/span_attribution.rs`) require ≥95% of
//! dispatched time on named pathways. The end-to-end benchmark roots its
//! traced run at the workload request instead and reports the userland
//! driver as a layer of its own.
//!
//! Cost model:
//!
//! * **Hot path, enabled** — two `Instant` reads (`Instant::now` at enter,
//!   `elapsed` at drop) plus a thread-local histogram update. No
//!   allocation beyond the amortised span-stack `Vec` growth.
//! * **Hot path, disabled** (the default) — one thread-local `Cell<bool>`
//!   read; the guard carries `None` and drop is a no-op. [`set_enabled`]
//!   is the only switch.
//!
//! The registry is **thread-local**: each worker thread gets an
//! isolated set of histograms for free, and snapshots are merged across
//! threads exactly like [`super::Metrics`]. The caveat is the converse:
//! two `Kernel` instances driven on the *same* thread share one registry,
//! so profilers [`reset`] it between runs.

use super::hist::LatencyHistogram;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Declares [`Pathway`] from one table: each variant with its doc and
/// its stable name. `ALL`, [`PATHWAY_COUNT`] and `name()` all come from
/// the table, so a pathway is listed once.
macro_rules! pathways {
    ($($(#[$doc:meta])* $variant:ident => $name:literal;)*) => {
        /// A named kernel pathway that feeds a latency histogram.
        ///
        /// Variants are fieldless so the registry can be a fixed array
        /// indexed by discriminant — no allocation or map lookup on the
        /// hot path.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Pathway {
            $($(#[$doc])* $variant,)*
        }

        /// Number of pathways (the registry array length).
        pub const PATHWAY_COUNT: usize = [$($name),*].len();

        impl Pathway {
            /// Every pathway, in discriminant order.
            pub const ALL: [Pathway; PATHWAY_COUNT] = [$(Pathway::$variant),*];

            /// Stable snake_case name used in `/proc/kernel/histograms`
            /// and the profile snapshot schema.
            pub fn name(self) -> &'static str {
                match self {
                    $(Pathway::$variant => $name,)*
                }
            }
        }
    };
}

pathways! {
    /// `Kernel::dispatch` end to end (the root span for syscalls).
    Dispatch => "dispatch";
    /// Interceptor chain `before` pass.
    InterceptBefore => "intercept_before";
    /// Interceptor chain `after` pass.
    InterceptAfter => "intercept_after";
    /// Filesystem-class syscall body.
    SysFs => "sys_fs";
    /// Identity-class (setuid/setgid/…) syscall body.
    SysId => "sys_id";
    /// Ioctl-class syscall body.
    SysIoctl => "sys_ioctl";
    /// Mount-class syscall body.
    SysMount => "sys_mount";
    /// Network-class syscall body.
    SysNet => "sys_net";
    /// Process-class syscall body.
    SysProcess => "sys_process";
    /// VFS path resolution (`resolve_cached` end to end).
    VfsResolve => "vfs_resolve";
    /// Dcache probe inside a resolve (hit or miss bookkeeping).
    DcacheProbe => "dcache_probe";
    /// Audit event emission: metrics record + ring push.
    AuditEmit => "audit_emit";
    /// `SecurityModule::capable`.
    LsmCapable => "lsm_capable";
    /// `SecurityModule::sb_mount`.
    LsmSbMount => "lsm_sb_mount";
    /// `SecurityModule::sb_umount`.
    LsmSbUmount => "lsm_sb_umount";
    /// `SecurityModule::socket_create`.
    LsmSocketCreate => "lsm_socket_create";
    /// `SecurityModule::socket_bind`.
    LsmSocketBind => "lsm_socket_bind";
    /// `SecurityModule::task_setuid`.
    LsmTaskSetuid => "lsm_task_setuid";
    /// `SecurityModule::task_setgid`.
    LsmTaskSetgid => "lsm_task_setgid";
    /// `SecurityModule::bprm_check`.
    LsmBprmCheck => "lsm_bprm_check";
    /// The four ioctl route/modem/dmcrypt/kms hooks.
    LsmIoctl => "lsm_ioctl";
    /// `SecurityModule::file_open`.
    LsmFileOpen => "lsm_file_open";
    /// LSM config-file reads and writes (`/proc/<lsm>/…`).
    LsmConfig => "lsm_config";
    /// `SecurityModule::boot_netfilter_rules`.
    LsmNetfilter => "lsm_netfilter";
    /// Policy decision caches (AppArmor's per-profile decision LRU).
    PolicyCache => "policy_cache";
    /// Name-interner insert path (`Name::intern` on a miss or first use).
    Intern => "intern";
}

impl Pathway {
    /// The syscall-body pathway for a dispatch class.
    pub fn for_class(class: crate::syscall::SyscallClass) -> Pathway {
        use crate::syscall::SyscallClass;
        match class {
            SyscallClass::Fs => Pathway::SysFs,
            SyscallClass::Id => Pathway::SysId,
            SyscallClass::Ioctl => Pathway::SysIoctl,
            SyscallClass::Mount => Pathway::SysMount,
            SyscallClass::Net => Pathway::SysNet,
            SyscallClass::Process => Pathway::SysProcess,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A mergeable, thread-crossing copy of one thread's timing state.
///
/// Mirrors the [`super::Metrics`] contract: plain data, `Send`, merged
/// element-wise so cross-thread aggregation is order-independent.
#[derive(Clone, Debug, Default)]
pub struct TimingSnapshot {
    /// Inclusive-latency histogram per pathway, indexed by discriminant.
    pub hists: Vec<LatencyHistogram>,
    /// Self time (inclusive minus nested-span time) per pathway, ns.
    pub self_ns: Vec<u64>,
    /// Wall time covered by root (outermost) spans, ns.
    pub root_ns: u64,
    /// Number of root spans observed.
    pub root_spans: u64,
}

impl TimingSnapshot {
    /// An empty snapshot with one slot per pathway.
    pub fn new() -> TimingSnapshot {
        TimingSnapshot {
            hists: vec![LatencyHistogram::new(); PATHWAY_COUNT],
            self_ns: vec![0; PATHWAY_COUNT],
            root_ns: 0,
            root_spans: 0,
        }
    }

    /// The histogram for `p` (empty histogram if the snapshot was built
    /// by an older/smaller layout).
    pub fn hist(&self, p: Pathway) -> &LatencyHistogram {
        static EMPTY: LatencyHistogram = LatencyHistogram::new();
        self.hists.get(p.index()).unwrap_or(&EMPTY)
    }

    /// Self time attributed to `p`, in nanoseconds.
    pub fn self_ns(&self, p: Pathway) -> u64 {
        self.self_ns.get(p.index()).copied().unwrap_or(0)
    }

    /// Total self time attributed across all pathways, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Percentage of root wall time attributed to named pathways.
    /// 100.0 when no root time was recorded (vacuously complete).
    pub fn attributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            100.0
        } else {
            self.attributed_ns() as f64 * 100.0 / self.root_ns as f64
        }
    }

    /// Whether any span was recorded.
    pub fn is_empty(&self) -> bool {
        self.root_spans == 0 && self.hists.iter().all(|h| h.is_empty())
    }

    /// Folds another snapshot into this one (element-wise; associative
    /// and commutative).
    pub fn merge(&mut self, other: &TimingSnapshot) {
        if self.hists.len() < other.hists.len() {
            self.hists
                .resize_with(other.hists.len(), LatencyHistogram::new);
            self.self_ns.resize(other.self_ns.len(), 0);
        }
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns.iter()) {
            *mine += theirs;
        }
        self.root_ns += other.root_ns;
        self.root_spans += other.root_spans;
    }

    /// Renders the `/proc/kernel/histograms` text: one line per touched
    /// pathway plus root-span summary lines. Stable, line-per-counter
    /// format like [`super::Metrics::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in Pathway::ALL {
            let h = self.hist(p);
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "hist_{} count={} total_ns={} self_ns={} min={} p50={} p95={} p99={} max={}\n",
                p.name(),
                h.count,
                h.total,
                self.self_ns(p),
                h.observed_min(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max,
            ));
        }
        out.push_str(&format!("root_spans {}\n", self.root_spans));
        out.push_str(&format!("root_total_ns {}\n", self.root_ns));
        out.push_str(&format!("attributed_self_ns {}\n", self.attributed_ns()));
        out
    }
}

struct Registry {
    hists: [LatencyHistogram; PATHWAY_COUNT],
    self_ns: [u64; PATHWAY_COUNT],
    /// One child-time accumulator per live (entered, not yet dropped)
    /// span on this thread.
    stack: Vec<u64>,
    root_ns: u64,
    root_spans: u64,
}

impl Registry {
    const fn new() -> Registry {
        const EMPTY: LatencyHistogram = LatencyHistogram::new();
        Registry {
            hists: [EMPTY; PATHWAY_COUNT],
            self_ns: [0; PATHWAY_COUNT],
            stack: Vec::new(),
            root_ns: 0,
            root_spans: 0,
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REGISTRY: RefCell<Registry> = const { RefCell::new(Registry::new()) };
}

/// Guard for one pathway traversal; records on drop.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    pathway: Pathway,
    start: Option<Instant>,
}

/// Opens a span over `pathway`. When timing is disabled (the default)
/// this costs a single thread-local flag read and the returned guard
/// is inert.
#[inline]
pub fn span(pathway: Pathway) -> SpanGuard {
    if !ENABLED.with(|e| e.get()) {
        return SpanGuard {
            pathway,
            start: None,
        };
    }
    REGISTRY.with(|r| r.borrow_mut().stack.push(0));
    SpanGuard {
        pathway,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed().as_nanos() as u64;
        REGISTRY.with(|r| {
            let mut reg = r.borrow_mut();
            // A reset() between enter and exit empties the stack; the
            // span then records nothing rather than corrupting state.
            let Some(child_ns) = reg.stack.pop() else {
                return;
            };
            let idx = self.pathway as usize;
            reg.hists[idx].observe(elapsed);
            reg.self_ns[idx] += elapsed.saturating_sub(child_ns);
            if let Some(parent) = reg.stack.last_mut() {
                *parent += elapsed;
            } else {
                reg.root_ns += elapsed;
                reg.root_spans += 1;
            }
        });
    }
}

/// Turns span timing on or off for the current thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether span timing is currently enabled on this thread.
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Clears the current thread's histograms and span stack.
pub fn reset() {
    REGISTRY.with(|r| *r.borrow_mut() = Registry::new());
}

/// Copies the current thread's timing state into a mergeable
/// snapshot.
pub fn snapshot() -> TimingSnapshot {
    REGISTRY.with(|r| {
        let reg = r.borrow();
        TimingSnapshot {
            hists: reg.hists.to_vec(),
            self_ns: reg.self_ns.to_vec(),
            root_ns: reg.root_ns,
            root_spans: reg.root_spans,
        }
    })
}

/// Renders the current thread's timing state as `/proc/kernel/histograms`
/// text.
pub fn render() -> String {
    snapshot().render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fresh() {
        reset();
        set_enabled(true);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        reset();
        set_enabled(false);
        {
            let _g = span(Pathway::Dispatch);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_nesting_child_time_within_parent() {
        fresh();
        {
            let _parent = span(Pathway::Dispatch);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _child = span(Pathway::SysId);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let s = snapshot();
        let parent = s.hist(Pathway::Dispatch);
        let child = s.hist(Pathway::SysId);
        assert_eq!(parent.count, 1);
        assert_eq!(child.count, 1);
        // Child inclusive time is contained in the parent's.
        assert!(child.total <= parent.total);
        // Parent self time excludes the child's inclusive time.
        assert_eq!(
            s.self_ns(Pathway::Dispatch),
            parent.total - child.total,
            "parent self = parent elapsed - child elapsed"
        );
        // All self time sums back to root wall time.
        assert_eq!(s.attributed_ns(), s.root_ns);
        assert_eq!(s.root_spans, 1);
        assert!((s.attributed_pct() - 100.0).abs() < 1e-9);
        reset();
    }

    #[test]
    fn sibling_spans_attribute_fully() {
        fresh();
        {
            let _root = span(Pathway::Dispatch);
            for _ in 0..3 {
                let _a = span(Pathway::VfsResolve);
                let _b = span(Pathway::DcacheProbe);
            }
        }
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.hist(Pathway::VfsResolve).count, 3);
        assert_eq!(s.hist(Pathway::DcacheProbe).count, 3);
        assert_eq!(s.attributed_ns(), s.root_ns);
        reset();
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        fresh();
        {
            let _g = span(Pathway::LsmTaskSetgid);
        }
        let a = snapshot();
        reset();
        set_enabled(true);
        {
            let _g = span(Pathway::LsmTaskSetuid);
        }
        let b = snapshot();
        set_enabled(false);
        reset();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.root_spans, 2);
        assert_eq!(ab.root_spans, ba.root_spans);
        assert_eq!(ab.root_ns, ba.root_ns);
        assert_eq!(ab.attributed_ns(), ba.attributed_ns());
        assert_eq!(ab.hist(Pathway::LsmTaskSetgid).count, 1);
        assert_eq!(ab.hist(Pathway::LsmTaskSetuid).count, 1);
    }

    #[test]
    fn render_lists_touched_pathways_only() {
        fresh();
        {
            let _g = span(Pathway::AuditEmit);
        }
        set_enabled(false);
        let text = snapshot().render();
        assert!(text.contains("hist_audit_emit count=1"));
        assert!(!text.contains("hist_sys_net"));
        assert!(text.contains("root_spans 1"));
        reset();
    }
}
