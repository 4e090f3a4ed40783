//! The kernel: global state, LSM and authentication plumbing, logical
//! clock, and audit tracing. The system-call surface is implemented in the
//! [`crate::syscall`] modules as further `impl Kernel` blocks.
//!
//! Every entry point takes `&self`: the kernel is designed to be wrapped
//! in an [`SharedKernel`] handle and dispatched into from many worker
//! threads at once. Mutable state lives behind fine-grained interior
//! locks — the sharded VFS namespace, a sharded task table, [`Locked`]
//! wrappers around the peripheral subsystems, atomics for the clock and
//! pid counter, per-worker metrics shards, and one mutex over the audit
//! ring. See `DESIGN.md` §13 for the lock hierarchy.

use crate::caps::Cap;
use crate::cred::{Credentials, Uid};
use crate::dev::{
    BlockState, DevId, DeviceKind, DeviceRegistry, DmCryptState, KmsState, ModemState,
};
use crate::error::{Errno, KResult};
use crate::lsm::{Answer, AuthProof, AuthProvider, AuthScope, RuleId, Ruling, SecurityModule};
use crate::net::{NetStack, Netfilter, RouteTable, SimNet};
use crate::sync::{lock, read, write, CachePadded, Locked};
use crate::task::{Pid, PipeId, Task, TaskIdentity};
use crate::trace::{AuditEvent, AuditObject, AuditRing, DecisionKind, Hook, Metrics, Pathway};
use crate::trace::{Provenance, ShardedMetrics};
use crate::vfs::{Ino, InodeData, Mode, ProcHook, Vfs};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A pipe buffer.
#[derive(Debug, Default, Clone)]
pub struct Pipe {
    /// Buffered bytes.
    pub buf: VecDeque<u8>,
    /// Live read ends.
    pub readers: u32,
    /// Live write ends.
    pub writers: u32,
}

/// The pipe arena: a slot vector with a free list, so open/close cycles
/// reuse slots instead of growing the kernel forever (the original
/// `Vec<Pipe>` leaked one slot per `pipe(2)` call).
///
/// A slot is freed when its last read *and* write end are released; the
/// [`PipeId`] is then eligible for reuse by a later `pipe(2)`.
#[derive(Debug, Default)]
pub struct PipeArena {
    inner: Mutex<PipeSlots>,
}

#[derive(Debug, Default)]
struct PipeSlots {
    slots: Vec<Option<Pipe>>,
    free: Vec<usize>,
}

impl PipeArena {
    /// Allocates a fresh pipe (one reader, one writer), reusing a freed
    /// slot when available.
    pub fn alloc(&self) -> PipeId {
        let mut inner = lock(&self.inner);
        let pipe = Pipe {
            buf: VecDeque::new(),
            readers: 1,
            writers: 1,
        };
        match inner.free.pop() {
            Some(i) => {
                inner.slots[i] = Some(pipe);
                PipeId(i)
            }
            None => {
                inner.slots.push(Some(pipe));
                PipeId(inner.slots.len() - 1)
            }
        }
    }

    /// Runs `f` over the live pipe in slot `id`; `EBADF` if the slot is
    /// dead or out of range.
    pub fn with<R>(&self, id: PipeId, f: impl FnOnce(&mut Pipe) -> KResult<R>) -> KResult<R> {
        let mut inner = lock(&self.inner);
        let p = inner
            .slots
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .ok_or(Errno::EBADF)?;
        f(p)
    }

    /// Duplicates a read end (fork / dup).
    pub fn dup_read(&self, id: PipeId) {
        let _ = self.with(id, |p| {
            p.readers += 1;
            Ok(())
        });
    }

    /// Duplicates a write end (fork / dup).
    pub fn dup_write(&self, id: PipeId) {
        let _ = self.with(id, |p| {
            p.writers += 1;
            Ok(())
        });
    }

    /// Releases a read end; frees the slot when no ends remain.
    pub fn release_read(&self, id: PipeId) {
        self.release(id, true);
    }

    /// Releases a write end; frees the slot when no ends remain.
    pub fn release_write(&self, id: PipeId) {
        self.release(id, false);
    }

    fn release(&self, id: PipeId, reader: bool) {
        let mut inner = lock(&self.inner);
        let Some(slot) = inner.slots.get_mut(id.0) else {
            return;
        };
        let Some(p) = slot.as_mut() else { return };
        if reader {
            p.readers = p.readers.saturating_sub(1);
        } else {
            p.writers = p.writers.saturating_sub(1);
        }
        if p.readers == 0 && p.writers == 0 {
            *slot = None;
            inner.free.push(id.0);
        }
    }

    /// Number of live (referenced) pipes.
    pub fn live_count(&self) -> usize {
        lock(&self.inner).slots.iter().flatten().count()
    }

    /// Total slots ever allocated, live or free — the arena's footprint.
    pub fn capacity(&self) -> usize {
        lock(&self.inner).slots.len()
    }
}

/// The authentication recency window, in logical seconds (sudo's classic
/// 5 minutes, enforced by the Protego kernel per §4.3).
pub const AUTH_WINDOW_SECS: u64 = 300;

/// Number of task-table shards; pids map to shards round-robin, so a
/// fork storm on one worker does not serialize lookups on another.
const TSHARDS: usize = 64;

fn tshard(pid: u32) -> usize {
    (pid as usize) % TSHARDS
}

/// One security-module hook call site: the span its hook runs in, the
/// names its audit records carry, and how [`Kernel::decide`] and
/// [`Kernel::stock`] treat it.
#[derive(Clone, Copy)]
pub(crate) struct Site {
    pub(crate) pathway: Pathway,
    pub(crate) hook: Hook,
    pub(crate) syscall: &'static str,
    /// The refusal `decide` makes when authentication fails or the hook
    /// asks twice, and `stock` makes when the stock check fails.
    pub(crate) errno: Errno,
    /// Whether a module's grant is audited (every site but `socket`,
    /// which sets it for raw and packet sockets only).
    pub(crate) audit_grant: bool,
    /// Whether a stock check that passes is audited as `use_default`.
    pub(crate) audit_stock: bool,
}

/// Declares the hook sites, one a line: span, hook, syscall name,
/// errno, whether a grant is audited, whether a stock pass is audited.
macro_rules! sites {
    ($($name:ident: $pathway:ident, $hook:ident, $syscall:literal, $errno:ident, $grant:literal, $stock:literal;)*) => {
        impl Site {
            $(pub(crate) const $name: Site = Site {
                pathway: Pathway::$pathway,
                hook: Hook::$hook,
                syscall: $syscall,
                errno: Errno::$errno,
                audit_grant: $grant,
                audit_stock: $stock,
            };)*
        }
    };
}

sites! {
    CAPABLE: LsmCapable, Capable, "capable", EPERM, true, false;
    SETUID: LsmTaskSetuid, TaskSetuid, "setuid", EPERM, true, false;
    SETGID: LsmTaskSetgid, TaskSetgid, "setgid", EPERM, true, false;
    EXECVE: LsmBprmCheck, BprmCheck, "execve", EACCES, true, false;
    OPEN: LsmFileOpen, FileOpen, "open", EACCES, true, false;
    MOUNT: LsmSbMount, SbMount, "mount", EPERM, true, true;
    UMOUNT: LsmSbUmount, SbUmount, "umount", EPERM, true, true;
    SOCKET: LsmSocketCreate, SocketCreate, "socket", EPERM, true, false;
    BIND: LsmSocketBind, SocketBind, "bind", EACCES, true, false;
    ROUTE: LsmIoctl, IoctlRoute, "ioctl", EPERM, true, false;
    MODEM: LsmIoctl, IoctlModem, "ioctl", EPERM, true, false;
    DMCRYPT: LsmIoctl, IoctlDmcrypt, "ioctl", EPERM, true, false;
    KMS: LsmIoctl, IoctlKms, "ioctl", EPERM, true, false;
    CONFIG: LsmConfig, LsmConfig, "write", EPERM, true, false;
}

type TaskMap = BTreeMap<u32, Task>;

/// A shared borrow of one task, holding its shard's read lock.
///
/// Dereferences to [`Task`]. Keep the scope tight: drop it before calling
/// any kernel method that emits audit events or re-enters the task table
/// (same-shard relock on `std`'s writer-preferring `RwLock` can deadlock).
pub struct TaskRef<'a> {
    guard: RwLockReadGuard<'a, TaskMap>,
    pid: u32,
}

impl Deref for TaskRef<'_> {
    type Target = Task;
    fn deref(&self) -> &Task {
        // Existence was checked at construction and the read guard pins
        // the map, so the entry cannot have vanished.
        self.guard
            .get(&self.pid)
            .expect("task vanished under guard")
    }
}

impl std::fmt::Debug for TaskRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// An exclusive borrow of one task, holding its shard's write lock.
///
/// Dereferences to [`Task`]; same scoping discipline as [`TaskRef`].
pub struct TaskMut<'a> {
    guard: RwLockWriteGuard<'a, TaskMap>,
    pid: u32,
}

impl Deref for TaskMut<'_> {
    type Target = Task;
    fn deref(&self) -> &Task {
        self.guard
            .get(&self.pid)
            .expect("task vanished under guard")
    }
}

impl std::fmt::Debug for TaskMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl DerefMut for TaskMut<'_> {
    fn deref_mut(&mut self) -> &mut Task {
        self.guard
            .get_mut(&self.pid)
            .expect("task vanished under guard")
    }
}

/// The simulated kernel.
pub struct Kernel {
    /// The virtual filesystem (internally sharded; all methods `&self`).
    pub vfs: Vfs,
    /// Socket arena and port table.
    pub net: Locked<NetStack>,
    /// OUTPUT-chain packet filter.
    pub netfilter: Locked<Netfilter>,
    /// Routing table.
    pub routes: Locked<RouteTable>,
    /// The world beyond this machine. Local IPs are fixed at topology
    /// build; the host table is interior-locked so hosts can be added
    /// after the kernel is shared, and the delivery path is `&self`.
    pub simnet: SimNet,
    /// Device registry.
    pub devices: Locked<DeviceRegistry>,
    /// Pipe arena with free-list slot reuse.
    pub pipes: PipeArena,
    /// Bounded audit trail of typed policy events. Denials are always
    /// recorded; informational events require `trace`.
    pub audit: AuditRing,
    /// Kernel-wide decision counters (always on), accumulated per worker
    /// and merged on snapshot.
    pub metrics: ShardedMetrics,
    /// Whether unprivileged user-namespace creation is allowed — the
    /// Linux >= 3.8 behaviour (§4.6); the paper's 3.6 baseline is false.
    /// Set only at image-build time, before the kernel is shared.
    pub unprivileged_userns: bool,
    /// Logical clock in seconds.
    clock: CachePadded<AtomicU64>,
    /// Whether to record non-denial (informational) audit events.
    trace: AtomicBool,
    tasks: Vec<CachePadded<RwLock<TaskMap>>>,
    next_pid: CachePadded<AtomicU32>,
    lsm: RwLock<Box<dyn SecurityModule>>,
    auth: Mutex<Option<Box<dyn AuthProvider>>>,
    media_roots: Mutex<BTreeMap<DevId, Ino>>,
    /// The dispatch chain in registration order, which fixes the
    /// `before`/`after` hook ordering. Interceptors are only ever
    /// appended; the chain lives as long as the kernel.
    pub(crate) interceptors: Locked<Vec<Arc<dyn crate::syscall::Interceptor>>>,
    /// The chain's length, published with `Release` under the chain's
    /// write lock by [`Kernel::register_interceptor`].
    /// [`Kernel::dispatch`] reads it with `Acquire`: zero means no hook
    /// can run, so the call skips the chain lock, the identity snapshot
    /// and both hook passes.
    pub(crate) armed: AtomicUsize,
    /// Per-binary syscall-allowlist state (profiles, mode, violations),
    /// shared with any [`crate::seccomp::SeccompInterceptor`] on the
    /// dispatch chain and surfaced under `/proc/seccomp/`.
    pub seccomp: crate::seccomp::Seccomp,
}

/// A cloneable, thread-shareable handle onto one kernel.
///
/// This is the "one kernel, many workers" entry point: clone the handle
/// into each worker thread and call [`Kernel::dispatch`] through it.
/// Derefs to [`Kernel`], so every kernel method is available directly.
#[derive(Clone)]
pub struct SharedKernel(Arc<Kernel>);

impl SharedKernel {
    /// Wraps a fully built kernel for sharing.
    pub fn new(kernel: Kernel) -> SharedKernel {
        SharedKernel(Arc::new(kernel))
    }

    /// The underlying reference-counted kernel.
    pub fn inner(&self) -> &Arc<Kernel> {
        &self.0
    }
}

impl From<Kernel> for SharedKernel {
    fn from(kernel: Kernel) -> SharedKernel {
        SharedKernel::new(kernel)
    }
}

impl Deref for SharedKernel {
    type Target = Kernel;
    fn deref(&self) -> &Kernel {
        &self.0
    }
}

impl std::fmt::Debug for SharedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedKernel({:?})", self.0)
    }
}

impl Kernel {
    /// Boots a kernel with the null LSM and an empty filesystem.
    pub fn new(simnet: SimNet) -> Kernel {
        Kernel {
            vfs: Vfs::new(),
            net: Locked::new(NetStack::new()),
            netfilter: Locked::new(Netfilter::new()),
            routes: Locked::new(RouteTable::new()),
            simnet,
            devices: Locked::new(DeviceRegistry::new()),
            pipes: PipeArena::default(),
            clock: CachePadded(AtomicU64::new(1_000_000)),
            audit: AuditRing::default(),
            metrics: ShardedMetrics::new(),
            trace: AtomicBool::new(false),
            unprivileged_userns: false,
            tasks: (0..TSHARDS)
                .map(|_| CachePadded(RwLock::new(TaskMap::new())))
                .collect(),
            next_pid: CachePadded(AtomicU32::new(1)),
            lsm: RwLock::new(Box::new(crate::lsm::NullLsm)),
            auth: Mutex::new(None),
            media_roots: Mutex::new(BTreeMap::new()),
            interceptors: Locked::new(Vec::new()),
            armed: AtomicUsize::new(0),
            seccomp: crate::seccomp::Seccomp::new(),
        }
    }

    /// The logical clock, in seconds.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Advances the logical clock.
    pub fn advance_clock(&self, secs: u64) {
        self.clock.fetch_add(secs, Ordering::SeqCst);
    }

    /// Whether informational audit events are being recorded.
    pub fn trace(&self) -> bool {
        self.trace.load(Ordering::Relaxed)
    }

    /// Enables or disables recording of informational audit events.
    pub fn set_trace(&self, on: bool) {
        self.trace.store(on, Ordering::Relaxed);
    }

    /// Appends an interceptor to the dispatch chain. `before` hooks run
    /// in registration order, `after` hooks in reverse (see
    /// [`Kernel::dispatch`]). The length is stored before the lock drops,
    /// so a dispatch that observes the new count also observes the new
    /// chain.
    pub fn register_interceptor(&self, ic: Box<dyn crate::syscall::Interceptor>) {
        let mut chain = self.interceptors.write();
        chain.push(Arc::from(ic));
        self.armed.store(chain.len(), Ordering::Release);
    }

    /// Whether any interceptor is registered on the dispatch chain — the
    /// test [`Kernel::dispatch`] makes before paying for the chain.
    pub fn interceptors_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire) != 0
    }

    /// Snapshots the identity of `pid`'s task — one task-shard read; see
    /// [`TaskIdentity`]. Returns [`TaskIdentity::unknown`] when the pid
    /// has no live task.
    pub fn task_identity(&self, pid: Pid) -> TaskIdentity {
        match self.task(pid) {
            Ok(t) => TaskIdentity::of(&t),
            Err(_) => TaskIdentity::unknown(pid),
        }
    }

    /// Registers the active security module: installs its `/proc/<name>/`
    /// configuration nodes and boot-time netfilter rules.
    pub fn register_lsm(&self, lsm: Box<dyn SecurityModule>) -> KResult<()> {
        {
            let mut nf = self.netfilter.write();
            for rule in lsm.boot_netfilter_rules() {
                nf.append(rule);
            }
        }
        let name = lsm.name();
        for node in lsm.config_nodes() {
            let path = format!("/proc/{}/{}", name, node);
            self.vfs.install_hook(
                &path,
                ProcHook::LsmConfig(node),
                Mode(0o600),
                Uid::ROOT,
                crate::cred::Gid::ROOT,
            )?;
        }
        // Observability nodes: the structured audit ring and the decision
        // counters, readable by root under the module's /proc directory.
        self.vfs.install_hook(
            &format!("/proc/{}/audit", name),
            ProcHook::Audit,
            Mode(0o600),
            Uid::ROOT,
            crate::cred::Gid::ROOT,
        )?;
        self.vfs.install_hook(
            &format!("/proc/{}/metrics", name),
            ProcHook::Metrics,
            Mode(0o600),
            Uid::ROOT,
            crate::cred::Gid::ROOT,
        )?;
        *write(&self.lsm) = lsm;
        self.emit_event(
            0,
            "register_lsm",
            AuditObject::None,
            Provenance::lsm(name, Hook::Lifecycle, None, DecisionKind::Info, None),
        );
        Ok(())
    }

    /// The active security module's name.
    pub fn lsm_name(&self) -> &'static str {
        read(&self.lsm).name()
    }

    /// Calls into the security module under the LSM read guard, inside
    /// `pathway`'s span so the call feeds that pathway's latency
    /// histogram. [`Kernel::decide`] and config reads go through here.
    pub(crate) fn lsm_hook<R>(
        &self,
        pathway: Pathway,
        hook: impl FnOnce(&dyn SecurityModule) -> R,
    ) -> R {
        let lsm = read(&self.lsm);
        let _span = crate::trace::span(pathway);
        hook(lsm.as_ref())
    }

    /// Writes `/proc/<lsm>/<node>` through the module's configuration
    /// interface, under the LSM write lock.
    pub(crate) fn lsm_config_write(&self, node: &str, content: &str) -> KResult<()> {
        let mut lsm = write(&self.lsm);
        let _span = crate::trace::span(Pathway::LsmConfig);
        lsm.config_write(node, content)
    }

    /// A self-contained copy of the kernel's metrics with the live cache
    /// counters (VFS dcache, the name interner, and the security
    /// module's policy caches) folded in — the same view `/proc/<lsm>/metrics` renders, but as a
    /// plain value that can cross threads and be [`Metrics::merge`]d
    /// into a cross-thread aggregate.
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = self.metrics.snapshot();
        m.record_cache("dcache", self.vfs.dcache_stats());
        m.record_cache("intern", crate::vfs::intern::stats());
        for (name, stats) in read(&self.lsm).cache_stats() {
            m.record_cache(name, stats);
        }
        m
    }

    /// Registers the trusted authentication agent.
    pub fn register_auth(&self, auth: Box<dyn AuthProvider>) {
        *lock(&self.auth) = Some(auth);
    }

    /// Emits one typed audit event: snapshots the subject's credentials,
    /// assigns a sequence number, folds the event into [`Metrics`], and
    /// stores it in the ring.
    ///
    /// Recording policy: `Deny` events are security-relevant and always
    /// stored; every other kind is stored only when `trace` is on.
    /// Metrics see all events unconditionally.
    ///
    /// Callers must not hold a task guard for `pid` across this call —
    /// the credential snapshot re-reads the task table.
    pub fn emit_event(
        &self,
        pid: u32,
        syscall: &'static str,
        object: AuditObject,
        provenance: Provenance,
    ) {
        let _span = crate::trace::span(Pathway::AuditEmit);
        let (ruid, euid) = self
            .task(Pid(pid))
            .map(|t| (t.cred.ruid.0, t.cred.euid.0))
            .unwrap_or((0, 0));
        let ev = AuditEvent {
            seq: self.audit.assign_seq(),
            clock: self.clock(),
            pid,
            ruid,
            euid,
            syscall,
            object,
            provenance,
        };
        self.metrics.record(&ev);
        if ev.is_denial() || self.trace() {
            self.audit.push(ev);
        }
    }

    // ------------------------------------------------------------------
    // Tasks
    // ------------------------------------------------------------------

    /// Creates the first task (root's init/login shell).
    pub fn spawn_init(&self) -> Pid {
        let pid = self.alloc_pid();
        let root = self.vfs.root();
        let mut t = Task::new(pid, Pid(0), Credentials::root(), root, "/sbin/init");
        t.setenv("PATH", "/usr/sbin:/usr/bin:/sbin:/bin");
        self.insert_task(t);
        pid
    }

    /// Creates a task directly with the given credentials — used by image
    /// builders to set up login sessions without simulating getty.
    pub fn spawn_session(&self, cred: Credentials, binary: &str) -> Pid {
        let pid = self.alloc_pid();
        let root = self.vfs.root();
        let mut t = Task::new(pid, Pid(1), cred, root, binary);
        t.setenv("PATH", "/usr/sbin:/usr/bin:/sbin:/bin");
        self.insert_task(t);
        pid
    }

    /// Immutable task lookup. The returned guard holds the pid's shard
    /// read-locked; keep its scope tight (see [`TaskRef`]).
    pub fn task(&self, pid: Pid) -> KResult<TaskRef<'_>> {
        let guard = read(&self.tasks[tshard(pid.0)]);
        if guard.contains_key(&pid.0) {
            Ok(TaskRef { guard, pid: pid.0 })
        } else {
            Err(Errno::ESRCH)
        }
    }

    /// Mutable task lookup. The returned guard holds the pid's shard
    /// write-locked; keep its scope tight (see [`TaskMut`]).
    pub fn task_mut(&self, pid: Pid) -> KResult<TaskMut<'_>> {
        let guard = write(&self.tasks[tshard(pid.0)]);
        if guard.contains_key(&pid.0) {
            Ok(TaskMut { guard, pid: pid.0 })
        } else {
            Err(Errno::ESRCH)
        }
    }

    /// Allocates the next pid (used by fork).
    pub(crate) fn alloc_pid(&self) -> Pid {
        Pid(self.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// Inserts a task (used by fork). The caller must not hold any task
    /// guard — the new pid may land in an already-locked shard.
    pub(crate) fn insert_task(&self, task: Task) {
        write(&self.tasks[tshard(task.pid.0)]).insert(task.pid.0, task);
    }

    /// Removes a task's entry entirely (after wait).
    pub fn reap(&self, pid: Pid) -> KResult<Task> {
        write(&self.tasks[tshard(pid.0)])
            .remove(&pid.0)
            .ok_or(Errno::ESRCH)
    }

    /// Number of live tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.iter().map(|s| read(s).len()).sum()
    }

    // ------------------------------------------------------------------
    // Privilege
    // ------------------------------------------------------------------

    /// The kernel-wide `capable()` check: the credential must hold the
    /// capability *and* the LSM must not veto it. (LSMs restrict
    /// capabilities here; they grant access through the object-specific
    /// hooks instead, which is the paper's design point.)
    pub fn capable(&self, pid: Pid, cap: Cap) -> bool {
        // The stock answer is read under the hook's task guard.
        let has = Cell::new(false);
        let hook = |t: &Task, m: &dyn SecurityModule| {
            has.set(t.cred.has_cap(cap));
            m.capable(&t.cred, t.binary.as_str(), cap)
        };
        let object = || AuditObject::Capability(cap.name());
        self.decide(pid, Site::CAPABLE, object, hook, Ok)
            .is_ok_and(|granted| granted.is_some() || has.get())
    }

    /// Asks the security module at `site` and acts on its answer: the one
    /// path from a hook to its effect and its audit record.
    ///
    /// `hook` builds the hook's context from the calling task, under the
    /// task guard, and calls the module; the guard drops before anything
    /// is authenticated or emitted. `NeedAuth` runs the trusted agent and
    /// asks again, once: a failed agent or a second request refuses with
    /// the site's errno. A grant runs `grant` on what the module handed
    /// over and then is audited, so a transition `grant` installs is
    /// recorded with the credentials it installed; an error from `grant`
    /// returns unaudited. `UseDefault` builds and records nothing and
    /// returns `None`: the caller applies the stock policy. Every other
    /// answer is recorded with the hook's rule (a grant where
    /// `site.audit_grant` is set); `object` is built only for an event
    /// that is emitted.
    pub(crate) fn decide<A: Answer, R>(
        &self,
        pid: Pid,
        site: Site,
        object: impl FnOnce() -> AuditObject,
        hook: impl Fn(&Task, &dyn SecurityModule) -> (A, Option<RuleId>),
        grant: impl FnOnce(A::Grant) -> KResult<R>,
    ) -> KResult<Option<R>> {
        let mut authed = false;
        let (ruling, rule) = loop {
            let (answer, rule) = {
                let t = self.task(pid)?;
                self.lsm_hook(site.pathway, |m| hook(&t, m))
            };
            match answer.ruling() {
                Ruling::NeedAuth(scope) if !authed && self.run_auth(pid, scope) => authed = true,
                ruling => break (ruling, rule),
            }
        };
        let emit = |kind, errno| {
            let provenance = Provenance::lsm(self.lsm_name(), site.hook, rule, kind, errno);
            self.emit_event(pid.0, site.syscall, object(), provenance);
        };
        let errno = match ruling {
            Ruling::UseDefault => return Ok(None),
            Ruling::Grant(kind, granted) => {
                let out = grant(granted)?;
                if site.audit_grant {
                    emit(kind, None);
                }
                return Ok(Some(out));
            }
            Ruling::NeedAuth(_) => site.errno,
            Ruling::Deny(e) => e,
        };
        emit(DecisionKind::Deny, Some(errno));
        Err(errno)
    }

    /// The stock check behind a `UseDefault` answer at `site`: refuses
    /// with the site's errno unless `ok`, audited as stock policy (as is
    /// a pass, where the site records one).
    pub(crate) fn stock(
        &self,
        pid: Pid,
        site: Site,
        ok: bool,
        object: impl FnOnce() -> AuditObject,
    ) -> KResult<()> {
        let (kind, errno, out) = match ok {
            true if !site.audit_stock => return Ok(()),
            true => (DecisionKind::UseDefault, None, Ok(())),
            false => (DecisionKind::Deny, Some(site.errno), Err(site.errno)),
        };
        let provenance = Provenance::kernel(site.hook, kind, errno);
        self.emit_event(pid.0, site.syscall, object(), provenance);
        out
    }

    /// Runs the trusted authentication agent for `scope` on behalf of
    /// `pid`. On success the kernel records the authentication time in the
    /// task (the paper's `task_struct` recency field).
    ///
    /// The agent mutex is held for the whole exchange, serializing
    /// concurrent authentication attempts (one terminal, one prompt).
    pub fn run_auth(&self, pid: Pid, scope: AuthScope) -> bool {
        let mut slot = lock(&self.auth);
        let Some(agent) = slot.as_mut() else {
            return false;
        };
        let mut input = match self.task_mut(pid) {
            Ok(mut t) => std::mem::take(&mut t.terminal_input),
            Err(_) => return false,
        };
        let ok = agent.authenticate(scope, &mut input, &self.vfs);
        let at = self.clock();
        let proof = AuthProof { at, scope };
        let mut parent = None;
        if let Ok(mut t) = self.task_mut(pid) {
            t.terminal_input = input;
            if ok {
                t.auth = Some(proof);
                parent = Some(t.ppid);
            }
        }
        // Recency is a property of the login session, not just the one
        // process that prompted (sudo's classic per-terminal ticket): the
        // proof propagates to the parent, so subsequent commands forked
        // from the same shell inherit it within the window.
        if let Some(ppid) = parent {
            if let Ok(mut pt) = self.task_mut(ppid) {
                pt.auth = Some(proof);
            }
        }
        drop(slot);
        let (kind, errno) = if ok {
            (DecisionKind::Info, None)
        } else {
            (DecisionKind::Deny, Some(Errno::EACCES))
        };
        let object = match scope {
            AuthScope::User(uid) => AuditObject::UidTarget(uid.0),
            AuthScope::Group(gid) => AuditObject::GidTarget(gid.0),
        };
        let provenance = Provenance::kernel(Hook::Auth, kind, errno);
        self.emit_event(pid.0, "auth", object, provenance);
        ok
    }

    /// Marks a task as authenticated "out of band" — used by the trusted
    /// login path at session creation, which has just verified the user's
    /// password itself.
    pub fn mark_authenticated(&self, pid: Pid) -> KResult<()> {
        let at = self.clock();
        let mut t = self.task_mut(pid)?;
        let scope = AuthScope::User(t.cred.ruid);
        t.auth = Some(AuthProof { at, scope });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Devices and media
    // ------------------------------------------------------------------

    /// Registers the standard device complement used by the study:
    /// CD-ROM, USB flash, a dm-crypt mapping, a modem line, the video
    /// adapter, and `/dev/null`; creates the matching `/dev` nodes and the
    /// base `/proc` files.
    pub fn install_standard_devices(&self) -> KResult<()> {
        use crate::cred::Gid;
        self.vfs.mkdir_p("/dev/mapper")?;
        self.vfs.mkdir_p("/proc")?;
        self.vfs.mkdir_p("/sys/block")?;

        let null = self.devices.write().register("/dev/null", DeviceKind::Null);
        self.install_dev_node("/dev/null", null, Mode(0o666), false)?;

        let cdrom = self.devices.write().register(
            "/dev/cdrom",
            DeviceKind::Block(BlockState {
                fstype: "iso9660".into(),
                media_present: true,
                ejected: false,
            }),
        );
        self.install_dev_node("/dev/cdrom", cdrom, Mode(0o660), true)?;

        let usb = self.devices.write().register(
            "/dev/sdb1",
            DeviceKind::Block(BlockState {
                fstype: "vfat".into(),
                media_present: true,
                ejected: false,
            }),
        );
        self.install_dev_node("/dev/sdb1", usb, Mode(0o660), true)?;

        let dm = self.devices.write().register(
            "/dev/mapper/cryptohome",
            DeviceKind::DmCrypt(DmCryptState {
                name: "cryptohome".into(),
                physical_device: "/dev/sda3".into(),
                key_material: vec![0x13, 0x37, 0xc0, 0xde],
                cipher: "aes-cbc-essiv:sha256".into(),
            }),
        );
        self.install_dev_node("/dev/mapper/cryptohome", dm, Mode(0o660), true)?;
        // The Protego /sys interface: physical-device topology without key
        // material (4-line change to dmcrypt-get-device in the paper).
        self.vfs.install_hook(
            "/sys/block/dm-0/protego_device",
            ProcHook::SysAttr("dm/cryptohome/device".into()),
            Mode(0o444),
            Uid::ROOT,
            Gid::ROOT,
        )?;

        let modem = self
            .devices
            .write()
            .register("/dev/ttyS0", DeviceKind::Modem(ModemState::default()));
        // Paper §4.1.2: Protego relaxes /dev/ppp permissions, replacing a
        // capability check with device-file permissions. We install the
        // node 0666; the *baseline* ioctl path still demands CAP_NET_ADMIN.
        self.install_dev_node("/dev/ttyS0", modem, Mode(0o666), false)?;
        let ppp = self
            .devices
            .write()
            .register("/dev/ppp", DeviceKind::Modem(ModemState::default()));
        self.install_dev_node("/dev/ppp", ppp, Mode(0o666), false)?;

        let video = self
            .devices
            .write()
            .register("/dev/dri/card0", DeviceKind::Video(KmsState::default()));
        self.install_dev_node("/dev/dri/card0", video, Mode(0o666), false)?;

        self.vfs.install_hook(
            "/proc/mounts",
            ProcHook::Mounts,
            Mode(0o444),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        self.vfs.install_hook(
            "/proc/uptime",
            ProcHook::Uptime,
            Mode(0o444),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        // Per-pathway latency histograms from the span-timing subsystem;
        // root-only like the LSM metrics nodes.
        self.vfs.mkdir_p("/proc/kernel")?;
        self.vfs.install_hook(
            "/proc/kernel/histograms",
            ProcHook::Histograms,
            Mode(0o600),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        // The seccomp control plane (§15): profile load/inspect, mode
        // switch, and the violation log. Root-only (0600) like the LSM
        // config nodes — a confined binary must not be able to read or
        // rewrite its own allowlist.
        self.vfs.install_hook(
            "/proc/seccomp/profiles",
            ProcHook::SeccompProfiles,
            Mode(0o600),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        self.vfs.install_hook(
            "/proc/seccomp/status",
            ProcHook::SeccompStatus,
            Mode(0o600),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        self.vfs.install_hook(
            "/proc/seccomp/violations",
            ProcHook::SeccompViolations,
            Mode(0o600),
            Uid::ROOT,
            Gid::ROOT,
        )?;
        Ok(())
    }

    fn install_dev_node(&self, path: &str, dev: DevId, mode: Mode, block: bool) -> KResult<()> {
        use crate::cred::Gid;
        let (dir_path, name) = path
            .rfind('/')
            .map(|i| (&path[..i.max(1)], &path[i + 1..]))
            .ok_or(Errno::EINVAL)?;
        let dir = self.vfs.mkdir_p(dir_path)?;
        let data = if block {
            InodeData::BlockDev(dev)
        } else {
            InodeData::CharDev(dev)
        };
        self.vfs
            .create_node(dir, name, mode, Uid::ROOT, Gid::ROOT, data)?;
        Ok(())
    }

    /// Returns (creating on first use) the root directory of the media in
    /// block device `dev`, with small sample contents.
    pub fn media_root(&self, dev: DevId) -> KResult<Ino> {
        use crate::cred::Gid;
        // Hold the map lock across creation so concurrent first mounts of
        // the same medium agree on one root (the VFS locks are
        // independent leaves, so nesting them under this mutex is safe).
        let mut roots = lock(&self.media_roots);
        if let Some(&ino) = roots.get(&dev) {
            return Ok(ino);
        }
        let root = self.vfs.root();
        let ino = self.vfs.alloc(
            root,
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(Default::default()),
        );
        let f = self
            .vfs
            .create_file(ino, "README", Mode(0o444), Uid::ROOT, Gid::ROOT, true)?;
        self.vfs.write_all(f, b"simulated removable media\n")?;
        roots.insert(dev, ino);
        Ok(ino)
    }

    /// Renders a `/sys` attribute (device-backed read-only nodes).
    pub fn sys_attr_read(&self, attr: &str) -> KResult<String> {
        let mut parts = attr.split('/');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("dm"), Some(name), Some("device")) => {
                let devices = self.devices.read();
                for d in devices.iter() {
                    if let DeviceKind::DmCrypt(dm) = &d.kind {
                        if dm.name == name {
                            // Discloses topology only — never key material.
                            return Ok(format!("{}\n", dm.physical_device));
                        }
                    }
                }
                Err(Errno::ENOENT)
            }
            _ => Err(Errno::ENOENT),
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("lsm", &self.lsm_name())
            .field("tasks", &self.task_count())
            .field("clock", &self.clock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Gid;

    #[test]
    fn boot_and_spawn() {
        let k = Kernel::new(SimNet::new());
        let init = k.spawn_init();
        assert_eq!(init, Pid(1));
        assert!(k.task(init).unwrap().cred.is_root());
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        assert_eq!(user, Pid(2));
        assert_eq!(k.task_count(), 2);
        assert_eq!(k.task(Pid(99)).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn standard_devices_install() {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        assert!(k.devices.read().find_by_path("/dev/cdrom").is_some());
        assert!(k.vfs.resolve(k.vfs.root(), "/dev/cdrom").is_ok());
        assert!(k.vfs.resolve(k.vfs.root(), "/proc/mounts").is_ok());
        assert!(k
            .vfs
            .resolve(k.vfs.root(), "/sys/block/dm-0/protego_device")
            .is_ok());
    }

    #[test]
    fn sys_attr_discloses_topology_not_keys() {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        let s = k.sys_attr_read("dm/cryptohome/device").unwrap();
        assert_eq!(s, "/dev/sda3\n");
        assert!(!s.contains("1337"));
        assert_eq!(
            k.sys_attr_read("dm/nope/device").unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(k.sys_attr_read("bogus").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn media_root_is_cached() {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        let dev = k.devices.read().id_by_path("/dev/cdrom").unwrap();
        let a = k.media_root(dev).unwrap();
        let b = k.media_root(dev).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mark_authenticated_sets_recency() {
        let k = Kernel::new(SimNet::new());
        let pid = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        let authed = || {
            let auth = k.task(pid).unwrap().auth;
            crate::lsm::authed_for(auth, k.clock(), AuthScope::User(Uid(1000)), 300)
        };
        assert!(!authed());
        k.mark_authenticated(pid).unwrap();
        assert!(authed());
        k.advance_clock(301);
        assert!(!authed());
    }

    #[test]
    fn run_auth_without_agent_fails() {
        let k = Kernel::new(SimNet::new());
        let pid = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        assert!(!k.run_auth(pid, AuthScope::User(Uid(1000))));
    }

    #[test]
    fn audit_respects_trace_flag_for_informational_events() {
        let k = Kernel::new(SimNet::new());
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::Lifecycle, DecisionKind::Info, None),
        );
        assert!(k.audit.is_empty());
        k.set_trace(true);
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::Lifecycle, DecisionKind::Info, None),
        );
        assert_eq!(k.audit.len(), 1);
        // Metrics saw both events even though only one was stored.
        assert_eq!(k.metrics.snapshot().events, 2);
        // Sequence numbers reveal the gated event.
        assert_eq!(k.audit.next_seq(), 2);
        assert_eq!(k.audit.last().unwrap().seq, 1);
    }

    #[test]
    fn denials_are_recorded_even_with_trace_off() {
        // Regression: the legacy string log dropped *everything* when
        // `trace` was off, including security denials.
        let k = Kernel::new(SimNet::new());
        assert!(!k.trace());
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)),
        );
        assert_eq!(k.audit.len(), 1);
        assert!(k.audit.last().unwrap().is_denial());
        assert_eq!(
            k.metrics.snapshot().hook(crate::trace::Hook::SbMount).deny,
            1
        );
    }

    #[test]
    fn syscall_denial_lands_in_ring_without_trace() {
        // End-to-end variant: an unprivileged mount attempt under stock
        // policy must leave a Deny event with provenance, trace off.
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        k.spawn_init();
        k.vfs.mkdir_p("/mnt/cdrom").unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        assert_eq!(
            k.sys_mount(user, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"),
            Err(Errno::EPERM)
        );
        let ev = k
            .audit
            .events()
            .into_iter()
            .find(|e| e.is_denial() && e.provenance.hook == Hook::SbMount)
            .expect("mount denial recorded with trace off");
        assert_eq!(ev.pid, user.0);
        assert_eq!(ev.euid, 1000);
        assert_eq!(ev.provenance.errno, Some(Errno::EPERM));
    }

    #[test]
    fn metrics_count_events_the_ring_skips() {
        let k = Kernel::new(SimNet::new());
        // Informational event with trace off: the ring skips it, metrics
        // count it.
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::Lifecycle, DecisionKind::Info, None),
        );
        k.emit_event(
            0,
            "test",
            AuditObject::None,
            Provenance::kernel(Hook::SbMount, DecisionKind::Deny, Some(Errno::EPERM)),
        );
        assert_eq!(k.audit.len(), 1);
        assert!(k.audit.events()[0].is_denial());
        let m = k.metrics_snapshot();
        assert_eq!(m.hook(Hook::Lifecycle).info, 1);
        assert_eq!(m.hook(Hook::SbMount).deny, 1);
    }

    #[test]
    fn pipe_arena_reuses_closed_slots() {
        // Satellite: open/close cycles must not grow the arena.
        let arena = PipeArena::default();
        let first = arena.alloc();
        arena.release_read(first);
        arena.release_write(first);
        assert_eq!(arena.live_count(), 0);
        for _ in 0..100 {
            let id = arena.alloc();
            assert_eq!(id, first, "freed slot is reused");
            arena.dup_read(id);
            arena.release_read(id);
            arena.release_read(id);
            arena.release_write(id);
        }
        assert_eq!(arena.capacity(), 1, "arena footprint stays bounded");
        assert_eq!(arena.live_count(), 0);
    }

    #[test]
    fn shared_kernel_is_send_and_sync() {
        // Satellite: the whole point of the refactor — a kernel handle
        // that crosses threads. A compile-time assertion.
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SharedKernel>();
        fn assert_kernel_shareable<T: Send + Sync>() {}
        assert_kernel_shareable::<Kernel>();
    }
}
