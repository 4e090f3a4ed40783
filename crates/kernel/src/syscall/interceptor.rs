//! Dispatch-chain interceptors: fault injection, trace capture/replay,
//! and seccomp enforcement.
//!
//! An [`Interceptor`] registered with
//! [`crate::kernel::Kernel::register_interceptor`] sees every call that
//! flows through [`crate::kernel::Kernel::dispatch`]. `before` hooks run in
//! registration order and return a [`Verdict`]; `after` hooks run in
//! reverse order and observe the final `(pid, Syscall, SysRet)` triple —
//! injected faults included — which is what the trace recorder and
//! replayer consume (see [`crate::trace::TraceRecorder`]).

use crate::error::Errno;
use crate::sync::lock;
use crate::syscall::abi::{SysRet, Syscall, SyscallClass};
use crate::task::{Pid, TaskIdentity};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The dispatch context: kernel state an interceptor may consult or
/// update while the dispatcher holds the chain.
///
/// This is the *extensible* surface between the dispatcher and its
/// interceptors: hooks receive `&mut SysCtx` rather than positional
/// arguments precisely so new fields can be added here without another
/// breaking change to every [`Interceptor`] implementor. Current fields:
///
/// - [`clock`](SysCtx::clock) — the logical clock at hook time;
/// - [`task`](SysCtx::task) — a [`TaskIdentity`] snapshot of the calling
///   task (uid/euid/binary), taken **once per dispatch** with a single
///   task-shard read and shared by every hook of that dispatch, so
///   identity-aware interceptors (seccomp) pay no per-hook lookup.
pub struct SysCtx {
    /// The kernel's logical clock at hook time.
    pub clock: u64,
    /// Identity of the dispatching task, snapshotted at dispatch entry.
    /// For pids without a live task this is [`TaskIdentity::unknown`]
    /// (the entry point itself will fail with `ESRCH`).
    pub task: TaskIdentity,
}

/// What a `before` hook decided about a dispatched call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Let the call proceed; later hooks and the entry point run.
    Continue,
    /// Short-circuit the call with `errno`: the entry point is never
    /// reached, the caller sees `SysRet::Err(errno)`, and the dispatcher
    /// emits a `Deny` audit event whose `rule` records the interceptor,
    /// the syscall name, and its class.
    Deny(Errno),
    /// Let the call proceed but have the dispatcher emit an
    /// informational audit event on the interceptor's behalf — the
    /// complain-mode primitive: `errno` is what a denying configuration
    /// *would* have returned. (Informational events reach the ring only
    /// while [`Kernel::trace`](crate::kernel::Kernel::trace) is on, like
    /// every other `Info` event.)
    Note {
        /// The errno an enforcing configuration would have injected.
        errno: Errno,
    },
}

/// A hook pair around every dispatched syscall.
///
/// The kernel stores interceptors as shared handles and many worker
/// threads may dispatch concurrently, so hooks take `&self` and
/// implementations keep mutable state behind a mutex (or [`crate::sync::PerThread`]
/// for values scoped to one dispatch on one thread); they interact with
/// kernel state only through [`SysCtx`] — never by re-entering
/// [`Kernel::dispatch`](crate::kernel::Kernel::dispatch), which does not
/// nest on a thread.
pub trait Interceptor: Send + Sync {
    /// Stable name, recorded in the audit `rule` field when this
    /// interceptor injects a fault or files a complain-mode note.
    fn name(&self) -> &'static str;

    /// Runs before the kernel entry point; the first hook to return
    /// [`Verdict::Deny`] short-circuits the call. [`Verdict::Note`] lets
    /// the call proceed while the dispatcher records an informational
    /// audit event attributed to this interceptor.
    fn before(&self, _pid: Pid, _call: &Syscall, _ctx: &mut SysCtx) -> Verdict {
        Verdict::Continue
    }

    /// Runs after the response is known (real or injected).
    fn after(&self, _pid: Pid, _call: &Syscall, _ret: &SysRet, _ctx: &mut SysCtx) {}
}

/// A deterministic xorshift64 generator — the simulation must not pull in
/// a randomness crate, and the fault stream (and the scenario fuzzer's
/// generation) has to be reproducible from the seed alone.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            // xorshift has a fixed point at 0; displace it.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A value in `0..n` (`0` when `n` is `0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A uniformly drawn element of a non-empty `pool`.
    pub fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.below(pool.len())]
    }

    /// `true` with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

/// A scheduled one-shot fault: fail the `k`-th dispatched call of a named
/// syscall with a chosen errno, exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OneShot {
    /// Syscall name to target (e.g. `"mount"`; see [`Syscall::name`]).
    pub syscall: &'static str,
    /// 1-based occurrence to fail.
    pub k: u64,
    /// The errno to inject.
    pub errno: Errno,
}

/// Configuration for the [`FaultInjector`].
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// PRNG seed; the full fault stream is a function of this value and
    /// the dispatched call sequence.
    pub seed: u64,
    /// Injection rate as "1 in `rate`" per eligible call (an fs, net or
    /// id call); `0` disables random injection (one-shots still fire).
    pub rate: u64,
    /// Scheduled one-shot faults, checked before the random draw.
    pub one_shots: Vec<OneShot>,
}

impl FaultConfig {
    /// A 1-in-`rate` random-injection config with no one-shots.
    pub fn storm(seed: u64, rate: u64) -> FaultConfig {
        FaultConfig {
            seed,
            rate,
            one_shots: Vec::new(),
        }
    }

    /// Adds a one-shot "fail the `k`-th `syscall`" fault.
    pub fn with_one_shot(mut self, syscall: &'static str, k: u64, errno: Errno) -> FaultConfig {
        self.one_shots.push(OneShot { syscall, k, errno });
        self
    }
}

/// Counters describing what a [`FaultInjector`] actually did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Calls inspected.
    pub seen: u64,
    /// Faults injected (random + one-shot).
    pub injected: u64,
    /// Injections keyed by syscall class name.
    pub per_class: BTreeMap<&'static str, u64>,
    /// Injections keyed by errno name.
    pub per_errno: BTreeMap<&'static str, u64>,
    /// Per-one-shot consumption flags, indexed like
    /// [`FaultConfig::one_shots`].
    pub one_shots_fired: Vec<bool>,
}

/// Classes eligible for random injection. Deliberately excludes
/// [`SyscallClass::Process`] so fork/exec/exit/wait — the harness spine —
/// always runs; fs/net/id calls are where userland must degrade
/// gracefully.
const STORM_CLASSES: [SyscallClass; 3] = [SyscallClass::Fs, SyscallClass::Net, SyscallClass::Id];

/// Errnos drawn from (uniformly) when a random injection fires.
const STORM_ERRNOS: [Errno; 3] = [Errno::EINTR, Errno::ENOMEM, Errno::EACCES];

/// The seeded fault injector (tentpole interceptor #1).
///
/// Decides per dispatched call — deterministically from the seed and the
/// call sequence — whether to short-circuit it with an errno drawn from
/// EINTR, ENOMEM and EACCES. One-shot faults ("fail the 2nd mount with
/// `EBUSY`") fire before the random draw and exactly once.
pub struct FaultInjector {
    config: FaultConfig,
    /// PRNG, one-shot bookkeeping, and per-name dispatch counts; a single
    /// mutex keeps (count, draw, fire) decisions atomic per call so the
    /// fault stream stays a deterministic function of arrival order.
    inner: Mutex<FaultState>,
    stats: Arc<Mutex<FaultStats>>,
}

#[derive(Debug)]
struct FaultState {
    rng: XorShift64,
    /// 1-based dispatch counts per syscall name, driving one-shots.
    counts: BTreeMap<&'static str, u64>,
}

impl FaultInjector {
    /// Builds an injector from `config` with fresh stats.
    pub fn new(config: FaultConfig) -> FaultInjector {
        let stats = FaultStats {
            one_shots_fired: vec![false; config.one_shots.len()],
            ..FaultStats::default()
        };
        FaultInjector {
            inner: Mutex::new(FaultState {
                rng: XorShift64::new(config.seed),
                counts: BTreeMap::new(),
            }),
            config,
            stats: Arc::new(Mutex::new(stats)),
        }
    }

    /// A shared handle onto the injector's counters, usable after the
    /// injector has been boxed into the kernel.
    pub fn stats(&self) -> Arc<Mutex<FaultStats>> {
        Arc::clone(&self.stats)
    }

    fn record(s: &mut FaultStats, call: &Syscall, errno: Errno) {
        s.injected += 1;
        *s.per_class.entry(call.class().name()).or_insert(0) += 1;
        *s.per_errno.entry(errno.name()).or_insert(0) += 1;
    }
}

impl Interceptor for FaultInjector {
    fn name(&self) -> &'static str {
        "fault_injector"
    }

    fn before(&self, _pid: Pid, call: &Syscall, _ctx: &mut SysCtx) -> Verdict {
        // Lock order: stats before inner, everywhere — the consumption
        // flags live in stats (see `FaultStats::one_shots_fired`) while
        // the PRNG and occurrence counts live in injector-private state.
        let mut s = lock(&self.stats);
        s.seen += 1;
        let mut st = lock(&self.inner);
        let n = st.counts.entry(call.name()).or_insert(0);
        *n += 1;
        let nth = *n;
        for (i, shot) in self.config.one_shots.iter().enumerate() {
            if !s.one_shots_fired[i] && shot.syscall == call.name() && shot.k == nth {
                s.one_shots_fired[i] = true;
                FaultInjector::record(&mut s, call, shot.errno);
                return Verdict::Deny(shot.errno);
            }
        }
        if self.config.rate == 0 || !STORM_CLASSES.contains(&call.class()) {
            return Verdict::Continue;
        }
        // Getters are infallible reads; injecting there models nothing.
        if matches!(call, Syscall::Getuid | Syscall::Geteuid | Syscall::Getgid) {
            return Verdict::Continue;
        }
        if st.rng.next_u64().is_multiple_of(self.config.rate) {
            let errno = *st.rng.pick(&STORM_ERRNOS);
            FaultInjector::record(&mut s, call, errno);
            return Verdict::Deny(errno);
        }
        Verdict::Continue
    }
}
