//! Trace-derived per-binary syscall allowlists — "auto-seccomp"
//! (DESIGN.md §15).
//!
//! The paper's thesis is that ambient root authority should be replaced
//! by narrow, checkable mechanisms; this module applies the same logic
//! one layer down, to the syscall surface each *binary* may reach. A
//! profiling pass (`tables seccomp-derive`) runs the functional battery
//! and the web/mail workloads under a [`ProfileRecorder`], attributes
//! every dispatched call to the calling task's binary (via the
//! [`TaskIdentity`] snapshot in [`SysCtx`]), and emits one allowlist per
//! binary. At enforcement time each profile is compiled into a flat
//! `[Action; Syscall::COUNT]` array indexed by [`Syscall::index`], so the
//! per-call check is an array load — no maps, no string compares.
//!
//! Lifecycle: profiles and the global mode live in a [`Seccomp`] control
//! block owned by the kernel (`kernel.seccomp`) and shared with the
//! [`SeccompInterceptor`] on the dispatch chain. Userland drives it
//! through `/proc/seccomp/{profiles,status,violations}` (root-only
//! nodes) or directly through this API. Three modes:
//!
//! * **off** — the interceptor passes everything through;
//! * **complain** — out-of-profile calls run, but each files a
//!   [`Violation`] and a typed informational `AuditEvent` (via
//!   [`Verdict::Note`]);
//! * **enforce** — out-of-profile calls are denied with the profile's
//!   deny action; [`Action::Kill`] is modelled as `EPERM` plus a
//!   kill-flagged violation (the simulation has no signal delivery, see
//!   DESIGN.md §17).
//!
//! Profile selection is per-pid: the first dispatch after `fork`/`execve`
//! resolves the task's binary to a profile and caches the choice; the
//! cache entry is invalidated on `execve` (the kernel calls
//! [`Seccomp::forget_pid`]) and when the profile table is reloaded, so a
//! task is always judged by its current image. Binaries without a profile
//! are unconfined — deriving must therefore cover every binary that
//! should be confined. In front of the shared per-pid cache sits a
//! lock-free thread-local memo of the last selection, validated by
//! `(table generation, binary)` — the enforcing hot path is two integer
//! compares plus a shift on a packed allow mask (see `SelMemo`).

use crate::error::Errno;
use crate::sync::{lock, read, write};
use crate::syscall::abi::{SysRet, Syscall};
use crate::syscall::interceptor::{Interceptor, SysCtx, Verdict};
use crate::task::{Pid, TaskIdentity};
use crate::vfs::Name;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What a profile slot says about one syscall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// The call is in the allowlist; let it through.
    Allow,
    /// Refuse the call with this errno (Linux `SECCOMP_RET_ERRNO`).
    Deny(Errno),
    /// Refuse the call and flag the violation as a kill (Linux
    /// `SECCOMP_RET_KILL`). The simulated task is *not* torn down — the
    /// caller sees `EPERM` — but the violation record and audit note
    /// carry the kill disposition.
    Kill,
}

impl Action {
    /// Stable render used by `/proc/seccomp/profiles` and the violation
    /// log: `allow`, `deny(EPERM)`, `kill`.
    pub fn render(self) -> String {
        match self {
            Action::Allow => "allow".to_string(),
            Action::Deny(e) => format!("deny({})", e.name()),
            Action::Kill => "kill".to_string(),
        }
    }

    /// The errno an enforcing kernel injects for this action (`None` for
    /// [`Action::Allow`]).
    pub fn errno(self) -> Option<Errno> {
        match self {
            Action::Allow => None,
            Action::Deny(e) => Some(e),
            Action::Kill => Some(Errno::EPERM),
        }
    }
}

/// Global seccomp disposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeccompMode {
    /// No checking at all.
    Off,
    /// Check and log, never deny.
    Complain,
    /// Check and deny.
    Enforce,
}

impl SeccompMode {
    /// Stable lower-case name (`/proc/seccomp/status`).
    pub fn name(self) -> &'static str {
        match self {
            SeccompMode::Off => "off",
            SeccompMode::Complain => "complain",
            SeccompMode::Enforce => "enforce",
        }
    }

    /// Parses a mode name as written to `/proc/seccomp/status`.
    pub fn parse(s: &str) -> Option<SeccompMode> {
        match s.trim() {
            "off" => Some(SeccompMode::Off),
            "complain" => Some(SeccompMode::Complain),
            "enforce" => Some(SeccompMode::Enforce),
            _ => None,
        }
    }
}

/// An uncompiled profile: a binary, its allowlisted syscall names, and
/// the action for everything else. This is the exchange format between
/// the deriver, `/proc/seccomp/profiles`, and [`Seccomp::load_profiles`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSpec {
    /// Absolute path of the binary this profile confines.
    pub binary: String,
    /// Allowlisted syscall names (must all be ABI names from
    /// [`Syscall::NAMES`]).
    pub allow: Vec<String>,
    /// Action for every syscall *not* in `allow`.
    pub deny_action: Action,
}

impl ProfileSpec {
    /// An allow-list profile denying everything else with `EPERM`.
    pub fn allowing(binary: &str, allow: &[&str]) -> ProfileSpec {
        ProfileSpec {
            binary: binary.to_string(),
            allow: allow.iter().map(|s| s.to_string()).collect(),
            deny_action: Action::Deny(Errno::EPERM),
        }
    }
}

/// A compiled profile: the flat per-discriminant action table.
#[derive(Clone, Debug)]
pub struct CompiledProfile {
    /// Interned binary path (the selection key).
    pub binary: Name,
    /// One action per [`Syscall`] variant, indexed by [`Syscall::index`].
    pub actions: [Action; Syscall::COUNT],
}

impl CompiledProfile {
    /// Compiles a spec. Fails with the offending name if any allowlist
    /// entry is not an ABI syscall name.
    pub fn compile(spec: &ProfileSpec) -> Result<CompiledProfile, String> {
        let mut actions = [spec.deny_action; Syscall::COUNT];
        for name in &spec.allow {
            let idx = Syscall::name_index(name)
                .ok_or_else(|| format!("unknown syscall name '{}'", name))?;
            actions[idx] = Action::Allow;
        }
        Ok(CompiledProfile {
            binary: Name::intern(&spec.binary),
            actions,
        })
    }

    /// How many of the ABI's variants this profile lets through.
    pub fn allowed_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::Allow))
            .count()
    }

    /// Back to the exchange form (allow names in ABI order).
    pub fn spec(&self) -> ProfileSpec {
        let mut allow = Vec::new();
        let mut deny_action = Action::Deny(Errno::EPERM);
        for (i, a) in self.actions.iter().enumerate() {
            match a {
                Action::Allow => allow.push(Syscall::NAMES[i].to_string()),
                other => deny_action = *other,
            }
        }
        ProfileSpec {
            binary: self.binary.as_str().to_string(),
            allow,
            deny_action,
        }
    }
}

/// One out-of-profile call, as recorded in `/proc/seccomp/violations`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Logical clock when the call was dispatched.
    pub clock: u64,
    /// The dispatching pid.
    pub pid: Pid,
    /// The binary the pid was executing.
    pub binary: Name,
    /// Name of the refused (or would-be-refused) syscall.
    pub syscall: &'static str,
    /// The profile's action for it.
    pub action: Action,
    /// `true` if the call was actually denied (enforce), `false` if it
    /// was let through under complain.
    pub enforced: bool,
}

/// Bound on the retained violation log; older entries are dropped and
/// counted, like the audit ring.
const MAX_VIOLATIONS: usize = 4096;

struct ProfileTable {
    profiles: Vec<Arc<CompiledProfile>>,
    by_binary: HashMap<Name, usize>,
}

#[derive(Clone, Copy)]
struct PidSel {
    binary: Name,
    generation: u64,
    profile: Option<u32>,
}

/// Process-global source for table generations. Every (re)load of *any*
/// [`Seccomp`] instance draws a fresh stamp, so a nonzero generation
/// identifies exactly one table state across the whole process — which is
/// what lets the thread-local [`SelMemo`] below validate itself with an
/// integer compare instead of holding a reference to its control block.
/// Generation 0 is reserved for "never loaded": every instance at 0 has
/// an empty table, so a gen-0 memo ("unconfined") is right for all of
/// them.
static GENERATION_SOURCE: AtomicU64 = AtomicU64::new(1);

// The memo packs the allowlist into one u64; the ABI must fit.
const _: () = assert!(Syscall::COUNT <= 64);

/// Thread-local memo of the last profile selection: the dispatch fast
/// path. Selection is a pure function of `(table generation, binary)` —
/// the per-pid cache only ever re-derives it — so a memo hit needs two
/// integer compares and no locks, and a profiled binary's action check is
/// a shift on the packed allow mask. Filled on the slow path; never
/// explicitly invalidated (a reload changes the generation, an `execve`
/// changes the binary, and both fail the compare).
#[derive(Clone, Copy)]
struct SelMemo {
    generation: u64,
    binary: Name,
    /// `false`: no profile for `binary` (unconfined); mask/deny unused.
    confined: bool,
    /// `false`: the profile mixes distinct deny actions, which the single
    /// `deny` slot cannot represent — always take the slow path.
    uniform: bool,
    /// Bit `i` set ⇔ `actions[i] == Allow` (valid when `confined`).
    allow_mask: u64,
    /// The profile's action for every cleared bit.
    deny: Action,
}

impl SelMemo {
    fn new(generation: u64, binary: Name, profile: Option<&CompiledProfile>) -> SelMemo {
        let (confined, uniform, allow_mask, deny) = match profile {
            None => (false, true, 0, Action::Deny(Errno::EPERM)),
            Some(cp) => {
                let mut mask = 0u64;
                let mut deny = None;
                let mut uniform = true;
                for (i, a) in cp.actions.iter().enumerate() {
                    match a {
                        Action::Allow => mask |= 1 << i,
                        other => match deny {
                            None => deny = Some(*other),
                            Some(d) if d == *other => {}
                            Some(_) => uniform = false,
                        },
                    }
                }
                (
                    true,
                    uniform,
                    mask,
                    deny.unwrap_or(Action::Deny(Errno::EPERM)),
                )
            }
        };
        SelMemo {
            generation,
            binary,
            confined,
            uniform,
            allow_mask,
            deny,
        }
    }
}

thread_local! {
    static SEL_MEMO: Cell<Option<SelMemo>> = const { Cell::new(None) };
}

struct SeccompState {
    mode: AtomicU8,
    /// Restamped from [`GENERATION_SOURCE`] on every (re)load; stale
    /// [`PidSel`] and [`SelMemo`] entries self-invalidate by comparison.
    generation: AtomicU64,
    table: RwLock<ProfileTable>,
    pid_sel: RwLock<HashMap<u32, PidSel>>,
    violations: Mutex<Vec<Violation>>,
    total_violations: AtomicU64,
    dropped_violations: AtomicU64,
}

/// The kernel's seccomp control block — a cheap cloneable handle onto
/// shared state (the kernel holds one as `kernel.seccomp`, the
/// [`SeccompInterceptor`] on the dispatch chain another).
#[derive(Clone)]
pub struct Seccomp {
    inner: Arc<SeccompState>,
}

impl Default for Seccomp {
    fn default() -> Seccomp {
        Seccomp::new()
    }
}

impl Seccomp {
    /// An empty control block: no profiles, mode `off`.
    pub fn new() -> Seccomp {
        Seccomp {
            inner: Arc::new(SeccompState {
                mode: AtomicU8::new(0),
                generation: AtomicU64::new(0),
                table: RwLock::new(ProfileTable {
                    profiles: Vec::new(),
                    by_binary: HashMap::new(),
                }),
                pid_sel: RwLock::new(HashMap::new()),
                violations: Mutex::new(Vec::new()),
                total_violations: AtomicU64::new(0),
                dropped_violations: AtomicU64::new(0),
            }),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> SeccompMode {
        match self.inner.mode.load(Ordering::Relaxed) {
            1 => SeccompMode::Complain,
            2 => SeccompMode::Enforce,
            _ => SeccompMode::Off,
        }
    }

    /// Switches mode (takes effect on the next dispatched call).
    pub fn set_mode(&self, mode: SeccompMode) {
        let v = match mode {
            SeccompMode::Off => 0,
            SeccompMode::Complain => 1,
            SeccompMode::Enforce => 2,
        };
        self.inner.mode.store(v, Ordering::Relaxed);
    }

    /// Replaces the whole profile table. Compilation is all-or-nothing:
    /// on any bad spec the previous table survives untouched. Loading
    /// bumps the selection generation, so every pid re-resolves its
    /// profile on its next call.
    pub fn load_profiles(&self, specs: &[ProfileSpec]) -> Result<usize, String> {
        let mut profiles = Vec::with_capacity(specs.len());
        let mut by_binary = HashMap::with_capacity(specs.len());
        for spec in specs {
            let compiled = Arc::new(CompiledProfile::compile(spec)?);
            if by_binary.insert(compiled.binary, profiles.len()).is_some() {
                return Err(format!("duplicate profile for '{}'", spec.binary));
            }
            profiles.push(compiled);
        }
        let n = profiles.len();
        {
            let mut t = write(&self.inner.table);
            t.profiles = profiles;
            t.by_binary = by_binary;
        }
        self.bump_generation();
        Ok(n)
    }

    /// Stamps this table state with a process-globally unique generation
    /// (see [`GENERATION_SOURCE`]), invalidating stale [`PidSel`] and
    /// [`SelMemo`] entries by compare failure.
    fn bump_generation(&self) {
        self.inner.generation.store(
            GENERATION_SOURCE.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Number of loaded profiles.
    pub fn profile_count(&self) -> usize {
        read(&self.inner.table).profiles.len()
    }

    /// Snapshot of the loaded profiles as exchange specs, sorted by
    /// binary path.
    pub fn profiles(&self) -> Vec<ProfileSpec> {
        let mut specs: Vec<ProfileSpec> = read(&self.inner.table)
            .profiles
            .iter()
            .map(|p| p.spec())
            .collect();
        specs.sort_by(|a, b| a.binary.cmp(&b.binary));
        specs
    }

    /// Drops the cached profile selection for `pid` — called by the
    /// kernel on `execve` (the image changed) and on reap.
    pub fn forget_pid(&self, pid: Pid) {
        // Skip the write lock entirely when nothing is loaded (the
        // common case for kernels that never enable seccomp).
        if self.inner.generation.load(Ordering::Relaxed) == 0 {
            return;
        }
        write(&self.inner.pid_sel).remove(&pid.0);
    }

    /// The core per-call check: resolves the caller's profile (cached
    /// per pid, re-resolved when the binary or table generation changed)
    /// and maps the profile action plus the global mode onto a dispatch
    /// [`Verdict`].
    pub fn check(&self, task: &TaskIdentity, call: &Syscall, clock: u64) -> Verdict {
        let mode = self.mode();
        if mode == SeccompMode::Off {
            return Verdict::Continue;
        }
        let action = match self.action_for(task, call.index()) {
            Some(a) => a,
            None => return Verdict::Continue, // unprofiled binary: unconfined
        };
        if action == Action::Allow {
            return Verdict::Continue;
        }
        let enforced = mode == SeccompMode::Enforce;
        self.record_violation(Violation {
            clock,
            pid: task.pid,
            binary: task.binary,
            syscall: call.name(),
            action,
            enforced,
        });
        if enforced {
            Verdict::Deny(action.errno().unwrap_or(Errno::EPERM))
        } else {
            Verdict::Note {
                errno: action.errno().unwrap_or(Errno::EPERM),
                note: format!(
                    "seccomp complain: {} outside profile for {} (would {})",
                    call.name(),
                    task.binary,
                    action.render()
                ),
            }
        }
    }

    /// Profile action for (task, syscall-index): the dispatch fast path.
    /// A warm hit is the thread-local [`SelMemo`] — two integer compares
    /// and a shift on the packed allow mask, no locks. Misses fall back
    /// to the shared per-pid cache and the profile table, then refill the
    /// memo.
    fn action_for(&self, task: &TaskIdentity, idx: usize) -> Option<Action> {
        let generation = self.inner.generation.load(Ordering::Relaxed);
        if let Some(m) = SEL_MEMO.with(Cell::get) {
            if m.generation == generation && m.binary == task.binary && m.uniform {
                if !m.confined {
                    return None;
                }
                return Some(if m.allow_mask >> idx & 1 == 1 {
                    Action::Allow
                } else {
                    m.deny
                });
            }
        }
        self.action_for_slow(task, idx, generation)
    }

    /// Memo-miss path: first call on this thread for the task's binary,
    /// or its image / the table changed since. One read lock + hash probe
    /// on the shared per-pid cache when that is warm; a table lookup and
    /// cache fill otherwise.
    fn action_for_slow(&self, task: &TaskIdentity, idx: usize, generation: u64) -> Option<Action> {
        let cached = {
            let sel = read(&self.inner.pid_sel);
            sel.get(&task.pid.0)
                .filter(|s| s.generation == generation && s.binary == task.binary)
                .map(|s| s.profile)
        };
        let profile_idx = match cached {
            Some(p) => p,
            None => {
                // First call of this pid, or invalidated: resolve the
                // binary against the table and refill the shared cache.
                let p = {
                    let t = read(&self.inner.table);
                    t.by_binary.get(&task.binary).map(|&i| i as u32)
                };
                write(&self.inner.pid_sel).insert(
                    task.pid.0,
                    PidSel {
                        binary: task.binary,
                        generation,
                        profile: p,
                    },
                );
                p
            }
        };
        let profile = profile_idx.and_then(|p| {
            let t = read(&self.inner.table);
            t.profiles.get(p as usize).cloned()
        });
        SEL_MEMO.with(|c| {
            c.set(Some(SelMemo::new(
                generation,
                task.binary,
                profile.as_deref(),
            )))
        });
        profile.map(|cp| cp.actions[idx])
    }

    fn record_violation(&self, v: Violation) {
        self.inner.total_violations.fetch_add(1, Ordering::Relaxed);
        let mut log = lock(&self.inner.violations);
        if log.len() >= MAX_VIOLATIONS {
            self.inner
                .dropped_violations
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push(v);
    }

    /// The retained violation log (oldest first).
    pub fn violations(&self) -> Vec<Violation> {
        lock(&self.inner.violations).clone()
    }

    /// Violations recorded since boot (including dropped ones).
    pub fn total_violations(&self) -> u64 {
        self.inner.total_violations.load(Ordering::Relaxed)
    }

    /// Empties the violation log and counters.
    pub fn clear_violations(&self) {
        lock(&self.inner.violations).clear();
        self.inner.total_violations.store(0, Ordering::Relaxed);
        self.inner.dropped_violations.store(0, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // /proc renders and parsers
    // ------------------------------------------------------------------

    /// `/proc/seccomp/status` content.
    pub fn render_status(&self) -> String {
        format!(
            "mode: {}\nprofiles: {}\ngeneration: {}\nviolations: {} (dropped {})\n",
            self.mode().name(),
            self.profile_count(),
            self.inner.generation.load(Ordering::Relaxed),
            self.total_violations(),
            self.inner.dropped_violations.load(Ordering::Relaxed),
        )
    }

    /// `/proc/seccomp/profiles` content — one `profile` line per binary,
    /// sorted, in the same grammar [`Seccomp::parse_profiles_text`]
    /// accepts, so a round-trip through the node is the identity.
    pub fn render_profiles(&self) -> String {
        let mut out = String::from("# seccomp profiles: one per line\n");
        out.push_str("# profile <binary> default=<deny(ERRNO)|kill> allow=<name,...>\n");
        for spec in self.profiles() {
            out.push_str(&render_profile_line(&spec));
            out.push('\n');
        }
        out
    }

    /// `/proc/seccomp/violations` content.
    pub fn render_violations(&self) -> String {
        let mut out = String::from("# clock pid binary syscall action disposition\n");
        for v in self.violations() {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                v.clock,
                v.pid.0,
                v.binary,
                v.syscall,
                v.action.render(),
                if v.enforced { "denied" } else { "complain" },
            ));
        }
        let dropped = self.inner.dropped_violations.load(Ordering::Relaxed);
        if dropped > 0 {
            out.push_str(&format!("# dropped {}\n", dropped));
        }
        out
    }

    /// Parses the `/proc/seccomp/profiles` write grammar into specs.
    /// Blank lines and `#` comments are ignored; any malformed line or
    /// unknown syscall name rejects the whole write.
    pub fn parse_profiles_text(text: &str) -> Result<Vec<ProfileSpec>, String> {
        let mut specs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            specs
                .push(parse_profile_line(line).map_err(|e| format!("line {}: {}", lineno + 1, e))?);
        }
        Ok(specs)
    }
}

/// Renders one `profile` line of the exchange grammar.
pub fn render_profile_line(spec: &ProfileSpec) -> String {
    let default = match spec.deny_action {
        Action::Kill => "kill".to_string(),
        Action::Deny(e) => format!("deny({})", e.name()),
        Action::Allow => "allow".to_string(), // degenerate, but renderable
    };
    format!(
        "profile {} default={} allow={}",
        spec.binary,
        default,
        spec.allow.join(",")
    )
}

fn parse_deny_action(s: &str) -> Result<Action, String> {
    if s == "kill" {
        return Ok(Action::Kill);
    }
    if let Some(rest) = s.strip_prefix("deny(").and_then(|r| r.strip_suffix(')')) {
        for e in [Errno::EPERM, Errno::EACCES, Errno::ENOSYS, Errno::EINVAL] {
            if rest == e.name() {
                return Ok(Action::Deny(e));
            }
        }
        return Err(format!("unsupported deny errno '{}'", rest));
    }
    Err(format!("bad default action '{}'", s))
}

fn parse_profile_line(line: &str) -> Result<ProfileSpec, String> {
    let rest = line
        .strip_prefix("profile ")
        .ok_or_else(|| "expected 'profile <binary> ...'".to_string())?;
    let mut parts = rest.split_whitespace();
    let binary = parts
        .next()
        .ok_or_else(|| "missing binary path".to_string())?;
    let mut deny_action = Action::Deny(Errno::EPERM);
    let mut allow = Vec::new();
    for field in parts {
        if let Some(v) = field.strip_prefix("default=") {
            deny_action = parse_deny_action(v)?;
        } else if let Some(v) = field.strip_prefix("allow=") {
            for name in v.split(',').filter(|n| !n.is_empty()) {
                if Syscall::name_index(name).is_none() {
                    return Err(format!("unknown syscall name '{}'", name));
                }
                allow.push(name.to_string());
            }
        } else {
            return Err(format!("unknown field '{}'", field));
        }
    }
    Ok(ProfileSpec {
        binary: binary.to_string(),
        allow,
        deny_action,
    })
}

/// The enforcement interceptor: delegates every `before` hook to
/// [`Seccomp::check`] against the [`TaskIdentity`] snapshot in the
/// dispatch context.
///
/// Ordering: register it *before* any [`FaultInjector`](crate::syscall::FaultInjector)
/// (`crate::syscall::FaultInjector`) so an injected fault cannot mask a
/// profile violation, and before the [`TraceRecorder`](crate::trace::TraceRecorder)
/// (`crate::trace::TraceRecorder`) `after` hooks observe the denied
/// result like any other errno.
pub struct SeccompInterceptor {
    state: Seccomp,
}

impl SeccompInterceptor {
    /// Builds an interceptor sharing `state` (usually
    /// `kernel.seccomp.clone()`).
    pub fn new(state: Seccomp) -> SeccompInterceptor {
        SeccompInterceptor { state }
    }
}

impl Interceptor for SeccompInterceptor {
    fn name(&self) -> &'static str {
        "seccomp"
    }

    fn before(&self, _pid: Pid, call: &Syscall, ctx: &mut SysCtx) -> Verdict {
        self.state.check(&ctx.task, call, ctx.clock)
    }
}

/// The derivation recorder: accumulates the set of `(binary, syscall)`
/// pairs actually dispatched, keyed by the [`TaskIdentity`] snapshot —
/// the raw material `tables seccomp-derive` turns into [`ProfileSpec`]s.
/// Cloning shares the underlying set (the [`FaultInjector`](crate::syscall::FaultInjector)`::stats`
/// pattern), so a clone can be registered while the original keeps read
/// access.
#[derive(Clone, Default)]
pub struct ProfileRecorder {
    seen: Arc<Mutex<BTreeMap<String, [bool; Syscall::COUNT]>>>,
}

impl ProfileRecorder {
    /// An empty recorder.
    pub fn new() -> ProfileRecorder {
        ProfileRecorder::default()
    }

    /// The recorded reach sets: binary → syscall indices seen, sorted by
    /// binary path (BTreeMap order) and index.
    pub fn reach_sets(&self) -> Vec<(String, Vec<usize>)> {
        lock(&self.seen)
            .iter()
            .map(|(bin, seen)| {
                let idxs = seen
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &s)| if s { Some(i) } else { None })
                    .collect();
                (bin.clone(), idxs)
            })
            .collect()
    }

    /// The recorded sets as allow-list [`ProfileSpec`]s (deny action
    /// `EPERM`), sorted by binary path.
    pub fn specs(&self) -> Vec<ProfileSpec> {
        self.reach_sets()
            .into_iter()
            .map(|(binary, idxs)| ProfileSpec {
                binary,
                allow: idxs
                    .iter()
                    .map(|&i| Syscall::NAMES[i].to_string())
                    .collect(),
                deny_action: Action::Deny(Errno::EPERM),
            })
            .collect()
    }
}

impl Interceptor for ProfileRecorder {
    fn name(&self) -> &'static str {
        "seccomp_profile_recorder"
    }

    fn before(&self, _pid: Pid, call: &Syscall, ctx: &mut SysCtx) -> Verdict {
        if ctx.task.alive {
            let mut seen = lock(&self.seen);
            seen.entry(ctx.task.binary.as_str().to_string())
                .or_insert([false; Syscall::COUNT])[call.index()] = true;
        }
        Verdict::Continue
    }

    fn after(&self, _pid: Pid, _call: &Syscall, _ret: &SysRet, _ctx: &mut SysCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(pid: u32, binary: &str) -> TaskIdentity {
        TaskIdentity {
            pid: Pid(pid),
            uid: crate::cred::Uid(1000),
            euid: crate::cred::Uid(1000),
            binary: Name::intern(binary),
            alive: true,
        }
    }

    #[test]
    fn compile_rejects_unknown_names() {
        let spec = ProfileSpec::allowing("/bin/x", &["open", "frobnicate"]);
        assert!(CompiledProfile::compile(&spec).is_err());
    }

    #[test]
    fn compiled_profile_roundtrips_through_spec() {
        let spec = ProfileSpec::allowing("/bin/x", &["open", "close", "exit"]);
        let compiled = CompiledProfile::compile(&spec).unwrap();
        let back = compiled.spec();
        assert_eq!(back.binary, "/bin/x");
        assert_eq!(back.allow, vec!["open", "close", "exit"]);
        assert_eq!(compiled.allowed_count(), 3);
    }

    #[test]
    fn off_mode_is_transparent() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["open"])])
            .unwrap();
        let v = s.check(&ident(5, "/bin/x"), &Syscall::Getuid, 0);
        assert_eq!(v, Verdict::Continue);
        assert!(s.violations().is_empty());
    }

    #[test]
    fn enforce_denies_out_of_profile_and_allows_in_profile() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["getuid"])])
            .unwrap();
        s.set_mode(SeccompMode::Enforce);
        assert_eq!(
            s.check(&ident(5, "/bin/x"), &Syscall::Getuid, 0),
            Verdict::Continue
        );
        assert_eq!(
            s.check(&ident(5, "/bin/x"), &Syscall::Pipe, 7),
            Verdict::Deny(Errno::EPERM)
        );
        let vs = s.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].syscall, "pipe");
        assert_eq!(vs[0].clock, 7);
        assert!(vs[0].enforced);
        // Unprofiled binaries stay unconfined.
        assert_eq!(
            s.check(&ident(6, "/bin/other"), &Syscall::Pipe, 8),
            Verdict::Continue
        );
    }

    #[test]
    fn complain_notes_but_does_not_deny() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["getuid"])])
            .unwrap();
        s.set_mode(SeccompMode::Complain);
        match s.check(&ident(5, "/bin/x"), &Syscall::Pipe, 3) {
            Verdict::Note { errno, note } => {
                assert_eq!(errno, Errno::EPERM);
                assert!(note.contains("pipe"));
                assert!(note.contains("/bin/x"));
            }
            other => panic!("expected Note, got {:?}", other),
        }
        let vs = s.violations();
        assert_eq!(vs.len(), 1);
        assert!(!vs[0].enforced);
    }

    #[test]
    fn kill_action_maps_to_eperm_with_kill_disposition() {
        let s = Seccomp::new();
        let mut spec = ProfileSpec::allowing("/bin/x", &["getuid"]);
        spec.deny_action = Action::Kill;
        s.load_profiles(&[spec]).unwrap();
        s.set_mode(SeccompMode::Enforce);
        assert_eq!(
            s.check(&ident(5, "/bin/x"), &Syscall::Fork, 0),
            Verdict::Deny(Errno::EPERM)
        );
        assert_eq!(s.violations()[0].action, Action::Kill);
    }

    #[test]
    fn reload_invalidates_pid_cache() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["getuid"])])
            .unwrap();
        s.set_mode(SeccompMode::Enforce);
        let id = ident(5, "/bin/x");
        assert_eq!(s.check(&id, &Syscall::Pipe, 0), Verdict::Deny(Errno::EPERM));
        // Widen the profile; the cached selection must not stick.
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["getuid", "pipe"])])
            .unwrap();
        assert_eq!(s.check(&id, &Syscall::Pipe, 1), Verdict::Continue);
    }

    #[test]
    fn exec_changes_profile_via_binary_mismatch() {
        let s = Seccomp::new();
        s.load_profiles(&[
            ProfileSpec::allowing("/bin/a", &["getuid"]),
            ProfileSpec::allowing("/bin/b", &["pipe"]),
        ])
        .unwrap();
        s.set_mode(SeccompMode::Enforce);
        assert_eq!(
            s.check(&ident(5, "/bin/a"), &Syscall::Pipe, 0),
            Verdict::Deny(Errno::EPERM)
        );
        // Same pid, new image (post-execve): the other profile applies.
        assert_eq!(
            s.check(&ident(5, "/bin/b"), &Syscall::Pipe, 1),
            Verdict::Continue
        );
        assert_eq!(
            s.check(&ident(5, "/bin/b"), &Syscall::Getuid, 2),
            Verdict::Deny(Errno::EPERM)
        );
    }

    #[test]
    fn profiles_text_roundtrip() {
        let s = Seccomp::new();
        let mut killer = ProfileSpec::allowing("/sbin/killer", &["exit"]);
        killer.deny_action = Action::Kill;
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["open", "close"]), killer])
            .unwrap();
        let text = s.render_profiles();
        let parsed = Seccomp::parse_profiles_text(&text).unwrap();
        assert_eq!(parsed, s.profiles());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Seccomp::parse_profiles_text("profile /b allow=frobnicate").is_err());
        assert!(Seccomp::parse_profiles_text("nonsense line").is_err());
        assert!(Seccomp::parse_profiles_text("profile /b default=deny(EBADF) allow=open").is_err());
        // Comments and blanks are fine.
        assert_eq!(Seccomp::parse_profiles_text("# hi\n\n").unwrap(), vec![]);
    }

    #[test]
    fn duplicate_profiles_rejected_and_table_survives() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &["open"])])
            .unwrap();
        let dup = vec![
            ProfileSpec::allowing("/bin/y", &["open"]),
            ProfileSpec::allowing("/bin/y", &["close"]),
        ];
        assert!(s.load_profiles(&dup).is_err());
        assert_eq!(s.profile_count(), 1);
        assert_eq!(s.profiles()[0].binary, "/bin/x");
    }

    #[test]
    fn memo_does_not_leak_across_control_blocks() {
        // Two kernels on one thread, same binary and pid, different
        // tables: the thread-local memo must never answer for the wrong
        // one (generations are process-globally unique).
        let s1 = Seccomp::new();
        s1.load_profiles(&[ProfileSpec::allowing("/bin/x", &["getuid"])])
            .unwrap();
        s1.set_mode(SeccompMode::Enforce);
        let s2 = Seccomp::new();
        s2.load_profiles(&[ProfileSpec::allowing("/bin/x", &["pipe"])])
            .unwrap();
        s2.set_mode(SeccompMode::Enforce);
        let id = ident(5, "/bin/x");
        for clock in 0..3 {
            assert_eq!(s1.check(&id, &Syscall::Getuid, clock), Verdict::Continue);
            assert_eq!(
                s1.check(&id, &Syscall::Pipe, clock),
                Verdict::Deny(Errno::EPERM)
            );
            assert_eq!(s2.check(&id, &Syscall::Pipe, clock), Verdict::Continue);
            assert_eq!(
                s2.check(&id, &Syscall::Getuid, clock),
                Verdict::Deny(Errno::EPERM)
            );
        }
    }

    #[test]
    fn memo_packs_uniform_profiles_and_flags_mixed_ones() {
        let spec = ProfileSpec::allowing("/bin/x", &["open", "exit"]);
        let cp = CompiledProfile::compile(&spec).unwrap();
        let m = SelMemo::new(7, cp.binary, Some(&cp));
        assert!(m.confined && m.uniform);
        assert_eq!(m.deny, Action::Deny(Errno::EPERM));
        let open = Syscall::name_index("open").unwrap();
        let exit = Syscall::name_index("exit").unwrap();
        let pipe = Syscall::name_index("pipe").unwrap();
        assert_eq!(m.allow_mask >> open & 1, 1);
        assert_eq!(m.allow_mask >> exit & 1, 1);
        assert_eq!(m.allow_mask >> pipe & 1, 0);
        // A hand-built table mixing deny actions (unreachable through
        // load_profiles) must refuse the packed fast path.
        let mut mixed = cp.clone();
        mixed.actions[pipe] = Action::Kill;
        assert!(!SelMemo::new(8, mixed.binary, Some(&mixed)).uniform);
        // No profile at all: unconfined, but still memoizable.
        let un = SelMemo::new(9, cp.binary, None);
        assert!(!un.confined && un.uniform);
    }

    #[test]
    fn violation_log_is_bounded() {
        let s = Seccomp::new();
        s.load_profiles(&[ProfileSpec::allowing("/bin/x", &[])])
            .unwrap();
        s.set_mode(SeccompMode::Complain);
        let id = ident(5, "/bin/x");
        for i in 0..(MAX_VIOLATIONS as u64 + 10) {
            s.check(&id, &Syscall::Getuid, i);
        }
        assert_eq!(s.violations().len(), MAX_VIOLATIONS);
        assert_eq!(s.total_violations(), MAX_VIOLATIONS as u64 + 10);
        assert!(s.render_violations().contains("# dropped 10"));
        s.clear_violations();
        assert!(s.violations().is_empty());
        assert_eq!(s.total_violations(), 0);
    }
}
