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
//! binary. At enforcement time each profile is compiled into a
//! [`CompiledProfile`]: an allow bitmask indexed by [`Syscall::index`]
//! and the one action for every other call, so the per-call check is a
//! shift — no maps, no string compares.
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
//! Profile selection is a pure function of `(table generation, binary)`:
//! a task is judged by the binary in its identity snapshot, so after
//! `execve` the next call selects by the new image, and a reload restamps
//! the generation. Binaries without a profile are unconfined — deriving
//! must therefore cover every binary that should be confined. A lock-free
//! thread-local memo keeps the last selection keyed by that pair; a hit is
//! two integer compares plus a shift on the allow mask, and a miss is one
//! hash probe under the profile table's read lock (see `SelMemo`).

use crate::error::Errno;
use crate::sync::{lock, read, write};
use crate::syscall::abi::Syscall;
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

    /// The inverse of [`Action::render`]: `allow`, `kill`, or
    /// `deny(ERRNO)` with one of the errnos a profile may inject.
    pub fn parse(s: &str) -> Result<Action, String> {
        let denies = [Errno::EPERM, Errno::EACCES, Errno::ENOSYS, Errno::EINVAL].map(Action::Deny);
        [Action::Allow, Action::Kill]
            .into_iter()
            .chain(denies)
            .find(|a| a.render() == s)
            .ok_or_else(|| format!("bad action '{}'", s))
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

// The allow mask packs one bit per ABI syscall into a u64.
const _: () = assert!(Syscall::COUNT <= 64);

/// A compiled profile: the allowlist as a bitmask over [`Syscall::index`]
/// plus the one action for every call outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompiledProfile {
    /// Interned binary path (the selection key).
    pub binary: Name,
    /// Bit `i` set ⇔ the call with [`Syscall::index`] `i` is allowed.
    pub allow: u64,
    /// The action for every call whose bit is clear.
    pub deny: Action,
}

impl CompiledProfile {
    /// Compiles a spec. Fails with the offending name if any allowlist
    /// entry is not an ABI syscall name, and on an `allow` default, which
    /// would confine nothing.
    pub fn compile(spec: &ProfileSpec) -> Result<CompiledProfile, String> {
        if spec.deny_action == Action::Allow {
            return Err(format!("'{}': default action allow", spec.binary));
        }
        let mut allow = 0u64;
        for name in &spec.allow {
            let idx = Syscall::name_index(name)
                .ok_or_else(|| format!("unknown syscall name '{}'", name))?;
            allow |= 1 << idx;
        }
        Ok(CompiledProfile {
            binary: Name::intern(&spec.binary),
            allow,
            deny: spec.deny_action,
        })
    }

    /// The profile's action for the call with [`Syscall::index`] `idx`.
    pub fn action(&self, idx: usize) -> Action {
        if self.allow >> idx & 1 == 1 {
            Action::Allow
        } else {
            self.deny
        }
    }

    /// Back to the exchange form (allow names in ABI order).
    pub fn spec(&self) -> ProfileSpec {
        ProfileSpec {
            binary: self.binary.as_str().to_string(),
            allow: (0..Syscall::COUNT)
                .filter(|&i| self.allow >> i & 1 == 1)
                .map(|i| Syscall::NAMES[i].to_string())
                .collect(),
            deny_action: self.deny,
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

/// Process-global source for table generations. Every (re)load of *any*
/// [`Seccomp`] instance draws a fresh stamp, so a nonzero generation
/// identifies exactly one table state across the whole process — which is
/// what lets the thread-local [`SelMemo`] below validate itself with an
/// integer compare instead of holding a reference to its control block.
/// Generation 0 is reserved for "never loaded": every instance at 0 has
/// an empty table, so a gen-0 memo ("unconfined") is right for all of
/// them.
static GENERATION_SOURCE: AtomicU64 = AtomicU64::new(1);

/// Thread-local memo of the last profile selection: the dispatch fast
/// path. Selection is a pure function of `(table generation, binary)`, so
/// a memo hit needs two integer compares and no locks. Filled on a miss;
/// never explicitly invalidated (a reload changes the generation, an
/// `execve` changes the binary, and both fail the compare).
#[derive(Clone, Copy)]
struct SelMemo {
    generation: u64,
    binary: Name,
    /// `None`: no profile for `binary` (unconfined).
    profile: Option<CompiledProfile>,
}

thread_local! {
    static SEL_MEMO: Cell<Option<SelMemo>> = const { Cell::new(None) };
}

struct SeccompState {
    mode: AtomicU8,
    /// Restamped from [`GENERATION_SOURCE`] on every (re)load; stale
    /// [`SelMemo`] entries self-invalidate by comparison.
    generation: AtomicU64,
    by_binary: RwLock<HashMap<Name, CompiledProfile>>,
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
                by_binary: RwLock::new(HashMap::new()),
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
    /// bumps the selection generation, so every thread re-selects on its
    /// next call.
    pub fn load_profiles(&self, specs: &[ProfileSpec]) -> Result<usize, String> {
        let mut by_binary = HashMap::with_capacity(specs.len());
        for spec in specs {
            let compiled = CompiledProfile::compile(spec)?;
            if by_binary.insert(compiled.binary, compiled).is_some() {
                return Err(format!("duplicate profile for '{}'", spec.binary));
            }
        }
        let n = by_binary.len();
        *write(&self.inner.by_binary) = by_binary;
        self.bump_generation();
        Ok(n)
    }

    /// Stamps this table state with a process-globally unique generation
    /// (see [`GENERATION_SOURCE`]), invalidating stale [`SelMemo`]
    /// entries by compare failure.
    fn bump_generation(&self) {
        self.inner.generation.store(
            GENERATION_SOURCE.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Number of loaded profiles.
    pub fn profile_count(&self) -> usize {
        read(&self.inner.by_binary).len()
    }

    /// Snapshot of the loaded profiles as exchange specs, sorted by
    /// binary path.
    pub fn profiles(&self) -> Vec<ProfileSpec> {
        let mut specs: Vec<ProfileSpec> = read(&self.inner.by_binary)
            .values()
            .map(CompiledProfile::spec)
            .collect();
        specs.sort_by(|a, b| a.binary.cmp(&b.binary));
        specs
    }

    /// The core per-call check: selects the caller's profile by its
    /// binary and maps the profile action plus the global mode onto a
    /// dispatch [`Verdict`].
    pub fn check(&self, task: &TaskIdentity, call: &Syscall, clock: u64) -> Verdict {
        let mode = self.mode();
        if mode == SeccompMode::Off {
            return Verdict::Continue;
        }
        let action = match self.profile_for(task.binary) {
            Some(p) => p.action(call.index()),
            None => return Verdict::Continue, // unprofiled binary: unconfined
        };
        let Some(errno) = action.errno() else {
            return Verdict::Continue;
        };
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
            Verdict::Deny(errno)
        } else {
            Verdict::Note { errno }
        }
    }

    /// The profile for `binary`: a warm hit is the thread-local
    /// [`SelMemo`], no locks; a miss probes the table under its read lock
    /// and refills the memo.
    fn profile_for(&self, binary: Name) -> Option<CompiledProfile> {
        let generation = self.inner.generation.load(Ordering::Relaxed);
        if let Some(m) = SEL_MEMO.with(Cell::get) {
            if m.generation == generation && m.binary == binary {
                return m.profile;
            }
        }
        let profile = read(&self.inner.by_binary).get(&binary).copied();
        SEL_MEMO.with(|c| {
            c.set(Some(SelMemo {
                generation,
                binary,
                profile,
            }))
        });
        profile
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
    format!(
        "profile {} default={} allow={}",
        spec.binary,
        spec.deny_action.render(),
        spec.allow.join(",")
    )
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
            deny_action = Action::parse(v)?;
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
    /// Binary path → allow mask over [`Syscall::index`].
    seen: Arc<Mutex<BTreeMap<String, u64>>>,
}

impl ProfileRecorder {
    /// An empty recorder.
    pub fn new() -> ProfileRecorder {
        ProfileRecorder::default()
    }

    /// The recorded sets as allow-list [`ProfileSpec`]s (deny action
    /// `EPERM`), sorted by binary path.
    pub fn specs(&self) -> Vec<ProfileSpec> {
        lock(&self.seen)
            .iter()
            .map(|(binary, &allow)| {
                CompiledProfile {
                    binary: Name::intern(binary),
                    allow,
                    deny: Action::Deny(Errno::EPERM),
                }
                .spec()
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
            *lock(&self.seen)
                .entry(ctx.task.binary.as_str().to_string())
                .or_default() |= 1 << call.index();
        }
        Verdict::Continue
    }
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
        assert_eq!(
            s.check(&ident(5, "/bin/x"), &Syscall::Pipe, 3),
            Verdict::Note {
                errno: Errno::EPERM
            }
        );
        let vs = s.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].syscall, "pipe");
        assert_eq!(vs[0].binary.as_str(), "/bin/x");
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
    fn reload_invalidates_the_memo() {
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
    fn action_parse_inverts_render() {
        let denies = [Errno::EPERM, Errno::EACCES, Errno::ENOSYS, Errno::EINVAL].map(Action::Deny);
        for action in [Action::Allow, Action::Kill].into_iter().chain(denies) {
            assert_eq!(Action::parse(&action.render()), Ok(action));
        }
        assert!(Action::parse("deny(EBADF)").is_err() && Action::parse("deny(EPERM").is_err());
        // `allow` parses, but no profile may default to it.
        let mut spec = ProfileSpec::allowing("/bin/x", &["open"]);
        spec.deny_action = Action::Allow;
        assert!(CompiledProfile::compile(&spec).is_err());
        assert!(Seccomp::new().load_profiles(&[spec]).is_err());
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
