//! The Linux Security Module hook framework.
//!
//! The paper's central mechanism: policies currently hard-coded in
//! setuid-to-root binaries are relocated behind kernel hooks. Stock Linux
//! hard-codes capability checks at the 8 studied call sites; Protego adds
//! LSM hooks *at those same sites* which may **grant** an operation that
//! the capability check would refuse (when the object-based policy allows
//! it) or **deny** one the capability check would permit.
//!
//! Accordingly every hook returns a [`Decision`]:
//! [`Decision::UseDefault`] applies the stock capability check,
//! [`Decision::Allow`] grants regardless of capabilities, and
//! [`Decision::Deny`] refuses with a specific errno. Hooks that interact
//! with authentication (the sudoers delegation of §4.3) can additionally
//! request that the kernel launch the trusted authentication utility.
//! Each hook returns the [`RuleId`] of the rule it matched beside its
//! decision, so audit provenance travels with the call.

use crate::caps::Cap;
use crate::cred::{Credentials, Gid, Uid};
use crate::dev::{ModemOpt, ModemState};
use crate::error::{Errno, KResult};
use crate::net::{Domain, Route, RouteTable, Rule, SockType};
use crate::vfs::{Access, MountOptions};

/// Identifier of a module policy rule, as recorded in audit provenance:
/// an interned label such as `bind:80/tcp -> (/usr/sbin/httpd, 33)`.
/// Modules intern each label once, when the policy is loaded, so a hook
/// returns a `Copy` symbol and formats nothing.
pub type RuleId = crate::vfs::Name;

/// Tri-state outcome of a simple hook.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Fall back to the kernel's hard-coded (capability-based) policy.
    UseDefault,
    /// Grant the operation even without the usual capability.
    Allow,
    /// Refuse the operation with this errno.
    Deny(Errno),
}

/// Scope of an authentication request handed to the trusted agent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthScope {
    /// Prove knowledge of this user's password.
    User(Uid),
    /// Prove knowledge of this group's password (newgrp §4.3).
    Group(Gid),
}

/// A restricted uid transition recorded by the `setuid` hook and resolved
/// at `exec` time (§4.3: "policy enforcement must span two system calls").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingSetuid {
    /// The uid the process will become at `exec`.
    pub target: Uid,
    /// Binaries the pending user may exec; empty means unrestricted.
    pub allowed_binaries: Vec<String>,
    /// Whether the *target* user must authenticate at exec (su semantics).
    pub require_target_auth: bool,
    /// Environment variables that survive the transition; everything else
    /// is sanitized to protect the delegated command's integrity.
    pub keep_env: Vec<String>,
    /// The rule that created the transition; `bprm_check` reports it when
    /// the transition resolves.
    pub rule: Option<RuleId>,
}

/// Outcome of the `setuid`/`setgid` hooks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetuidDecision {
    /// Stock policy: require CAP_SETUID / CAP_SETGID.
    UseDefault,
    /// Permit the transition immediately.
    Allow,
    /// Refuse.
    Deny(Errno),
    /// Report success now but defer the credential change to `exec`,
    /// restricted as recorded.
    Pending(PendingSetuid),
    /// The kernel must run the trusted authentication utility for this
    /// scope, then re-invoke the hook.
    NeedAuth(AuthScope),
}

/// Environment sanitization applied across a privilege transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvPolicy {
    /// Keep the environment unchanged.
    KeepAll,
    /// Drop everything except the named variables (plus a minimal safe
    /// base the kernel always preserves: PATH, TERM, HOME recomputed).
    ClearExcept(Vec<String>),
}

/// Outcome of the exec-time (`bprm_check`) hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecDecision {
    /// Stock behaviour: honour the setuid/setgid bits.
    UseDefault,
    /// Refuse the exec.
    Deny(Errno),
    /// Run the binary with explicit credentials and environment policy
    /// computed by the module (resolving a pending transition, refusing the
    /// setuid bit, etc.).
    Transition {
        /// Credentials to install for the new program image.
        cred: Credentials,
        /// Environment sanitization.
        env: EnvPolicy,
    },
    /// Authenticate, then re-invoke the hook.
    NeedAuth(AuthScope),
}

/// Outcome of the file-open hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileDecision {
    /// Stock DAC result stands.
    UseDefault,
    /// Grant regardless of DAC.
    Allow,
    /// Refuse.
    Deny(Errno),
    /// Authenticate, then re-invoke (Protego's shadow-file reauth, §4.4).
    NeedAuth(AuthScope),
    /// Grant, but force close-on-exec so the handle cannot be inherited
    /// (Protego's shadow-file handles).
    AllowCloexec,
}

/// Context for the mount hook.
#[derive(Clone, Debug)]
pub struct MountRequest {
    /// Source device or pseudo-fs.
    pub source: String,
    /// Normalized mountpoint path.
    pub target: String,
    /// Filesystem type.
    pub fstype: String,
    /// Parsed options.
    pub options: MountOptions,
}

/// Context for the umount hook.
#[derive(Clone, Debug)]
pub struct UmountRequest {
    /// Mountpoint being detached.
    pub target: String,
    /// The mount's source device.
    pub source: String,
    /// Filesystem type of the mount.
    pub fstype: String,
    /// Who mounted it.
    pub mounted_by: Uid,
}

/// Context for the bind hook.
#[derive(Clone, Debug)]
pub struct BindRequest {
    /// Requested port.
    pub port: u16,
    /// Path of the binary performing the bind — Protego's application
    /// instance identity (binary, uid).
    pub binary: String,
    /// Whether this is TCP (else UDP).
    pub tcp: bool,
}

/// Context for the setuid/setgid hooks. Borrows the caller's credentials
/// and binary path straight from the task table, so building one is free
/// — the setuid/setgid fast path (every `id`-style re-assert of an
/// already-held gid) performs no clones.
#[derive(Clone, Copy, Debug)]
pub struct SetidCtx<'a> {
    /// Calling task's credentials.
    pub cred: &'a Credentials,
    /// Path of the binary the task is running.
    pub binary: &'a str,
    /// Logical time of the task's last successful authentication.
    pub last_auth: Option<u64>,
    /// Principal that authentication proved.
    pub last_auth_scope: Option<AuthScope>,
    /// Current logical time.
    pub now: u64,
}

impl SetidCtx<'_> {
    /// Whether the task proved `scope` within `window` seconds.
    pub fn authed_for(&self, scope: AuthScope, window: u64) -> bool {
        self.last_auth_scope == Some(scope)
            && self
                .last_auth
                .map(|t| self.now.saturating_sub(t) <= window)
                .unwrap_or(false)
    }
}

/// Context for the exec hook.
#[derive(Clone, Debug)]
pub struct ExecCtx {
    /// Credentials before the exec.
    pub cred: Credentials,
    /// Resolved path of the binary being executed.
    pub binary: String,
    /// Owner of the binary's inode.
    pub file_owner: Uid,
    /// Group of the binary's inode.
    pub file_group: Gid,
    /// Whether the inode carries the setuid bit (and the mount allows it).
    pub setuid_bit: bool,
    /// Whether the inode carries the setgid bit.
    pub setgid_bit: bool,
    /// Pending restricted transition recorded at `setuid` time.
    pub pending: Option<PendingSetuid>,
    /// Logical time of last authentication.
    pub last_auth: Option<u64>,
    /// Principal that authentication proved.
    pub last_auth_scope: Option<AuthScope>,
    /// Current logical time.
    pub now: u64,
}

impl ExecCtx {
    /// Whether the task proved `scope` within `window` seconds.
    pub fn authed_for(&self, scope: AuthScope, window: u64) -> bool {
        self.last_auth_scope == Some(scope)
            && self
                .last_auth
                .map(|t| self.now.saturating_sub(t) <= window)
                .unwrap_or(false)
    }
}

/// Context for the file-open hook. Borrows the caller's credentials and
/// paths straight from the task table (like [`SetidCtx`]), so building
/// one on the open fast path clones nothing — `Credentials` owns a
/// supplementary-groups `Vec`, which made the old owned form allocate on
/// every open.
#[derive(Clone, Copy, Debug)]
pub struct FileOpenCtx<'a> {
    /// Caller credentials.
    pub cred: &'a Credentials,
    /// Absolute path being opened.
    pub path: &'a str,
    /// Binary performing the open (for binary-identity policies such as
    /// ssh-keysign's host-key access).
    pub binary: &'a str,
    /// Requested access.
    pub access: Access,
    /// Whether stock DAC would allow the access.
    pub dac_allows: bool,
    /// Owner of the inode being opened.
    pub file_owner: Uid,
    /// Last authentication time of the task.
    pub last_auth: Option<u64>,
    /// Principal that authentication proved.
    pub last_auth_scope: Option<AuthScope>,
    /// Current logical time.
    pub now: u64,
}

impl FileOpenCtx<'_> {
    /// Whether the task proved `scope` within `window` seconds.
    pub fn authed_for(&self, scope: AuthScope, window: u64) -> bool {
        self.last_auth_scope == Some(scope)
            && self
                .last_auth
                .map(|t| self.now.saturating_sub(t) <= window)
                .unwrap_or(false)
    }
}

/// KMS / video ioctl operations (§4.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KmsOp {
    /// Set resolution/refresh for the caller's own VT.
    SetMode {
        /// Width in pixels.
        width: u32,
        /// Height in pixels.
        height: u32,
        /// Refresh rate in Hz.
        refresh: u32,
    },
    /// Switch the active VT (kernel context-switches the card).
    VtSwitch {
        /// Target virtual terminal.
        vt: u32,
    },
    /// Program card registers directly (pre-KMS path; root-only).
    RawRegisterAccess,
}

/// The LSM hook surface. Default implementations fall through to the stock
/// kernel policy, so a module only overrides the interfaces it governs.
///
/// Every hook returns `(decision, rule)`: the rule is the [`RuleId`] the
/// decision came from, or `None`. A `UseDefault` answer carries `None`:
/// it is audited as stock policy, so no module rule decided it.
///
/// Hooks take `&self`; module policy state is mutated only through
/// [`SecurityModule::config_write`] (the `/proc` interface) — mirroring how
/// Protego's LSM is configured by the monitoring daemon in Figure 1.
///
/// `Send + Sync` because the kernel is shared across worker threads:
/// hooks run concurrently, so a module keeps interior state behind locks
/// (or [`crate::sync::PerThread`] for per-dispatch scratch).
pub trait SecurityModule: Send + Sync {
    /// Module name (appears under `/proc/<name>/`).
    fn name(&self) -> &'static str;

    /// May `cred` exercise `cap`? `UseDefault` means "iff the credential
    /// holds the capability"; a module may deny (confinement) but should
    /// grant through the specific object hooks instead of here.
    fn capable(&self, _cred: &Credentials, _binary: &str, _cap: Cap) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `mount(2)`.
    fn sb_mount(&self, _cred: &Credentials, _req: &MountRequest) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `umount(2)`.
    fn sb_umount(&self, _cred: &Credentials, _req: &UmountRequest) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `socket(2)`.
    fn socket_create(
        &self,
        _cred: &Credentials,
        _domain: Domain,
        _stype: SockType,
        _protocol: u8,
    ) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `bind(2)` to a port below 1024.
    fn socket_bind(&self, _cred: &Credentials, _req: &BindRequest) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `setuid(2)` family.
    fn task_setuid(&self, _ctx: &SetidCtx<'_>, _target: Uid) -> (SetuidDecision, Option<RuleId>) {
        (SetuidDecision::UseDefault, None)
    }

    /// `setgid(2)` family.
    fn task_setgid(&self, _ctx: &SetidCtx<'_>, _target: Gid) -> (SetuidDecision, Option<RuleId>) {
        (SetuidDecision::UseDefault, None)
    }

    /// `execve(2)` — both setuid-bit handling and pending-transition
    /// resolution.
    fn bprm_check(&self, _ctx: &ExecCtx) -> (ExecDecision, Option<RuleId>) {
        (ExecDecision::UseDefault, None)
    }

    /// Route-table-changing ioctls (`SIOCADDRT`).
    fn ioctl_route_add(
        &self,
        _cred: &Credentials,
        _route: &Route,
        _table: &RouteTable,
    ) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// Modem-configuration ioctls on a tty/ppp device.
    fn ioctl_modem(
        &self,
        _cred: &Credentials,
        _opt: ModemOpt,
        _state: &ModemState,
    ) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// The dm-crypt metadata ioctl (discloses key material).
    fn ioctl_dmcrypt(&self, _cred: &Credentials) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// Video mode-setting and VT-switch operations.
    fn ioctl_kms(&self, _cred: &Credentials, _op: KmsOp) -> (Decision, Option<RuleId>) {
        (Decision::UseDefault, None)
    }

    /// `open(2)` after DAC evaluation.
    fn file_open(&self, _ctx: &FileOpenCtx) -> (FileDecision, Option<RuleId>) {
        (FileDecision::UseDefault, None)
    }

    /// Configuration files to expose under `/proc/<name>/`.
    fn config_nodes(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Handles a write to `/proc/<name>/<node>`. Only root may write
    /// (enforced by the kernel before calling).
    fn config_write(&mut self, _node: &str, _content: &str) -> KResult<()> {
        Err(Errno::ENOSYS)
    }

    /// Renders `/proc/<name>/<node>` for reading.
    fn config_read(&self, _node: &str) -> KResult<String> {
        Err(Errno::ENOSYS)
    }

    /// Netfilter rules the module installs at registration (Protego's
    /// raw-socket whitelist).
    fn boot_netfilter_rules(&self) -> Vec<Rule> {
        Vec::new()
    }

    /// Hit/miss/invalidation counters for the module's internal policy
    /// caches (compiled-profile lookup tables and the like), keyed by a
    /// stable cache name. The kernel folds these into the
    /// `/proc/<name>/metrics` view next to the VFS dcache counters; the
    /// default reports no caches.
    fn cache_stats(&self) -> Vec<(&'static str, crate::trace::CacheStats)> {
        Vec::new()
    }
}

/// A module that enforces nothing beyond stock Linux semantics; the
/// baseline when no LSM is registered.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullLsm;

impl SecurityModule for NullLsm {
    fn name(&self) -> &'static str {
        "null"
    }
}

/// Trusted agent that can prove a user's (or group's) identity by
/// interacting with the task's terminal. Registered on the kernel at boot;
/// the `userland` crate provides the real implementation refactored from
/// `login` (the paper's 1200-line authentication utility).
///
/// `Send` because the kernel owning it is shared across worker threads;
/// the kernel serializes authentication under one mutex, so `&mut self`
/// stays and `Sync` is not required.
pub trait AuthProvider: Send {
    /// Attempts authentication for `scope` by consuming password attempts
    /// from `terminal_input` and checking them against the credential
    /// databases stored in the (trusted, read-only here) filesystem view.
    fn authenticate(
        &mut self,
        scope: AuthScope,
        terminal_input: &mut std::collections::VecDeque<String>,
        vfs: &crate::vfs::Vfs,
    ) -> bool;
}

/// Simple password-hash function used by the simulation's credential
/// databases. **Not** cryptographically secure — deterministic FNV-style
/// hashing keeps the end-to-end flows testable without a crypto
/// dependency; the paper's flows are agnostic to the hash.
pub fn sim_crypt(salt: &str, password: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in salt.bytes().chain(password.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("$sim${}${:016x}", salt, h)
}

/// Verifies a password against a `sim_crypt` hash string.
pub fn sim_crypt_verify(hash: &str, password: &str) -> bool {
    let mut parts = hash.split('$');
    let (Some(""), Some("sim"), Some(salt), Some(_)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return false;
    };
    sim_crypt(salt, password) == hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_lsm_defaults() {
        let lsm = NullLsm;
        assert_eq!(lsm.name(), "null");
        let cred = Credentials::user(Uid(1000), Gid(1000));
        assert_eq!(
            lsm.capable(&cred, "/bin/x", Cap::SysAdmin),
            (Decision::UseDefault, None)
        );
        assert_eq!(lsm.ioctl_dmcrypt(&cred), (Decision::UseDefault, None));
        assert!(lsm.config_nodes().is_empty());
        assert_eq!(lsm.config_read("x").unwrap_err(), Errno::ENOSYS);
    }

    #[test]
    fn sim_crypt_roundtrip() {
        let h = sim_crypt("ab", "hunter2");
        assert!(sim_crypt_verify(&h, "hunter2"));
        assert!(!sim_crypt_verify(&h, "hunter3"));
        assert!(!sim_crypt_verify("garbage", "hunter2"));
        assert!(!sim_crypt_verify("$sim$ab$deadbeef", "hunter2"));
    }

    #[test]
    fn sim_crypt_salt_matters() {
        assert_ne!(sim_crypt("aa", "pw"), sim_crypt("bb", "pw"));
    }
}
