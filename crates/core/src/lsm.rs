//! The Protego security module.
//!
//! Implements every policy category of the paper's study (Table 4) as LSM
//! hook logic over the [`crate::policy::PolicySet`] configured through
//! `/proc/protego/*`:
//!
//! * **mount/umount** — whitelist of (device, mountpoint, options, scope);
//! * **bind** — privileged ports allocated to (binary, uid) instances;
//! * **socket** — raw/packet sockets for everyone, scoped by netfilter;
//! * **setuid/setgid** — sudoers-derived delegation with kernel-tracked
//!   authentication recency and setuid-on-exec for command-restricted
//!   rules;
//! * **ioctl** — non-conflicting route additions and safe modem options
//!   for unprivileged pppd; dm-crypt metadata stays privileged (the `/sys`
//!   attribute is the unprivileged replacement);
//! * **file open** — binary-identity grants (ssh-keysign) and
//!   reauthentication-gated, CLOEXEC-forced shadow fragments.

use crate::policy::{
    self, AuthReq, BindRule, CmdSpec, GroupRule, KeyFileRule, MountRule, MountScope, PolicySet,
    Principal, SudoRule, Target,
};
use sim_kernel::caps::Cap;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::dev::{ModemOpt, ModemState};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::lsm::{
    AuthScope, BindRequest, Decision, EnvPolicy, ExecCtx, ExecDecision, FileDecision, FileOpenCtx,
    KmsOp, MountRequest, PendingSetuid, RuleId, SecurityModule, SetidCtx, SetuidDecision,
    UmountRequest,
};
use sim_kernel::net::{Domain, ProtoMatch, Route, RouteTable, Rule, SockType, Verdict};
use sim_kernel::sync::lock;
use sim_kernel::trace::CacheStats;
use sim_kernel::vfs::{Access, Name};
use std::collections::HashMap;
use std::sync::Mutex;

/// The authentication recency window (sudo's 5 minutes), in logical
/// seconds.
pub const AUTH_WINDOW: u64 = 300;

/// Bound on the keyfile-rule lookup cache; flushed wholesale on overflow.
const KEYFILE_CACHE_CAP: usize = 1024;

/// The Protego LSM.
#[derive(Debug)]
pub struct ProtegoLsm {
    policy: PolicySet,
    /// Audit label of every policy rule, rebuilt with the policy.
    labels: Labels,
    /// Interned path → index of the governing keyfile rule (None = no
    /// rule). Keyed on [`Name`] so the steady-state probe hashes a u32
    /// and touches no heap. The cache stores the rule's *index*, not a
    /// decision: the decision depends on the caller's binary and access,
    /// and the index also yields the rule's label. Dropped on any policy
    /// write.
    keyfile_cache: Mutex<HashMap<Name, Option<usize>>>,
    keyfile_cache_stats: Mutex<CacheStats>,
}

/// The audit labels of a [`PolicySet`], interned once when the policy is
/// loaded so a hook returns a `Copy` [`RuleId`] and formats nothing.
/// Each vector is parallel to the policy list it is named after.
#[derive(Debug)]
struct Labels {
    mounts: Vec<RuleId>,
    umounts: Vec<RuleId>,
    binds: Vec<RuleId>,
    sudo: Vec<RuleId>,
    groups: Vec<RuleId>,
    keyfiles: Vec<RuleId>,
    creddb: Vec<RuleId>,
    membership: RuleId,
    ppp_routes: RuleId,
    ppp_modem: RuleId,
}

impl Labels {
    fn of(p: &PolicySet) -> Labels {
        Labels {
            mounts: intern_each(&p.mounts, mount_label),
            umounts: intern_each(&p.mounts, umount_label),
            binds: intern_each(&p.binds, bind_label),
            sudo: intern_each(&p.sudo, sudo_label),
            groups: intern_each(&p.groups, group_label),
            keyfiles: intern_each(&p.keyfiles, keyfile_label),
            creddb: intern_each(&p.creddb.shadow_prefixes, creddb_label),
            membership: RuleId::intern("groups:membership"),
            ppp_routes: RuleId::intern("ppp:user_routes"),
            ppp_modem: RuleId::intern("ppp:safe_modem_opts"),
        }
    }
}

/// Interns one label per rule, parallel to `rules`.
fn intern_each<T>(rules: &[T], label: fn(&T) -> String) -> Vec<RuleId> {
    rules.iter().map(|r| RuleId::intern(&label(r))).collect()
}

fn mount_label(r: &MountRule) -> String {
    format!("mounts:{}->{}", r.source, r.mountpoint)
}

fn umount_label(r: &MountRule) -> String {
    format!("mounts:{}->{} scope={:?}", r.source, r.mountpoint, r.scope)
}

fn bind_label(r: &BindRule) -> String {
    let proto = if r.tcp { "tcp" } else { "udp" };
    format!("bind:{}/{} -> ({}, {})", r.port, proto, r.binary, r.uid)
}

fn sudo_label(r: &SudoRule) -> String {
    format!(
        "sudoers:{:?} -> {:?} cmd={:?} auth={:?}",
        r.from, r.target, r.cmd, r.auth
    )
}

fn group_label(g: &GroupRule) -> String {
    format!("groups:{} password", g.gid)
}

fn keyfile_label(k: &KeyFileRule) -> String {
    format!("keyfiles:{} -> {}", k.path, k.binary)
}

fn creddb_label(prefix: &String) -> String {
    format!("creddb:{}", prefix)
}

impl Default for ProtegoLsm {
    fn default() -> ProtegoLsm {
        ProtegoLsm::with_policy(PolicySet::default())
    }
}

impl ProtegoLsm {
    /// An empty-policy module: everything behaves like stock Linux until
    /// the monitoring daemon (or the administrator) configures it.
    pub fn new() -> ProtegoLsm {
        ProtegoLsm::default()
    }

    /// A module preconfigured with a policy set (used by image builders).
    pub fn with_policy(policy: PolicySet) -> ProtegoLsm {
        ProtegoLsm {
            labels: Labels::of(&policy),
            policy,
            keyfile_cache: Mutex::default(),
            keyfile_cache_stats: Mutex::default(),
        }
    }

    /// Read-only view of the active policy.
    pub fn policy(&self) -> &PolicySet {
        &self.policy
    }

    fn find_mount_rule(&self, req: &MountRequest) -> Option<usize> {
        self.policy.mounts.iter().position(|r| {
            r.source == req.source
                && r.mountpoint == req.target
                && r.fstype.as_deref().map(|t| t == req.fstype).unwrap_or(true)
        })
    }

    fn find_umount_rule(&self, target: &str) -> Option<usize> {
        self.policy
            .mounts
            .iter()
            .position(|r| r.mountpoint == target)
    }

    fn find_bind_rule(&self, port: u16, tcp: bool) -> Option<(&BindRule, RuleId)> {
        let i = self
            .policy
            .binds
            .iter()
            .position(|r| r.port == port && r.tcp == tcp)?;
        Some((&self.policy.binds[i], self.labels.binds[i]))
    }

    fn principal_matches(p: Principal, cred: &Credentials) -> bool {
        match p {
            Principal::Any => true,
            Principal::Uid(u) => cred.ruid == Uid(u),
            Principal::Gid(g) => cred.in_group(Gid(g)),
        }
    }

    fn find_sudo_rule(&self, cred: &Credentials, target: Uid) -> Option<(&SudoRule, RuleId)> {
        let i = self.policy.sudo.iter().position(|r| {
            Self::principal_matches(r.from, cred)
                && match r.target {
                    Target::Any => true,
                    Target::Uid(u) => target == Uid(u),
                }
        })?;
        Some((&self.policy.sudo[i], self.labels.sudo[i]))
    }

    fn group_rule(&self, gid: Gid) -> Option<(&GroupRule, RuleId)> {
        let i = self.policy.groups.iter().position(|g| g.gid == gid.0)?;
        Some((&self.policy.groups[i], self.labels.groups[i]))
    }

    fn keyfile_rule(&self, path: &str) -> Option<(&KeyFileRule, RuleId)> {
        let _span = sim_kernel::trace::span(sim_kernel::trace::Pathway::PolicyCache);
        // Any path the kernel hands a hook has already been interned by
        // the VFS walk, so a `lookup` miss means the path was never seen
        // and cannot be cached (probe without polluting the interner).
        if let Some(key) = Name::lookup(path) {
            let cache = lock(&self.keyfile_cache);
            if let Some(&idx) = cache.get(&key) {
                lock(&self.keyfile_cache_stats).hits += 1;
                return idx.map(|i| self.keyfile(i));
            }
        }
        lock(&self.keyfile_cache_stats).misses += 1;
        let idx = self.policy.keyfiles.iter().position(|k| k.path == path);
        let mut cache = lock(&self.keyfile_cache);
        if cache.len() >= KEYFILE_CACHE_CAP {
            cache.clear();
            lock(&self.keyfile_cache_stats).invalidations += 1;
        }
        cache.insert(Name::intern(path), idx);
        idx.map(|i| self.keyfile(i))
    }

    fn keyfile(&self, i: usize) -> (&KeyFileRule, RuleId) {
        (&self.policy.keyfiles[i], self.labels.keyfiles[i])
    }

    /// Drops the keyfile lookup cache (policy reload).
    fn flush_keyfile_cache(&self) {
        let mut cache = lock(&self.keyfile_cache);
        if !cache.is_empty() {
            lock(&self.keyfile_cache_stats).invalidations += 1;
        }
        cache.clear();
    }

    /// Counters of the keyfile-rule lookup cache.
    pub fn keyfile_cache_stats(&self) -> CacheStats {
        *lock(&self.keyfile_cache_stats)
    }

    /// The label of the shadow-fragment prefix `path` falls under.
    fn shadow_fragment(&self, path: &str) -> Option<RuleId> {
        let prefixes = &self.policy.creddb.shadow_prefixes;
        let i = prefixes.iter().position(|p| path.starts_with(p.as_str()))?;
        Some(self.labels.creddb[i])
    }

    /// The default raw-socket whitelist of §4.1.1, mined from the studied
    /// binaries: no spoofing, ICMP echo (ping/mtr), traceroute UDP probes,
    /// ARP (arping); all other raw traffic drops.
    pub fn default_raw_rules() -> Vec<Rule> {
        vec![
            Rule {
                name: "protego-no-spoof".into(),
                raw_socket_only: true,
                proto: None,
                icmp_types: None,
                dst_ports: None,
                spoofed: Some(true),
                verdict: Verdict::Drop,
            },
            Rule {
                name: "protego-allow-icmp-echo".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Icmp),
                icmp_types: Some(vec![0, 8]),
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-allow-traceroute-probes".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Udp),
                icmp_types: None,
                dst_ports: Some((33434, 33534)),
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-allow-arp".into(),
                raw_socket_only: true,
                proto: Some(ProtoMatch::Arp),
                icmp_types: None,
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Accept,
            },
            Rule {
                name: "protego-drop-raw-default".into(),
                raw_socket_only: true,
                proto: None,
                icmp_types: None,
                dst_ports: None,
                spoofed: None,
                verdict: Verdict::Drop,
            },
        ]
    }
}

impl SecurityModule for ProtegoLsm {
    fn name(&self) -> &'static str {
        "protego"
    }

    // ------------------------------------------------------------------
    // mount / umount (§2, §4.2)
    // ------------------------------------------------------------------

    fn sb_mount(&self, cred: &Credentials, req: &MountRequest) -> (Decision, Option<RuleId>) {
        if cred.euid.is_root() {
            // The administrator path is unchanged.
            return (Decision::UseDefault, None);
        }
        let Some(i) = self.find_mount_rule(req) else {
            return (Decision::UseDefault, None);
        };
        let decision = if self.policy.mounts[i].read_only && !req.options.read_only {
            // The whitelist requires ro; a rw request is refused outright
            // rather than falling back to EPERM, so the user sees why.
            Decision::Deny(Errno::EACCES)
        } else {
            Decision::Allow
        };
        (decision, Some(self.labels.mounts[i]))
    }

    fn sb_umount(&self, cred: &Credentials, req: &UmountRequest) -> (Decision, Option<RuleId>) {
        if cred.euid.is_root() {
            return (Decision::UseDefault, None);
        }
        let Some(i) = self.find_umount_rule(&req.target) else {
            return (Decision::UseDefault, None);
        };
        let decision = match self.policy.mounts[i].scope {
            MountScope::Users => Decision::Allow,
            MountScope::User if req.mounted_by == cred.ruid => Decision::Allow,
            MountScope::User => Decision::Deny(Errno::EPERM),
        };
        (decision, Some(self.labels.umounts[i]))
    }

    // ------------------------------------------------------------------
    // socket / bind (§4.1.1, §4.1.3)
    // ------------------------------------------------------------------

    fn socket_create(
        &self,
        _cred: &Credentials,
        _domain: Domain,
        _stype: SockType,
        _protocol: u8,
    ) -> (Decision, Option<RuleId>) {
        // Anyone may create raw/packet sockets; outgoing packets are
        // subject to the netfilter whitelist installed at boot.
        (Decision::Allow, None)
    }

    fn socket_bind(&self, cred: &Credentials, req: &BindRequest) -> (Decision, Option<RuleId>) {
        let Some((rule, id)) = self.find_bind_rule(req.port, req.tcp) else {
            return (Decision::UseDefault, None);
        };
        let decision = if rule.binary == req.binary && Uid(rule.uid) == cred.euid {
            Decision::Allow
        } else {
            // The port is allocated to a different application instance:
            // nobody else gets it, root included.
            Decision::Deny(Errno::EACCES)
        };
        (decision, Some(id))
    }

    // ------------------------------------------------------------------
    // setuid / setgid (§4.3)
    // ------------------------------------------------------------------

    fn task_setuid(&self, ctx: &SetidCtx, target: Uid) -> (SetuidDecision, Option<RuleId>) {
        // Privileged daemons dropping privilege, and transitions among
        // already-held ids, keep stock semantics.
        if ctx.cred.has_cap(Cap::Setuid) || target == ctx.cred.ruid || target == ctx.cred.suid {
            return (SetuidDecision::UseDefault, None);
        }
        let Some((rule, id)) = self.find_sudo_rule(ctx.cred, target) else {
            return (SetuidDecision::UseDefault, None); // -> EPERM
        };
        // Authentication, enforced by the kernel, with recency (§4.3).
        let auth = match rule.auth {
            AuthReq::None => None,
            AuthReq::Invoker => Some(AuthScope::User(ctx.cred.ruid)),
            AuthReq::Target => Some(AuthScope::User(target)),
        };
        let decision = match (auth, &rule.cmd) {
            (Some(scope), _) if !ctx.authed_for(scope, AUTH_WINDOW) => {
                SetuidDecision::NeedAuth(scope)
            }
            (_, CmdSpec::Any) => SetuidDecision::Allow,
            (_, CmdSpec::List(cmds)) => SetuidDecision::Pending(PendingSetuid {
                target,
                allowed_binaries: cmds.clone(),
                require_target_auth: false,
                keep_env: rule.keep_env.clone(),
                rule: Some(id),
            }),
        };
        (decision, Some(id))
    }

    fn task_setgid(&self, ctx: &SetidCtx, target: Gid) -> (SetuidDecision, Option<RuleId>) {
        if ctx.cred.has_cap(Cap::Setgid) {
            return (SetuidDecision::UseDefault, None);
        }
        // Transitions to already-held ids keep stock semantics (mirrors
        // task_setuid): stock grants these anyway, and answering
        // UseDefault keeps the hot re-assert path (every `id`-style
        // invocation calls setgid(own gid)) off the audit/metrics
        // emission path.
        if target == ctx.cred.rgid || target == ctx.cred.sgid {
            return (SetuidDecision::UseDefault, None);
        }
        // A member may switch to any of her groups (stock allows only
        // rgid/sgid; newgrp's job was exactly this widening).
        if ctx.cred.in_group(target) {
            return (SetuidDecision::Allow, Some(self.labels.membership));
        }
        match self.group_rule(target) {
            Some((g, id)) if g.password_protected => {
                let scope = AuthScope::Group(target);
                let decision = if ctx.authed_for(scope, AUTH_WINDOW) {
                    SetuidDecision::Allow
                } else {
                    SetuidDecision::NeedAuth(scope)
                };
                (decision, Some(id))
            }
            _ => (SetuidDecision::UseDefault, None), // -> EPERM
        }
    }

    fn bprm_check(&self, ctx: &ExecCtx) -> (ExecDecision, Option<RuleId>) {
        // No pending transition: the setuid bit (if any) keeps stock
        // semantics — the Protego image simply ships without the bits, and
        // §4.6 allows an administrator to re-enable one deliberately.
        let Some(p) = &ctx.pending else {
            return (ExecDecision::UseDefault, None);
        };
        // Resolve a setuid-on-exec transition under the sudoers rule that
        // created it: the exec must name an allowed binary, else
        // permission denied (§4.3's deliberate change in error behaviour).
        if !p.allowed_binaries.iter().any(|b| b == &ctx.binary) {
            return (ExecDecision::Deny(Errno::EACCES), p.rule);
        }
        if p.require_target_auth {
            let scope = AuthScope::User(p.target);
            if !ctx.authed_for(scope, AUTH_WINDOW) {
                return (ExecDecision::NeedAuth(scope), p.rule);
            }
        }
        let mut cred = ctx.cred.clone();
        cred.ruid = p.target;
        cred.euid = p.target;
        cred.suid = p.target;
        cred.fsuid = p.target;
        cred.caps = if p.target.is_root() {
            sim_kernel::caps::CapSet::full()
        } else {
            sim_kernel::caps::CapSet::EMPTY
        };
        let env = EnvPolicy::ClearExcept(p.keep_env.clone());
        (ExecDecision::Transition { cred, env }, p.rule)
    }

    // ------------------------------------------------------------------
    // ioctls (§4.1.2, Table 4)
    // ------------------------------------------------------------------

    fn ioctl_route_add(
        &self,
        cred: &Credentials,
        route: &Route,
        table: &RouteTable,
    ) -> (Decision, Option<RuleId>) {
        if cred.euid.is_root() || !self.policy.ppp.user_routes {
            return (Decision::UseDefault, None);
        }
        let decision = match table.conflict_with(route) {
            None => Decision::Allow,
            Some(_) => Decision::Deny(Errno::EEXIST),
        };
        (decision, Some(self.labels.ppp_routes))
    }

    fn ioctl_modem(
        &self,
        cred: &Credentials,
        opt: ModemOpt,
        _state: &ModemState,
    ) -> (Decision, Option<RuleId>) {
        // "A user may configure a modem (if not in use)" — Table 4. Once
        // the modem is claimed, only the claimer's further configuration
        // is mediated by the claim ioctl, so safe options stay allowed.
        if !cred.euid.is_root() && self.policy.ppp.safe_modem_opts && opt.is_safe() {
            return (Decision::Allow, Some(self.labels.ppp_modem));
        }
        (Decision::UseDefault, None)
    }

    fn ioctl_dmcrypt(&self, _cred: &Credentials) -> (Decision, Option<RuleId>) {
        // The all-or-nothing ioctl stays privileged; the `/sys` attribute
        // is the unprivileged replacement (Table 4: "abandon this ioctl").
        (Decision::UseDefault, None)
    }

    fn ioctl_kms(&self, _cred: &Credentials, _op: KmsOp) -> (Decision, Option<RuleId>) {
        // KMS already removed the privilege requirement in-kernel (§4.5).
        (Decision::UseDefault, None)
    }

    // ------------------------------------------------------------------
    // file open (§4.4, §4.6)
    // ------------------------------------------------------------------

    fn file_open(&self, ctx: &FileOpenCtx) -> (FileDecision, Option<RuleId>) {
        // Binary-identity grants: only the named binary may open the key
        // file, regardless of uid ("instead of, or in addition to, user
        // IDs" — Table 4).
        if let Some((rule, id)) = self.keyfile_rule(ctx.path) {
            let decision = if ctx.binary == rule.binary && !ctx.access.wants_write() {
                FileDecision::AllowCloexec
            } else {
                FileDecision::Deny(Errno::EACCES)
            };
            return (decision, Some(id));
        }
        // Per-user shadow fragments: reading your own requires a fresh
        // authentication, and the handle may not be inherited (§4.4).
        // The trusted authentication agent and root tools keep stock
        // semantics, and DAC already refuses other users' fragments.
        if !ctx.access.wants_read()
            || ctx.cred.euid.is_root()
            || !ctx.dac_allows
            || ctx.file_owner != ctx.cred.fsuid
        {
            return (FileDecision::UseDefault, None);
        }
        let Some(id) = self.shadow_fragment(ctx.path) else {
            return (FileDecision::UseDefault, None);
        };
        let scope = AuthScope::User(ctx.cred.ruid);
        let decision = if ctx.authed_for(scope, AUTH_WINDOW) {
            FileDecision::AllowCloexec
        } else {
            FileDecision::NeedAuth(scope)
        };
        (decision, Some(id))
    }

    // ------------------------------------------------------------------
    // configuration (/proc/protego/*)
    // ------------------------------------------------------------------

    fn config_nodes(&self) -> Vec<&'static str> {
        vec![
            "mounts", "bind", "sudoers", "groups", "keyfiles", "ppp", "creddb",
        ]
    }

    fn config_write(&mut self, node: &str, content: &str) -> KResult<()> {
        // Each arm interns the labels of the rules it just parsed.
        let (p, l) = (&mut self.policy, &mut self.labels);
        match node {
            "mounts" => {
                p.mounts = policy::parse_mounts(content)?;
                l.mounts = intern_each(&p.mounts, mount_label);
                l.umounts = intern_each(&p.mounts, umount_label);
            }
            "bind" => {
                p.binds = policy::parse_binds(content)?;
                l.binds = intern_each(&p.binds, bind_label);
            }
            "sudoers" => {
                p.sudo = policy::parse_sudo(content)?;
                l.sudo = intern_each(&p.sudo, sudo_label);
            }
            "groups" => {
                p.groups = policy::parse_groups(content)?;
                l.groups = intern_each(&p.groups, group_label);
            }
            "keyfiles" => {
                p.keyfiles = policy::parse_keyfiles(content)?;
                l.keyfiles = intern_each(&p.keyfiles, keyfile_label);
            }
            // The ppp rules are switches with constant labels.
            "ppp" => p.ppp = policy::parse_ppp(content)?,
            "creddb" => {
                p.creddb = policy::parse_creddb(content)?;
                l.creddb = intern_each(&p.creddb.shadow_prefixes, creddb_label);
            }
            _ => return Err(Errno::ENOENT),
        }
        // Any policy write may change what a cached lookup would answer;
        // be conservative and drop the whole cache.
        self.flush_keyfile_cache();
        Ok(())
    }

    fn config_read(&self, node: &str) -> KResult<String> {
        Ok(match node {
            "mounts" => policy::render_mounts(&self.policy.mounts),
            "bind" => policy::render_binds(&self.policy.binds),
            "sudoers" => policy::render_sudo(&self.policy.sudo),
            "groups" => policy::render_groups(&self.policy.groups),
            "keyfiles" => policy::render_keyfiles(&self.policy.keyfiles),
            "ppp" => policy::render_ppp(&self.policy.ppp),
            "creddb" => policy::render_creddb(&self.policy.creddb),
            _ => return Err(Errno::ENOENT),
        })
    }

    fn boot_netfilter_rules(&self) -> Vec<Rule> {
        Self::default_raw_rules()
    }

    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        vec![("protego_keyfile_lookup", self.keyfile_cache_stats())]
    }
}

/// Convenience used by exploit analysis: would the Protego policy allow
/// this (binary, uid) to bind the port?
pub fn bind_would_allow(policy: &PolicySet, port: u16, tcp: bool, binary: &str, uid: u32) -> bool {
    policy
        .binds
        .iter()
        .any(|r| r.port == port && r.tcp == tcp && r.binary == binary && r.uid == uid)
}

/// Convenience: access decision summary for diagnostics/tests.
pub fn describe_access(access: Access) -> &'static str {
    match (
        access.wants_read(),
        access.wants_write(),
        access.wants_exec(),
    ) {
        (true, true, _) => "read-write",
        (true, false, _) => "read",
        (false, true, _) => "write",
        (false, false, true) => "exec",
        _ => "none",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsm_with(policy: PolicySet) -> ProtegoLsm {
        ProtegoLsm::with_policy(policy)
    }

    fn cdrom_policy() -> PolicySet {
        PolicySet {
            mounts: vec![MountRule {
                source: "/dev/cdrom".into(),
                mountpoint: "/mnt/cdrom".into(),
                fstype: Some("iso9660".into()),
                scope: MountScope::User,
                read_only: true,
            }],
            ..PolicySet::default()
        }
    }

    /// `sb_mount` of an iso9660 request under the cdrom whitelist.
    fn cdrom_mount(
        cred: &Credentials,
        src: &str,
        target: &str,
        opts: &str,
    ) -> (Decision, Option<RuleId>) {
        let req = MountRequest {
            source: src.into(),
            target: target.into(),
            fstype: "iso9660".into(),
            options: sim_kernel::vfs::MountOptions::parse(opts),
        };
        lsm_with(cdrom_policy()).sb_mount(cred, &req)
    }

    fn label(text: &str) -> Option<RuleId> {
        Some(RuleId::intern(text))
    }

    fn user_cred() -> Credentials {
        Credentials::user(Uid(1000), Gid(1000))
    }

    fn ctx(cred: &Credentials, authed: Option<AuthScope>) -> SetidCtx<'_> {
        SetidCtx {
            cred,
            binary: "/usr/bin/sudo",
            last_auth: authed.map(|_| 1000),
            last_auth_scope: authed,
            now: 1100,
        }
    }

    #[test]
    fn mount_whitelist_grants_matching_request() {
        let got = cdrom_mount(&user_cred(), "/dev/cdrom", "/mnt/cdrom", "ro");
        assert_eq!(
            got,
            (Decision::Allow, label("mounts:/dev/cdrom->/mnt/cdrom"))
        );
    }

    #[test]
    fn mount_whitelist_rejects_rw_when_ro_required() {
        let got = cdrom_mount(&user_cred(), "/dev/cdrom", "/mnt/cdrom", "rw");
        assert_eq!(got.0, Decision::Deny(Errno::EACCES));
    }

    #[test]
    fn mount_off_whitelist_falls_to_default() {
        // Wrong mountpoint — the attack the paper highlights (mounting
        // over /etc) — and wrong device: no rule matches.
        let got = cdrom_mount(&user_cred(), "/dev/cdrom", "/etc", "ro");
        assert_eq!(got, (Decision::UseDefault, None));
        let got = cdrom_mount(&user_cred(), "/dev/sda1", "/mnt/cdrom", "ro");
        assert_eq!(got, (Decision::UseDefault, None));
    }

    #[test]
    fn root_mount_path_unchanged() {
        let got = cdrom_mount(&Credentials::root(), "/dev/cdrom", "/mnt/cdrom", "ro");
        assert_eq!(got.0, Decision::UseDefault);
    }

    #[test]
    fn umount_user_scope_restricted_to_mounter() {
        let lsm = lsm_with(cdrom_policy());
        let req = UmountRequest {
            target: "/mnt/cdrom".into(),
            source: "/dev/cdrom".into(),
            fstype: "iso9660".into(),
            mounted_by: Uid(1000),
        };
        assert_eq!(lsm.sb_umount(&user_cred(), &req).0, Decision::Allow);
        let other = Credentials::user(Uid(1001), Gid(1001));
        assert_eq!(lsm.sb_umount(&other, &req).0, Decision::Deny(Errno::EPERM));
    }

    #[test]
    fn bind_rule_is_exclusive_even_for_root() {
        let mut p = PolicySet::default();
        p.binds.push(BindRule {
            port: 25,
            tcp: true,
            binary: "/usr/sbin/exim4".into(),
            uid: 0,
        });
        let lsm = lsm_with(p);
        let good = BindRequest {
            port: 25,
            binary: "/usr/sbin/exim4".into(),
            tcp: true,
        };
        assert_eq!(
            lsm.socket_bind(&Credentials::root(), &good).0,
            Decision::Allow
        );
        let rogue = BindRequest {
            port: 25,
            binary: "/usr/sbin/httpd".into(),
            tcp: true,
        };
        assert_eq!(
            lsm.socket_bind(&Credentials::root(), &rogue).0,
            Decision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn sudo_rule_needs_auth_then_allows() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        // Not authenticated yet -> kernel must launch the auth agent.
        let alice = user_cred();
        let d = lsm.task_setuid(&ctx(&alice, None), Uid::ROOT).0;
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1000))));
        // Recently authenticated -> allowed.
        let d = lsm
            .task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1000)))), Uid::ROOT)
            .0;
        assert_eq!(d, SetuidDecision::Allow);
    }

    #[test]
    fn stale_auth_requires_reprompt() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let alice = user_cred();
        let mut c = ctx(&alice, Some(AuthScope::User(Uid(1000))));
        c.now = c.last_auth.unwrap() + AUTH_WINDOW + 1;
        assert!(matches!(
            lsm.task_setuid(&c, Uid::ROOT).0,
            SetuidDecision::NeedAuth(_)
        ));
    }

    #[test]
    fn command_restricted_rule_goes_pending() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1001),
            target: Target::Uid(1000),
            cmd: CmdSpec::List(vec!["/usr/bin/lpr".into()]),
            auth: AuthReq::None,
            keep_env: vec!["PRINTER".into()],
        });
        let lsm = lsm_with(p);
        let bob = Credentials::user(Uid(1001), Gid(1001));
        match lsm.task_setuid(&ctx(&bob, None), Uid(1000)) {
            (SetuidDecision::Pending(pend), rule) => {
                assert_eq!(pend.target, Uid(1000));
                assert_eq!(pend.allowed_binaries, vec!["/usr/bin/lpr".to_string()]);
                assert_eq!(pend.keep_env, vec!["PRINTER".to_string()]);
                // The transition carries the sudoers rule that made it.
                assert!(rule.is_some_and(|r| r.as_str().starts_with("sudoers:Uid(1001)")));
                assert_eq!(pend.rule, rule);
            }
            other => panic!("expected pending, got {:?}", other),
        }
    }

    #[test]
    fn unrelated_user_gets_default_eperm_path() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Uid(1000),
            target: Target::Uid(0),
            cmd: CmdSpec::Any,
            auth: AuthReq::Invoker,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let charlie = Credentials::user(Uid(1002), Gid(1002));
        assert_eq!(
            lsm.task_setuid(&ctx(&charlie, None), Uid::ROOT).0,
            SetuidDecision::UseDefault
        );
    }

    #[test]
    fn group_rule_matches_membership() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule {
            from: Principal::Gid(27),
            target: Target::Any,
            cmd: CmdSpec::Any,
            auth: AuthReq::None,
            keep_env: vec![],
        });
        let lsm = lsm_with(p);
        let mut admin = Credentials::user(Uid(1003), Gid(1003));
        admin.groups.push(Gid(27));
        assert_eq!(
            lsm.task_setuid(&ctx(&admin, None), Uid::ROOT).0,
            SetuidDecision::Allow
        );
    }

    #[test]
    fn su_rule_requires_target_password() {
        let mut p = PolicySet::default();
        p.sudo.push(SudoRule::su_rule());
        let lsm = lsm_with(p);
        let alice = user_cred();
        let d = lsm.task_setuid(&ctx(&alice, None), Uid(1001)).0;
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1001))));
        // Proving the *wrong* (own) password is not enough.
        let d = lsm
            .task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1000)))), Uid(1001))
            .0;
        assert_eq!(d, SetuidDecision::NeedAuth(AuthScope::User(Uid(1001))));
        // Target's password proven -> allowed.
        let d = lsm
            .task_setuid(&ctx(&alice, Some(AuthScope::User(Uid(1001)))), Uid(1001))
            .0;
        assert_eq!(d, SetuidDecision::Allow);
    }

    #[test]
    fn newgrp_member_allowed_nonmember_needs_group_password() {
        let mut p = PolicySet::default();
        p.groups.push(GroupRule {
            gid: 101,
            password_protected: true,
        });
        let lsm = lsm_with(p);
        let mut member = user_cred();
        member.groups.push(Gid(101));
        assert_eq!(
            lsm.task_setgid(&ctx(&member, None), Gid(101)),
            (SetuidDecision::Allow, label("groups:membership"))
        );
        let stranger = Credentials::user(Uid(1004), Gid(1004));
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, None), Gid(101)).0,
            SetuidDecision::NeedAuth(AuthScope::Group(Gid(101)))
        );
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, Some(AuthScope::Group(Gid(101)))), Gid(101))
                .0,
            SetuidDecision::Allow
        );
    }

    #[test]
    fn unprotected_group_falls_to_default() {
        let lsm = lsm_with(PolicySet::default());
        let stranger = Credentials::user(Uid(1004), Gid(1004));
        assert_eq!(
            lsm.task_setgid(&ctx(&stranger, None), Gid(101)).0,
            SetuidDecision::UseDefault
        );
    }

    #[test]
    fn pending_resolution_at_exec() {
        let lsm = lsm_with(PolicySet::default());
        let pend = PendingSetuid {
            target: Uid(1000),
            allowed_binaries: vec!["/usr/bin/lpr".into()],
            require_target_auth: false,
            keep_env: vec!["PRINTER".into()],
            rule: label("sudoers:lpr"),
        };
        let mk = |binary: &str| ExecCtx {
            cred: Credentials::user(Uid(1001), Gid(1001)),
            binary: binary.into(),
            file_owner: Uid::ROOT,
            file_group: Gid::ROOT,
            setuid_bit: false,
            setgid_bit: false,
            pending: Some(pend.clone()),
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        match lsm.bprm_check(&mk("/usr/bin/lpr")) {
            (ExecDecision::Transition { cred, env }, rule) => {
                assert_eq!(rule, pend.rule);
                assert_eq!(cred.euid, Uid(1000));
                assert_eq!(cred.ruid, Uid(1000));
                assert!(cred.caps.is_empty());
                assert_eq!(env, EnvPolicy::ClearExcept(vec!["PRINTER".into()]));
            }
            other => panic!("expected transition, got {:?}", other),
        }
        // Any other binary: permission denied at exec (§4.3).
        assert_eq!(
            lsm.bprm_check(&mk("/bin/sh")).0,
            ExecDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn pending_to_root_grants_full_caps_only_at_exec() {
        let lsm = lsm_with(PolicySet::default());
        let c = ExecCtx {
            cred: Credentials::user(Uid(1000), Gid(1000)),
            binary: "/usr/bin/apt".into(),
            file_owner: Uid::ROOT,
            file_group: Gid::ROOT,
            setuid_bit: false,
            setgid_bit: false,
            pending: Some(PendingSetuid {
                target: Uid::ROOT,
                allowed_binaries: vec!["/usr/bin/apt".into()],
                require_target_auth: false,
                keep_env: vec![],
                rule: None,
            }),
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        match lsm.bprm_check(&c).0 {
            ExecDecision::Transition { cred, .. } => {
                assert!(cred.euid.is_root());
                assert!(cred.has_cap(Cap::SysAdmin));
            }
            other => panic!("expected transition, got {:?}", other),
        }
    }

    #[test]
    fn route_policy_non_conflicting_only() {
        let mut p = PolicySet::default();
        p.ppp.user_routes = true;
        let lsm = lsm_with(p);
        let mut table = RouteTable::new();
        table
            .add(Route {
                dest: sim_kernel::net::Ipv4::new(10, 0, 0, 0),
                prefix: 8,
                gateway: None,
                dev: "eth0".into(),
                created_by: Uid::ROOT,
            })
            .unwrap();
        let fresh = Route {
            dest: sim_kernel::net::Ipv4::new(192, 168, 9, 0),
            prefix: 24,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &fresh, &table).0,
            Decision::Allow
        );
        let conflicting = Route {
            dest: sim_kernel::net::Ipv4::new(10, 5, 0, 0),
            prefix: 16,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &conflicting, &table).0,
            Decision::Deny(Errno::EEXIST)
        );
    }

    #[test]
    fn route_policy_disabled_falls_to_default() {
        let lsm = lsm_with(PolicySet::default());
        let table = RouteTable::new();
        let r = Route {
            dest: sim_kernel::net::Ipv4::new(192, 168, 9, 0),
            prefix: 24,
            gateway: None,
            dev: "ppp0".into(),
            created_by: Uid(1000),
        };
        assert_eq!(
            lsm.ioctl_route_add(&user_cred(), &r, &table).0,
            Decision::UseDefault
        );
    }

    #[test]
    fn modem_safe_opts_for_users() {
        let mut p = PolicySet::default();
        p.ppp.safe_modem_opts = true;
        let lsm = lsm_with(p);
        let state = ModemState::default();
        assert_eq!(
            lsm.ioctl_modem(&user_cred(), ModemOpt::Baud(57600), &state)
                .0,
            Decision::Allow
        );
        assert_eq!(
            lsm.ioctl_modem(&user_cred(), ModemOpt::HardwareReset, &state)
                .0,
            Decision::UseDefault
        );
    }

    #[test]
    fn keyfile_binary_identity() {
        let mut p = PolicySet::default();
        p.keyfiles.push(KeyFileRule {
            path: "/etc/ssh/ssh_host_key".into(),
            binary: "/usr/lib/ssh-keysign".into(),
        });
        let lsm = lsm_with(p);
        fn mk<'a>(binary: &'a str, cred: &'a Credentials, access: Access) -> FileOpenCtx<'a> {
            FileOpenCtx {
                cred,
                path: "/etc/ssh/ssh_host_key",
                binary,
                access,
                dac_allows: false,
                file_owner: Uid::ROOT,
                last_auth: None,
                last_auth_scope: None,
                now: 0,
            }
        }
        // The named binary reads the key even as an unprivileged user.
        assert_eq!(
            lsm.file_open(&mk("/usr/lib/ssh-keysign", &user_cred(), Access::READ))
                .0,
            FileDecision::AllowCloexec
        );
        // Any other binary is refused, even running as root.
        assert_eq!(
            lsm.file_open(&mk("/bin/cat", &Credentials::root(), Access::READ))
                .0,
            FileDecision::Deny(Errno::EACCES)
        );
        // Writes are never granted through the keyfile rule.
        assert_eq!(
            lsm.file_open(&mk("/usr/lib/ssh-keysign", &user_cred(), Access::WRITE))
                .0,
            FileDecision::Deny(Errno::EACCES)
        );
    }

    #[test]
    fn shadow_fragment_requires_fresh_auth_and_cloexec() {
        let mut p = PolicySet::default();
        p.creddb.shadow_prefixes.push("/etc/shadows/".into());
        let lsm = lsm_with(p);
        let user = user_cred();
        let mk = |authed: Option<AuthScope>, now: u64| FileOpenCtx {
            cred: &user,
            path: "/etc/shadows/alice",
            binary: "/usr/bin/passwd",
            access: Access::READ,
            dac_allows: true,
            file_owner: Uid(1000),
            last_auth: authed.map(|_| 1000),
            last_auth_scope: authed,
            now,
        };
        // The rule names the prefix, not the fragment being opened.
        assert_eq!(
            lsm.file_open(&mk(None, 1100)),
            (
                FileDecision::NeedAuth(AuthScope::User(Uid(1000))),
                label("creddb:/etc/shadows/")
            )
        );
        assert_eq!(
            lsm.file_open(&mk(Some(AuthScope::User(Uid(1000))), 1100)).0,
            FileDecision::AllowCloexec
        );
        // Stale authentication is not enough.
        assert_eq!(
            lsm.file_open(&mk(
                Some(AuthScope::User(Uid(1000))),
                1000 + AUTH_WINDOW + 1
            ))
            .0,
            FileDecision::NeedAuth(AuthScope::User(Uid(1000)))
        );
        // Root keeps stock semantics, and a UseDefault answer names no rule.
        let root = Credentials::root();
        let as_root = FileOpenCtx {
            cred: &root,
            ..mk(None, 1100)
        };
        assert_eq!(lsm.file_open(&as_root), (FileDecision::UseDefault, None));
    }

    #[test]
    fn shadow_fragment_of_other_user_stays_dac_denied() {
        let mut p = PolicySet::default();
        p.creddb.shadow_prefixes.push("/etc/shadows/".into());
        let lsm = lsm_with(p);
        let user = user_cred();
        let c = FileOpenCtx {
            cred: &user,
            path: "/etc/shadows/bob",
            binary: "/usr/bin/passwd",
            access: Access::READ,
            dac_allows: false,
            file_owner: Uid(1001),
            last_auth: Some(1000),
            last_auth_scope: Some(AuthScope::User(Uid(1000))),
            now: 1001,
        };
        // DAC refuses it; the module answers UseDefault and names no rule.
        assert_eq!(lsm.file_open(&c), (FileDecision::UseDefault, None));
    }

    #[test]
    fn keyfile_cache_hits_and_policy_write_invalidates() {
        let mut p = PolicySet::default();
        p.keyfiles.push(KeyFileRule {
            path: "/etc/ssh/ssh_host_key".into(),
            binary: "/usr/lib/ssh-keysign".into(),
        });
        let mut lsm = lsm_with(p);
        let user = user_cred();
        let mk = || FileOpenCtx {
            cred: &user,
            path: "/etc/ssh/ssh_host_key",
            binary: "/usr/lib/ssh-keysign",
            access: Access::READ,
            dac_allows: false,
            file_owner: Uid::ROOT,
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        assert_eq!(lsm.file_open(&mk()).0, FileDecision::AllowCloexec);
        // The cached (second) hit still returns its rule.
        let (d, rule) = lsm.file_open(&mk());
        assert_eq!(d, FileDecision::AllowCloexec);
        assert_eq!(
            rule.map(RuleId::as_str),
            Some("keyfiles:/etc/ssh/ssh_host_key -> /usr/lib/ssh-keysign")
        );
        let s = lsm.keyfile_cache_stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
        // A policy write drops the cache and the new rules take effect.
        lsm.config_write("keyfiles", "").unwrap();
        assert_eq!(lsm.keyfile_cache_stats().invalidations, 1);
        assert_eq!(lsm.file_open(&mk()).0, FileDecision::UseDefault);
    }

    #[test]
    fn config_roundtrip_through_module() {
        let mut lsm = ProtegoLsm::new();
        lsm.config_write("mounts", "/dev/cdrom /mnt/cdrom iso9660 user ro\n")
            .unwrap();
        assert_eq!(lsm.policy().mounts.len(), 1);
        assert_eq!(
            lsm.config_read("mounts").unwrap(),
            "/dev/cdrom /mnt/cdrom iso9660 user ro\n"
        );
        assert_eq!(lsm.config_write("bogus", "").unwrap_err(), Errno::ENOENT);
        assert_eq!(
            lsm.config_write("bind", "not a rule").unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn default_raw_rules_shape() {
        let rules = ProtegoLsm::default_raw_rules();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].name, "protego-no-spoof");
        assert!(rules.iter().all(|r| r.raw_socket_only));
        assert_eq!(rules.last().unwrap().verdict, Verdict::Drop);
    }

    #[test]
    fn bind_would_allow_helper() {
        let mut p = PolicySet::default();
        p.binds.push(BindRule {
            port: 25,
            tcp: true,
            binary: "/usr/sbin/exim4".into(),
            uid: 8,
        });
        assert!(bind_would_allow(&p, 25, true, "/usr/sbin/exim4", 8));
        assert!(!bind_would_allow(&p, 25, true, "/usr/sbin/exim4", 0));
        assert!(!bind_would_allow(&p, 25, true, "/usr/sbin/httpd", 8));
        assert!(!bind_would_allow(&p, 25, false, "/usr/sbin/exim4", 8));
        assert!(!bind_would_allow(&p, 26, true, "/usr/sbin/exim4", 8));
    }

    #[test]
    fn describe_access_names() {
        assert_eq!(describe_access(Access::READ), "read");
        assert_eq!(describe_access(Access::WRITE), "write");
        assert_eq!(
            describe_access(Access::READ.and(Access::WRITE)),
            "read-write"
        );
        assert_eq!(describe_access(Access::EXEC), "exec");
        assert_eq!(describe_access(Access(0)), "none");
    }
}
