//! The trusted monitoring daemon (§2, Figure 1).
//!
//! Watches policy-relevant configuration files (via the VFS's
//! inotify-style version counters) and keeps the kernel policy
//! synchronized:
//!
//! * `/etc/fstab` → `/proc/protego/mounts`
//! * `/etc/sudoers` (+ `/etc/sudoers.d/*`) → `/proc/protego/sudoers`
//! * `/etc/bind` → `/proc/protego/bind`
//! * `/etc/gshadow` + `/etc/gshadows/*` → `/proc/protego/groups`
//! * `/etc/ppp/options` → `/proc/protego/ppp`
//!
//! It also maintains the *reverse* direction for backward compatibility
//! (§4.4): Protego's per-account fragments under `/etc/passwds/`,
//! `/etc/shadows/`, and `/etc/gshadows/` are mirrored into the legacy
//! shared files so unmodified applications keep working.

use crate::db::{parse_db, GshadowEntry, PasswdEntry, ShadowEntry};
use crate::process::Process;
use protego_core::fstab::{fstab_to_policy, parse_fstab};
use protego_core::policy::{self, GroupRule, SudoRule};
use protego_core::sudoers::{parse_sudoers, MapResolver};
use sim_kernel::error::KResult;
use sim_kernel::kernel::Kernel;
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;
use std::collections::BTreeMap;

/// The monitoring daemon's state.
#[derive(Debug)]
pub struct MonitorDaemon {
    /// The daemon's (root) task.
    pub pid: Pid,
    seen: BTreeMap<String, u64>,
    /// Number of kernel-policy updates pushed.
    pub syncs: u64,
    /// Parse problems encountered (logged, not fatal — the previous
    /// kernel policy stays in force, as the paper's daemon does).
    pub errors: Vec<String>,
}

impl MonitorDaemon {
    /// Creates the daemon running as task `pid` (must be root).
    pub fn new(pid: Pid) -> MonitorDaemon {
        MonitorDaemon {
            pid,
            seen: BTreeMap::new(),
            syncs: 0,
            errors: Vec::new(),
        }
    }

    /// The daemon's typed syscall context — all of its file IO goes
    /// through dispatch, like any other userland component.
    fn os<'k>(&self, k: &'k Kernel) -> Process<'k> {
        Process::new(k, self.pid)
    }

    fn version(&self, k: &Kernel, path: &str) -> Option<u64> {
        k.vfs
            .resolve(k.vfs.root(), path)
            .ok()
            .map(|r| k.vfs.inode(r.ino).version)
    }

    fn changed(&mut self, k: &Kernel, path: &str) -> bool {
        let v = self.version(k, path);
        let prev = self.seen.get(path).copied();
        match v {
            Some(v) if Some(v) != prev => {
                self.seen.insert(path.to_string(), v);
                true
            }
            None if prev.is_some() => {
                self.seen.remove(path);
                true
            }
            _ => false,
        }
    }

    fn dir_signature(&self, k: &Kernel, dir: &str) -> Option<u64> {
        // Combined signature of the directory and every file in it.
        let names = self.os(k).readdir(dir).ok()?;
        let mut sig = self.version(k, dir).unwrap_or(0);
        for n in names {
            sig = sig
                .wrapping_mul(1_000_003)
                .wrapping_add(self.version(k, &format!("{}/{}", dir, n)).unwrap_or(0));
        }
        Some(sig)
    }

    fn dir_changed(&mut self, k: &Kernel, dir: &str) -> bool {
        let sig = self.dir_signature(k, dir);
        let key = format!("dir:{}", dir);
        let prev = self.seen.get(&key).copied();
        match sig {
            Some(s) if Some(s) != prev => {
                self.seen.insert(key, s);
                true
            }
            None if prev.is_some() => {
                self.seen.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Performs a full synchronization pass (used at boot).
    pub fn sync_all(&mut self, k: &Kernel) -> KResult<()> {
        // Prime the watch state.
        for p in [
            "/etc/fstab",
            "/etc/sudoers",
            "/etc/bind",
            "/etc/gshadow",
            "/etc/ppp/options",
        ] {
            self.changed(k, p);
        }
        for d in [
            "/etc/sudoers.d",
            "/etc/passwds",
            "/etc/shadows",
            "/etc/gshadows",
        ] {
            self.dir_changed(k, d);
        }
        self.sync_mounts(k)?;
        self.sync_sudoers(k)?;
        self.sync_bind(k)?;
        self.sync_groups(k)?;
        self.sync_ppp(k)?;
        self.reverse_sync_credentials(k)?;
        Ok(())
    }

    /// One poll cycle: re-syncs whatever changed; returns whether any
    /// policy was pushed.
    pub fn poll(&mut self, k: &Kernel) -> KResult<bool> {
        let mut any = false;
        if self.changed(k, "/etc/fstab") {
            self.sync_mounts(k)?;
            any = true;
        }
        let sudoers_changed =
            self.changed(k, "/etc/sudoers") | self.dir_changed(k, "/etc/sudoers.d");
        if sudoers_changed {
            self.sync_sudoers(k)?;
            any = true;
        }
        if self.changed(k, "/etc/bind") {
            self.sync_bind(k)?;
            any = true;
        }
        let groups_changed = self.changed(k, "/etc/gshadow") | self.dir_changed(k, "/etc/gshadows");
        if groups_changed {
            self.sync_groups(k)?;
            any = true;
        }
        if self.changed(k, "/etc/ppp/options") {
            self.sync_ppp(k)?;
            any = true;
        }
        let cred_changed = self.dir_changed(k, "/etc/passwds")
            | self.dir_changed(k, "/etc/shadows")
            | self.dir_changed(k, "/etc/gshadows");
        if cred_changed {
            self.reverse_sync_credentials(k)?;
            any = true;
        }
        Ok(any)
    }

    fn push(&mut self, k: &Kernel, node: &str, content: &str) -> KResult<()> {
        self.os(k).write_file(
            &format!("/proc/protego/{}", node),
            content.as_bytes(),
            Mode(0o600),
        )?;
        self.syncs += 1;
        Ok(())
    }

    fn sync_mounts(&mut self, k: &Kernel) -> KResult<()> {
        let text = self.os(k).read_to_string("/etc/fstab").unwrap_or_default();
        let (entries, bad) = parse_fstab(&text);
        for b in bad {
            self.errors.push(format!("fstab: skipped '{}'", b));
        }
        let rules = fstab_to_policy(&entries);
        self.push(k, "mounts", &policy::render_mounts(&rules))
    }

    fn resolver(&self, k: &Kernel) -> MapResolver {
        let mut r = MapResolver::default();
        if let Ok(passwd) = self.os(k).read_to_string("/etc/passwd") {
            for e in parse_db(&passwd, PasswdEntry::parse) {
                r.users.push((e.name, e.uid));
            }
        }
        if let Ok(group) = self.os(k).read_to_string("/etc/group") {
            for e in parse_db(&group, crate::db::GroupEntry::parse) {
                r.groups.push((e.name, e.gid));
            }
        }
        r
    }

    fn sync_sudoers(&mut self, k: &Kernel) -> KResult<()> {
        let mut text = self
            .os(k)
            .read_to_string("/etc/sudoers")
            .unwrap_or_default();
        if let Ok(names) = self.os(k).readdir("/etc/sudoers.d") {
            for n in names {
                if let Ok(extra) = self.os(k).read_to_string(&format!("/etc/sudoers.d/{}", n)) {
                    text.push('\n');
                    text.push_str(&extra);
                }
            }
        }
        let resolver = self.resolver(k);
        let (mut rules, errors) = parse_sudoers(&text, &resolver);
        for e in errors {
            self.errors
                .push(format!("sudoers line {}: {}", e.line, e.message));
        }
        // Protego explicates the policies of su as an extended rule (§4.3).
        rules.push(SudoRule::su_rule());
        self.push(k, "sudoers", &policy::render_sudo(&rules))
    }

    fn sync_bind(&mut self, k: &Kernel) -> KResult<()> {
        let text = self.os(k).read_to_string("/etc/bind").unwrap_or_default();
        // /etc/bind already uses the kernel grammar; validate before push.
        match policy::parse_binds(&text) {
            Ok(rules) => self.push(k, "bind", &policy::render_binds(&rules)),
            Err(e) => {
                self.errors.push(format!("bind: {}", e));
                Ok(())
            }
        }
    }

    fn sync_groups(&mut self, k: &Kernel) -> KResult<()> {
        let mut rules: Vec<GroupRule> = Vec::new();
        let groups = self.os(k).read_to_string("/etc/group").unwrap_or_default();
        let gshadow = self
            .os(k)
            .read_to_string("/etc/gshadow")
            .unwrap_or_default();
        let gsh = parse_db(&gshadow, GshadowEntry::parse);
        for g in parse_db(&groups, crate::db::GroupEntry::parse) {
            let protected = gsh
                .iter()
                .find(|e| e.name == g.name)
                .map(|e| e.password_protected())
                .unwrap_or(false);
            rules.push(GroupRule {
                gid: g.gid,
                password_protected: protected,
            });
        }
        self.push(k, "groups", &policy::render_groups(&rules))
    }

    fn sync_ppp(&mut self, k: &Kernel) -> KResult<()> {
        let text = self
            .os(k)
            .read_to_string("/etc/ppp/options")
            .unwrap_or_default();
        let mut p = policy::PppPolicy::default();
        for line in text.lines() {
            match line.trim() {
                "user-routes" => p.user_routes = true,
                "safe-modem-opts" => p.safe_modem_opts = true,
                _ => {}
            }
        }
        self.push(k, "ppp", &policy::render_ppp(&p))
    }

    /// Rebuilds the legacy shared credential files from the per-account
    /// fragments, preserving entries that have no fragment (system
    /// accounts created before fragmentation).
    pub fn reverse_sync_credentials(&mut self, k: &Kernel) -> KResult<()> {
        self.mirror_fragments(k, "/etc/passwds", "/etc/passwd", Mode(0o644), |line| {
            PasswdEntry::parse(line).map(|e| (e.name.clone(), e.render()))
        })?;
        self.mirror_fragments(k, "/etc/shadows", "/etc/shadow", Mode(0o600), |line| {
            ShadowEntry::parse(line).map(|e| (e.name.clone(), e.render()))
        })?;
        self.mirror_fragments(k, "/etc/gshadows", "/etc/gshadow", Mode(0o600), |line| {
            GshadowEntry::parse(line).map(|e| (e.name.clone(), e.render()))
        })?;
        Ok(())
    }

    fn mirror_fragments(
        &mut self,
        k: &Kernel,
        frag_dir: &str,
        legacy: &str,
        mode: Mode,
        parse: impl Fn(&str) -> Option<(String, String)>,
    ) -> KResult<()> {
        let names = match self.os(k).readdir(frag_dir) {
            Ok(n) => n,
            Err(_) => return Ok(()), // legacy-only system
        };
        // Start from the legacy file so unfragmented entries survive.
        let mut entries: Vec<(String, String)> = Vec::new();
        if let Ok(old) = self.os(k).read_to_string(legacy) {
            for line in old.lines() {
                if let Some(kv) = parse(line) {
                    entries.push(kv);
                }
            }
        }
        for n in &names {
            if let Ok(frag) = self.os(k).read_to_string(&format!("{}/{}", frag_dir, n)) {
                for line in frag.lines() {
                    if let Some((name, rendered)) = parse(line) {
                        if let Some(e) = entries.iter_mut().find(|(n2, _)| *n2 == name) {
                            e.1 = rendered;
                        } else {
                            entries.push((name, rendered));
                        }
                    }
                }
            }
        }
        let content: String = entries.iter().map(|(_, r)| format!("{}\n", r)).collect();
        self.os(k).write_file(legacy, content.as_bytes(), mode)?;
        self.syncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protego_core::ProtegoLsm;
    use sim_kernel::cred::{Gid, Uid};
    use sim_kernel::net::SimNet;

    fn boot() -> (Kernel, Pid) {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        k.register_lsm(Box::new(ProtegoLsm::new())).unwrap();
        let root = k.spawn_init();
        k.vfs
            .install_file(
                "/etc/fstab",
                protego_core::fstab::DEFAULT_FSTAB.as_bytes(),
                Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        k.vfs
            .install_file(
                "/etc/passwd",
                b"root:x:0:0:r:/root:/bin/sh\nalice:x:1000:1000:A:/home/alice:/bin/sh\n",
                Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        k.vfs
            .install_file(
                "/etc/group",
                b"admin:x:27:alice\nstaff:x:101:\n",
                Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        k.vfs
            .install_file(
                "/etc/sudoers",
                b"%admin ALL=(ALL) ALL\n",
                Mode(0o440),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        k.vfs.mkdir_p("/etc/sudoers.d").unwrap();
        (k, root)
    }

    #[test]
    fn boot_sync_pushes_policies() {
        let (k, root) = boot();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        let mounts = k.read_to_string(root, "/proc/protego/mounts").unwrap();
        assert!(mounts.contains("/dev/cdrom /mnt/cdrom iso9660 user ro"));
        assert!(mounts.contains("/dev/sdb1 /media/usb vfat users"));
        let sudo = k.read_to_string(root, "/proc/protego/sudoers").unwrap();
        assert!(sudo.contains("from=gid:27 target=any cmd=any auth=invoker"));
        assert!(sudo.contains("from=any target=any cmd=any auth=target")); // su rule
        assert!(d.errors.is_empty(), "{:?}", d.errors);
    }

    #[test]
    fn poll_detects_fstab_change() {
        let (k, root) = boot();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        assert!(!d.poll(&k).unwrap());
        // Admin adds a new user-mountable entry.
        k.append_file(
            root,
            "/etc/fstab",
            b"/dev/cdrom /mnt/backup iso9660 ro,users,noauto 0 0\n",
        )
        .unwrap();
        assert!(d.poll(&k).unwrap());
        let mounts = k.read_to_string(root, "/proc/protego/mounts").unwrap();
        assert!(mounts.contains("/mnt/backup"));
    }

    #[test]
    fn sudoers_d_included() {
        let (k, root) = boot();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        k.write_file(
            root,
            "/etc/sudoers.d/printing",
            b"alice ALL=(root) NOPASSWD: /usr/bin/lpr\n",
            Mode(0o440),
        )
        .unwrap();
        assert!(d.poll(&k).unwrap());
        let sudo = k.read_to_string(root, "/proc/protego/sudoers").unwrap();
        assert!(sudo.contains("cmd=/usr/bin/lpr auth=none"));
    }

    #[test]
    fn bad_sudoers_line_logged_not_fatal() {
        let (k, root) = boot();
        k.append_file(root, "/etc/sudoers", b"mallory ALL=(ALL) ALL\n")
            .unwrap();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        assert!(d.errors.iter().any(|e| e.contains("mallory")));
        // The admin rule still made it in.
        let sudo = k.read_to_string(root, "/proc/protego/sudoers").unwrap();
        assert!(sudo.contains("from=gid:27"));
    }

    #[test]
    fn reverse_sync_rebuilds_legacy_shadow() {
        let (k, root) = boot();
        let mut d = MonitorDaemon::new(root);
        // Fragmented layout with one user file.
        let frag = crate::db::ShadowEntry::with_password("alice", "alicepw");
        k.vfs
            .install_file(
                "/etc/shadows/alice",
                format!("{}\n", frag.render()).as_bytes(),
                Mode(0o600),
                Uid(1000),
                Gid(1000),
            )
            .unwrap();
        k.vfs
            .install_file(
                "/etc/shadow",
                format!(
                    "{}\n",
                    crate::db::ShadowEntry::with_password("root", "rootpw").render()
                )
                .as_bytes(),
                Mode(0o600),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        d.sync_all(&k).unwrap();
        let legacy = k.read_to_string(root, "/etc/shadow").unwrap();
        assert!(legacy.contains("root:"));
        assert!(legacy.contains("alice:"));
        // Password change in the fragment propagates on poll.
        let newfrag = crate::db::ShadowEntry::with_password("alice", "changed");
        k.write_file(
            root,
            "/etc/shadows/alice",
            format!("{}\n", newfrag.render()).as_bytes(),
            Mode(0o600),
        )
        .unwrap();
        assert!(d.poll(&k).unwrap());
        let legacy = k.read_to_string(root, "/etc/shadow").unwrap();
        assert!(legacy.contains(&newfrag.hash));
    }

    #[test]
    fn denials_are_readable_from_the_audit_ring_and_metrics() {
        let (k, root) = boot();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        // An unprivileged mount off the whitelist is denied by the stock
        // fallback; the ring and the metrics registry both hold it.
        let user = k.spawn_session(
            sim_kernel::cred::Credentials::user(Uid(1000), Gid(1000)),
            "/bin/mount",
        );
        k.vfs.mkdir_p("/mnt/nope").unwrap();
        assert!(k
            .sys_mount(user, "/dev/sdb1", "/mnt/nope", "vfat", "rw")
            .is_err());
        assert_eq!(
            k.metrics_snapshot()
                .hook(sim_kernel::trace::Hook::SbMount)
                .deny,
            1
        );
        let audit = k.read_to_string(root, "/proc/protego/audit").unwrap();
        let denials: Vec<_> = audit
            .lines()
            .filter(|l| l.contains("decision=deny"))
            .collect();
        assert_eq!(denials.len(), 1, "{}", audit);
        assert!(denials[0].contains("hook=sb_mount"), "{}", denials[0]);
    }

    #[test]
    fn groups_sync_marks_protected() {
        let (k, root) = boot();
        let gsh = crate::db::GshadowEntry {
            name: "staff".into(),
            hash: sim_kernel::lsm::sim_crypt("st", "staffpw"),
        };
        k.vfs
            .install_file(
                "/etc/gshadow",
                format!("admin:!::\n{}\n", gsh.render()).as_bytes(),
                Mode(0o600),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        let mut d = MonitorDaemon::new(root);
        d.sync_all(&k).unwrap();
        let groups = k.read_to_string(root, "/proc/protego/groups").unwrap();
        assert!(groups.contains("101 password"));
        assert!(groups.contains("27 open"));
    }
}
