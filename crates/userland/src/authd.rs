//! The trusted authentication utility (§4.3).
//!
//! In the paper this is a 1,200-line binary refactored from `login` and
//! `newgrp`, launched *by the kernel* when a policy decision requires a
//! fresh proof of identity: it takes over the terminal, prompts for the
//! password of the required principal, and reports the result, which the
//! kernel records in the task's `task_struct`.
//!
//! Here it implements [`sim_kernel::lsm::AuthProvider`]; the kernel hands
//! it the task's queued terminal input and a read-only filesystem view.

use crate::db::{
    find_entry, first_entry, GroupEntry, GshadowEntry, PasswdEntry, ShadowEntry, ID_FIELD,
    NAME_FIELD,
};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::lsm::{AuthProvider, AuthScope};
use sim_kernel::vfs::Vfs;
use std::collections::VecDeque;

/// The trusted authentication agent.
#[derive(Debug, Default)]
pub struct AuthDaemon {
    /// Number of authentication attempts served (for auditing/benches).
    pub prompts: u64,
    /// Number of failures.
    pub failures: u64,
}

impl AuthDaemon {
    /// Creates the agent.
    pub fn new() -> AuthDaemon {
        AuthDaemon::default()
    }

    /// Runs `f` over a UTF-8 file's text in place. `f` runs under the
    /// inode's shard read guard, so it must not call back into the VFS
    /// (DESIGN.md §13: one inode guard at a time).
    fn with_text<R>(vfs: &Vfs, path: &str, f: impl FnOnce(&str) -> Option<R>) -> Option<R> {
        let r = vfs.resolve(vfs.root(), path).ok()?;
        vfs.with_file(r.ino, |bytes| std::str::from_utf8(bytes).ok().and_then(f))
            .ok()
            .flatten()
    }

    fn user_name(vfs: &Vfs, uid: Uid) -> Option<String> {
        Self::with_text(vfs, "/etc/passwd", |t| {
            find_entry(t, ID_FIELD, uid.0, PasswdEntry::parse)
        })
        .map(|e| e.name)
    }

    fn group_name(vfs: &Vfs, gid: Gid) -> Option<String> {
        Self::with_text(vfs, "/etc/group", |t| {
            find_entry(t, ID_FIELD, gid.0, GroupEntry::parse)
        })
        .map(|e| e.name)
    }

    fn user_hash(vfs: &Vfs, name: &str) -> Option<String> {
        // Protego's fragmented database first, then the legacy file the
        // monitoring daemon keeps synchronized.
        Self::with_text(vfs, &format!("/etc/shadows/{}", name), |t| {
            first_entry(t, ShadowEntry::parse)
        })
        .or_else(|| {
            Self::with_text(vfs, "/etc/shadow", |t| {
                find_entry(t, NAME_FIELD, name, ShadowEntry::parse)
            })
        })
        .map(|e| e.hash)
    }

    fn group_hash(vfs: &Vfs, name: &str) -> Option<String> {
        Self::with_text(vfs, &format!("/etc/gshadows/{}", name), |t| {
            first_entry(t, GshadowEntry::parse)
        })
        .or_else(|| {
            Self::with_text(vfs, "/etc/gshadow", |t| {
                find_entry(t, NAME_FIELD, name, GshadowEntry::parse)
            })
        })
        .map(|e| e.hash)
    }
}

impl AuthProvider for AuthDaemon {
    fn authenticate(
        &mut self,
        scope: AuthScope,
        terminal_input: &mut VecDeque<String>,
        vfs: &Vfs,
    ) -> bool {
        self.prompts += 1;
        let hash = match scope {
            AuthScope::User(uid) => {
                Self::user_name(vfs, uid).and_then(|n| Self::user_hash(vfs, &n))
            }
            AuthScope::Group(gid) => {
                Self::group_name(vfs, gid).and_then(|n| Self::group_hash(vfs, &n))
            }
        };
        let hash = match hash {
            Some(h) if h != "!" && !h.is_empty() => h,
            _ => {
                self.failures += 1;
                return false;
            }
        };
        let attempt = match terminal_input.pop_front() {
            Some(a) => a,
            None => {
                self.failures += 1;
                return false;
            }
        };
        let ok = sim_kernel::lsm::sim_crypt_verify(&hash, &attempt);
        if !ok {
            self.failures += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::cred::{Gid as KGid, Uid as KUid};
    use sim_kernel::vfs::Mode;

    fn vfs_with_dbs() -> Vfs {
        let v = Vfs::new();
        v.install_file(
            "/etc/passwd",
            b"root:x:0:0:r:/root:/bin/sh\nalice:x:1000:1000:A:/h:/bin/sh\n",
            Mode(0o644),
            KUid::ROOT,
            KGid::ROOT,
        )
        .unwrap();
        let shadow = format!(
            "{}\n{}\n",
            ShadowEntry::with_password("root", "rootpw").render(),
            ShadowEntry::with_password("alice", "alicepw").render()
        );
        v.install_file(
            "/etc/shadow",
            shadow.as_bytes(),
            Mode(0o600),
            KUid::ROOT,
            KGid::ROOT,
        )
        .unwrap();
        v.install_file(
            "/etc/group",
            b"staff:x:101:\n",
            Mode(0o644),
            KUid::ROOT,
            KGid::ROOT,
        )
        .unwrap();
        let gsh = GshadowEntry {
            name: "staff".into(),
            hash: sim_kernel::lsm::sim_crypt("st", "staffpw"),
        };
        v.install_file(
            "/etc/gshadow",
            format!("{}\n", gsh.render()).as_bytes(),
            Mode(0o600),
            KUid::ROOT,
            KGid::ROOT,
        )
        .unwrap();
        v
    }

    fn input(lines: &[&str]) -> VecDeque<String> {
        lines.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn user_auth_success_and_failure() {
        let v = vfs_with_dbs();
        let mut a = AuthDaemon::new();
        assert!(a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["alicepw"]), &v));
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["wrong"]), &v));
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut input(&[]), &v));
        assert_eq!(a.prompts, 3);
        assert_eq!(a.failures, 2);
    }

    #[test]
    fn unknown_principal_fails() {
        let v = vfs_with_dbs();
        let mut a = AuthDaemon::new();
        assert!(!a.authenticate(AuthScope::User(KUid(4242)), &mut input(&["x"]), &v));
    }

    #[test]
    fn group_auth() {
        let v = vfs_with_dbs();
        let mut a = AuthDaemon::new();
        assert!(a.authenticate(AuthScope::Group(KGid(101)), &mut input(&["staffpw"]), &v));
        assert!(!a.authenticate(AuthScope::Group(KGid(101)), &mut input(&["nope"]), &v));
    }

    #[test]
    fn fragments_take_precedence() {
        let v = vfs_with_dbs();
        // A newer password in the Protego fragment.
        let frag = ShadowEntry::with_password("alice", "newpw");
        v.install_file(
            "/etc/shadows/alice",
            format!("{}\n", frag.render()).as_bytes(),
            Mode(0o600),
            KUid(1000),
            KGid(1000),
        )
        .unwrap();
        let mut a = AuthDaemon::new();
        assert!(a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["newpw"]), &v));
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["alicepw"]), &v));
    }

    #[test]
    fn locked_account_rejected() {
        let v = vfs_with_dbs();
        v.install_file(
            "/etc/shadows/alice",
            b"alice:!:19000:0:99999:7:::\n",
            Mode(0o600),
            KUid(1000),
            KGid(1000),
        )
        .unwrap();
        let mut a = AuthDaemon::new();
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["anything"]), &v));
    }
}
