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
    find_entry, first_entry, name_and_hash, GroupEntry, PasswdEntry, ID_FIELD, NAME_FIELD,
};
use sim_kernel::lsm::{sim_crypt_verify, AuthProvider, AuthScope};
use sim_kernel::vfs::Vfs;
use std::collections::VecDeque;

/// The trusted authentication agent.
#[derive(Debug, Default)]
pub struct AuthDaemon {
    /// Number of authentication attempts served (for auditing/benches).
    pub prompts: u64,
    /// Number of failures.
    pub failures: u64,
    /// The principal's fragment path, `<dir><name>`, kept so that a warm
    /// check reuses its capacity.
    fragment: String,
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

    /// Checks `attempt` against the hash of account `id` of `db`, reading
    /// each file in place: the id's name, then that name's fragment, then
    /// its line in the legacy file. `None` when no usable hash exists (no
    /// entry, a locked `!` or an empty hash), else whether the attempt
    /// matches.
    fn check(&mut self, vfs: &Vfs, db: &Accounts, id: u32, attempt: Option<&str>) -> Option<bool> {
        let fragment = &mut self.fragment;
        Self::with_text(vfs, db.names, |t| {
            let name = find_entry(t, ID_FIELD, id, db.parse_name)?;
            fragment.clear();
            fragment.push_str(db.fragments);
            fragment.push_str(name);
            Some(())
        })?;
        let verdict = |(_, hash): (&str, &str)| {
            (hash != "!" && !hash.is_empty())
                .then(|| attempt.is_some_and(|a| sim_crypt_verify(hash, a)))
        };
        let name = &fragment[db.fragments.len()..];
        Self::with_text(vfs, fragment, |t| {
            first_entry(t, name_and_hash).map(verdict)
        })
        .or_else(|| {
            Self::with_text(vfs, db.legacy, |t| {
                find_entry(t, NAME_FIELD, name, name_and_hash).map(verdict)
            })
        })
        .flatten()
    }
}

/// Where one kind of principal's name and password hash live.
struct Accounts {
    /// The file that maps an id to a name.
    names: &'static str,
    /// The name of a well-formed line of `names`.
    parse_name: fn(&str) -> Option<&str>,
    /// The directory of Protego's per-account fragments, checked first.
    fragments: &'static str,
    /// The legacy file the monitoring daemon keeps synchronized.
    legacy: &'static str,
}

const USERS: Accounts = Accounts {
    names: "/etc/passwd",
    parse_name: PasswdEntry::parse_name,
    fragments: "/etc/shadows/",
    legacy: "/etc/shadow",
};

const GROUPS: Accounts = Accounts {
    names: "/etc/group",
    parse_name: GroupEntry::parse_name,
    fragments: "/etc/gshadows/",
    legacy: "/etc/gshadow",
};

impl AuthProvider for AuthDaemon {
    fn authenticate(
        &mut self,
        scope: AuthScope,
        terminal_input: &mut VecDeque<String>,
        vfs: &Vfs,
    ) -> bool {
        self.prompts += 1;
        let attempt = terminal_input.front().map(String::as_str);
        let verdict = match scope {
            AuthScope::User(uid) => self.check(vfs, &USERS, uid.0, attempt),
            AuthScope::Group(gid) => self.check(vfs, &GROUPS, gid.0, attempt),
        };
        let ok = match verdict {
            // A usable hash consumes the attempt, whether or not it matches.
            Some(ok) => terminal_input.pop_front().is_some() && ok,
            None => false,
        };
        if !ok {
            self.failures += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{GshadowEntry, ShadowEntry};
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
        let mut typed = input(&["x"]);
        assert!(!a.authenticate(AuthScope::User(KUid(4242)), &mut typed, &v));
        assert!(!a.authenticate(AuthScope::Group(KGid(4242)), &mut typed, &v));
        // No hash, no prompt: the attempt stays queued for the next one.
        assert_eq!(typed.len(), 1);
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut typed, &v));
        assert!(typed.is_empty(), "a wrong attempt is consumed");
        assert_eq!(a.failures, 3);
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
        let mut typed = input(&["anything"]);
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut typed, &v));
        // A locked fragment does not fall back to the legacy file.
        assert!(!a.authenticate(AuthScope::User(KUid(1000)), &mut input(&["alicepw"]), &v));
        assert_eq!(typed.len(), 1, "a locked account reads no attempt");
    }
}
