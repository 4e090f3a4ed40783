//! Identity system calls: the `setuid`/`setgid` family (§4.3).
//!
//! Stock Linux allows an arbitrary transition iff the caller holds
//! CAP_SETUID (CAP_SETGID), else only transitions among {ruid, euid, suid}.
//! Protego's hook enforces the delegation rules mined from
//! `/etc/sudoers`: transitions may be granted outright, denied, gated on
//! recent authentication, or — when restricted to particular commands —
//! turned into a *pending* transition that resolves at `exec`.

use crate::caps::{Cap, CapSet};
use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::{Kernel, Site};
use crate::lsm::{SecurityModule, SetidCtx};
use crate::task::{Pid, Task};
use crate::trace::AuditObject;
use std::sync::Arc;

impl Kernel {
    /// `setuid(2)`.
    pub fn sys_setuid(&self, pid: Pid, target: Uid) -> KResult<()> {
        let hook = |t: &Task, m: &dyn SecurityModule| {
            m.task_setuid(&SetidCtx::of(t, self.clock()), target)
        };
        let object = || AuditObject::UidTarget(target.0);
        match self.decide(pid, Site::SETUID, object, hook, Ok)? {
            None => self.setuid_stock(pid, target),
            Some(Some(pending)) => {
                // The call *reports* success; the credential change is
                // deferred to exec (§4.3's change in error behaviour).
                self.task_mut(pid)?.pending_setuid = Some(pending);
                Ok(())
            }
            Some(None) => {
                let mut t = self.task_mut(pid)?;
                t.cred.ruid = target;
                t.cred.euid = target;
                t.cred.suid = target;
                t.cred.fsuid = target;
                // Privilege is granted only *after* all checks pass (the
                // paper's point about sudo-to-root).
                t.cred.caps = if target.is_root() {
                    CapSet::full()
                } else {
                    CapSet::EMPTY
                };
                Ok(())
            }
        }
    }

    /// Stock `setuid(2)` semantics.
    fn setuid_stock(&self, pid: Pid, target: Uid) -> KResult<()> {
        if self.capable(pid, Cap::Setuid) {
            let mut t = self.task_mut(pid)?;
            t.cred.ruid = target;
            t.cred.euid = target;
            t.cred.suid = target;
            t.cred.fsuid = target;
            if !target.is_root() {
                // Dropping root drops the capability set.
                t.cred.caps = CapSet::EMPTY;
            }
            return Ok(());
        }
        // The write guard is scoped so it is gone before the audit
        // emission (which re-reads the same task shard).
        let allowed = {
            let mut t = self.task_mut(pid)?;
            let allowed = target == t.cred.ruid || target == t.cred.suid;
            if allowed {
                t.cred.euid = target;
                t.cred.fsuid = target;
            }
            allowed
        };
        let object = || AuditObject::UidTarget(target.0);
        self.stock(pid, Site::SETUID, allowed, object)
    }

    /// `seteuid(2)` — stock semantics only (no LSM hook needed: it cannot
    /// reach an identity the task does not already hold without
    /// CAP_SETUID).
    pub fn sys_seteuid(&self, pid: Pid, target: Uid) -> KResult<()> {
        if self.capable(pid, Cap::Setuid) {
            let mut t = self.task_mut(pid)?;
            t.cred.euid = target;
            t.cred.fsuid = target;
            return Ok(());
        }
        let mut t = self.task_mut(pid)?;
        if target == t.cred.ruid || target == t.cred.suid || target == t.cred.euid {
            t.cred.euid = target;
            t.cred.fsuid = target;
            Ok(())
        } else {
            Err(Errno::EPERM)
        }
    }

    /// `setgid(2)`.
    pub fn sys_setgid(&self, pid: Pid, target: Gid) -> KResult<()> {
        let hook = |t: &Task, m: &dyn SecurityModule| {
            m.task_setgid(&SetidCtx::of(t, self.clock()), target)
        };
        let object = || AuditObject::GidTarget(target.0);
        // A transition deferred to exec means nothing for a gid.
        let now = |pending: Option<_>| pending.map_or(Ok(()), |_| Err(Errno::EINVAL));
        if self.decide(pid, Site::SETGID, object, hook, now)?.is_none() {
            return self.setgid_stock(pid, target);
        }
        let mut t = self.task_mut(pid)?;
        t.cred.rgid = target;
        t.cred.egid = target;
        t.cred.sgid = target;
        if !t.cred.groups.contains(&target) {
            Arc::make_mut(&mut t.cred.groups).push(target);
        }
        Ok(())
    }

    /// Stock `setgid(2)` semantics.
    fn setgid_stock(&self, pid: Pid, target: Gid) -> KResult<()> {
        if self.capable(pid, Cap::Setgid) {
            let mut t = self.task_mut(pid)?;
            t.cred.rgid = target;
            t.cred.egid = target;
            t.cred.sgid = target;
            return Ok(());
        }
        // Scoped as in setuid_stock: guard released before any emission.
        let allowed = {
            let mut t = self.task_mut(pid)?;
            let allowed = target == t.cred.rgid || target == t.cred.sgid;
            if allowed {
                t.cred.egid = target;
            }
            allowed
        };
        let object = || AuditObject::GidTarget(target.0);
        self.stock(pid, Site::SETGID, allowed, object)
    }

    /// `setgroups(2)` — requires CAP_SETGID.
    pub fn sys_setgroups(&self, pid: Pid, groups: &[Gid]) -> KResult<()> {
        if !self.capable(pid, Cap::Setgid) {
            return Err(Errno::EPERM);
        }
        self.task_mut(pid)?.cred.groups = Arc::new(groups.to_vec());
        Ok(())
    }

    /// `getuid(2)`.
    pub fn sys_getuid(&self, pid: Pid) -> KResult<Uid> {
        Ok(self.task(pid)?.cred.ruid)
    }

    /// `geteuid(2)`.
    pub fn sys_geteuid(&self, pid: Pid) -> KResult<Uid> {
        Ok(self.task(pid)?.cred.euid)
    }

    /// `getgid(2)`.
    pub fn sys_getgid(&self, pid: Pid) -> KResult<Gid> {
        Ok(self.task(pid)?.cred.rgid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, root, user)
    }

    #[test]
    fn root_can_setuid_anywhere_and_drops_caps() {
        let (k, root, _) = boot();
        k.sys_setuid(root, Uid(1000)).unwrap();
        {
            // Scoped: the guard must drop before the next sys_setuid call
            // re-locks the same task shard.
            let t = k.task(root).unwrap();
            let c = &t.cred;
            assert_eq!(c.ruid, Uid(1000));
            assert_eq!(c.euid, Uid(1000));
            assert_eq!(c.suid, Uid(1000));
            assert!(c.caps.is_empty());
        }
        // Once dropped, cannot regain.
        assert_eq!(k.sys_setuid(root, Uid::ROOT).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn user_setuid_to_stranger_is_eperm() {
        let (k, _, user) = boot();
        assert_eq!(k.sys_setuid(user, Uid(1001)).unwrap_err(), Errno::EPERM);
        assert_eq!(k.sys_setuid(user, Uid::ROOT).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn user_setuid_to_self_ok() {
        let (k, _, user) = boot();
        k.sys_setuid(user, Uid(1000)).unwrap();
        assert_eq!(k.sys_geteuid(user).unwrap(), Uid(1000));
    }

    #[test]
    fn seteuid_among_held_ids() {
        let (k, _, user) = boot();
        // Simulate a setuid-nonroot binary: euid 38, ruid 1000, suid 38.
        {
            let mut t = k.task_mut(user).unwrap();
            t.cred.euid = Uid(38);
            t.cred.suid = Uid(38);
            t.cred.fsuid = Uid(38);
        }
        // Temporarily drop to the real uid...
        k.sys_seteuid(user, Uid(1000)).unwrap();
        assert_eq!(k.sys_geteuid(user).unwrap(), Uid(1000));
        // ...and regain the saved uid.
        k.sys_seteuid(user, Uid(38)).unwrap();
        assert_eq!(k.sys_geteuid(user).unwrap(), Uid(38));
        // But never an unrelated uid.
        assert_eq!(k.sys_seteuid(user, Uid(7)).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn setgid_stock_semantics() {
        let (k, root, user) = boot();
        k.sys_setgid(root, Gid(1000)).unwrap();
        assert_eq!(k.task(root).unwrap().cred.egid, Gid(1000));
        assert_eq!(k.sys_setgid(user, Gid(24)).unwrap_err(), Errno::EPERM);
        k.sys_setgid(user, Gid(1000)).unwrap();
    }

    #[test]
    fn setgroups_requires_cap() {
        let (k, root, user) = boot();
        k.sys_setgroups(root, &[Gid(0), Gid(24)]).unwrap();
        assert_eq!(k.sys_setgroups(user, &[Gid(24)]).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn getters() {
        let (k, root, user) = boot();
        assert_eq!(k.sys_getuid(root).unwrap(), Uid::ROOT);
        assert_eq!(k.sys_getuid(user).unwrap(), Uid(1000));
        assert_eq!(k.sys_getgid(user).unwrap(), Gid(1000));
    }
}
