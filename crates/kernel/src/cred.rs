//! Process credentials: user/group identities and capability sets.
//!
//! Mirrors the Linux `struct cred`: real, effective, and saved UIDs/GIDs,
//! supplementary groups, and the effective capability set. The setuid *bit*
//! semantics (§3.1 of the paper) are implemented in `syscall::process` at
//! `execve` time; the setuid *system call* semantics live in `syscall::id`.

use crate::caps::{Cap, CapSet};
use core::fmt;
use std::sync::Arc;

/// A numeric user identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Uid(pub u32);

/// A numeric group identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Gid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Returns whether this is uid 0.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl Gid {
    /// The root group.
    pub const ROOT: Gid = Gid(0);
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid:{}", self.0)
    }
}

/// The credential state of a task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// Real user id: who invoked the process.
    pub ruid: Uid,
    /// Effective user id: used for permission checks.
    pub euid: Uid,
    /// Saved user id: allows temporarily dropping and regaining privilege.
    pub suid: Uid,
    /// Filesystem uid (tracks euid in this simulation).
    pub fsuid: Uid,
    /// Real group id.
    pub rgid: Gid,
    /// Effective group id.
    pub egid: Gid,
    /// Saved group id.
    pub sgid: Gid,
    /// Supplementary groups, shared copy-on-write: a fork shares its
    /// parent's list, and a change (written through `Arc::make_mut`)
    /// copies it.
    pub groups: Arc<Vec<Gid>>,
    /// Effective capability set.
    pub caps: CapSet,
}

impl Credentials {
    /// Credentials for a root process: uid/gid 0 and the full capability
    /// set, as stock Linux grants.
    pub fn root() -> Credentials {
        Credentials {
            ruid: Uid::ROOT,
            euid: Uid::ROOT,
            suid: Uid::ROOT,
            fsuid: Uid::ROOT,
            rgid: Gid::ROOT,
            egid: Gid::ROOT,
            sgid: Gid::ROOT,
            groups: Arc::new(vec![Gid::ROOT]),
            caps: CapSet::full(),
        }
    }

    /// Credentials for an ordinary unprivileged user.
    pub fn user(uid: Uid, gid: Gid) -> Credentials {
        Credentials {
            ruid: uid,
            euid: uid,
            suid: uid,
            fsuid: uid,
            rgid: gid,
            egid: gid,
            sgid: gid,
            groups: Arc::new(vec![gid]),
            caps: CapSet::EMPTY,
        }
    }

    /// Returns whether the effective user is root.
    pub fn is_root(&self) -> bool {
        self.euid.is_root()
    }

    /// Returns whether the task holds `cap` in its effective set.
    ///
    /// Note: the kernel-level `capable()` check additionally consults the
    /// active LSM; see [`crate::kernel::Kernel::capable`].
    pub fn has_cap(&self, cap: Cap) -> bool {
        self.caps.has(cap)
    }

    /// Returns whether `gid` is the effective group or a supplementary
    /// group of the task.
    pub fn in_group(&self, gid: Gid) -> bool {
        self.egid == gid || self.groups.contains(&gid)
    }

    /// Applies the setuid-bit transition of `execve`: the effective and
    /// saved uid become the binary owner. Real uid is unchanged — this is
    /// exactly the mechanism the paper's study targets.
    pub fn apply_setuid_bit(&mut self, owner: Uid) {
        self.euid = owner;
        self.suid = owner;
        self.fsuid = owner;
        if owner.is_root() {
            // Stock Linux: euid 0 implies the full capability set unless an
            // LSM or securebits intervene.
            self.caps = CapSet::full();
        }
    }

    /// Applies the setgid-bit transition of `execve`.
    pub fn apply_setgid_bit(&mut self, owner: Gid) {
        self.egid = owner;
        self.sgid = owner;
    }

    /// Drops all capabilities and pins every uid to `uid` — the classic
    /// "drop privilege permanently" sequence of well-written setuid
    /// binaries ("Setuid Demystified").
    pub fn drop_to(&mut self, uid: Uid, gid: Gid) {
        self.ruid = uid;
        self.euid = uid;
        self.suid = uid;
        self.fsuid = uid;
        self.rgid = gid;
        self.egid = gid;
        self.sgid = gid;
        self.caps = CapSet::EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_all_caps() {
        let c = Credentials::root();
        assert!(c.is_root());
        assert!(c.has_cap(Cap::SysAdmin));
        assert!(c.has_cap(Cap::NetRaw));
    }

    #[test]
    fn user_has_no_caps() {
        let c = Credentials::user(Uid(1000), Gid(1000));
        assert!(!c.is_root());
        assert!(c.caps.is_empty());
        assert_eq!(c.ruid, c.euid);
    }

    #[test]
    fn setuid_bit_raises_euid_not_ruid() {
        let mut c = Credentials::user(Uid(1000), Gid(1000));
        c.apply_setuid_bit(Uid::ROOT);
        assert_eq!(c.ruid, Uid(1000));
        assert_eq!(c.euid, Uid::ROOT);
        assert_eq!(c.suid, Uid::ROOT);
        assert!(c.has_cap(Cap::SysAdmin));
    }

    #[test]
    fn setuid_bit_to_nonroot_grants_no_caps() {
        let mut c = Credentials::user(Uid(1000), Gid(1000));
        c.apply_setuid_bit(Uid(38));
        assert_eq!(c.euid, Uid(38));
        assert!(c.caps.is_empty());
    }

    #[test]
    fn drop_to_clears_everything() {
        let mut c = Credentials::root();
        c.drop_to(Uid(1000), Gid(1000));
        assert_eq!(c.euid, Uid(1000));
        assert_eq!(c.suid, Uid(1000));
        assert!(c.caps.is_empty());
    }

    #[test]
    fn group_membership() {
        let mut c = Credentials::user(Uid(1000), Gid(1000));
        Arc::make_mut(&mut c.groups).push(Gid(24)); // cdrom
        assert!(c.in_group(Gid(1000)));
        assert!(c.in_group(Gid(24)));
        assert!(!c.in_group(Gid(25)));
    }
}
