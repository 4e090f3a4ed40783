//! Inodes, file modes, and file content for the simulated VFS.

use crate::cred::{Gid, Uid};
use crate::dev::DevId;
use crate::vfs::intern::Name;
use std::collections::BTreeMap;

/// An inode number: an index into the VFS inode arena.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Ino(pub usize);

/// A file mode: permission bits plus the setuid/setgid/sticky bits, in the
/// traditional octal encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mode(pub u32);

impl Mode {
    /// The setuid permission bit (04000) — the subject of the paper.
    pub const SETUID: u32 = 0o4000;
    /// The setgid permission bit (02000).
    pub const SETGID: u32 = 0o2000;
    /// The sticky bit (01000).
    pub const STICKY: u32 = 0o1000;

    /// Returns the permission bits (lower 12 bits).
    pub fn bits(self) -> u32 {
        self.0 & 0o7777
    }

    /// Whether the setuid bit is set.
    pub fn is_setuid(self) -> bool {
        self.0 & Mode::SETUID != 0
    }

    /// Whether the setgid bit is set.
    pub fn is_setgid(self) -> bool {
        self.0 & Mode::SETGID != 0
    }

    /// Owner permission triple (rwx as bits 2..0).
    pub fn owner_bits(self) -> u32 {
        (self.0 >> 6) & 0o7
    }

    /// Group permission triple.
    pub fn group_bits(self) -> u32 {
        (self.0 >> 3) & 0o7
    }

    /// Other permission triple.
    pub fn other_bits(self) -> u32 {
        self.0 & 0o7
    }

    /// Renders the mode like `ls -l`, e.g. `rwsr-xr-x` for 04755.
    pub fn render(self) -> String {
        let mut s = String::with_capacity(9);
        let triple = |s: &mut String, bits: u32, special: bool, special_ch: char| {
            s.push(if bits & 4 != 0 { 'r' } else { '-' });
            s.push(if bits & 2 != 0 { 'w' } else { '-' });
            s.push(match (bits & 1 != 0, special) {
                (true, true) => special_ch,
                (true, false) => 'x',
                (false, true) => special_ch.to_ascii_uppercase(),
                (false, false) => '-',
            });
        };
        triple(&mut s, self.owner_bits(), self.is_setuid(), 's');
        triple(&mut s, self.group_bits(), self.is_setgid(), 's');
        triple(&mut s, self.other_bits(), self.0 & Mode::STICKY != 0, 't');
        s
    }
}

/// Access request mask used by permission checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access(pub u32);

impl Access {
    /// Read access.
    pub const READ: Access = Access(4);
    /// Write access.
    pub const WRITE: Access = Access(2);
    /// Execute / directory-search access.
    pub const EXEC: Access = Access(1);

    /// Combines two access masks.
    pub fn and(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    /// Whether the mask includes write access.
    pub fn wants_write(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether the mask includes read access.
    pub fn wants_read(self) -> bool {
        self.0 & 4 != 0
    }

    /// Whether the mask includes execute/search access.
    pub fn wants_exec(self) -> bool {
        self.0 & 1 != 0
    }
}

/// A dynamic (`/proc`- or `/sys`-style) node identity.
///
/// The VFS stores only the identity; the kernel dispatches reads and writes
/// of these nodes, forwarding LSM configuration files to the active
/// security module (the Protego `/proc` interface of Figure 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProcHook {
    /// `/proc/mounts` — the mount table, read-only.
    Mounts,
    /// `/proc/uptime` — the logical clock, read-only.
    Uptime,
    /// `/proc/<lsm>/<name>` — a security-module configuration file with an
    /// LSM-defined grammar (e.g. Protego's mount whitelist).
    LsmConfig(&'static str),
    /// `/proc/<lsm>/audit` — the structured audit ring, read-only.
    Audit,
    /// `/proc/<lsm>/metrics` — decision counters, read-only.
    Metrics,
    /// `/proc/kernel/histograms` — per-pathway latency histograms from
    /// the span-timing subsystem, read-only.
    Histograms,
    /// `/sys/...` attribute owned by a device, read-only; the string names
    /// the attribute (e.g. `dm/0/deps` for dm-crypt device topology).
    SysAttr(String),
    /// `/proc/seccomp/profiles` — loaded per-binary allowlists; root may
    /// write a full profile document to replace the table.
    SeccompProfiles,
    /// `/proc/seccomp/status` — mode and counters; root may write
    /// `off`/`complain`/`enforce` to switch modes.
    SeccompStatus,
    /// `/proc/seccomp/violations` — the out-of-profile call log; root may
    /// write `clear` to empty it.
    SeccompViolations,
}

/// What an inode contains.
#[derive(Clone, Debug)]
pub enum InodeData {
    /// A regular file with in-memory contents.
    Regular(Vec<u8>),
    /// A directory mapping interned names to child inode numbers. Keyed
    /// by [`Name`] symbol, so lookups are integer compares; note the map
    /// iterates in *symbol* order, not lexicographic — `readdir`-style
    /// callers sort the resolved strings.
    Directory(BTreeMap<Name, Ino>),
    /// A symbolic link to a path.
    Symlink(String),
    /// A character device.
    CharDev(DevId),
    /// A block device.
    BlockDev(DevId),
    /// A named pipe (contents managed by the pipe subsystem).
    Fifo,
    /// A dynamic kernel-backed node.
    Hook(ProcHook),
}

impl InodeData {
    /// Returns whether this is a directory.
    pub fn is_dir(&self) -> bool {
        matches!(self, InodeData::Directory(_))
    }
}

/// A simulated inode.
#[derive(Clone, Debug)]
pub struct Inode {
    /// This inode's number.
    pub ino: Ino,
    /// Parent directory inode (self for the root). An unlinked inode
    /// keeps the directory it was last linked in.
    pub parent: Ino,
    /// This inode's entry name in `parent`, as a dentry keeps `d_name`:
    /// `None` for the root and for an inode no directory links (never,
    /// like a medium's root, or no longer). An inode has at most one name.
    pub name: Option<Name>,
    /// Permission and special bits.
    pub mode: Mode,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Contents.
    pub data: InodeData,
    /// Bumped on every content or metadata change; the basis of the
    /// inotify-like change notification used by the monitoring daemon.
    pub version: u64,
    /// Number of live links (1 for a linked non-directory, >=2 for a
    /// directory, 0 once unlinked).
    pub nlink: u32,
    /// Open file descriptions referencing this inode. An unlinked inode
    /// stays allocated until the last open closes — classic in-core inode
    /// lifetime.
    pub opens: u32,
}

/// What an access check reads of an inode: its kind, owner, group and
/// mode, copied out under one guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attrs {
    /// Whether it is a directory.
    pub is_dir: bool,
    /// Whether it is a regular file.
    pub is_file: bool,
    /// Owning user.
    pub uid: Uid,
    /// Owning group.
    pub gid: Gid,
    /// Permission and special bits.
    pub mode: Mode,
}

impl Attrs {
    /// DAC permission check: does `cred`-like identity (uid, groups) get
    /// `want` on this inode? Pure owner/group/other logic; capability
    /// overrides are applied by the caller.
    pub fn dac_allows(self, uid: Uid, in_group: impl Fn(Gid) -> bool, want: Access) -> bool {
        let bits = if self.uid == uid {
            self.mode.owner_bits()
        } else if in_group(self.gid) {
            self.mode.group_bits()
        } else {
            self.mode.other_bits()
        };
        bits & want.0 == want.0
    }
}

impl Inode {
    /// The attributes an access check reads.
    pub fn attrs(&self) -> Attrs {
        Attrs {
            is_dir: self.data.is_dir(),
            is_file: matches!(self.data, InodeData::Regular(_)),
            uid: self.uid,
            gid: self.gid,
            mode: self.mode,
        }
    }

    /// File size in bytes (0 for non-regular files).
    pub fn size(&self) -> usize {
        match &self.data {
            InodeData::Regular(d) => d.len(),
            _ => 0,
        }
    }

    /// Returns the directory entries, or `None` if not a directory.
    pub fn dir_entries(&self) -> Option<&BTreeMap<Name, Ino>> {
        match &self.data {
            InodeData::Directory(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bit_extraction() {
        let m = Mode(0o4755);
        assert!(m.is_setuid());
        assert!(!m.is_setgid());
        assert_eq!(m.owner_bits(), 0o7);
        assert_eq!(m.group_bits(), 0o5);
        assert_eq!(m.other_bits(), 0o5);
    }

    #[test]
    fn mode_render_setuid_binary() {
        assert_eq!(Mode(0o4755).render(), "rwsr-xr-x");
        assert_eq!(Mode(0o755).render(), "rwxr-xr-x");
        assert_eq!(Mode(0o600).render(), "rw-------");
        assert_eq!(Mode(0o4644).render(), "rwSr--r--");
        assert_eq!(Mode(0o1777).render(), "rwxrwxrwt");
    }

    #[test]
    fn dac_semantics() {
        let attrs = Attrs {
            is_dir: false,
            is_file: true,
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            mode: Mode(0o644),
        };
        assert!(attrs.dac_allows(Uid::ROOT, |_| false, Access::WRITE));
        assert!(attrs.dac_allows(Uid(1000), |_| false, Access::READ));
        assert!(!attrs.dac_allows(Uid(1000), |_| false, Access::WRITE));
        // Group bits picked when the caller is in the owning group.
        assert!(!attrs.dac_allows(Uid(1000), |g| g == Gid::ROOT, Access::WRITE));
    }

    #[test]
    fn access_mask_composition() {
        let rw = Access::READ.and(Access::WRITE);
        assert!(rw.wants_read());
        assert!(rw.wants_write());
        assert!(!rw.wants_exec());
    }
}
