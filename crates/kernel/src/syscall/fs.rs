//! Filesystem system calls: open, read, write, stat, directory and
//! metadata operations.

use crate::caps::Cap;
use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{FileDecision, FileOpenCtx};
use crate::syscall::abi::Whence;
use crate::task::{Fd, FdObject, Pid};
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway};
use crate::vfs::{Access, Ino, InodeData, Mode, Name, PathArena, ProcHook, Resolved};

/// Flags for [`Kernel::sys_open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Append on every write.
    pub append: bool,
    /// Create if missing.
    pub create: bool,
    /// With `create`: fail if the file exists.
    pub excl: bool,
    /// Truncate on open.
    pub truncate: bool,
    /// Close on exec.
    pub cloexec: bool,
    /// Mode for newly created files.
    pub mode: Mode,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> OpenFlags {
        OpenFlags {
            read: true,
            write: false,
            append: false,
            create: false,
            excl: false,
            truncate: false,
            cloexec: false,
            mode: Mode(0o644),
        }
    }

    /// `O_WRONLY`.
    pub fn write_only() -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            ..OpenFlags::read_only()
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> OpenFlags {
        OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::read_only()
        }
    }

    /// `O_WRONLY|O_CREAT|O_TRUNC` with the given mode.
    pub fn create_trunc(mode: Mode) -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            create: true,
            truncate: true,
            mode,
            ..OpenFlags::read_only()
        }
    }

    /// `O_WRONLY|O_APPEND`.
    pub fn append_only() -> OpenFlags {
        OpenFlags {
            read: false,
            write: true,
            append: true,
            ..OpenFlags::read_only()
        }
    }

    fn access(&self) -> Access {
        let mut a = Access(0);
        if self.read {
            a = a.and(Access::READ);
        }
        if self.write || self.truncate || self.append {
            a = a.and(Access::WRITE);
        }
        a
    }
}

/// `stat(2)` result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// Mode bits.
    pub mode: Mode,
    /// Owner.
    pub uid: Uid,
    /// Group.
    pub gid: Gid,
    /// Size in bytes.
    pub size: usize,
    /// Link count.
    pub nlink: u32,
    /// Whether this is a directory.
    pub is_dir: bool,
}

impl Kernel {
    // ------------------------------------------------------------------
    // Permission helpers
    // ------------------------------------------------------------------

    /// Checks a DAC access on an inode, honouring the DAC-override
    /// capabilities through the (LSM-aware) `capable` path.
    ///
    /// Called once per traversed directory on every walk, so the
    /// credential snapshot stays on the stack: the scalars are copied
    /// out and supplementary groups land in an inline array (tasks with
    /// more than [`GROUPS_INLINE`] groups spill, which is cold).
    pub(crate) fn check_access(&self, pid: Pid, ino: Ino, want: Access) -> KResult<()> {
        /// Supplementary groups kept on the stack per check.
        const GROUPS_INLINE: usize = 8;
        let mut inline = [Gid(0); GROUPS_INLINE];
        let (fsuid, egid, ngroups, spill) = {
            let t = self.task(pid)?;
            let c = &t.cred;
            let n = c.groups.len().min(GROUPS_INLINE);
            inline[..n].copy_from_slice(&c.groups[..n]);
            let spill: Vec<Gid> = if c.groups.len() > GROUPS_INLINE {
                c.groups[GROUPS_INLINE..].to_vec()
            } else {
                Vec::new()
            };
            (c.fsuid, c.egid, n, spill)
        };
        let allowed = crate::vfs::Vfs::dac_allows(
            &self.vfs.inode(ino),
            fsuid,
            |g| egid == g || inline[..ngroups].contains(&g) || spill.contains(&g),
            want,
        );
        if allowed {
            return Ok(());
        }
        // CAP_DAC_READ_SEARCH covers read and directory search.
        let read_or_search =
            !want.wants_write() && (!want.wants_exec() || self.vfs.inode(ino).data.is_dir());
        if read_or_search && self.capable(pid, Cap::DacReadSearch) {
            return Ok(());
        }
        // CAP_DAC_OVERRIDE covers everything except exec of a file with no
        // exec bits at all. One scoped guard: taking the same inode's
        // shard lock twice in one expression invites a deadlock once
        // writers contend.
        let exec_plain_file = {
            let inode = self.vfs.inode(ino);
            want.wants_exec() && !inode.data.is_dir() && inode.mode.bits() & 0o111 == 0
        };
        if !exec_plain_file && self.capable(pid, Cap::DacOverride) {
            return Ok(());
        }
        Err(Errno::EACCES)
    }

    /// Resolves a path for task `pid`, checking search permission on every
    /// traversed directory.
    pub(crate) fn walk(&self, pid: Pid, path: &str) -> KResult<Resolved> {
        let cwd = self.task(pid)?.cwd;
        let r = self.vfs.resolve(cwd, path)?;
        for dir in r.dirs.iter() {
            self.check_access(pid, dir, Access::EXEC)?;
        }
        Ok(r)
    }

    /// Like [`Kernel::walk`] but stops at a trailing symlink.
    pub(crate) fn walk_nofollow(&self, pid: Pid, path: &str) -> KResult<Resolved> {
        let cwd = self.task(pid)?.cwd;
        let r = self.vfs.resolve_nofollow(cwd, path)?;
        for dir in r.dirs.iter() {
            self.check_access(pid, dir, Access::EXEC)?;
        }
        Ok(r)
    }

    // ------------------------------------------------------------------
    // open / close
    // ------------------------------------------------------------------

    /// `open(2)`.
    ///
    /// After DAC evaluation the LSM `file_open` hook runs; it may deny an
    /// access DAC would grant (AppArmor confinement), grant one DAC would
    /// refuse (Protego's binary-identity rules for ssh-keysign), demand
    /// re-authentication (Protego's shadow files), or force close-on-exec.
    pub fn sys_open(&self, pid: Pid, path: &str, flags: OpenFlags) -> KResult<i32> {
        let want = flags.access();
        let cwd = self.task(pid)?.cwd;

        // Creation path.
        let resolved = match self.walk(pid, path) {
            Ok(r) => {
                if flags.create && flags.excl {
                    return Err(Errno::EEXIST);
                }
                Some(r)
            }
            Err(Errno::ENOENT) if flags.create => None,
            Err(e) => return Err(e),
        };

        let ino = match resolved {
            Some(r) => r.ino,
            None => {
                let (parent, name) = self.vfs.resolve_parent(cwd, path)?;
                for d in parent.dirs.iter() {
                    self.check_access(pid, d, Access::EXEC)?;
                }
                self.check_access(pid, parent.ino, Access::WRITE.and(Access::EXEC))?;
                let cred = self.task(pid)?.cred.clone();
                let ino = self
                    .vfs
                    .create_file(parent.ino, &name, flags.mode, cred.fsuid, cred.egid, true)?;
                self.vfs.touch(ino);
                ino
            }
        };

        if self.vfs.inode(ino).data.is_dir() && want.wants_write() {
            return Err(Errno::EISDIR);
        }

        // DAC on the final object.
        let dac = self.check_access(pid, ino, want);
        let dac_ok = dac.is_ok();

        // LSM file-open hook, with one authentication retry. The
        // absolute path is reconstructed into the per-thread arena and
        // the hook context borrows it together with the task's
        // credentials, so the steady-state approve path (UseDefault with
        // DAC ok) allocates nothing.
        let file_owner = self.vfs.inode(ino).uid;
        let mut force_cloexec = false;
        let abs_name = PathArena::scope(|arena| -> KResult<Name> {
            let abs = self.vfs.path_of_in(arena, ino);
            let mut attempts = 0;
            loop {
                // Scoped: the task guard must drop before the arms below
                // emit events or re-run authentication (both re-enter
                // the task table). The hook itself runs with the guard
                // held — modules only read the borrowed context (same
                // discipline as the setuid/setgid hooks).
                let (decision, rule) = {
                    let t = self.task(pid)?;
                    let ctx = FileOpenCtx {
                        cred: &t.cred,
                        path: &abs,
                        binary: &t.binary,
                        access: want,
                        dac_allows: dac_ok,
                        file_owner,
                        last_auth: t.last_auth,
                        last_auth_scope: t.last_auth_scope,
                        now: self.clock(),
                    };
                    self.lsm_hook(Pathway::LsmFileOpen, |m| m.file_open(&ctx))
                };
                match decision {
                    FileDecision::UseDefault => {
                        dac?;
                        break;
                    }
                    FileDecision::Allow => {
                        let msg = format!("open: lsm granted {}", abs);
                        self.emit_lsm_event(
                            pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Allow,
                            None,
                            rule,
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        break;
                    }
                    FileDecision::AllowCloexec => {
                        force_cloexec = true;
                        let msg = format!("open: lsm granted {} (cloexec forced)", abs);
                        self.emit_lsm_event(
                            pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Allow,
                            None,
                            rule,
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        break;
                    }
                    FileDecision::Deny(e) => {
                        let msg = format!("open: lsm denied {} ({})", abs, e.name());
                        self.emit_lsm_event(
                            pid,
                            "open",
                            Hook::FileOpen,
                            DecisionKind::Deny,
                            Some(e),
                            rule,
                            AuditObject::Path(abs.to_string()),
                            msg,
                        );
                        return Err(e);
                    }
                    FileDecision::NeedAuth(scope) => {
                        attempts += 1;
                        if attempts > 1 || !self.run_auth(pid, scope) {
                            let msg = format!("open: auth failed for {}", abs);
                            self.emit_lsm_event(
                                pid,
                                "open",
                                Hook::FileOpen,
                                DecisionKind::Deny,
                                Some(Errno::EACCES),
                                rule,
                                AuditObject::Path(abs.to_string()),
                                msg,
                            );
                            return Err(Errno::EACCES);
                        }
                    }
                }
            }
            // The fd table records the path as an interned symbol so the
            // descriptor stays `Copy`-cheap to clone on every read/write.
            Ok(Name::intern(&abs))
        })?;

        if flags.truncate && matches!(self.vfs.inode(ino).data, InodeData::Regular(_)) {
            self.vfs.write_all(ino, b"")?;
        }

        let fd = Fd {
            object: FdObject::File {
                ino,
                offset: 0,
                readable: flags.read,
                writable: flags.write || flags.append || flags.truncate,
                append: flags.append,
                path: abs_name,
            },
            cloexec: flags.cloexec || force_cloexec,
        };
        self.vfs.inc_open(ino);
        self.task_mut(pid)?.fd_install(fd)
    }

    /// `lseek(2)` — repositions the file offset relative to `whence`.
    pub fn sys_lseek(&self, pid: Pid, fd: i32, offset: i64, whence: Whence) -> KResult<usize> {
        let (ino, cur) = match &self.task(pid)?.fd(fd)?.object {
            FdObject::File { ino, offset, .. } => (*ino, *offset),
            _ => return Err(Errno::EINVAL),
        };
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => cur as i64,
            Whence::End => self.vfs.inode(ino).size() as i64,
        };
        let new = base.checked_add(offset).ok_or(Errno::EINVAL)?;
        if new < 0 {
            return Err(Errno::EINVAL);
        }
        match &mut self.task_mut(pid)?.fd_mut(fd)?.object {
            FdObject::File { offset, .. } => *offset = new as usize,
            _ => return Err(Errno::EINVAL),
        }
        Ok(new as usize)
    }

    /// `close(2)`.
    pub fn sys_close(&self, pid: Pid, fd: i32) -> KResult<()> {
        let taken = self.task_mut(pid)?.fd_take(fd)?;
        self.release_fd_object(taken.object);
        Ok(())
    }

    /// Drops kernel-side state backing an fd object.
    pub(crate) fn release_fd_object(&self, obj: FdObject) {
        match obj {
            FdObject::Socket(sid) => {
                let _ = self.net.write().close(sid);
            }
            FdObject::PipeRead(pid_) => {
                self.pipes.release_read(pid_);
            }
            FdObject::PipeWrite(pid_) => {
                self.pipes.release_write(pid_);
            }
            FdObject::File { ino, .. } => {
                self.vfs.dec_open(ino);
            }
        }
    }

    // ------------------------------------------------------------------
    // read / write
    // ------------------------------------------------------------------

    /// `read(2)`.
    pub fn sys_read(&self, pid: Pid, fd: i32, buf: &mut Vec<u8>, count: usize) -> KResult<usize> {
        let fdo = self.task(pid)?.fd(fd)?.clone();
        match fdo.object {
            FdObject::File {
                ino,
                offset,
                readable,
                ..
            } => {
                if !readable {
                    return Err(Errno::EBADF);
                }
                // Regular files copy straight out of the inode guard —
                // no intermediate content clone. Dynamic nodes (and the
                // EISDIR/EINVAL cases) fall through to `render_node`.
                let fast = {
                    let inode = self.vfs.inode(ino);
                    match &inode.data {
                        InodeData::Regular(d) => {
                            let end = (offset + count).min(d.len());
                            let slice = &d[offset.min(d.len())..end];
                            buf.extend_from_slice(slice);
                            Some(slice.len())
                        }
                        _ => None,
                    }
                };
                let n = match fast {
                    Some(n) => n,
                    None => {
                        let content = self.render_node(pid, ino)?;
                        let end = (offset + count).min(content.len());
                        let slice = &content[offset.min(content.len())..end];
                        buf.extend_from_slice(slice);
                        slice.len()
                    }
                };
                if let FdObject::File { offset, .. } = &mut self.task_mut(pid)?.fd_mut(fd)?.object {
                    *offset += n;
                }
                Ok(n)
            }
            FdObject::PipeRead(id) => self.pipes.with(id, |p| {
                if p.buf.is_empty() {
                    return if p.writers == 0 {
                        Ok(0)
                    } else {
                        Err(Errno::EAGAIN)
                    };
                }
                let n = count.min(p.buf.len());
                buf.extend(p.buf.drain(..n));
                Ok(n)
            }),
            FdObject::PipeWrite(_) => Err(Errno::EBADF),
            FdObject::Socket(_) => Err(Errno::EINVAL), // use recv
        }
    }

    /// Materializes the byte content of an inode for reading, dispatching
    /// dynamic `/proc` and `/sys` nodes.
    fn render_node(&self, _pid: Pid, ino: Ino) -> KResult<Vec<u8>> {
        // Copy the hook out before rendering: several hook renderers
        // re-enter VFS or LSM locks, which must not happen under this
        // inode's shard guard.
        let hook = {
            let inode = self.vfs.inode(ino);
            match &inode.data {
                InodeData::Regular(d) => return Ok(d.clone()),
                InodeData::Directory(_) => return Err(Errno::EISDIR),
                InodeData::CharDev(_) | InodeData::BlockDev(_) => return Ok(Vec::new()),
                InodeData::Symlink(t) => return Ok(t.clone().into_bytes()),
                InodeData::Fifo => return Err(Errno::EINVAL),
                InodeData::Hook(h) => h.clone(),
            }
        };
        match hook {
            ProcHook::Mounts => Ok(self.vfs.render_proc_mounts().into_bytes()),
            ProcHook::Uptime => Ok(format!("{}.00 0.00\n", self.clock()).into_bytes()),
            ProcHook::LsmConfig(name) => Ok(self
                .lsm_hook(Pathway::LsmConfig, |m| m.config_read(name))?
                .into_bytes()),
            ProcHook::Audit => Ok(self.audit.render().into_bytes()),
            ProcHook::Metrics => Ok(self.metrics_snapshot().render().into_bytes()),
            ProcHook::Histograms => Ok(crate::trace::span::render().into_bytes()),
            ProcHook::SysAttr(attr) => Ok(self.sys_attr_read(&attr)?.into_bytes()),
            ProcHook::SeccompProfiles => Ok(self.seccomp.render_profiles().into_bytes()),
            ProcHook::SeccompStatus => Ok(self.seccomp.render_status().into_bytes()),
            ProcHook::SeccompViolations => Ok(self.seccomp.render_violations().into_bytes()),
        }
    }

    /// `write(2)`.
    pub fn sys_write(&self, pid: Pid, fd: i32, data: &[u8]) -> KResult<usize> {
        let fdo = self.task(pid)?.fd(fd)?.clone();
        match fdo.object {
            FdObject::File {
                ino,
                offset,
                writable,
                append,
                ..
            } => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                let hook = {
                    let inode = self.vfs.inode(ino);
                    match &inode.data {
                        InodeData::Hook(h) => Some(h.clone()),
                        InodeData::CharDev(_) => return Ok(data.len()), // /dev/null sink
                        _ => None,
                    }
                };
                if let Some(h) = hook {
                    return self.write_hook_node(pid, h, data);
                }
                if append {
                    self.vfs.append(ino, data)?;
                } else {
                    // Positional overwrite.
                    let mut content = self.vfs.read_all(ino)?.to_vec();
                    if offset + data.len() > content.len() {
                        content.resize(offset + data.len(), 0);
                    }
                    content[offset..offset + data.len()].copy_from_slice(data);
                    self.vfs.write_all(ino, &content)?;
                    if let FdObject::File { offset, .. } =
                        &mut self.task_mut(pid)?.fd_mut(fd)?.object
                    {
                        *offset += data.len();
                    }
                }
                Ok(data.len())
            }
            FdObject::PipeWrite(id) => self.pipes.with(id, |p| {
                if p.readers == 0 {
                    return Err(Errno::EPIPE);
                }
                p.buf.extend(data.iter().copied());
                Ok(data.len())
            }),
            FdObject::PipeRead(_) => Err(Errno::EBADF),
            FdObject::Socket(_) => Err(Errno::EINVAL), // use send
        }
    }

    /// Handles a write to a dynamic node. LSM configuration files accept
    /// writes only from root — the trusted daemon/administrator path of
    /// Figure 1.
    fn write_hook_node(&self, pid: Pid, hook: ProcHook, data: &[u8]) -> KResult<usize> {
        match hook {
            ProcHook::LsmConfig(name) => {
                let cred = self.task(pid)?.cred.clone();
                if !cred.euid.is_root() {
                    let msg = format!("lsm-config: non-root write to '{}' refused", name);
                    self.emit_kernel_event(
                        pid,
                        "write",
                        Hook::LsmConfig,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        AuditObject::Config(name.to_string()),
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
                let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
                self.lsm_config_write(name, &content)?;
                let msg = format!("lsm-config: '{}' updated", name);
                self.emit_kernel_event(
                    pid,
                    "write",
                    Hook::LsmConfig,
                    DecisionKind::Info,
                    None,
                    AuditObject::Config(name.to_string()),
                    msg,
                );
                Ok(data.len())
            }
            ProcHook::SeccompProfiles | ProcHook::SeccompStatus | ProcHook::SeccompViolations => {
                self.write_seccomp_node(pid, hook, data)
            }
            _ => Err(Errno::EACCES),
        }
    }

    /// Writes to the `/proc/seccomp/*` control plane. The nodes are 0600
    /// root-owned (non-root opens already fail `EACCES` at DAC); this
    /// re-checks euid like the LSM config path so an fd leaked across a
    /// credential drop still refuses, with an audited `EPERM`.
    fn write_seccomp_node(&self, pid: Pid, hook: ProcHook, data: &[u8]) -> KResult<usize> {
        let node = match hook {
            ProcHook::SeccompProfiles => "seccomp/profiles",
            ProcHook::SeccompStatus => "seccomp/status",
            _ => "seccomp/violations",
        };
        if !self.task(pid)?.cred.euid.is_root() {
            let msg = format!("seccomp: non-root write to '{}' refused", node);
            self.emit_kernel_event(
                pid,
                "write",
                Hook::LsmConfig,
                DecisionKind::Deny,
                Some(Errno::EPERM),
                AuditObject::Config(node.to_string()),
                msg,
            );
            return Err(Errno::EPERM);
        }
        let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
        let msg = match hook {
            ProcHook::SeccompProfiles => {
                let specs = crate::seccomp::Seccomp::parse_profiles_text(&content)
                    .map_err(|_| Errno::EINVAL)?;
                let n = self
                    .seccomp
                    .load_profiles(&specs)
                    .map_err(|_| Errno::EINVAL)?;
                format!("seccomp: loaded {} profiles", n)
            }
            ProcHook::SeccompStatus => {
                let mode = crate::seccomp::SeccompMode::parse(&content).ok_or(Errno::EINVAL)?;
                self.seccomp.set_mode(mode);
                format!("seccomp: mode -> {}", mode.name())
            }
            _ => {
                if content.trim() != "clear" {
                    return Err(Errno::EINVAL);
                }
                self.seccomp.clear_violations();
                "seccomp: violation log cleared".to_string()
            }
        };
        self.emit_kernel_event(
            pid,
            "write",
            Hook::LsmConfig,
            DecisionKind::Info,
            None,
            AuditObject::Config(node.to_string()),
            msg,
        );
        Ok(data.len())
    }

    // ------------------------------------------------------------------
    // Convenience wrappers (read_to_string / write_file) used heavily by
    // userland binaries; they go through the full open/read/write path so
    // every policy check applies.
    // ------------------------------------------------------------------

    /// Opens, reads fully, and closes.
    pub fn read_file(&self, pid: Pid, path: &str) -> KResult<Vec<u8>> {
        let fd = self.sys_open(pid, path, OpenFlags::read_only())?;
        let mut buf = Vec::new();
        loop {
            let n = self.sys_read(pid, fd, &mut buf, 65536)?;
            if n == 0 {
                break;
            }
            if n < 65536 {
                break;
            }
        }
        self.sys_close(pid, fd)?;
        Ok(buf)
    }

    /// Opens, reads fully as UTF-8, and closes.
    pub fn read_to_string(&self, pid: Pid, path: &str) -> KResult<String> {
        String::from_utf8(self.read_file(pid, path)?).map_err(|_| Errno::EINVAL)
    }

    /// Creates/truncates and writes a whole file.
    pub fn write_file(&self, pid: Pid, path: &str, data: &[u8], mode: Mode) -> KResult<()> {
        let fd = self.sys_open(pid, path, OpenFlags::create_trunc(mode))?;
        self.sys_write(pid, fd, data)?;
        self.sys_close(pid, fd)
    }

    /// Appends to an existing file.
    pub fn append_file(&self, pid: Pid, path: &str, data: &[u8]) -> KResult<()> {
        let fd = self.sys_open(pid, path, OpenFlags::append_only())?;
        self.sys_write(pid, fd, data)?;
        self.sys_close(pid, fd)
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// `stat(2)`.
    pub fn sys_stat(&self, pid: Pid, path: &str) -> KResult<Stat> {
        let r = self.walk(pid, path)?;
        let i = self.vfs.inode(r.ino);
        Ok(Stat {
            ino: i.ino,
            mode: i.mode,
            uid: i.uid,
            gid: i.gid,
            size: i.size(),
            nlink: i.nlink,
            is_dir: i.data.is_dir(),
        })
    }

    /// `lstat(2)` — like stat but does not follow a trailing symlink.
    pub fn sys_lstat(&self, pid: Pid, path: &str) -> KResult<Stat> {
        let r = self.walk_nofollow(pid, path)?;
        let i = self.vfs.inode(r.ino);
        Ok(Stat {
            ino: i.ino,
            mode: i.mode,
            uid: i.uid,
            gid: i.gid,
            size: i.size(),
            nlink: i.nlink,
            is_dir: i.data.is_dir(),
        })
    }

    /// `chmod(2)` — owner or CAP_FOWNER.
    pub fn sys_chmod(&self, pid: Pid, path: &str, mode: Mode) -> KResult<()> {
        let r = self.walk(pid, path)?;
        let cred = self.task(pid)?.cred.clone();
        let owner = self.vfs.inode(r.ino).uid;
        if cred.fsuid != owner && !self.capable(pid, Cap::Fowner) {
            return Err(Errno::EPERM);
        }
        // Setting setuid/setgid as non-root is allowed on own files (as on
        // Linux); the *power* of the bit depends on the owner.
        self.vfs.inode_mut(r.ino).mode = mode;
        self.vfs.touch(r.ino);
        // Mode changes alter what a path *means* to permission-aware
        // walkers, so conservatively invalidate cached resolutions.
        self.vfs.bump_namespace_gen();
        Ok(())
    }

    /// `chown(2)` — changing the owner requires CAP_CHOWN; changing the
    /// group requires ownership and membership, or CAP_CHOWN.
    pub fn sys_chown(
        &self,
        pid: Pid,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
    ) -> KResult<()> {
        let r = self.walk(pid, path)?;
        let cred = self.task(pid)?.cred.clone();
        let inode_uid = self.vfs.inode(r.ino).uid;
        if let Some(new_uid) = uid {
            if new_uid != inode_uid && !self.capable(pid, Cap::Chown) {
                return Err(Errno::EPERM);
            }
        }
        if let Some(new_gid) = gid {
            let owns = cred.fsuid == inode_uid;
            let group_change_ok = owns && cred.in_group(new_gid);
            if !group_change_ok && !self.capable(pid, Cap::Chown) {
                return Err(Errno::EPERM);
            }
        }
        // As on Linux, chown by an unprivileged principal clears setuid.
        let clearing = !self.capable(pid, Cap::Fsetid);
        {
            // Scoped: the guard must drop before `touch` relocks the shard.
            let mut inode = self.vfs.inode_mut(r.ino);
            if let Some(u) = uid {
                inode.uid = u;
            }
            if let Some(g) = gid {
                inode.gid = g;
            }
            if clearing {
                inode.mode = Mode(inode.mode.0 & !(Mode::SETUID | Mode::SETGID));
            }
        }
        self.vfs.touch(r.ino);
        self.vfs.bump_namespace_gen();
        Ok(())
    }

    /// `mkdir(2)`.
    pub fn sys_mkdir(&self, pid: Pid, path: &str, mode: Mode) -> KResult<()> {
        let cwd = self.task(pid)?.cwd;
        let (parent, name) = self.vfs.resolve_parent(cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        self.check_access(pid, parent.ino, Access::WRITE.and(Access::EXEC))?;
        let cred = self.task(pid)?.cred.clone();
        self.vfs
            .mkdir(parent.ino, &name, mode, cred.fsuid, cred.egid)?;
        Ok(())
    }

    /// `unlink(2)`.
    pub fn sys_unlink(&self, pid: Pid, path: &str) -> KResult<()> {
        let cwd = self.task(pid)?.cwd;
        let (parent, name) = self.vfs.resolve_parent(cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        self.check_access(pid, parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs.unlink(parent.ino, &name)
    }

    /// `rmdir(2)`.
    pub fn sys_rmdir(&self, pid: Pid, path: &str) -> KResult<()> {
        let cwd = self.task(pid)?.cwd;
        let (parent, name) = self.vfs.resolve_parent(cwd, path)?;
        for d in parent.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        self.check_access(pid, parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs.rmdir(parent.ino, &name)
    }

    /// `rename(2)` — both parents need write+search permission.
    pub fn sys_rename(&self, pid: Pid, from: &str, to: &str) -> KResult<()> {
        let cwd = self.task(pid)?.cwd;
        let (from_parent, from_name) = self.vfs.resolve_parent(cwd, from)?;
        for d in from_parent.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        self.check_access(pid, from_parent.ino, Access::WRITE.and(Access::EXEC))?;
        let (to_parent, to_name) = self.vfs.resolve_parent(cwd, to)?;
        for d in to_parent.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        self.check_access(pid, to_parent.ino, Access::WRITE.and(Access::EXEC))?;
        self.vfs
            .rename(from_parent.ino, &from_name, to_parent.ino, &to_name)
    }

    /// `symlink(2)`.
    pub fn sys_symlink(&self, pid: Pid, target: &str, linkpath: &str) -> KResult<()> {
        let cwd = self.task(pid)?.cwd;
        let (parent, name) = self.vfs.resolve_parent(cwd, linkpath)?;
        self.check_access(pid, parent.ino, Access::WRITE.and(Access::EXEC))?;
        let cred = self.task(pid)?.cred.clone();
        self.vfs
            .symlink(parent.ino, &name, target, cred.fsuid, cred.egid)?;
        Ok(())
    }

    /// `chdir(2)`.
    pub fn sys_chdir(&self, pid: Pid, path: &str) -> KResult<()> {
        let r = self.walk(pid, path)?;
        if !self.vfs.inode(r.ino).data.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.check_access(pid, r.ino, Access::EXEC)?;
        self.task_mut(pid)?.cwd = r.ino;
        Ok(())
    }

    /// Lists a directory's entry names.
    pub fn sys_readdir(&self, pid: Pid, path: &str) -> KResult<Vec<String>> {
        let r = self.walk(pid, path)?;
        self.check_access(pid, r.ino, Access::READ)?;
        let inode = self.vfs.inode(r.ino);
        let entries = inode.dir_entries().ok_or(Errno::ENOTDIR)?;
        let mut names: Vec<String> = entries.keys().map(|n| n.as_str().to_string()).collect();
        names.sort();
        Ok(names)
    }

    /// `pipe(2)` — returns (read fd, write fd).
    pub fn sys_pipe(&self, pid: Pid) -> KResult<(i32, i32)> {
        let id = self.pipes.alloc();
        let mut t = self.task_mut(pid)?;
        let r = t.fd_install(Fd {
            object: FdObject::PipeRead(id),
            cloexec: false,
        })?;
        let w = t.fd_install(Fd {
            object: FdObject::PipeWrite(id),
            cloexec: false,
        })?;
        Ok((r, w))
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
        k.vfs.mkdir_p("/etc").unwrap();
        k.vfs.mkdir_p("/tmp").unwrap();
        // world-writable tmp
        let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
        k.vfs.inode_mut(t).mode = Mode(0o1777);
        k.vfs
            .install_file("/etc/motd", b"hello\n", Mode(0o644), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file(
                "/etc/shadow",
                b"root:$sim$xx$0:0:0\n",
                Mode(0o600),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, root, user)
    }

    #[test]
    fn user_reads_world_readable() {
        let (k, _, u) = boot();
        assert_eq!(k.read_file(u, "/etc/motd").unwrap(), b"hello\n");
    }

    #[test]
    fn user_cannot_read_shadow() {
        let (k, _, u) = boot();
        assert_eq!(k.read_file(u, "/etc/shadow").unwrap_err(), Errno::EACCES);
    }

    #[test]
    fn root_reads_shadow_via_dac_override() {
        let (k, r, _) = boot();
        assert!(k.read_file(r, "/etc/shadow").is_ok());
    }

    #[test]
    fn user_cannot_write_etc() {
        let (k, _, u) = boot();
        assert_eq!(
            k.write_file(u, "/etc/evil", b"x", Mode(0o644)).unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(
            k.append_file(u, "/etc/motd", b"x").unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn create_write_read_in_tmp() {
        let (k, _, u) = boot();
        k.write_file(u, "/tmp/a.txt", b"data", Mode(0o600)).unwrap();
        assert_eq!(k.read_file(u, "/tmp/a.txt").unwrap(), b"data");
        let st = k.sys_stat(u, "/tmp/a.txt").unwrap();
        assert_eq!(st.uid, Uid(1000));
        assert_eq!(st.mode, Mode(0o600));
        assert_eq!(st.size, 4);
    }

    #[test]
    fn append_and_offsets() {
        let (k, _, u) = boot();
        k.write_file(u, "/tmp/log", b"one\n", Mode(0o644)).unwrap();
        k.append_file(u, "/tmp/log", b"two\n").unwrap();
        assert_eq!(k.read_file(u, "/tmp/log").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn excl_create() {
        let (k, _, u) = boot();
        let mut f = OpenFlags::create_trunc(Mode(0o600));
        f.excl = true;
        let fd = k.sys_open(u, "/tmp/x", f).unwrap();
        k.sys_close(u, fd).unwrap();
        assert_eq!(k.sys_open(u, "/tmp/x", f).unwrap_err(), Errno::EEXIST);
    }

    #[test]
    fn read_requires_read_flag() {
        let (k, _, u) = boot();
        k.write_file(u, "/tmp/y", b"secret", Mode(0o600)).unwrap();
        let fd = k.sys_open(u, "/tmp/y", OpenFlags::write_only()).unwrap();
        let mut buf = Vec::new();
        assert_eq!(k.sys_read(u, fd, &mut buf, 10).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn chmod_chown_rules() {
        let (k, r, u) = boot();
        k.write_file(u, "/tmp/own", b"", Mode(0o644)).unwrap();
        k.sys_chmod(u, "/tmp/own", Mode(0o600)).unwrap();
        // Non-owner cannot chmod.
        assert_eq!(
            k.sys_chmod(u, "/etc/motd", Mode(0o777)).unwrap_err(),
            Errno::EPERM
        );
        // User cannot give a file away.
        assert_eq!(
            k.sys_chown(u, "/tmp/own", Some(Uid::ROOT), None)
                .unwrap_err(),
            Errno::EPERM
        );
        // Root can.
        k.sys_chown(r, "/tmp/own", Some(Uid(1001)), None).unwrap();
        assert_eq!(k.sys_stat(r, "/tmp/own").unwrap().uid, Uid(1001));
    }

    #[test]
    fn chown_clears_setuid_bit() {
        let (k, r, _) = boot();
        k.write_file(r, "/tmp/suid", b"", Mode(0o4755)).unwrap();
        k.sys_chmod(r, "/tmp/suid", Mode(0o4755)).unwrap();
        // Root holds CAP_FSETID so the bit survives root's chown...
        k.sys_chown(r, "/tmp/suid", Some(Uid(1000)), None).unwrap();
        assert!(k.sys_stat(r, "/tmp/suid").unwrap().mode.is_setuid());
    }

    #[test]
    fn mkdir_unlink_rmdir() {
        let (k, _, u) = boot();
        k.sys_mkdir(u, "/tmp/d", Mode(0o755)).unwrap();
        k.write_file(u, "/tmp/d/f", b"x", Mode(0o644)).unwrap();
        assert_eq!(k.sys_rmdir(u, "/tmp/d").unwrap_err(), Errno::ENOTEMPTY);
        k.sys_unlink(u, "/tmp/d/f").unwrap();
        k.sys_rmdir(u, "/tmp/d").unwrap();
        assert_eq!(k.sys_stat(u, "/tmp/d").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn search_permission_enforced() {
        let (k, r, u) = boot();
        k.vfs.mkdir_p("/secret").unwrap();
        let s = k.vfs.resolve(k.vfs.root(), "/secret").unwrap().ino;
        k.vfs.inode_mut(s).mode = Mode(0o700);
        k.write_file(r, "/secret/f", b"x", Mode(0o644)).unwrap();
        assert_eq!(k.read_file(u, "/secret/f").unwrap_err(), Errno::EACCES);
        assert!(k.read_file(r, "/secret/f").is_ok());
    }

    #[test]
    fn chdir_and_relative_paths() {
        let (k, _, u) = boot();
        k.sys_chdir(u, "/tmp").unwrap();
        k.write_file(u, "rel.txt", b"r", Mode(0o644)).unwrap();
        assert_eq!(k.read_file(u, "/tmp/rel.txt").unwrap(), b"r");
        assert_eq!(k.sys_chdir(u, "/etc/motd").unwrap_err(), Errno::ENOTDIR);
    }

    #[test]
    fn readdir_lists_entries() {
        let (k, _, u) = boot();
        k.write_file(u, "/tmp/a", b"", Mode(0o644)).unwrap();
        k.write_file(u, "/tmp/b", b"", Mode(0o644)).unwrap();
        let names = k.sys_readdir(u, "/tmp").unwrap();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn pipe_roundtrip() {
        let (k, _, u) = boot();
        let (r, w) = k.sys_pipe(u).unwrap();
        k.sys_write(u, w, b"through the pipe").unwrap();
        let mut buf = Vec::new();
        let n = k.sys_read(u, r, &mut buf, 1024).unwrap();
        assert_eq!(&buf[..n], b"through the pipe");
        // Empty with live writer -> EAGAIN; after close -> EOF.
        assert_eq!(k.sys_read(u, r, &mut buf, 1).unwrap_err(), Errno::EAGAIN);
        k.sys_close(u, w).unwrap();
        assert_eq!(k.sys_read(u, r, &mut buf, 1).unwrap(), 0);
    }

    #[test]
    fn write_to_closed_pipe_is_epipe() {
        let (k, _, u) = boot();
        let (r, w) = k.sys_pipe(u).unwrap();
        k.sys_close(u, r).unwrap();
        assert_eq!(k.sys_write(u, w, b"x").unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn proc_uptime_readable() {
        let (k, _, u) = boot();
        k.install_standard_devices().unwrap();
        let s = k.read_to_string(u, "/proc/uptime").unwrap();
        assert!(s.contains(".00"));
    }

    #[test]
    fn dev_null_swallows_writes() {
        let (k, _, u) = boot();
        k.install_standard_devices().unwrap();
        let fd = k.sys_open(u, "/dev/null", OpenFlags::write_only()).unwrap();
        assert_eq!(k.sys_write(u, fd, b"gone").unwrap(), 4);
    }
}
