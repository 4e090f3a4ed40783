//! Filesystem system calls: open, read, write, stat, directory and
//! metadata operations.

use crate::caps::Cap;
use crate::cred::{Credentials, Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::{Kernel, Site};
use crate::lsm::{FileOpenCtx, SecurityModule};
use crate::syscall::abi::Whence;
use crate::task::{Fd, FdObject, Pid, Task};
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway, Provenance};
use crate::vfs::{
    AbsPath, Access, Attrs, DirChain, Ino, InodeData, Mode, Name, ProcHook, Resolved, PATH_MAX,
};

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
    pub(crate) fn check_access(&self, pid: Pid, ino: Ino, want: Access) -> KResult<()> {
        // Bind the snapshot first: the task-shard read guard must drop
        // before a DAC denial re-enters the task table through `capable`.
        let cred = self.task(pid)?.cred.clone();
        self.check_access_as(pid, &cred, self.vfs.attrs(ino), want)
    }

    /// [`Kernel::check_access`] on an inode's attributes, read once,
    /// against a credential snapshot taken once for a whole walk.
    /// Capabilities are consulted only when DAC denies, exactly as a fresh
    /// check would.
    pub(crate) fn check_access_as(
        &self,
        pid: Pid,
        cred: &Credentials,
        attrs: Attrs,
        want: Access,
    ) -> KResult<()> {
        if attrs.dac_allows(cred.fsuid, |g| cred.in_group(g), want) {
            return Ok(());
        }
        // CAP_DAC_READ_SEARCH covers read and directory search.
        let read_or_search = !want.wants_write() && (!want.wants_exec() || attrs.is_dir);
        if read_or_search && self.capable(pid, Cap::DacReadSearch) {
            return Ok(());
        }
        // CAP_DAC_OVERRIDE covers everything except exec of a file with no
        // exec bits at all.
        let exec_plain_file = want.wants_exec() && !attrs.is_dir && attrs.mode.bits() & 0o111 == 0;
        if !exec_plain_file && self.capable(pid, Cap::DacOverride) {
            return Ok(());
        }
        Err(Errno::EACCES)
    }

    /// Checks search permission on every directory a walk traversed, with
    /// one credential snapshot, and returns the snapshot for any further
    /// check.
    fn check_search(&self, pid: Pid, dirs: &DirChain) -> KResult<Credentials> {
        let cred = self.task(pid)?.cred.clone();
        for dir in dirs.iter() {
            self.check_access_as(pid, &cred, self.vfs.attrs(dir), Access::EXEC)?;
        }
        Ok(cred)
    }

    /// The checks before a name is added to or removed from `parent`:
    /// search on every directory its walk traversed, then write and
    /// search on the directory itself.
    fn check_parent(&self, pid: Pid, parent: &Resolved) -> KResult<()> {
        let cred = self.check_search(pid, &parent.dirs)?;
        let want = Access::WRITE.and(Access::EXEC);
        self.check_access_as(pid, &cred, self.vfs.attrs(parent.ino), want)
    }

    /// Resolves a path for task `pid`, checking search permission on every
    /// traversed directory.
    pub(crate) fn walk(&self, pid: Pid, path: &str) -> KResult<Resolved> {
        let cwd = self.task(pid)?.cwd;
        let r = self.vfs.resolve(cwd, path)?;
        self.check_search(pid, &r.dirs)?;
        Ok(r)
    }

    /// [`Kernel::walk`], also returning the canonical path of the inode
    /// found (see [`Vfs::resolve_canonical`]): the path the LSM hooks of
    /// `open` and `execve` decide on.
    pub(crate) fn walk_canonical(&self, pid: Pid, path: &str) -> KResult<(Resolved, AbsPath)> {
        let cwd = self.task(pid)?.cwd;
        let (r, abs) = self.vfs.resolve_canonical(cwd, path)?;
        self.check_search(pid, &r.dirs)?;
        Ok((r, abs))
    }

    /// Resolves the parent directory of `path` for task `pid` and runs
    /// [`Kernel::check_parent`] on it: the walk of every call that adds or
    /// removes a name. Returns the parent and the last name.
    fn walk_parent<'p>(&self, pid: Pid, path: &'p str) -> KResult<(Resolved, &'p str)> {
        let cwd = self.task(pid)?.cwd;
        let (parent, name) = self.vfs.resolve_parent(cwd, path)?;
        self.check_parent(pid, &parent)?;
        Ok((parent, name))
    }

    // ------------------------------------------------------------------
    // open / close
    // ------------------------------------------------------------------

    /// `open(2)`.
    ///
    /// The walk's inode is pinned (see [`crate::vfs::Vfs::pin`]) before
    /// it is checked, so a rename or unlink racing the open cannot free it
    /// under the checks; an inode unbound since the walk is walked again.
    /// After DAC evaluation the LSM `file_open` hook runs; it may deny an
    /// access DAC would grant (AppArmor confinement), grant one DAC would
    /// refuse (Protego's binary-identity rules for ssh-keysign), demand
    /// re-authentication (Protego's shadow files), or force close-on-exec.
    pub fn sys_open(&self, pid: Pid, path: &str, flags: OpenFlags) -> KResult<i32> {
        let (ino, attrs, abs) = loop {
            let in_parent = if flags.create {
                self.open_create_in_parent(pid, path, flags)?
            } else {
                None
            };
            let (r, abs) = match in_parent {
                Some(found) => found,
                None => self.open_walk(pid, path, flags)?,
            };
            if let Some(attrs) = self.vfs.pin(&r) {
                break (r.ino, attrs, abs);
            }
        };
        match self.open_pinned(pid, ino, attrs, abs, flags) {
            Ok(fd) => self.install_fd(pid, fd),
            Err(e) => {
                self.vfs.dec_open(ino);
                Err(e)
            }
        }
    }

    /// The checks of `open(2)` on the pinned inode `ino`, on the
    /// attributes its pin read, and the descriptor they allow.
    fn open_pinned(
        &self,
        pid: Pid,
        ino: Ino,
        attrs: Attrs,
        abs: AbsPath,
        flags: OpenFlags,
    ) -> KResult<Fd> {
        let want = flags.access();
        if attrs.is_dir && want.wants_write() {
            return Err(Errno::EISDIR);
        }

        // DAC on the final object.
        let cred = self.task(pid)?.cred.clone();
        let dac = self.check_access_as(pid, &cred, attrs, want);
        let dac_ok = dac.is_ok();

        // LSM file-open hook. Its context borrows the walk's canonical
        // path together with the task's credentials, so the steady-state
        // approve path (UseDefault with DAC ok) allocates nothing.
        let file_owner = attrs.uid;
        let canonical = abs.as_str();
        let hook = |t: &Task, m: &dyn SecurityModule| {
            m.file_open(&FileOpenCtx {
                cred: &t.cred,
                path: canonical,
                binary: t.binary.as_str(),
                access: want,
                dac_allows: dac_ok,
                file_owner,
                auth: t.auth,
                now: self.clock(),
            })
        };
        let object = || AuditObject::Path(canonical.to_string());
        let force_cloexec = match self.decide(pid, Site::OPEN, object, hook, Ok)? {
            Some(cloexec) => cloexec,
            None => {
                dac?;
                false
            }
        };

        if flags.truncate && attrs.is_file {
            self.vfs.write_all(ino, b"")?;
        }

        Ok(Fd {
            object: FdObject::File {
                ino,
                offset: 0,
                readable: flags.read,
                writable: flags.write || flags.append || flags.truncate,
                append: flags.append,
                path: abs.name(),
            },
            cloexec: flags.cloexec || force_cloexec,
        })
    }

    /// `O_CREAT` in one walk: resolves the parent (a dcache hit in steady
    /// state, since creates and renames inside a directory leave its own
    /// resolution cached) and looks up the last name in it. An absent name
    /// is created; a regular file reuses the parent's walk, whose
    /// directories plus the parent are exactly the full walk's. Every other
    /// case, and every error of the parent walk, returns `None` for
    /// [`Kernel::open_walk`], so each case keeps the full walk's errno and
    /// check order.
    fn open_create_in_parent(
        &self,
        pid: Pid,
        path: &str,
        flags: OpenFlags,
    ) -> KResult<Option<(Resolved, AbsPath)>> {
        if path.len() > PATH_MAX {
            return Ok(None);
        }
        let cwd = self.task(pid)?.cwd;
        let Ok((parent, name)) = self.vfs.resolve_parent(cwd, path) else {
            return Ok(None);
        };
        match self.vfs.dir_lookup(parent.ino, name) {
            Ok(None) => {
                self.check_parent(pid, &parent)?;
                let ino = self.create_in(pid, parent.ino, name, flags.mode)?;
                Ok(Some(self.found_in(parent, name, ino)))
            }
            Ok(Some(ino)) if matches!(self.vfs.inode(ino).data, InodeData::Regular(_)) => {
                let found = self.found_in(parent, name, ino);
                self.check_search(pid, &found.0.dirs)?;
                if flags.excl {
                    return Err(Errno::EEXIST);
                }
                Ok(Some(found))
            }
            _ => Ok(None),
        }
    }

    /// The full walk of `open(2)`: resolves the whole path, and with
    /// `O_CREAT` creates a missing last name in its parent. Returns the
    /// resolution with its canonical path.
    fn open_walk(&self, pid: Pid, path: &str, flags: OpenFlags) -> KResult<(Resolved, AbsPath)> {
        match self.walk_canonical(pid, path) {
            Ok(_) if flags.create && flags.excl => Err(Errno::EEXIST),
            Ok(found) => Ok(found),
            Err(Errno::ENOENT) if flags.create => {
                let (parent, name) = self.walk_parent(pid, path)?;
                let ino = self.create_in(pid, parent.ino, name, flags.mode)?;
                Ok(self.found_in(parent, name, ino))
            }
            Err(e) => Err(e),
        }
    }

    /// The resolution of `ino`, found or created under `name` in the
    /// walked directory `parent`, with its canonical path.
    fn found_in(&self, mut parent: Resolved, name: &str, ino: Ino) -> (Resolved, AbsPath) {
        parent.dirs.push(parent.ino);
        let bound = Name::lookup(name).map(|n| (parent.ino, n));
        let found = Resolved {
            ino,
            dirs: parent.dirs,
            bound,
        };
        (found, self.vfs.abs_path(ino))
    }

    /// Creates `name` in the checked directory `parent` as a regular file
    /// owned by the caller; `EEXIST` if the name appeared meanwhile.
    fn create_in(&self, pid: Pid, parent: Ino, name: &str, mode: Mode) -> KResult<Ino> {
        let (fsuid, egid) = {
            let t = self.task(pid)?;
            (t.cred.fsuid, t.cred.egid)
        };
        let ino = self
            .vfs
            .create_file(parent, name, mode, fsuid, egid, true)?;
        self.vfs.touch(ino);
        Ok(ino)
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

    /// Installs `fd` in the lowest free slot of `pid`'s table. When that
    /// fails (`EMFILE`, or `ESRCH` for a vanished task) the object is
    /// released, so a failed call leaks no socket, pipe end or open count.
    pub(crate) fn install_fd(&self, pid: Pid, fd: Fd) -> KResult<i32> {
        let object = fd.object.clone();
        let installed = self.task_mut(pid).and_then(|mut t| t.fd_install(fd));
        if installed.is_err() {
            self.release_fd_object(object);
        }
        installed
    }

    /// Installs two descriptors under one task guard (`pipe`,
    /// `socketpair`): both or neither. On failure both objects are
    /// released.
    pub(crate) fn install_fd_pair(
        &self,
        pid: Pid,
        a: FdObject,
        b: FdObject,
    ) -> KResult<(i32, i32)> {
        let installed = self.task_mut(pid).and_then(|mut t| {
            let fa = t.fd_install(Fd {
                object: a.clone(),
                cloexec: false,
            })?;
            match t.fd_install(Fd {
                object: b.clone(),
                cloexec: false,
            }) {
                Ok(fb) => Ok((fa, fb)),
                Err(e) => {
                    let _ = t.fd_take(fa);
                    Err(e)
                }
            }
        });
        if installed.is_err() {
            self.release_fd_object(a);
            self.release_fd_object(b);
        }
        installed
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
                    self.vfs.write_at(ino, offset, data)?;
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
                let object = || AuditObject::Config(name.to_string());
                let root = self.task(pid)?.cred.euid.is_root();
                self.stock(pid, Site::CONFIG, root, object)?;
                let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
                self.lsm_config_write(name, &content)?;
                let info = Provenance::kernel(Hook::LsmConfig, DecisionKind::Info, None);
                self.emit_event(pid.0, "write", object(), info);
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
        let root = self.task(pid)?.cred.euid.is_root();
        self.stock(pid, Site::CONFIG, root, || {
            AuditObject::Config(node.to_string())
        })?;
        let content = String::from_utf8(data.to_vec()).map_err(|_| Errno::EINVAL)?;
        match hook {
            ProcHook::SeccompProfiles => {
                let specs = crate::seccomp::Seccomp::parse_profiles_text(&content)
                    .map_err(|_| Errno::EINVAL)?;
                self.seccomp
                    .load_profiles(&specs)
                    .map_err(|_| Errno::EINVAL)?;
            }
            ProcHook::SeccompStatus => {
                let mode = crate::seccomp::SeccompMode::parse(&content).ok_or(Errno::EINVAL)?;
                self.seccomp.set_mode(mode);
            }
            _ => {
                if content.trim() != "clear" {
                    return Err(Errno::EINVAL);
                }
                self.seccomp.clear_violations();
            }
        }
        let info = Provenance::kernel(Hook::LsmConfig, DecisionKind::Info, None);
        self.emit_event(pid.0, "write", AuditObject::Config(node.to_string()), info);
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
        // No dcache invalidation: a walk reads no mode bits, and
        // `check_access` reads the live inode.
        self.vfs.touch(r.ino);
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
        Ok(())
    }

    /// `mkdir(2)`.
    pub fn sys_mkdir(&self, pid: Pid, path: &str, mode: Mode) -> KResult<()> {
        let (parent, name) = self.walk_parent(pid, path)?;
        let cred = self.task(pid)?.cred.clone();
        self.vfs
            .mkdir(parent.ino, name, mode, cred.fsuid, cred.egid)?;
        Ok(())
    }

    /// `unlink(2)`.
    pub fn sys_unlink(&self, pid: Pid, path: &str) -> KResult<()> {
        let (parent, name) = self.walk_parent(pid, path)?;
        self.vfs.unlink(parent.ino, name)
    }

    /// `rmdir(2)`.
    pub fn sys_rmdir(&self, pid: Pid, path: &str) -> KResult<()> {
        let (parent, name) = self.walk_parent(pid, path)?;
        self.vfs.rmdir(parent.ino, name)
    }

    /// `rename(2)` — both parents need write+search permission.
    pub fn sys_rename(&self, pid: Pid, from: &str, to: &str) -> KResult<()> {
        let (from_parent, from_name) = self.walk_parent(pid, from)?;
        let (to_parent, to_name) = self.walk_parent(pid, to)?;
        self.vfs
            .rename(from_parent.ino, from_name, to_parent.ino, to_name)
    }

    /// `symlink(2)`.
    pub fn sys_symlink(&self, pid: Pid, target: &str, linkpath: &str) -> KResult<()> {
        let (parent, name) = self.walk_parent(pid, linkpath)?;
        let cred = self.task(pid)?.cred.clone();
        self.vfs
            .symlink(parent.ino, name, target, cred.fsuid, cred.egid)?;
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
        self.vfs.dir_names(r.ino)
    }

    /// `pipe(2)` — returns (read fd, write fd).
    pub fn sys_pipe(&self, pid: Pid) -> KResult<(i32, i32)> {
        let id = self.pipes.alloc();
        self.install_fd_pair(pid, FdObject::PipeRead(id), FdObject::PipeWrite(id))
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
    fn symlink_checks_search_on_the_parents_ancestors_like_mkdir() {
        let (k, _, u) = boot();
        k.vfs.mkdir_p("/locked/open").unwrap();
        let locked = k.vfs.resolve(k.vfs.root(), "/locked").unwrap().ino;
        let open = k.vfs.resolve(k.vfs.root(), "/locked/open").unwrap().ino;
        k.vfs.inode_mut(locked).mode = Mode(0o700);
        k.vfs.inode_mut(open).mode = Mode(0o777);
        assert_eq!(
            k.sys_mkdir(u, "/locked/open/d", Mode(0o755)),
            Err(Errno::EACCES)
        );
        assert_eq!(
            k.sys_symlink(u, "/etc/motd", "/locked/open/l"),
            Err(Errno::EACCES)
        );
        // Search permission on the ancestor is all either call lacked.
        k.vfs.inode_mut(locked).mode = Mode(0o711);
        k.sys_mkdir(u, "/locked/open/d", Mode(0o755)).unwrap();
        k.sys_symlink(u, "/etc/motd", "/locked/open/l").unwrap();
        assert_eq!(k.read_file(u, "/locked/open/l").unwrap(), b"hello\n");
    }

    /// Two tasks on two threads overwrite the two halves of one file
    /// through their own descriptors, each byte once. A positional write
    /// resizes and copies under one inode guard, so every write survives;
    /// a read-copy-write of the whole file would put back the other
    /// half's bytes as they were before its overlapping write.
    #[test]
    fn concurrent_positional_writes_to_disjoint_offsets_all_survive() {
        const HALF: usize = 4096;
        let (k, _, u) = boot();
        let v = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        k.write_file(u, "/tmp/shared", &[0; 2 * HALF], Mode(0o666))
            .unwrap();
        let k = crate::kernel::SharedKernel::new(k);
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = [u, v]
            .into_iter()
            .enumerate()
            .map(|(t, pid)| {
                let (k, start) = (k.clone(), start.clone());
                std::thread::spawn(move || {
                    let fd = k
                        .sys_open(pid, "/tmp/shared", OpenFlags::write_only())
                        .unwrap();
                    start.wait();
                    for i in 0..HALF {
                        k.sys_lseek(pid, fd, (t * HALF + i) as i64, Whence::Set)
                            .unwrap();
                        k.sys_write(pid, fd, &[1 + t as u8]).unwrap();
                    }
                    k.sys_close(pid, fd).unwrap();
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let data = k.read_file(u, "/tmp/shared").unwrap();
        assert_eq!(data.len(), 2 * HALF);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(b, 1 + (i / HALF) as u8, "write at offset {i} lost");
        }
    }

    /// One thread makes DAC-denied opens, each of which consults
    /// `capable` and so takes the task's shard read lock; another keeps
    /// write-locking the same shard through `lseek` on the same task. A
    /// read guard held across the `capable` relock would block behind the
    /// waiting writer, and the writer behind it, forever.
    #[test]
    fn a_dac_denial_reaching_capable_holds_no_task_guard() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};
        const OPENS: usize = 500_000;
        let (k, _, u) = boot();
        let fd = k.sys_open(u, "/etc/motd", OpenFlags::read_only()).unwrap();
        let k = crate::kernel::SharedKernel::new(k);
        let stop = Arc::new(AtomicBool::new(false));
        let (done, finished) = mpsc::channel();
        let denier = {
            let (k, stop) = (k.clone(), stop.clone());
            std::thread::spawn(move || {
                for _ in 0..OPENS {
                    let denied = k.sys_open(u, "/etc/shadow", OpenFlags::read_only());
                    assert_eq!(denied, Err(Errno::EACCES));
                }
                stop.store(true, Ordering::Relaxed);
                done.send(()).unwrap();
            })
        };
        let seeker = {
            let k = k.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    k.sys_lseek(u, fd, 0, Whence::Set).unwrap();
                }
            })
        };
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert!(outcome.is_ok(), "denied opens deadlocked against lseek");
        denier.join().unwrap();
        seeker.join().unwrap();
    }

    #[test]
    fn positional_write_past_the_end_zero_fills_the_hole() {
        let (k, _, u) = boot();
        k.write_file(u, "/tmp/holey", b"ab", Mode(0o600)).unwrap();
        let fd = k
            .sys_open(u, "/tmp/holey", OpenFlags::write_only())
            .unwrap();
        k.sys_lseek(u, fd, 4, Whence::Set).unwrap();
        k.sys_write(u, fd, b"xy").unwrap();
        k.sys_lseek(u, fd, 1, Whence::Set).unwrap();
        k.sys_write(u, fd, b"B").unwrap();
        assert_eq!(k.read_file(u, "/tmp/holey").unwrap(), b"aB\0\0xy");
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
