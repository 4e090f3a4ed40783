//! Process system calls: fork, execve, exit, wait.
//!
//! `execve` is where the setuid *bit* acts (§3.1) and where Protego
//! resolves pending restricted transitions recorded at `setuid` time
//! (§4.3). The kernel performs the credential mathematics; running the new
//! program image is the caller's (userland runtime's) job.

use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{EnvPolicy, ExecCtx, ExecDecision};
use crate::task::{FdObject, Pid};
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway};
use crate::vfs::{Access, InodeData};

impl Kernel {
    /// `fork(2)`.
    pub fn sys_fork(&self, pid: Pid) -> KResult<Pid> {
        let parent = self.task(pid)?.clone();
        let child_pid = self.alloc_pid();
        let mut child = parent;
        child.pid = child_pid;
        child.ppid = pid;
        child.exit_status = None;
        // A pending setuid-on-exec is a property of the calling task, not
        // inheritable — otherwise a child could consume the delegation.
        child.pending_setuid = None;
        // Bump reference counts for duplicated descriptors.
        let mut open_inos = Vec::new();
        for fd in child.fds.iter().flatten() {
            match fd.object {
                FdObject::PipeRead(id) => self.pipes.dup_read(id),
                FdObject::PipeWrite(id) => self.pipes.dup_write(id),
                FdObject::File { ino, .. } => open_inos.push(ino),
                _ => {}
            }
        }
        for ino in open_inos {
            self.vfs.inc_open(ino);
        }
        self.insert_task(child);
        Ok(child_pid)
    }

    /// `execve(2)`. Returns the resolved absolute path of the new image.
    pub fn sys_execve(&self, pid: Pid, path: &str) -> KResult<String> {
        let r = self.walk(pid, path)?;
        {
            let inode = self.vfs.inode(r.ino);
            if inode.data.is_dir() {
                return Err(Errno::EISDIR);
            }
            if !matches!(inode.data, InodeData::Regular(_)) {
                return Err(Errno::EACCES);
            }
        }
        self.check_access(pid, r.ino, Access::EXEC)?;
        let abs = self.vfs.path_of(r.ino);

        // Mount flags covering the binary.
        let (nosuid, noexec) = self
            .vfs
            .mounts()
            .iter()
            .filter(|m| abs.starts_with(&format!("{}/", m.mountpoint)) || abs == m.mountpoint)
            .max_by_key(|m| m.mountpoint.len())
            .map(|m| (m.options.nosuid, m.options.noexec))
            .unwrap_or((false, false));
        if noexec {
            return Err(Errno::EACCES);
        }

        let (file_owner, file_group, setuid_bit, setgid_bit) = {
            let inode = self.vfs.inode(r.ino);
            (
                inode.uid,
                inode.gid,
                inode.mode.is_setuid() && !nosuid,
                inode.mode.is_setgid() && !nosuid,
            )
        };

        let pending = self.task_mut(pid)?.pending_setuid.take();

        let mut attempts = 0;
        let (decision, rule) = loop {
            // Scoped: the task guard must drop before the arms below
            // emit events or re-run authentication.
            let ctx = {
                let t = self.task(pid)?;
                ExecCtx {
                    cred: t.cred.clone(),
                    binary: abs.clone(),
                    file_owner,
                    file_group,
                    setuid_bit,
                    setgid_bit,
                    pending: pending.clone(),
                    last_auth: t.last_auth,
                    last_auth_scope: t.last_auth_scope,
                    now: self.clock(),
                }
            };
            let (hook_decision, rule) =
                self.lsm_hook(Pathway::LsmBprmCheck, |m| m.bprm_check(&ctx));
            match hook_decision {
                ExecDecision::NeedAuth(scope) => {
                    attempts += 1;
                    if attempts > 1 || !self.run_auth(pid, scope) {
                        let msg = format!("exec: auth failed for {}", abs);
                        self.emit_lsm_event(
                            pid,
                            "exec",
                            Hook::BprmCheck,
                            DecisionKind::Deny,
                            Some(Errno::EACCES),
                            rule,
                            AuditObject::Binary(abs.clone()),
                            msg,
                        );
                        return Err(Errno::EACCES);
                    }
                }
                other => break (other, rule),
            }
        };

        match decision {
            ExecDecision::UseDefault => {
                let mut t = self.task_mut(pid)?;
                if setuid_bit {
                    t.cred.apply_setuid_bit(file_owner);
                }
                if setgid_bit {
                    t.cred.apply_setgid_bit(file_group);
                }
            }
            ExecDecision::Transition { cred, env } => {
                let new_euid = cred.euid;
                {
                    // Scoped: drop the task write guard before emitting
                    // (the emit path re-reads the task table).
                    let mut t = self.task_mut(pid)?;
                    t.cred = cred;
                    match env {
                        EnvPolicy::KeepAll => {}
                        EnvPolicy::ClearExcept(keep) => {
                            t.env.retain(|(k, _)| {
                                k == "PATH" || k == "TERM" || keep.iter().any(|x| x == k)
                            });
                        }
                    }
                }
                let msg = format!("exec: lsm transition {} -> euid {}", abs, new_euid);
                self.emit_lsm_event(
                    pid,
                    "execve",
                    Hook::BprmCheck,
                    DecisionKind::Allow,
                    None,
                    rule,
                    AuditObject::Binary(abs.clone()),
                    msg,
                );
            }
            ExecDecision::Deny(e) => {
                let msg = format!("exec: lsm denied {} ({})", abs, e.name());
                self.emit_lsm_event(
                    pid,
                    "execve",
                    Hook::BprmCheck,
                    DecisionKind::Deny,
                    Some(e),
                    rule,
                    AuditObject::Binary(abs.clone()),
                    msg,
                );
                return Err(e);
            }
            ExecDecision::NeedAuth(_) => unreachable!("resolved above"),
        }

        // Close-on-exec descriptors.
        let mut to_close = Vec::new();
        {
            let mut t = self.task_mut(pid)?;
            for (i, slot) in t.fds.iter_mut().enumerate() {
                if slot.as_ref().map(|f| f.cloexec).unwrap_or(false) {
                    if let Some(fd) = slot.take() {
                        to_close.push((i, fd));
                    }
                }
            }
        }
        for (_, fd) in to_close {
            self.release_fd_object(fd.object);
        }

        self.task_mut(pid)?.binary = abs.clone();
        // The task's image changed: drop its cached seccomp profile
        // selection so the next dispatched call re-selects by the new
        // binary (§15 exec re-selection).
        self.seccomp.forget_pid(pid);
        let msg = format!("exec: pid {} -> {}", pid.0, abs);
        self.emit_kernel_event(
            pid,
            "execve",
            Hook::BprmCheck,
            DecisionKind::Info,
            None,
            AuditObject::Binary(abs.clone()),
            msg,
        );
        Ok(abs)
    }

    /// `unshare(2)` — namespace creation (§4.6).
    ///
    /// Pre-3.8 semantics: every namespace kind requires CAP_SYS_ADMIN.
    /// With [`crate::kernel::Kernel::unprivileged_userns`] set (>= 3.8),
    /// anyone may create a *user* namespace, and a task inside one may
    /// unshare the other kinds — the change that deprivileged
    /// chromium-sandbox without any Protego mechanism.
    pub fn sys_unshare(&self, pid: Pid, kind: crate::task::NsKind) -> KResult<()> {
        use crate::caps::Cap;
        use crate::task::NsKind;
        let privileged = self.capable(pid, Cap::SysAdmin);
        let allowed = match kind {
            NsKind::User => privileged || self.unprivileged_userns,
            _ => {
                privileged
                    || (self.unprivileged_userns && self.task(pid)?.in_namespace(NsKind::User))
            }
        };
        if !allowed {
            return Err(Errno::EPERM);
        }
        let mut t = self.task_mut(pid)?;
        if !t.namespaces.contains(&kind) {
            t.namespaces.push(kind);
        }
        Ok(())
    }

    /// `exit(2)`.
    pub fn sys_exit(&self, pid: Pid, status: i32) -> KResult<()> {
        let fds: Vec<_> = {
            let mut t = self.task_mut(pid)?;
            t.exit_status = Some(status);
            t.fds.iter_mut().filter_map(|f| f.take()).collect()
        };
        for fd in fds {
            self.release_fd_object(fd.object);
        }
        Ok(())
    }

    /// `waitpid(2)` — reaps an exited child and returns its status.
    pub fn sys_wait(&self, pid: Pid, child: Pid) -> KResult<i32> {
        // Scoped: the read guard must drop before `reap` write-locks the
        // same shard.
        let status = {
            let c = self.task(child)?;
            if c.ppid != pid {
                return Err(Errno::ESRCH);
            }
            c.exit_status.ok_or(Errno::EAGAIN)?
        };
        self.reap(child)?;
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;
    use crate::syscall::OpenFlags;
    use crate::vfs::Mode;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        k.vfs
            .install_file("/bin/sh", b"#!sim", Mode(0o755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file("/bin/passwd", b"#!sim", Mode(0o4755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file("/opt/private", b"#!sim", Mode(0o700), Uid::ROOT, Gid::ROOT)
            .unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        (k, root, user)
    }

    #[test]
    fn fork_copies_credentials() {
        let (k, _, user) = boot();
        let child = k.sys_fork(user).unwrap();
        assert_ne!(child, user);
        assert_eq!(k.task(child).unwrap().cred, k.task(user).unwrap().cred);
        assert_eq!(k.task(child).unwrap().ppid, user);
    }

    #[test]
    fn exec_plain_binary_keeps_cred() {
        let (k, _, user) = boot();
        let abs = k.sys_execve(user, "/bin/sh").unwrap();
        assert_eq!(abs, "/bin/sh");
        assert_eq!(k.task(user).unwrap().cred.euid, Uid(1000));
    }

    #[test]
    fn exec_setuid_root_binary_raises_euid() {
        let (k, _, user) = boot();
        k.sys_execve(user, "/bin/passwd").unwrap();
        let t = k.task(user).unwrap();
        let c = &t.cred;
        assert_eq!(c.ruid, Uid(1000));
        assert_eq!(c.euid, Uid::ROOT);
        assert!(c.has_cap(crate::caps::Cap::SysAdmin));
    }

    #[test]
    fn exec_requires_x_permission() {
        let (k, _, user) = boot();
        assert_eq!(
            k.sys_execve(user, "/opt/private").unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn exec_missing_is_enoent() {
        let (k, _, user) = boot();
        assert_eq!(k.sys_execve(user, "/bin/nope").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn nosuid_mount_suppresses_setuid_bit() {
        let (k, root, user) = boot();
        k.install_standard_devices().unwrap();
        k.vfs.mkdir_p("/mnt/usb").unwrap();
        k.sys_mount(root, "/dev/sdb1", "/mnt/usb", "vfat", "nosuid")
            .unwrap();
        // Drop a setuid-root binary onto the removable media.
        k.write_file(root, "/mnt/usb/evil", b"#!sim", Mode(0o755))
            .unwrap();
        k.sys_chmod(root, "/mnt/usb/evil", Mode(0o4755)).unwrap();
        k.sys_execve(user, "/mnt/usb/evil").unwrap();
        assert_eq!(k.task(user).unwrap().cred.euid, Uid(1000));
    }

    #[test]
    fn cloexec_fds_closed_on_exec() {
        let (k, _, user) = boot();
        k.vfs.mkdir_p("/tmp").unwrap();
        let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
        k.vfs.inode_mut(t).mode = Mode(0o1777);
        k.write_file(user, "/tmp/f", b"x", Mode(0o644)).unwrap();
        let mut fl = OpenFlags::read_only();
        fl.cloexec = true;
        let fd_c = k.sys_open(user, "/tmp/f", fl).unwrap();
        let fd_k = k.sys_open(user, "/tmp/f", OpenFlags::read_only()).unwrap();
        k.sys_execve(user, "/bin/sh").unwrap();
        assert!(k.task(user).unwrap().fd(fd_c).is_err());
        assert!(k.task(user).unwrap().fd(fd_k).is_ok());
    }

    #[test]
    fn exit_and_wait() {
        let (k, _, user) = boot();
        let child = k.sys_fork(user).unwrap();
        assert_eq!(k.sys_wait(user, child).unwrap_err(), Errno::EAGAIN);
        k.sys_exit(child, 7).unwrap();
        assert_eq!(k.sys_wait(user, child).unwrap(), 7);
        assert_eq!(k.task(child).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn wait_on_non_child_is_esrch() {
        let (k, root, user) = boot();
        let child = k.sys_fork(user).unwrap();
        k.sys_exit(child, 0).unwrap();
        assert_eq!(k.sys_wait(root, child).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn fork_bumps_pipe_refcounts() {
        let (k, _, user) = boot();
        let (r, w) = k.sys_pipe(user).unwrap();
        let child = k.sys_fork(user).unwrap();
        // Parent closes both ends; child's copies keep the pipe alive.
        k.sys_close(user, r).unwrap();
        k.sys_close(user, w).unwrap();
        k.sys_write(child, w, b"alive").unwrap();
        let mut buf = Vec::new();
        assert_eq!(k.sys_read(child, r, &mut buf, 16).unwrap(), 5);
    }
}
