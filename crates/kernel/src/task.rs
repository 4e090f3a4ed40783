//! Tasks (processes) and file-descriptor tables.

use crate::cred::Credentials;
use crate::error::{Errno, KResult};
use crate::lsm::{AuthScope, PendingSetuid};
use crate::net::SockId;
use crate::vfs::{Ino, Name};
use std::collections::VecDeque;

/// A process identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pid(pub u32);

/// A cheap, `Copy` snapshot of the calling task's identity — everything an
/// interceptor may need to attribute a dispatched call without touching the
/// task table itself. [`crate::kernel::Kernel::dispatch`] takes exactly one
/// snapshot per dispatched call (a single task-shard read) and hands the
/// same value to every hook via
/// [`SysCtx`](crate::syscall::SysCtx); the binary path is carried as an
/// interned [`Name`] so copying the snapshot moves four words and no heap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskIdentity {
    /// The dispatching process.
    pub pid: Pid,
    /// Real uid at dispatch time.
    pub uid: crate::cred::Uid,
    /// Effective uid at dispatch time.
    pub euid: crate::cred::Uid,
    /// Interned absolute path of the binary image the task is executing
    /// (re-resolved across `execve`, so a profile keyed on it follows the
    /// image, not the pid). [`TaskIdentity::UNKNOWN_BINARY`] when the pid
    /// has no live task.
    pub binary: Name,
    /// Whether the pid mapped to a live task when the snapshot was taken.
    /// Dead or never-born pids still dispatch (the entry point returns
    /// `ESRCH`), so interceptors must not assume liveness.
    pub alive: bool,
}

impl TaskIdentity {
    /// Binary-path placeholder used when the pid has no live task.
    pub const UNKNOWN_BINARY: &'static str = "[unknown]";

    /// The snapshot for a pid with no live task: overflow uids, the
    /// [`TaskIdentity::UNKNOWN_BINARY`] placeholder, `alive == false`.
    pub fn unknown(pid: Pid) -> TaskIdentity {
        TaskIdentity {
            pid,
            uid: crate::cred::Uid(u32::MAX),
            euid: crate::cred::Uid(u32::MAX),
            binary: Name::intern(TaskIdentity::UNKNOWN_BINARY),
            alive: false,
        }
    }

    /// Snapshots a live task.
    pub fn of(task: &Task) -> TaskIdentity {
        TaskIdentity {
            pid: task.pid,
            uid: task.cred.ruid,
            euid: task.cred.euid,
            binary: Name::intern(&task.binary),
            alive: true,
        }
    }
}

/// A pipe identity (index into the kernel pipe arena).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PipeId(pub usize);

/// What an open file descriptor refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FdObject {
    /// An open VFS file.
    File {
        /// Backing inode.
        ino: Ino,
        /// Current offset.
        offset: usize,
        /// Opened for reading.
        readable: bool,
        /// Opened for writing.
        writable: bool,
        /// Append mode.
        append: bool,
        /// Resolved path at open time, interned (for diagnostics and
        /// policy audit); keeps every field `Copy` so cloning the fd on
        /// each read/write touches no heap.
        path: Name,
    },
    /// A socket.
    Socket(SockId),
    /// The read end of a pipe.
    PipeRead(PipeId),
    /// The write end of a pipe.
    PipeWrite(PipeId),
}

/// A file-descriptor table slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fd {
    /// The referenced object.
    pub object: FdObject,
    /// Close-on-exec flag.
    pub cloexec: bool,
}

/// Maximum file descriptors per task (like RLIMIT_NOFILE).
pub const MAX_FDS: usize = 1024;

/// Namespace kinds a task can unshare (§4.6: sandboxing with restricted
/// namespaces, Linux 2.6.23+; unprivileged creation from 3.8).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NsKind {
    /// CLONE_NEWUSER.
    User,
    /// CLONE_NEWNS.
    Mount,
    /// CLONE_NEWNET.
    Net,
    /// CLONE_NEWPID.
    Pid,
}

/// A simulated process.
#[derive(Clone, Debug)]
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Credential state.
    pub cred: Credentials,
    /// Current working directory inode.
    pub cwd: Ino,
    /// Open file descriptors.
    pub fds: Vec<Option<Fd>>,
    /// Path of the binary image the task is executing.
    pub binary: String,
    /// Environment variables.
    pub env: Vec<(String, String)>,
    /// Logical time of the task's last successful authentication — the
    /// kernel-tracked recency Protego stores in `task_struct` (§4.3).
    pub last_auth: Option<u64>,
    /// Which principal that authentication proved (self, another user, a
    /// group) — so su-style target authentication is not confused with
    /// sudo-style invoker authentication.
    pub last_auth_scope: Option<AuthScope>,
    /// A restricted uid transition awaiting `exec` (§4.3).
    pub pending_setuid: Option<PendingSetuid>,
    /// Simulated terminal input (password attempts queued by the user).
    pub terminal_input: VecDeque<String>,
    /// Namespaces this task has unshared.
    pub namespaces: Vec<NsKind>,
    /// Exit status once the task has exited.
    pub exit_status: Option<i32>,
}

impl Task {
    /// Creates a task with empty tables.
    pub fn new(pid: Pid, ppid: Pid, cred: Credentials, cwd: Ino, binary: &str) -> Task {
        Task {
            pid,
            ppid,
            cred,
            cwd,
            fds: Vec::new(),
            binary: binary.to_string(),
            env: Vec::new(),
            last_auth: None,
            last_auth_scope: None,
            pending_setuid: None,
            terminal_input: VecDeque::new(),
            namespaces: Vec::new(),
            exit_status: None,
        }
    }

    /// Whether the task is inside a namespace of the given kind.
    pub fn in_namespace(&self, kind: NsKind) -> bool {
        self.namespaces.contains(&kind)
    }

    /// Installs `fd` in the lowest free slot, returning its number.
    pub fn fd_install(&mut self, fd: Fd) -> KResult<i32> {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(fd);
                return Ok(i as i32);
            }
        }
        if self.fds.len() >= MAX_FDS {
            return Err(Errno::EMFILE);
        }
        self.fds.push(Some(fd));
        Ok((self.fds.len() - 1) as i32)
    }

    /// Immutable fd lookup.
    pub fn fd(&self, n: i32) -> KResult<&Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get(n as usize)
            .and_then(|f| f.as_ref())
            .ok_or(Errno::EBADF)
    }

    /// Mutable fd lookup.
    pub fn fd_mut(&mut self, n: i32) -> KResult<&mut Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get_mut(n as usize)
            .and_then(|f| f.as_mut())
            .ok_or(Errno::EBADF)
    }

    /// Removes and returns an fd.
    pub fn fd_take(&mut self, n: i32) -> KResult<Fd> {
        if n < 0 {
            return Err(Errno::EBADF);
        }
        self.fds
            .get_mut(n as usize)
            .and_then(|f| f.take())
            .ok_or(Errno::EBADF)
    }

    /// Environment lookup.
    pub fn getenv(&self, key: &str) -> Option<&str> {
        self.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) an environment variable.
    pub fn setenv(&mut self, key: &str, value: &str) {
        if let Some(kv) = self.env.iter_mut().find(|(k, _)| k == key) {
            kv.1 = value.to_string();
        } else {
            self.env.push((key.to_string(), value.to_string()));
        }
    }

    /// Queues a line of terminal input (e.g. a password the user types).
    pub fn type_input(&mut self, line: &str) {
        self.terminal_input.push_back(line.to_string());
    }

    /// Whether the task authenticated within `window` of logical time
    /// `now` — sudo's 5-minute recency check, kernelized.
    pub fn recently_authenticated(&self, now: u64, window: u64) -> bool {
        match self.last_auth {
            Some(t) => now.saturating_sub(t) <= window,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Gid, Uid};

    fn task() -> Task {
        Task::new(
            Pid(2),
            Pid(1),
            Credentials::user(Uid(1000), Gid(1000)),
            Ino(0),
            "/bin/sh",
        )
    }

    #[test]
    fn fd_install_reuses_lowest_slot() {
        let mut t = task();
        let fd = Fd {
            object: FdObject::PipeRead(PipeId(0)),
            cloexec: false,
        };
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 0);
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 1);
        assert_eq!(t.fd_install(fd.clone()).unwrap(), 2);
        t.fd_take(1).unwrap();
        assert_eq!(t.fd_install(fd).unwrap(), 1);
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let mut t = task();
        assert_eq!(t.fd(0).unwrap_err(), Errno::EBADF);
        assert_eq!(t.fd(-1).unwrap_err(), Errno::EBADF);
        assert_eq!(t.fd_take(7).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn env_roundtrip() {
        let mut t = task();
        t.setenv("PATH", "/bin");
        t.setenv("LD_PRELOAD", "/tmp/evil.so");
        t.setenv("PATH", "/usr/bin:/bin");
        assert_eq!(t.getenv("PATH"), Some("/usr/bin:/bin"));
        assert_eq!(t.getenv("LD_PRELOAD"), Some("/tmp/evil.so"));
        assert_eq!(t.getenv("HOME"), None);
    }

    #[test]
    fn auth_recency_window() {
        let mut t = task();
        assert!(!t.recently_authenticated(1000, 300));
        t.last_auth = Some(900);
        assert!(t.recently_authenticated(1000, 300));
        assert!(t.recently_authenticated(1200, 300));
        assert!(!t.recently_authenticated(1201, 300));
    }
}
