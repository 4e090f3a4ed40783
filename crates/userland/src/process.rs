//! The pid-bound syscall context every userland component calls through.
//!
//! A [`Process`] pairs a kernel borrow with one pid and routes each call
//! through [`Kernel::dispatch`] — the typed ABI boundary — instead of the
//! raw `sys_*(pid, ...)` methods. Routing userland through dispatch is
//! what makes it observable: registered interceptors (fault injection,
//! trace record/replay, seccomp) see every call a binary or
//! daemon makes, which the raw methods bypass.
//!
//! The file helpers ([`Process::read_file`] and friends) mirror the
//! kernel's convenience helpers but issue their open/read/write/close
//! legs through dispatch too, so a program's whole-file IO is equally
//! fault-exposed and traced.

use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::kernel::Kernel;
use sim_kernel::net::{Domain, Ipv4, Packet, SockType};
use sim_kernel::syscall::{
    IoctlCmd, IoctlOut, NetfilterOp, NetfilterRule, OpenFlags, RouteOp, Stat, Syscall, Whence,
};
use sim_kernel::task::{NsKind, Pid};
use sim_kernel::vfs::{AbsPath, Mode};

/// A pid-bound handle issuing typed syscalls through the dispatch
/// boundary.
pub struct Process<'k> {
    kernel: &'k Kernel,
    pid: Pid,
}

impl<'k> Process<'k> {
    /// Binds `pid` to `kernel`.
    pub fn new(kernel: &'k Kernel, pid: Pid) -> Process<'k> {
        Process { kernel, pid }
    }

    /// The bound pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    // ------------------------------------------------------------- fs --

    /// `open(2)`.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> KResult<i32> {
        self.kernel
            .dispatch(self.pid, Syscall::Open { path, flags })
            .fd()
    }

    /// `close(2)`.
    pub fn close(&mut self, fd: i32) -> KResult<()> {
        self.kernel.dispatch(self.pid, Syscall::Close { fd }).unit()
    }

    /// `read(2)` — returns up to `count` bytes.
    pub fn read(&mut self, fd: i32, count: usize) -> KResult<Vec<u8>> {
        self.kernel
            .dispatch(self.pid, Syscall::Read { fd, count })
            .data()
    }

    /// `read(2)` — appends up to `count` bytes to `buf`; returns how many.
    pub fn read_into(&mut self, fd: i32, buf: &mut Vec<u8>, count: usize) -> KResult<usize> {
        self.kernel
            .dispatch_into(self.pid, Syscall::Read { fd, count }, buf)
            .size()
    }

    /// `write(2)`.
    pub fn write(&mut self, fd: i32, data: &[u8]) -> KResult<usize> {
        self.kernel
            .dispatch(self.pid, Syscall::Write { fd, data })
            .size()
    }

    /// `lseek(2)`.
    pub fn lseek(&mut self, fd: i32, offset: i64, whence: Whence) -> KResult<usize> {
        self.kernel
            .dispatch(self.pid, Syscall::Lseek { fd, offset, whence })
            .size()
    }

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> KResult<Stat> {
        self.kernel
            .dispatch(self.pid, Syscall::Stat { path })
            .stat()
    }

    /// `chmod(2)`.
    pub fn chmod(&mut self, path: &str, mode: Mode) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Chmod { path, mode })
            .unit()
    }

    /// `chown(2)`.
    pub fn chown(&mut self, path: &str, uid: Option<Uid>, gid: Option<Gid>) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Chown { path, uid, gid })
            .unit()
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: Mode) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Mkdir { path, mode })
            .unit()
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Unlink { path })
            .unit()
    }

    /// `rmdir(2)`.
    pub fn rmdir(&mut self, path: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Rmdir { path })
            .unit()
    }

    /// `rename(2)`.
    pub fn rename(&mut self, from: &str, to: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Rename { from, to })
            .unit()
    }

    /// `symlink(2)`.
    pub fn symlink(&mut self, target: &str, linkpath: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Symlink { target, linkpath })
            .unit()
    }

    /// `chdir(2)`.
    pub fn chdir(&mut self, path: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Chdir { path })
            .unit()
    }

    /// `readdir(3)`.
    pub fn readdir(&mut self, path: &str) -> KResult<Vec<String>> {
        self.kernel
            .dispatch(self.pid, Syscall::Readdir { path })
            .names()
    }

    /// `pipe(2)`.
    pub fn pipe(&mut self) -> KResult<(i32, i32)> {
        self.kernel.dispatch(self.pid, Syscall::Pipe).fd_pair()
    }

    // ------------------------------------------------------------- id --

    /// `setuid(2)`.
    pub fn setuid(&mut self, uid: Uid) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Setuid { uid })
            .unit()
    }

    /// `seteuid(2)`.
    pub fn seteuid(&mut self, uid: Uid) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Seteuid { uid })
            .unit()
    }

    /// `setgid(2)`.
    pub fn setgid(&mut self, gid: Gid) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Setgid { gid })
            .unit()
    }

    /// `setgroups(2)`.
    pub fn setgroups(&mut self, groups: &[Gid]) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Setgroups { groups })
            .unit()
    }

    /// `getuid(2)`.
    pub fn getuid(&mut self) -> KResult<Uid> {
        self.kernel.dispatch(self.pid, Syscall::Getuid).uid()
    }

    /// `geteuid(2)`.
    pub fn geteuid(&mut self) -> KResult<Uid> {
        self.kernel.dispatch(self.pid, Syscall::Geteuid).uid()
    }

    /// `getgid(2)`.
    pub fn getgid(&mut self) -> KResult<Gid> {
        self.kernel.dispatch(self.pid, Syscall::Getgid).gid()
    }

    // -------------------------------------------------- ioctl / mount --

    /// `ioctl(2)`.
    pub fn ioctl(&mut self, fd: i32, cmd: IoctlCmd) -> KResult<IoctlOut> {
        self.kernel
            .dispatch(self.pid, Syscall::Ioctl { fd, cmd })
            .ioctl()
    }

    /// `mount(2)`.
    pub fn mount(
        &mut self,
        source: &str,
        target: &str,
        fstype: &str,
        options: &str,
    ) -> KResult<()> {
        self.kernel
            .dispatch(
                self.pid,
                Syscall::Mount {
                    source,
                    target,
                    fstype,
                    options,
                },
            )
            .unit()
    }

    /// `umount(2)`.
    pub fn umount(&mut self, target: &str) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Umount { target })
            .unit()
    }

    // ------------------------------------------------------------ net --

    /// `socket(2)`.
    pub fn socket(&mut self, domain: Domain, stype: SockType, protocol: u8) -> KResult<i32> {
        self.kernel
            .dispatch(
                self.pid,
                Syscall::Socket {
                    domain,
                    stype,
                    protocol,
                },
            )
            .fd()
    }

    /// `bind(2)`.
    pub fn bind(&mut self, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Bind { fd, addr, port })
            .unit()
    }

    /// `listen(2)`.
    pub fn listen(&mut self, fd: i32) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Listen { fd })
            .unit()
    }

    /// `connect(2)`.
    pub fn connect(&mut self, fd: i32, addr: Ipv4, port: u16) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Connect { fd, addr, port })
            .unit()
    }

    /// `accept(2)`.
    pub fn accept(&mut self, fd: i32) -> KResult<i32> {
        self.kernel.dispatch(self.pid, Syscall::Accept { fd }).fd()
    }

    /// `send(2)`.
    pub fn send(&mut self, fd: i32, data: &[u8]) -> KResult<usize> {
        self.kernel
            .dispatch(self.pid, Syscall::Send { fd, data })
            .size()
    }

    /// `recv(2)`.
    pub fn recv(&mut self, fd: i32, max: usize) -> KResult<Vec<u8>> {
        self.kernel
            .dispatch(self.pid, Syscall::Recv { fd, max })
            .data()
    }

    /// `recv(2)` — appends up to `max` bytes to `buf`; returns how many.
    pub fn recv_into(&mut self, fd: i32, buf: &mut Vec<u8>, max: usize) -> KResult<usize> {
        self.kernel
            .dispatch_into(self.pid, Syscall::Recv { fd, max }, buf)
            .size()
    }

    /// Raw packet reception.
    pub fn recv_packet(&mut self, fd: i32) -> KResult<Packet> {
        self.kernel
            .dispatch(self.pid, Syscall::RecvPacket { fd })
            .packet()
    }

    /// `sendto(2)`.
    pub fn sendto(&mut self, fd: i32, addr: Ipv4, port: u16, data: &[u8]) -> KResult<usize> {
        self.kernel
            .dispatch(
                self.pid,
                Syscall::Sendto {
                    fd,
                    addr,
                    port,
                    data,
                },
            )
            .size()
    }

    /// Raw packet transmission.
    pub fn send_packet(&mut self, fd: i32, pkt: Packet) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::SendPacket { fd, pkt })
            .unit()
    }

    /// `socketpair(2)`.
    pub fn socketpair(&mut self) -> KResult<(i32, i32)> {
        self.kernel
            .dispatch(self.pid, Syscall::Socketpair)
            .fd_pair()
    }

    /// Netfilter administration.
    pub fn netfilter(&mut self, op: NetfilterOp) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Netfilter { op })
            .unit()
    }

    /// Lists the netfilter OUTPUT chain.
    pub fn netfilter_list(&mut self) -> KResult<Vec<NetfilterRule>> {
        self.kernel
            .dispatch(self.pid, Syscall::NetfilterList)
            .rules()
    }

    /// Routing-table ioctls.
    pub fn ioctl_route(&mut self, op: RouteOp) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::IoctlRoute { op })
            .unit()
    }

    // -------------------------------------------------------- process --

    /// `fork(2)`.
    pub fn fork(&mut self) -> KResult<Pid> {
        self.kernel.dispatch(self.pid, Syscall::Fork).pid()
    }

    /// `execve(2)` — returns the resolved binary path.
    pub fn execve(&mut self, path: &str) -> KResult<AbsPath> {
        self.kernel
            .dispatch(self.pid, Syscall::Execve { path })
            .path()
    }

    /// `unshare(2)`.
    pub fn unshare(&mut self, kind: NsKind) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Unshare { kind })
            .unit()
    }

    /// `exit(2)`.
    pub fn exit(&mut self, status: i32) -> KResult<()> {
        self.kernel
            .dispatch(self.pid, Syscall::Exit { status })
            .unit()
    }

    /// `waitpid(2)`.
    pub fn wait(&mut self, child: Pid) -> KResult<i32> {
        self.kernel
            .dispatch(self.pid, Syscall::Wait { child })
            .status()
    }

    // ---------------------------------------------------- file helpers --

    /// Opens, reads fully, and closes — every leg through dispatch.
    pub fn read_file(&mut self, path: &str) -> KResult<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_file_into(path, &mut buf)?;
        Ok(buf)
    }

    /// [`Process::read_file`] appending to `buf`; returns the file's
    /// length. On an error `buf` may hold part of the file.
    pub fn read_file_into(&mut self, path: &str, buf: &mut Vec<u8>) -> KResult<usize> {
        let fd = self.open(path, OpenFlags::read_only())?;
        let start = buf.len();
        loop {
            match self.read_into(fd, buf, 65536) {
                Ok(n) if n < 65536 => break,
                Ok(_) => {}
                Err(e) => {
                    let _ = self.close(fd);
                    return Err(e);
                }
            }
        }
        self.close(fd)?;
        Ok(buf.len() - start)
    }

    /// Opens, reads fully as UTF-8, and closes.
    pub fn read_to_string(&mut self, path: &str) -> KResult<String> {
        String::from_utf8(self.read_file(path)?).map_err(|_| Errno::EINVAL)
    }

    /// Creates/truncates and writes a whole file.
    pub fn write_file(&mut self, path: &str, data: &[u8], mode: Mode) -> KResult<()> {
        let fd = self.open(path, OpenFlags::create_trunc(mode))?;
        if let Err(e) = self.write(fd, data) {
            let _ = self.close(fd);
            return Err(e);
        }
        self.close(fd)
    }

    /// Appends to an existing file.
    pub fn append_file(&mut self, path: &str, data: &[u8]) -> KResult<()> {
        let fd = self.open(path, OpenFlags::append_only())?;
        if let Err(e) = self.write(fd, data) {
            let _ = self.close(fd);
            return Err(e);
        }
        self.close(fd)
    }
}
