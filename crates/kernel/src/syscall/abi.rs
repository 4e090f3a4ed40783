//! The unified syscall ABI: a typed request/response boundary over the
//! `sys_*` entry points.
//!
//! Every kernel entry point in the [`crate::syscall`] modules can be
//! invoked in two equivalent ways: directly (`kernel.sys_open(pid, ..)`)
//! or through [`Kernel::dispatch`] with a [`Syscall`] request value. The
//! dispatcher is a thin, total mapping — it calls the very same `sys_*`
//! method — but it gives the simulation one boundary at which to perturb,
//! record, and replay a run:
//!
//! * [`crate::syscall::Interceptor`]s registered on the kernel see every
//!   dispatched call before and after execution. A `before` hook may
//!   short-circuit the call with an injected errno (fault injection); an
//!   `after` hook observes the full `(pid, Syscall, SysRet)` triple
//!   (trace recording, replay checking).
//! * Because the whole simulation is deterministic, the dispatched stream
//!   of a run replays byte-identically under the same seed, which turns
//!   behavioural comparisons (the paper's §5.3 legacy-vs-Protego
//!   divergence suite) into diffs over recorded traces.
//!
//! The request enum owns its arguments (`String`/`Vec` rather than
//! borrows) so a recorded call is self-contained.

use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::net::{Domain, Ipv4, Packet, SockType};
use crate::syscall::interceptor::{SysCtx, Verdict};
use crate::syscall::{Interceptor, IoctlCmd, IoctlOut, NetfilterOp, OpenFlags, RouteOp, Stat};
use crate::task::{NsKind, Pid};
use crate::trace;
use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};
use crate::vfs::{Mode, Name};
use std::sync::Arc;

/// The class a syscall belongs to — the granularity at which the fault
/// injector targets errno storms and the span pathways time syscall bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyscallClass {
    /// Filesystem calls (open/read/write/stat/...).
    Fs,
    /// Credential calls (setuid/setgid/...).
    Id,
    /// Device ioctls.
    Ioctl,
    /// mount/umount.
    Mount,
    /// Sockets, packets, netfilter, and routing.
    Net,
    /// fork/execve/unshare/exit/wait.
    Process,
}

impl SyscallClass {
    /// Number of syscall classes ([`SyscallClass::ALL`] length).
    pub const COUNT: usize = 6;

    /// All classes, in stable order.
    pub const ALL: [SyscallClass; 6] = [
        SyscallClass::Fs,
        SyscallClass::Id,
        SyscallClass::Ioctl,
        SyscallClass::Mount,
        SyscallClass::Net,
        SyscallClass::Process,
    ];

    /// Stable lower-case name (metrics keys).
    pub fn name(self) -> &'static str {
        match self {
            SyscallClass::Fs => "fs",
            SyscallClass::Id => "id",
            SyscallClass::Ioctl => "ioctl",
            SyscallClass::Mount => "mount",
            SyscallClass::Net => "net",
            SyscallClass::Process => "process",
        }
    }
}

/// `lseek(2)` origin selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// `SEEK_SET` — from the start of the file.
    Set,
    /// `SEEK_CUR` — from the current offset.
    Cur,
    /// `SEEK_END` — from the end of the file.
    End,
}

/// A netfilter OUTPUT-chain rule as reported by
/// [`Kernel::sys_netfilter_list`] — the public view of the kernel's
/// internal rule representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetfilterRule {
    /// Rule name (iptables comment).
    pub name: String,
    /// Matches only packets sent through raw/packet sockets.
    pub raw_socket_only: bool,
    /// Protocol match, rendered (`"icmp"`, `"tcp"`, `"udp"`, `"arp"`,
    /// `"ip"`), or `None` for any protocol.
    pub proto: Option<String>,
    /// ICMP type whitelist, when the rule carries one.
    pub icmp_types: Option<Vec<u8>>,
    /// Destination-port range match, when the rule carries one.
    pub dst_ports: Option<(u16, u16)>,
    /// Spoof-analysis match (`Some(true)` = spoofed only).
    pub spoofed: Option<bool>,
    /// Whether the rule accepts (vs drops) matching packets.
    pub accept: bool,
}

impl From<&crate::net::Rule> for NetfilterRule {
    fn from(r: &crate::net::Rule) -> NetfilterRule {
        use crate::net::{ProtoMatch, Verdict};
        NetfilterRule {
            name: r.name.clone(),
            raw_socket_only: r.raw_socket_only,
            proto: r.proto.map(|p| {
                match p {
                    ProtoMatch::Icmp => "icmp",
                    ProtoMatch::Tcp => "tcp",
                    ProtoMatch::Udp => "udp",
                    ProtoMatch::Arp => "arp",
                    ProtoMatch::OtherIp => "ip",
                }
                .to_string()
            }),
            icmp_types: r.icmp_types.clone(),
            dst_ports: r.dst_ports,
            spoofed: r.spoofed,
            accept: r.verdict == Verdict::Accept,
        }
    }
}

impl std::fmt::Display for NetfilterRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}",
            self.name,
            if self.accept { "ACCEPT" } else { "DROP" }
        )?;
        if self.raw_socket_only {
            write!(f, " raw")?;
        }
        if let Some(p) = &self.proto {
            write!(f, " proto={}", p)?;
        }
        if let Some(t) = &self.icmp_types {
            write!(f, " icmp-types={:?}", t)?;
        }
        if let Some((lo, hi)) = self.dst_ports {
            write!(f, " dports={}-{}", lo, hi)?;
        }
        if let Some(s) = self.spoofed {
            write!(f, " spoofed={}", s)?;
        }
        Ok(())
    }
}

/// A typed syscall request: one variant per `sys_*` entry point, owning
/// its arguments so a recorded call is self-contained.
#[derive(Clone, Debug)]
pub enum Syscall {
    // ------------------------------------------------------------- fs --
    /// `open(2)`.
    Open {
        /// Path to open.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// `close(2)`.
    Close {
        /// Descriptor to close.
        fd: i32,
    },
    /// `read(2)` — the response carries the bytes read.
    Read {
        /// Descriptor to read from.
        fd: i32,
        /// Maximum byte count.
        count: usize,
    },
    /// `write(2)`.
    Write {
        /// Descriptor to write to.
        fd: i32,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// `lseek(2)`.
    Lseek {
        /// Descriptor to seek.
        fd: i32,
        /// Signed displacement from `whence`.
        offset: i64,
        /// Seek origin.
        whence: Whence,
    },
    /// `stat(2)`.
    Stat {
        /// Path to inspect.
        path: String,
    },
    /// `lstat(2)`.
    Lstat {
        /// Path to inspect (not following a trailing symlink).
        path: String,
    },
    /// `chmod(2)`.
    Chmod {
        /// Path to change.
        path: String,
        /// New mode bits.
        mode: Mode,
    },
    /// `chown(2)`.
    Chown {
        /// Path to change.
        path: String,
        /// New owner, if changing.
        uid: Option<Uid>,
        /// New group, if changing.
        gid: Option<Gid>,
    },
    /// `mkdir(2)`.
    Mkdir {
        /// Directory to create.
        path: String,
        /// Mode bits.
        mode: Mode,
    },
    /// `unlink(2)`.
    Unlink {
        /// Path to remove.
        path: String,
    },
    /// `rmdir(2)`.
    Rmdir {
        /// Directory to remove.
        path: String,
    },
    /// `rename(2)`.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// `symlink(2)`.
    Symlink {
        /// Link target.
        target: String,
        /// Path of the new link.
        linkpath: String,
    },
    /// `chdir(2)`.
    Chdir {
        /// New working directory.
        path: String,
    },
    /// `readdir(3)`.
    Readdir {
        /// Directory to list.
        path: String,
    },
    /// `pipe(2)`.
    Pipe,
    // ------------------------------------------------------------- id --
    /// `setuid(2)`.
    Setuid {
        /// Target uid.
        uid: Uid,
    },
    /// `seteuid(2)`.
    Seteuid {
        /// Target effective uid.
        uid: Uid,
    },
    /// `setgid(2)`.
    Setgid {
        /// Target gid.
        gid: Gid,
    },
    /// `setgroups(2)`.
    Setgroups {
        /// New supplementary group list.
        groups: Vec<Gid>,
    },
    /// `getuid(2)`.
    Getuid,
    /// `geteuid(2)`.
    Geteuid,
    /// `getgid(2)`.
    Getgid,
    // ---------------------------------------------------------- ioctl --
    /// `ioctl(2)` on a device fd.
    Ioctl {
        /// Device descriptor.
        fd: i32,
        /// Command.
        cmd: IoctlCmd,
    },
    // ---------------------------------------------------------- mount --
    /// `mount(2)`.
    Mount {
        /// Device or pseudo-fs source.
        source: String,
        /// Mountpoint path.
        target: String,
        /// Filesystem type.
        fstype: String,
        /// Comma-separated options.
        options: String,
    },
    /// `umount(2)`.
    Umount {
        /// Mountpoint path.
        target: String,
    },
    // ------------------------------------------------------------ net --
    /// `socket(2)`.
    Socket {
        /// Address family.
        domain: Domain,
        /// Socket type.
        stype: SockType,
        /// Protocol number.
        protocol: u8,
    },
    /// `bind(2)`.
    Bind {
        /// Socket descriptor.
        fd: i32,
        /// Local address.
        addr: Ipv4,
        /// Local port.
        port: u16,
    },
    /// `listen(2)`.
    Listen {
        /// Socket descriptor.
        fd: i32,
    },
    /// `connect(2)`.
    Connect {
        /// Socket descriptor.
        fd: i32,
        /// Remote address.
        addr: Ipv4,
        /// Remote port.
        port: u16,
    },
    /// `accept(2)`.
    Accept {
        /// Listening descriptor.
        fd: i32,
    },
    /// `send(2)` on a connected socket.
    Send {
        /// Socket descriptor.
        fd: i32,
        /// Payload.
        data: Vec<u8>,
    },
    /// `recv(2)` on a connected socket.
    Recv {
        /// Socket descriptor.
        fd: i32,
        /// Maximum byte count.
        max: usize,
    },
    /// Raw packet reception.
    RecvPacket {
        /// Raw/packet socket descriptor.
        fd: i32,
    },
    /// `sendto(2)` on a UDP socket.
    Sendto {
        /// Socket descriptor.
        fd: i32,
        /// Destination address.
        addr: Ipv4,
        /// Destination port.
        port: u16,
        /// Payload.
        data: Vec<u8>,
    },
    /// Raw packet transmission (caller-built headers).
    SendPacket {
        /// Raw/packet socket descriptor.
        fd: i32,
        /// The packet, headers included.
        pkt: Packet,
    },
    /// `socketpair(2)`.
    Socketpair,
    /// Netfilter administration (the iptables backend).
    Netfilter {
        /// Chain operation.
        op: NetfilterOp,
    },
    /// Lists the OUTPUT-chain rules.
    NetfilterList,
    /// Routing-table ioctls (`SIOCADDRT`/`SIOCDELRT`).
    IoctlRoute {
        /// Route operation.
        op: RouteOp,
    },
    // -------------------------------------------------------- process --
    /// `fork(2)`.
    Fork,
    /// `execve(2)`.
    Execve {
        /// Program path.
        path: String,
    },
    /// `unshare(2)`.
    Unshare {
        /// Namespace kind to unshare.
        kind: NsKind,
    },
    /// `exit(2)`.
    Exit {
        /// Exit status.
        status: i32,
    },
    /// `waitpid(2)`.
    Wait {
        /// Child to reap.
        child: Pid,
    },
}

impl Syscall {
    /// Stable syscall name (matches the audit-event `syscall` field where
    /// the call emits events).
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Open { .. } => "open",
            Syscall::Close { .. } => "close",
            Syscall::Read { .. } => "read",
            Syscall::Write { .. } => "write",
            Syscall::Lseek { .. } => "lseek",
            Syscall::Stat { .. } => "stat",
            Syscall::Lstat { .. } => "lstat",
            Syscall::Chmod { .. } => "chmod",
            Syscall::Chown { .. } => "chown",
            Syscall::Mkdir { .. } => "mkdir",
            Syscall::Unlink { .. } => "unlink",
            Syscall::Rmdir { .. } => "rmdir",
            Syscall::Rename { .. } => "rename",
            Syscall::Symlink { .. } => "symlink",
            Syscall::Chdir { .. } => "chdir",
            Syscall::Readdir { .. } => "readdir",
            Syscall::Pipe => "pipe",
            Syscall::Setuid { .. } => "setuid",
            Syscall::Seteuid { .. } => "seteuid",
            Syscall::Setgid { .. } => "setgid",
            Syscall::Setgroups { .. } => "setgroups",
            Syscall::Getuid => "getuid",
            Syscall::Geteuid => "geteuid",
            Syscall::Getgid => "getgid",
            Syscall::Ioctl { .. } => "ioctl",
            Syscall::Mount { .. } => "mount",
            Syscall::Umount { .. } => "umount",
            Syscall::Socket { .. } => "socket",
            Syscall::Bind { .. } => "bind",
            Syscall::Listen { .. } => "listen",
            Syscall::Connect { .. } => "connect",
            Syscall::Accept { .. } => "accept",
            Syscall::Send { .. } => "send",
            Syscall::Recv { .. } => "recv",
            Syscall::RecvPacket { .. } => "recv_packet",
            Syscall::Sendto { .. } => "sendto",
            Syscall::SendPacket { .. } => "send_packet",
            Syscall::Socketpair => "socketpair",
            Syscall::Netfilter { .. } => "netfilter",
            Syscall::NetfilterList => "netfilter_list",
            Syscall::IoctlRoute { .. } => "ioctl_route",
            Syscall::Fork => "fork",
            Syscall::Execve { .. } => "execve",
            Syscall::Unshare { .. } => "unshare",
            Syscall::Exit { .. } => "exit",
            Syscall::Wait { .. } => "wait",
        }
    }

    /// Number of syscall variants (the fixed-counter table size).
    pub const COUNT: usize = 46;

    /// Every ABI syscall name, in variant-declaration order. The index of
    /// a name here matches [`Syscall::name_index`], so metrics can use a
    /// fixed `[T; Syscall::COUNT]` table instead of a map on the dispatch
    /// fast path.
    pub const NAMES: [&'static str; Syscall::COUNT] = [
        "open",
        "close",
        "read",
        "write",
        "lseek",
        "stat",
        "lstat",
        "chmod",
        "chown",
        "mkdir",
        "unlink",
        "rmdir",
        "rename",
        "symlink",
        "chdir",
        "readdir",
        "pipe",
        "setuid",
        "seteuid",
        "setgid",
        "setgroups",
        "getuid",
        "geteuid",
        "getgid",
        "ioctl",
        "mount",
        "umount",
        "socket",
        "bind",
        "listen",
        "connect",
        "accept",
        "send",
        "recv",
        "recv_packet",
        "sendto",
        "send_packet",
        "socketpair",
        "netfilter",
        "netfilter_list",
        "ioctl_route",
        "fork",
        "execve",
        "unshare",
        "exit",
        "wait",
    ];

    /// Fixed table index for an ABI syscall name (a compiler-optimised
    /// string match — no allocation, no map). `None` for names that are
    /// not ABI syscalls (kernel-internal audit pathways like `"auth"`).
    pub fn name_index(name: &str) -> Option<usize> {
        let idx = match name {
            "open" => 0,
            "close" => 1,
            "read" => 2,
            "write" => 3,
            "lseek" => 4,
            "stat" => 5,
            "lstat" => 6,
            "chmod" => 7,
            "chown" => 8,
            "mkdir" => 9,
            "unlink" => 10,
            "rmdir" => 11,
            "rename" => 12,
            "symlink" => 13,
            "chdir" => 14,
            "readdir" => 15,
            "pipe" => 16,
            "setuid" => 17,
            "seteuid" => 18,
            "setgid" => 19,
            "setgroups" => 20,
            "getuid" => 21,
            "geteuid" => 22,
            "getgid" => 23,
            "ioctl" => 24,
            "mount" => 25,
            "umount" => 26,
            "socket" => 27,
            "bind" => 28,
            "listen" => 29,
            "connect" => 30,
            "accept" => 31,
            "send" => 32,
            "recv" => 33,
            "recv_packet" => 34,
            "sendto" => 35,
            "send_packet" => 36,
            "socketpair" => 37,
            "netfilter" => 38,
            "netfilter_list" => 39,
            "ioctl_route" => 40,
            "fork" => 41,
            "execve" => 42,
            "unshare" => 43,
            "exit" => 44,
            "wait" => 45,
            _ => return None,
        };
        Some(idx)
    }

    /// Fixed table index of this call — the position of its name in
    /// [`Syscall::NAMES`], computed by a direct variant match so per-call
    /// table lookups (seccomp action arrays, per-syscall counters) cost a
    /// jump, not a string comparison. Invariant `Syscall::NAMES[c.index()]
    /// == c.name()` is locked by a test.
    pub fn index(&self) -> usize {
        match self {
            Syscall::Open { .. } => 0,
            Syscall::Close { .. } => 1,
            Syscall::Read { .. } => 2,
            Syscall::Write { .. } => 3,
            Syscall::Lseek { .. } => 4,
            Syscall::Stat { .. } => 5,
            Syscall::Lstat { .. } => 6,
            Syscall::Chmod { .. } => 7,
            Syscall::Chown { .. } => 8,
            Syscall::Mkdir { .. } => 9,
            Syscall::Unlink { .. } => 10,
            Syscall::Rmdir { .. } => 11,
            Syscall::Rename { .. } => 12,
            Syscall::Symlink { .. } => 13,
            Syscall::Chdir { .. } => 14,
            Syscall::Readdir { .. } => 15,
            Syscall::Pipe => 16,
            Syscall::Setuid { .. } => 17,
            Syscall::Seteuid { .. } => 18,
            Syscall::Setgid { .. } => 19,
            Syscall::Setgroups { .. } => 20,
            Syscall::Getuid => 21,
            Syscall::Geteuid => 22,
            Syscall::Getgid => 23,
            Syscall::Ioctl { .. } => 24,
            Syscall::Mount { .. } => 25,
            Syscall::Umount { .. } => 26,
            Syscall::Socket { .. } => 27,
            Syscall::Bind { .. } => 28,
            Syscall::Listen { .. } => 29,
            Syscall::Connect { .. } => 30,
            Syscall::Accept { .. } => 31,
            Syscall::Send { .. } => 32,
            Syscall::Recv { .. } => 33,
            Syscall::RecvPacket { .. } => 34,
            Syscall::Sendto { .. } => 35,
            Syscall::SendPacket { .. } => 36,
            Syscall::Socketpair => 37,
            Syscall::Netfilter { .. } => 38,
            Syscall::NetfilterList => 39,
            Syscall::IoctlRoute { .. } => 40,
            Syscall::Fork => 41,
            Syscall::Execve { .. } => 42,
            Syscall::Unshare { .. } => 43,
            Syscall::Exit { .. } => 44,
            Syscall::Wait { .. } => 45,
        }
    }

    /// The class this call belongs to.
    pub fn class(&self) -> SyscallClass {
        match self {
            Syscall::Open { .. }
            | Syscall::Close { .. }
            | Syscall::Read { .. }
            | Syscall::Write { .. }
            | Syscall::Lseek { .. }
            | Syscall::Stat { .. }
            | Syscall::Lstat { .. }
            | Syscall::Chmod { .. }
            | Syscall::Chown { .. }
            | Syscall::Mkdir { .. }
            | Syscall::Unlink { .. }
            | Syscall::Rmdir { .. }
            | Syscall::Rename { .. }
            | Syscall::Symlink { .. }
            | Syscall::Chdir { .. }
            | Syscall::Readdir { .. }
            | Syscall::Pipe => SyscallClass::Fs,
            Syscall::Setuid { .. }
            | Syscall::Seteuid { .. }
            | Syscall::Setgid { .. }
            | Syscall::Setgroups { .. }
            | Syscall::Getuid
            | Syscall::Geteuid
            | Syscall::Getgid => SyscallClass::Id,
            Syscall::Ioctl { .. } => SyscallClass::Ioctl,
            Syscall::Mount { .. } | Syscall::Umount { .. } => SyscallClass::Mount,
            Syscall::Socket { .. }
            | Syscall::Bind { .. }
            | Syscall::Listen { .. }
            | Syscall::Connect { .. }
            | Syscall::Accept { .. }
            | Syscall::Send { .. }
            | Syscall::Recv { .. }
            | Syscall::RecvPacket { .. }
            | Syscall::Sendto { .. }
            | Syscall::SendPacket { .. }
            | Syscall::Socketpair
            | Syscall::Netfilter { .. }
            | Syscall::NetfilterList
            | Syscall::IoctlRoute { .. } => SyscallClass::Net,
            Syscall::Fork
            | Syscall::Execve { .. }
            | Syscall::Unshare { .. }
            | Syscall::Exit { .. }
            | Syscall::Wait { .. } => SyscallClass::Process,
        }
    }
}

/// A typed syscall response. [`Kernel::dispatch`] returns the variant
/// matching the request (never a mismatched one), or [`SysRet::Err`].
#[derive(Clone, Debug, PartialEq)]
pub enum SysRet {
    /// Success with no payload.
    Unit,
    /// A new file descriptor.
    Fd(i32),
    /// A descriptor pair (pipe, socketpair).
    FdPair(i32, i32),
    /// A byte count (write, send, sendto) or resulting offset (lseek).
    Size(usize),
    /// Bytes read/received.
    Data(Vec<u8>),
    /// Directory entry names.
    Names(Vec<String>),
    /// File metadata.
    Stat(Stat),
    /// An ioctl result.
    Ioctl(IoctlOut),
    /// A received raw packet.
    Packet(Packet),
    /// A uid (getuid/geteuid).
    Uid(Uid),
    /// A gid (getgid).
    Gid(Gid),
    /// A child pid (fork).
    Pid(Pid),
    /// A resolved path (execve).
    Path(String),
    /// A child exit status (wait).
    Status(i32),
    /// The netfilter rule list.
    Rules(Vec<NetfilterRule>),
    /// The call failed (or an interceptor injected a fault).
    Err(Errno),
}

/// Typed accessors. Each converts the response into the `KResult` the
/// matching direct `sys_*` call would have produced; the mismatched-variant
/// arms are unreachable through [`Kernel::dispatch`].
impl SysRet {
    /// Whether the response is an errno.
    pub fn is_err(&self) -> bool {
        matches!(self, SysRet::Err(_))
    }

    /// The errno, if the call failed.
    pub fn err(&self) -> Option<Errno> {
        match self {
            SysRet::Err(e) => Some(*e),
            _ => None,
        }
    }

    /// Unit result.
    pub fn unit(self) -> KResult<()> {
        match self {
            SysRet::Unit => Ok(()),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Unit, got {:?}", other),
        }
    }

    /// File-descriptor result.
    pub fn fd(self) -> KResult<i32> {
        match self {
            SysRet::Fd(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Fd, got {:?}", other),
        }
    }

    /// Descriptor-pair result.
    pub fn fd_pair(self) -> KResult<(i32, i32)> {
        match self {
            SysRet::FdPair(a, b) => Ok((a, b)),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected FdPair, got {:?}", other),
        }
    }

    /// Byte-count/offset result.
    pub fn size(self) -> KResult<usize> {
        match self {
            SysRet::Size(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Size, got {:?}", other),
        }
    }

    /// Byte-payload result.
    pub fn data(self) -> KResult<Vec<u8>> {
        match self {
            SysRet::Data(d) => Ok(d),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Data, got {:?}", other),
        }
    }

    /// Name-list result.
    pub fn names(self) -> KResult<Vec<String>> {
        match self {
            SysRet::Names(n) => Ok(n),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Names, got {:?}", other),
        }
    }

    /// Stat result.
    pub fn stat(self) -> KResult<Stat> {
        match self {
            SysRet::Stat(s) => Ok(s),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Stat, got {:?}", other),
        }
    }

    /// Ioctl result.
    pub fn ioctl(self) -> KResult<IoctlOut> {
        match self {
            SysRet::Ioctl(o) => Ok(o),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Ioctl, got {:?}", other),
        }
    }

    /// Packet result.
    pub fn packet(self) -> KResult<Packet> {
        match self {
            SysRet::Packet(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Packet, got {:?}", other),
        }
    }

    /// Uid result.
    pub fn uid(self) -> KResult<Uid> {
        match self {
            SysRet::Uid(u) => Ok(u),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Uid, got {:?}", other),
        }
    }

    /// Gid result.
    pub fn gid(self) -> KResult<Gid> {
        match self {
            SysRet::Gid(g) => Ok(g),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Gid, got {:?}", other),
        }
    }

    /// Pid result.
    pub fn pid(self) -> KResult<Pid> {
        match self {
            SysRet::Pid(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Pid, got {:?}", other),
        }
    }

    /// Path result.
    pub fn path(self) -> KResult<String> {
        match self {
            SysRet::Path(p) => Ok(p),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Path, got {:?}", other),
        }
    }

    /// Exit-status result.
    pub fn status(self) -> KResult<i32> {
        match self {
            SysRet::Status(s) => Ok(s),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Status, got {:?}", other),
        }
    }

    /// Netfilter rule-list result.
    pub fn rules(self) -> KResult<Vec<NetfilterRule>> {
        match self {
            SysRet::Rules(r) => Ok(r),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected Rules, got {:?}", other),
        }
    }
}

fn wrap<T>(r: KResult<T>, f: impl FnOnce(T) -> SysRet) -> SysRet {
    match r {
        Ok(v) => f(v),
        Err(e) => SysRet::Err(e),
    }
}

/// The audit rule of an interceptor verdict: interceptor, syscall and
/// class, so Table-6-style provenance assertions can key on what was
/// denied, not just who denied it.
fn interceptor_rule(who: &str, call: &Syscall) -> Name {
    Name::intern(&format!("{}:{}:{}", who, call.name(), call.class().name()))
}

impl Kernel {
    /// Dispatches a typed syscall through the interceptor chain.
    ///
    /// Interceptor `before` hooks run in registration order; the first to
    /// return an errno short-circuits the call (the kernel entry point is
    /// never reached and an `interceptor`-provenance audit event records
    /// the injection). `after` hooks run in reverse order and always see
    /// the final response, injected or real.
    ///
    /// With no interceptor enabled (see [`Kernel::interceptors_armed`])
    /// the call goes straight to its entry point: no chain lock, no
    /// [`TaskIdentity`](crate::task::TaskIdentity) snapshot, no hook pass.
    pub fn dispatch(&self, pid: Pid, call: Syscall) -> SysRet {
        let _dispatch_span = trace::span(trace::Pathway::Dispatch);
        if !self.interceptors_armed() {
            return self.dispatch_body(pid, &call);
        }
        // Snapshot the chain's shared handles under a brief read lock, so
        // hooks run without holding any kernel lock (an interceptor may
        // itself consult kernel state) and concurrent dispatches do not
        // serialize on the chain. Only enabled slots are snapshotted, in
        // registration order. Short chains (the overwhelmingly common
        // case) snapshot into a stack array so dispatch entry touches no
        // heap; longer chains spill to a clone.
        const IC_INLINE: usize = 4;
        let mut inline: [Option<Arc<dyn Interceptor>>; IC_INLINE] = [None, None, None, None];
        let mut spill: Vec<Arc<dyn Interceptor>> = Vec::new();
        {
            let guard = self.interceptors.read();
            if guard.enabled_len() <= IC_INLINE {
                for (slot, ic) in inline.iter_mut().zip(guard.enabled()) {
                    *slot = Some(ic.clone());
                }
            } else {
                spill = guard.enabled().cloned().collect();
            }
        }
        let chain = || {
            inline
                .iter()
                .filter_map(|s| s.as_deref())
                .chain(spill.iter().map(|a| &**a))
        };
        // One identity snapshot per dispatch — a single task-shard read —
        // shared (it is `Copy`) by every hook of this dispatch.
        let task = self.task_identity(pid);
        let mut injected = None;
        // Complain-mode notes filed by hooks via `Verdict::Note`; empty on
        // the fast path (`Vec::new` does not allocate until first push).
        let mut notes: Vec<(&'static str, Errno)> = Vec::new();
        {
            let _before_span = trace::span(trace::Pathway::InterceptBefore);
            for ic in chain() {
                let mut ctx = SysCtx {
                    clock: self.clock(),
                    task,
                };
                match ic.before(pid, &call, &mut ctx) {
                    Verdict::Continue => {}
                    Verdict::Deny(e) => {
                        injected = Some((e, ic.name()));
                        break;
                    }
                    Verdict::Note { errno } => notes.push((ic.name(), errno)),
                }
            }
        }
        for (who, errno) in notes {
            self.emit_event(
                pid.0,
                call.name(),
                AuditObject::None,
                Provenance {
                    module: who,
                    hook: Hook::Interceptor,
                    rule: Some(interceptor_rule(who, &call)),
                    decision: DecisionKind::Info,
                    errno: Some(errno),
                },
            );
        }
        let ret = match injected {
            Some((e, who)) => {
                self.emit_event(
                    pid.0,
                    call.name(),
                    AuditObject::None,
                    Provenance {
                        module: "interceptor",
                        hook: Hook::Interceptor,
                        rule: Some(interceptor_rule(who, &call)),
                        decision: DecisionKind::Deny,
                        errno: Some(e),
                    },
                );
                SysRet::Err(e)
            }
            None => self.dispatch_body(pid, &call),
        };
        {
            let _after_span = trace::span(trace::Pathway::InterceptAfter);
            for ic in chain().rev() {
                let mut ctx = SysCtx {
                    clock: self.clock(),
                    task,
                };
                ic.after(pid, &call, &ret, &mut ctx);
            }
        }
        ret
    }

    /// Runs the entry point under its class span. The arena scope trims
    /// any pooled path buffers borrowed below back to bounds when the
    /// dispatch exits (§14 reset discipline).
    fn dispatch_body(&self, pid: Pid, call: &Syscall) -> SysRet {
        let _body_span = trace::span(trace::Pathway::for_class(call.class()));
        crate::vfs::PathArena::scope(|_| self.dispatch_inner(pid, call))
    }

    /// The total request→entry-point mapping behind [`Kernel::dispatch`].
    fn dispatch_inner(&self, pid: Pid, call: &Syscall) -> SysRet {
        match call {
            Syscall::Open { path, flags } => wrap(self.sys_open(pid, path, *flags), SysRet::Fd),
            Syscall::Close { fd } => wrap(self.sys_close(pid, *fd), |()| SysRet::Unit),
            Syscall::Read { fd, count } => {
                let mut buf = Vec::new();
                wrap(self.sys_read(pid, *fd, &mut buf, *count), |_| {
                    SysRet::Data(buf)
                })
            }
            Syscall::Write { fd, data } => wrap(self.sys_write(pid, *fd, data), SysRet::Size),
            Syscall::Lseek { fd, offset, whence } => {
                wrap(self.sys_lseek(pid, *fd, *offset, *whence), SysRet::Size)
            }
            Syscall::Stat { path } => wrap(self.sys_stat(pid, path), SysRet::Stat),
            Syscall::Lstat { path } => wrap(self.sys_lstat(pid, path), SysRet::Stat),
            Syscall::Chmod { path, mode } => {
                wrap(self.sys_chmod(pid, path, *mode), |()| SysRet::Unit)
            }
            Syscall::Chown { path, uid, gid } => {
                wrap(self.sys_chown(pid, path, *uid, *gid), |()| SysRet::Unit)
            }
            Syscall::Mkdir { path, mode } => {
                wrap(self.sys_mkdir(pid, path, *mode), |()| SysRet::Unit)
            }
            Syscall::Unlink { path } => wrap(self.sys_unlink(pid, path), |()| SysRet::Unit),
            Syscall::Rmdir { path } => wrap(self.sys_rmdir(pid, path), |()| SysRet::Unit),
            Syscall::Rename { from, to } => wrap(self.sys_rename(pid, from, to), |()| SysRet::Unit),
            Syscall::Symlink { target, linkpath } => {
                wrap(self.sys_symlink(pid, target, linkpath), |()| SysRet::Unit)
            }
            Syscall::Chdir { path } => wrap(self.sys_chdir(pid, path), |()| SysRet::Unit),
            Syscall::Readdir { path } => wrap(self.sys_readdir(pid, path), SysRet::Names),
            Syscall::Pipe => wrap(self.sys_pipe(pid), |(r, w)| SysRet::FdPair(r, w)),
            Syscall::Setuid { uid } => wrap(self.sys_setuid(pid, *uid), |()| SysRet::Unit),
            Syscall::Seteuid { uid } => wrap(self.sys_seteuid(pid, *uid), |()| SysRet::Unit),
            Syscall::Setgid { gid } => wrap(self.sys_setgid(pid, *gid), |()| SysRet::Unit),
            Syscall::Setgroups { groups } => {
                wrap(self.sys_setgroups(pid, groups), |()| SysRet::Unit)
            }
            Syscall::Getuid => wrap(self.sys_getuid(pid), SysRet::Uid),
            Syscall::Geteuid => wrap(self.sys_geteuid(pid), SysRet::Uid),
            Syscall::Getgid => wrap(self.sys_getgid(pid), SysRet::Gid),
            Syscall::Ioctl { fd, cmd } => {
                wrap(self.sys_ioctl(pid, *fd, cmd.clone()), SysRet::Ioctl)
            }
            Syscall::Mount {
                source,
                target,
                fstype,
                options,
            } => wrap(self.sys_mount(pid, source, target, fstype, options), |()| {
                SysRet::Unit
            }),
            Syscall::Umount { target } => wrap(self.sys_umount(pid, target), |()| SysRet::Unit),
            Syscall::Socket {
                domain,
                stype,
                protocol,
            } => wrap(self.sys_socket(pid, *domain, *stype, *protocol), SysRet::Fd),
            Syscall::Bind { fd, addr, port } => {
                wrap(self.sys_bind(pid, *fd, *addr, *port), |()| SysRet::Unit)
            }
            Syscall::Listen { fd } => wrap(self.sys_listen(pid, *fd), |()| SysRet::Unit),
            Syscall::Connect { fd, addr, port } => {
                wrap(self.sys_connect(pid, *fd, *addr, *port), |()| SysRet::Unit)
            }
            Syscall::Accept { fd } => wrap(self.sys_accept(pid, *fd), SysRet::Fd),
            Syscall::Send { fd, data } => wrap(self.sys_send(pid, *fd, data), SysRet::Size),
            Syscall::Recv { fd, max } => wrap(self.sys_recv(pid, *fd, *max), SysRet::Data),
            Syscall::RecvPacket { fd } => wrap(self.sys_recv_packet(pid, *fd), SysRet::Packet),
            Syscall::Sendto {
                fd,
                addr,
                port,
                data,
            } => wrap(self.sys_sendto(pid, *fd, *addr, *port, data), SysRet::Size),
            Syscall::SendPacket { fd, pkt } => {
                wrap(self.sys_send_packet(pid, *fd, pkt.clone()), |()| {
                    SysRet::Unit
                })
            }
            Syscall::Socketpair => wrap(self.sys_socketpair(pid), |(a, b)| SysRet::FdPair(a, b)),
            Syscall::Netfilter { op } => {
                wrap(self.sys_netfilter(pid, op.clone()), |()| SysRet::Unit)
            }
            Syscall::NetfilterList => wrap(self.sys_netfilter_list(pid), SysRet::Rules),
            Syscall::IoctlRoute { op } => {
                wrap(self.sys_ioctl_route(pid, op.clone()), |()| SysRet::Unit)
            }
            Syscall::Fork => wrap(self.sys_fork(pid), SysRet::Pid),
            Syscall::Execve { path } => wrap(self.sys_execve(pid, path), SysRet::Path),
            Syscall::Unshare { kind } => wrap(self.sys_unshare(pid, *kind), |()| SysRet::Unit),
            Syscall::Exit { status } => wrap(self.sys_exit(pid, *status), |()| SysRet::Unit),
            Syscall::Wait { child } => wrap(self.sys_wait(pid, *child), SysRet::Status),
        }
    }
}
