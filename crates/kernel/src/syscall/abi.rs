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
//! The request enum borrows its arguments (`&str`, `&[u8]`, `&[Gid]`)
//! from the caller, so issuing a call copies nothing. `read` and `recv`
//! append their bytes to a caller buffer ([`Kernel::dispatch_into`]) and
//! answer [`SysRet::Size`]; [`Kernel::dispatch`] is the `Vec`-returning
//! wrapper that answers [`SysRet::Data`]. Interceptors see a borrowed
//! call too; an `after` hook always sees a read/recv's bytes as
//! `SysRet::Data`, copied out of the caller buffer only while the chain
//! is armed. A borrowed argument renders under `{:?}` exactly as its
//! owned form would, so recorded traces do not depend on which form a
//! caller used.

use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::net::{Domain, Ipv4, Packet, SockType};
use crate::syscall::interceptor::{SysCtx, Verdict};
use crate::syscall::{Interceptor, IoctlCmd, IoctlOut, NetfilterOp, OpenFlags, RouteOp, Stat};
use crate::task::{NsKind, Pid};
use crate::trace;
use crate::trace::{AuditObject, DecisionKind, Hook, Provenance};
use crate::vfs::{AbsPath, Mode, Name};
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

/// Declares [`Syscall`] and its per-variant tables from one row per
/// syscall, `Variant { fields } => "name", Class;`, so each syscall is
/// named once. Row order is the fixed table index.
macro_rules! syscalls {
    ($(
        $(#[$doc:meta])*
        $variant:ident $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)? })?
            => $name:literal, $class:ident;
    )*) => {
        /// A typed syscall request: one variant per `sys_*` entry point,
        /// borrowing its string and byte arguments from the caller.
        #[derive(Clone, Debug)]
        pub enum Syscall<'a> {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        /// The row position of each variant: its fixed table index.
        enum Ordinal {
            $($variant,)*
        }

        impl Syscall<'_> {
            /// Number of syscall variants (the fixed-counter table size).
            pub const COUNT: usize = [$($name),*].len();

            /// Every ABI syscall name, in variant-declaration order. The index of
            /// a name here matches [`Syscall::name_index`], so metrics can use a
            /// fixed `[T; Syscall::COUNT]` table instead of a map on the dispatch
            /// fast path.
            pub const NAMES: [&'static str; Syscall::COUNT] = [$($name),*];

            /// Stable syscall name (matches the audit-event `syscall` field where
            /// the call emits events).
            pub fn name(&self) -> &'static str {
                Syscall::NAMES[self.index()]
            }

            /// Fixed table index for an ABI syscall name (a compiler-optimised
            /// string match — no allocation, no map). `None` for names that are
            /// not ABI syscalls (kernel-internal audit pathways like `"auth"`).
            pub fn name_index(name: &str) -> Option<usize> {
                match name {
                    $($name => Some(Ordinal::$variant as usize),)*
                    _ => None,
                }
            }

            /// Fixed table index of this call — the position of its name in
            /// [`Syscall::NAMES`], computed by a direct variant match so per-call
            /// table lookups (seccomp allow masks, per-syscall counters) cost a
            /// jump, not a string comparison.
            pub fn index(&self) -> usize {
                match self {
                    $(Syscall::$variant { .. } => Ordinal::$variant as usize,)*
                }
            }

            /// The class this call belongs to.
            pub fn class(&self) -> SyscallClass {
                match self {
                    $(Syscall::$variant { .. } => SyscallClass::$class,)*
                }
            }
        }
    };
}

syscalls! {
    // ------------------------------------------------------------- fs --
    /// `open(2)`.
    Open {
        /// Path to open.
        path: &'a str,
        /// Open flags.
        flags: OpenFlags,
    } => "open", Fs;
    /// `close(2)`.
    Close {
        /// Descriptor to close.
        fd: i32,
    } => "close", Fs;
    /// `read(2)` — appends up to `count` bytes to the caller buffer.
    Read {
        /// Descriptor to read from.
        fd: i32,
        /// Maximum byte count.
        count: usize,
    } => "read", Fs;
    /// `write(2)`.
    Write {
        /// Descriptor to write to.
        fd: i32,
        /// Bytes to write.
        data: &'a [u8],
    } => "write", Fs;
    /// `lseek(2)`.
    Lseek {
        /// Descriptor to seek.
        fd: i32,
        /// Signed displacement from `whence`.
        offset: i64,
        /// Seek origin.
        whence: Whence,
    } => "lseek", Fs;
    /// `stat(2)`.
    Stat {
        /// Path to inspect.
        path: &'a str,
    } => "stat", Fs;
    /// `chmod(2)`.
    Chmod {
        /// Path to change.
        path: &'a str,
        /// New mode bits.
        mode: Mode,
    } => "chmod", Fs;
    /// `chown(2)`.
    Chown {
        /// Path to change.
        path: &'a str,
        /// New owner, if changing.
        uid: Option<Uid>,
        /// New group, if changing.
        gid: Option<Gid>,
    } => "chown", Fs;
    /// `mkdir(2)`.
    Mkdir {
        /// Directory to create.
        path: &'a str,
        /// Mode bits.
        mode: Mode,
    } => "mkdir", Fs;
    /// `unlink(2)`.
    Unlink {
        /// Path to remove.
        path: &'a str,
    } => "unlink", Fs;
    /// `rmdir(2)`.
    Rmdir {
        /// Directory to remove.
        path: &'a str,
    } => "rmdir", Fs;
    /// `rename(2)`.
    Rename {
        /// Source path.
        from: &'a str,
        /// Destination path.
        to: &'a str,
    } => "rename", Fs;
    /// `symlink(2)`.
    Symlink {
        /// Link target.
        target: &'a str,
        /// Path of the new link.
        linkpath: &'a str,
    } => "symlink", Fs;
    /// `chdir(2)`.
    Chdir {
        /// New working directory.
        path: &'a str,
    } => "chdir", Fs;
    /// `readdir(3)`.
    Readdir {
        /// Directory to list.
        path: &'a str,
    } => "readdir", Fs;
    /// `pipe(2)`.
    Pipe => "pipe", Fs;
    // ------------------------------------------------------------- id --
    /// `setuid(2)`.
    Setuid {
        /// Target uid.
        uid: Uid,
    } => "setuid", Id;
    /// `seteuid(2)`.
    Seteuid {
        /// Target effective uid.
        uid: Uid,
    } => "seteuid", Id;
    /// `setgid(2)`.
    Setgid {
        /// Target gid.
        gid: Gid,
    } => "setgid", Id;
    /// `setgroups(2)`.
    Setgroups {
        /// New supplementary group list.
        groups: &'a [Gid],
    } => "setgroups", Id;
    /// `getuid(2)`.
    Getuid => "getuid", Id;
    /// `geteuid(2)`.
    Geteuid => "geteuid", Id;
    /// `getgid(2)`.
    Getgid => "getgid", Id;
    // ---------------------------------------------------------- ioctl --
    /// `ioctl(2)` on a device fd.
    Ioctl {
        /// Device descriptor.
        fd: i32,
        /// Command.
        cmd: IoctlCmd,
    } => "ioctl", Ioctl;
    // ---------------------------------------------------------- mount --
    /// `mount(2)`.
    Mount {
        /// Device or pseudo-fs source.
        source: &'a str,
        /// Mountpoint path.
        target: &'a str,
        /// Filesystem type.
        fstype: &'a str,
        /// Comma-separated options.
        options: &'a str,
    } => "mount", Mount;
    /// `umount(2)`.
    Umount {
        /// Mountpoint path.
        target: &'a str,
    } => "umount", Mount;
    // ------------------------------------------------------------ net --
    /// `socket(2)`.
    Socket {
        /// Address family.
        domain: Domain,
        /// Socket type.
        stype: SockType,
        /// Protocol number.
        protocol: u8,
    } => "socket", Net;
    /// `bind(2)`.
    Bind {
        /// Socket descriptor.
        fd: i32,
        /// Local address.
        addr: Ipv4,
        /// Local port.
        port: u16,
    } => "bind", Net;
    /// `listen(2)`.
    Listen {
        /// Socket descriptor.
        fd: i32,
    } => "listen", Net;
    /// `connect(2)`.
    Connect {
        /// Socket descriptor.
        fd: i32,
        /// Remote address.
        addr: Ipv4,
        /// Remote port.
        port: u16,
    } => "connect", Net;
    /// `accept(2)`.
    Accept {
        /// Listening descriptor.
        fd: i32,
    } => "accept", Net;
    /// `send(2)` on a connected socket.
    Send {
        /// Socket descriptor.
        fd: i32,
        /// Payload.
        data: &'a [u8],
    } => "send", Net;
    /// `recv(2)` on a connected socket — appends up to `max` bytes to the
    /// caller buffer.
    Recv {
        /// Socket descriptor.
        fd: i32,
        /// Maximum byte count.
        max: usize,
    } => "recv", Net;
    /// Raw packet reception.
    RecvPacket {
        /// Raw/packet socket descriptor.
        fd: i32,
    } => "recv_packet", Net;
    /// `sendto(2)` on a UDP socket.
    Sendto {
        /// Socket descriptor.
        fd: i32,
        /// Destination address.
        addr: Ipv4,
        /// Destination port.
        port: u16,
        /// Payload.
        data: &'a [u8],
    } => "sendto", Net;
    /// Raw packet transmission (caller-built headers).
    SendPacket {
        /// Raw/packet socket descriptor.
        fd: i32,
        /// The packet, headers included.
        pkt: Packet,
    } => "send_packet", Net;
    /// `socketpair(2)`.
    Socketpair => "socketpair", Net;
    /// Netfilter administration (the iptables backend).
    Netfilter {
        /// Chain operation.
        op: NetfilterOp,
    } => "netfilter", Net;
    /// Lists the OUTPUT-chain rules.
    NetfilterList => "netfilter_list", Net;
    /// Routing-table ioctls (`SIOCADDRT`/`SIOCDELRT`).
    IoctlRoute {
        /// Route operation.
        op: RouteOp,
    } => "ioctl_route", Net;
    // -------------------------------------------------------- process --
    /// `fork(2)`.
    Fork => "fork", Process;
    /// `execve(2)`.
    Execve {
        /// Program path.
        path: &'a str,
    } => "execve", Process;
    /// `unshare(2)`.
    Unshare {
        /// Namespace kind to unshare.
        kind: NsKind,
    } => "unshare", Process;
    /// `exit(2)`.
    Exit {
        /// Exit status.
        status: i32,
    } => "exit", Process;
    /// `waitpid(2)`.
    Wait {
        /// Child to reap.
        child: Pid,
    } => "wait", Process;
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
    /// A byte count (write, send, sendto, and read/recv through
    /// [`Kernel::dispatch_into`]) or resulting offset (lseek).
    Size(usize),
    /// Bytes read/received, through [`Kernel::dispatch`].
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
    Path(AbsPath),
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

    /// Descriptor-pair result.
    pub fn fd_pair(self) -> KResult<(i32, i32)> {
        match self {
            SysRet::FdPair(a, b) => Ok((a, b)),
            SysRet::Err(e) => Err(e),
            other => unreachable!("ABI mismatch: expected FdPair, got {:?}", other),
        }
    }
}

/// The payload accessors of one shape: `$get` unwraps `SysRet::$Variant`
/// into `Ok`, an `Err` into `Err`, and any other variant is an ABI
/// mismatch.
macro_rules! payload_accessors {
    ($($(#[$doc:meta])* $get:ident -> $T:ty = $Variant:ident;)*) => {
        impl SysRet {
            $(
                $(#[$doc])*
                pub fn $get(self) -> KResult<$T> {
                    match self {
                        SysRet::$Variant(v) => Ok(v),
                        SysRet::Err(e) => Err(e),
                        other => unreachable!(
                            concat!("ABI mismatch: expected ", stringify!($Variant), ", got {:?}"),
                            other
                        ),
                    }
                }
            )*
        }
    };
}

payload_accessors! {
    /// File-descriptor result.
    fd -> i32 = Fd;
    /// Byte-count/offset result.
    size -> usize = Size;
    /// Byte-payload result.
    data -> Vec<u8> = Data;
    /// Name-list result.
    names -> Vec<String> = Names;
    /// Stat result.
    stat -> Stat = Stat;
    /// Ioctl result.
    ioctl -> IoctlOut = Ioctl;
    /// Packet result.
    packet -> Packet = Packet;
    /// Uid result.
    uid -> Uid = Uid;
    /// Gid result.
    gid -> Gid = Gid;
    /// Pid result.
    pid -> Pid = Pid;
    /// Path result.
    path -> AbsPath = Path;
    /// Exit-status result.
    status -> i32 = Status;
    /// Netfilter rule-list result.
    rules -> Vec<NetfilterRule> = Rules;
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
fn interceptor_rule(who: &str, call: &Syscall<'_>) -> Name {
    Name::intern(&format!("{}:{}:{}", who, call.name(), call.class().name()))
}

impl Syscall<'_> {
    /// Whether the call's bytes go to the caller buffer (`read`, `recv`).
    fn fills_buffer(&self) -> bool {
        matches!(self, Syscall::Read { .. } | Syscall::Recv { .. })
    }
}

impl Kernel {
    /// Dispatches a typed syscall through the interceptor chain; a
    /// `read` or `recv` answers its bytes as [`SysRet::Data`].
    ///
    /// This is the `Vec`-returning form of [`Kernel::dispatch_into`]: it
    /// hands that a fresh buffer and moves the buffer into the response.
    pub fn dispatch(&self, pid: Pid, call: Syscall<'_>) -> SysRet {
        let fills = call.fills_buffer();
        let mut buf = Vec::new();
        match self.dispatch_into(pid, call, &mut buf) {
            SysRet::Size(_) if fills => SysRet::Data(buf),
            ret => ret,
        }
    }

    /// Dispatches a typed syscall through the interceptor chain. A `read`
    /// or `recv` appends its bytes to `buf` and answers
    /// [`SysRet::Size`]; every other call leaves `buf` alone.
    ///
    /// Interceptor `before` hooks run in registration order; the first to
    /// return an errno short-circuits the call (the kernel entry point is
    /// never reached and an `interceptor`-provenance audit event records
    /// the injection). `after` hooks run in reverse order and always see
    /// the final response, injected or real; for a `read` or `recv` that
    /// response is [`SysRet::Data`] with a copy of the appended bytes, the
    /// same value [`Kernel::dispatch`] returns.
    ///
    /// With no interceptor registered (see [`Kernel::interceptors_armed`])
    /// the call goes straight to its entry point: no chain lock, no
    /// [`TaskIdentity`](crate::task::TaskIdentity) snapshot, no hook pass
    /// and no copy.
    pub fn dispatch_into(&self, pid: Pid, call: Syscall<'_>, buf: &mut Vec<u8>) -> SysRet {
        let _dispatch_span = trace::span(trace::Pathway::Dispatch);
        if !self.interceptors_armed() {
            return self.dispatch_body(pid, &call, buf);
        }
        // Snapshot the chain's shared handles under a brief read lock, so
        // hooks run without holding any kernel lock (an interceptor may
        // itself consult kernel state) and concurrent dispatches do not
        // serialize on the chain. Short chains (the overwhelmingly common
        // case) snapshot into a stack array so dispatch entry touches no
        // heap; longer chains spill to a clone.
        const IC_INLINE: usize = 4;
        let mut inline: [Option<Arc<dyn Interceptor>>; IC_INLINE] = [None, None, None, None];
        let mut spill: Vec<Arc<dyn Interceptor>> = Vec::new();
        {
            let guard = self.interceptors.read();
            if guard.len() <= IC_INLINE {
                for (slot, ic) in inline.iter_mut().zip(guard.iter()) {
                    *slot = Some(ic.clone());
                }
            } else {
                spill = guard.clone();
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
            None => self.dispatch_body(pid, &call, buf),
        };
        {
            let _after_span = trace::span(trace::Pathway::InterceptAfter);
            // The one copy of the borrowed ABI: after hooks see a
            // read/recv's bytes as `Data`, as `dispatch` returns them.
            let data = match ret {
                SysRet::Size(n) if call.fills_buffer() => {
                    Some(SysRet::Data(buf[buf.len() - n..].to_vec()))
                }
                _ => None,
            };
            let seen = data.as_ref().unwrap_or(&ret);
            for ic in chain().rev() {
                let mut ctx = SysCtx {
                    clock: self.clock(),
                    task,
                };
                ic.after(pid, &call, seen, &mut ctx);
            }
        }
        ret
    }

    /// Runs the entry point under its class span. The arena scope trims
    /// any pooled path buffers borrowed below back to bounds when the
    /// dispatch exits (§14 reset discipline).
    fn dispatch_body(&self, pid: Pid, call: &Syscall<'_>, buf: &mut Vec<u8>) -> SysRet {
        let _body_span = trace::span(trace::Pathway::for_class(call.class()));
        crate::vfs::PathArena::scope(|_| self.dispatch_inner(pid, call, buf))
    }

    /// The total request→entry-point mapping behind
    /// [`Kernel::dispatch_into`].
    fn dispatch_inner(&self, pid: Pid, call: &Syscall<'_>, buf: &mut Vec<u8>) -> SysRet {
        match call {
            Syscall::Open { path, flags } => wrap(self.sys_open(pid, path, *flags), SysRet::Fd),
            Syscall::Close { fd } => wrap(self.sys_close(pid, *fd), |()| SysRet::Unit),
            Syscall::Read { fd, count } => wrap(self.sys_read(pid, *fd, buf, *count), SysRet::Size),
            Syscall::Write { fd, data } => wrap(self.sys_write(pid, *fd, data), SysRet::Size),
            Syscall::Lseek { fd, offset, whence } => {
                wrap(self.sys_lseek(pid, *fd, *offset, *whence), SysRet::Size)
            }
            Syscall::Stat { path } => wrap(self.sys_stat(pid, path), SysRet::Stat),
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
            Syscall::Recv { fd, max } => wrap(self.sys_recv(pid, *fd, buf, *max), SysRet::Size),
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
