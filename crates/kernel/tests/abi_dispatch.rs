//! The dispatch boundary is a *total, transparent* mapping: every
//! [`Syscall`] variant routed through [`Kernel::dispatch`] must behave
//! exactly like the corresponding direct `sys_*` call — same return
//! value, same state transitions, same audit stream. These tests drive a
//! twin pair of kernels (one direct, one dispatched) through every
//! variant, then exercise the interceptor stack: hook ordering,
//! deterministic fault injection, one-shot faults, and trace recording.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::net::{Domain, Ipv4, Packet, SimNet, SockType};
use sim_kernel::syscall::{
    FaultConfig, FaultInjector, Interceptor, IoctlCmd, NetfilterOp, OpenFlags, RouteOp, SysCtx,
    SysRet, Syscall, Verdict, Whence,
};
use sim_kernel::task::{NsKind, Pid};
use sim_kernel::trace::{DecisionKind, Hook, TraceRecorder};
use sim_kernel::vfs::Mode;
use std::sync::{Arc, Mutex};

fn boot() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.vfs.mkdir_p("/tmp").unwrap();
    k.vfs.mkdir_p("/mnt/cdrom").unwrap();
    let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
    k.vfs.inode_mut(t).mode = Mode(0o1777);
    k.install_standard_devices().unwrap();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    (k, root, user)
}

/// Runs the same logical call on the direct kernel and the dispatched
/// kernel and asserts the observable outcome matches.
macro_rules! same {
    ($direct:expr, $via:expr) => {{
        let d = $direct;
        let v = $via;
        assert_eq!(d, v, "direct and dispatched outcomes diverge");
    }};
}

/// Like [`same!`], but yields the (matching) direct result.
macro_rules! same_val {
    ($direct:expr, $via:expr) => {{
        let d = $direct;
        let v = $via;
        assert_eq!(d, v, "direct and dispatched outcomes diverge");
        d
    }};
}

/// Every `Syscall` variant, dispatched, behaves exactly like the direct
/// entry point — on success paths and denial paths alike — and the two
/// kernels end with identical audit streams.
#[test]
fn dispatch_is_equivalent_to_direct_for_every_variant() {
    let (kd, rootd, userd) = boot();
    let (kv, rootv, userv) = boot();
    assert_eq!(rootd, rootv);
    assert_eq!(userd, userv);
    let (root, user) = (rootd, userd);

    // ----- fs -----
    same!(
        kd.sys_mkdir(user, "/tmp/d", Mode(0o755)),
        kv.dispatch(
            user,
            Syscall::Mkdir {
                path: "/tmp/d",
                mode: Mode(0o755),
            },
        )
        .unit()
    );
    let fd = same_val!(
        kd.sys_open(user, "/tmp/d/f", OpenFlags::create_trunc(Mode(0o644))),
        kv.dispatch(
            user,
            Syscall::Open {
                path: "/tmp/d/f",
                flags: OpenFlags::create_trunc(Mode(0o644)),
            },
        )
        .fd()
    )
    .unwrap();
    same!(
        kd.sys_write(user, fd, b"hello, abi"),
        kv.dispatch(
            user,
            Syscall::Write {
                fd,
                data: b"hello, abi",
            },
        )
        .size()
    );
    for (offset, whence) in [(0, Whence::Set), (-4, Whence::Cur), (-10, Whence::End)] {
        same!(
            kd.sys_lseek(user, fd, offset, whence),
            kv.dispatch(user, Syscall::Lseek { fd, offset, whence })
                .size()
        );
    }
    {
        let mut buf = Vec::new();
        let dn = kd.sys_read(user, fd, &mut buf, 5);
        let vr = kv.dispatch(user, Syscall::Read { fd, count: 5 }).data();
        assert_eq!(dn.map(|_| buf), vr);
    }
    same!(
        kd.sys_stat(user, "/tmp/d/f"),
        kv.dispatch(user, Syscall::Stat { path: "/tmp/d/f" },)
            .stat()
    );
    same!(
        kd.sys_symlink(user, "/tmp/d/f", "/tmp/d/l"),
        kv.dispatch(
            user,
            Syscall::Symlink {
                target: "/tmp/d/f",
                linkpath: "/tmp/d/l",
            },
        )
        .unit()
    );
    same!(
        kd.sys_chmod(user, "/tmp/d/f", Mode(0o600)),
        kv.dispatch(
            user,
            Syscall::Chmod {
                path: "/tmp/d/f",
                mode: Mode(0o600),
            },
        )
        .unit()
    );
    // chown: denied for the user, permitted for root — both paths.
    same!(
        kd.sys_chown(user, "/tmp/d/f", Some(Uid::ROOT), None),
        kv.dispatch(
            user,
            Syscall::Chown {
                path: "/tmp/d/f",
                uid: Some(Uid::ROOT),
                gid: None,
            },
        )
        .unit()
    );
    same!(
        kd.sys_chown(root, "/tmp/d/f", None, Some(Gid(1000))),
        kv.dispatch(
            root,
            Syscall::Chown {
                path: "/tmp/d/f",
                uid: None,
                gid: Some(Gid(1000)),
            },
        )
        .unit()
    );
    same!(
        kd.sys_readdir(user, "/tmp/d"),
        kv.dispatch(user, Syscall::Readdir { path: "/tmp/d" },)
            .names()
    );
    same!(
        kd.sys_rename(user, "/tmp/d/f", "/tmp/d/g"),
        kv.dispatch(
            user,
            Syscall::Rename {
                from: "/tmp/d/f",
                to: "/tmp/d/g",
            },
        )
        .unit()
    );
    same!(
        kd.sys_chdir(user, "/tmp/d"),
        kv.dispatch(user, Syscall::Chdir { path: "/tmp/d" },).unit()
    );
    same!(
        kd.sys_close(user, fd),
        kv.dispatch(user, Syscall::Close { fd }).unit()
    );
    same!(
        kd.sys_unlink(user, "/tmp/d/g"),
        kv.dispatch(user, Syscall::Unlink { path: "/tmp/d/g" },)
            .unit()
    );
    same!(
        kd.sys_unlink(user, "/tmp/d/l"),
        kv.dispatch(user, Syscall::Unlink { path: "/tmp/d/l" },)
            .unit()
    );
    same!(
        kd.sys_chdir(user, "/"),
        kv.dispatch(user, Syscall::Chdir { path: "/" }).unit()
    );
    same!(
        kd.sys_rmdir(user, "/tmp/d"),
        kv.dispatch(user, Syscall::Rmdir { path: "/tmp/d" },).unit()
    );
    same!(
        kd.sys_pipe(user),
        kv.dispatch(user, Syscall::Pipe).fd_pair()
    );

    // ----- id -----
    same!(
        kd.sys_setuid(user, Uid::ROOT),
        kv.dispatch(user, Syscall::Setuid { uid: Uid::ROOT }).unit()
    );
    same!(
        kd.sys_seteuid(user, Uid(1000)),
        kv.dispatch(user, Syscall::Seteuid { uid: Uid(1000) })
            .unit()
    );
    same!(
        kd.sys_setgid(user, Gid(1000)),
        kv.dispatch(user, Syscall::Setgid { gid: Gid(1000) }).unit()
    );
    same!(
        kd.sys_setgroups(root, &[Gid(0), Gid(24)]),
        kv.dispatch(
            root,
            Syscall::Setgroups {
                groups: &[Gid(0), Gid(24)],
            },
        )
        .unit()
    );
    same!(
        kd.sys_getuid(user),
        kv.dispatch(user, Syscall::Getuid).uid()
    );
    same!(
        kd.sys_geteuid(user),
        kv.dispatch(user, Syscall::Geteuid).uid()
    );
    same!(
        kd.sys_getgid(user),
        kv.dispatch(user, Syscall::Getgid).gid()
    );

    // ----- ioctl -----
    same!(
        kd.sys_ioctl(user, 99, IoctlCmd::Eject),
        kv.dispatch(
            user,
            Syscall::Ioctl {
                fd: 99,
                cmd: IoctlCmd::Eject,
            },
        )
        .ioctl()
    );

    // ----- mount -----
    same!(
        kd.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"),
        kv.dispatch(
            root,
            Syscall::Mount {
                source: "/dev/cdrom",
                target: "/mnt/cdrom",
                fstype: "iso9660",
                options: "ro",
            },
        )
        .unit()
    );
    same!(
        kd.sys_umount(root, "/mnt/cdrom"),
        kv.dispatch(
            root,
            Syscall::Umount {
                target: "/mnt/cdrom",
            },
        )
        .unit()
    );

    // ----- net -----
    let sock = same_val!(
        kd.sys_socket(user, Domain::Inet, SockType::Dgram, 17),
        kv.dispatch(
            user,
            Syscall::Socket {
                domain: Domain::Inet,
                stype: SockType::Dgram,
                protocol: 17,
            },
        )
        .fd()
    )
    .unwrap();
    same!(
        kd.sys_bind(user, sock, Ipv4::ANY, 5353),
        kv.dispatch(
            user,
            Syscall::Bind {
                fd: sock,
                addr: Ipv4::ANY,
                port: 5353,
            },
        )
        .unit()
    );
    same!(
        kd.sys_listen(user, sock),
        kv.dispatch(user, Syscall::Listen { fd: sock }).unit()
    );
    same!(
        kd.sys_accept(user, sock),
        kv.dispatch(user, Syscall::Accept { fd: sock }).fd()
    );
    same!(
        kd.sys_connect(user, sock, Ipv4::LOOPBACK, 9),
        kv.dispatch(
            user,
            Syscall::Connect {
                fd: sock,
                addr: Ipv4::LOOPBACK,
                port: 9,
            },
        )
        .unit()
    );
    same!(
        kd.sys_send(user, sock, b"ping"),
        kv.dispatch(
            user,
            Syscall::Send {
                fd: sock,
                data: b"ping",
            },
        )
        .size()
    );
    same!(
        kd.sys_sendto(user, sock, Ipv4::LOOPBACK, 9, b"dgram"),
        kv.dispatch(
            user,
            Syscall::Sendto {
                fd: sock,
                addr: Ipv4::LOOPBACK,
                port: 9,
                data: b"dgram",
            },
        )
        .size()
    );
    same!(
        {
            let mut buf = Vec::new();
            kd.sys_recv(user, sock, &mut buf, 64).map(|_| buf)
        },
        kv.dispatch(user, Syscall::Recv { fd: sock, max: 64 })
            .data()
    );
    same!(
        kd.sys_recv_packet(user, sock),
        kv.dispatch(user, Syscall::RecvPacket { fd: sock }).packet()
    );
    let probe = Packet::echo_request(Ipv4::LOOPBACK, Ipv4::LOOPBACK, 1, 1, Uid(1000));
    same!(
        kd.sys_send_packet(user, sock, probe.clone()),
        kv.dispatch(
            user,
            Syscall::SendPacket {
                fd: sock,
                pkt: probe.clone(),
            },
        )
        .unit()
    );
    same!(
        kd.sys_socketpair(user),
        kv.dispatch(user, Syscall::Socketpair).fd_pair()
    );
    same!(
        kd.sys_netfilter(root, NetfilterOp::Flush),
        kv.dispatch(
            root,
            Syscall::Netfilter {
                op: NetfilterOp::Flush,
            },
        )
        .unit()
    );
    same!(
        kd.sys_netfilter_list(user),
        kv.dispatch(user, Syscall::NetfilterList).rules()
    );
    same!(
        kd.sys_ioctl_route(
            root,
            RouteOp::Del {
                dest: Ipv4::ANY,
                prefix: 0,
            },
        ),
        kv.dispatch(
            root,
            Syscall::IoctlRoute {
                op: RouteOp::Del {
                    dest: Ipv4::ANY,
                    prefix: 0,
                },
            },
        )
        .unit()
    );

    // ----- process -----
    let child = same_val!(kd.sys_fork(user), kv.dispatch(user, Syscall::Fork).pid()).unwrap();
    same!(
        kd.sys_execve(child, "/bin/true"),
        kv.dispatch(child, Syscall::Execve { path: "/bin/true" },)
            .path()
    );
    same!(
        kd.sys_unshare(child, NsKind::Mount),
        kv.dispatch(
            child,
            Syscall::Unshare {
                kind: NsKind::Mount
            }
        )
        .unit()
    );
    same!(
        kd.sys_exit(child, 7),
        kv.dispatch(child, Syscall::Exit { status: 7 }).unit()
    );
    same!(
        kd.sys_wait(user, child),
        kv.dispatch(user, Syscall::Wait { child }).status()
    );

    // The two kernels must have produced identical audit streams.
    let direct: Vec<String> = kd.audit.events().iter().map(|e| e.render()).collect();
    let via: Vec<String> = kv.audit.events().iter().map(|e| e.render()).collect();
    assert_eq!(
        direct, via,
        "audit streams diverge between direct and dispatched runs"
    );
    assert_eq!(kd.audit.next_seq(), kv.audit.next_seq());
}

/// Same seed + same call sequence → byte-identical injection pattern;
/// different seed → (almost surely) a different one.
#[test]
fn fault_injection_is_deterministic_under_a_fixed_seed() {
    let run = |seed: u64| -> Vec<bool> {
        let (k, _root, user) = boot();
        let inj = FaultInjector::new(FaultConfig::storm(seed, 10));
        let stats = inj.stats();
        k.register_interceptor(Box::new(inj));
        let pattern: Vec<bool> = (0..400)
            .map(|_| k.dispatch(user, Syscall::Stat { path: "/tmp" }).is_err())
            .collect();
        let s = stats.lock().unwrap();
        assert_eq!(s.seen, 400);
        assert!(s.injected > 0, "a 1-in-10 storm over 400 calls must fire");
        assert_eq!(s.injected, pattern.iter().filter(|&&b| b).count() as u64);
        pattern
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed must reproduce the same fault pattern");
    assert_ne!(a, c, "different seeds should perturb the fault pattern");
}

/// An injected fault is observable on the audit stream, attributed to
/// the interceptor, and never touches the credential getters.
#[test]
fn injected_faults_are_audited_and_getters_are_exempt() {
    let (k, _root, user) = boot();
    // rate 1 = inject on every eligible call.
    k.register_interceptor(Box::new(FaultInjector::new(FaultConfig::storm(7, 1))));
    let ret = k.dispatch(user, Syscall::Stat { path: "/tmp" });
    assert!(ret.is_err(), "rate-1 storm must fail the first fs call");
    let last = k.audit.last().expect("injection emits an audit event");
    let rule = last.provenance.rule.map_or("-", |r| r.as_str());
    assert!(
        last.provenance.hook == Hook::Interceptor
            && last.provenance.decision == DecisionKind::Deny
            && rule.starts_with("fault_injector:stat:"),
        "audit event should attribute the fault: {}",
        last.render()
    );
    // Credential getters are exempt even at rate 1 — a vulnerable binary
    // must always be able to ask who it is.
    assert!(k.dispatch(user, Syscall::Getuid).uid().is_ok());
    assert!(k.dispatch(user, Syscall::Geteuid).uid().is_ok());
    assert!(k.dispatch(user, Syscall::Getgid).gid().is_ok());
}

/// The one-shot plan fails exactly the k-th occurrence of the named
/// syscall — here, the second mount — and nothing else.
#[test]
fn one_shot_fails_exactly_the_kth_mount() {
    let (mut k, root, _user) = boot();
    k.register_interceptor(Box::new(FaultInjector::new(
        FaultConfig::storm(0, 0).with_one_shot("mount", 2, Errno::EIO),
    )));
    let mount = |k: &mut Kernel| {
        k.dispatch(
            root,
            Syscall::Mount {
                source: "/dev/cdrom",
                target: "/mnt/cdrom",
                fstype: "iso9660",
                options: "ro",
            },
        )
        .unit()
    };
    let umount = |k: &mut Kernel| {
        k.dispatch(
            root,
            Syscall::Umount {
                target: "/mnt/cdrom",
            },
        )
        .unit()
    };
    assert_eq!(mount(&mut k), Ok(()), "first mount is untouched");
    assert_eq!(umount(&mut k), Ok(()));
    assert_eq!(
        mount(&mut k),
        Err(Errno::EIO),
        "second mount takes the one-shot"
    );
    assert_eq!(mount(&mut k), Ok(()), "third mount is untouched again");
    assert_eq!(umount(&mut k), Ok(()));
}

/// Logs every hook it runs into a log shared by the whole chain; denies
/// `mkdir` when `deny` is set.
struct Probe {
    name: &'static str,
    deny: bool,
    log: Arc<Mutex<Vec<String>>>,
}

impl Interceptor for Probe {
    fn name(&self) -> &'static str {
        self.name
    }

    fn before(&self, _pid: Pid, call: &Syscall, _ctx: &mut SysCtx) -> Verdict {
        self.log
            .lock()
            .unwrap()
            .push(format!("before {}", self.name));
        match call {
            Syscall::Mkdir { .. } if self.deny => Verdict::Deny(Errno::EPERM),
            _ => Verdict::Continue,
        }
    }

    fn after(&self, _pid: Pid, _call: &Syscall, ret: &SysRet, _ctx: &mut SysCtx) {
        let seen = ret.err().map_or("ok", |e| e.name());
        self.log
            .lock()
            .unwrap()
            .push(format!("after {} {}", self.name, seen));
    }
}

/// The chain's contract: `before` hooks run in registration order, the
/// first `Deny` skips the later `before` hooks and the syscall body, and
/// `after` hooks run in reverse order, every one seeing the final
/// (here injected) response.
#[test]
fn chain_runs_before_in_order_stops_at_deny_and_unwinds_after() {
    let (k, _root, user) = boot();
    assert!(!k.interceptors_armed(), "a fresh kernel has no chain");
    let log = Arc::new(Mutex::new(Vec::new()));
    for (name, deny) in [("a", false), ("b", true), ("c", false)] {
        let log = log.clone();
        k.register_interceptor(Box::new(Probe { name, deny, log }));
    }
    assert!(k.interceptors_armed());

    let stat = k.dispatch(user, Syscall::Stat { path: "/tmp" });
    assert!(!stat.is_err());
    assert_eq!(
        std::mem::take(&mut *log.lock().unwrap()),
        [
            "before a",
            "before b",
            "before c",
            "after c ok",
            "after b ok",
            "after a ok"
        ]
    );

    let mkdir = k.dispatch(
        user,
        Syscall::Mkdir {
            path: "/tmp/denied",
            mode: Mode(0o755),
        },
    );
    assert_eq!(mkdir.err(), Some(Errno::EPERM));
    assert_eq!(
        *log.lock().unwrap(),
        [
            "before a",
            "before b",
            "after c EPERM",
            "after b EPERM",
            "after a EPERM"
        ]
    );
    assert!(
        k.vfs.resolve(k.vfs.root(), "/tmp/denied").is_err(),
        "a denied call never reaches its body"
    );
}

/// A recorder attached to a run captures the full (pid, call, ret)
/// stream; a second identical run replays it byte-for-byte.
#[test]
fn recorded_trace_replays_byte_identically() {
    let drive = |k: &mut Kernel, user: Pid| {
        let _ = k.dispatch(
            user,
            Syscall::Mkdir {
                path: "/tmp/t",
                mode: Mode(0o755),
            },
        );
        let fd = k
            .dispatch(
                user,
                Syscall::Open {
                    path: "/tmp/t/x",
                    flags: OpenFlags::create_trunc(Mode(0o644)),
                },
            )
            .fd()
            .unwrap();
        let _ = k.dispatch(
            user,
            Syscall::Write {
                fd,
                data: b"trace me",
            },
        );
        let _ = k.dispatch(user, Syscall::Close { fd });
        let _ = k.dispatch(user, Syscall::Getuid);
        let _ = k.dispatch(user, Syscall::Stat { path: "/tmp/t/x" });
    };

    let (mut k1, _r1, u1) = boot();
    let rec = TraceRecorder::new();
    let trace1 = rec.trace();
    k1.register_interceptor(Box::new(rec));
    drive(&mut k1, u1);
    let rendered = trace1.lock().unwrap().render();
    assert!(!trace1.lock().unwrap().is_empty());

    // Re-run from scratch: identical bytes.
    let (mut k2, _r2, u2) = boot();
    let rec2 = TraceRecorder::new();
    let trace2 = rec2.trace();
    k2.register_interceptor(Box::new(rec2));
    drive(&mut k2, u2);
    assert_eq!(rendered, trace2.lock().unwrap().render());

    // And the serialized form round-trips.
    let parsed = sim_kernel::trace::Trace::parse(&rendered).unwrap();
    assert_eq!(parsed.first_divergence(&trace2.lock().unwrap()), None);
}
