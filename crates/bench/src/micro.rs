//! lmbench-style microbenchmarks: one entry per Table 5 micro row,
//! including the five extra tests the paper adds for the modified system
//! calls (mount/umount, setuid, setgid, ioctl, bind).

use crate::Fixture;
use sim_kernel::dev::ModemOpt;
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::syscall::{IoctlCmd, OpenFlags, Whence};
use sim_kernel::vfs::Mode;

/// Per-op prepared state (descriptors etc. created once, reused across
/// iterations — lmbench's methodology).
#[derive(Default, Debug)]
pub struct Prepared {
    /// File/socket descriptors, op-defined ordering.
    pub fds: Vec<i32>,
    /// Auxiliary value (e.g. a port number).
    pub aux: u64,
}

/// One microbenchmark.
pub struct MicroOp {
    /// Row name, matching Table 5.
    pub name: &'static str,
    /// The paper's Linux measurement in microseconds.
    pub paper_linux_us: Option<f64>,
    /// The paper's Protego measurement in microseconds.
    pub paper_protego_us: Option<f64>,
    /// One-time setup.
    pub prepare: fn(&mut Fixture) -> Prepared,
    /// One iteration of the operation.
    pub run: fn(&mut Fixture, &Prepared),
}

fn no_prep(_f: &mut Fixture) -> Prepared {
    Prepared::default()
}

fn prep_rw_file(f: &mut Fixture) -> Prepared {
    f.sys
        .kernel
        .write_file(f.user, "/tmp/bench.dat", b"0123456789abcdef", Mode(0o644))
        .expect("bench file");
    let fd = f
        .sys
        .kernel
        .sys_open(f.user, "/tmp/bench.dat", OpenFlags::read_write())
        .expect("open");
    Prepared {
        fds: vec![fd],
        aux: 0,
    }
}

fn prep_modem(f: &mut Fixture) -> Prepared {
    let fd = f
        .sys
        .kernel
        .sys_open(f.root, "/dev/ttyS0", OpenFlags::read_write())
        .expect("modem open");
    Prepared {
        fds: vec![fd],
        aux: 0,
    }
}

fn prep_socketpair(f: &mut Fixture) -> Prepared {
    let (a, b) = f.sys.kernel.sys_socketpair(f.user).expect("socketpair");
    Prepared {
        fds: vec![a, b],
        aux: 0,
    }
}

fn prep_pipe(f: &mut Fixture) -> Prepared {
    let (r, w) = f.sys.kernel.sys_pipe(f.user).expect("pipe");
    Prepared {
        fds: vec![r, w],
        aux: 0,
    }
}

fn prep_tcp_listener(f: &mut Fixture) -> Prepared {
    let srv = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
        .expect("socket");
    f.sys
        .kernel
        .sys_bind(f.user, srv, Ipv4::ANY, 9090)
        .expect("bind");
    f.sys.kernel.sys_listen(f.user, srv).expect("listen");
    Prepared {
        fds: vec![srv],
        aux: 9090,
    }
}

fn prep_tcp_pair(f: &mut Fixture) -> Prepared {
    // A dedicated port: the "TCP connect" row owns 9090.
    let srv = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
        .expect("socket");
    f.sys
        .kernel
        .sys_bind(f.user, srv, Ipv4::ANY, 9092)
        .expect("bind");
    f.sys.kernel.sys_listen(f.user, srv).expect("listen");
    let cli = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
        .expect("socket");
    f.sys
        .kernel
        .sys_connect(f.user, cli, Ipv4::LOOPBACK, 9092)
        .expect("connect");
    let conn = f.sys.kernel.sys_accept(f.user, srv).expect("accept");
    Prepared {
        fds: vec![cli, conn],
        aux: 0,
    }
}

fn prep_udp_pair(f: &mut Fixture) -> Prepared {
    let rx = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Dgram, 0)
        .expect("socket");
    f.sys
        .kernel
        .sys_bind(f.user, rx, Ipv4::ANY, 9091)
        .expect("bind");
    let tx = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Dgram, 0)
        .expect("socket");
    Prepared {
        fds: vec![tx, rx],
        aux: 9091,
    }
}

fn prep_remote_udp(f: &mut Fixture) -> Prepared {
    let fd = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Dgram, 0)
        .expect("socket");
    Prepared {
        fds: vec![fd],
        aux: 0,
    }
}

fn prep_remote_tcp(f: &mut Fixture) -> Prepared {
    let fd = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
        .expect("socket");
    f.sys
        .kernel
        .sys_connect(f.user, fd, Ipv4::new(8, 8, 8, 8), 7)
        .expect("connect echo");
    Prepared {
        fds: vec![fd],
        aux: 0,
    }
}

/// All Table 5 micro rows.
pub fn all_micro_ops() -> Vec<MicroOp> {
    vec![
        MicroOp {
            name: "syscall",
            paper_linux_us: Some(0.04),
            paper_protego_us: Some(0.04),
            prepare: no_prep,
            run: |f, _| {
                let _ = f.sys.kernel.sys_getuid(f.user);
            },
        },
        MicroOp {
            name: "read",
            paper_linux_us: Some(0.09),
            paper_protego_us: Some(0.09),
            prepare: prep_rw_file,
            run: |f, p| {
                let _ = f.sys.kernel.sys_lseek(f.user, p.fds[0], 0, Whence::Set);
                let mut buf = Vec::with_capacity(1);
                let _ = f.sys.kernel.sys_read(f.user, p.fds[0], &mut buf, 1);
            },
        },
        MicroOp {
            name: "write",
            paper_linux_us: Some(0.09),
            paper_protego_us: Some(0.09),
            prepare: prep_rw_file,
            run: |f, p| {
                let _ = f.sys.kernel.sys_lseek(f.user, p.fds[0], 0, Whence::Set);
                let _ = f.sys.kernel.sys_write(f.user, p.fds[0], b"x");
            },
        },
        MicroOp {
            name: "stat",
            paper_linux_us: Some(0.34),
            paper_protego_us: Some(0.33),
            prepare: no_prep,
            run: |f, _| {
                let _ = f.sys.kernel.sys_stat(f.user, "/etc/motd");
            },
        },
        MicroOp {
            name: "open/close",
            paper_linux_us: Some(1.17),
            paper_protego_us: Some(1.17),
            prepare: no_prep,
            run: |f, _| {
                if let Ok(fd) = f
                    .sys
                    .kernel
                    .sys_open(f.user, "/etc/motd", OpenFlags::read_only())
                {
                    let _ = f.sys.kernel.sys_close(f.user, fd);
                }
            },
        },
        MicroOp {
            name: "mount/umnt",
            paper_linux_us: Some(525.15),
            paper_protego_us: Some(531.13),
            prepare: no_prep,
            run: |f, _| {
                let _ = f
                    .sys
                    .kernel
                    .sys_mount(f.root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro");
                let _ = f.sys.kernel.sys_umount(f.root, "/mnt/cdrom");
            },
        },
        MicroOp {
            name: "setuid",
            paper_linux_us: Some(0.82),
            paper_protego_us: Some(0.83),
            prepare: no_prep,
            run: |f, _| {
                let uid = f.sys.kernel.sys_getuid(f.user).unwrap();
                let _ = f.sys.kernel.sys_setuid(f.user, uid);
            },
        },
        MicroOp {
            name: "setgid",
            paper_linux_us: Some(0.82),
            paper_protego_us: Some(0.83),
            prepare: no_prep,
            run: |f, _| {
                let gid = f.sys.kernel.sys_getgid(f.user).unwrap();
                let _ = f.sys.kernel.sys_setgid(f.user, gid);
            },
        },
        MicroOp {
            name: "ioctl",
            paper_linux_us: Some(2.76),
            paper_protego_us: Some(2.78),
            prepare: prep_modem,
            run: |f, p| {
                let _ = f.sys.kernel.sys_ioctl(
                    f.root,
                    p.fds[0],
                    IoctlCmd::Modem(ModemOpt::Baud(57600)),
                );
            },
        },
        MicroOp {
            name: "bind",
            paper_linux_us: Some(1.77),
            paper_protego_us: Some(1.81),
            prepare: no_prep,
            run: |f, _| {
                if let Ok(fd) = f
                    .sys
                    .kernel
                    .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
                {
                    let _ = f.sys.kernel.sys_bind(f.user, fd, Ipv4::ANY, 8088);
                    let _ = f.sys.kernel.sys_close(f.user, fd);
                }
            },
        },
        MicroOp {
            name: "fork+exit",
            paper_linux_us: Some(159.00),
            paper_protego_us: Some(158.00),
            prepare: no_prep,
            run: |f, _| {
                if let Ok(child) = f.sys.kernel.sys_fork(f.user) {
                    let _ = f.sys.kernel.sys_exit(child, 0);
                    let _ = f.sys.kernel.sys_wait(f.user, child);
                }
            },
        },
        MicroOp {
            name: "fork+execve",
            paper_linux_us: Some(554.00),
            paper_protego_us: Some(573.00),
            prepare: no_prep,
            run: |f, _| {
                let _ = f.sys.run(f.user, "/bin/id", &[], &[]);
            },
        },
        MicroOp {
            name: "fork+/bin/sh",
            paper_linux_us: Some(1360.00),
            paper_protego_us: Some(1413.00),
            prepare: no_prep,
            run: |f, _| {
                let _ = f.sys.run(f.user, "/bin/sh", &[], &[]);
            },
        },
        MicroOp {
            name: "0KB create+delete",
            paper_linux_us: Some(5.57 + 3.93),
            paper_protego_us: Some(5.43 + 3.79),
            prepare: no_prep,
            run: |f, _| {
                let _ = f.sys.kernel.write_file(f.user, "/tmp/c0", b"", Mode(0o644));
                let _ = f.sys.kernel.sys_unlink(f.user, "/tmp/c0");
            },
        },
        MicroOp {
            name: "10KB create+delete",
            paper_linux_us: Some(11.00 + 5.90),
            paper_protego_us: Some(10.80 + 5.85),
            prepare: no_prep,
            run: |f, _| {
                let data = [0u8; 10 * 1024];
                let _ = f
                    .sys
                    .kernel
                    .write_file(f.user, "/tmp/c10", &data, Mode(0o644));
                let _ = f.sys.kernel.sys_unlink(f.user, "/tmp/c10");
            },
        },
        MicroOp {
            name: "AF_UNIX",
            paper_linux_us: Some(9.30),
            paper_protego_us: Some(9.69),
            prepare: prep_socketpair,
            run: |f, p| {
                let _ = f.sys.kernel.sys_send(f.user, p.fds[0], b"x");
                let mut buf = Vec::with_capacity(1);
                let _ = f.sys.kernel.sys_recv(f.user, p.fds[1], &mut buf, 1);
            },
        },
        MicroOp {
            name: "Pipe",
            paper_linux_us: Some(6.73),
            paper_protego_us: Some(6.88),
            prepare: prep_pipe,
            run: |f, p| {
                let _ = f.sys.kernel.sys_write(f.user, p.fds[1], b"x");
                let mut buf = Vec::with_capacity(1);
                let _ = f.sys.kernel.sys_read(f.user, p.fds[0], &mut buf, 1);
            },
        },
        MicroOp {
            name: "TCP connect",
            paper_linux_us: Some(18.00),
            paper_protego_us: Some(18.55),
            prepare: prep_tcp_listener,
            run: |f, _| {
                if let Ok(cli) = f
                    .sys
                    .kernel
                    .sys_socket(f.user, Domain::Inet, SockType::Stream, 0)
                {
                    let _ = f.sys.kernel.sys_connect(f.user, cli, Ipv4::LOOPBACK, 9090);
                    let _ = f.sys.kernel.sys_close(f.user, cli);
                }
            },
        },
        MicroOp {
            name: "Local TCP lat",
            paper_linux_us: Some(19.63),
            paper_protego_us: Some(20.87),
            prepare: prep_tcp_pair,
            run: |f, p| {
                let mut buf = Vec::with_capacity(4);
                let _ = f.sys.kernel.sys_send(f.user, p.fds[0], b"ping");
                let _ = f.sys.kernel.sys_recv(f.user, p.fds[1], &mut buf, 4);
                buf.clear();
                let _ = f.sys.kernel.sys_send(f.user, p.fds[1], b"pong");
                let _ = f.sys.kernel.sys_recv(f.user, p.fds[0], &mut buf, 4);
            },
        },
        MicroOp {
            name: "Local UDP lat",
            paper_linux_us: Some(16.70),
            paper_protego_us: Some(17.90),
            prepare: prep_udp_pair,
            run: |f, p| {
                let _ =
                    f.sys
                        .kernel
                        .sys_sendto(f.user, p.fds[0], Ipv4::LOOPBACK, p.aux as u16, b"x");
                let _ = f.sys.kernel.sys_recv_packet(f.user, p.fds[1]);
            },
        },
        MicroOp {
            name: "Rem. UDP lat",
            paper_linux_us: Some(543.60),
            paper_protego_us: Some(578.30),
            prepare: prep_remote_udp,
            run: |f, p| {
                let _ = f
                    .sys
                    .kernel
                    .sys_sendto(f.user, p.fds[0], Ipv4::new(8, 8, 8, 8), 7, b"x");
                let _ = f.sys.kernel.sys_recv_packet(f.user, p.fds[0]);
            },
        },
        MicroOp {
            name: "Rem. TCP lat",
            paper_linux_us: Some(588.10),
            paper_protego_us: Some(631.50),
            prepare: prep_remote_tcp,
            run: |f, p| {
                let _ = f.sys.kernel.sys_send(f.user, p.fds[0], b"x");
                let mut buf = Vec::with_capacity(1);
                let _ = f.sys.kernel.sys_recv(f.user, p.fds[0], &mut buf, 1);
            },
        },
        MicroOp {
            name: "Pipe BW (64KB)",
            paper_linux_us: Some(64.0 * 1024.0 / 5316.60),
            paper_protego_us: Some(64.0 * 1024.0 / 5170.69),
            prepare: prep_pipe,
            run: |f, p| {
                let data = [7u8; 64 * 1024];
                let _ = f.sys.kernel.sys_write(f.user, p.fds[1], &data);
                let mut buf = Vec::with_capacity(64 * 1024);
                let _ = f.sys.kernel.sys_read(f.user, p.fds[0], &mut buf, 64 * 1024);
            },
        },
    ]
}

/// Cost of the typed-ABI boundary itself: the same `stat` measured two
/// ways as a [`paired_median`](crate::paired_median) — direct `sys_stat`
/// (baseline), and through [`sim_kernel::kernel::Kernel::dispatch`] with
/// an empty interceptor chain.
pub fn dispatch_overhead(f: &mut Fixture, warmup: u32, iters: u32) -> crate::Paired {
    use sim_kernel::syscall::Syscall;

    let sys = &mut f.sys;
    let user = f.user;
    crate::paired_median(|dispatched| {
        if dispatched {
            crate::quick_time_ns(warmup, iters, || {
                let _ = sys
                    .kernel
                    .dispatch(user, Syscall::Stat { path: "/etc/motd" });
            })
        } else {
            crate::quick_time_ns(warmup, iters, || {
                let _ = sys.kernel.sys_stat(user, "/etc/motd");
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use userland::SystemMode;

    #[test]
    fn every_op_runs_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut f = fixture(mode);
            for op in all_micro_ops() {
                let p = (op.prepare)(&mut f);
                for _ in 0..3 {
                    (op.run)(&mut f, &p);
                }
            }
        }
    }

    #[test]
    fn dispatch_overhead_measures_both_ways() {
        let mut f = fixture(SystemMode::Protego);
        let p = dispatch_overhead(&mut f, 2, 20);
        assert!(p.base_ns() > 0.0 && p.variant_ns() > 0.0);
    }

    #[test]
    fn ops_cover_the_modified_syscalls() {
        let names: Vec<_> = all_micro_ops().iter().map(|o| o.name).collect();
        for required in ["mount/umnt", "setuid", "setgid", "ioctl", "bind"] {
            assert!(names.contains(&required), "missing {}", required);
        }
        assert!(names.len() >= 20);
    }
}
