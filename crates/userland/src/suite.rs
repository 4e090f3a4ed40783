//! The functional-equivalence battery (§5.3).
//!
//! A deterministic script that exercises every studied utility — success
//! paths, policy denials, and authentication failures — on a booted
//! system. The equivalence test runs it on both images and compares
//! outcomes; the Table 7 generator runs it and reads the coverage
//! counters.

use crate::system::{RunResult, System, SystemMode};
use crate::workload::{self, Service};
use sim_kernel::cred::Uid;
use sim_kernel::error::KResult;
use sim_kernel::net::{Domain, Ipv4, Packet, Route, SockType, L4};
use sim_kernel::syscall::RouteOp;
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;

/// One step's observable outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Step name (stable across modes).
    pub name: &'static str,
    /// Exit code.
    pub code: i32,
    /// Whether the step succeeded (exit 0).
    pub ok: bool,
}

impl StepOutcome {
    /// Step `name`'s outcome: the exit of the command `r`.
    fn ran(name: &'static str, r: &RunResult) -> StepOutcome {
        StepOutcome {
            name,
            code: r.code,
            ok: r.ok(),
        }
    }

    /// Step `name`'s outcome: code 0 when it passed, else 1.
    fn passed(name: &'static str, ok: bool) -> StepOutcome {
        StepOutcome {
            name,
            code: if ok { 0 } else { 1 },
            ok,
        }
    }
}

/// Sessions used by the battery.
pub struct Sessions {
    /// root's shell.
    pub root: Pid,
    /// alice's shell (cdrom/dialout/staff member).
    pub alice: Pid,
    /// bob's shell (may print as alice).
    pub bob: Pid,
    /// carol's shell (admin group).
    pub carol: Pid,
}

/// Logs one user in, retrying a bounded number of times. A plain login
/// is infallible on a healthy image, but under fault injection any one
/// attempt may take a spurious `EINTR`/`ENOMEM` mid-way; retrying is
/// exactly what a real login manager does.
fn login_retry(sys: &mut System, name: &str, password: &str) -> Pid {
    let mut last = None;
    for _ in 0..64 {
        match sys.login(name, password) {
            Ok(pid) => return Pid(pid.0),
            Err(e) => last = Some(e),
        }
    }
    panic!("login {} failed after retries: {:?}", name, last);
}

/// Logs everybody in.
pub fn open_sessions(sys: &mut System) -> Sessions {
    Sessions {
        root: login_retry(sys, "root", "rootpw"),
        alice: login_retry(sys, "alice", "alicepw"),
        bob: login_retry(sys, "bob", "bobpw"),
        carol: login_retry(sys, "carol", "carolpw"),
    }
}

/// Runs the full battery; returns each step's outcome in order.
///
/// The logical clock is advanced past the authentication window between
/// steps, so every step starts from "no recent authentication" on both
/// systems and recency behaviour is probed only where a step does so
/// explicitly.
pub fn run_functional_suite(sys: &mut System) -> Vec<StepOutcome> {
    let s = open_sessions(sys);
    let mut out: Vec<StepOutcome> = Vec::new();

    macro_rules! step {
        ($name:literal, $session:expr, $path:expr, $args:expr, $input:expr) => {{
            sys.kernel.advance_clock(400); // out-of-window for every step
            // A harness-level error (the fork or wait itself failing) is
            // only reachable under fault injection; record it as a failed
            // step instead of tearing the battery down.
            match sys.run($session, $path, $args, $input) {
                Ok(r) => out.push(StepOutcome::ran($name, &r)),
                Err(_) => out.push(StepOutcome {
                    name: $name,
                    code: 127,
                    ok: false,
                }),
            }
        }};
    }

    // ----- mount family (§4.2) -----
    step!(
        "mount-cdrom-alice",
        s.alice,
        "/bin/mount",
        &["/mnt/cdrom"],
        &[]
    );
    step!(
        "mount-dup-busy-ok",
        s.alice,
        "/bin/mount",
        &["/mnt/cdrom"],
        &[]
    );
    step!(
        "umount-cdrom-by-other-denied",
        s.bob,
        "/bin/umount",
        &["/mnt/cdrom"],
        &[]
    );
    step!(
        "umount-cdrom-alice",
        s.alice,
        "/bin/umount",
        &["/mnt/cdrom"],
        &[]
    );
    step!(
        "mount-over-etc-denied",
        s.alice,
        "/bin/mount",
        &["/dev/cdrom", "/etc", "iso9660", "ro"],
        &[]
    );
    step!("mount-usb-bob", s.bob, "/bin/mount", &["/media/usb"], &[]);
    step!(
        "umount-usb-by-other-ok",
        s.alice,
        "/bin/umount",
        &["/media/usb"],
        &[]
    );
    step!(
        "mount-root-anywhere",
        s.root,
        "/bin/mount",
        &["/dev/cdrom", "/mnt/cdrom", "iso9660", "ro"],
        &[]
    );
    step!("umount-root", s.root, "/bin/umount", &["/mnt/cdrom"], &[]);
    step!(
        "mount-missing-entry",
        s.alice,
        "/bin/mount",
        &["/mnt/nowhere"],
        &[]
    );

    // fusermount: alice makes her own dir and mounts a fuse fs there.
    let _ = sys
        .process(s.alice)
        .mkdir("/home/alice/fuse", sim_kernel::vfs::Mode(0o755));
    // Protego needs the mountpoint whitelisted; the admin adds it to
    // fstab and the daemon syncs (legacy mount consults fstab directly).
    let _ = sys.process(s.root).append_file(
        "/etc/fstab",
        b"fuse /home/alice/fuse fuse rw,user,noauto 0 0\n",
    );
    let _ = sys.sync_policies();
    step!(
        "fusermount-own-dir",
        s.alice,
        "/bin/fusermount",
        &["/home/alice/fuse"],
        &[]
    );
    step!(
        "umount-fuse",
        s.alice,
        "/bin/umount",
        &["/home/alice/fuse"],
        &[]
    );
    // Eject with the media mounted: eject unmounts first (policy
    // permitting), then ejects.
    step!(
        "mount-before-eject",
        s.alice,
        "/bin/mount",
        &["/mnt/cdrom"],
        &[]
    );
    step!(
        "eject-alice",
        s.alice,
        "/usr/bin/eject",
        &["/dev/cdrom"],
        &[]
    );

    // Reload the media for later steps.
    {
        let dev = sys.kernel.devices.read().id_by_path("/dev/cdrom").unwrap();
        let mut devices = sys.kernel.devices.write();
        if let sim_kernel::dev::DeviceKind::Block(b) = &mut devices.get_mut(dev).unwrap().kind {
            b.ejected = false;
        }
    }

    // ----- network diagnostics (§4.1.1) -----
    step!("ping-gateway", s.alice, "/bin/ping", &["10.0.0.1"], &[]);
    step!("ping-remote", s.alice, "/bin/ping", &["8.8.8.8"], &[]);
    step!(
        "ping-dead-host",
        s.alice,
        "/bin/ping",
        &["203.0.113.9"],
        &[]
    );
    step!("ping6", s.alice, "/bin/ping6", &["8.8.8.8"], &[]);
    step!(
        "arping-neighbour",
        s.alice,
        "/usr/bin/arping",
        &["10.0.0.2"],
        &[]
    );
    step!(
        "traceroute",
        s.alice,
        "/usr/bin/traceroute",
        &["8.8.8.8"],
        &[]
    );
    step!(
        "tracepath",
        s.alice,
        "/usr/bin/tracepath",
        &["8.8.8.8"],
        &[]
    );
    step!("mtr", s.alice, "/usr/bin/mtr", &["8.8.8.8"], &[]);
    step!(
        "fping-sweep",
        s.alice,
        "/usr/bin/fping",
        &["10.0.0.1", "10.0.0.2", "203.0.113.9"],
        &[]
    );
    step!("ping-usage", s.alice, "/bin/ping", &[], &[]);
    step!(
        "arping-no-reply",
        s.alice,
        "/usr/bin/arping",
        &["8.8.8.8"],
        &[]
    );

    // With no route installed, the send path fails identically on both
    // systems (ENETUNREACH).
    let default_route = Route {
        dest: Ipv4::ANY,
        prefix: 0,
        gateway: Some(Ipv4::new(10, 0, 0, 1)),
        dev: "eth0".into(),
        created_by: Uid::ROOT,
    };
    let _ = sys.process(s.root).ioctl_route(RouteOp::Del {
        dest: Ipv4::ANY,
        prefix: 0,
    });
    step!("ping-no-route", s.alice, "/bin/ping", &["8.8.8.8"], &[]);
    let _ = sys.process(s.root).ioctl_route(RouteOp::Add(default_route));

    // ----- delegation (§4.3) -----
    step!(
        "sudo-carol-admin",
        s.carol,
        "/usr/bin/sudo",
        &["/bin/id"],
        &["carolpw"]
    );
    // Within the window: no password needed (recency).
    match sys.run(s.carol, "/usr/bin/sudo", &["/bin/id"], &[]) {
        Ok(r) => out.push(StepOutcome::ran("sudo-carol-recency", &r)),
        Err(_) => out.push(StepOutcome {
            name: "sudo-carol-recency",
            code: 127,
            ok: false,
        }),
    }
    step!(
        "sudo-carol-wrong-password",
        s.carol,
        "/usr/bin/sudo",
        &["/bin/id"],
        &["wrongpw"]
    );
    step!(
        "sudo-alice-not-in-sudoers",
        s.alice,
        "/usr/bin/sudo",
        &["/bin/id"],
        &["alicepw"]
    );
    step!(
        "sudo-bob-lpr-as-alice",
        s.bob,
        "/usr/bin/sudo",
        &["-u", "alice", "/usr/bin/lpr", "hello"],
        &["bobpw"]
    );
    step!(
        "sudo-bob-sh-as-alice-denied",
        s.bob,
        "/usr/bin/sudo",
        &["-u", "alice", "/bin/sh"],
        &["bobpw"]
    );
    step!(
        "lpr-bob-direct-denied",
        s.bob,
        "/usr/bin/lpr",
        &["direct"],
        &[]
    );
    step!("su-alice-to-bob", s.alice, "/bin/su", &["bob"], &["bobpw"]);
    step!(
        "su-wrong-password",
        s.alice,
        "/bin/su",
        &["bob"],
        &["alicepw"]
    );
    // Note: bob, not carol — carol's admin sudoers rule would authorize
    // her with *her own* password on Protego (the kernel's first-match
    // delegation), while legacy su always demands the target's. For a
    // user with no sudo rule, both systems ask for root's password.
    step!("su-to-root", s.bob, "/bin/su", &[], &["rootpw"]);
    step!(
        "sudoedit-carol",
        s.carol,
        "/usr/bin/sudoedit",
        &["/etc/motd"],
        &["carolpw"]
    );
    step!(
        "sudoedit-bob-denied",
        s.bob,
        "/usr/bin/sudoedit",
        &["/etc/motd"],
        &["bobpw"]
    );

    // ----- groups (§4.3) -----
    step!("newgrp-member", s.alice, "/usr/bin/newgrp", &["staff"], &[]);
    step!(
        "newgrp-nonmember-password",
        s.bob,
        "/usr/bin/newgrp",
        &["staff"],
        &["staffpw"]
    );
    step!(
        "newgrp-nonmember-wrong",
        s.bob,
        "/usr/bin/newgrp",
        &["staff"],
        &["nope"]
    );
    step!(
        "newgrp-unprotected-denied",
        s.bob,
        "/usr/bin/newgrp",
        &["cdrom"],
        &[]
    );
    step!(
        "gpasswd-admin-set",
        s.alice,
        "/usr/bin/gpasswd",
        &["staff", "newstaffpw"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "newgrp-new-password",
        s.bob,
        "/usr/bin/newgrp",
        &["staff"],
        &["newstaffpw"]
    );
    step!(
        "gpasswd-nonadmin-denied",
        s.bob,
        "/usr/bin/gpasswd",
        &["staff", "bobpw"],
        &[]
    );
    step!(
        "gpasswd-remove-password",
        s.alice,
        "/usr/bin/gpasswd",
        &["-r", "staff"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "newgrp-after-removal-denied",
        s.bob,
        "/usr/bin/newgrp",
        &["staff"],
        &["newstaffpw"]
    );
    // Restore the original group password for idempotence.
    step!(
        "gpasswd-admin-restore",
        s.alice,
        "/usr/bin/gpasswd",
        &["staff", crate::image::STAFF_GROUP_PASSWORD],
        &[]
    );
    let _ = sys.sync_policies();

    // ----- credential databases (§4.4) -----
    step!(
        "passwd-alice",
        s.alice,
        "/usr/bin/passwd",
        &["newalicepw"],
        &["alicepw"]
    );
    let _ = sys.sync_policies();
    step!(
        "passwd-alice-wrong-old",
        s.alice,
        "/usr/bin/passwd",
        &["evilpw"],
        &["notheroldpw"]
    );
    step!(
        "passwd-bob-cannot-touch-alice",
        s.bob,
        "/usr/bin/passwd",
        &["alice", "owned"],
        &["bobpw"]
    );
    step!(
        "passwd-root-sets-bob",
        s.root,
        "/usr/bin/passwd",
        &["bob", "newbobpw"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "passwd-root-restores-bob",
        s.root,
        "/usr/bin/passwd",
        &["bob", "bobpw"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "passwd-alice-back",
        s.alice,
        "/usr/bin/passwd",
        &["alicepw"],
        &["newalicepw"]
    );
    let _ = sys.sync_policies();
    step!("chsh-valid", s.alice, "/usr/bin/chsh", &["/bin/bash"], &[]);
    let _ = sys.sync_policies();
    step!(
        "chsh-invalid",
        s.alice,
        "/usr/bin/chsh",
        &["/tmp/evil"],
        &[]
    );
    step!(
        "chfn-gecos",
        s.alice,
        "/usr/bin/chfn",
        &["Alice", "Liddell"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "vipw-root",
        s.root,
        "/usr/sbin/vipw",
        &["bob", "/bin/zsh"],
        &[]
    );
    let _ = sys.sync_policies();
    step!(
        "vipw-nonroot-denied",
        s.alice,
        "/usr/sbin/vipw",
        &["bob", "/bin/sh"],
        &[]
    );
    step!(
        "login-carol",
        s.root,
        "/bin/login",
        &["carol"],
        &["carolpw"]
    );
    step!("login-wrong", s.root, "/bin/login", &["carol"], &["bad"]);
    step!(
        "login-no-such-user",
        s.root,
        "/bin/login",
        &["mallory"],
        &["x"]
    );

    // ----- PolicyKit-style helpers (§4.3) -----
    step!(
        "pkexec-carol",
        s.carol,
        "/usr/bin/pkexec",
        &["/bin/id"],
        &["carolpw"]
    );
    step!(
        "pkexec-bob-denied",
        s.bob,
        "/usr/bin/pkexec",
        &["/bin/id"],
        &["bobpw"]
    );
    step!(
        "dbus-activate-mta",
        s.alice,
        "/usr/lib/dbus-daemon-launch-helper",
        &["mta"],
        &[]
    );
    step!(
        "dbus-unknown-service",
        s.alice,
        "/usr/lib/dbus-daemon-launch-helper",
        &["nosuch"],
        &[]
    );

    // ----- pppd (§4.1.2) -----
    step!(
        "pppd-fresh-route",
        s.alice,
        "/usr/sbin/pppd",
        &["192.168.99.0", "24"],
        &[]
    );
    step!(
        "pppd-conflicting-route",
        s.alice,
        "/usr/sbin/pppd",
        &["10.0.0.0", "8"],
        &[]
    );

    // ----- interface-design utilities (§4.5, Table 4) -----
    step!(
        "dmcrypt-get-device",
        s.alice,
        "/usr/bin/dmcrypt-get-device",
        &["cryptohome"],
        &[]
    );
    step!(
        "ssh-keysign",
        s.alice,
        "/usr/lib/ssh-keysign",
        &["host-auth-challenge"],
        &[]
    );
    step!(
        "xorg-mode",
        s.alice,
        "/usr/bin/Xorg",
        &["-mode", "1920", "1080", "-vt", "2"],
        &[]
    );
    step!("pt-chown", s.alice, "/usr/lib/pt_chown", &[], &[]);
    step!(
        "chromium-sandbox",
        s.alice,
        "/usr/lib/chromium-sandbox",
        &[],
        &[]
    );

    // ----- long-tail utilities (§5.4) -----
    step!(
        "lppasswd-own",
        s.alice,
        "/usr/bin/lppasswd",
        &["printpw"],
        &[]
    );
    step!(
        "ecryptfs-private-mount",
        s.alice,
        "/sbin/mount.ecryptfs_private",
        &[],
        &[]
    );
    step!(
        "ecryptfs-private-umount",
        s.alice,
        "/bin/umount",
        &["/home/alice/Private"],
        &[]
    );
    step!("iptables-list", s.root, "/sbin/iptables", &["-L"], &[]);
    step!(
        "iptables-user-denied",
        s.alice,
        "/sbin/iptables",
        &["-A", "x", "any", "drop"],
        &[]
    );
    // Administrator adds and removes a rule (the paper's iptables
    // extension path).
    step!(
        "iptables-admin-add",
        s.root,
        "/sbin/iptables",
        &["-A", "suite-rule", "udp", "accept"],
        &[]
    );
    step!(
        "iptables-admin-del",
        s.root,
        "/sbin/iptables",
        &["-D", "suite-rule"],
        &[]
    );
    step!(
        "iptables-del-missing",
        s.root,
        "/sbin/iptables",
        &["-D", "never-existed"],
        &[]
    );

    out
}

/// Deliberate behavioural *differences* between the two systems — the
/// capabilities Protego adds and the attacks it removes (§4.1.1). Each
/// outcome records the Protego-expected result; the divergence test
/// asserts the opposite on legacy.
pub fn run_divergence_suite(sys: &mut System) -> Vec<StepOutcome> {
    let s = open_sessions(sys);
    let mut out = Vec::new();

    // 1. A user-written, never-privileged ping: EPERM on stock Linux,
    //    works under Protego.
    let r = sys
        .run(s.alice, "/home/alice/bin/myping", &["10.0.0.1"], &[])
        .expect("run myping");
    out.push(StepOutcome::ran("myping-custom-tool", &r));

    // 2. The administrator removes the setuid bit from ping (hardening):
    //    on stock Linux the utility breaks for users; Protego is
    //    unaffected because it never had the bit.
    let _ = sys.process(s.root).chmod("/bin/ping", Mode(0o755));
    let r = sys
        .run(s.alice, "/bin/ping", &["10.0.0.1"], &[])
        .expect("run ping");
    out.push(StepOutcome::ran("ping-without-setuid-bit", &r));
    if sys.mode == SystemMode::Legacy {
        let _ = sys.process(s.root).chmod("/bin/ping", Mode(0o4755));
    }

    // 3. Spoofing: a raw sender claims a TCP source port owned by another
    //    user. Stock Linux stops unprivileged users at socket creation
    //    but lets *root* spoof freely; Protego's netfilter rule stops the
    //    spoof regardless of privilege.
    let victim_sock = sys
        .process(s.bob)
        .socket(Domain::Inet, SockType::Stream, 0)
        .expect("victim socket");
    sys.process(s.bob)
        .bind(victim_sock, Ipv4::ANY, 5555)
        .expect("victim bind");
    let spoofer = match sys.mode {
        // The strongest spoofer each system permits to hold a raw socket.
        SystemMode::Legacy => s.root,
        SystemMode::Protego => s.alice,
    };
    let spoof_result = sys
        .process(spoofer)
        .socket(Domain::Inet, SockType::Raw, 6)
        .and_then(|fd| {
            let uid = sys.kernel.task(spoofer).unwrap().cred.euid;
            let pkt = Packet {
                src: Ipv4::new(10, 0, 0, 100),
                dst: Ipv4::new(8, 8, 8, 8),
                ttl: 64,
                l4: L4::Tcp {
                    src_port: 5555,
                    dst_port: 80,
                    syn: false,
                },
                payload: b"RST".to_vec(),
                from_raw_socket: true,
                sender_uid: uid,
            };
            sys.process(spoofer).send_packet(fd, pkt)
        });
    out.push(StepOutcome {
        name: "spoofed-tcp-from-raw-socket",
        code: spoof_result
            .as_ref()
            .err()
            .map(|e| e.as_errno_i32())
            .unwrap_or(0),
        ok: spoof_result.is_ok(),
    });

    // 4. tcptraceroute's raw TCP probes: fine on the setuid legacy
    //    binary, filtered on a stock Protego policy until the admin
    //    refines the whitelist (§5.4).
    let r = sys
        .run(s.alice, "/usr/bin/tcptraceroute", &["8.8.8.8"], &[])
        .expect("run tcptraceroute");
    out.push(StepOutcome::ran("tcptraceroute-default-policy", &r));
    out
}

/// Runs the mail/web service checks, which need long-lived daemon tasks;
/// returns (step name, ok) pairs.
pub fn run_service_suite(sys: &mut System) -> Vec<StepOutcome> {
    let mut out = Vec::new();
    let s = open_sessions(sys);
    let accepted = |reply: KResult<String>| reply.is_ok_and(|r| r.starts_with("250"));

    // The mail server: root-started on legacy; the mail user on Protego.
    let (mta, startup) = workload::launch(sys, workload::EXIM4, &["--daemon"]).expect("spawn exim");
    out.push(StepOutcome::ran("exim-bind-25", &startup));
    if let Some(srv) = Service::announced(mta, &startup, 25) {
        let ok = accepted(workload::smtp_send(sys, s.bob, srv, "alice", "hi alice"));
        out.push(StepOutcome::passed("smtp-deliver-alice", ok));
        let ok = accepted(workload::smtp_send(sys, s.alice, srv, "bob", "hi bob"));
        out.push(StepOutcome::passed("smtp-deliver-bob", ok));
    }

    // The rogue web service trying to take port 25 as well.
    let (_rogue, r) = workload::launch(sys, workload::ROGUE_MTA, &[]).expect("spawn rogue");
    out.push(StepOutcome::ran("rogue-port25-attempt", &r));

    // The web server on port 80.
    let (web, startup) =
        workload::launch(sys, workload::HTTPD, &["--daemon"]).expect("spawn httpd");
    out.push(StepOutcome::ran("httpd-bind-80", &startup));
    if let Some(srv) = Service::announced(web, &startup, 80) {
        let ok = workload::web_request(sys, s.alice, srv).is_ok();
        out.push(StepOutcome::passed("http-get", ok));
    }
    out
}
