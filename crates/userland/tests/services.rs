//! Service-path edge cases: malformed SMTP, delivery failures,
//! connections closed on failed requests, and the privilege shape of
//! shared-kernel daemons.

use sim_kernel::cred::Uid;
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::syscall::FaultConfig;
use sim_kernel::task::Pid;
use userland::bins::mail;
use userland::workload::{self, Service};
use userland::{boot, System, SystemMode};

#[test]
fn malformed_smtp_gets_451_not_a_crash() {
    let mut sys = boot(SystemMode::Protego);
    let mta = workload::start_mail_service(&mut sys).unwrap();
    let bob = sys.login("bob", "bobpw").unwrap();
    let mut p = sys.process(bob);
    let cli = p.socket(Domain::Inet, SockType::Stream, 0).unwrap();
    p.connect(cli, Ipv4::LOOPBACK, 25).unwrap();
    p.send(cli, b"EHLO no recipient line at all").unwrap();
    mail::exim_serve_one(&mut sys, mta.pid, mta.listen_fd).unwrap();
    let reply = sys.process(bob).recv(cli, 128).unwrap();
    assert!(String::from_utf8_lossy(&reply).starts_with("451"));
}

#[test]
fn delivery_to_unknown_user_fails_cleanly() {
    let mut sys = boot(SystemMode::Protego);
    let mta = workload::start_mail_service(&mut sys).unwrap();
    let bob = sys.login("bob", "bobpw").unwrap();
    let reply = workload::smtp_send(&mut sys, bob, mta, "mallory", "hello?").unwrap();
    assert!(reply.starts_with("451"), "{}", reply);
}

#[test]
fn second_mta_instance_cannot_double_bind() {
    let mut sys = boot(SystemMode::Protego);
    let _mta = workload::start_mail_service(&mut sys).unwrap();
    // Even the *right* (binary, uid) instance hits EADDRINUSE once the
    // port is taken — policy passed, mechanism refused.
    let (_, r) = workload::launch(&mut sys, workload::EXIM4, &["--daemon"]).unwrap();
    assert!(!r.ok());
    assert!(r.stdout.contains("EADDRINUSE"), "{}", r.stdout);
}

#[test]
fn mail_lands_in_group_writable_spool_only() {
    use sim_kernel::cred::Gid;
    let mut sys = boot(SystemMode::Protego);
    let mta = workload::start_mail_service(&mut sys).unwrap();
    let bob = sys.login("bob", "bobpw").unwrap();
    workload::smtp_send(&mut sys, bob, mta, "bob", "note to self").unwrap();
    let init = sys.init_pid();
    let st = sys.kernel.sys_stat(init, "/var/mail/bob").unwrap();
    // The spool file stays owned by the recipient, group mail.
    assert_eq!(st.uid, Uid(1001));
    assert_eq!(st.gid, Gid(8));
    // carol cannot read bob's spool.
    let carol = sys.login("carol", "carolpw").unwrap();
    assert!(sys.kernel.read_to_string(carol, "/var/mail/bob").is_err());
}

/// Starts a daemon.
type Start = fn(&mut System) -> KResult<Service>;

/// One exchange with a started daemon, by the driver that runs it.
type Exchange = fn(&mut System, Pid, Service) -> KResult<()>;

/// The daemon's open descriptors and the kernel's live sockets.
fn held(sys: &System, daemon: Pid) -> (usize, usize) {
    let live = sys.kernel.net.read().live_count();
    let task = sys.kernel.task(daemon).unwrap();
    (task.fds.iter().flatten().count(), live)
}

/// A daemon whose `recv` or `send` on an accepted connection fails still
/// closes the connection: after such a failed request the daemon holds
/// as many descriptors, and the kernel as many sockets, as before it.
/// The daemon's `recv` is a request's first (the client reads after the
/// daemon has served) and its `send` the second (after the client's).
#[test]
fn a_failed_recv_or_send_on_a_connection_leaks_nothing() {
    let drivers: [(&str, Start, Exchange); 3] = [
        ("web", workload::start_web_service, workload::web_request),
        ("smtp", workload::start_mail_service, |sys, client, srv| {
            let reply = workload::smtp_send(sys, client, srv, "bob", "hi")?;
            reply.starts_with("250").then_some(()).ok_or(Errno::EIO)
        }),
        (
            "postal",
            workload::start_mail_service,
            |sys, client, srv| workload::mail_delivery(sys, client, srv, "bob", "hi"),
        ),
    ];
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        for (name, start, exchange) in drivers {
            for (call, k) in [("recv", 1), ("send", 2)] {
                let mut sys = boot(mode);
                let srv = start(&mut sys).unwrap();
                let client = workload::client_session(&mut sys).unwrap();
                let before = held(&sys, srv.pid);
                let faults = sys.attach_fault_injector(FaultConfig::storm(1, 0).with_one_shot(
                    call,
                    k,
                    Errno::EINTR,
                ));
                let failed = exchange(&mut sys, client, srv);
                assert_eq!(faults.lock().unwrap().injected, 1, "{mode:?} {name} {call}");
                assert!(failed.is_err(), "{mode:?} {name} {call}");
                assert_eq!(held(&sys, srv.pid), before, "{mode:?} {name} {call}");
                // The daemon still serves the next request.
                exchange(&mut sys, client, srv).unwrap();
            }
        }
    }
}

/// Shared-kernel workers' daemons start through the exec'd binaries with
/// each image's privilege shape: on legacy the daemon runs with the
/// service euid and keeps saved uid 0, so a delivery raises to root and
/// drops back; under Protego the service uid holds throughout and a
/// delivery changes no id.
#[test]
fn shared_services_keep_each_image_privilege_shape() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let mut sys = boot(mode);
        let web = workload::start_shared_web_service(&mut sys, 0).unwrap();
        let mta = workload::start_shared_mail_service(&mut sys, 1).unwrap();
        assert_eq!((web.port, mta.port), (8080, 2526));
        for (srv, binary, uid) in [
            (web, "/usr/sbin/httpd", mail::WWW_UID),
            (mta, "/usr/sbin/exim4", mail::MAIL_UID),
        ] {
            let task = sys.kernel.task(srv.pid).unwrap();
            assert_eq!(task.binary.as_str(), binary, "{mode:?}");
            let ids = (task.cred.ruid, task.cred.euid, task.cred.suid);
            let want = match mode {
                SystemMode::Legacy => (Uid::ROOT, Uid(uid), Uid::ROOT),
                SystemMode::Protego => (Uid(uid), Uid(uid), Uid(uid)),
            };
            assert_eq!(ids, want, "{mode:?} {binary}");
        }

        let client = workload::client_session(&mut sys).unwrap();
        workload::web_request(&mut sys, client, web).unwrap();
        let trace = sys.attach_recorder();
        let rcpt = workload::worker_rcpt(1);
        workload::mail_delivery(&mut sys, client, mta, &rcpt, "body").unwrap();
        let raises: Vec<String> = trace
            .lock()
            .unwrap()
            .entries
            .iter()
            .filter(|e| e.pid == mta.pid.0 && e.call.starts_with("Seteuid"))
            .map(|e| e.call.clone())
            .collect();
        let want: &[&str] = match mode {
            SystemMode::Legacy => &["Seteuid { uid: Uid(0) }", "Seteuid { uid: Uid(8) }"],
            SystemMode::Protego => &[],
        };
        assert_eq!(raises, want, "{mode:?}");
    }
}
