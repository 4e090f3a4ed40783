//! Service-path edge cases: malformed SMTP, delivery failures, and
//! sequential HTTP service.

use sim_kernel::cred::{Gid, Uid};
use sim_kernel::net::{Domain, Ipv4, SockType};
use userland::bins::mail;
use userland::{boot, SystemMode};

fn protego_mta(sys: &mut userland::System) -> (sim_kernel::Pid, i32) {
    let session = sys.service_session(Uid(mail::MAIL_UID), Gid(8), "/bin/sh");
    let (pid, startup) = sys
        .spawn_service(session, "/usr/sbin/exim4", &["--daemon"])
        .unwrap();
    (pid, mail::parse_listen_fd(&startup).unwrap())
}

#[test]
fn malformed_smtp_gets_451_not_a_crash() {
    let mut sys = boot(SystemMode::Protego);
    let (mta, fd) = protego_mta(&mut sys);
    let bob = sys.login("bob", "bobpw").unwrap();
    let cli = sys
        .kernel
        .sys_socket(bob, Domain::Inet, SockType::Stream, 0)
        .unwrap();
    sys.kernel
        .sys_connect(bob, cli, Ipv4::LOOPBACK, 25)
        .unwrap();
    sys.kernel
        .sys_send(bob, cli, b"EHLO no recipient line at all")
        .unwrap();
    mail::exim_serve_one(&mut sys, mta, fd).unwrap();
    let mut reply = Vec::new();
    sys.kernel.sys_recv(bob, cli, &mut reply, 128).unwrap();
    assert!(String::from_utf8_lossy(&reply).starts_with("451"));
}

#[test]
fn delivery_to_unknown_user_fails_cleanly() {
    let mut sys = boot(SystemMode::Protego);
    let (mta, fd) = protego_mta(&mut sys);
    let bob = sys.login("bob", "bobpw").unwrap();
    let reply = mail::smtp_send(&mut sys, bob, mta, fd, "mallory", "hello?").unwrap();
    assert!(reply.starts_with("451"), "{}", reply);
}

#[test]
fn httpd_serves_many_sequential_requests() {
    let mut sys = boot(SystemMode::Protego);
    let session = sys.service_session(Uid(mail::WWW_UID), Gid(33), "/bin/sh");
    let (web, startup) = sys
        .spawn_service(session, "/usr/sbin/httpd", &["--daemon"])
        .unwrap();
    let fd = mail::parse_listen_fd(&startup).unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();
    for _ in 0..50 {
        let resp = mail::http_get(&mut sys, alice, web, fd).unwrap();
        assert!(resp.contains("200 OK"));
    }
}

#[test]
fn second_mta_instance_cannot_double_bind() {
    let mut sys = boot(SystemMode::Protego);
    let (_mta, _fd) = protego_mta(&mut sys);
    // Even the *right* (binary, uid) instance hits EADDRINUSE once the
    // port is taken — policy passed, mechanism refused.
    let session = sys.service_session(Uid(mail::MAIL_UID), Gid(8), "/bin/sh");
    let (_, r) = sys
        .spawn_service(session, "/usr/sbin/exim4", &["--daemon"])
        .unwrap();
    assert!(!r.ok());
    assert!(r.stdout.contains("EADDRINUSE"), "{}", r.stdout);
}

#[test]
fn mail_lands_in_group_writable_spool_only() {
    let mut sys = boot(SystemMode::Protego);
    let (mta, fd) = protego_mta(&mut sys);
    let bob = sys.login("bob", "bobpw").unwrap();
    mail::smtp_send(&mut sys, bob, mta, fd, "bob", "note to self").unwrap();
    let init = sys.init_pid();
    let st = sys.kernel.sys_stat(init, "/var/mail/bob").unwrap();
    // The spool file stays owned by the recipient, group mail.
    assert_eq!(st.uid, Uid(1001));
    assert_eq!(st.gid, Gid(8));
    // carol cannot read bob's spool.
    let carol = sys.login("carol", "carolpw").unwrap();
    assert!(sys.kernel.read_to_string(carol, "/var/mail/bob").is_err());
}
