//! System-level interceptor properties over the full functional battery:
//! a seeded 1% errno storm never panics and never produces a privileged
//! side effect, and a recorded syscall trace replays byte-identically on
//! a fresh boot.

use protego::kernel::cred::Uid;
use protego::kernel::error::Errno;
use protego::kernel::net::{Domain, Ipv4, SockType};
use protego::kernel::syscall::{FaultConfig, OpenFlags};
use protego::kernel::trace::{Trace, TraceReplayer};
use protego::kernel::vfs::Mode;
use protego::kernel::Pid;
use protego::userland::bins::mail;
use protego::userland::suite::run_functional_suite;
use protego::userland::workload::{self, Service};
use protego::userland::{boot, Process, System, SystemMode};

/// Escalation artifacts that only an exploit payload (or a corrupted
/// kernel) would produce — the functional battery never creates these.
fn assert_no_privileged_effects(sys: &mut System) {
    let root = sys.init_pid();
    let shadow = sys
        .kernel
        .read_to_string(root, "/etc/shadow")
        .expect("shadow must survive the storm");
    assert!(
        !shadow.contains("haxor"),
        "rogue account appeared in /etc/shadow under fault injection"
    );
    if let Ok(st) = sys.kernel.sys_stat(root, "/tmp/rootshell") {
        assert_eq!(
            st.mode.0 & 0o4000,
            0,
            "setuid-root shell planted under fault injection"
        );
    }
    assert!(
        sys.kernel.sys_stat(root, "/lib/modules/evil.ko").is_err(),
        "rootkit module appeared under fault injection"
    );
}

/// A seeded 1-in-100 errno storm across the whole functional battery:
/// the run completes (no panic anywhere in kernel or userland), faults
/// demonstrably fired, no privileged artifact appears, and the same seed
/// reproduces the exact same step outcomes.
#[test]
fn errno_storm_over_functional_battery_is_safe_and_deterministic() {
    let storm_run = |seed: u64| {
        let mut sys = boot(SystemMode::Protego);
        let stats = sys.attach_fault_injector(FaultConfig::storm(seed, 100));
        let outcomes = run_functional_suite(&mut sys);
        let s = stats.lock().unwrap();
        assert!(s.seen > 0, "the battery must route through dispatch");
        assert!(
            s.injected > 0,
            "a 1% storm over the whole battery must fire at least once"
        );
        let (seen, injected) = (s.seen, s.injected);
        drop(s);
        assert_no_privileged_effects(&mut sys);
        (outcomes, seen, injected)
    };

    let (a, seen_a, injected_a) = storm_run(0xBADF00D);
    let (b, seen_b, injected_b) = storm_run(0xBADF00D);
    assert_eq!(a, b, "same seed must reproduce the same step outcomes");
    assert_eq!((seen_a, injected_a), (seen_b, injected_b));

    // A clean (stormless) run still passes the same artifact audit, and
    // differs from the stormy one only in outcomes, never in safety.
    let mut clean = boot(SystemMode::Protego);
    let clean_outcomes = run_functional_suite(&mut clean);
    assert_no_privileged_effects(&mut clean);
    assert_eq!(clean_outcomes.len(), a.len(), "same battery shape");
}

/// Record the dispatched syscall stream of a full functional-suite run,
/// serialize it, then replay a fresh boot against it: zero divergences,
/// and the re-recorded stream is byte-identical.
#[test]
fn functional_battery_trace_replays_deterministically() {
    // Pass 1: record.
    let mut sys = boot(SystemMode::Protego);
    let trace = sys.attach_recorder();
    let outcomes1 = run_functional_suite(&mut sys);
    let serialized = trace.lock().unwrap().render();
    assert!(
        trace.lock().unwrap().len() > 100,
        "the battery should dispatch plenty of syscalls, got {}",
        trace.lock().unwrap().len()
    );

    // Pass 2: replay a fresh boot against the recorded stream.
    let expected = Trace::parse(&serialized).expect("recorded trace must parse");
    let replayer = TraceReplayer::new(expected);
    let divergences = replayer.divergences();
    let mut sys2 = boot(SystemMode::Protego);
    sys2.kernel.register_interceptor(Box::new(replayer));
    let trace2 = sys2.attach_recorder();
    let outcomes2 = run_functional_suite(&mut sys2);

    assert_eq!(
        outcomes1, outcomes2,
        "step outcomes must replay identically"
    );
    let divs = divergences.lock().unwrap();
    assert!(
        divs.is_empty(),
        "replay diverged at {} point(s); first: {}",
        divs.len(),
        divs[0]
    );
    assert_eq!(
        serialized,
        trace2.lock().unwrap().render(),
        "re-recorded stream must be byte-identical"
    );
}

/// One web request as the `Vec`-returning wrappers issue it: the calls
/// `workload::web_request` makes, in its order, with every `read` and
/// `recv` answered in a fresh vector.
fn web_request_via_vecs(sys: &mut System, client: Pid, srv: Service) {
    let mut c = Process::new(&sys.kernel, client);
    let mut s = Process::new(&sys.kernel, srv.pid);
    let cli = c.socket(Domain::Inet, SockType::Stream, 0).unwrap();
    c.connect(cli, Ipv4::LOOPBACK, srv.port).unwrap();
    c.send(cli, b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let conn = s.accept(srv.listen_fd).unwrap();
    s.recv(conn, 65536).unwrap();
    s.stat(mail::HTTPD_DOCROOT_INDEX).unwrap();
    let fd = s
        .open(mail::HTTPD_DOCROOT_INDEX, OpenFlags::read_only())
        .unwrap();
    let page = s.read(fd, 65536).unwrap();
    s.close(fd).unwrap();
    let mut resp =
        format!("HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n", page.len()).into_bytes();
    resp.extend_from_slice(&page);
    s.send(conn, &resp).unwrap();
    s.close(conn).unwrap();
    c.recv(cli, 65536).unwrap();
    c.close(cli).unwrap();
}

/// One mail delivery as the `Vec`-returning wrappers issue it (the calls
/// of `workload::mail_delivery`; `legacy` adds the MTA's euid raise).
fn mail_delivery_via_vecs(sys: &mut System, client: Pid, srv: Service, rcpt: &str, body: &str) {
    let legacy = sys.mode == SystemMode::Legacy;
    let mut c = Process::new(&sys.kernel, client);
    let mut s = Process::new(&sys.kernel, srv.pid);
    let cli = c.socket(Domain::Inet, SockType::Stream, 0).unwrap();
    c.connect(cli, Ipv4::LOOPBACK, srv.port).unwrap();
    c.send(cli, format!("MAIL TO:<{rcpt}>\n{body}").as_bytes())
        .unwrap();
    let conn = s.accept(srv.listen_fd).unwrap();
    s.recv(conn, 65536).unwrap();
    if legacy {
        s.seteuid(Uid::ROOT).unwrap();
    }
    let (spool, tmp) = (
        format!("/var/mail/{rcpt}"),
        format!("/var/mail/.{rcpt}.tmp"),
    );
    let mut image = match s.open(&spool, OpenFlags::read_only()) {
        Ok(fd) => {
            let image = s.read(fd, 65536).unwrap();
            s.close(fd).unwrap();
            image
        }
        Err(e) => {
            assert_eq!(e, Errno::ENOENT);
            Vec::new()
        }
    };
    image.extend_from_slice(format!("From MTA: to {rcpt}\n{body}\n\n").as_bytes());
    let fd = s.open(&tmp, OpenFlags::create_trunc(Mode(0o660))).unwrap();
    s.write(fd, &image).unwrap();
    s.close(fd).unwrap();
    s.rename(&tmp, &spool).unwrap();
    if legacy {
        s.seteuid(Uid(mail::MAIL_UID)).unwrap();
    }
    s.send(conn, b"250 OK\r\n").unwrap();
    s.close(conn).unwrap();
    c.recv(cli, 1024).unwrap();
    c.close(cli).unwrap();
}

/// Records three web requests and three mail deliveries on `mode`, by the
/// workload drivers (buffer-filling `read`/`recv`) or by the wrappers.
fn record_services(mode: SystemMode, via_vecs: bool) -> Trace {
    let mut sys = boot(mode);
    let web = workload::start_web_service(&mut sys).unwrap();
    let smtp = workload::start_mail_service(&mut sys).unwrap();
    let client = workload::client_session(&mut sys).unwrap();
    let trace = sys.attach_recorder();
    for i in 0..3 {
        let (rcpt, body) = (["alice", "bob"][i % 2], format!("body {i}"));
        if via_vecs {
            web_request_via_vecs(&mut sys, client, web);
            mail_delivery_via_vecs(&mut sys, client, smtp, rcpt, &body);
        } else {
            workload::web_request(&mut sys, client, web).unwrap();
            workload::mail_delivery(&mut sys, client, smtp, rcpt, &body).unwrap();
        }
    }
    let t = trace.lock().unwrap().clone();
    t
}

/// With the chain armed, `read` and `recv` through the caller-buffer ABI
/// still reach the recorder as `Data([...])` holding the bytes, and the
/// recorded service traces equal those of the `Vec`-returning wrappers
/// byte for byte.
#[test]
fn buffer_filling_reads_record_the_same_trace_as_the_vec_wrappers() {
    for mode in [SystemMode::Protego, SystemMode::Legacy] {
        let filled = record_services(mode, false);
        let reads: Vec<_> = filled
            .entries
            .iter()
            .filter(|e| e.call.starts_with("Read {") || e.call.starts_with("Recv {"))
            .collect();
        // Per request: httpd's recv and page read and the client's recv;
        // per delivery: exim's recv and spool read and the client's recv.
        assert_eq!(reads.len(), 3 * 3 + 3 * 3, "{mode:?}");
        for e in &reads {
            assert!(e.ret.starts_with("Data(["), "{mode:?}: {}", e.render());
        }
        let page = format!("{:?}", b"HTTP/1.0 200 OK".as_slice());
        let page = &page[1..page.len() - 1];
        assert!(
            reads
                .iter()
                .any(|e| e.ret.starts_with(&format!("Data([{page}"))),
            "{mode:?}: no response bytes recorded"
        );
        let wrapped = record_services(mode, true);
        assert_eq!(
            filled.render(),
            wrapped.render(),
            "{mode:?}: {}",
            filled.divergence_report(&wrapped, 3).unwrap_or_default()
        );
    }
}
