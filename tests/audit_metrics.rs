//! End-to-end coverage of the structured audit/metrics subsystem: counter
//! accuracy across a mixed syscall scenario, the `/proc/protego/{audit,
//! metrics}` read paths, denial recording with tracing off, and ring
//! overflow accounting.

use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::net::{Domain, Ipv4, SockType};
use protego::kernel::syscall::OpenFlags;
use protego::kernel::trace::{DecisionKind, Hook};
use protego::kernel::vfs::Name;
use protego::kernel::Errno;
use protego::userland::{boot, SystemMode};

#[test]
fn per_hook_counters_track_mount_setuid_and_bind() {
    let sys = boot(SystemMode::Protego);
    let k = &sys.kernel;
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/home/alice/tool");
    let before = k.metrics.snapshot();

    // 1. Whitelisted user mount — the module grants it.
    k.sys_mount(user, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .unwrap();
    // 2. Pinning uid 0 — no sudoers rule, stock policy refuses.
    assert_eq!(k.sys_setuid(user, Uid::ROOT).unwrap_err(), Errno::EPERM);
    // 3. Port 80 is allocated to (httpd, uid 33); nobody else gets it.
    let fd = k
        .sys_socket(user, Domain::Inet, SockType::Stream, 0)
        .unwrap();
    assert_eq!(
        k.sys_bind(user, fd, Ipv4::ANY, 80).unwrap_err(),
        Errno::EACCES
    );

    let delta = |h: Hook| {
        let now = k.metrics.snapshot().hook(h);
        let was = before.hook(h);
        (now.allow - was.allow, now.deny - was.deny)
    };
    assert_eq!(delta(Hook::SbMount), (1, 0), "mount grant counted");
    assert_eq!(delta(Hook::TaskSetuid), (0, 1), "setuid denial counted");
    assert_eq!(delta(Hook::SocketBind), (0, 1), "bind denial counted");
    assert!(k.metrics.snapshot().events > before.events);
    assert!(k.metrics.snapshot().per_syscall["bind"].deny >= 1);
    // The setuid attempt denies with EPERM; the failed su-style auth
    // prompt and the bind refusal both deny with EACCES.
    let errno_delta = |name: &str| {
        k.metrics.snapshot().errnos.get(name).copied().unwrap_or(0)
            - before.errnos.get(name).copied().unwrap_or(0)
    };
    assert_eq!(errno_delta("EPERM"), 1);
    assert_eq!(errno_delta("EACCES"), 2);

    // The bind denial carries the rule that owns the port.
    let ev = k
        .audit
        .events()
        .into_iter()
        .rfind(|e| e.provenance.hook == Hook::SocketBind)
        .expect("bind denial stored");
    assert!(ev.is_denial());
    assert_eq!(
        ev.provenance.rule.map(Name::as_str),
        Some("bind:80/tcp -> (/usr/sbin/httpd, 33)")
    );
}

/// A rule a hook matched without deciding must not surface on a later,
/// unrelated event. bob's open of alice's shadow fragment falls under the
/// creddb rule, but DAC refuses it and the hook defers to stock policy;
/// the raw socket he creates next is granted by no rule at all.
#[test]
fn a_deferred_rule_does_not_leak_into_the_next_event() {
    let sys = boot(SystemMode::Protego);
    let k = &sys.kernel;
    k.set_trace(true);
    let bob = k.spawn_session(Credentials::user(Uid(1001), Gid(1001)), "/home/bob/tool");
    assert_eq!(
        k.sys_open(bob, "/etc/shadows/alice", OpenFlags::read_only())
            .unwrap_err(),
        Errno::EACCES
    );
    let seq = k.audit.next_seq();
    k.sys_socket(bob, Domain::Inet, SockType::Raw, 1).unwrap();
    let ev = k
        .audit
        .since(seq)
        .into_iter()
        .find(|e| e.provenance.hook == Hook::SocketCreate)
        .expect("raw socket grant audited");
    assert_eq!(ev.provenance.decision, DecisionKind::Allow);
    assert_eq!(ev.provenance.rule, None);
}

#[test]
fn proc_audit_and_metrics_read_paths() {
    let mut sys = boot(SystemMode::Protego);
    let init = sys.init_pid();
    let user = sys
        .kernel
        .spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/home/alice/tool");
    // Generate one denial so both views have content.
    let _ = sys.kernel.sys_setuid(user, Uid::ROOT);

    let audit = sys
        .kernel
        .read_to_string(init, "/proc/protego/audit")
        .unwrap();
    assert!(audit.starts_with("# audit ring:"));
    assert!(audit.contains("decision=deny"));
    assert!(audit.contains("hook=task_setuid"));

    let metrics = sys
        .kernel
        .read_to_string(init, "/proc/protego/metrics")
        .unwrap();
    assert!(metrics.starts_with("events_total"));
    assert!(metrics.contains("hook_task_setuid"));
    assert!(metrics.contains("errno_EPERM"));

    // 0600 root:root — unprivileged reads are refused by DAC.
    assert!(sys
        .kernel
        .read_to_string(user, "/proc/protego/audit")
        .is_err());
    assert!(sys
        .kernel
        .read_to_string(user, "/proc/protego/metrics")
        .is_err());

    // Both nodes are read-only even for root.
    let fd = sys
        .kernel
        .sys_open(init, "/proc/protego/audit", OpenFlags::write_only())
        .unwrap();
    assert_eq!(
        sys.kernel.sys_write(init, fd, b"x").unwrap_err(),
        Errno::EACCES
    );
}

#[test]
fn denials_are_recorded_even_with_trace_off() {
    let sys = boot(SystemMode::Protego);
    assert!(!sys.kernel.trace(), "tracing defaults to off");
    let user = sys
        .kernel
        .spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/home/alice/tool");
    let seq0 = sys.kernel.audit.next_seq();
    assert_eq!(
        sys.kernel.sys_setuid(user, Uid::ROOT).unwrap_err(),
        Errno::EPERM
    );
    let denials: Vec<_> = sys
        .kernel
        .audit
        .since(seq0)
        .into_iter()
        .filter(|e| e.is_denial())
        .collect();
    assert!(!denials.is_empty(), "denial stored despite trace=false");
    assert!(denials
        .iter()
        .any(|e| e.provenance.hook == Hook::TaskSetuid));

    // Informational events stay gated until tracing is enabled.
    let seq1 = sys.kernel.audit.next_seq();
    sys.kernel
        .sys_mount(user, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
        .unwrap();
    assert_eq!(sys.kernel.audit.since(seq1).len(), 0);
    sys.kernel.set_trace(true);
    sys.kernel.sys_umount(user, "/mnt/cdrom").unwrap();
    assert!(!sys.kernel.audit.since(seq1).is_empty());
}

#[test]
fn ring_overflow_is_counted_and_visible_in_proc() {
    let mut sys = boot(SystemMode::Protego);
    sys.kernel.audit.set_capacity(4);
    let user = sys
        .kernel
        .spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/home/alice/tool");
    for _ in 0..10 {
        let _ = sys.kernel.sys_setuid(user, Uid::ROOT);
    }
    assert_eq!(sys.kernel.audit.len(), 4);
    let dropped = sys.kernel.audit.dropped();
    assert!(dropped >= 6, "older denials evicted, not lost silently");
    let init = sys.init_pid();
    let view = sys
        .kernel
        .read_to_string(init, "/proc/protego/audit")
        .unwrap();
    assert!(view.contains(&format!("stored=4 capacity=4 dropped={}", dropped)));
}

#[test]
fn proc_audit_header_reports_the_true_next_seq() {
    use protego::kernel::kernel::Kernel;
    use protego::kernel::lsm::NullLsm;
    use protego::kernel::net::SimNet;

    const N: u64 = 7;
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().unwrap();
    // Registration emits event 0 (informational: counted, not stored).
    k.register_lsm(Box::new(NullLsm)).unwrap();
    let root = k.spawn_init();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    // Each refused setuid emits exactly one stock denial.
    for _ in 1..N {
        assert_eq!(k.sys_setuid(user, Uid::ROOT).unwrap_err(), Errno::EPERM);
    }
    assert_eq!(k.audit.next_seq(), N);
    let view = k.read_to_string(root, "/proc/null/audit").unwrap();
    let header = view.lines().next().unwrap();
    assert_eq!(
        header,
        format!(
            "# audit ring: stored={} capacity={} dropped=0 next_seq={}",
            N - 1,
            k.audit.capacity(),
            N
        )
    );
}
