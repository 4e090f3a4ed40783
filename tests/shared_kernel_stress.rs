//! Shared-kernel concurrency stress: 8 worker threads hammer *one*
//! kernel through [`System::worker_view`] handles with a mixed fs/id/net
//! workload under a seeded 1% errno storm. The run must complete with
//! zero panics and zero privileged artifacts, and the VFS namespace
//! property invariants — resolution terminates, live inodes are
//! root-reachable at their own paths — must hold after the churn. A
//! second test checks that audit provenance stays per-call when eight
//! workers decide under distinct policy rules at once.

use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::net::{Domain, Ipv4, SockType};
use protego::kernel::syscall::FaultConfig;
use protego::kernel::trace::{AuditEvent, AuditSink, DecisionKind, Hook};
use protego::kernel::vfs::{Mode, Name};
use protego::userland::workload::{privileged_artifacts, vfs_namespace_violations};
use protego::userland::{boot, System, SystemMode};
use std::sync::{Arc, Mutex};

const WORKERS: usize = 8;
const ITERS: u64 = 400;

/// One worker's churn: per-iteration it mixes file create/rename/unlink
/// (both in a private directory and in the contended `/tmp`), identity
/// syscalls, and a loopback TCP round trip against its own listener.
/// Every result is ignored — under the storm any call may fail — but
/// nothing here may panic.
fn worker_churn(mut sys: System, session: protego::kernel::Pid, worker: usize) {
    let dir = format!("/tmp/stress{}", worker);
    let _ = sys.process(session).mkdir(&dir, Mode(0o755));
    let listen_port = 21000 + worker as u16;
    let listener = sys
        .process(session)
        .socket(Domain::Inet, SockType::Stream, 0)
        .ok()
        .filter(|&fd| {
            sys.process(session)
                .bind(fd, Ipv4::ANY, listen_port)
                .is_ok()
                && sys.process(session).listen(fd).is_ok()
        });

    for i in 0..ITERS {
        // fs: stage-and-rename in the private dir, plus shared-/tmp churn
        // under distinct names (contending the same VFS shard locks
        // without logical collisions).
        let tmp = format!("{}/.m{}.tmp", dir, i % 7);
        let dst = format!("{}/m{}", dir, i % 7);
        let _ = sys.process(session).write_file(
            &tmp,
            format!("w{} i{}", worker, i).as_bytes(),
            Mode(0o644),
        );
        let _ = sys.process(session).rename(&tmp, &dst);
        let _ = sys.process(session).read_to_string(&dst);
        let shared = format!("/tmp/shared_w{}_s{}", worker, i % 5);
        match i % 3 {
            0 => {
                let _ = sys
                    .process(session)
                    .write_file(&shared, b"churn", Mode(0o600));
            }
            1 => {
                let _ = sys.process(session).stat(&shared);
            }
            _ => {
                let _ = sys.process(session).unlink(&shared);
            }
        }
        if i % 11 == 0 {
            let sub = format!("{}/d{}", dir, i % 4);
            let _ = sys.process(session).mkdir(&sub, Mode(0o755));
            let _ = sys.process(session).rmdir(&sub);
        }

        // id: read-back credential syscalls through the per-task locks.
        let _ = sys.process(session).getuid();
        let _ = sys.process(session).geteuid();
        let _ = sys.process(session).getgid();

        // net: one loopback round trip against this worker's listener.
        if let Some(lfd) = listener {
            if let Ok(cli) = sys
                .process(session)
                .socket(Domain::Inet, SockType::Stream, 0)
            {
                if sys
                    .process(session)
                    .connect(cli, Ipv4::LOOPBACK, listen_port)
                    .is_ok()
                {
                    let _ = sys.process(session).send(cli, b"ping");
                    if let Ok(conn) = sys.process(session).accept(lfd) {
                        let _ = sys.process(session).recv(conn, 64);
                        let _ = sys.process(session).close(conn);
                    }
                }
                let _ = sys.process(session).close(cli);
            }
            // The storm can strand a connection in the backlog; reap so
            // the next iteration starts clean.
            while let Ok(stale) = sys.process(session).accept(lfd) {
                let _ = sys.process(session).close(stale);
            }
        }
    }
}

#[test]
fn eight_workers_storm_one_kernel_without_damage() {
    let mut base = boot(SystemMode::Protego);

    // Sessions are created storm-free so every worker starts from a
    // clean login; the storm then covers all concurrent churn.
    let sessions: Vec<_> = (0..WORKERS)
        .map(|_| base.login("alice", "alicepw").expect("login"))
        .collect();
    let (_slot, stats) = base.attach_fault_injector(FaultConfig::storm(0xD1CE, 100));

    let handles: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(worker, session)| {
            let view = base.worker_view();
            std::thread::spawn(move || worker_churn(view, session, worker))
        })
        .collect();
    let mut panicked = 0;
    for h in handles {
        if h.join().is_err() {
            panicked += 1;
        }
    }
    assert_eq!(panicked, 0, "no worker may panic under the storm");

    let s = stats.lock().unwrap();
    assert!(s.seen > 0, "the churn must route through dispatch");
    assert!(
        s.injected > 0,
        "a 1% storm over {} concurrent workers must fire",
        WORKERS
    );
    drop(s);

    assert!(
        privileged_artifacts(&mut base).is_empty(),
        "concurrent churn under faults must not mint privileged artifacts"
    );
    let violations = vfs_namespace_violations(&base);
    assert!(
        violations.is_empty(),
        "namespace invariants violated after churn: {:?}",
        violations
    );
}

/// `(pid, rule)` of every audited bind decision.
type Seen = Arc<Mutex<Vec<(u32, Option<Name>)>>>;

/// Records every bind decision the module makes into a [`Seen`] list.
struct BindRules(Seen);

impl AuditSink for BindRules {
    fn on_event(&mut self, ev: &AuditEvent) {
        if ev.provenance.hook == Hook::SocketBind {
            assert_eq!(ev.provenance.decision, DecisionKind::Allow);
            self.0.lock().unwrap().push((ev.pid, ev.provenance.rule));
        }
    }
}

#[test]
fn concurrent_decisions_keep_their_own_rule() {
    const BINDS: usize = 1_000;
    let mut base = boot(SystemMode::Protego);
    let init = base.init_pid();
    let k = &base.kernel;
    // One privileged port per worker, allocated to that worker's
    // (binary, uid) instance.
    let mut policy = k.read_to_string(init, "/proc/protego/bind").unwrap();
    for w in 0..WORKERS {
        policy.push_str(&format!(
            "{} tcp /usr/sbin/svc{} {}\n",
            900 + w,
            w,
            2000 + w
        ));
    }
    k.write_file(init, "/proc/protego/bind", policy.as_bytes(), Mode(0o600))
        .unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    k.subscribe_sink(Box::new(BindRules(seen.clone())));

    let pids: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let uid = 2000 + w as u32;
                    let cred = Credentials::user(Uid(uid), Gid(uid));
                    let pid = k.spawn_session(cred, &format!("/usr/sbin/svc{}", w));
                    for _ in 0..BINDS {
                        let fd = k
                            .sys_socket(pid, Domain::Inet, SockType::Stream, 0)
                            .unwrap();
                        k.sys_bind(pid, fd, Ipv4::ANY, 900 + w as u16).unwrap();
                        k.sys_close(pid, fd).unwrap();
                    }
                    pid
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), WORKERS * BINDS, "one audited grant per bind");
    for (w, pid) in pids.iter().enumerate() {
        let own = format!("bind:{}/tcp -> (/usr/sbin/svc{}, {})", 900 + w, w, 2000 + w);
        let rules: Vec<_> = seen.iter().filter(|(p, _)| *p == pid.0).collect();
        assert_eq!(rules.len(), BINDS, "worker {} grants audited", w);
        for (_, rule) in rules {
            assert_eq!(rule.map(Name::as_str), Some(own.as_str()), "worker {}", w);
        }
    }
}
