//! Shared-kernel concurrency stress: 8 worker threads hammer *one*
//! kernel through [`System::worker_view`] handles under a seeded 1%
//! errno storm, once with a mixed fs/id/net churn and once as the §6
//! web and mail services. Each run must complete with zero panics and
//! zero privileged artifacts, and the VFS namespace property invariants
//! — resolution terminates, live inodes are root-reachable at their own
//! paths — must hold afterwards. The service workload's op, failure and
//! per-class syscall totals must also reproduce across two fault-free
//! runs. A further test checks that audit provenance stays per-call when
//! eight workers decide under distinct policy rules at once, and a last
//! one that a DAC denial which consults capabilities holds no task-table
//! guard while it does.

use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::error::Errno;
use protego::kernel::net::{Domain, Ipv4, SockType};
use protego::kernel::syscall::{FaultConfig, OpenFlags, SyscallClass};
use protego::kernel::trace::{span, DecisionKind, Hook, Pathway};
use protego::kernel::vfs::{Mode, Name};
use protego::kernel::Pid;
use protego::userland::workload::{self, privileged_artifacts, vfs_namespace_violations, Service};
use protego::userland::{boot, System, SystemMode};

const WORKERS: usize = 8;
const ITERS: u64 = 400;
/// Requests or deliveries per service worker.
const SERVICE_OPS: u64 = 60;

/// Runs `work(view, input, worker)` on one thread per input, each thread
/// driving its own [`System::worker_view`] of `base`. Returns the results
/// of the workers that finished and the number that panicked.
fn run_workers<T: Send + 'static, R: Send + 'static>(
    base: &System,
    inputs: Vec<T>,
    work: fn(System, T, usize) -> R,
) -> (Vec<R>, usize) {
    let handles: Vec<_> = inputs
        .into_iter()
        .enumerate()
        .map(|(worker, input)| {
            let view = base.worker_view();
            std::thread::spawn(move || work(view, input, worker))
        })
        .collect();
    let mut results = Vec::new();
    let mut panicked = 0;
    for h in handles {
        match h.join() {
            Ok(r) => results.push(r),
            Err(_) => panicked += 1,
        }
    }
    (results, panicked)
}

/// The damage checks every concurrent run must pass on the shared kernel.
fn assert_undamaged(base: &mut System) {
    assert!(
        privileged_artifacts(base).is_empty(),
        "concurrent churn under faults must not mint privileged artifacts"
    );
    let violations = vfs_namespace_violations(base);
    assert!(
        violations.is_empty(),
        "namespace invariants violated after churn: {:?}",
        violations
    );
}

/// One worker's churn: per-iteration it mixes file create/rename/unlink
/// (both in a private directory and in the contended `/tmp`), identity
/// syscalls, and a loopback TCP round trip against its own listener.
/// Every result is ignored — under the storm any call may fail — but
/// nothing here may panic.
fn worker_churn(mut sys: System, session: Pid, worker: usize) {
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
    let stats = base.attach_fault_injector(FaultConfig::storm(0xD1CE, 100));

    let (_, panicked) = run_workers(&base, sessions, worker_churn);
    assert_eq!(panicked, 0, "no worker may panic under the storm");

    let s = stats.lock().unwrap();
    assert!(s.seen > 0, "the churn must route through dispatch");
    assert!(
        s.injected > 0,
        "a 1% storm over {} concurrent workers must fire",
        WORKERS
    );
    drop(s);
    assert_undamaged(&mut base);
}

/// One service worker: its own service instance on the shared kernel
/// plus the client session that drives it.
struct ServiceWorker {
    web: bool,
    srv: Service,
    client: Pid,
}

/// A service worker's totals: ops attempted, ops failed, and the
/// syscall bodies it dispatched per class (from its span counters).
type ServiceTotals = (u64, u64, [u64; SyscallClass::COUNT]);

/// Starts one service per worker on `base` — even workers serve web,
/// odd workers mail — each on its own port and, for mail, its own
/// spool, so concurrent workers share kernel locks but never a
/// connection queue or a rename target.
fn start_service_workers(base: &mut System) -> Vec<ServiceWorker> {
    (0..WORKERS)
        .map(|w| {
            let web = w % 2 == 0;
            let srv = if web {
                workload::start_shared_web_service(base, w)
            } else {
                workload::start_shared_mail_service(base, w)
            }
            .expect("service start on a clean boot");
            let client = workload::client_session(base).expect("client login");
            ServiceWorker { web, srv, client }
        })
        .collect()
}

/// Drives [`SERVICE_OPS`] web requests or mail deliveries against the
/// worker's own service. A failed op may strand its connection in the
/// listen backlog, so it is reaped before the next op.
fn serve_traffic(mut sys: System, w: ServiceWorker, worker: usize) -> ServiceTotals {
    let rcpt = workload::worker_rcpt(worker);
    // Span counters are thread-local, so this fresh thread's registry
    // counts exactly this worker's syscalls.
    span::set_enabled(true);
    let mut failures = 0;
    for i in 0..SERVICE_OPS {
        let ok = if w.web {
            workload::web_request(&mut sys, w.client, w.srv).is_ok()
        } else {
            let body = format!("w{} op{}", worker, i);
            workload::mail_delivery(&mut sys, w.client, w.srv, &rcpt, &body).is_ok()
        };
        if !ok {
            failures += 1;
            while let Ok(stale) = sys.process(w.srv.pid).accept(w.srv.listen_fd) {
                let _ = sys.process(w.srv.pid).close(stale);
            }
        }
    }
    span::set_enabled(false);
    let timing = span::snapshot();
    let calls = SyscallClass::ALL.map(|c| timing.hist(Pathway::for_class(c)).count);
    (SERVICE_OPS, failures, calls)
}

/// Boots a Protego kernel, starts the service workers and drives them
/// concurrently, optionally under a seeded 1% errno storm. Returns the
/// summed totals, the panicked-worker count and the injected-fault
/// count, after checking the kernel came out undamaged.
fn run_services(storm_seed: Option<u64>) -> (ServiceTotals, usize, u64) {
    let mut base = boot(SystemMode::Protego);
    let workers = start_service_workers(&mut base);
    let stats = storm_seed.map(|seed| base.attach_fault_injector(FaultConfig::storm(seed, 100)));
    let (results, panicked) = run_workers(&base, workers, serve_traffic);
    let mut sum: ServiceTotals = (0, 0, [0; SyscallClass::COUNT]);
    for (ops, failures, calls) in results {
        sum.0 += ops;
        sum.1 += failures;
        for (total, n) in sum.2.iter_mut().zip(calls) {
            *total += n;
        }
    }
    let injected = stats.map_or(0, |s| s.lock().unwrap().injected);
    assert_undamaged(&mut base);
    (sum, panicked, injected)
}

#[test]
fn web_and_mail_services_share_one_kernel_under_a_storm() {
    let (totals, panicked, injected) = run_services(Some(0x5EED));
    assert_eq!(panicked, 0, "no service worker may panic under the storm");
    assert_eq!(totals.0, WORKERS as u64 * SERVICE_OPS);
    assert!(
        injected > 0,
        "a 1% storm over {} concurrent service workers must fire",
        WORKERS
    );

    let (first, panicked, _) = run_services(None);
    assert_eq!(panicked, 0);
    assert_eq!(first.1, 0, "fault-free service traffic never fails");
    for (class, calls) in SyscallClass::ALL.iter().zip(first.2) {
        if matches!(class, SyscallClass::Fs | SyscallClass::Net) {
            assert!(calls > 0, "{:?} bodies dispatched", class);
        }
    }
    let (second, _, _) = run_services(None);
    assert_eq!(
        first, second,
        "fault-free totals must not depend on thread interleaving"
    );
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
    // Record every decision, in a ring that holds all of them.
    k.set_trace(true);
    k.audit.set_capacity(WORKERS * BINDS * 8);

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

    assert_eq!(k.audit.dropped(), 0);
    let seen: Vec<_> = k
        .audit
        .events()
        .into_iter()
        .filter(|ev| ev.provenance.hook == Hook::SocketBind)
        .map(|ev| {
            assert_eq!(ev.provenance.decision, DecisionKind::Allow);
            (ev.pid, ev.provenance.rule)
        })
        .collect();
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

/// A DAC-denied open asks `capable` for an override, which reads the
/// caller's task. If the open still held its own task-shard read guard
/// there, a writer queued on that shard (std's `RwLock` prefers writers)
/// would wait for the first guard while the second read waited for the
/// writer: a deadlock. One thread makes denied opens while another keeps
/// write-locking a different task that shares the opener's shard
/// (shards are pid mod 64); a watchdog fails the test instead of hanging.
#[test]
fn dac_denials_reaching_capable_do_not_deadlock_same_shard_writers() {
    const OPENS: usize = 200_000;
    let mut base = boot(SystemMode::Protego);
    let alice = base.login("alice", "alicepw").unwrap();
    let k = base.kernel.clone();
    let neighbour = loop {
        let pid = k.spawn_session(Credentials::user(Uid(1001), Gid(1001)), "/bin/sh");
        if pid.0 == alice.0 + 64 {
            break pid;
        }
        assert!(pid.0 < alice.0 + 64, "pids are allocated in order");
    };
    assert_eq!(
        k.sys_open(alice, "/etc/shadow", OpenFlags::read_only()),
        Err(Errno::EACCES)
    );
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (done, finished) = std::sync::mpsc::channel();
    let denier = {
        let (k, stop) = (k.clone(), stop.clone());
        std::thread::spawn(move || {
            for _ in 0..OPENS {
                let denied = k.sys_open(alice, "/etc/shadow", OpenFlags::read_only());
                assert_eq!(denied, Err(Errno::EACCES));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            done.send(()).unwrap();
        })
    };
    let writer = std::thread::spawn(move || {
        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
            k.task_mut(neighbour).unwrap().setenv("TICK", "1");
        }
    });
    // On a timeout the two threads stay blocked and are left detached:
    // joining them would hang the test instead of failing it.
    let outcome = finished.recv_timeout(std::time::Duration::from_secs(60));
    assert!(
        outcome.is_ok(),
        "denied opens deadlocked against a same-shard writer"
    );
    denier.join().unwrap();
    writer.join().unwrap();
}

/// `send` looks up the peer and appends to it under one net guard: while
/// one thread sends on a client socket, another closes the server end of
/// the connection and at once allocates a new socket, which takes the
/// closed end's slot. No byte may reach the new socket.
#[test]
fn send_racing_a_peer_close_never_reaches_the_reused_slot() {
    const ROUNDS: usize = 5_000;
    const SENDS: usize = 64;
    let mut base = boot(SystemMode::Protego);
    let (sender, owner) = (
        base.login("alice", "alicepw").unwrap(),
        base.login("bob", "bobpw").unwrap(),
    );
    let k = base.kernel.clone();
    let lfd = k
        .sys_socket(owner, Domain::Inet, SockType::Stream, 0)
        .unwrap();
    k.sys_bind(owner, lfd, Ipv4::ANY, 8181).unwrap();
    k.sys_listen(owner, lfd).unwrap();
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let (to_sender, fds) = std::sync::mpsc::channel::<i32>();
    let sending = {
        let (k, start) = (k.clone(), start.clone());
        std::thread::spawn(move || {
            for cli in fds {
                start.wait();
                for _ in 0..SENDS {
                    let _ = k.sys_send(sender, cli, b"stale");
                }
                start.wait();
                k.sys_close(sender, cli).unwrap();
            }
        })
    };
    let mut leaked = 0;
    for _ in 0..ROUNDS {
        let cli = k
            .sys_socket(sender, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        k.sys_connect(sender, cli, Ipv4::LOOPBACK, 8181).unwrap();
        let conn = k.sys_accept(owner, lfd).unwrap();
        to_sender.send(cli).unwrap();
        start.wait();
        k.sys_close(owner, conn).unwrap();
        let fresh = k
            .sys_socket(owner, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        start.wait();
        let mut got = Vec::new();
        if k.sys_recv(owner, fresh, &mut got, 4096) != Err(Errno::EAGAIN) {
            leaked += 1;
        }
        k.sys_close(owner, fresh).unwrap();
    }
    drop(to_sender);
    sending.join().unwrap();
    assert_eq!(
        leaked, 0,
        "sends reached a socket created after the peer closed"
    );
}
