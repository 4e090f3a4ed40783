//! Counting-allocator gates on the warm paths.
//!
//! Zero allocations: once the interner, dcache, path-arena pools and fd
//! table are warm, a resolve/open/read/close/getuid cycle under the full
//! Protego LSM performs **zero** heap allocations — also once an
//! unrelated mount and rename have happened, when each dcache hit checks
//! its directory generations — and so do a warm open through a relative
//! path or a symlink (the dcache entry carries the canonical path the
//! open records), a warm resolve of a directory right after a create and
//! a rename inside it, a warm Protego hook that matches a policy rule, a
//! warm denial that lands in the audit ring, and a whole warm
//! `workload::web_request` on either image (the ABI borrows its arguments
//! and `read`/`recv` fill reusable buffers).
//!
//! Budgets: a steady-state mail delivery, whose spool the previous
//! delivery's rename replaced, allocates at most [`MAIL_BUDGET`] times (the
//! first [`MAIL_DRAINED`] after a spool drain at most
//! [`MAIL_DRAINED_BUDGET`]); one cycle of the eight privops operations
//! (mount, umount, ping, two sudo runs, su, newgrp and a sudo denial, each
//! a fork/exec/wait with authentication where the policy asks for it) stays
//! within a per-operation allocation budget on both images; one warm
//! kernel authentication allocates nothing, however many accounts
//! `/etc/passwd` holds; and a warm fork, exit and wait of a session's
//! child allocates nothing (the environment and the group list are shared
//! copy-on-write). The binaries look up the one account they need instead
//! of parsing whole account databases, and the authentication agent
//! checks the attempt inside the files it reads; either regressing shows
//! up here as a count, not a timing.
//!
//! A `#[global_allocator]` in an integration test affects only this test
//! binary, so every other test keeps the stock allocator.

use protego::core::ProtegoLsm;
use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::error::Errno;
use protego::kernel::kernel::Kernel;
use protego::kernel::lsm::{
    AuthScope, Decision, FileDecision, FileOpenCtx, MountRequest, SecurityModule,
};
use protego::kernel::net::SimNet;
use protego::kernel::syscall::OpenFlags;
use protego::kernel::task::Pid;
use protego::kernel::vfs::{Access, Mode, MountOptions};
use protego::userland::{boot, workload, System, SystemMode};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

// The gate and counter are per-thread with const initializers: a
// `thread_local!` with a const block lives in native TLS and its first
// access performs no lazy-init allocation, so the allocator hooks can
// read it re-entrancy-free. Per-thread matters: the libtest harness's
// main thread blocks on an mpsc receiver while the test runs and lazily
// allocates its wait context at an arbitrary moment — a process-global
// gate would count that unrelated allocation and flake.
thread_local! {
    static GATE: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, counting allocations (not frees)
/// made by this thread while its gate is up, so harness and setup
/// allocations are invisible.
struct CountingAlloc;

fn count_if_gated() {
    GATE.with(|g| {
        if g.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counting
// touches only const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_gated();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's gate up; returns its result and how many
/// heap allocations it made.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|a| a.set(0));
    GATE.with(|g| g.set(true));
    let r = f();
    GATE.with(|g| g.set(false));
    (r, ALLOCS.with(|a| a.get()))
}

// ---------------------------------------------------------------------
// Zero allocations on the warm fast path, hooks and denials
// ---------------------------------------------------------------------

fn fastpath_cycle(k: &Kernel, pid: Pid, buf: &mut Vec<u8>) {
    open_read_close(k, pid, "/etc/hosts", buf);
    k.sys_getuid(pid).expect("getuid");
}

fn open_read_close(k: &Kernel, pid: Pid, path: &str, buf: &mut Vec<u8>) {
    let fd = k.sys_open(pid, path, OpenFlags::read_only()).expect(path);
    buf.clear();
    k.sys_read(pid, fd, buf, 64).expect("read");
    k.sys_close(pid, fd).expect("close");
}

/// A Protego kernel with `/etc/hosts` installed: returns it with init's
/// pid and a user session's pid.
fn fastpath_kernel() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().expect("devices");
    k.register_lsm(Box::new(ProtegoLsm::new())).expect("lsm");
    let root = k.spawn_init();
    k.vfs
        .install_file(
            "/etc/hosts",
            b"127.0.0.1 localhost\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .expect("hosts");
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");
    (k, root, user)
}

#[test]
fn steady_state_resolve_open_read_is_allocation_free() {
    let (k, _root, user) = fastpath_kernel();

    // Warmup: populate the interner, the dcache entry for the path, the
    // path-arena pools, the fd slot, and the read buffer's capacity.
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..64 {
        fastpath_cycle(&k, user, &mut buf);
    }

    let (_, n) = count_allocs(|| {
        for _ in 0..256 {
            fastpath_cycle(&k, user, &mut buf);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state open/read/close/getuid cycle allocated {} times (expected 0)",
        n
    );
}

/// A warm dcache hit checks the generations of the directories its walk
/// read, so a mount and a rename elsewhere leave it a hit, still
/// allocation-free.
#[test]
fn warm_hit_after_unrelated_mount_and_rename_is_allocation_free() {
    let (k, root, user) = fastpath_kernel();
    k.vfs.mkdir_p("/mnt/x").expect("mountpoint");
    k.vfs
        .install_file("/tmp/a", b"", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .expect("tmp file");
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..64 {
        fastpath_cycle(&k, user, &mut buf);
    }
    k.sys_mount(root, "tmpfs", "/mnt/x", "tmpfs", "rw")
        .expect("mount");
    k.sys_rename(root, "/tmp/a", "/tmp/b").expect("rename");

    let before = k.vfs.dcache_stats();
    let (_, n) = count_allocs(|| {
        for _ in 0..256 {
            fastpath_cycle(&k, user, &mut buf);
        }
    });
    let after = k.vfs.dcache_stats();
    assert_eq!(n, 0, "warm hit allocated {} times (expected 0)", n);
    assert_eq!(after.misses, before.misses, "every resolve was a hit");
    assert!(after.hits >= before.hits + 256);
}

/// The dcache entry of a relative path or a symlink carries the
/// canonical path the open hands the LSM and records in the descriptor,
/// so a warm open through either spelling allocates nothing.
#[test]
fn warm_relative_and_symlink_opens_are_allocation_free() {
    let (k, root, user) = fastpath_kernel();
    k.vfs.mkdir_p("/tmp").expect("tmp");
    k.sys_symlink(root, "/etc/hosts", "/tmp/hosts")
        .expect("symlink");
    k.sys_chdir(user, "/etc").expect("chdir");
    const SPELLINGS: [&str; 3] = ["hosts", "../etc/hosts", "/tmp/hosts"];
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..64 {
        for path in SPELLINGS {
            open_read_close(&k, user, path, &mut buf);
        }
    }
    let before = k.vfs.dcache_stats();
    let (_, n) = count_allocs(|| {
        for _ in 0..256 {
            for path in SPELLINGS {
                open_read_close(&k, user, path, &mut buf);
            }
        }
    });
    let after = k.vfs.dcache_stats();
    assert_eq!(n, 0, "warm relative/symlink opens allocated {} times", n);
    assert_eq!(after.misses, before.misses, "every resolve was a hit");
}

/// A create and a rename inside a directory change its entries, not its
/// mount coverage, so a warm resolve of the directory itself right after
/// them stays a hit and allocates nothing.
#[test]
fn warm_directory_hit_after_create_and_rename_inside_it_is_allocation_free() {
    let (k, root, user) = fastpath_kernel();
    k.vfs.mkdir_p("/var/mail").expect("spool dir");
    for _ in 0..64 {
        k.sys_stat(user, "/var/mail").expect("warm stat");
    }
    let mut n = 0;
    for _ in 0..64 {
        k.write_file(root, "/var/mail/.bob.tmp", b"m", Mode(0o660))
            .expect("create");
        k.sys_rename(root, "/var/mail/.bob.tmp", "/var/mail/bob")
            .expect("rename");
        let before = k.vfs.dcache_stats();
        n += count_allocs(|| {
            k.sys_stat(user, "/var/mail").expect("stat");
        })
        .1;
        let after = k.vfs.dcache_stats();
        assert_eq!(after.hits, before.hits + 1, "the resolve was a hit");
        assert_eq!(after.misses, before.misses);
    }
    assert_eq!(
        n, 0,
        "warm directory hit allocated {} times (expected 0)",
        n
    );
}

/// A hook that matches a rule returns the rule's label interned at policy
/// load, so a warm keyfile open (granted or denied) and a whitelisted
/// mount allocate nothing.
#[test]
fn warm_hooks_matching_a_rule_are_allocation_free() {
    let mut lsm = ProtegoLsm::new();
    lsm.config_write("keyfiles", "/etc/ssh/ssh_host_key /usr/lib/ssh-keysign\n")
        .expect("keyfiles");
    lsm.config_write("mounts", "/dev/cdrom /mnt/cdrom iso9660 user ro\n")
        .expect("mounts");
    let user = Credentials::user(Uid(1000), Gid(1000));
    let open = FileOpenCtx {
        cred: &user,
        path: "/etc/ssh/ssh_host_key",
        binary: "/usr/lib/ssh-keysign",
        access: Access::READ,
        dac_allows: false,
        file_owner: Uid::ROOT,
        auth: None,
        now: 0,
    };
    let mount = MountRequest {
        source: "/dev/cdrom",
        target: "/mnt/cdrom",
        fstype: "iso9660",
        options: &MountOptions::parse("ro"),
    };
    let foreign = FileOpenCtx {
        binary: "/bin/cat",
        ..open
    };
    // Warmup: the first call of each hook.
    lsm.file_open(&open);

    let (_, n) = count_allocs(|| {
        for _ in 0..256 {
            let (d, rule) = lsm.file_open(&open);
            assert!(d == FileDecision::AllowCloexec && rule.is_some());
            let (d, rule) = lsm.file_open(&foreign);
            assert!(d == FileDecision::Deny(Errno::EACCES) && rule.is_some());
            let (d, rule) = lsm.sb_mount(&user, &mount);
            assert!(d == Decision::Allow && rule.is_some());
        }
    });
    assert_eq!(n, 0, "matched hooks allocated {} times (expected 0)", n);
}

/// A denial leaves a typed audit event in the ring, and that costs no
/// heap allocation: the event carries no formatted text, and once the
/// ring is full each push evicts the oldest event in place.
#[test]
fn warm_stock_setuid_denial_is_allocation_free() {
    let k = Kernel::new(SimNet::new());
    k.register_lsm(Box::new(ProtegoLsm::new())).expect("lsm");
    let _root = k.spawn_init();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    assert!(!k.trace());
    let deny = || assert_eq!(k.sys_setuid(user, Uid::ROOT), Err(Errno::EPERM));

    // Warmup: fill the ring past capacity and the metrics errno table.
    for _ in 0..2 * k.audit.capacity() {
        deny();
    }
    let seq0 = k.audit.next_seq();

    let (_, n) = count_allocs(|| {
        for _ in 0..256 {
            deny();
        }
    });
    assert_eq!(
        n, 0,
        "warm setuid denial allocated {} times (expected 0)",
        n
    );
    assert_eq!(k.audit.next_seq() - seq0, 256, "every denial was audited");
    let last = k.audit.last().expect("denial stored with trace off");
    assert!(last.is_denial() && last.provenance.module == "kernel");
}

// ---------------------------------------------------------------------
// Budgets for a warm privileged run
// ---------------------------------------------------------------------

/// One privileged operation: who runs it, the program and its argv,
/// terminal input, the expected exit code and a piece of its output.
struct Op {
    user: usize,
    path: &'static str,
    args: &'static [&'static str],
    input: &'static [&'static str],
    code: i32,
    expect: &'static str,
}

const USERS: [(&str, &str); 3] = [("alice", "alicepw"), ("bob", "bobpw"), ("carol", "carolpw")];

/// The eight operations of one privops cycle; `mount` runs before
/// `umount`, so a cycle leaves `/mnt/cdrom` unmounted.
const CYCLE: [Op; 8] = [
    Op {
        user: 0,
        path: "/bin/mount",
        args: &["/mnt/cdrom"],
        input: &[],
        code: 0,
        expect: "mounted",
    },
    Op {
        user: 0,
        path: "/bin/umount",
        args: &["/mnt/cdrom"],
        input: &[],
        code: 0,
        expect: "unmounted",
    },
    Op {
        user: 0,
        path: "/bin/ping",
        args: &["10.0.0.1"],
        input: &[],
        code: 0,
        expect: "64 bytes from",
    },
    Op {
        user: 2,
        path: "/usr/bin/sudo",
        args: &["/bin/id"],
        input: &["carolpw"],
        code: 0,
        expect: "euid=0",
    },
    Op {
        user: 1,
        path: "/usr/bin/sudo",
        args: &["-u", "alice", "/usr/bin/lpr", "hello"],
        input: &["bobpw"],
        code: 0,
        expect: "job queued",
    },
    Op {
        user: 0,
        path: "/bin/su",
        args: &["bob"],
        input: &["bobpw"],
        code: 0,
        expect: "su: uid=1001 euid=1001",
    },
    Op {
        user: 0,
        path: "/usr/bin/newgrp",
        args: &["staff"],
        input: &[],
        code: 0,
        expect: "newgrp: now gid=2000",
    },
    Op {
        user: 0,
        path: "/usr/bin/sudo",
        args: &["/bin/id"],
        input: &["alicepw"],
        code: 1,
        expect: "sudo: ",
    },
];

/// Runs one cycle, returning each operation's allocation count.
fn cycle(sys: &mut System, sessions: &[Pid; 3]) -> [u64; 8] {
    let mut counts = [0; 8];
    for (op, count) in CYCLE.iter().zip(&mut counts) {
        // Out of every authentication window: each run pays its
        // password check.
        sys.kernel.advance_clock(400);
        let (r, n) = count_allocs(|| {
            sys.run(sessions[op.user], op.path, op.args, op.input)
                .expect("run")
        });
        assert_eq!(r.code, op.code, "{} {:?}: {}", op.path, op.args, r.stdout);
        assert!(r.stdout.contains(op.expect), "{}: {}", op.path, r.stdout);
        *count = n;
    }
    counts
}

/// Allocations per operation of one warm cycle on `mode`.
fn warm_cycle_counts(mode: SystemMode) -> [u64; 8] {
    let mut sys = boot(mode);
    let mut sessions = [Pid(0); 3];
    for (pid, (user, pw)) in sessions.iter_mut().zip(USERS) {
        *pid = sys.login(user, pw).expect("login");
    }
    let init = sys.init_pid();
    let mtab = sys.process(init).read_file("/etc/mtab").expect("mtab");
    for _ in 0..3 {
        cycle(&mut sys, &sessions);
    }
    // Reset what the cycle appends to, as a long-running workload does.
    let mut os = sys.process(init);
    os.write_file("/var/spool/lpd/queue", b"", Mode(0o644))
        .expect("queue");
    os.write_file("/etc/mtab", &mtab, Mode(0o644))
        .expect("mtab");
    cycle(&mut sys, &sessions)
}

fn assert_budget(mode: SystemMode, per_op: u64) {
    let counts = warm_cycle_counts(mode);
    let total: u64 = counts.iter().sum();
    assert!(
        total <= per_op * CYCLE.len() as u64,
        "{mode:?}: {total} allocations in one warm cycle (per op {counts:?}), \
         budget {per_op} per op"
    );
}

/// A warm cycle measures 165 allocations on Protego (per op `[31, 19,
/// 11, 20, 33, 21, 13, 17]`): the run's arguments, terminal input and
/// output, and what the binaries parse, with no environment copied at
/// fork, one read of `/etc/passwd` per sudo and none in the agent.
#[test]
fn warm_protego_privops_cycle_stays_within_its_allocation_budget() {
    assert_budget(SystemMode::Protego, 21);
}

/// A warm cycle measures 428 allocations on legacy (per op `[44, 35, 11,
/// 104, 106, 24, 18, 86]`): the setuid binaries parse the databases.
#[test]
fn warm_legacy_privops_cycle_stays_within_its_allocation_budget() {
    assert_budget(SystemMode::Legacy, 54);
}

/// One warm `run_auth` of `scope`, with `password` typed first.
fn auth_allocs(sys: &System, pid: Pid, scope: AuthScope, password: &str) -> u64 {
    sys.kernel.task_mut(pid).expect("task").type_input(password);
    let (ok, n) = count_allocs(|| sys.kernel.run_auth(pid, scope));
    assert!(ok, "{scope:?} authenticates");
    n
}

/// A warm authentication reads the account files in place and reuses
/// the agent's fragment path: no allocation, for a user (name from
/// `/etc/passwd`, hash from its `/etc/shadows/` fragment) or for a group
/// (`/etc/group`, `/etc/gshadows/`), and none when the fragment is gone
/// and the hash comes from the legacy `/etc/shadow`.
#[test]
fn warm_kernel_authentication_is_allocation_free() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").expect("login");
    let cases = [
        (AuthScope::User(Uid(1000)), "alicepw"),
        (AuthScope::Group(Gid(2000)), "staffpw"),
    ];
    for (scope, password) in cases {
        auth_allocs(&sys, alice, scope, password);
        let n = auth_allocs(&sys, alice, scope, password);
        assert_eq!(n, 0, "{scope:?}: a warm run_auth allocated {n} times");
    }
    let root = sys.init_pid();
    sys.process(root)
        .unlink("/etc/shadows/alice")
        .expect("unlink fragment");
    let (user, password) = cases[0];
    auth_allocs(&sys, alice, user, password);
    let n = auth_allocs(&sys, alice, user, password);
    assert_eq!(
        n, 0,
        "legacy /etc/shadow: a warm run_auth allocated {n} times"
    );
}

/// A warm fork, exit and wait of a session's child allocates nothing:
/// the environment and the credentials' supplementary groups are shared
/// copy-on-write, not copied.
#[test]
fn warm_session_fork_exit_wait_allocates_nothing() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").expect("login");
    let cycle = |sys: &mut System| {
        count_allocs(|| {
            let child = sys.process(alice).fork().expect("fork");
            sys.process(child).exit(0).expect("exit");
            sys.process(alice).wait(child).expect("wait")
        })
        .1
    };
    // Warm: a child has landed in every task-table shard.
    for _ in 0..128 {
        cycle(&mut sys);
    }
    let n = cycle(&mut sys);
    assert_eq!(n, 0, "a warm fork + exit + wait allocated {n} times");
}

#[test]
fn warm_kernel_authentication_cost_does_not_grow_with_the_account_count() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").expect("login");
    let alice_auth = |sys: &System| auth_allocs(sys, alice, AuthScope::User(Uid(1000)), "alicepw");
    alice_auth(&sys);
    let before = alice_auth(&sys);

    // A hundred more accounts, ahead of alice's line.
    let init = sys.init_pid();
    let passwd = sys
        .process(init)
        .read_to_string("/etc/passwd")
        .expect("passwd");
    let at = passwd.find("\nalice:").expect("alice's line") + 1;
    let mut grown = passwd[..at].to_string();
    for i in 0..100 {
        grown.push_str(&format!(
            "user{i}:x:{}:{}::/home/user{i}:/bin/sh\n",
            5000 + i,
            5000 + i
        ));
    }
    grown.push_str(&passwd[at..]);
    sys.process(init)
        .write_file("/etc/passwd", grown.as_bytes(), Mode(0o644))
        .expect("write passwd");

    alice_auth(&sys);
    assert_eq!(alice_auth(&sys), before);
}

// ---------------------------------------------------------------------
// Service requests
// ---------------------------------------------------------------------

/// A warm `workload::web_request` (13 kernel entries: the client's
/// socket, connect, send, recv and close, and httpd's accept, recv, stat,
/// open, read, close, send and close) allocates nothing on either image:
/// the ABI borrows its arguments, `read`/`recv` fill the system's
/// reusable buffers, and a recycled socket slot keeps its receive buffer.
#[test]
fn warm_web_request_is_allocation_free_on_both_images() {
    for mode in [SystemMode::Protego, SystemMode::Legacy] {
        let mut sys = boot(mode);
        let srv = workload::start_web_service(&mut sys).expect("httpd");
        let client = workload::client_session(&mut sys).expect("client login");
        for _ in 0..64 {
            workload::web_request(&mut sys, client, srv).expect("request");
        }
        let (_, n) = count_allocs(|| {
            for _ in 0..256 {
                workload::web_request(&mut sys, client, srv).expect("request");
            }
        });
        assert_eq!(n, 0, "{mode:?}: 256 warm web requests allocated {n} times");
    }
}

/// The most a steady-state mail delivery may allocate: the staging
/// file's contents, which the kernel stores in a new inode each delivery.
/// The spool's path stays a dcache hit although the previous delivery's
/// rename replaced the spool: the probe redoes only the lookup of its
/// name.
const MAIL_BUDGET: u64 = 1;

/// The deliveries right after `drain_spools`, two per recipient, that may
/// allocate up to [`MAIL_DRAINED_BUDGET`] each: the drain unlinked the
/// spools, so the first delivery to each recipient finds no spool (its
/// walk fails and caches nothing), and the second walks to the spool the
/// first created and caches its path again.
const MAIL_DRAINED: usize = 4;

/// The most one of the first [`MAIL_DRAINED`] deliveries may allocate.
const MAIL_DRAINED_BUDGET: u64 = 4;

#[test]
fn warm_mail_delivery_stays_within_its_allocation_budget() {
    const RCPTS: [&str; 2] = ["alice", "bob"];
    for mode in [SystemMode::Protego, SystemMode::Legacy] {
        let mut sys = boot(mode);
        let srv = workload::start_mail_service(&mut sys).expect("exim4");
        let client = workload::client_session(&mut sys).expect("client login");
        for i in 0..64 {
            workload::mail_delivery(&mut sys, client, srv, RCPTS[i % 2], "warm-up")
                .expect("delivery");
        }
        workload::drain_spools(&mut sys, srv);
        let bodies: Vec<String> = (0..64).map(|i| format!("seeded body {i:016x}")).collect();
        let counts: Vec<u64> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let (r, n) = count_allocs(|| {
                    workload::mail_delivery(&mut sys, client, srv, RCPTS[i % 2], body)
                });
                r.expect("delivery");
                n
            })
            .collect();
        let (drained, steady) = counts.split_at(MAIL_DRAINED);
        assert!(
            drained.iter().all(|&n| n <= MAIL_DRAINED_BUDGET),
            "{mode:?}: the first deliveries after the drain allocated {drained:?}, \
             budget {MAIL_DRAINED_BUDGET} each"
        );
        assert!(
            steady.iter().all(|&n| n <= MAIL_BUDGET),
            "{mode:?}: steady-state deliveries allocated {steady:?}, budget {MAIL_BUDGET} each"
        );
    }
}
