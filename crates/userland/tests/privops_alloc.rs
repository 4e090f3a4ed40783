//! Counting-allocator budget for a warm privileged run: one cycle of the
//! eight privops operations (mount, umount, ping, two sudo runs, su,
//! newgrp and a sudo denial, each a fork/exec/wait with authentication
//! where the policy asks for it) stays within a per-operation allocation
//! budget on both images, and one warm kernel authentication costs the
//! same number of allocations however many accounts `/etc/passwd` holds.
//!
//! The binaries look up the one account they need instead of parsing
//! whole account databases, and the authentication agent reads the files
//! in place; either regressing shows up here as a count, not a timing.

use sim_kernel::cred::Uid;
use sim_kernel::lsm::AuthScope;
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use userland::{boot, System, SystemMode};

// Per-thread gate and counter with const initializers, as in the
// protego-core zero-alloc gate: the allocator hooks read them without
// allocating, and the test harness's own threads are never counted.
thread_local! {
    static GATE: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, counting allocations (not frees)
/// made by this thread while its gate is up.
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

#[test]
fn warm_protego_privops_cycle_stays_within_its_allocation_budget() {
    assert_budget(SystemMode::Protego, 64);
}

#[test]
fn warm_legacy_privops_cycle_stays_within_its_allocation_budget() {
    assert_budget(SystemMode::Legacy, 120);
}

/// One warm `run_auth` for alice, with her password typed first.
fn auth_allocs(sys: &System, pid: Pid) -> u64 {
    sys.kernel
        .task_mut(pid)
        .expect("task")
        .type_input("alicepw");
    let (ok, n) = count_allocs(|| sys.kernel.run_auth(pid, AuthScope::User(Uid(1000))));
    assert!(ok, "alice authenticates");
    n
}

#[test]
fn warm_kernel_authentication_cost_does_not_grow_with_the_account_count() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").expect("login");
    auth_allocs(&sys, alice);
    let before = auth_allocs(&sys, alice);

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

    auth_allocs(&sys, alice);
    assert_eq!(auth_allocs(&sys, alice), before);
}
