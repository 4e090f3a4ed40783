//! Counting-allocator proof that the steady-state VFS fast path is
//! allocation-free end to end: once the interner, dcache, path-arena
//! pools and fd table are warm, a resolve/open/read/close/getuid cycle
//! under the full Protego LSM performs **zero** heap allocations, and so
//! does a warm Protego hook that matches a policy rule.
//!
//! Built only with `--features alloc-count` (see `[[test]]` in
//! Cargo.toml) so ordinary test runs keep the stock allocator.

use protego_core::ProtegoLsm;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::lsm::{Decision, FileDecision, FileOpenCtx, MountRequest, SecurityModule};
use sim_kernel::net::SimNet;
use sim_kernel::syscall::OpenFlags;
use sim_kernel::vfs::{Access, Mode, MountOptions};
use std::alloc::{GlobalAlloc, Layout, System};
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

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_gated();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_gated();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's gate up and returns how many heap
/// allocations it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    GATE.with(|g| g.set(true));
    f();
    GATE.with(|g| g.set(false));
    ALLOCS.with(|a| a.get())
}

fn fastpath_cycle(k: &Kernel, pid: sim_kernel::task::Pid, buf: &mut Vec<u8>) {
    let fd = k
        .sys_open(pid, "/etc/hosts", OpenFlags::read_only())
        .expect("open");
    buf.clear();
    k.sys_read(pid, fd, buf, 64).expect("read");
    k.sys_close(pid, fd).expect("close");
    k.sys_getuid(pid).expect("getuid");
}

#[test]
fn steady_state_resolve_open_read_is_allocation_free() {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().expect("devices");
    k.register_lsm(Box::new(ProtegoLsm::new())).expect("lsm");
    let _root = k.spawn_init();
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

    // Warmup: populate the interner, the dcache entry for the path, the
    // path-arena pools, the fd slot, and the read buffer's capacity.
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..64 {
        fastpath_cycle(&k, user, &mut buf);
    }

    let n = count_allocs(|| {
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
        last_auth: None,
        last_auth_scope: None,
        now: 0,
    };
    let mount = MountRequest {
        source: "/dev/cdrom".into(),
        target: "/mnt/cdrom".into(),
        fstype: "iso9660".into(),
        options: MountOptions::parse("ro"),
    };
    let foreign = FileOpenCtx {
        binary: "/bin/cat",
        ..open
    };
    // Warmup: interns the key path and fills the keyfile-rule cache.
    lsm.file_open(&open);

    let n = count_allocs(|| {
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
