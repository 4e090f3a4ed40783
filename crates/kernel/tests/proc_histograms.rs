//! End-to-end coverage for the `/proc/kernel/histograms` surface: the
//! span-timing registry must be readable through an ordinary
//! open+read syscall pair, carry the pathways the preceding dispatches
//! actually exercised, and stay root-only like the LSM metrics nodes.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::net::SimNet;
use sim_kernel::syscall::{OpenFlags, Syscall};
use sim_kernel::task::Pid;
use sim_kernel::trace::span;
use sim_kernel::vfs::Mode;

fn boot() -> (Kernel, Pid, Pid) {
    let k = Kernel::new(SimNet::new());
    let root = k.spawn_init();
    k.vfs.mkdir_p("/tmp").unwrap();
    let t = k.vfs.resolve(k.vfs.root(), "/tmp").unwrap().ino;
    k.vfs.inode_mut(t).mode = Mode(0o1777);
    k.install_standard_devices().unwrap();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
    (k, root, user)
}

fn read_all(k: &mut Kernel, pid: Pid, path: &str) -> Result<String, Errno> {
    let fd = k
        .dispatch(
            pid,
            Syscall::Open {
                path,
                flags: OpenFlags::read_only(),
            },
        )
        .fd()?;
    let data = k.dispatch(pid, Syscall::Read { fd, count: 65536 }).data()?;
    let _ = k.dispatch(pid, Syscall::Close { fd });
    Ok(String::from_utf8(data).expect("proc text is utf-8"))
}

/// Dispatched syscalls populate the histograms node with the pathways
/// they actually crossed, and the text exposes the full stat line per
/// pathway.
#[test]
fn histograms_node_reflects_dispatched_pathways() {
    let (mut k, root, user) = boot();
    span::reset();
    span::set_enabled(true);

    let fd = k
        .dispatch(
            user,
            Syscall::Open {
                path: "/tmp/spanfile",
                flags: OpenFlags::create_trunc(Mode(0o644)),
            },
        )
        .fd()
        .unwrap();
    k.dispatch(user, Syscall::Write { fd, data: b"spans" })
        .size()
        .unwrap();
    k.dispatch(user, Syscall::Close { fd }).unit().unwrap();

    let text = read_all(&mut k, root, "/proc/kernel/histograms").unwrap();
    span::set_enabled(false);
    span::reset();

    for pathway in ["hist_dispatch", "hist_sys_fs", "hist_vfs_resolve"] {
        assert!(text.contains(pathway), "missing {pathway} in:\n{text}");
    }
    for field in ["count=", "total_ns=", "self_ns=", "p50=", "p99="] {
        assert!(text.contains(field), "missing {field} in:\n{text}");
    }
}

/// The node is 0600 root-owned: an unprivileged open is refused before
/// any timing state can leak.
#[test]
fn histograms_node_is_root_only() {
    let (mut k, _root, user) = boot();
    assert_eq!(
        read_all(&mut k, user, "/proc/kernel/histograms").unwrap_err(),
        Errno::EACCES
    );
}
