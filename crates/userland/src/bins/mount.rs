//! The mount utilities: `mount`, `umount`, `fusermount`, `eject`.
//!
//! Figure 1's running example. The legacy variants are setuid-to-root and
//! enforce `/etc/fstab`'s `user`/`users` options themselves before issuing
//! the privileged system call; the Protego variants simply issue the call
//! and let the kernel whitelist decide (the paper's `-25` lines of
//! hard-coded root checks).

use super::{fail, CatalogItem};
use crate::system::{BinEntry, Proc, SystemMode};
use protego_core::fstab::fstab_entries_at;
use sim_kernel::cred::Uid;
use sim_kernel::error::Errno;
use sim_kernel::syscall::{IoctlCmd, OpenFlags};
use sim_kernel::vfs::Mode;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/bin/mount",
            entry: BinEntry {
                func: mount_main,
                points: &[
                    "start",
                    "parse_options",
                    "fstab_entry",
                    "fstab_missing",
                    "legacy_user_check_pass",
                    "legacy_user_check_fail",
                    "syscall_ok",
                    "syscall_fail",
                    "mtab_update",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/bin/umount",
            entry: BinEntry {
                func: umount_main,
                points: &[
                    "start",
                    "parse_args",
                    "legacy_user_check_pass",
                    "legacy_user_check_fail",
                    "syscall_ok",
                    "syscall_fail",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/bin/fusermount",
            entry: BinEntry {
                func: fusermount_main,
                points: &["start", "syscall_ok", "syscall_fail"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/eject",
            entry: BinEntry {
                func: eject_main,
                points: &["start", "umount_first", "eject_ok", "eject_fail"],
            },
            setuid: true,
        },
    ]
}

fn read_fstab(p: &mut Proc<'_>) -> String {
    p.read_to_string("/etc/fstab").unwrap_or_default()
}

/// `mount <mountpoint>` (fstab lookup) or `mount <source> <mountpoint>
/// <fstype> [options]`.
pub fn mount_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let args = p.args.clone();
    let (source, target, fstype, mut options) = match args.len() {
        1 => {
            let fstab = read_fstab(p);
            let entry = fstab_entries_at(&fstab, &args[0]).next();
            match entry {
                Some(e) => {
                    p.cov("fstab_entry");
                    (e.device, e.mountpoint, e.fstype, e.options.join(","))
                }
                None => {
                    p.cov("fstab_missing");
                    return fail(p, "mount", &args[0], Errno::ENOENT);
                }
            }
        }
        2..=4 => (
            args[0].clone(),
            args[1].clone(),
            args.get(2).cloned().unwrap_or_else(|| "auto".into()),
            args.get(3).cloned().unwrap_or_default(),
        ),
        _ => {
            p.println("usage: mount <mountpoint> | mount <source> <target> [fstype] [options]");
            return 2;
        }
    };
    // Historical exploit site: option-string parsing (CVE-2006-2183 class).
    p.vuln("parse_options");

    if p.sys.mode == SystemMode::Legacy {
        // The setuid binary's own policy enforcement.
        if !p.euid().is_root() {
            return fail(p, "mount", "must be setuid root", Errno::EPERM);
        }
        if !p.ruid().is_root() {
            let fstab = read_fstab(p);
            let permitted =
                fstab_entries_at(&fstab, &target).any(|e| e.device == source && e.user_mountable());
            if !permitted {
                p.cov("legacy_user_check_fail");
                return fail(p, "mount", "only root can do that", Errno::EPERM);
            }
            p.cov("legacy_user_check_pass");
            // Mount-binary-enforced hardening for user mounts.
            if !options.is_empty() {
                options.push(',');
            }
            options.push_str("nosuid,nodev");
        }
    }

    match p.os().mount(&source, &target, &fstype, &options) {
        Ok(()) => {
            p.cov("syscall_ok");
            if p.sys.mode == SystemMode::Legacy {
                p.cov("mtab_update");
                let line = format!("{} {} {} {}\n", source, target, fstype, options);
                let _ = p.append_file("/etc/mtab", line.as_bytes());
            }
            p.println(&format!("mounted {} on {}", source, target));
            0
        }
        Err(e) => {
            p.cov("syscall_fail");
            fail(p, "mount", &target, e)
        }
    }
}

/// `umount <mountpoint>`.
pub fn umount_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: argument handling in the setuid binary
    // (CVE-2007-5191 class).
    p.vuln("parse_args");
    let target = match p.args.first() {
        Some(t) => t.clone(),
        None => {
            p.println("usage: umount <mountpoint>");
            return 2;
        }
    };
    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "umount", "must be setuid root", Errno::EPERM);
        }
        if !p.ruid().is_root() {
            // Real umount(8) consults the mount table before its own
            // policy gate: a target that is not mounted at all reports
            // the syscall's EINVAL — exactly what the non-setuid
            // Protego binary reports — not "only root can do that".
            // (Checking policy first was a fuzzer-surfaced divergence.)
            let mount = p.sys.kernel.vfs.find_mount(&target);
            if let Some(m) = mount {
                // The legacy binary re-derives policy from fstab and mtab.
                let fstab = read_fstab(p);
                let entries: Vec<_> = fstab_entries_at(&fstab, &target).collect();
                let fstab_ok = entries.iter().any(|e| e.user_mountable());
                let users_ok = entries.iter().any(|e| e.has_option("users"));
                let mounted_by_me = m.mounted_by == p.ruid();
                if !(fstab_ok && (users_ok || mounted_by_me)) {
                    p.cov("legacy_user_check_fail");
                    return fail(p, "umount", "only root can do that", Errno::EPERM);
                }
                p.cov("legacy_user_check_pass");
            }
        }
    }
    match p.os().umount(&target) {
        Ok(()) => {
            p.cov("syscall_ok");
            p.println(&format!("unmounted {}", target));
            0
        }
        Err(e) => {
            p.cov("syscall_fail");
            fail(p, "umount", &target, e)
        }
    }
}

/// `fusermount <mountpoint>` — mounts a FUSE filesystem at a directory the
/// user owns.
pub fn fusermount_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let target = match p.args.first() {
        Some(t) => t.clone(),
        None => {
            p.println("usage: fusermount <mountpoint>");
            return 2;
        }
    };
    if p.sys.mode == SystemMode::Legacy && !p.euid().is_root() {
        return fail(p, "fusermount", "must be setuid root", Errno::EPERM);
    }
    if p.sys.mode == SystemMode::Legacy && !p.ruid().is_root() {
        // The legacy binary insists the user owns the mountpoint.
        match p.os().stat(&target) {
            Ok(st) if st.uid == p.ruid() => {}
            Ok(_) => return fail(p, "fusermount", "mountpoint not owned by you", Errno::EPERM),
            Err(e) => return fail(p, "fusermount", &target, e),
        }
    }
    match p.os().mount("fuse", &target, "fuse", "rw") {
        Ok(()) => {
            p.cov("syscall_ok");
            p.println(&format!("fuse mounted on {}", target));
            0
        }
        Err(e) => {
            p.cov("syscall_fail");
            fail(p, "fusermount", &target, e)
        }
    }
}

/// `eject [device]` — unmounts (if mounted) and ejects removable media.
pub fn eject_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let device = p
        .args
        .first()
        .cloned()
        .unwrap_or_else(|| "/dev/cdrom".to_string());
    // Unmount any mount backed by the device first.
    let mounted_at = p
        .sys
        .kernel
        .vfs
        .mounts()
        .iter()
        .find(|m| m.source == device)
        .map(|m| m.mountpoint.clone());
    if let Some(at) = mounted_at {
        p.cov("umount_first");
        if let Err(e) = p.os().umount(&at) {
            return fail(p, "eject", &at, e);
        }
    }
    let fd = match p.open(&device, OpenFlags::read_only()) {
        Ok(fd) => fd,
        Err(e) => return fail(p, "eject", &device, e),
    };
    match p.os().ioctl(fd, IoctlCmd::Eject) {
        Ok(_) => {
            p.cov("eject_ok");
            p.println(&format!("ejected {}", device));
            let _ = p.os().close(fd);
            0
        }
        Err(e) => {
            p.cov("eject_fail");
            let _ = p.os().close(fd);
            fail(p, "eject", &device, e)
        }
    }
}

/// Ensures `/etc/mtab` exists with sane permissions (image builder helper).
pub fn init_mtab(kernel: &sim_kernel::Kernel) -> sim_kernel::KResult<()> {
    kernel
        .vfs
        .install_file(
            "/etc/mtab",
            b"",
            Mode(0o644),
            Uid::ROOT,
            sim_kernel::cred::Gid::ROOT,
        )
        .map(|_| ())
}
