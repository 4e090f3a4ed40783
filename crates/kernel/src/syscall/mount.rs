//! `mount(2)` and `umount(2)` — the paper's running example (Figure 1).
//!
//! Stock Linux hard-codes `capable(CAP_SYS_ADMIN)` in both calls. Protego's
//! LSM hook runs *first* and may grant a whitelisted (device, mountpoint,
//! options) combination to an unprivileged caller, or deny a request root
//! itself shouldn't make. `UseDefault` preserves the stock check exactly.

use crate::caps::Cap;
use crate::dev::DeviceKind;
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{Decision, MountRequest, UmountRequest};
use crate::task::Pid;
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway};
use crate::vfs::{Access, InodeData, MountOptions};

impl Kernel {
    /// `mount(2)`.
    pub fn sys_mount(
        &self,
        pid: Pid,
        source: &str,
        target: &str,
        fstype: &str,
        options: &str,
    ) -> KResult<()> {
        let r = self.walk(pid, target)?;
        if !self.vfs.inode(r.ino).data.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        let mountpoint = self.vfs.path_of(r.ino);
        // The same device mounted again on the same mountpoint is busy
        // (as mount(8) reports: "already mounted").
        if self
            .vfs
            .find_mount(&mountpoint)
            .map(|m| m.source == source)
            .unwrap_or(false)
        {
            return Err(Errno::EBUSY);
        }
        let mut opts = MountOptions::parse(options);

        let cred = self.task(pid)?.cred.clone();
        let req = MountRequest {
            source: source.to_string(),
            target: mountpoint.clone(),
            fstype: fstype.to_string(),
            options: opts.clone(),
        };
        let object = AuditObject::Path(format!("{} -> {}", source, mountpoint));
        let (decision, rule) = self.lsm_hook(Pathway::LsmSbMount, |m| m.sb_mount(&cred, &req));
        match decision {
            Decision::UseDefault => {
                if !self.capable(pid, Cap::SysAdmin) {
                    let msg = format!(
                        "mount: {} -> {} denied (no CAP_SYS_ADMIN)",
                        source, mountpoint
                    );
                    self.emit_kernel_event(
                        pid,
                        "mount",
                        Hook::SbMount,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        object,
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
                let msg = format!("mount: {} -> {} via CAP_SYS_ADMIN", source, mountpoint);
                self.emit_kernel_event(
                    pid,
                    "mount",
                    Hook::SbMount,
                    DecisionKind::UseDefault,
                    None,
                    object,
                    msg,
                );
            }
            Decision::Allow => {
                // User mounts are forced nosuid/nodev, as the mount
                // utilities (and the fstab "user" option) do.
                if !cred.euid.is_root() {
                    opts.nosuid = true;
                    opts.nodev = true;
                }
                let msg = format!(
                    "mount: lsm granted {} -> {} for {}",
                    source, mountpoint, cred.ruid
                );
                self.emit_lsm_event(
                    pid,
                    "mount",
                    Hook::SbMount,
                    DecisionKind::Allow,
                    None,
                    rule,
                    object,
                    msg,
                );
            }
            Decision::Deny(e) => {
                let msg = format!(
                    "mount: lsm denied {} -> {} ({})",
                    source,
                    mountpoint,
                    e.name()
                );
                self.emit_lsm_event(
                    pid,
                    "mount",
                    Hook::SbMount,
                    DecisionKind::Deny,
                    Some(e),
                    rule,
                    object,
                    msg,
                );
                return Err(e);
            }
        }

        // Locate the backing tree.
        let root_ino = match fstype {
            "proc" | "sysfs" | "tmpfs" | "fuse" => {
                // Pseudo filesystems get a fresh empty directory.
                let root = self.vfs.root();
                self.vfs.alloc(
                    root,
                    crate::vfs::Mode(0o755),
                    crate::cred::Uid::ROOT,
                    crate::cred::Gid::ROOT,
                    InodeData::Directory(Default::default()),
                )
            }
            _ => {
                let dev_res = self.walk(pid, source)?;
                let dev_id = match &self.vfs.inode(dev_res.ino).data {
                    InodeData::BlockDev(d) => *d,
                    _ => return Err(Errno::ENOTBLK),
                };
                {
                    let devices = self.devices.read();
                    match &devices.get(dev_id)?.kind {
                        DeviceKind::Block(b) => {
                            if !b.media_present || b.ejected {
                                return Err(Errno::ENXIO);
                            }
                        }
                        DeviceKind::DmCrypt(_) => {}
                        _ => return Err(Errno::ENOTBLK),
                    }
                }
                self.media_root(dev_id)?
            }
        };

        let ruid = self.task(pid)?.cred.ruid;
        self.vfs
            .add_mount(source, &mountpoint, fstype, opts, root_ino, r.ino, ruid)?;
        Ok(())
    }

    /// `umount(2)`.
    pub fn sys_umount(&self, pid: Pid, target: &str) -> KResult<()> {
        // Resolve the *mountpoint* (without crossing into the mount): we
        // look up the path string in the mount table.
        let cwd = self.task(pid)?.cwd;
        let r = self.vfs.resolve(cwd, target)?;
        for d in r.dirs.iter() {
            self.check_access(pid, d, Access::EXEC)?;
        }
        let mountpoint = self.vfs.path_of(r.ino);
        let m = self
            .vfs
            .find_mount(&mountpoint)
            .ok_or(Errno::EINVAL)?
            .clone();

        let cred = self.task(pid)?.cred.clone();
        let req = UmountRequest {
            target: mountpoint.clone(),
            source: m.source.clone(),
            fstype: m.fstype.clone(),
            mounted_by: m.mounted_by,
        };
        let object = AuditObject::Path(mountpoint.clone());
        let (decision, rule) = self.lsm_hook(Pathway::LsmSbUmount, |m| m.sb_umount(&cred, &req));
        match decision {
            Decision::UseDefault => {
                if !self.capable(pid, Cap::SysAdmin) {
                    let msg = format!("umount: {} denied (no CAP_SYS_ADMIN)", mountpoint);
                    self.emit_kernel_event(
                        pid,
                        "umount",
                        Hook::SbUmount,
                        DecisionKind::Deny,
                        Some(Errno::EPERM),
                        object,
                        msg,
                    );
                    return Err(Errno::EPERM);
                }
                let msg = format!("umount: {} via CAP_SYS_ADMIN", mountpoint);
                self.emit_kernel_event(
                    pid,
                    "umount",
                    Hook::SbUmount,
                    DecisionKind::UseDefault,
                    None,
                    object,
                    msg,
                );
            }
            Decision::Allow => {
                let msg = format!("umount: lsm granted {} for {}", mountpoint, cred.ruid);
                self.emit_lsm_event(
                    pid,
                    "umount",
                    Hook::SbUmount,
                    DecisionKind::Allow,
                    None,
                    rule,
                    object,
                    msg,
                );
            }
            Decision::Deny(e) => {
                let msg = format!("umount: lsm denied {} ({})", mountpoint, e.name());
                self.emit_lsm_event(
                    pid,
                    "umount",
                    Hook::SbUmount,
                    DecisionKind::Deny,
                    Some(e),
                    rule,
                    object,
                    msg,
                );
                return Err(e);
            }
        }

        self.vfs.remove_mount(&mountpoint)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        k.install_standard_devices().unwrap();
        k.vfs.mkdir_p("/mnt/cdrom").unwrap();
        k.vfs.mkdir_p("/media/usb").unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/mount");
        (k, root, user)
    }

    #[test]
    fn root_can_mount_and_umount() {
        let (k, root, _) = boot();
        k.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .unwrap();
        assert!(k.read_file(root, "/mnt/cdrom/README").is_ok());
        k.sys_umount(root, "/mnt/cdrom").unwrap();
        assert_eq!(
            k.read_file(root, "/mnt/cdrom/README").unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn user_mount_denied_on_stock_kernel() {
        let (k, _, user) = boot();
        assert_eq!(
            k.sys_mount(user, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
                .unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn user_umount_denied_on_stock_kernel() {
        let (k, root, user) = boot();
        k.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .unwrap();
        assert_eq!(k.sys_umount(user, "/mnt/cdrom").unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn mount_nonexistent_device() {
        let (k, root, _) = boot();
        assert_eq!(
            k.sys_mount(root, "/dev/nope", "/mnt/cdrom", "iso9660", "ro")
                .unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn mount_on_file_is_enotdir() {
        let (k, root, _) = boot();
        k.vfs
            .install_file(
                "/mnt/file",
                b"",
                crate::vfs::Mode(0o644),
                Uid::ROOT,
                Gid::ROOT,
            )
            .unwrap();
        assert_eq!(
            k.sys_mount(root, "/dev/cdrom", "/mnt/file", "iso9660", "ro")
                .unwrap_err(),
            Errno::ENOTDIR
        );
    }

    #[test]
    fn mount_non_block_source_is_enotblk() {
        let (k, root, _) = boot();
        assert_eq!(
            k.sys_mount(root, "/dev/null", "/mnt/cdrom", "iso9660", "ro")
                .unwrap_err(),
            Errno::ENOTBLK
        );
    }

    #[test]
    fn umount_of_unmounted_path_is_einval() {
        let (k, root, _) = boot();
        assert_eq!(k.sys_umount(root, "/mnt/cdrom").unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn proc_mounts_reflects_mount_table() {
        let (k, root, _) = boot();
        k.sys_mount(root, "/dev/sdb1", "/media/usb", "vfat", "rw")
            .unwrap();
        let s = k.read_to_string(root, "/proc/mounts").unwrap();
        assert!(s.contains("/dev/sdb1 /media/usb vfat rw"));
    }

    #[test]
    fn pseudo_fs_mount() {
        let (k, root, _) = boot();
        k.vfs.mkdir_p("/mnt/t").unwrap();
        k.sys_mount(root, "tmpfs", "/mnt/t", "tmpfs", "rw").unwrap();
        k.write_file(root, "/mnt/t/x", b"1", crate::vfs::Mode(0o644))
            .unwrap();
        k.sys_umount(root, "/mnt/t").unwrap();
        assert_eq!(k.read_file(root, "/mnt/t/x").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn ejected_media_is_enxio() {
        let (k, root, _) = boot();
        let dev = k.devices.read().id_by_path("/dev/cdrom").unwrap();
        {
            let mut devices = k.devices.write();
            if let DeviceKind::Block(b) = &mut devices.get_mut(dev).unwrap().kind {
                b.ejected = true;
            }
        }
        assert_eq!(
            k.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
                .unwrap_err(),
            Errno::ENXIO
        );
    }
}
