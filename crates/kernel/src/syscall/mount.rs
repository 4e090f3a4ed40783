//! `mount(2)` and `umount(2)` — the paper's running example (Figure 1).
//!
//! Stock Linux hard-codes `capable(CAP_SYS_ADMIN)` in both calls. Protego's
//! LSM hook runs *first* and may grant a whitelisted (device, mountpoint,
//! options) combination to an unprivileged caller, or deny a request root
//! itself shouldn't make. `UseDefault` preserves the stock check exactly.

use crate::caps::Cap;
use crate::dev::DeviceKind;
use crate::error::{Errno, KResult};
use crate::kernel::{Kernel, Site};
use crate::lsm::{MountRequest, SecurityModule, UmountRequest};
use crate::task::{Pid, Task};
use crate::trace::AuditObject;
use crate::vfs::{InodeData, MountOptions};

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

        let hook = |t: &Task, m: &dyn SecurityModule| {
            let req = MountRequest {
                source,
                target: &mountpoint,
                fstype,
                options: &opts,
            };
            m.sb_mount(&t.cred, &req)
        };
        let object = || AuditObject::Path(format!("{} -> {}", source, mountpoint));
        match self.decide(pid, Site::MOUNT, object, hook, Ok)? {
            None => self.stock(pid, Site::MOUNT, self.capable(pid, Cap::SysAdmin), object)?,
            // User mounts are forced nosuid/nodev, as the mount utilities
            // (and the fstab "user" option) do.
            Some(()) if !self.task(pid)?.cred.euid.is_root() => {
                opts.nosuid = true;
                opts.nodev = true;
            }
            Some(()) => {}
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
        let r = self.walk(pid, target)?;
        let mountpoint = self.vfs.path_of(r.ino);
        let m = self.vfs.find_mount(&mountpoint).ok_or(Errno::EINVAL)?;

        let hook = |t: &Task, module: &dyn SecurityModule| {
            let req = UmountRequest {
                target: &mountpoint,
                source: &m.source,
                fstype: &m.fstype,
                mounted_by: m.mounted_by,
            };
            module.sb_umount(&t.cred, &req)
        };
        let object = || AuditObject::Path(mountpoint.clone());
        if self.decide(pid, Site::UMOUNT, object, hook, Ok)?.is_none() {
            self.stock(pid, Site::UMOUNT, self.capable(pid, Cap::SysAdmin), object)?;
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
