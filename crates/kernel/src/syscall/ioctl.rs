//! Device ioctls: modem configuration (pppd), dm-crypt metadata, video
//! mode setting (KMS), and block-device eject.
//!
//! These are the "calls with privileged options" of the paper's taxonomy
//! (§3.1, after Hecht et al.): the operation family is exported to
//! everyone, but particular options are hard-gated on capabilities in
//! stock Linux even when system policy would allow them.

use crate::caps::Cap;
use crate::dev::{claim_modem, DeviceKind, DmFullStatus, ModemOpt};
use crate::error::{Errno, KResult};
use crate::kernel::Kernel;
use crate::lsm::{Decision, KmsOp};
use crate::task::{FdObject, Pid};
use crate::trace::{AuditObject, DecisionKind, Hook, Pathway};
use crate::vfs::InodeData;

/// Ioctl commands dispatched by [`Kernel::sys_ioctl`].
#[derive(Clone, Debug)]
pub enum IoctlCmd {
    /// Configure a modem line (pppd).
    Modem(ModemOpt),
    /// Claim the modem line for this process.
    ModemClaim,
    /// Release the modem line.
    ModemRelease,
    /// dm-crypt full table status — discloses topology **and keys**.
    DmStatus,
    /// Video operations (mode set, VT switch, raw register access).
    Kms(KmsOp),
    /// Eject removable media.
    Eject,
    /// Load media (close the tray).
    LoadMedia,
}

/// Ioctl results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoctlOut {
    /// Nothing to return.
    None,
    /// dm-crypt full status.
    Dm(DmFullStatus),
    /// Current video mode.
    Mode(u32, u32, u32),
}

impl Kernel {
    fn fd_device(&self, pid: Pid, fd: i32) -> KResult<crate::dev::DevId> {
        match self.task(pid)?.fd(fd)?.object {
            FdObject::File { ino, .. } => match self.vfs.inode(ino).data {
                InodeData::CharDev(d) | InodeData::BlockDev(d) => Ok(d),
                _ => Err(Errno::ENOTTY),
            },
            _ => Err(Errno::ENOTTY),
        }
    }

    /// `ioctl(2)` on a device fd.
    pub fn sys_ioctl(&self, pid: Pid, fd: i32, cmd: IoctlCmd) -> KResult<IoctlOut> {
        let dev = self.fd_device(pid, fd)?;
        // Snapshot path + kind so the registry guard is not held across the
        // LSM hooks and audit emissions below.
        let (dev_path, kind) = {
            let devices = self.devices.read();
            let rec = devices.get(dev)?;
            (rec.path.clone(), rec.kind.clone())
        };
        match (cmd, kind) {
            (IoctlCmd::ModemClaim, DeviceKind::Modem(_)) => {
                let pidn = pid.0;
                let mut devices = self.devices.write();
                if let DeviceKind::Modem(m) = &mut devices.get_mut(dev)?.kind {
                    claim_modem(m, pidn)?;
                }
                Ok(IoctlOut::None)
            }
            (IoctlCmd::ModemRelease, DeviceKind::Modem(_)) => {
                let pidn = pid.0;
                let mut devices = self.devices.write();
                if let DeviceKind::Modem(m) = &mut devices.get_mut(dev)?.kind {
                    crate::dev::release_modem(m, pidn);
                }
                Ok(IoctlOut::None)
            }
            (IoctlCmd::Modem(opt), DeviceKind::Modem(state)) => {
                let cred = self.task(pid)?.cred.clone();
                let (decision, rule) =
                    self.lsm_hook(Pathway::LsmIoctl, |m| m.ioctl_modem(&cred, opt, &state));
                match decision {
                    Decision::UseDefault => {
                        if !self.capable(pid, Cap::NetAdmin) {
                            let msg = format!(
                                "ioctl: modem {:?} denied for {} (no CAP_NET_ADMIN)",
                                opt, cred.ruid
                            );
                            self.emit_kernel_event(
                                pid,
                                "ioctl",
                                Hook::IoctlModem,
                                DecisionKind::Deny,
                                Some(Errno::EPERM),
                                AuditObject::Device(dev_path),
                                msg,
                            );
                            return Err(Errno::EPERM);
                        }
                    }
                    Decision::Allow => {
                        let msg = format!("ioctl: lsm granted modem {:?} to {}", opt, cred.ruid);
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlModem,
                            DecisionKind::Allow,
                            None,
                            rule,
                            AuditObject::Device(dev_path),
                            msg,
                        );
                    }
                    Decision::Deny(e) => {
                        let msg = format!(
                            "ioctl: lsm denied modem {:?} to {} ({})",
                            opt,
                            cred.ruid,
                            e.name()
                        );
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlModem,
                            DecisionKind::Deny,
                            Some(e),
                            rule,
                            AuditObject::Device(dev_path),
                            msg,
                        );
                        return Err(e);
                    }
                }
                let mut devices = self.devices.write();
                if let DeviceKind::Modem(m) = &mut devices.get_mut(dev)?.kind {
                    match opt {
                        ModemOpt::Baud(b) => m.baud = b,
                        ModemOpt::Compression(c) => m.compression = c,
                        ModemOpt::FlowControl(f) => m.flow_control = f,
                        ModemOpt::HardwareReset => {
                            *m = crate::dev::ModemState::default();
                        }
                    }
                }
                Ok(IoctlOut::None)
            }
            (IoctlCmd::DmStatus, DeviceKind::DmCrypt(state)) => {
                let cred = self.task(pid)?.cred.clone();
                let (decision, rule) = self.lsm_hook(Pathway::LsmIoctl, |m| m.ioctl_dmcrypt(&cred));
                match decision {
                    Decision::UseDefault => {
                        if !self.capable(pid, Cap::SysAdmin) {
                            let msg = format!(
                                "ioctl: dm status denied for {} (no CAP_SYS_ADMIN)",
                                cred.ruid
                            );
                            self.emit_kernel_event(
                                pid,
                                "ioctl",
                                Hook::IoctlDmcrypt,
                                DecisionKind::Deny,
                                Some(Errno::EPERM),
                                AuditObject::Device(dev_path),
                                msg,
                            );
                            return Err(Errno::EPERM);
                        }
                    }
                    Decision::Allow => {}
                    Decision::Deny(e) => {
                        let msg = format!(
                            "ioctl: lsm denied dm status to {} ({})",
                            cred.ruid,
                            e.name()
                        );
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlDmcrypt,
                            DecisionKind::Deny,
                            Some(e),
                            rule,
                            AuditObject::Device(dev_path),
                            msg,
                        );
                        return Err(e);
                    }
                }
                // All-or-nothing disclosure: this is the interface flaw the
                // paper highlights (Table 4) — the same ioctl returns keys.
                Ok(IoctlOut::Dm(DmFullStatus {
                    name: state.name.clone(),
                    physical_device: state.physical_device.clone(),
                    cipher: state.cipher.clone(),
                    key_material: state.key_material.clone(),
                }))
            }
            (IoctlCmd::Kms(op), DeviceKind::Video(state)) => {
                let cred = self.task(pid)?.cred.clone();
                let (decision, rule) = self.lsm_hook(Pathway::LsmIoctl, |m| m.ioctl_kms(&cred, op));
                match decision {
                    Decision::UseDefault => {
                        // Stock policy: with KMS the kernel manages mode
                        // setting and VT switching for any console owner;
                        // raw register access (the pre-KMS path) requires
                        // CAP_SYS_RAWIO + CAP_SYS_ADMIN. On a non-KMS card
                        // every operation needs the capabilities — this is
                        // why pre-KMS X must be setuid root (§4.5).
                        let privileged_ok =
                            self.capable(pid, Cap::SysRawio) && self.capable(pid, Cap::SysAdmin);
                        let need_priv =
                            matches!(op, KmsOp::RawRegisterAccess) || !state.kms_capable;
                        if need_priv && !privileged_ok {
                            let msg = format!(
                                "ioctl: kms {:?} denied for {} (needs CAP_SYS_RAWIO+CAP_SYS_ADMIN)",
                                op, cred.ruid
                            );
                            self.emit_kernel_event(
                                pid,
                                "ioctl",
                                Hook::IoctlKms,
                                DecisionKind::Deny,
                                Some(Errno::EPERM),
                                AuditObject::Device(dev_path),
                                msg,
                            );
                            return Err(Errno::EPERM);
                        }
                    }
                    Decision::Allow => {}
                    Decision::Deny(e) => {
                        let msg = format!(
                            "ioctl: lsm denied kms {:?} to {} ({})",
                            op,
                            cred.ruid,
                            e.name()
                        );
                        self.emit_lsm_event(
                            pid,
                            "ioctl",
                            Hook::IoctlKms,
                            DecisionKind::Deny,
                            Some(e),
                            rule,
                            AuditObject::Device(dev_path),
                            msg,
                        );
                        return Err(e);
                    }
                }
                let mut devices = self.devices.write();
                if let DeviceKind::Video(v) = &mut devices.get_mut(dev)?.kind {
                    match op {
                        KmsOp::SetMode {
                            width,
                            height,
                            refresh,
                        } => {
                            v.mode = (width, height, refresh);
                        }
                        KmsOp::VtSwitch { vt } => {
                            // The kernel saves and restores per-VT state —
                            // the division of labour KMS introduced.
                            let old = v.active_vt;
                            let old_mode = v.mode;
                            v.saved_states.retain(|(svt, _)| *svt != old);
                            v.saved_states.push((old, old_mode));
                            if let Some((_, m)) = v.saved_states.iter().find(|(svt, _)| *svt == vt)
                            {
                                v.mode = *m;
                            }
                            v.active_vt = vt;
                        }
                        KmsOp::RawRegisterAccess => {}
                    }
                    return Ok(IoctlOut::Mode(v.mode.0, v.mode.1, v.mode.2));
                }
                Ok(IoctlOut::None)
            }
            (IoctlCmd::Eject, DeviceKind::Block(_)) => {
                // Ejecting is permitted to the device-node owner/group (the
                // classic cdrom group) — our DAC check happened at open.
                let mut devices = self.devices.write();
                if let DeviceKind::Block(b) = &mut devices.get_mut(dev)?.kind {
                    b.ejected = true;
                }
                Ok(IoctlOut::None)
            }
            (IoctlCmd::LoadMedia, DeviceKind::Block(_)) => {
                let mut devices = self.devices.write();
                if let DeviceKind::Block(b) = &mut devices.get_mut(dev)?.kind {
                    b.ejected = false;
                }
                Ok(IoctlOut::None)
            }
            _ => Err(Errno::ENOTTY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Credentials, Gid, Uid};
    use crate::net::SimNet;
    use crate::syscall::OpenFlags;

    fn boot() -> (Kernel, Pid, Pid) {
        let k = Kernel::new(SimNet::new());
        let root = k.spawn_init();
        k.install_standard_devices().unwrap();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/pppd");
        (k, root, user)
    }

    fn open_dev(k: &Kernel, pid: Pid, path: &str) -> i32 {
        k.sys_open(pid, path, OpenFlags::read_write()).unwrap()
    }

    #[test]
    fn modem_config_requires_cap_on_stock() {
        let (k, root, user) = boot();
        let fd_u = open_dev(&k, user, "/dev/ttyS0");
        assert_eq!(
            k.sys_ioctl(user, fd_u, IoctlCmd::Modem(ModemOpt::Baud(57600)))
                .unwrap_err(),
            Errno::EPERM
        );
        let fd_r = open_dev(&k, root, "/dev/ttyS0");
        k.sys_ioctl(root, fd_r, IoctlCmd::Modem(ModemOpt::Baud(57600)))
            .unwrap();
    }

    #[test]
    fn modem_claim_exclusive() {
        let (k, root, user) = boot();
        let fd_u = open_dev(&k, user, "/dev/ttyS0");
        k.sys_ioctl(user, fd_u, IoctlCmd::ModemClaim).unwrap();
        let fd_r = open_dev(&k, root, "/dev/ttyS0");
        assert_eq!(
            k.sys_ioctl(root, fd_r, IoctlCmd::ModemClaim).unwrap_err(),
            Errno::EBUSY
        );
        k.sys_ioctl(user, fd_u, IoctlCmd::ModemRelease).unwrap();
        k.sys_ioctl(root, fd_r, IoctlCmd::ModemClaim).unwrap();
    }

    #[test]
    fn dm_ioctl_discloses_keys_to_root_only() {
        let (k, root, user) = boot();
        // The node is 0660 root:root — user can't even open it; loosen to
        // demonstrate that the *ioctl* check also protects it.
        let r = k
            .vfs
            .resolve(k.vfs.root(), "/dev/mapper/cryptohome")
            .unwrap()
            .ino;
        k.vfs.inode_mut(r).mode = crate::vfs::Mode(0o666);
        let fd_u = open_dev(&k, user, "/dev/mapper/cryptohome");
        assert_eq!(
            k.sys_ioctl(user, fd_u, IoctlCmd::DmStatus).unwrap_err(),
            Errno::EPERM
        );
        let fd_r = open_dev(&k, root, "/dev/mapper/cryptohome");
        match k.sys_ioctl(root, fd_r, IoctlCmd::DmStatus).unwrap() {
            IoctlOut::Dm(s) => {
                assert_eq!(s.physical_device, "/dev/sda3");
                assert!(!s.key_material.is_empty());
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn kms_mode_set_unprivileged() {
        let (k, _, user) = boot();
        let fd = open_dev(&k, user, "/dev/dri/card0");
        let out = k
            .sys_ioctl(
                user,
                fd,
                IoctlCmd::Kms(KmsOp::SetMode {
                    width: 1920,
                    height: 1080,
                    refresh: 60,
                }),
            )
            .unwrap();
        assert_eq!(out, IoctlOut::Mode(1920, 1080, 60));
    }

    #[test]
    fn kms_vt_switch_saves_and_restores() {
        let (k, _, user) = boot();
        let fd = open_dev(&k, user, "/dev/dri/card0");
        k.sys_ioctl(
            user,
            fd,
            IoctlCmd::Kms(KmsOp::SetMode {
                width: 1920,
                height: 1080,
                refresh: 60,
            }),
        )
        .unwrap();
        k.sys_ioctl(user, fd, IoctlCmd::Kms(KmsOp::VtSwitch { vt: 2 }))
            .unwrap();
        k.sys_ioctl(
            user,
            fd,
            IoctlCmd::Kms(KmsOp::SetMode {
                width: 800,
                height: 600,
                refresh: 75,
            }),
        )
        .unwrap();
        let out = k
            .sys_ioctl(user, fd, IoctlCmd::Kms(KmsOp::VtSwitch { vt: 1 }))
            .unwrap();
        // The kernel restored VT 1's mode.
        assert_eq!(out, IoctlOut::Mode(1920, 1080, 60));
    }

    #[test]
    fn raw_register_access_requires_privilege() {
        let (k, root, user) = boot();
        let fd_u = open_dev(&k, user, "/dev/dri/card0");
        assert_eq!(
            k.sys_ioctl(user, fd_u, IoctlCmd::Kms(KmsOp::RawRegisterAccess))
                .unwrap_err(),
            Errno::EPERM
        );
        let fd_r = open_dev(&k, root, "/dev/dri/card0");
        k.sys_ioctl(root, fd_r, IoctlCmd::Kms(KmsOp::RawRegisterAccess))
            .unwrap();
    }

    #[test]
    fn pre_kms_card_needs_root_for_everything() {
        let (k, _, user) = boot();
        let dev = k.devices.read().id_by_path("/dev/dri/card0").unwrap();
        {
            let mut devices = k.devices.write();
            if let DeviceKind::Video(v) = &mut devices.get_mut(dev).unwrap().kind {
                v.kms_capable = false;
            }
        }
        let fd = open_dev(&k, user, "/dev/dri/card0");
        assert_eq!(
            k.sys_ioctl(
                user,
                fd,
                IoctlCmd::Kms(KmsOp::SetMode {
                    width: 640,
                    height: 480,
                    refresh: 60
                })
            )
            .unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn eject_and_reload() {
        let (k, root, _) = boot();
        let fd = open_dev(&k, root, "/dev/cdrom");
        k.sys_ioctl(root, fd, IoctlCmd::Eject).unwrap();
        let dev = k.devices.read().id_by_path("/dev/cdrom").unwrap();
        {
            let devices = k.devices.read();
            match &devices.get(dev).unwrap().kind {
                DeviceKind::Block(b) => assert!(b.ejected),
                _ => unreachable!(),
            }
        }
        k.sys_ioctl(root, fd, IoctlCmd::LoadMedia).unwrap();
    }

    #[test]
    fn ioctl_on_regular_file_is_enotty() {
        let (k, root, _) = boot();
        k.vfs.mkdir_p("/tmp").unwrap();
        k.write_file(root, "/tmp/f", b"", crate::vfs::Mode(0o644))
            .unwrap();
        let fd = k.sys_open(root, "/tmp/f", OpenFlags::read_only()).unwrap();
        assert_eq!(
            k.sys_ioctl(root, fd, IoctlCmd::Eject).unwrap_err(),
            Errno::ENOTTY
        );
    }

    #[test]
    fn mismatched_cmd_device_is_enotty() {
        let (k, root, _) = boot();
        let fd = open_dev(&k, root, "/dev/ttyS0");
        assert_eq!(
            k.sys_ioctl(root, fd, IoctlCmd::DmStatus).unwrap_err(),
            Errno::ENOTTY
        );
    }
}
