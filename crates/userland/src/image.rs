//! The distribution image builder: boots either system of the paper's
//! evaluation with the same users, configuration, and program complement.
//!
//! * [`SystemMode::Legacy`] — stock Linux 3.6 semantics with AppArmor
//!   enabled (the paper's baseline: "AppArmor and iptables with no
//!   firewall rules"; the studied setuid binaries are, as on a default
//!   Ubuntu 12.04, *not* confined) and the classic setuid-root binaries.
//! * [`SystemMode::Protego`] — the Protego LSM, no setuid bits anywhere,
//!   the trusted authentication agent, the monitoring daemon, and the
//!   fragmented credential databases.

use crate::authd::AuthDaemon;
use crate::db::{render_db, GroupEntry, GshadowEntry, PasswdEntry, ShadowEntry};
use crate::monitord::MonitorDaemon;
use crate::system::{System, SystemMode};
use apparmor_lsm::AppArmorLsm;
use protego_core::ProtegoLsm;
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::kernel::Kernel;
use sim_kernel::lsm::sim_crypt;
use sim_kernel::net::{Ipv4, Route, SimNet};
use sim_kernel::vfs::Mode;

/// A user account in the image.
pub struct UserSpec {
    /// Login name.
    pub name: &'static str,
    /// Uid.
    pub uid: u32,
    /// Primary gid.
    pub gid: u32,
    /// Password, or `None` for a locked system account.
    pub password: Option<&'static str>,
    /// GECOS field.
    pub gecos: &'static str,
    /// Supplementary groups.
    pub extra_groups: &'static [u32],
}

/// The image's user accounts.
pub const USERS: &[UserSpec] = &[
    UserSpec {
        name: "root",
        uid: 0,
        gid: 0,
        password: Some("rootpw"),
        gecos: "root",
        extra_groups: &[],
    },
    UserSpec {
        name: "mail",
        uid: 8,
        gid: 8,
        password: None,
        gecos: "mail system",
        extra_groups: &[],
    },
    UserSpec {
        name: "www-data",
        uid: 33,
        gid: 33,
        password: None,
        gecos: "web server",
        extra_groups: &[],
    },
    UserSpec {
        name: "alice",
        uid: 1000,
        gid: 1000,
        password: Some("alicepw"),
        gecos: "Alice",
        extra_groups: &[24, 20, 2000],
    },
    UserSpec {
        name: "bob",
        uid: 1001,
        gid: 1001,
        password: Some("bobpw"),
        gecos: "Bob",
        extra_groups: &[],
    },
    UserSpec {
        name: "carol",
        uid: 1002,
        gid: 1002,
        password: Some("carolpw"),
        gecos: "Carol",
        extra_groups: &[27],
    },
];

/// The image's groups: (name, gid, members).
pub const GROUPS: &[(&str, u32, &[&str])] = &[
    ("root", 0, &[]),
    ("mail", 8, &["mail"]),
    ("dialout", 20, &["alice"]),
    ("cdrom", 24, &["alice"]),
    ("admin", 27, &["carol"]),
    ("www-data", 33, &[]),
    ("alice", 1000, &[]),
    ("bob", 1001, &[]),
    ("carol", 1002, &[]),
    ("staff", 2000, &["alice"]),
];

/// The password of the password-protected `staff` group.
pub const STAFF_GROUP_PASSWORD: &str = "staffpw";

/// Baseline AppArmor profile set: as on a default Ubuntu install, the
/// studied setuid binaries are unconfined; something unrelated (tcpdump)
/// is.
const LEGACY_APPARMOR_PROFILES: &str = r#"
profile /usr/sbin/tcpdump {
  capability net_raw,
  /etc/hosts r,
}
"#;

/// The image's sudoers policy: admins may do anything; Bob may print as
/// Alice (the paper's delegation example, §4.3).
pub const IMAGE_SUDOERS: &str = "\
Defaults env_keep += \"LANG\"
root    ALL=(ALL) ALL
%admin  ALL=(ALL) ALL
bob     ALL=(alice) /usr/bin/lpr
";

/// `/etc/bind`: port allocations for the two services (§4.1.3).
pub const IMAGE_BIND: &str = "\
25 tcp /usr/sbin/exim4 8
80 tcp /usr/sbin/httpd 33
";

/// Boots a complete system image in the given mode.
pub fn boot(mode: SystemMode) -> System {
    let mut kernel = Kernel::new(SimNet::standard_topology());
    kernel.install_standard_devices().expect("devices install");

    match mode {
        SystemMode::Legacy => {
            let mut lsm = AppArmorLsm::new();
            lsm.load_text(LEGACY_APPARMOR_PROFILES)
                .expect("baseline profiles parse");
            kernel.register_lsm(Box::new(lsm)).expect("lsm registers");
        }
        SystemMode::Protego => {
            kernel
                .register_lsm(Box::new(ProtegoLsm::new()))
                .expect("lsm registers");
            kernel.register_auth(Box::new(AuthDaemon::new()));
            // The Protego image models a contemporary kernel where
            // unprivileged user namespaces already obviated the sandbox
            // helpers (§4.6); the legacy baseline is Linux 3.6.
            kernel.unprivileged_userns = true;
        }
    }

    let mut sys = System::new(kernel, mode);
    let init = sys.init_pid();

    build_tree(&mut sys);
    build_accounts(&mut sys);
    install_binaries(&mut sys);
    crate::bins::mount::init_mtab(&sys.kernel).expect("mtab");

    // Boot-time network configuration (root's job on both systems).
    sys.kernel
        .routes
        .write()
        .add(Route {
            dest: Ipv4::ANY,
            prefix: 0,
            gateway: Some(Ipv4::new(10, 0, 0, 1)),
            dev: "eth0".into(),
            created_by: Uid::ROOT,
        })
        .expect("default route");

    if mode == SystemMode::Protego {
        // Policies with no legacy file equivalent are configured directly
        // by the administrator through /proc (Figure 1's left input).
        sys.kernel
            .write_file(
                init,
                "/proc/protego/keyfiles",
                b"/etc/ssh/ssh_host_key /usr/lib/ssh-keysign\n",
                Mode(0o600),
            )
            .expect("keyfiles policy");
        sys.kernel
            .write_file(
                init,
                "/proc/protego/creddb",
                b"shadow-prefix /etc/shadows/\n",
                Mode(0o600),
            )
            .expect("creddb policy");
        // The monitoring daemon mirrors every legacy config file.
        let mut daemon = MonitorDaemon::new(init);
        daemon.sync_all(&sys.kernel).expect("initial sync");
        sys.monitord = Some(daemon);
    }
    sys
}

fn build_tree(sys: &mut System) {
    let v = &sys.kernel.vfs;
    for d in [
        "/bin",
        "/sbin",
        "/usr/bin",
        "/usr/sbin",
        "/usr/lib",
        "/lib/modules",
        "/etc/sudoers.d",
        "/etc/ppp",
        "/etc/ssh",
        "/mnt/cdrom",
        "/media/usb",
        "/var/log/exim4",
        "/var/spool/lpd",
        "/var/lib",
        "/root",
    ] {
        v.mkdir_p(d).expect("mkdir");
    }
    let tmp = v.mkdir_p("/tmp").unwrap();
    v.inode_mut(tmp).mode = Mode(0o1777);
    let mail = v.mkdir_p("/var/mail").unwrap();
    v.inode_mut(mail).mode = Mode(0o2775);
    v.inode_mut(mail).gid = Gid(8);
    v.mkdir_p("/var/www").unwrap();
    v.install_file(
        crate::bins::mail::HTTPD_DOCROOT_INDEX,
        crate::bins::mail::HTTPD_FALLBACK_PAGE.as_bytes(),
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    let sudo_lib = v.mkdir_p("/var/lib/sudo").unwrap();
    v.inode_mut(sudo_lib).mode = Mode(0o700);

    // Device node group ownership: the classic cdrom/dialout groups.
    for (path, gid) in [("/dev/cdrom", 24), ("/dev/sdb1", 24), ("/dev/ttyS0", 20)] {
        let ino = v.resolve(v.root(), path).unwrap().ino;
        v.inode_mut(ino).gid = Gid(gid);
    }

    v.install_file(
        "/etc/fstab",
        protego_core::fstab::DEFAULT_FSTAB.as_bytes(),
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/sudoers",
        IMAGE_SUDOERS.as_bytes(),
        Mode(0o440),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/bind",
        IMAGE_BIND.as_bytes(),
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/shells",
        b"/bin/sh\n/bin/bash\n/bin/zsh\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/hosts",
        b"127.0.0.1 localhost\n10.0.0.1 gateway\n8.8.8.8 resolver\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/ppp/options",
        b"user-routes\nsafe-modem-opts\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/ssh/ssh_host_key",
        b"HOSTKEY-SECRET-0xdeadbeef\n",
        Mode(0o600),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/motd",
        b"Welcome to the Protego evaluation image.\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    // D-Bus activation rule: anyone may start the MTA service under its
    // service account (the dbus-daemon-launch-helper policy, kernelized).
    v.install_file(
        "/etc/sudoers.d/dbus",
        b"ALL ALL=(mail) NOPASSWD: /usr/sbin/exim4\n",
        Mode(0o440),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/var/log/exim4/mainlog",
        b"",
        Mode(0o664),
        Uid::ROOT,
        Gid(8),
    )
    .unwrap();
}

fn build_accounts(sys: &mut System) {
    let mode = sys.mode;
    let v = &sys.kernel.vfs;

    let mut passwd: Vec<PasswdEntry> = Vec::new();
    let mut shadow: Vec<ShadowEntry> = Vec::new();
    for u in USERS {
        passwd.push(PasswdEntry {
            name: u.name.to_string(),
            uid: u.uid,
            gid: u.gid,
            gecos: u.gecos.to_string(),
            home: if u.uid == 0 {
                "/root".into()
            } else {
                format!("/home/{}", u.name)
            },
            shell: "/bin/sh".to_string(),
        });
        shadow.push(match u.password {
            Some(pw) => ShadowEntry::with_password(u.name, pw),
            None => ShadowEntry {
                name: u.name.to_string(),
                hash: "!".to_string(),
            },
        });
    }
    let groups: Vec<GroupEntry> = GROUPS
        .iter()
        .map(|(name, gid, members)| GroupEntry {
            name: name.to_string(),
            gid: *gid,
            members: members.iter().map(|m| m.to_string()).collect(),
        })
        .collect();
    let gshadow: Vec<GshadowEntry> = GROUPS
        .iter()
        .map(|(name, _, _)| GshadowEntry {
            name: name.to_string(),
            hash: if *name == "staff" {
                sim_crypt("st", STAFF_GROUP_PASSWORD)
            } else {
                "!".to_string()
            },
        })
        .collect();

    v.install_file(
        "/etc/passwd",
        render_db(&passwd, PasswdEntry::render).as_bytes(),
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/shadow",
        render_db(&shadow, ShadowEntry::render).as_bytes(),
        Mode(0o600),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/group",
        render_db(&groups, GroupEntry::render).as_bytes(),
        Mode(0o644),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    v.install_file(
        "/etc/gshadow",
        render_db(&gshadow, GshadowEntry::render).as_bytes(),
        Mode(0o600),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();

    // Homes, mailboxes, print queue.
    for u in USERS {
        if u.uid == 0 {
            continue;
        }
        let home = format!("/home/{}", u.name);
        let ino = v.mkdir_p(&home).unwrap();
        v.inode_mut(ino).uid = Uid(u.uid);
        v.inode_mut(ino).gid = Gid(u.gid);
        if u.password.is_some() {
            v.install_file(
                &format!("/var/mail/{}", u.name),
                b"",
                Mode(0o660),
                Uid(u.uid),
                Gid(8),
            )
            .unwrap();
        }
    }
    // CUPS print passwords (the lppasswd long-tail case): a shared
    // digest file on legacy; per-user fragments on Protego.
    v.install_file(
        "/etc/cups/passwd.md5",
        b"",
        Mode(0o600),
        Uid::ROOT,
        Gid::ROOT,
    )
    .unwrap();
    if mode == SystemMode::Protego {
        for u in USERS {
            if u.password.is_some() && u.uid != 0 {
                v.install_file(
                    &format!("/etc/cups/passwds/{}", u.name),
                    b"",
                    Mode(0o600),
                    Uid(u.uid),
                    Gid(u.gid),
                )
                .unwrap();
            }
        }
    }
    // Encrypted Private directories (mount.ecryptfs_private).
    for u in USERS {
        if u.password.is_some() && u.uid != 0 {
            let private = format!("/home/{}/Private", u.name);
            let ino = v.mkdir_p(&private).unwrap();
            v.inode_mut(ino).uid = Uid(u.uid);
            v.inode_mut(ino).gid = Gid(u.gid);
        }
    }

    // Alice's private .forward (the §4.4 mail-delivery case).
    v.install_file(
        "/home/alice/.forward",
        b"/home/alice/inbox\n",
        Mode(0o600),
        Uid(1000),
        Gid(1000),
    )
    .unwrap();
    v.install_file("/home/alice/inbox", b"", Mode(0o600), Uid(1000), Gid(1000))
        .unwrap();
    // The delegation target: Alice's print queue.
    v.install_file(
        "/var/spool/lpd/queue",
        b"",
        Mode(0o600),
        Uid(1000),
        Gid(1000),
    )
    .unwrap();

    if mode == SystemMode::Protego {
        // Fragment the databases (§4.4): /etc/passwds/<user> and
        // /etc/shadows/<user>, each rw------- and owned by its account;
        // the parent directories are root-owned so accounts cannot be
        // added by unprivileged users.
        for (i, u) in USERS.iter().enumerate() {
            let owner = Uid(u.uid);
            let gid = Gid(u.gid);
            v.install_file(
                &format!("/etc/passwds/{}", u.name),
                format!("{}\n", passwd[i].render()).as_bytes(),
                Mode(0o600),
                owner,
                gid,
            )
            .unwrap();
            v.install_file(
                &format!("/etc/shadows/{}", u.name),
                format!("{}\n", shadow[i].render()).as_bytes(),
                Mode(0o600),
                owner,
                gid,
            )
            .unwrap();
        }
        // Per-group password fragments, owned by the group administrator
        // (alice administers staff).
        v.install_file(
            "/etc/gshadows/staff",
            format!("staff:{}::\n", sim_crypt("st", STAFF_GROUP_PASSWORD)).as_bytes(),
            Mode(0o600),
            Uid(1000),
            Gid(1000),
        )
        .unwrap();
    }
}

fn install_binaries(sys: &mut System) {
    let legacy = sys.mode == SystemMode::Legacy;
    for item in crate::bins::catalog() {
        let setuid = legacy && item.setuid;
        let mode = if setuid { Mode(0o4755) } else { Mode(0o755) };
        let owner = if item.path.starts_with("/home/alice/") {
            (Uid(1000), Gid(1000))
        } else {
            (Uid::ROOT, Gid::ROOT)
        };
        sys.kernel
            .vfs
            .install_file(item.path, b"#!sim-binary", mode, owner.0, owner.1)
            .expect("binary installs");
    }
    crate::bins::register_all(sys);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_image_has_setuid_bits() {
        let mut sys = boot(SystemMode::Legacy);
        let init = sys.init_pid();
        let st = sys.kernel.sys_stat(init, "/bin/mount").unwrap();
        assert!(st.mode.is_setuid());
        assert_eq!(st.uid, Uid::ROOT);
        let st = sys.kernel.sys_stat(init, "/usr/bin/sudo").unwrap();
        assert!(st.mode.is_setuid());
    }

    #[test]
    fn protego_image_has_no_setuid_binaries() {
        let mut sys = boot(SystemMode::Protego);
        let init = sys.init_pid();
        for item in crate::bins::catalog() {
            let st = sys.kernel.sys_stat(init, item.path).unwrap();
            assert!(
                !st.mode.is_setuid(),
                "{} still setuid on Protego",
                item.path
            );
        }
    }

    #[test]
    fn both_images_login_all_users() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            for (name, pw) in [
                ("root", "rootpw"),
                ("alice", "alicepw"),
                ("bob", "bobpw"),
                ("carol", "carolpw"),
            ] {
                let pid = sys.login(name, pw).unwrap();
                assert!(sys.kernel.task(pid).is_ok());
            }
            assert!(sys.login("mail", "x").is_err()); // locked
        }
    }

    #[test]
    fn protego_policies_synced_at_boot() {
        let mut sys = boot(SystemMode::Protego);
        let init = sys.init_pid();
        let mounts = sys
            .kernel
            .read_to_string(init, "/proc/protego/mounts")
            .unwrap();
        assert!(mounts.contains("/dev/cdrom /mnt/cdrom iso9660 user ro"));
        let sudoers = sys
            .kernel
            .read_to_string(init, "/proc/protego/sudoers")
            .unwrap();
        assert!(sudoers.contains("from=gid:27 target=any cmd=any"));
        assert!(sudoers.contains("from=uid:1001 target=1000 cmd=/usr/bin/lpr"));
        let bind = sys
            .kernel
            .read_to_string(init, "/proc/protego/bind")
            .unwrap();
        assert!(bind.contains("25 tcp /usr/sbin/exim4 8"));
        let groups = sys
            .kernel
            .read_to_string(init, "/proc/protego/groups")
            .unwrap();
        assert!(groups.contains("2000 password"));
        let ppp = sys
            .kernel
            .read_to_string(init, "/proc/protego/ppp")
            .unwrap();
        assert!(ppp.contains("user-routes on"));
    }

    #[test]
    fn protego_netfilter_whitelist_installed() {
        let sys = boot(SystemMode::Protego);
        let names: Vec<_> = sys
            .kernel
            .netfilter
            .read()
            .rules()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert!(names.contains(&"protego-no-spoof".to_string()));
        assert!(names.contains(&"protego-drop-raw-default".to_string()));
    }

    #[test]
    fn legacy_netfilter_is_empty() {
        let sys = boot(SystemMode::Legacy);
        assert!(sys.kernel.netfilter.read().rules().is_empty());
    }

    #[test]
    fn alice_is_in_her_groups() {
        let mut sys = boot(SystemMode::Protego);
        let alice = sys.login("alice", "alicepw").unwrap();
        let cred = &sys.kernel.task(alice).unwrap().cred;
        assert!(cred.in_group(Gid(24)));
        assert!(cred.in_group(Gid(20)));
        assert!(cred.in_group(Gid(2000)));
        assert!(!cred.in_group(Gid(27)));
    }

    #[test]
    fn user_spec_groups_agree_with_group_table() {
        // `extra_groups` documents intent; /etc/group is the source of
        // truth — they must not drift apart.
        for u in USERS {
            for &gid in u.extra_groups {
                let (name, _, members) = GROUPS
                    .iter()
                    .find(|(_, g, _)| *g == gid)
                    .unwrap_or_else(|| panic!("{}: unknown group {}", u.name, gid));
                assert!(
                    members.contains(&u.name),
                    "{} listed in extra_groups of {} but not in GROUPS[{}]",
                    u.name,
                    gid,
                    name
                );
            }
        }
        for (gname, gid, members) in GROUPS {
            for m in *members {
                let u = USERS
                    .iter()
                    .find(|u| u.name == *m)
                    .unwrap_or_else(|| panic!("group {} member {} unknown", gname, m));
                assert!(
                    u.extra_groups.contains(gid) || u.gid == *gid,
                    "{} is in group {} but extra_groups omits it",
                    m,
                    gname
                );
            }
        }
    }

    #[test]
    fn fragments_exist_only_on_protego() {
        let mut sys = boot(SystemMode::Protego);
        let init = sys.init_pid();
        let st = sys.kernel.sys_stat(init, "/etc/shadows/alice").unwrap();
        assert_eq!(st.uid, Uid(1000));
        assert_eq!(st.mode, Mode(0o600));
        let mut sys = boot(SystemMode::Legacy);
        let init = sys.init_pid();
        assert!(sys.kernel.sys_stat(init, "/etc/shadows/alice").is_err());
    }
}
