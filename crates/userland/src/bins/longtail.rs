//! Long-tail setuid binaries (§5.4 / Table 8): utilities outside the
//! 28-binary study that Protego's existing abstractions cover, sometimes
//! after a policy refinement.
//!
//! * `tcptraceroute` — raw TCP SYN probes. The default Protego raw-socket
//!   whitelist (mined from the *studied* binaries) does not admit raw
//!   TCP, so on a stock Protego image the tool fails until the
//!   administrator refines the netfilter policy with one iptables rule —
//!   exactly the "may require refinement to the policies currently
//!   enforced" caveat of §5.4.
//! * `lppasswd` — the CUPS print password (Table 4's credential-database
//!   row). Legacy: setuid root rewriting the shared digest file;
//!   Protego: a per-user fragment under `/etc/cups/passwds/`.
//! * `mount.ecryptfs_private` — mounts the user's encrypted Private
//!   directory; a mount-family helper whose whitelist entry is
//!   per-user.

use super::{fail, CatalogItem};
use crate::db::{find_entry, PasswdEntry, ID_FIELD};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::error::Errno;
use sim_kernel::lsm::sim_crypt;
use sim_kernel::net::{IcmpKind, Ipv4, Packet, L4};
use sim_kernel::vfs::Mode;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/bin/tcptraceroute",
            entry: BinEntry {
                func: tcptraceroute_main,
                points: &["start", "socket_fail", "probe_blocked", "hop", "reached"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/lppasswd",
            entry: BinEntry {
                func: lppasswd_main,
                points: &["start", "legacy_rewrite", "protego_fragment", "write_fail"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/sbin/mount.ecryptfs_private",
            entry: BinEntry {
                func: ecryptfs_main,
                points: &["start", "mount_ok", "mount_denied"],
            },
            setuid: true,
        },
    ]
}

/// `tcptraceroute <ip>` — TTL-stepped TCP SYN probes to port 80.
pub fn tcptraceroute_main(p: &mut Proc<'_>) -> i32 {
    use sim_kernel::net::{Domain, SockType};
    p.cov("start");
    let dst = match p.args.first().and_then(|a| Ipv4::parse(a)) {
        Some(ip) => ip,
        None => {
            p.println("usage: tcptraceroute <ipv4-address>");
            return 2;
        }
    };
    let fd = match p.os().socket(Domain::Inet, SockType::Raw, 6) {
        Ok(fd) => fd,
        Err(e) => {
            p.cov("socket_fail");
            return fail(p, "tcptraceroute", "raw socket", e);
        }
    };
    if p.sys.mode == SystemMode::Legacy && p.euid().is_root() && !p.ruid().is_root() {
        let ruid = p.ruid();
        let _ = p.os().setuid(ruid);
    }
    let src = p
        .sys
        .kernel
        .simnet
        .local_ips
        .last()
        .copied()
        .unwrap_or(Ipv4::LOOPBACK);
    for ttl in 1..=16u8 {
        let probe = Packet {
            src,
            dst,
            ttl,
            l4: L4::Tcp {
                src_port: 40000 + ttl as u16,
                dst_port: 80,
                syn: true,
            },
            payload: Vec::new(),
            from_raw_socket: true,
            sender_uid: p.euid(),
        };
        if let Err(e) = p.os().send_packet(fd, probe) {
            // On a default Protego policy the raw-TCP probe is filtered;
            // the admin must refine the whitelist (§5.4).
            p.cov("probe_blocked");
            return fail(p, "tcptraceroute", "probe filtered by policy", e);
        }
        match p.os().recv_packet(fd) {
            Ok(reply) => match reply.l4 {
                L4::Icmp(IcmpKind::TimeExceeded) => {
                    p.cov("hop");
                    p.println(&format!("{:2}  {}", ttl, reply.src));
                }
                _ => {
                    p.cov("reached");
                    p.println(&format!("{:2}  {}  [open]", ttl, reply.src));
                    return 0;
                }
            },
            Err(_) => {
                // The SYN reached an open port: our simulated hosts do not
                // answer raw SYNs, so treat silence past the path as done.
                if ttl > 4 {
                    p.cov("reached");
                    p.println(&format!("{:2}  {}  [open]", ttl, dst));
                    return 0;
                }
            }
        }
    }
    1
}

/// `lppasswd <newpassword>` — sets the caller's CUPS digest.
pub fn lppasswd_main(p: &mut Proc<'_>) -> i32 {
    p.vuln("start");
    let newpw = match p.args.first() {
        Some(w) => w.clone(),
        None => {
            p.println("usage: lppasswd <newpassword>");
            return 2;
        }
    };
    let uid = p.ruid();
    let me = {
        let text = p.read_to_string("/etc/passwd").unwrap_or_default();
        find_entry(&text, ID_FIELD, uid.0, PasswdEntry::parse)
    };
    let me = match me {
        Some(e) => e,
        None => return fail(p, "lppasswd", "who are you?", Errno::ENOENT),
    };
    let digest = sim_crypt("lp", &format!("{}:{}", me.name, newpw));

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "lppasswd", "must be setuid root", Errno::EPERM);
        }
        // Rewrite the shared digest file.
        p.cov("legacy_rewrite");
        let old = p.read_to_string("/etc/cups/passwd.md5").unwrap_or_default();
        let mut lines: Vec<String> = old
            .lines()
            .filter(|l| !l.starts_with(&format!("{}:", me.name)))
            .map(String::from)
            .collect();
        lines.push(format!("{}:{}", me.name, digest));
        let content = lines.join("\n") + "\n";
        if let Err(e) = p.write_file("/etc/cups/passwd.md5", content.as_bytes(), Mode(0o600)) {
            p.cov("write_fail");
            return fail(p, "lppasswd", "/etc/cups/passwd.md5", e);
        }
    } else {
        // Per-user fragment, plain owner DAC (§4.4's pattern).
        p.cov("protego_fragment");
        let frag = format!("/etc/cups/passwds/{}", me.name);
        let line = format!("{}:{}\n", me.name, digest);
        if let Err(e) = p.write_file(&frag, line.as_bytes(), Mode(0o600)) {
            p.cov("write_fail");
            return fail(p, "lppasswd", &frag, e);
        }
    }
    p.println("lppasswd: password updated");
    0
}

/// `mount.ecryptfs_private` — mounts the caller's encrypted Private
/// directory at `~/Private`.
pub fn ecryptfs_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let uid = p.ruid();
    let me = {
        let text = p.read_to_string("/etc/passwd").unwrap_or_default();
        find_entry(&text, ID_FIELD, uid.0, PasswdEntry::parse)
    };
    let me = match me {
        Some(e) => e,
        None => return fail(p, "mount.ecryptfs_private", "who are you?", Errno::ENOENT),
    };
    let target = format!("{}/Private", me.home);
    if p.sys.mode == SystemMode::Legacy && !p.euid().is_root() {
        return fail(
            p,
            "mount.ecryptfs_private",
            "must be setuid root",
            Errno::EPERM,
        );
    }
    match p.os().mount("ecryptfs", &target, "fuse", "rw") {
        Ok(()) => {
            p.cov("mount_ok");
            p.println(&format!("ecryptfs mounted on {}", target));
            0
        }
        Err(e) => {
            p.cov("mount_denied");
            fail(p, "mount.ecryptfs_private", &target, e)
        }
    }
}
