//! Network diagnostics: `ping`, `ping6`, `arping`, `traceroute`,
//! `tracepath`, `mtr`, `fping`, plus the user-written `myping` that only
//! Protego can support (§4.1.1).
//!
//! The legacy variants are setuid-to-root solely to create a raw or
//! packet socket, and follow best practice by dropping privilege
//! immediately afterwards. Under Protego the same code runs with no
//! privilege at all; outgoing packets are policed by netfilter.

use super::{fail, CatalogItem};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::net::{Domain, IcmpKind, Ipv4, Packet, SockType, L4};

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/bin/ping",
            entry: BinEntry {
                func: ping_main,
                points: &[
                    "start",
                    "parse_args",
                    "socket_ok",
                    "socket_fail",
                    "drop_priv",
                    "reply",
                    "timeout",
                    "send_fail",
                    "parse_reply",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/bin/ping6",
            entry: BinEntry {
                func: ping_main,
                points: &[
                    "start",
                    "socket_ok",
                    "socket_fail",
                    "drop_priv",
                    "reply",
                    "timeout",
                    "send_fail",
                    "parse_reply",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/arping",
            entry: BinEntry {
                func: arping_main,
                points: &["start", "socket_fail", "reply", "timeout"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/traceroute",
            entry: BinEntry {
                func: traceroute_main,
                points: &[
                    "start",
                    "parse_args",
                    "socket_fail",
                    "hop",
                    "reached",
                    "unreachable",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/tracepath",
            entry: BinEntry {
                func: traceroute_main,
                points: &[
                    "start",
                    "parse_args",
                    "socket_fail",
                    "hop",
                    "reached",
                    "unreachable",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/mtr",
            entry: BinEntry {
                func: mtr_main,
                points: &["start", "parse_args", "socket_fail", "hop", "probe_loss"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/fping",
            entry: BinEntry {
                func: fping_main,
                points: &["start", "alive", "dead", "socket_fail"],
            },
            setuid: true,
        },
        // Alice's own, never-privileged ping — the Protego capability the
        // paper highlights: any user may build network tools, as long as
        // their packets conform to system policy.
        CatalogItem {
            path: "/home/alice/bin/myping",
            entry: BinEntry {
                func: myping_main,
                points: &["start", "reply", "denied"],
            },
            setuid: false,
        },
    ]
}

fn local_ip(p: &Proc<'_>) -> Ipv4 {
    p.sys
        .kernel
        .simnet
        .local_ips
        .last()
        .copied()
        .unwrap_or(Ipv4::LOOPBACK)
}

fn parse_target(p: &mut Proc<'_>, prog: &str) -> Result<Ipv4, i32> {
    match p.args.first().and_then(|a| Ipv4::parse(a)) {
        Some(ip) => Ok(ip),
        None => {
            p.println(&format!("usage: {} <ipv4-address>", prog));
            Err(2)
        }
    }
}

/// Opens a raw ICMP socket with legacy privilege etiquette: the setuid
/// variant drops privilege right after socket creation.
fn raw_socket(p: &mut Proc<'_>, prog: &str) -> Result<i32, i32> {
    match p.os().socket(Domain::Inet, SockType::Raw, 1) {
        Ok(fd) => {
            p.cov("socket_ok");
            if p.sys.mode == SystemMode::Legacy && p.euid().is_root() && !p.ruid().is_root() {
                p.cov("drop_priv");
                let ruid = p.ruid();
                let _ = p.os().setuid(ruid);
            }
            Ok(fd)
        }
        Err(e) => {
            p.cov("socket_fail");
            Err(fail(p, prog, "icmp open socket", e))
        }
    }
}

/// `ping <ip>` — one echo round-trip.
pub fn ping_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: option/argument parsing while still
    // holding root (CVE-1999-1208, CVE-2001-0499 class).
    p.vuln("parse_args");
    let dst = match parse_target(p, "ping") {
        Ok(ip) => ip,
        Err(c) => return c,
    };
    let fd = match raw_socket(p, "ping") {
        Ok(fd) => fd,
        Err(c) => return c,
    };
    let id = p.pid.0 as u16;
    let pkt = Packet::echo_request(local_ip(p), dst, id, 1, p.euid());
    if let Err(e) = p.os().send_packet(fd, pkt) {
        p.cov("send_fail");
        return fail(p, "ping", "sendmsg", e);
    }
    match p.os().recv_packet(fd) {
        Ok(reply) => {
            // Historical exploit site: reply parsing (CVE-2000-1213
            // class — ping's reply handling overflows).
            p.vuln("parse_reply");
            match reply.l4 {
                L4::Icmp(IcmpKind::EchoReply { id: rid, seq }) if rid == id => {
                    p.cov("reply");
                    p.println(&format!(
                        "64 bytes from {}: icmp_seq={} ttl={}",
                        reply.src, seq, reply.ttl
                    ));
                    0
                }
                _ => {
                    p.cov("timeout");
                    p.println("ping: unexpected reply");
                    1
                }
            }
        }
        Err(_) => {
            p.cov("timeout");
            p.println(&format!(
                "--- {} ping statistics: 1 packets transmitted, 0 received ---",
                dst
            ));
            1
        }
    }
}

/// `arping <ip>` — one ARP who-has round-trip over a packet socket.
pub fn arping_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let dst = match parse_target(p, "arping") {
        Ok(ip) => ip,
        Err(c) => return c,
    };
    let fd = match p.os().socket(Domain::Packet, SockType::Raw, 0) {
        Ok(fd) => fd,
        Err(e) => {
            p.cov("socket_fail");
            return fail(p, "arping", "packet socket", e);
        }
    };
    if p.sys.mode == SystemMode::Legacy && p.euid().is_root() && !p.ruid().is_root() {
        let ruid = p.ruid();
        let _ = p.os().setuid(ruid);
    }
    let pkt = Packet {
        src: local_ip(p),
        dst,
        ttl: 1,
        l4: L4::Arp { op: 1, target: dst },
        payload: Vec::new(),
        from_raw_socket: true,
        sender_uid: p.euid(),
    };
    if let Err(e) = p.os().send_packet(fd, pkt) {
        return fail(p, "arping", "send", e);
    }
    match p.os().recv_packet(fd) {
        Ok(reply) if matches!(reply.l4, L4::Arp { op: 2, .. }) => {
            p.cov("reply");
            p.println(&format!("Unicast reply from {}", reply.src));
            0
        }
        _ => {
            p.cov("timeout");
            p.println("arping: no reply");
            1
        }
    }
}

/// `traceroute <ip>` — UDP probes with growing TTL.
pub fn traceroute_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2005-2071 class).
    p.vuln("parse_args");
    let dst = match parse_target(p, "traceroute") {
        Ok(ip) => ip,
        Err(c) => return c,
    };
    let fd = match raw_socket(p, "traceroute") {
        Ok(fd) => fd,
        Err(c) => return c,
    };
    let src = local_ip(p);
    for ttl in 1..=16u8 {
        let probe = Packet::udp_probe(src, dst, ttl, 33434 + ttl as u16, p.euid());
        if let Err(e) = p.os().send_packet(fd, probe) {
            return fail(p, "traceroute", "send", e);
        }
        match p.os().recv_packet(fd) {
            Ok(reply) => match reply.l4 {
                L4::Icmp(IcmpKind::TimeExceeded) => {
                    p.cov("hop");
                    p.println(&format!("{:2}  {}", ttl, reply.src));
                }
                L4::Icmp(IcmpKind::DestUnreachable) => {
                    p.cov("reached");
                    p.println(&format!("{:2}  {}  (reached)", ttl, reply.src));
                    return 0;
                }
                _ => {}
            },
            Err(_) => {
                p.cov("unreachable");
                p.println(&format!("{:2}  *", ttl));
                return 1;
            }
        }
    }
    1
}

/// `mtr <ip>` — per-hop discovery plus an echo probe to the target.
pub fn mtr_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2002-0497 class).
    p.vuln("parse_args");
    let dst = match parse_target(p, "mtr") {
        Ok(ip) => ip,
        Err(c) => return c,
    };
    let fd = match raw_socket(p, "mtr") {
        Ok(fd) => fd,
        Err(c) => return c,
    };
    let src = local_ip(p);
    let mut hops = 0;
    for ttl in 1..=16u8 {
        let probe = Packet::udp_probe(src, dst, ttl, 33434, p.euid());
        if p.os().send_packet(fd, probe).is_err() {
            break;
        }
        match p.os().recv_packet(fd) {
            Ok(reply) => match reply.l4 {
                L4::Icmp(IcmpKind::TimeExceeded) => {
                    hops += 1;
                    p.cov("hop");
                    p.println(&format!("{}. {}", ttl, reply.src));
                }
                L4::Icmp(IcmpKind::DestUnreachable) => {
                    hops += 1;
                    p.println(&format!("{}. {} (target)", ttl, reply.src));
                    break;
                }
                _ => {}
            },
            Err(_) => {
                p.cov("probe_loss");
                break;
            }
        }
    }
    // One final latency probe to the destination itself.
    let echo = Packet::echo_request(src, dst, p.pid.0 as u16, 99, p.euid());
    if p.os().send_packet(fd, echo).is_ok() {
        if let Ok(reply) = p.os().recv_packet(fd) {
            if matches!(reply.l4, L4::Icmp(IcmpKind::EchoReply { .. })) {
                p.println(&format!("{}: echo ok", dst));
            }
        }
    }
    if hops > 0 {
        0
    } else {
        1
    }
}

/// `fping <ip> [ip...]` — liveness sweep.
pub fn fping_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    if p.args.is_empty() {
        p.println("usage: fping <ip> [ip...]");
        return 2;
    }
    let fd = match raw_socket(p, "fping") {
        Ok(fd) => fd,
        Err(c) => return c,
    };
    let src = local_ip(p);
    let mut any_dead = false;
    let targets: Vec<Option<Ipv4>> = p.args.iter().map(|a| Ipv4::parse(a)).collect();
    for (i, t) in targets.iter().enumerate() {
        let Some(ip) = t else {
            any_dead = true;
            continue;
        };
        let pkt = Packet::echo_request(src, *ip, p.pid.0 as u16, i as u16, p.euid());
        let alive = p.os().send_packet(fd, pkt).is_ok() && p.os().recv_packet(fd).is_ok();
        if alive {
            p.cov("alive");
            p.println(&format!("{} is alive", ip));
        } else {
            p.cov("dead");
            any_dead = true;
            p.println(&format!("{} is unreachable", ip));
        }
    }
    if any_dead {
        1
    } else {
        0
    }
}

/// Alice's hand-rolled ping: identical logic, zero privilege anywhere. On
/// stock Linux the socket call fails with EPERM; on Protego it works, and
/// a spoofing variant would be stopped by netfilter instead.
pub fn myping_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let dst = match parse_target(p, "myping") {
        Ok(ip) => ip,
        Err(c) => return c,
    };
    let fd = match p.os().socket(Domain::Inet, SockType::Raw, 1) {
        Ok(fd) => fd,
        Err(e) => {
            p.cov("denied");
            return fail(p, "myping", "socket", e);
        }
    };
    let pkt = Packet::echo_request(local_ip(p), dst, 777, 1, p.euid());
    if let Err(e) = p.os().send_packet(fd, pkt) {
        p.cov("denied");
        return fail(p, "myping", "send", e);
    }
    match p.os().recv_packet(fd) {
        Ok(reply) => {
            p.cov("reply");
            p.println(&format!("myping: reply from {}", reply.src));
            0
        }
        Err(e) => {
            p.println(&format!("myping: no reply ({})", e));
            1
        }
    }
}
