//! A netfilter-like packet filter for the OUTPUT path.
//!
//! Protego's raw-socket design (§4.1.1): *anyone* may create a raw or
//! packet socket, but outgoing packets from such sockets traverse
//! additional netfilter rules that whitelist the safe packets historically
//! exported by setuid binaries (ICMP echo, traceroute probes, ARP) and
//! reject spoofing (claiming a TCP/UDP source port owned by another user).
//!
//! The rule language is deliberately a small, first-match-wins subset of
//! iptables; the `iptables` userland utility in the `userland` crate edits
//! these rules through the usual administrative path.

use super::packet::{Packet, L4};
use crate::vfs::Name;
use core::fmt;

/// Rule verdicts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Let the packet pass.
    Accept,
    /// Silently drop the packet (sender sees EPERM, as Linux raw sockets
    /// do when a filter rejects).
    Drop,
}

/// Protocol selector for a rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtoMatch {
    /// Match ICMP packets.
    Icmp,
    /// Match TCP segments.
    Tcp,
    /// Match UDP datagrams.
    Udp,
    /// Match ARP frames.
    Arp,
    /// Match any other raw IP protocol.
    OtherIp,
}

/// Per-packet metadata the filter inspects. The stack computes the
/// `spoofed_src_port` bit by consulting the port table before evaluation.
#[derive(Clone, Debug)]
pub struct PacketMeta<'a> {
    /// The packet itself.
    pub packet: &'a Packet,
    /// True when the packet's claimed TCP/UDP source port is bound by a
    /// socket belonging to a *different* uid.
    pub spoofed_src_port: bool,
}

/// A single OUTPUT-chain rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Human-readable name (appears in audit logs and iptables listings).
    pub name: String,
    /// Restrict the rule to packets built by raw/packet sockets.
    pub raw_socket_only: bool,
    /// Optional protocol selector.
    pub proto: Option<ProtoMatch>,
    /// Optional set of acceptable ICMP type codes (with `proto: Icmp`).
    pub icmp_types: Option<Vec<u8>>,
    /// Optional inclusive destination-port range (TCP/UDP).
    pub dst_ports: Option<(u16, u16)>,
    /// If `Some(b)`, the rule only matches packets whose spoofed-source
    /// analysis equals `b`.
    pub spoofed: Option<bool>,
    /// Verdict when the rule matches.
    pub verdict: Verdict,
}

impl Rule {
    /// Creates an accept-everything rule scoped by name (building block for
    /// tests and default policies).
    pub fn accept_all(name: &str) -> Rule {
        Rule {
            name: name.to_string(),
            raw_socket_only: false,
            proto: None,
            icmp_types: None,
            dst_ports: None,
            spoofed: None,
            verdict: Verdict::Accept,
        }
    }

    fn proto_matches(&self, l4: &L4) -> bool {
        match self.proto {
            None => true,
            Some(ProtoMatch::Icmp) => matches!(l4, L4::Icmp(_)),
            Some(ProtoMatch::Tcp) => matches!(l4, L4::Tcp { .. }),
            Some(ProtoMatch::Udp) => matches!(l4, L4::Udp { .. }),
            Some(ProtoMatch::Arp) => matches!(l4, L4::Arp { .. }),
            Some(ProtoMatch::OtherIp) => matches!(l4, L4::OtherIp(_)),
        }
    }

    /// Returns whether this rule matches the packet.
    pub fn matches(&self, meta: &PacketMeta<'_>) -> bool {
        let p = meta.packet;
        if self.raw_socket_only && !p.from_raw_socket {
            return false;
        }
        if !self.proto_matches(&p.l4) {
            return false;
        }
        if let Some(types) = &self.icmp_types {
            match &p.l4 {
                L4::Icmp(kind) => {
                    if !types.contains(&kind.type_code()) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        if let Some((lo, hi)) = self.dst_ports {
            match p.l4.dst_port() {
                Some(d) if d >= lo && d <= hi => {}
                _ => return false,
            }
        }
        if let Some(want) = self.spoofed {
            if meta.spoofed_src_port != want {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}{}{} -> {:?}",
            self.name,
            if self.raw_socket_only { "raw " } else { "" },
            self.proto.map(|p| format!("{:?} ", p)).unwrap_or_default(),
            self.spoofed
                .map(|s| if s { "spoofed " } else { "genuine " })
                .unwrap_or(""),
            self.verdict
        )
    }
}

/// The OUTPUT chain.
#[derive(Clone, Debug, Default)]
pub struct Netfilter {
    rules: Vec<Rule>,
    /// `rules[i].name`, interned when the rule is installed so a verdict
    /// reports its rule without cloning a string per packet.
    names: Vec<Name>,
    /// Count of packets evaluated (for overhead accounting in benches).
    pub evaluated: u64,
    /// Count of packets dropped.
    pub dropped: u64,
}

/// Result of evaluating a packet against the chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evaluation {
    /// Final verdict.
    pub verdict: Verdict,
    /// Interned name of the matching rule, or `None` for the default
    /// policy.
    pub rule: Option<Name>,
}

impl Netfilter {
    /// An empty chain (default-accept), matching the paper's baseline
    /// "iptables with no firewall rules".
    pub fn new() -> Netfilter {
        Netfilter::default()
    }

    /// Appends a rule to the chain.
    pub fn append(&mut self, rule: Rule) {
        self.names.push(Name::intern(&rule.name));
        self.rules.push(rule);
    }

    /// Inserts a rule at the head of the chain.
    pub fn insert_front(&mut self, rule: Rule) {
        self.names.insert(0, Name::intern(&rule.name));
        self.rules.insert(0, rule);
    }

    /// Removes all rules whose name equals `name`; returns how many.
    pub fn delete_by_name(&mut self, name: &str) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| r.name != name);
        // Equal text is an equal symbol, so this drops the same entries.
        if let Some(sym) = Name::lookup(name) {
            self.names.retain(|&n| n != sym);
        }
        before - self.rules.len()
    }

    /// Clears the chain.
    pub fn flush(&mut self) {
        self.rules.clear();
        self.names.clear();
    }

    /// The installed rules, in evaluation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Evaluates a packet: first matching rule wins; default is accept.
    pub fn evaluate(&mut self, meta: &PacketMeta<'_>) -> Evaluation {
        self.evaluated += 1;
        for (r, &name) in self.rules.iter().zip(&self.names) {
            if r.matches(meta) {
                if r.verdict == Verdict::Drop {
                    self.dropped += 1;
                }
                return Evaluation {
                    verdict: r.verdict,
                    rule: Some(name),
                };
            }
        }
        Evaluation {
            verdict: Verdict::Accept,
            rule: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Uid;
    use crate::net::packet::{IcmpKind, Ipv4};

    fn echo_pkt() -> Packet {
        Packet::echo_request(Ipv4::LOOPBACK, Ipv4::new(8, 8, 8, 8), 1, 1, Uid(1000))
    }

    fn meta(p: &Packet) -> PacketMeta<'_> {
        PacketMeta {
            packet: p,
            spoofed_src_port: false,
        }
    }

    #[test]
    fn empty_chain_accepts() {
        let mut nf = Netfilter::new();
        let p = echo_pkt();
        let e = nf.evaluate(&meta(&p));
        assert_eq!(e.verdict, Verdict::Accept);
        assert_eq!(e.rule, None);
        assert_eq!(nf.evaluated, 1);
    }

    #[test]
    fn first_match_wins() {
        let mut nf = Netfilter::new();
        nf.append(Rule {
            name: "allow-icmp".into(),
            raw_socket_only: true,
            proto: Some(ProtoMatch::Icmp),
            icmp_types: Some(vec![0, 8]),
            dst_ports: None,
            spoofed: None,
            verdict: Verdict::Accept,
        });
        nf.append(Rule {
            name: "drop-raw".into(),
            raw_socket_only: true,
            proto: None,
            icmp_types: None,
            dst_ports: None,
            spoofed: None,
            verdict: Verdict::Drop,
        });
        let p = echo_pkt();
        assert_eq!(
            nf.evaluate(&meta(&p)).rule.map(Name::as_str),
            Some("allow-icmp")
        );
        // A raw ICMP redirect (type 5) is not whitelisted -> falls to drop.
        let mut evil = echo_pkt();
        evil.l4 = L4::Icmp(IcmpKind::Other(5));
        let e = nf.evaluate(&meta(&evil));
        assert_eq!(e.verdict, Verdict::Drop);
        assert_eq!(e.rule.map(Name::as_str), Some("drop-raw"));
        assert_eq!(nf.dropped, 1);
    }

    #[test]
    fn spoof_selector() {
        let mut nf = Netfilter::new();
        nf.append(Rule {
            name: "no-spoof".into(),
            raw_socket_only: true,
            proto: None,
            icmp_types: None,
            dst_ports: None,
            spoofed: Some(true),
            verdict: Verdict::Drop,
        });
        let mut p = echo_pkt();
        p.l4 = L4::Tcp {
            src_port: 80,
            dst_port: 9999,
            syn: false,
        };
        let spoofed = PacketMeta {
            packet: &p,
            spoofed_src_port: true,
        };
        assert_eq!(nf.evaluate(&spoofed).verdict, Verdict::Drop);
        let honest = PacketMeta {
            packet: &p,
            spoofed_src_port: false,
        };
        assert_eq!(nf.evaluate(&honest).verdict, Verdict::Accept);
    }

    #[test]
    fn dst_port_range() {
        let mut nf = Netfilter::new();
        nf.append(Rule {
            name: "traceroute-probes".into(),
            raw_socket_only: true,
            proto: Some(ProtoMatch::Udp),
            icmp_types: None,
            dst_ports: Some((33434, 33534)),
            spoofed: None,
            verdict: Verdict::Accept,
        });
        nf.append(Rule {
            name: "drop-raw-udp".into(),
            raw_socket_only: true,
            proto: Some(ProtoMatch::Udp),
            icmp_types: None,
            dst_ports: None,
            spoofed: None,
            verdict: Verdict::Drop,
        });
        let probe = Packet::udp_probe(Ipv4::LOOPBACK, Ipv4::new(8, 8, 8, 8), 3, 33440, Uid(1000));
        assert_eq!(nf.evaluate(&meta(&probe)).verdict, Verdict::Accept);
        let mut dns = probe.clone();
        dns.l4 = L4::Udp {
            src_port: 33434,
            dst_port: 53,
        };
        assert_eq!(nf.evaluate(&meta(&dns)).verdict, Verdict::Drop);
    }

    #[test]
    fn raw_only_rules_ignore_kernel_sockets() {
        let mut nf = Netfilter::new();
        nf.append(Rule {
            name: "drop-raw".into(),
            raw_socket_only: true,
            proto: None,
            icmp_types: None,
            dst_ports: None,
            spoofed: None,
            verdict: Verdict::Drop,
        });
        let mut p = echo_pkt();
        p.from_raw_socket = false;
        assert_eq!(nf.evaluate(&meta(&p)).verdict, Verdict::Accept);
    }

    #[test]
    fn delete_and_flush() {
        let mut nf = Netfilter::new();
        nf.append(Rule::accept_all("a"));
        nf.append(Rule::accept_all("a"));
        nf.append(Rule::accept_all("b"));
        assert_eq!(nf.delete_by_name("a"), 2);
        assert_eq!(nf.rules().len(), 1);
        nf.flush();
        assert!(nf.rules().is_empty());
    }
}
