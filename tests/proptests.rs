//! Property-based tests over core data structures and policy invariants.

use proptest::prelude::*;
use protego::apparmor::glob_match;
use protego::core::policy::{
    self, AuthReq, BindRule, CmdSpec, GroupRule, MountRule, MountScope, Principal, SudoRule, Target,
};
use protego::kernel::caps::{Cap, CapSet};
use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::lsm::{sim_crypt, sim_crypt_verify};
use protego::kernel::net::{
    IcmpKind, Ipv4, Netfilter, Packet, PacketMeta, ProtoMatch, Route, RouteTable, Rule, Verdict, L4,
};
use protego::kernel::vfs::{InodeData, Mode, Vfs};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,12}"
}

fn path_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(name_strategy(), 1..6)
}

proptest! {
    // ------------------------------------------------------------------
    // VFS invariants
    // ------------------------------------------------------------------

    /// A file installed at a random path resolves back to itself, and
    /// `path_of` inverts resolution.
    #[test]
    fn vfs_install_resolve_roundtrip(parts in path_strategy()) {
        let v = Vfs::new();
        let path = format!("/{}", parts.join("/"));
        let ino = v.install_file(&path, b"data", Mode(0o644), Uid::ROOT, Gid::ROOT).unwrap();
        let r = v.resolve(v.root(), &path).unwrap();
        prop_assert_eq!(r.ino, ino);
        prop_assert_eq!(v.path_of(ino), path);
        prop_assert_eq!(v.read_all(ino).unwrap(), b"data");
    }

    /// Resolution traverses exactly the ancestor directories, in order.
    #[test]
    fn vfs_resolution_dirs_are_ancestors(parts in path_strategy()) {
        let v = Vfs::new();
        let path = format!("/{}", parts.join("/"));
        v.install_file(&path, b"", Mode(0o644), Uid::ROOT, Gid::ROOT).unwrap();
        let r = v.resolve(v.root(), &path).unwrap();
        prop_assert_eq!(r.dirs.len(), parts.len());
        for (i, d) in r.dirs.iter().enumerate() {
            let prefix = if i == 0 {
                "/".to_string()
            } else {
                format!("/{}", parts[..i].join("/"))
            };
            prop_assert_eq!(v.path_of(d), prefix);
        }
    }

    /// Unlink + reclamation never breaks an unrelated file.
    #[test]
    fn vfs_reclaim_does_not_alias(names in prop::collection::vec(name_strategy(), 2..8)) {
        let v = Vfs::new();
        let dir = v.mkdir_p("/work").unwrap();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        // Create all, delete every other one, re-create with new content.
        for n in &unique {
            v.create_file(dir, n, Mode(0o644), Uid::ROOT, Gid::ROOT, true).unwrap();
        }
        for (i, n) in unique.iter().enumerate() {
            if i % 2 == 0 {
                v.unlink(dir, n).unwrap();
            } else {
                let ino = v.resolve(v.root(), &format!("/work/{}", n)).unwrap().ino;
                v.write_all(ino, n.as_bytes()).unwrap();
            }
        }
        for (i, n) in unique.iter().enumerate() {
            let path = format!("/work/{}", n);
            if i % 2 == 0 {
                prop_assert!(v.resolve(v.root(), &path).is_err());
            } else {
                let ino = v.resolve(v.root(), &path).unwrap().ino;
                prop_assert_eq!(v.read_all(ino).unwrap(), n.as_bytes());
            }
        }
    }

    // ------------------------------------------------------------------
    // Capability set
    // ------------------------------------------------------------------

    #[test]
    fn capset_algebra(a in prop::collection::vec(0u8..36, 0..12),
                      b in prop::collection::vec(0u8..36, 0..12)) {
        let mk = |v: &Vec<u8>| v.iter().map(|&i| Cap::ALL[i as usize]).collect::<CapSet>();
        let (sa, sb) = (mk(&a), mk(&b));
        let u = sa.union(sb);
        let i = sa.intersect(sb);
        prop_assert!(sa.is_subset_of(u));
        prop_assert!(sb.is_subset_of(u));
        prop_assert!(i.is_subset_of(sa));
        prop_assert!(i.is_subset_of(sb));
        prop_assert_eq!(u.len() + i.len(), sa.len() + sb.len());
        for c in Cap::ALL {
            prop_assert_eq!(u.has(c), sa.has(c) || sb.has(c));
            prop_assert_eq!(i.has(c), sa.has(c) && sb.has(c));
        }
    }

    /// The setuid *bit* never changes the real uid (the defining property
    /// of §3.1), and grants the full set only for root-owned binaries.
    #[test]
    fn setuid_bit_preserves_ruid(user in 1u32..60000, owner in 0u32..60000) {
        let mut c = Credentials::user(Uid(user), Gid(user));
        c.apply_setuid_bit(Uid(owner));
        prop_assert_eq!(c.ruid, Uid(user));
        prop_assert_eq!(c.euid, Uid(owner));
        prop_assert_eq!(c.caps.is_empty(), owner != 0);
    }

    // ------------------------------------------------------------------
    // Globbing
    // ------------------------------------------------------------------

    /// A literal pattern (no metacharacters) matches exactly itself.
    #[test]
    fn glob_literal_is_identity(parts in path_strategy(), other in name_strategy()) {
        let path = format!("/{}", parts.join("/"));
        prop_assert!(glob_match(&path, &path));
        let different = format!("{}/{}", path, other);
        prop_assert!(!glob_match(&path, &different));
    }

    /// `/**` under a prefix matches every extension of that prefix.
    #[test]
    fn glob_doublestar_covers_subtree(parts in path_strategy(), tail in path_strategy()) {
        let prefix = format!("/{}", parts.join("/"));
        let pattern = format!("{}/**", prefix);
        let path = format!("{}/{}", prefix, tail.join("/"));
        prop_assert!(glob_match(&pattern, &path));
    }

    // ------------------------------------------------------------------
    // Netfilter
    // ------------------------------------------------------------------

    /// Evaluation is total, deterministic, and counts consistently.
    #[test]
    fn netfilter_total_and_consistent(
        protos in prop::collection::vec(0u8..5, 0..6),
        verdicts in prop::collection::vec(any::<bool>(), 0..6),
        pkt_kind in 0u8..5,
        spoofed in any::<bool>(),
    ) {
        let mut nf = Netfilter::new();
        for (i, (p, v)) in protos.iter().zip(verdicts.iter()).enumerate() {
            nf.append(Rule {
                name: format!("r{}", i),
                raw_socket_only: true,
                proto: Some(match p {
                    0 => ProtoMatch::Icmp,
                    1 => ProtoMatch::Tcp,
                    2 => ProtoMatch::Udp,
                    3 => ProtoMatch::Arp,
                    _ => ProtoMatch::OtherIp,
                }),
                icmp_types: None,
                dst_ports: None,
                spoofed: None,
                verdict: if *v { Verdict::Accept } else { Verdict::Drop },
            });
        }
        let l4 = match pkt_kind {
            0 => L4::Icmp(IcmpKind::EchoRequest { id: 1, seq: 1 }),
            1 => L4::Tcp { src_port: 1, dst_port: 2, syn: true },
            2 => L4::Udp { src_port: 1, dst_port: 2 },
            3 => L4::Arp { op: 1, target: Ipv4::LOOPBACK },
            _ => L4::OtherIp(47),
        };
        let pkt = Packet {
            src: Ipv4::LOOPBACK,
            dst: Ipv4::new(8, 8, 8, 8),
            ttl: 64,
            l4,
            payload: vec![],
            from_raw_socket: true,
            sender_uid: Uid(1000),
        };
        let meta = PacketMeta { packet: &pkt, spoofed_src_port: spoofed };
        let first = nf.evaluate(&meta);
        let second = nf.evaluate(&meta);
        prop_assert_eq!(first.verdict, second.verdict);
        prop_assert_eq!(&first.rule, &second.rule);
        prop_assert_eq!(nf.evaluated, 2);
        // A named verdict must come from an installed rule.
        if let Some(name) = first.rule {
            prop_assert!(nf.rules().iter().any(|r| r.name == name.as_str()));
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Overlap is symmetric, and a conflict-free add keeps lookups exact:
    /// any address matching the new route resolves to a route.
    #[test]
    fn route_overlap_symmetric(a in any::<u32>(), pa in 0u8..=32, b in any::<u32>(), pb in 0u8..=32) {
        let ra = Route { dest: Ipv4(a), prefix: pa, gateway: None, dev: "a".into(), created_by: Uid::ROOT };
        let rb = Route { dest: Ipv4(b), prefix: pb, gateway: None, dev: "b".into(), created_by: Uid::ROOT };
        prop_assert_eq!(ra.overlaps(&rb), rb.overlaps(&ra));
        if ra.overlaps(&rb) {
            let mut t = RouteTable::new();
            t.add(ra.clone()).unwrap();
            prop_assert!(t.conflict_with(&rb).is_some());
        }
    }

    /// Longest-prefix-match always returns the most specific matching
    /// route.
    #[test]
    fn route_lpm_is_most_specific(dst in any::<u32>(), prefixes in prop::collection::btree_set(0u8..=32, 1..5)) {
        let mut t = RouteTable::new();
        for p in &prefixes {
            let r = Route { dest: Ipv4(dst), prefix: *p, gateway: None, dev: format!("d{}", p), created_by: Uid::ROOT };
            t.add(r).unwrap();
        }
        let hit = t.lookup(Ipv4(dst)).unwrap();
        prop_assert_eq!(hit.prefix, *prefixes.iter().max().unwrap());
    }

    // ------------------------------------------------------------------
    // Policy grammar round-trips
    // ------------------------------------------------------------------

    #[test]
    fn mounts_grammar_roundtrip(
        entries in prop::collection::vec(
            (name_strategy(), name_strategy(), any::<bool>(), any::<bool>(), any::<bool>()), 0..6)
    ) {
        let rules: Vec<MountRule> = entries.iter().map(|(dev, mp, users, ro, any_fs)| MountRule {
            source: format!("/dev/{}", dev),
            mountpoint: format!("/mnt/{}", mp),
            fstype: if *any_fs { None } else { Some("iso9660".into()) },
            scope: if *users { MountScope::Users } else { MountScope::User },
            read_only: *ro,
        }).collect();
        let text = policy::render_mounts(&rules);
        let back = policy::parse_mounts(&text).unwrap();
        prop_assert_eq!(back, rules);
    }

    #[test]
    fn bind_grammar_roundtrip(
        entries in prop::collection::btree_map(1u16..1024, (name_strategy(), any::<bool>(), 0u32..70000), 0..6)
    ) {
        let rules: Vec<BindRule> = entries.iter().map(|(port, (bin, tcp, uid))| BindRule {
            port: *port,
            tcp: *tcp,
            binary: format!("/usr/sbin/{}", bin),
            uid: *uid,
        }).collect();
        let text = policy::render_binds(&rules);
        let back = policy::parse_binds(&text).unwrap();
        prop_assert_eq!(back, rules);
    }

    #[test]
    fn sudo_grammar_roundtrip(
        entries in prop::collection::vec(
            (0u8..3, 0u32..70000, any::<bool>(), 0u8..3,
             prop::collection::vec(name_strategy(), 0..3),
             prop::collection::vec("[A-Z][A-Z0-9_]{0,6}", 0..3)), 0..5)
    ) {
        let rules: Vec<SudoRule> = entries.iter().map(|(fk, id, tany, auth, cmds, env)| SudoRule {
            from: match fk { 0 => Principal::Any, 1 => Principal::Uid(*id), _ => Principal::Gid(*id) },
            target: if *tany { Target::Any } else { Target::Uid(*id) },
            cmd: if cmds.is_empty() { CmdSpec::Any } else {
                CmdSpec::List(cmds.iter().map(|c| format!("/bin/{}", c)).collect())
            },
            auth: match auth { 0 => AuthReq::Invoker, 1 => AuthReq::Target, _ => AuthReq::None },
            keep_env: env.clone(),
        }).collect();
        let text = policy::render_sudo(&rules);
        let back = policy::parse_sudo(&text).unwrap();
        prop_assert_eq!(back, rules);
    }

    #[test]
    fn groups_grammar_roundtrip(entries in prop::collection::btree_map(0u32..70000, any::<bool>(), 0..8)) {
        let rules: Vec<GroupRule> = entries.iter().map(|(gid, pw)| GroupRule {
            gid: *gid,
            password_protected: *pw,
        }).collect();
        let text = policy::render_groups(&rules);
        prop_assert_eq!(policy::parse_groups(&text).unwrap(), rules);
    }

    // ------------------------------------------------------------------
    // Password hashing
    // ------------------------------------------------------------------

    #[test]
    fn sim_crypt_verifies_only_the_right_password(
        salt in "[a-z]{2}", pw in "[ -~]{1,16}", other in "[ -~]{1,16}"
    ) {
        let h = sim_crypt(&salt, &pw);
        prop_assert!(sim_crypt_verify(&h, &pw));
        if other != pw {
            prop_assert!(!sim_crypt_verify(&h, &other));
        }
    }

    // ------------------------------------------------------------------
    // Mount-table invariant through random mount/umount sequences
    // ------------------------------------------------------------------

    #[test]
    fn mount_table_never_self_covers(ops in prop::collection::vec((0u8..2, 0usize..3), 1..12)) {
        let v = Vfs::new();
        let points: Vec<_> = (0..3).map(|i| {
            let p = format!("/mnt/p{}", i);
            v.mkdir_p(&p).unwrap()
        }).collect();
        let _ = &points;
        for (op, which) in ops {
            if op == 0 {
                let media = v.alloc(
                    v.root(), Mode(0o755), Uid::ROOT, Gid::ROOT,
                    InodeData::Directory(Default::default()),
                );
                let covered = v.resolve(v.root(), &format!("/mnt/p{}", which)).unwrap().ino;
                let _ = v.add_mount("dev", &format!("/mnt/p{}", which), "t",
                                    Default::default(), media, covered, Uid::ROOT);
            } else {
                let _ = v.remove_mount(&format!("/mnt/p{}", which));
            }
            // Invariant: no mount's root equals its covered inode, and
            // resolving every mountpoint terminates.
            for m in v.mounts() {
                prop_assert!(m.root != m.covered);
            }
            for i in 0..3 {
                let p = format!("/mnt/p{}", i);
                prop_assert!(v.resolve(v.root(), &p).is_ok(), "resolve failed");
            }
        }
    }
}
