//! Network diagnostics without privilege (§4.1): ping/traceroute as
//! unprivileged binaries, a user-written ping, spoofing stopped by
//! netfilter, and the /etc/bind port map.
//!
//! Run with `cargo run --example network_tools`.

use protego::kernel::net::{Domain, Ipv4, Packet, SockType, L4};
use protego::userland::workload;
use protego::userland::{boot, SystemMode};

fn main() {
    println!("=== Networking without setuid (§4.1) ===\n");

    let mut linux = boot(SystemMode::Legacy);
    let mut protego = boot(SystemMode::Protego);

    // ------------------------------------------------------------------
    // The stock tools work identically on both systems.
    // ------------------------------------------------------------------
    let al = linux.login("alice", "alicepw").unwrap();
    let ap = protego.login("alice", "alicepw").unwrap();
    println!("--- ping 8.8.8.8 on both systems ---");
    for (name, sys, s) in [("linux  ", &mut linux, al), ("protego", &mut protego, ap)] {
        let r = sys.run(s, "/bin/ping", &["8.8.8.8"], &[]).unwrap();
        print!("{}: {}", name, r.stdout);
    }
    println!("\n--- traceroute 8.8.8.8 (Protego) ---");
    let r = protego
        .run(ap, "/usr/bin/traceroute", &["8.8.8.8"], &[])
        .unwrap();
    print!("{}", r.stdout);

    // ------------------------------------------------------------------
    // Alice's own ping: EPERM on Linux, works on Protego.
    // ------------------------------------------------------------------
    println!("\n--- alice's hand-written ping (no setuid anywhere) ---");
    let r = linux
        .run(al, "/home/alice/bin/myping", &["10.0.0.1"], &[])
        .unwrap();
    print!("linux  : {}", r.stdout);
    let r = protego
        .run(ap, "/home/alice/bin/myping", &["10.0.0.1"], &[])
        .unwrap();
    print!("protego: {}", r.stdout);

    // ------------------------------------------------------------------
    // Spoofing: claiming bob's TCP port from a raw socket.
    // ------------------------------------------------------------------
    println!("\n--- spoofed TCP segment claiming another user's source port ---");
    for (name, sys) in [("linux  ", &mut linux), ("protego", &mut protego)] {
        let bob = sys.login("bob", "bobpw").unwrap();
        let victim = sys
            .kernel
            .sys_socket(bob, Domain::Inet, SockType::Stream, 0)
            .unwrap();
        sys.kernel.sys_bind(bob, victim, Ipv4::ANY, 6000).unwrap();
        // The strongest raw-capable principal on each system.
        let spoofer = if name.trim() == "linux" {
            sys.login("root", "rootpw").unwrap()
        } else {
            sys.login("alice", "alicepw").unwrap()
        };
        let result = sys
            .kernel
            .sys_socket(spoofer, Domain::Inet, SockType::Raw, 6)
            .and_then(|fd| {
                let uid = sys.kernel.task(spoofer).unwrap().cred.euid;
                let pkt = Packet {
                    src: Ipv4::new(10, 0, 0, 100),
                    dst: Ipv4::new(8, 8, 8, 8),
                    ttl: 64,
                    l4: L4::Tcp {
                        src_port: 6000,
                        dst_port: 80,
                        syn: false,
                    },
                    payload: b"RST".to_vec(),
                    from_raw_socket: true,
                    sender_uid: uid,
                };
                sys.kernel.sys_send_packet(spoofer, fd, pkt)
            });
        println!(
            "{}: spoof from the most-privileged raw sender -> {}",
            name,
            match result {
                Ok(()) => "SENT (TCP state of another user attackable)".to_string(),
                Err(e) => format!("dropped by netfilter ({})", e),
            }
        );
    }

    // ------------------------------------------------------------------
    // /etc/bind: ports 25/80 are application instances, not a privilege.
    // ------------------------------------------------------------------
    println!("\n--- /etc/bind port allocation (Protego) ---");
    let init = protego.init_pid();
    let map = protego
        .kernel
        .read_to_string(init, "/proc/protego/bind")
        .unwrap();
    for line in map.lines() {
        println!("  {}", line);
    }
    let (_, startup) = workload::launch(&mut protego, workload::EXIM4, &["--daemon"]).unwrap();
    print!("{}", startup.stdout);
    println!("  (the mail user bound port 25 — no root moment at startup)");
    let (_, r) = workload::launch(&mut protego, workload::ROGUE_MTA, &[]).unwrap();
    print!("{}", r.stdout);
    println!("  (the web binary cannot moonlight as a mail server — §4.1.3)");
}
