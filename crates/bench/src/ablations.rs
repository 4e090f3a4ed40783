//! Ablation studies isolating the design choices DESIGN.md calls out:
//!
//! 1. **Netfilter cost** — the paper attributes the 2–4% ApacheBench
//!    overhead to the raw-socket netfilter rules evaluated on every
//!    outgoing packet; we measure the packet path with the Protego rules
//!    installed vs flushed.
//! 2. **Authentication recency window** — sweep the window and count the
//!    password prompts a scripted session generates (usability vs
//!    re-authentication exposure).
//! 3. **Whitelist scaling** — mount-policy lookup with 10/100/1000 rules.

use crate::Fixture;
use sim_kernel::net::{Domain, Ipv4, Packet, SockType};
use sim_kernel::task::Pid;
use sim_kernel::trace::Hook;
use userland::SystemMode;

/// Sends `n` kernel-built UDP datagrams (the non-raw fast path the
/// ApacheBench overhead rides on) and returns the elapsed nanoseconds.
pub fn udp_burst(f: &mut Fixture, n: u32) -> u128 {
    let fd = f
        .sys
        .kernel
        .sys_socket(f.user, Domain::Inet, SockType::Dgram, 0)
        .expect("socket");
    let start = std::time::Instant::now();
    for _ in 0..n {
        let _ = f
            .sys
            .kernel
            .sys_sendto(f.user, fd, Ipv4::new(8, 8, 8, 8), 7, b"x");
        let _ = f.sys.kernel.sys_recv_packet(f.user, fd);
    }
    let elapsed = start.elapsed().as_nanos();
    let _ = f.sys.kernel.sys_close(f.user, fd);
    elapsed
}

/// Flushes the netfilter OUTPUT chain (the ablated configuration).
pub fn flush_netfilter(f: &mut Fixture) {
    f.sys.kernel.netfilter.write().flush();
}

/// Number of rules currently installed.
pub fn rule_count(f: &Fixture) -> usize {
    f.sys.kernel.netfilter.read().rules().len()
}

/// Runs a scripted interactive session (six sudo invocations spaced
/// `spacing_secs` apart) and returns how many password prompts the
/// trusted agent served. Only meaningful on Protego.
pub fn prompts_for_window(spacing_secs: u64) -> u64 {
    let mut f = crate::fixture(SystemMode::Protego);
    f.sys.kernel.set_trace(true);
    let carol = f.sys.login("carol", "carolpw").expect("login");
    for _ in 0..6 {
        f.sys.kernel.advance_clock(spacing_secs);
        let _ = f
            .sys
            .run(carol, "/usr/bin/sudo", &["/bin/id"], &["carolpw"])
            .expect("sudo");
    }
    // Each kernel-launched authentication logs one audit event.
    f.sys
        .kernel
        .audit
        .events()
        .into_iter()
        .filter(|e| e.provenance.hook == Hook::Auth)
        .count() as u64
}

/// Installs `n` mount whitelist rules and times `iters` user mounts that
/// match the *last* rule (worst-case linear scan).
pub fn mount_lookup_cost(n: usize, iters: u32) -> u128 {
    let f = crate::fixture(SystemMode::Protego);
    let mut rules = String::new();
    for i in 0..n.saturating_sub(1) {
        rules.push_str(&format!("/dev/fake{} /mnt/fake{} iso9660 user\n", i, i));
    }
    rules.push_str("/dev/cdrom /mnt/cdrom iso9660 user ro\n");
    f.sys
        .kernel
        .write_file(
            f.root,
            "/proc/protego/mounts",
            rules.as_bytes(),
            sim_kernel::vfs::Mode(0o600),
        )
        .expect("policy write");
    let start = std::time::Instant::now();
    for _ in 0..iters {
        let _ = f
            .sys
            .kernel
            .sys_mount(f.user, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro");
        let _ = f.sys.kernel.sys_umount(f.user, "/mnt/cdrom");
    }
    start.elapsed().as_nanos()
}

/// Raw-socket send with the Protego whitelist present (ICMP echo — the
/// allowed case traverses all preceding rules).
pub fn raw_send_burst(f: &mut Fixture, user: Pid, n: u32) -> u128 {
    let fd = f
        .sys
        .kernel
        .sys_socket(user, Domain::Inet, SockType::Raw, 1)
        .expect("raw socket");
    let start = std::time::Instant::now();
    for i in 0..n {
        let pkt = Packet::echo_request(
            Ipv4::new(10, 0, 0, 100),
            Ipv4::new(10, 0, 0, 1),
            1,
            i as u16,
            f.sys.kernel.task(user).unwrap().cred.euid,
        );
        let _ = f.sys.kernel.sys_send_packet(user, fd, pkt);
        let _ = f.sys.kernel.sys_recv_packet(user, fd);
    }
    let elapsed = start.elapsed().as_nanos();
    let _ = f.sys.kernel.sys_close(user, fd);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfilter_flush_ablation() {
        let mut f = crate::fixture(SystemMode::Protego);
        assert!(rule_count(&f) >= 5);
        let _with = udp_burst(&mut f, 50);
        flush_netfilter(&mut f);
        assert_eq!(rule_count(&f), 0);
        let _without = udp_burst(&mut f, 50);
        // Both paths work; relative cost is reported by the bench.
    }

    #[test]
    fn recency_window_reduces_prompts() {
        // Spaced inside the window: one prompt amortizes over the session.
        let close = prompts_for_window(10);
        // Spaced beyond the window: every invocation prompts.
        let far = prompts_for_window(400);
        assert_eq!(far, 6);
        assert_eq!(close, 1);
    }

    #[test]
    fn mount_lookup_scales() {
        // Just exercise both sizes; timing is the bench's business.
        let _small = mount_lookup_cost(10, 5);
        let _large = mount_lookup_cost(200, 5);
    }

    #[test]
    fn raw_send_works_for_user_on_protego() {
        let mut f = crate::fixture(SystemMode::Protego);
        let user = f.user;
        let _ = raw_send_burst(&mut f, user, 10);
    }
}
