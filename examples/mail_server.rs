//! The mail path end to end (§4.1.3 + §4.4): an unprivileged MTA binding
//! port 25 via /etc/bind, delivery honouring (or diagnosably failing to
//! honour) `~/.forward`, and the legacy contrast.
//!
//! Run with `cargo run --example mail_server`.

use protego::userland::workload::{self, Service};
use protego::userland::{boot, SystemMode};

fn main() {
    println!("=== Mail service: legacy vs Protego ===\n");

    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        println!("--- {:?} ---", mode);
        let mut sys = boot(mode);
        let init = sys.init_pid();

        let (mta, startup) = workload::launch(&mut sys, workload::EXIM4, &["--daemon"]).unwrap();
        let after = sys.kernel.task(mta).unwrap().cred.clone();
        println!("MTA starts as uid {}", after.ruid.0);
        print!("{}", startup.stdout);
        let srv = Service::announced(mta, &startup, 25).unwrap();
        println!(
            "after bind: euid={} suid={}  ({})",
            after.euid.0,
            after.suid.0,
            if after.suid.is_root() {
                "legacy keeps saved-uid 0 to re-read .forward as root"
            } else {
                "Protego has nothing to regain"
            }
        );

        // bob mails alice; alice has a private ~/.forward.
        let bob = sys.login("bob", "bobpw").unwrap();
        let reply = workload::smtp_send(&mut sys, bob, srv, "alice", "lunch?").unwrap();
        println!("SMTP reply: {}", reply.trim());

        let inbox = sys
            .kernel
            .read_to_string(init, "/home/alice/inbox")
            .unwrap_or_default();
        let spool = sys
            .kernel
            .read_to_string(init, "/var/mail/alice")
            .unwrap_or_default();
        let log = sys
            .kernel
            .read_to_string(init, "/var/log/exim4/mainlog")
            .unwrap_or_default();
        if inbox.contains("lunch?") {
            println!("delivered via ~/.forward to /home/alice/inbox (root read the file)");
        }
        if spool.contains("lunch?") {
            println!("delivered to /var/mail/alice (no privilege to read ~/.forward)");
        }
        if !log.is_empty() {
            print!("mainlog: {}", log);
        }
        println!();
    }
    println!(
        "Both deliver; Protego trades the root-powered DAC bypass for a clear diagnostic (§4.4)."
    );
}
