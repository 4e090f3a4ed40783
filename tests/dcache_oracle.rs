//! Differential oracle for the dcache: each image boots twice, once with
//! the dcache on and once with it off, and runs the same script of
//! privileged-utility runs (mount, umount, ping, sudo, su, newgrp, lpr)
//! interleaved with mail deliveries, web requests and spool drains. Every
//! observable output must match: exit codes, stdout, the rendered audit
//! stream, and the final `/var/mail`, `/etc/mtab` and `/mnt` contents.

use protego::kernel::Pid;
use protego::userland::workload;
use protego::userland::{boot, System, SystemMode};

/// Cycles of the script; each mounts and unmounts `/mnt/cdrom` once.
const CYCLES: usize = 6;

/// Who runs what, with which terminal input.
const RUNS: [(usize, &str, &[&str], &[&str]); 9] = [
    (0, "/bin/mount", &["/mnt/cdrom"], &[]),
    (0, "/bin/ping", &["10.0.0.1"], &[]),
    (2, "/usr/bin/sudo", &["/bin/id"], &["carolpw"]),
    (
        1,
        "/usr/bin/sudo",
        &["-u", "alice", "/usr/bin/lpr", "hello"],
        &["bobpw"],
    ),
    (0, "/usr/bin/lpr", &["report"], &[]),
    (0, "/bin/su", &["bob"], &["bobpw"]),
    (0, "/usr/bin/newgrp", &["staff"], &[]),
    (0, "/usr/bin/sudo", &["/bin/id"], &["alicepw"]),
    (0, "/bin/umount", &["/mnt/cdrom"], &[]),
];

const USERS: [(&str, &str); 3] = [("alice", "alicepw"), ("bob", "bobpw"), ("carol", "carolpw")];

/// Runs the script on a fresh `mode` image and returns everything it
/// observed, plus the dcache hits the script made.
fn transcript(mode: SystemMode, dcache: bool) -> (Vec<String>, u64) {
    let mut sys = boot(mode);
    sys.kernel.vfs.set_dcache_enabled(dcache);
    sys.kernel.set_trace(true);
    let hits = sys.kernel.vfs.dcache_stats().hits;
    let mut out = Vec::new();
    let mail = workload::start_mail_service(&mut sys).expect("exim4");
    let web = workload::start_web_service(&mut sys).expect("httpd");
    let client = workload::client_session(&mut sys).expect("client");
    let sessions: Vec<Pid> = USERS
        .iter()
        .map(|(user, pw)| sys.login(user, pw).expect("login"))
        .collect();
    for cycle in 0..CYCLES {
        for (i, (user, path, args, input)) in RUNS.iter().enumerate() {
            sys.kernel.advance_clock(400);
            let line = match sys.run(sessions[*user], path, args, input) {
                Ok(r) => format!("{path} {args:?}: code={} stdout={:?}", r.code, r.stdout),
                Err(e) => format!("{path} {args:?}: {e}"),
            };
            out.push(line);
            let rcpt = ["alice", "bob"][(cycle + i) % 2];
            let body = format!("cycle {cycle} run {i}");
            let delivered = workload::mail_delivery(&mut sys, client, mail, rcpt, &body);
            out.push(format!("mail {rcpt}: {delivered:?}"));
            out.push(format!(
                "web: {:?}",
                workload::web_request(&mut sys, client, web)
            ));
            out.extend(snapshot(&mut sys));
        }
        if cycle % 2 == 1 {
            workload::drain_spools(&mut sys, mail);
        }
    }
    out.extend(sys.kernel.audit.events().iter().map(|ev| ev.render()));
    (out, sys.kernel.vfs.dcache_stats().hits - hits)
}

/// The mail spools, the mount table file and the tree under `/mnt`, as
/// init sees them.
fn snapshot(sys: &mut System) -> Vec<String> {
    let init = sys.init_pid();
    let k = &sys.kernel;
    let mut out = Vec::new();
    for path in ["/var/mail/alice", "/var/mail/bob", "/etc/mtab"] {
        out.push(format!("{path}: {:?}", k.read_to_string(init, path)));
    }
    out.push(format!("/var/mail: {:?}", k.sys_readdir(init, "/var/mail")));
    let mnt = k.sys_readdir(init, "/mnt").unwrap_or_default();
    for entry in &mnt {
        let path = format!("/mnt/{entry}");
        out.push(format!("{path}: {:?}", k.sys_readdir(init, &path)));
    }
    out.push(format!("/mnt: {mnt:?}"));
    out
}

#[test]
fn dcache_on_and_off_give_identical_runs_on_both_images() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let (cached, hits) = transcript(mode, true);
        let (uncached, no_hits) = transcript(mode, false);
        assert!(hits > 0, "{mode:?}: the cached run must hit the dcache");
        assert_eq!(no_hits, 0, "{mode:?}: the uncached run must not");
        assert_eq!(cached.len(), uncached.len(), "{mode:?}");
        for (a, b) in cached.iter().zip(&uncached) {
            assert_eq!(a, b, "{mode:?}: dcache on vs off");
        }
        // The script did what it says: mounts succeeded and were audited.
        assert!(cached
            .iter()
            .any(|l| l.contains("/bin/mount") && l.contains("code=0")));
        assert!(
            cached.iter().any(|l| l.contains("hook=sb_mount")),
            "{mode:?}"
        );
    }
}
