//! Reusable closed-loop macro workload drivers (the paper's §6 setup).
//!
//! The Table 5 macro benchmarks drive whole services, not single
//! syscalls: ApacheBench hammers the web server, Postal hammers the
//! MTA. This module packages those loops as reusable drivers so the
//! Table 5 benchmarks, the end-to-end benchmark and tests all exercise
//! the same code paths:
//!
//! - [`web_request`] — one HTTP round trip; the serving side stats,
//!   opens, reads, and closes the docroot file per request.
//! - [`mail_delivery`] — one SMTP round trip delivered with the
//!   atomic-replace pattern: stage the new spool image to a tmp file,
//!   then `rename` it over the spool (the crash-safe hot path the VFS
//!   rename-cycle fix protects).
//!
//! Every driver returns `KResult` and is total under fault injection:
//! a worker loop may count failures but never panics.

use crate::bins::mail;
use crate::system::{IoBufs, System, SystemMode};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;
use std::fmt::Write as _;
use std::io::Write as _;

/// A started network service: the daemon task plus its listening socket.
#[derive(Clone, Copy, Debug)]
pub struct Service {
    /// The daemon task.
    pub pid: Pid,
    /// The listening fd announced at startup.
    pub listen_fd: i32,
    /// The TCP port clients connect to.
    pub port: u16,
}

/// Spawns a mode-appropriate session for a service user: a root login on
/// the legacy image (daemons start privileged and drop), the service
/// user's own session under Protego.
fn service_launch_session(sys: &mut System, uid: Uid, gid: Gid) -> KResult<Pid> {
    match sys.mode {
        SystemMode::Legacy => sys.login("root", "rootpw"),
        SystemMode::Protego => Ok(sys.service_session(uid, gid, "/bin/sh")),
    }
}

fn start_service(
    sys: &mut System,
    binary: &str,
    uid: Uid,
    gid: Gid,
    port: u16,
) -> KResult<Service> {
    let session = service_launch_session(sys, uid, gid)?;
    let (pid, startup) = sys.spawn_service(session, binary, &["--daemon"])?;
    let listen_fd = mail::parse_listen_fd(&startup).ok_or(Errno::EIO)?;
    Ok(Service {
        pid,
        listen_fd,
        port,
    })
}

/// Starts the image's MTA (`exim4` on port 25).
pub fn start_mail_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, "/usr/sbin/exim4", Uid(mail::MAIL_UID), Gid(8), 25)
}

/// Starts the image's web server (`httpd` on port 80).
pub fn start_web_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, "/usr/sbin/httpd", Uid(mail::WWW_UID), Gid(33), 80)
}

/// The web port shared-kernel worker `w` serves on. Ports are disjoint
/// per worker so concurrent workers on one kernel never steal each
/// other's connections out of a shared listen backlog; they sit above
/// 1024 so the Protego bind policy treats them as unrestricted.
pub fn shared_web_port(worker: usize) -> u16 {
    8080 + worker as u16
}

/// The SMTP port shared-kernel worker `w` serves on.
pub fn shared_mail_port(worker: usize) -> u16 {
    2525 + worker as u16
}

/// The spool name shared-kernel worker `w` delivers to: per-worker
/// recipients keep the atomic-replace `rename` commits of concurrent
/// workers on disjoint spool files.
pub fn worker_rcpt(worker: usize) -> String {
    format!("worker{}", worker)
}

/// Starts one worker's service instance on a *shared* kernel: instead of
/// exec-ing the daemon binary (which hard-binds the privileged port),
/// the service session binds the worker's own high port directly. Legacy
/// images keep the paper's privilege shape — the daemon session starts
/// as root, binds, and drops euid while retaining saved uid 0 (so
/// delivery still pays the seteuid round trip); Protego sessions run as
/// the service user throughout.
fn start_shared_service(
    sys: &mut System,
    binary: &str,
    uid: Uid,
    gid: Gid,
    port: u16,
) -> KResult<Service> {
    let pid = match sys.mode {
        SystemMode::Legacy => sys.login("root", "rootpw")?,
        SystemMode::Protego => sys.service_session(uid, gid, binary),
    };
    let fd = sys.process(pid).socket(Domain::Inet, SockType::Stream, 0)?;
    sys.process(pid).bind(fd, Ipv4::ANY, port)?;
    sys.process(pid).listen(fd)?;
    if sys.mode == SystemMode::Legacy {
        // The classic daemon etiquette: drop the effective uid after the
        // bind, keeping saved uid 0 for per-delivery raises (§4.4).
        sys.process(pid).seteuid(uid)?;
    }
    Ok(Service {
        pid,
        listen_fd: fd,
        port,
    })
}

/// Starts shared-kernel worker `w`'s web server on its own port.
pub fn start_shared_web_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_shared_service(
        sys,
        "/usr/sbin/httpd",
        Uid(mail::WWW_UID),
        Gid(33),
        shared_web_port(worker),
    )
}

/// Starts shared-kernel worker `w`'s MTA on its own port.
pub fn start_shared_mail_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_shared_service(
        sys,
        "/usr/sbin/exim4",
        Uid(mail::MAIL_UID),
        Gid(8),
        shared_mail_port(worker),
    )
}

/// Logs in the workload's client user.
pub fn client_session(sys: &mut System) -> KResult<Pid> {
    sys.login("alice", "alicepw")
}

/// One ApacheBench-style request: connect, GET, serve (stat + open +
/// read + close on the server), read the response, verify `200 OK`.
/// Warm, it allocates nothing: the request, page and response bytes go
/// through the system's reusable buffers.
pub fn web_request(sys: &mut System, client: Pid, srv: Service) -> KResult<()> {
    sys.with_io(|sys, io| {
        let cli = sys
            .process(client)
            .socket(Domain::Inet, SockType::Stream, 0)?;
        let run = (|| {
            sys.process(client).connect(cli, Ipv4::LOOPBACK, srv.port)?;
            sys.process(client).send(cli, b"GET / HTTP/1.0\r\n\r\n")?;
            mail::httpd_serve_one_with(sys, srv.pid, srv.listen_fd, io)?;
            io.rx.clear();
            sys.process(client).recv_into(cli, &mut io.rx, 65536)?;
            let text = String::from_utf8_lossy(&io.rx);
            if !text.starts_with("HTTP/1.0 200 OK") || !text.contains("</html>") {
                return Err(Errno::EIO);
            }
            Ok(())
        })();
        let _ = sys.process(client).close(cli);
        run
    })
}

/// One Postal-style delivery: SMTP round trip whose server side commits
/// the message with write-to-tmp + atomic-replace `rename` over the
/// spool, then acknowledges `250 OK`.
pub fn mail_delivery(
    sys: &mut System,
    client: Pid,
    srv: Service,
    rcpt: &str,
    body: &str,
) -> KResult<()> {
    sys.with_io(|sys, io| {
        let cli = sys
            .process(client)
            .socket(Domain::Inet, SockType::Stream, 0)?;
        let run = (|| {
            sys.process(client).connect(cli, Ipv4::LOOPBACK, srv.port)?;
            io.tx.clear();
            let _ = write!(io.tx, "MAIL TO:<{}>\n{}", rcpt, body);
            sys.process(client).send(cli, &io.tx)?;
            serve_one_atomic(sys, srv.pid, srv.listen_fd, io)?;
            io.rx.clear();
            sys.process(client).recv_into(cli, &mut io.rx, 1024)?;
            if !io.rx.starts_with(b"250") {
                return Err(Errno::EIO);
            }
            Ok(())
        })();
        let _ = sys.process(client).close(cli);
        run
    })
}

/// Server half of [`mail_delivery`]: accept, parse, deliver atomically,
/// acknowledge.
fn serve_one_atomic(sys: &mut System, server: Pid, listen_fd: i32, io: &mut IoBufs) -> KResult<()> {
    let conn = sys.process(server).accept(listen_fd)?;
    let run = (|| {
        io.rx.clear();
        sys.process(server).recv_into(conn, &mut io.rx, 65536)?;
        let text = String::from_utf8_lossy(&io.rx);
        let rcpt = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("MAIL TO:<"))
            .and_then(|l| l.strip_suffix('>'))
            .ok_or(Errno::EINVAL)?;
        let spool = Spool {
            image: &mut io.file,
            path: &mut io.spool,
            tmp: &mut io.tmp,
        };
        match deliver_atomic(sys, server, rcpt, text.lines().skip(1), spool) {
            Ok(()) => {
                sys.process(server).send(conn, b"250 OK\r\n")?;
                Ok(())
            }
            Err(e) => {
                let _ = sys.process(server).send(conn, b"451 delivery failed\r\n");
                Err(e)
            }
        }
    })();
    let _ = sys.process(server).close(conn);
    run
}

/// The buffers of one spool commit, lent from [`IoBufs`].
struct Spool<'b> {
    /// The spool's new image.
    image: &'b mut Vec<u8>,
    /// The spool's path.
    path: &'b mut String,
    /// The staging file's path.
    tmp: &'b mut String,
}

/// Atomic-replace spool commit: read the current spool, stage the
/// appended image (`From MTA: to <rcpt>`, then the body lines joined by
/// newlines) to `/var/mail/.<rcpt>.tmp`, `rename` it over the spool. The
/// legacy MTA raises its saved root euid around the commit (the §4.4
/// pattern Protego obviates); the Protego MTA runs it with nothing but
/// the `mail` group.
fn deliver_atomic<'a>(
    sys: &mut System,
    server: Pid,
    rcpt: &str,
    body: impl Iterator<Item = &'a str>,
    spool: Spool<'_>,
) -> KResult<()> {
    sys.coverage.hit("/usr/sbin/exim4", "deliver");
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(server)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        sys.process(server).seteuid(Uid::ROOT)?;
    }
    let Spool { image, path, tmp } = spool;
    path.clear();
    let _ = write!(path, "/var/mail/{}", rcpt);
    tmp.clear();
    let _ = write!(tmp, "/var/mail/.{}.tmp", rcpt);
    let result = (|| {
        image.clear();
        match sys.process(server).read_file_into(path, image) {
            Ok(_) => {}
            Err(Errno::ENOENT) => image.clear(),
            Err(e) => return Err(e),
        }
        image.extend_from_slice(b"From MTA: to ");
        image.extend_from_slice(rcpt.as_bytes());
        image.push(b'\n');
        for (i, line) in body.enumerate() {
            if i > 0 {
                image.push(b'\n');
            }
            image.extend_from_slice(line.as_bytes());
        }
        image.extend_from_slice(b"\n\n");
        sys.process(server).write_file(tmp, image, Mode(0o660))?;
        sys.process(server).rename(tmp, path)
    })();
    if result.is_err() {
        sys.coverage.hit("/usr/sbin/exim4", "deliver_fail");
        // Never leave a stale staging file behind a failed commit.
        let _ = sys.process(server).unlink(tmp);
    }
    if legacy_raise {
        let _ = sys.process(server).seteuid(Uid(mail::MAIL_UID));
    }
    result
}

/// The mail reader's half of the closed loop: truncates the spools the
/// way an MDA/user drains a real mailbox. Without a consumer the spool
/// grows without bound and each delivery's read-append-rename
/// commit gets slower with every message, making throughput depend on
/// how long the benchmark has been running. Uses the same legacy euid
/// raise as delivery so both modes pay symmetric costs.
pub fn drain_spools(sys: &mut System, srv: Service) {
    let legacy_raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(srv.pid)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid::ROOT);
    }
    for rcpt in ["alice", "bob"] {
        let _ = sys.process(srv.pid).unlink(&format!("/var/mail/{}", rcpt));
    }
    if legacy_raise {
        let _ = sys.process(srv.pid).seteuid(Uid(mail::MAIL_UID));
    }
}

/// Escalation artifacts only an exploit (or corrupted kernel) produces;
/// the macro workloads must never create any. Returns human-readable
/// descriptions of everything found, empty when clean — the
/// shared-kernel stress tests assert emptiness after every run.
pub fn privileged_artifacts(sys: &mut System) -> Vec<String> {
    let root = sys.init_pid();
    let mut found = Vec::new();
    match sys.kernel.read_to_string(root, "/etc/shadow") {
        Ok(shadow) => {
            if shadow.contains("haxor") {
                found.push("rogue account in /etc/shadow".to_string());
            }
        }
        Err(e) => found.push(format!("/etc/shadow unreadable by root: {}", e)),
    }
    if let Ok(st) = sys.kernel.sys_stat(root, "/tmp/rootshell") {
        if st.mode.0 & 0o4000 != 0 {
            found.push("setuid-root /tmp/rootshell planted".to_string());
        }
    }
    if sys.kernel.sys_stat(root, "/lib/modules/evil.ko").is_ok() {
        found.push("rootkit module /lib/modules/evil.ko appeared".to_string());
    }
    found
}

/// The VFS namespace property invariants from the proptests, as a
/// non-panicking detector: a directory walk from the root must terminate
/// within the live-inode budget (no namespace cycles), and every
/// reachable inode must resolve back to itself at its own `path_of`
/// (live inodes stay root-reachable). Mount-covered nodes are exempt
/// from the ino equality — resolution legitimately lands in the mounted
/// filesystem — but must still resolve. Returns human-readable
/// descriptions of every violation, empty when the namespace is sound;
/// the stress tests assert emptiness and the fuzz oracle treats any
/// entry as a security failure.
pub fn vfs_namespace_violations(sys: &System) -> Vec<String> {
    let vfs = &sys.kernel.vfs;
    let root = vfs.root();
    let budget = vfs.inode_count() + 1;
    let mut found = Vec::new();
    let mut queue = vec![root];
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(root);
    let mut visited = 0usize;
    while let Some(dir) = queue.pop() {
        visited += 1;
        if visited > budget {
            found.push(format!(
                "directory walk visited {} nodes with only {} live inodes: namespace cycle",
                visited,
                budget - 1
            ));
            return found;
        }
        // A mount covering this directory shadows its underlying
        // children (mounting over a non-empty directory legitimately
        // hides its contents until umount) — the shadowed subtree is
        // unreachable by design, not a namespace violation.
        if vfs.mount_covering(dir).is_some() {
            continue;
        }
        let names = match vfs.dir_names(dir) {
            Ok(n) => n,
            Err(_) => continue,
        };
        for name in names {
            let child = match vfs.dir_lookup(dir, &name) {
                Ok(Some(c)) => c,
                _ => continue,
            };
            let path = vfs.path_of(child);
            let resolved = match vfs.resolve_nofollow(root, &path) {
                Ok(r) => r,
                Err(e) => {
                    found.push(format!(
                        "live inode {:?} unresolvable at {:?}: {}",
                        child, path, e
                    ));
                    continue;
                }
            };
            let mounted =
                vfs.mount_covering(child).is_some() || vfs.mount_rooted_at(child).is_some();
            if !mounted && resolved.ino != child {
                found.push(format!(
                    "path {:?} resolves to a different inode than the tree walk",
                    path
                ));
            }
            let is_dir = vfs.inode(child).data.is_dir();
            if is_dir && seen.insert(child) {
                queue.push(child);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::boot;

    #[test]
    fn web_request_serves_docroot_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            let srv = start_web_service(&mut sys).expect("web service");
            let client = client_session(&mut sys).expect("client login");
            for _ in 0..5 {
                web_request(&mut sys, client, srv).expect("request");
            }
        }
    }

    #[test]
    fn mail_delivery_renames_atomically_on_both_modes() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            let srv = start_mail_service(&mut sys).expect("mail service");
            let client = client_session(&mut sys).expect("client login");
            for i in 0..4 {
                mail_delivery(&mut sys, client, srv, "bob", &format!("msg {}", i))
                    .expect("delivery");
            }
            let init = sys.init_pid();
            let spool = sys
                .kernel
                .read_to_string(init, "/var/mail/bob")
                .expect("spool");
            for i in 0..4 {
                assert!(
                    spool.contains(&format!("msg {}", i)),
                    "{:?}: {}",
                    mode,
                    spool
                );
            }
            // The staging file never survives a completed delivery.
            assert!(sys.kernel.sys_stat(init, "/var/mail/.bob.tmp").is_err());
            assert!(privileged_artifacts(&mut sys).is_empty());
        }
    }
}
