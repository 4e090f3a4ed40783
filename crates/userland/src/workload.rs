//! The service drivers (the paper's §4.1.3 daemons and §6 workloads).
//!
//! Everything that starts or drives `exim4` and `httpd` lives here, so
//! the functional battery, the Table 5 macro rows, the seccomp
//! derivation, the end-to-end benchmark, the examples and the tests all
//! run the same code:
//!
//! - [`launch`] starts a daemon the way each image does: from a root
//!   login on legacy (the daemon binds, then drops its euid), from the
//!   service user's own session under Protego. It is the one place that
//!   makes that choice; the `start_*` helpers build on it.
//! - [`web_request`] is one HTTP round trip; the serving side stats,
//!   opens, reads and closes the docroot file per request.
//!   [`apache_bench`] issues the same requests in batches of open
//!   connections.
//! - [`mail_delivery`] is one SMTP round trip delivered with the
//!   atomic-replace pattern: stage the new spool image to a tmp file,
//!   then `rename` it over the spool. [`smtp_send`] drives the daemon's
//!   own `.forward`-honouring delivery instead.
//! - [`compile`] is the kernel-compile stand-in.
//!
//! Every leg goes through [`System::process`], so an attached
//! interceptor sees the whole stream. Every driver is total under fault
//! injection: a worker loop may count failures but never panics.

use crate::bins::mail;
use crate::system::{args_vec, IoBufs, RunResult, System, SystemMode};
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::task::Pid;
use sim_kernel::vfs::Mode;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// A daemon the images ship and the service account it runs as.
#[derive(Clone, Copy, Debug)]
pub struct Daemon {
    /// The daemon binary.
    pub binary: &'static str,
    /// The service user.
    pub uid: Uid,
    /// The service user's group.
    pub gid: Gid,
}

const fn daemon(binary: &'static str, uid: u32, gid: u32) -> Daemon {
    let (uid, gid) = (Uid(uid), Gid(gid));
    Daemon { binary, uid, gid }
}

/// The MTA, run by `mail`.
pub const EXIM4: Daemon = daemon("/usr/sbin/exim4", mail::MAIL_UID, 8);
/// The web server, run by `www-data`.
pub const HTTPD: Daemon = daemon("/usr/sbin/httpd", mail::WWW_UID, 33);
/// A compromised web service that reaches for the MTA's port 25.
pub const ROGUE_MTA: Daemon = daemon("/usr/sbin/rogue-mta", mail::WWW_UID, 33);

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

impl Service {
    /// The service daemon `pid` serves on `port`, with the listening fd
    /// it announced in its `startup` output ("... (fd N)").
    pub fn announced(pid: Pid, startup: &RunResult, port: u16) -> Option<Service> {
        let fd = startup.stdout.split("(fd ").nth(1)?.split(')').next()?;
        Some(Service {
            pid,
            listen_fd: fd.parse().ok()?,
            port,
        })
    }
}

/// Starts `daemon` with `args` as the image starts it: a root login
/// forks it on legacy (the daemon binds privileged, then drops its euid
/// and keeps saved uid 0), the service user's own session forks it under
/// Protego. The daemon execs and runs its setup body, and its task stays
/// alive so its sockets persist. Returns the task and the setup output.
pub fn launch(sys: &mut System, daemon: Daemon, args: &[&str]) -> KResult<(Pid, RunResult)> {
    let session = match sys.mode {
        SystemMode::Legacy => sys.login("root", "rootpw")?,
        SystemMode::Protego => sys
            .kernel
            .spawn_session(Credentials::user(daemon.uid, daemon.gid), "/bin/sh"),
    };
    let pid = sys.process(session).fork()?;
    let mut stdout = String::new();
    let code = sys.exec_into(pid, daemon.binary, args_vec(args), &mut stdout);
    Ok((pid, RunResult { code, stdout }))
}

fn start_service(sys: &mut System, daemon: Daemon, port: u16) -> KResult<Service> {
    let (pid, startup) = launch(sys, daemon, &["--daemon", "--port", &port.to_string()])?;
    Service::announced(pid, &startup, port).ok_or(Errno::EIO)
}

/// Starts the image's MTA (`exim4` on port 25).
pub fn start_mail_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, EXIM4, 25)
}

/// Starts the image's web server (`httpd` on port 80).
pub fn start_web_service(sys: &mut System) -> KResult<Service> {
    start_service(sys, HTTPD, 80)
}

/// Starts shared-kernel worker `w`'s web server on port `8080 + w`.
/// Ports are disjoint per worker so concurrent workers on one kernel
/// never steal each other's connections out of a shared listen backlog;
/// they sit above 1024 so the Protego bind policy treats them as
/// unrestricted.
pub fn start_shared_web_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_service(sys, HTTPD, 8080 + worker as u16)
}

/// Starts shared-kernel worker `w`'s MTA on port `2525 + w`.
pub fn start_shared_mail_service(sys: &mut System, worker: usize) -> KResult<Service> {
    start_service(sys, EXIM4, 2525 + worker as u16)
}

/// The spool name shared-kernel worker `w` delivers to: per-worker
/// recipients keep the atomic-replace `rename` commits of concurrent
/// workers on disjoint spool files.
pub fn worker_rcpt(worker: usize) -> String {
    format!("worker{}", worker)
}

/// Logs in the workload's client user.
pub fn client_session(sys: &mut System) -> KResult<Pid> {
    sys.login("alice", "alicepw")
}

/// The request every HTTP client sends.
const HTTP_GET: &[u8] = b"GET / HTTP/1.0\r\n\r\n";

/// The client's send half: a socket connected to `port` on loopback with
/// `request` sent on it. Returns the socket; closes it if the connect or
/// the send fails.
fn send_request(sys: &mut System, client: Pid, port: u16, request: &[u8]) -> KResult<i32> {
    let mut p = sys.process(client);
    let cli = p.socket(Domain::Inet, SockType::Stream, 0)?;
    let sent = p
        .connect(cli, Ipv4::LOOPBACK, port)
        .and_then(|()| p.send(cli, request));
    match sent {
        Ok(_) => Ok(cli),
        Err(e) => {
            let _ = p.close(cli);
            Err(e)
        }
    }
}

/// The client's read half: up to `max` bytes of the reply on `cli` into
/// `io.rx`. The caller closes `cli`.
fn read_reply(sys: &mut System, client: Pid, cli: i32, io: &mut IoBufs, max: usize) -> KResult<()> {
    io.rx.clear();
    sys.process(client)
        .recv_into(cli, &mut io.rx, max)
        .map(drop)
}

/// `Ok` when `reply` is a complete `200 OK` page, else `EIO`.
fn http_ok(reply: &[u8]) -> KResult<()> {
    let text = String::from_utf8_lossy(reply);
    if text.starts_with("HTTP/1.0 200 OK") && text.contains("</html>") {
        Ok(())
    } else {
        Err(Errno::EIO)
    }
}

/// One ApacheBench-style request: connect, GET, serve (stat + open +
/// read + close on the server), read the response, verify `200 OK`.
/// Warm, it allocates nothing: the request, page and response bytes go
/// through the system's reusable buffers.
pub fn web_request(sys: &mut System, client: Pid, srv: Service) -> KResult<()> {
    sys.with_io(|sys, io| {
        let cli = send_request(sys, client, srv.port, HTTP_GET)?;
        let run = mail::httpd_serve_one(sys, srv.pid, srv.listen_fd, io)
            .and_then(|()| read_reply(sys, client, cli, io, 65536))
            .and_then(|()| http_ok(&io.rx));
        let _ = sys.process(client).close(cli);
        run
    })
}

/// ApacheBench (Table 5): `requests` HTTP exchanges with `srv` in batches
/// of `concurrency` open connections — connect and send all, serve all,
/// read all. Returns how many were answered `200 OK`. A request whose
/// connect fails still counts toward `requests`, so the run always ends.
pub fn apache_bench(
    sys: &mut System,
    client: Pid,
    srv: Service,
    requests: u64,
    concurrency: u64,
) -> u64 {
    sys.with_io(|sys, io| {
        let mut clients = Vec::with_capacity(concurrency as usize);
        let (mut issued, mut ok) = (0, 0);
        while issued < requests {
            let batch = concurrency.clamp(1, requests - issued);
            issued += batch;
            for _ in 0..batch {
                clients.extend(send_request(sys, client, srv.port, HTTP_GET).ok());
            }
            for _ in 0..clients.len() {
                let _ = mail::httpd_serve_one(sys, srv.pid, srv.listen_fd, io);
            }
            for cli in clients.drain(..) {
                let reply = read_reply(sys, client, cli, io, 65536).and_then(|()| http_ok(&io.rx));
                ok += reply.is_ok() as u64;
                let _ = sys.process(client).close(cli);
            }
        }
        ok
    })
}

/// One SMTP exchange from `client`: send `MAIL TO:<rcpt>` and `body` to
/// `srv`, let `serve` handle it on the daemon, read the reply into
/// `io.rx`. The client socket is closed on every path.
fn smtp_exchange(
    sys: &mut System,
    client: Pid,
    srv: Service,
    rcpt: &str,
    body: &str,
    io: &mut IoBufs,
    serve: impl FnOnce(&mut System, &mut IoBufs) -> KResult<()>,
) -> KResult<()> {
    io.tx.clear();
    let _ = write!(io.tx, "MAIL TO:<{}>\n{}", rcpt, body);
    let cli = send_request(sys, client, srv.port, &io.tx)?;
    let run = serve(sys, io).and_then(|()| read_reply(sys, client, cli, io, 1024));
    let _ = sys.process(client).close(cli);
    run
}

/// Sends one message to the MTA, which delivers it the daemon's own way
/// (honouring a readable `~/.forward`, §4.4); returns its reply line.
pub fn smtp_send(
    sys: &mut System,
    client: Pid,
    srv: Service,
    rcpt: &str,
    body: &str,
) -> KResult<String> {
    sys.with_io(|sys, io| {
        smtp_exchange(sys, client, srv, rcpt, body, io, |sys, _| {
            mail::exim_serve_one(sys, srv.pid, srv.listen_fd)
        })?;
        Ok(String::from_utf8_lossy(&io.rx).into_owned())
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
        smtp_exchange(sys, client, srv, rcpt, body, io, |sys, io| {
            serve_one_atomic(sys, srv.pid, srv.listen_fd, io)
        })?;
        io.rx.starts_with(b"250").then_some(()).ok_or(Errno::EIO)
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
        let rcpt = mail::recipient(&text)?;
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
    let Spool { image, path, tmp } = spool;
    as_legacy_root(sys, server, |sys| {
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
        result
    })
}

/// The legacy MTA's raise (§4.4): a legacy daemon that dropped its euid
/// after the bind but kept saved uid 0 regains root for `work` and drops
/// back to `mail` after it. Protego's MTA has nothing to regain and runs
/// `work` as it is.
pub(crate) fn as_legacy_root<R>(
    sys: &mut System,
    server: Pid,
    work: impl FnOnce(&mut System) -> KResult<R>,
) -> KResult<R> {
    let raise = sys.mode == SystemMode::Legacy
        && sys
            .kernel
            .task(server)
            .map(|t| t.cred.suid.is_root() && !t.cred.euid.is_root())
            .unwrap_or(false);
    if raise {
        sys.process(server).seteuid(Uid::ROOT)?;
    }
    let result = work(sys);
    if raise {
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
    let _ = as_legacy_root(sys, srv.pid, |sys| {
        for rcpt in ["alice", "bob"] {
            let _ = sys.process(srv.pid).unlink(&format!("/var/mail/{}", rcpt));
        }
        Ok(())
    });
}

/// The kernel-compile stand-in (Table 5): lays out `units` source files,
/// then per unit fork+execs a compiler from `session`, reads the source
/// and writes the object file — the fork/exec/open/read/write mix that
/// dominates a real build — and finally removes the tree. Returns the
/// build's wall time; the layout and the clean-up are not timed.
pub fn compile(sys: &mut System, session: Pid, units: u64) -> KResult<Duration> {
    let src = |i| format!("/tmp/src{}.c", i);
    let obj = |i| format!("/tmp/src{}.o", i);
    let build = (|| {
        for i in 0..units {
            sys.process(session).write_file(
                &src(i),
                b"int main(void) { return 0; }\n",
                Mode(0o644),
            )?;
        }
        let start = Instant::now();
        for i in 0..units {
            sys.run(session, "/bin/sh", &[], &[])?;
            let text = sys.process(session).read_file(&src(i))?;
            sys.process(session)
                .write_file(&obj(i), &text, Mode(0o644))?;
        }
        Ok(start.elapsed())
    })();
    for i in 0..units {
        let _ = sys.process(session).unlink(&src(i));
        let _ = sys.process(session).unlink(&obj(i));
    }
    build
}

/// Escalation artifacts only an exploit (or corrupted kernel) produces;
/// the macro workloads must never create any. Returns human-readable
/// descriptions of everything found, empty when clean — the
/// shared-kernel stress tests assert emptiness after every run. An
/// inspector, not a driver: it reads the kernel directly, so an armed
/// fault injector or seccomp profile can neither fake a finding nor
/// hide one.
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

    #[test]
    fn compile_runs_and_cleans_up() {
        for mode in [SystemMode::Legacy, SystemMode::Protego] {
            let mut sys = boot(mode);
            let session = client_session(&mut sys).expect("client login");
            compile(&mut sys, session, 5).expect("compile");
            let init = sys.init_pid();
            for path in ["/tmp/src0.c", "/tmp/src0.o", "/tmp/src4.c", "/tmp/src4.o"] {
                let left = sys.kernel.sys_stat(init, path).is_ok();
                assert!(!left, "{:?}: {} left behind", mode, path);
            }
        }
    }
}
