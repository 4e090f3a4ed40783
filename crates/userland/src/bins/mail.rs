//! Network services: the `exim4` mail server and an `httpd` web server
//! (§4.1.3 and the ApacheBench/Postal workloads of Table 5).
//!
//! Both need a port below 1024. On stock Linux they start as root (or
//! setuid) to bind and then drop privilege; under Protego they start as
//! their service users and `/etc/bind` allocates the port to the
//! (binary, uid) application instance.

use super::{fail, CatalogItem};
use crate::system::{BinEntry, IoBufs, Proc, System, SystemMode};
use sim_kernel::cred::Uid;
use sim_kernel::error::{Errno, KResult};
use sim_kernel::net::{Domain, Ipv4, SockType};
use sim_kernel::task::Pid;
use std::io::Write;

/// The uid the mail service runs under (`mail`).
pub const MAIL_UID: u32 = 8;
/// The uid the web service runs under (`www-data`).
pub const WWW_UID: u32 = 33;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/sbin/exim4",
            entry: BinEntry {
                func: exim_main,
                points: &[
                    "start",
                    "parse_args",
                    "bind_ok",
                    "bind_fail",
                    "drop_priv",
                    "deliver",
                    "forward_used",
                    "forward_unreadable",
                    "deliver_fail",
                ],
            },
            // Historically exim/sendmail ship setuid root.
            setuid: true,
        },
        CatalogItem {
            path: "/usr/sbin/httpd",
            entry: BinEntry {
                func: httpd_main,
                points: &["start", "bind_ok", "bind_fail", "drop_priv"],
            },
            setuid: false,
        },
        // A compromised/rogue service used to demonstrate port
        // exclusivity: it tries to take port 25 while being the web
        // server binary.
        CatalogItem {
            path: "/usr/sbin/rogue-mta",
            entry: BinEntry {
                func: rogue_main,
                points: &["start", "bind_ok", "bind_fail"],
            },
            setuid: false,
        },
    ]
}

fn bind_service(p: &mut Proc<'_>, prog: &str, port: u16, drop_to: u32) -> Result<i32, i32> {
    let fd = match p.os().socket(Domain::Inet, SockType::Stream, 0) {
        Ok(fd) => fd,
        Err(e) => return Err(fail(p, prog, "socket", e)),
    };
    match p.os().bind(fd, Ipv4::ANY, port) {
        Ok(()) => p.cov("bind_ok"),
        Err(e) => {
            p.cov("bind_fail");
            return Err(fail(p, prog, &format!("bind {}", port), e));
        }
    }
    if let Err(e) = p.os().listen(fd) {
        return Err(fail(p, prog, "listen", e));
    }
    // Legacy etiquette: drop the *effective* uid after the privileged
    // bind, keeping the saved uid 0 — classic MTAs regain root per
    // delivery (to read `.forward` across DAC, §4.4). That retained
    // privilege is exactly the risk Protego removes.
    if p.sys.mode == SystemMode::Legacy && p.euid().is_root() {
        p.cov("drop_priv");
        let _ = p.os().seteuid(Uid(drop_to));
    }
    p.println(&format!("{}: listening on port {} (fd {})", prog, port, fd));
    Ok(fd)
}

/// The port a `--daemon [--port N]` command line asks for: `N`, else
/// `default`; `None` for any other command line.
fn daemon_port(args: &[String], default: u16) -> Option<u16> {
    match args {
        [d] if d == "--daemon" => Some(default),
        [d, p, n] if d == "--daemon" && p == "--port" => n.parse().ok(),
        _ => None,
    }
}

/// `exim4 --daemon [--port N]` — binds port 25 (or `N`) and leaves the
/// listening socket open; the event loop is driven by [`exim_serve_one`].
pub fn exim_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: the MTA's setuid entry path
    // (CVE-2010-2023/2024, and sendmail's CVE-1999-0130/0203 class).
    p.vuln("parse_args");
    let Some(port) = daemon_port(&p.args, 25) else {
        p.println("usage: exim4 --daemon [--port N]");
        return 2;
    };
    match bind_service(p, "exim4", port, MAIL_UID) {
        Ok(_) => 0,
        Err(code) => code,
    }
}

/// `httpd --daemon [--port N]` — binds port 80 (or `N`).
pub fn httpd_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let Some(port) = daemon_port(&p.args, 80) else {
        p.println("usage: httpd --daemon [--port N]");
        return 2;
    };
    match bind_service(p, "httpd", port, WWW_UID) {
        Ok(_) => 0,
        Err(code) => code,
    }
}

/// A malicious service that, having been given port 80's identity, also
/// tries to become the mail server (§4.1.3's threat).
pub fn rogue_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let fd = match p.os().socket(Domain::Inet, SockType::Stream, 0) {
        Ok(fd) => fd,
        Err(e) => return fail(p, "rogue-mta", "socket", e),
    };
    match p.os().bind(fd, Ipv4::ANY, 25) {
        Ok(()) => {
            p.cov("bind_ok");
            p.println("rogue-mta: captured port 25!");
            0
        }
        Err(e) => {
            p.cov("bind_fail");
            fail(p, "rogue-mta", "bind 25", e)
        }
    }
}

// ---------------------------------------------------------------------
// Service event loops (driven by tests, benches, and examples)
// ---------------------------------------------------------------------

/// Handles one SMTP connection on the exim daemon task: accepts, reads
/// `MAIL TO:<user>\n<body>`, delivers, replies `250 OK` (or `451` when
/// delivery fails). The connection is closed on every path.
pub fn exim_serve_one(sys: &mut System, server: Pid, listen_fd: i32) -> KResult<()> {
    let conn = sys.process(server).accept(listen_fd)?;
    let run = (|| {
        let req = sys.process(server).recv(conn, 65536)?;
        let reply: &[u8] = match deliver(sys, server, &String::from_utf8_lossy(&req)) {
            Ok(()) => b"250 OK\r\n",
            Err(_) => b"451 delivery failed\r\n",
        };
        sys.process(server).send(conn, reply).map(drop)
    })();
    let closed = sys.process(server).close(conn);
    run.and(closed)
}

/// Mail delivery (the §4.4 `.forward` case): consult the recipient's
/// `~/.forward` if readable; on Protego the unprivileged MDA may not read
/// it, in which case a diagnostic goes to the log and delivery proceeds
/// to the spool.
fn deliver(sys: &mut System, server: Pid, text: &str) -> KResult<()> {
    let rcpt = recipient(text)?;
    let body: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
    sys.coverage.hit("/usr/sbin/exim4", "deliver");
    crate::workload::as_legacy_root(sys, server, |sys| {
        let forward_path = format!("/home/{}/.forward", rcpt);
        let spool = format!("/var/mail/{}", rcpt);
        let target = match sys.process(server).read_to_string(&forward_path) {
            Ok(fwd) => {
                sys.coverage.hit("/usr/sbin/exim4", "forward_used");
                match fwd.trim() {
                    "" => spool,
                    t => t.to_string(),
                }
            }
            Err(Errno::EACCES) => {
                // Protego's answer: a clear warning in the log instead of
                // a root-powered DAC bypass (§4.4).
                sys.coverage.hit("/usr/sbin/exim4", "forward_unreadable");
                let warn = format!(
                    "warning: cannot read {} (permission denied); delivering to spool\n",
                    forward_path
                );
                let _ = sys
                    .kernel
                    .append_file(server, "/var/log/exim4/mainlog", warn.as_bytes());
                spool
            }
            Err(_) => spool,
        };
        let line = format!("From MTA: to {}\n{}\n\n", rcpt, body);
        let result = sys.process(server).append_file(&target, line.as_bytes());
        if result.is_err() {
            sys.coverage.hit("/usr/sbin/exim4", "deliver_fail");
        }
        result
    })
}

/// The recipient an SMTP request's `MAIL TO:<user>` first line names.
pub(crate) fn recipient(request: &str) -> KResult<&str> {
    request
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("MAIL TO:<"))
        .and_then(|l| l.strip_suffix('>'))
        .ok_or(Errno::EINVAL)
}

/// The page served when the docroot is missing or unreadable.
pub const HTTPD_FALLBACK_PAGE: &str = "<html><body>It works!</body></html>";

/// The docroot file `httpd` serves.
pub const HTTPD_DOCROOT_INDEX: &str = "/var/www/index.html";

/// Handles one HTTP connection on the httpd task: accepts, reads the
/// request, and serves the docroot index — a stat + open + read + close
/// per request, the per-request syscall mix ApacheBench measures —
/// falling back to a fixed page if the docroot is absent or not UTF-8.
/// Fills and sends from lent buffers; the connection is closed on every
/// path.
pub(crate) fn httpd_serve_one(
    sys: &mut System,
    server: Pid,
    listen_fd: i32,
    io: &mut IoBufs,
) -> KResult<()> {
    let mut p = sys.process(server);
    let conn = p.accept(listen_fd)?;
    let run = (|| {
        io.rx.clear();
        p.recv_into(conn, &mut io.rx, 65536)?;
        io.file.clear();
        let page = match p.stat(HTTPD_DOCROOT_INDEX) {
            Ok(_) => match p.read_file_into(HTTPD_DOCROOT_INDEX, &mut io.file) {
                Ok(_) if std::str::from_utf8(&io.file).is_ok() => &io.file[..],
                _ => HTTPD_FALLBACK_PAGE.as_bytes(),
            },
            Err(_) => HTTPD_FALLBACK_PAGE.as_bytes(),
        };
        io.tx.clear();
        let _ = write!(
            io.tx,
            "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n",
            page.len()
        );
        io.tx.extend_from_slice(page);
        p.send(conn, &io.tx).map(drop)
    })();
    let closed = p.close(conn);
    run.and(closed)
}
