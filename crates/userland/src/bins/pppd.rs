//! `pppd` — the point-to-point protocol daemon (§4.1.2).
//!
//! Requires privilege on stock Linux for two tasks: configuring the modem
//! line and adding routes for the PPP link. The legacy binary is setuid
//! root so it can be launched on demand; under Protego the kernel admits
//! safe modem options on an unused line and route additions that do not
//! conflict with existing routes.

use super::{fail, CatalogItem};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::cred::Uid;
use sim_kernel::dev::ModemOpt;
use sim_kernel::error::Errno;
use sim_kernel::net::{Ipv4, Route};
use sim_kernel::syscall::{IoctlCmd, OpenFlags, RouteOp};

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![CatalogItem {
        path: "/usr/sbin/pppd",
        entry: BinEntry {
            func: pppd_main,
            points: &[
                "start",
                "parse_options",
                "line_busy",
                "modem_configured",
                "modem_denied",
                "route_added",
                "route_conflict",
                "route_denied",
                "up",
            ],
        },
        setuid: true,
    }]
}

/// `pppd <remote-network> <prefix>` — brings up a PPP link: claims the
/// line, sets safe options, and routes the remote network over ppp0.
pub fn pppd_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: option-file parsing (CVE-2004-1002 class).
    p.vuln("parse_options");

    let (dest, prefix) = match (
        p.args.first().and_then(|a| Ipv4::parse(a)),
        p.args.get(1).and_then(|a| a.parse::<u8>().ok()),
    ) {
        (Some(d), Some(pr)) => (d, pr),
        _ => {
            p.println("usage: pppd <remote-network> <prefix>");
            return 2;
        }
    };

    if p.sys.mode == SystemMode::Legacy && !p.euid().is_root() {
        return fail(p, "pppd", "must be setuid root", Errno::EPERM);
    }

    let fd = match p.open("/dev/ttyS0", OpenFlags::read_write()) {
        Ok(fd) => fd,
        Err(e) => return fail(p, "pppd", "/dev/ttyS0", e),
    };
    if let Err(e) = p.os().ioctl(fd, IoctlCmd::ModemClaim) {
        p.cov("line_busy");
        return fail(p, "pppd", "line busy", e);
    }

    // Safe session options: baud rate and VJ compression.
    for opt in [ModemOpt::Baud(115_200), ModemOpt::Compression(true)] {
        if let Err(e) = p.os().ioctl(fd, IoctlCmd::Modem(opt)) {
            p.cov("modem_denied");
            let _ = p.os().ioctl(fd, IoctlCmd::ModemRelease);
            return fail(p, "pppd", "modem configuration", e);
        }
    }
    p.cov("modem_configured");

    // Route the remote network over the link.
    let route = Route {
        dest,
        prefix,
        gateway: None,
        dev: "ppp0".into(),
        created_by: p.ruid(),
    };
    match p.os().ioctl_route(RouteOp::Add(route)) {
        Ok(()) => p.cov("route_added"),
        Err(Errno::EEXIST) => {
            // A duplicate route: the link still comes up as a plain tty
            // to the remote point (Table 4's fallback), without touching
            // routing state.
            p.cov("route_conflict");
            p.println("pppd: route exists; link restricted to tty access");
            p.cov("up");
            p.println("pppd: link up on /dev/ttyS0 (no route)");
            return 0;
        }
        Err(e) => {
            p.cov("route_denied");
            let _ = p.os().ioctl(fd, IoctlCmd::ModemRelease);
            return fail(p, "pppd", "route", e);
        }
    }

    // The legacy daemon would now drop privilege for the session loop.
    if p.sys.mode == SystemMode::Legacy && p.euid().is_root() && !p.ruid().is_root() {
        let ruid = p.ruid();
        let _ = p.os().setuid(ruid);
    }

    p.cov("up");
    p.println(&format!("pppd: link up, {}/{} via ppp0", dest, prefix));
    0
}

/// The uid pppd runs under after dropping privilege in legacy mode — kept
/// for symmetry with the paper's description of privilege bracketing.
pub const PPPD_RUN_UID: Uid = Uid(0);
