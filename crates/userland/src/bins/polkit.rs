//! PolicyKit-style helpers: `pkexec` and `dbus-daemon-launch-helper`
//! (§4.3, Table 4's setuid/setgid row).
//!
//! `pkexec` runs a command as root for members of the admin group after
//! authentication — functionally a sudo sibling, and historically another
//! setuid-root attack surface (CVE-2011-1485 etc.). The D-Bus launch
//! helper is setuid root solely to start system services under their
//! service accounts; Protego encodes both as delegation rules.

use super::{fail, CatalogItem};
use crate::db::{find_entry, PasswdEntry, ShadowEntry, ID_FIELD, NAME_FIELD};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::Errno;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/bin/pkexec",
            entry: BinEntry {
                func: pkexec_main,
                points: &[
                    "parse_args",
                    "not_authorized",
                    "auth_fail",
                    "setuid_ok",
                    "setuid_fail",
                    "exec",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/lib/dbus-daemon-launch-helper",
            entry: BinEntry {
                func: dbus_helper_main,
                points: &[
                    "parse_args",
                    "unknown_service",
                    "setuid_ok",
                    "setuid_fail",
                    "launch",
                ],
            },
            setuid: true,
        },
    ]
}

/// `pkexec <command> [args...]`.
pub fn pkexec_main(p: &mut Proc<'_>) -> i32 {
    p.vuln("parse_args");
    let (cmd, rest) = match p.args.split_first() {
        Some((c, r)) => (c.clone(), r.to_vec()),
        None => {
            p.println("usage: pkexec <command> [args...]");
            return 2;
        }
    };
    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "pkexec", "must be setuid root", Errno::EPERM);
        }
        // polkit's "unix-group:admin" style authorization + invoker
        // password, all inside the trusted binary.
        let in_admin = p
            .sys
            .kernel
            .task(p.pid)
            .map(|t| t.cred.in_group(Gid(27)))
            .unwrap_or(false);
        if !p.ruid().is_root() && !in_admin {
            p.cov("not_authorized");
            p.println("pkexec: Not authorized");
            return 1;
        }
        if !p.ruid().is_root() {
            let uid = p.ruid();
            let name = {
                let passwd = p.read_to_string("/etc/passwd").unwrap_or_default();
                find_entry(&passwd, ID_FIELD, uid.0, PasswdEntry::parse)
                    .map(|e| e.name)
                    .unwrap_or_default()
            };
            let ok = {
                let attempt = p.read_tty();
                let shadow = p.read_to_string("/etc/shadow").unwrap_or_default();
                find_entry(&shadow, NAME_FIELD, name.as_str(), ShadowEntry::parse)
                    .zip(attempt)
                    .map(|(e, a)| e.verify(&a))
                    .unwrap_or(false)
            };
            if !ok {
                p.cov("auth_fail");
                p.println("pkexec: Authentication failure");
                return 1;
            }
        }
        if let Err(e) = p.os().setuid(Uid::ROOT) {
            p.cov("setuid_fail");
            return fail(p, "pkexec", "setuid", e);
        }
    } else {
        match p.os().setuid(Uid::ROOT) {
            Ok(()) => {}
            Err(e) => {
                p.cov("setuid_fail");
                p.println(&format!("pkexec: Not authorized ({})", e));
                return 1;
            }
        }
    }
    p.cov("setuid_ok");
    p.cov("exec");
    let argv: Vec<&str> = rest.iter().map(String::as_str).collect();
    p.exec(&cmd, &argv)
}

/// Known D-Bus-activated services: name → (binary, service uid).
const SERVICES: &[(&str, &str, u32)] = &[("mta", "/usr/sbin/exim4", 8)];

/// `dbus-daemon-launch-helper <service>` — starts a whitelisted service
/// under its service account.
pub fn dbus_helper_main(p: &mut Proc<'_>) -> i32 {
    p.vuln("parse_args");
    let service = match p.args.first() {
        Some(s) => s.clone(),
        None => {
            p.println("usage: dbus-daemon-launch-helper <service>");
            return 2;
        }
    };
    let (_, binary, uid) = match SERVICES.iter().find(|(n, _, _)| *n == service) {
        Some(s) => *s,
        None => {
            p.cov("unknown_service");
            return fail(p, "dbus-daemon-launch-helper", &service, Errno::ENOENT);
        }
    };
    if p.sys.mode == SystemMode::Legacy && !p.euid().is_root() {
        return fail(
            p,
            "dbus-daemon-launch-helper",
            "must be setuid root",
            Errno::EPERM,
        );
    }
    match p.os().setuid(Uid(uid)) {
        Ok(()) => p.cov("setuid_ok"),
        Err(e) => {
            p.cov("setuid_fail");
            return fail(p, "dbus-daemon-launch-helper", "setuid", e);
        }
    }
    p.cov("launch");
    p.exec(binary, &["--daemon"])
}
