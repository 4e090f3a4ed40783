//! Delegation utilities: `sudo`, `su`, `sudoedit`, and the harmless
//! delegation targets `lpr`, `editor`, and `id` (§4.3).
//!
//! The legacy `sudo` is the canonical violation of least privilege: it
//! starts with *all* of root (via the setuid bit), and only then checks
//! `/etc/sudoers`, the 5-minute timestamp, and the password. The Protego
//! variant starts with nothing and asks the kernel, which grants exactly
//! the configured transition — for command-restricted rules, only at
//! `exec` of a permitted binary.

use super::{fail, CatalogItem};
use crate::db::{find_entry, parse_db, PasswdEntry, ShadowEntry, NAME_FIELD};
use crate::system::{BinEntry, Proc, SystemMode};
use protego_core::policy::{AuthReq, CmdSpec, Principal, Target};
use protego_core::sudoers::{parse_sudoers, MapResolver};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::vfs::Mode;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/bin/sudo",
            entry: BinEntry {
                func: sudo_main,
                points: &[
                    "start",
                    "parse_env",
                    "legacy_rule_hit",
                    "legacy_rule_miss",
                    "legacy_ticket_fresh",
                    "legacy_prompt",
                    "legacy_auth_fail",
                    "legacy_cmd_denied",
                    "setuid_ok",
                    "setuid_fail",
                    "exec",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/bin/su",
            entry: BinEntry {
                func: su_main,
                points: &[
                    "start",
                    "parse_args",
                    "legacy_prompt",
                    "legacy_auth_fail",
                    "setuid_ok",
                    "setuid_fail",
                    "shell",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/sudoedit",
            entry: BinEntry {
                func: sudoedit_main,
                points: &["start", "parse_args", "edit_ok", "edit_fail"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/editor",
            entry: BinEntry {
                func: editor_main,
                points: &["start", "write_ok", "write_fail"],
            },
            setuid: false,
        },
        CatalogItem {
            path: "/usr/bin/lpr",
            entry: BinEntry {
                func: lpr_main,
                points: &["start", "queued", "queue_fail"],
            },
            setuid: false,
        },
        CatalogItem {
            path: "/bin/id",
            entry: BinEntry {
                func: id_main,
                points: &["start"],
            },
            setuid: false,
        },
    ]
}

/// Looks a user up by name in `/etc/passwd`.
pub fn lookup_user(p: &mut Proc<'_>, name: &str) -> Option<PasswdEntry> {
    let text = p.read_to_string("/etc/passwd").ok()?;
    find_entry(&text, NAME_FIELD, name, PasswdEntry::parse)
}

fn resolver(p: &mut Proc<'_>) -> MapResolver {
    let mut r = MapResolver::default();
    if let Ok(text) = p.read_to_string("/etc/passwd") {
        for e in parse_db(&text, PasswdEntry::parse) {
            r.users.push((e.name, e.uid));
        }
    }
    if let Ok(text) = p.read_to_string("/etc/group") {
        for e in parse_db(&text, crate::db::GroupEntry::parse) {
            r.groups.push((e.name, e.gid));
        }
    }
    r
}

fn verify_password(p: &mut Proc<'_>, name: &str) -> bool {
    let attempt = match p.read_tty() {
        Some(a) => a,
        None => return false,
    };
    let shadow = match p.read_to_string("/etc/shadow") {
        Ok(s) => s,
        Err(_) => return false,
    };
    find_entry(&shadow, NAME_FIELD, name, ShadowEntry::parse).is_some_and(|e| e.verify(&attempt))
}

/// Strips dangerous environment variables, keeping only a safe base plus
/// the explicitly kept names — legacy sudo's userspace sanitization.
fn sanitize_env(p: &mut Proc<'_>, keep: &[String]) {
    if let Ok(mut t) = p.sys.kernel.task_mut(p.pid) {
        t.clear_env_except(keep);
    }
}

/// `sudo [-u user] <command> [args...]`.
pub fn sudo_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: environment handling before sanitization
    // (CVE-2002-0184, CVE-2009-0034 class).
    p.vuln("parse_env");

    // The arguments move into the command's exec.
    let mut args = std::mem::take(&mut p.args);
    let mut target_name = "root".to_string();
    if args.first().map(String::as_str) == Some("-u") {
        if args.len() < 2 {
            p.println("usage: sudo [-u user] command [args...]");
            return 2;
        }
        target_name = args.drain(..2).nth(1).unwrap_or_default();
    }
    if args.is_empty() {
        p.println("usage: sudo [-u user] command [args...]");
        return 2;
    }
    let cmd = args.remove(0);
    let target = match lookup_user(p, &target_name) {
        Some(u) => u,
        None => {
            return fail(
                p,
                "sudo",
                &format!("unknown user: {}", target_name),
                Errno::EINVAL,
            )
        }
    };
    let invoker = p.ruid();

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "sudo", "must be setuid root", Errno::EPERM);
        }
        // --- All policy lives here, inside the trusted binary. ---
        let res = resolver(p);
        let invoker_name = res
            .users
            .iter()
            .find(|(_, u)| *u == invoker.0)
            .map(|(n, _)| n.clone());
        let sudoers = p.read_to_string("/etc/sudoers").unwrap_or_default();
        let (rules, _) = parse_sudoers(&sudoers, &res);
        let groups: Vec<u32> = p
            .sys
            .kernel
            .task(p.pid)
            .map(|t| t.cred.groups.iter().map(|g| g.0).collect())
            .unwrap_or_default();
        let rule = rules.iter().find(|r| {
            let from_ok = match r.from {
                Principal::Any => true,
                Principal::Uid(u) => u == invoker.0,
                Principal::Gid(g) => groups.contains(&g),
            };
            let target_ok = match r.target {
                Target::Any => true,
                Target::Uid(u) => u == target.uid,
            };
            from_ok && target_ok
        });
        let rule = match rule {
            Some(r) => r.clone(),
            None => {
                p.cov("legacy_rule_miss");
                p.println(&format!(
                    "sudo: {} is not in the sudoers file. This incident will be reported.",
                    invoker_name.unwrap_or_else(|| invoker.0.to_string())
                ));
                return 1;
            }
        };
        p.cov("legacy_rule_hit");
        if rule.cmd != CmdSpec::Any {
            let allowed = match &rule.cmd {
                CmdSpec::List(l) => l.iter().any(|c| c == &cmd),
                CmdSpec::Any => true,
            };
            if !allowed {
                p.cov("legacy_cmd_denied");
                p.println(&format!("sudo: user not allowed to run {}", cmd));
                return 1;
            }
        }
        if rule.auth == AuthReq::Invoker {
            // The 5-minute timestamp ticket, in userspace.
            let name = invoker_name.unwrap_or_default();
            let ticket = format!("/var/lib/sudo/{}", name);
            let now = p.sys.kernel.clock();
            let fresh = p
                .read_to_string(&ticket)
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .map(|t| now.saturating_sub(t) <= 300)
                .unwrap_or(false);
            if fresh {
                p.cov("legacy_ticket_fresh");
            } else {
                p.cov("legacy_prompt");
                if !verify_password(p, &name) {
                    p.cov("legacy_auth_fail");
                    p.println("sudo: 1 incorrect password attempt");
                    return 1;
                }
                let _ = p.write_file(&ticket, now.to_string().as_bytes(), Mode(0o600));
            }
        }
        sanitize_env(p, &rule.keep_env);
        // Only now does the (already root) process pin its uids.
        if let Err(e) = p.os().setuid(Uid(target.uid)) {
            p.cov("setuid_fail");
            return fail(p, "sudo", "setuid", e);
        }
        p.cov("setuid_ok");
    } else {
        // --- Protego: one system call; the kernel runs the policy. ---
        match p.os().setuid(Uid(target.uid)) {
            Ok(()) => p.cov("setuid_ok"),
            Err(e) => {
                p.cov("setuid_fail");
                p.println(&format!("sudo: {} (kernel policy)", e));
                return 1;
            }
        }
    }

    p.cov("exec");
    p.sys.exec_into(p.pid, &cmd, args, p.out)
}

/// `su [user] [-c command args...]` — become another user by proving
/// *their* password.
pub fn su_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2000-0996, CVE-2002-0816 class).
    p.vuln("parse_args");
    let mut args = p.args.clone();
    let target_name = if !args.is_empty() && args[0] != "-c" {
        args.remove(0)
    } else {
        "root".to_string()
    };
    let cmd = if args.first().map(String::as_str) == Some("-c") {
        args.drain(..1);
        args.clone()
    } else {
        Vec::new()
    };
    let target = match lookup_user(p, &target_name) {
        Some(u) => u,
        None => {
            return fail(
                p,
                "su",
                &format!("unknown user {}", target_name),
                Errno::EINVAL,
            )
        }
    };

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "su", "must be setuid root", Errno::EPERM);
        }
        p.cov("legacy_prompt");
        if !verify_password(p, &target_name) {
            p.cov("legacy_auth_fail");
            p.println("su: Authentication failure");
            return 1;
        }
        if let Err(e) = p.os().setuid(Uid(target.uid)) {
            p.cov("setuid_fail");
            return fail(p, "su", "setuid", e);
        }
    } else {
        match p.os().setuid(Uid(target.uid)) {
            Ok(()) => {}
            Err(e) => {
                p.cov("setuid_fail");
                p.println(&format!("su: Authentication failure ({})", e));
                return 1;
            }
        }
    }
    p.cov("setuid_ok");
    sanitize_env(p, &[]);
    if cmd.is_empty() {
        p.cov("shell");
        let (r, e) = (p.ruid().0, p.euid().0);
        p.println(&format!("su: uid={} euid={}", r, e));
        0
    } else {
        let argv: Vec<&str> = cmd[1..].iter().map(String::as_str).collect();
        p.exec(&cmd[0], &argv)
    }
}

/// `sudoedit <file>` — edit a file with root privilege, restricted to the
/// editor binary.
pub fn sudoedit_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2004-1689 class).
    p.vuln("parse_args");
    let file = match p.args.first() {
        Some(f) => f.clone(),
        None => {
            p.println("usage: sudoedit <file>");
            return 2;
        }
    };
    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "sudoedit", "must be setuid root", Errno::EPERM);
        }
        // Legacy sudoedit consults sudoers like sudo; abbreviated here to
        // the admin-group check.
        let in_admin = p
            .sys
            .kernel
            .task(p.pid)
            .map(|t| t.cred.in_group(Gid(27)))
            .unwrap_or(false);
        if !p.ruid().is_root() && !in_admin {
            return fail(p, "sudoedit", "not permitted", Errno::EPERM);
        }
        let root = Uid::ROOT;
        if let Err(e) = p.os().setuid(root) {
            return fail(p, "sudoedit", "setuid", e);
        }
    } else if let Err(e) = p.os().setuid(Uid::ROOT) {
        p.cov("edit_fail");
        return fail(p, "sudoedit", "kernel policy", e);
    }
    let code = p.exec("/usr/bin/editor", &[&file]);
    if code == 0 {
        p.cov("edit_ok");
    } else {
        p.cov("edit_fail");
    }
    code
}

/// `editor <file>` — appends an audit line (our stand-in for editing).
pub fn editor_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let file = match p.args.first() {
        Some(f) => f.clone(),
        None => {
            p.println("usage: editor <file>");
            return 2;
        }
    };
    let line = format!("# edited by uid {}\n", p.euid().0);
    match p.append_file(&file, line.as_bytes()) {
        Ok(()) => {
            p.cov("write_ok");
            p.println(&format!("edited {}", file));
            0
        }
        Err(e) => {
            p.cov("write_fail");
            fail(p, "editor", &file, e)
        }
    }
}

/// `lpr <text>` — queues a print job under the *effective* user's
/// credentials (the delegation target of the Alice/Bob example).
pub fn lpr_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let text = p.args.join(" ");
    let line = format!("job uid={}: {}\n", p.euid().0, text);
    match p.append_file("/var/spool/lpd/queue", line.as_bytes()) {
        Ok(()) => {
            p.cov("queued");
            p.println("lpr: job queued");
            0
        }
        Err(e) => {
            p.cov("queue_fail");
            fail(p, "lpr", "queue", e)
        }
    }
}

/// `id` — prints real/effective ids and groups.
pub fn id_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Copy the line out before printing: the task guard must not be held
    // across p.println, which borrows the process (and kernel) mutably.
    let line = {
        let t = match p.sys.kernel.task(p.pid) {
            Ok(t) => t,
            Err(e) => return e.as_errno_i32(),
        };
        let groups: Vec<String> = t.cred.groups.iter().map(|g| g.0.to_string()).collect();
        format!(
            "uid={} euid={} gid={} egid={} groups={}",
            t.cred.ruid.0,
            t.cred.euid.0,
            t.cred.rgid.0,
            t.cred.egid.0,
            groups.join(",")
        )
    };
    p.println(&line);
    0
}
