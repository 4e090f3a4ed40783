//! Credential-database utilities: `passwd`, `chsh`, `chfn`, `vipw`, and
//! `login` (§4.4).
//!
//! Legacy variants are setuid-to-root because the kernel enforces access
//! only at whole-file granularity on `/etc/passwd` and `/etc/shadow`.
//! Protego fragments the databases into per-account files matching DAC
//! granularity; the same utilities then run without privilege, and the
//! monitoring daemon keeps the legacy files synchronized.

use super::{fail, CatalogItem};
use crate::db::{find_entry, parse_db, render_db, PasswdEntry, ShadowEntry, ID_FIELD, NAME_FIELD};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::cred::Uid;
use sim_kernel::error::Errno;
use sim_kernel::vfs::Mode;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/bin/passwd",
            entry: BinEntry {
                func: passwd_main,
                points: &[
                    "start",
                    "parse_args",
                    "legacy_prompt",
                    "legacy_auth_fail",
                    "legacy_rewrite",
                    "protego_reauth_read",
                    "protego_fragment_write",
                    "root_sets_other",
                    "deny_other",
                    "write_fail",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/chsh",
            entry: BinEntry {
                func: chsh_main,
                points: &[
                    "start",
                    "parse_args",
                    "invalid_shell",
                    "legacy_rewrite",
                    "protego_fragment_write",
                    "write_fail",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/chfn",
            entry: BinEntry {
                func: chfn_main,
                points: &[
                    "start",
                    "parse_args",
                    "legacy_rewrite",
                    "protego_fragment_write",
                    "write_fail",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/sbin/vipw",
            entry: BinEntry {
                func: vipw_main,
                points: &[
                    "start",
                    "not_root",
                    "legacy_edit",
                    "protego_edit",
                    "no_user",
                ],
            },
            setuid: false,
        },
        CatalogItem {
            path: "/bin/login",
            entry: BinEntry {
                func: login_main,
                points: &["start", "auth_ok", "auth_fail", "no_user"],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/bin/sh",
            entry: BinEntry {
                func: sh_main,
                points: &["start"],
            },
            setuid: false,
        },
    ]
}

fn my_entry(p: &mut Proc<'_>) -> Option<PasswdEntry> {
    let uid = p.ruid();
    let text = p.read_to_string("/etc/passwd").ok()?;
    find_entry(&text, ID_FIELD, uid.0, PasswdEntry::parse)
}

/// Atomically replaces a shared database file: write the new content to
/// a temporary sibling, then `rename(2)` over the original — the classic
/// pattern that keeps a crashed rewriter from truncating /etc/passwd.
fn atomic_replace(p: &mut Proc<'_>, path: &str, content: &str, mode: Mode) -> Result<(), Errno> {
    let tmp = format!("{}+", path);
    p.write_file(&tmp, content.as_bytes(), mode)?;
    p.os().rename(&tmp, path)
}

fn rewrite_legacy_passwd(p: &mut Proc<'_>, update: &PasswdEntry) -> Result<(), Errno> {
    let text = p.read_to_string("/etc/passwd")?;
    let mut entries = parse_db(&text, PasswdEntry::parse);
    match entries.iter_mut().find(|e| e.name == update.name) {
        Some(e) => *e = update.clone(),
        None => entries.push(update.clone()),
    }
    let content = render_db(&entries, PasswdEntry::render);
    atomic_replace(p, "/etc/passwd", &content, Mode(0o644))
}

fn rewrite_legacy_shadow(p: &mut Proc<'_>, update: &ShadowEntry) -> Result<(), Errno> {
    let text = p.read_to_string("/etc/shadow")?;
    let mut entries = parse_db(&text, ShadowEntry::parse);
    match entries.iter_mut().find(|e| e.name == update.name) {
        Some(e) => *e = update.clone(),
        None => entries.push(update.clone()),
    }
    let content = render_db(&entries, ShadowEntry::render);
    atomic_replace(p, "/etc/shadow", &content, Mode(0o600))
}

/// `passwd [user] <newpassword>` — own password with the old one as
/// authentication; root may set anyone's.
pub fn passwd_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2006-3378 class).
    p.vuln("parse_args");
    let args = p.args.clone();
    let (target_name, newpw) = match args.len() {
        1 => (None, args[0].clone()),
        2 => (Some(args[0].clone()), args[1].clone()),
        _ => {
            p.println("usage: passwd [user] <newpassword>");
            return 2;
        }
    };

    // Root administering another account: same path on both systems (the
    // administrator is trusted).
    if let Some(name) = &target_name {
        if !p.ruid().is_root() {
            p.cov("deny_other");
            return fail(
                p,
                "passwd",
                "You may not change this password",
                Errno::EPERM,
            );
        }
        p.cov("root_sets_other");
        let entry = ShadowEntry::with_password(name, &newpw);
        let r = if p.sys.mode == SystemMode::Protego {
            let frag = format!("/etc/shadows/{}", name);
            p.write_file(
                &frag,
                format!("{}\n", entry.render()).as_bytes(),
                Mode(0o600),
            )
        } else {
            rewrite_legacy_shadow(p, &entry)
        };
        return match r {
            Ok(()) => {
                p.println(&format!("passwd: password updated for {}", name));
                0
            }
            Err(e) => {
                p.cov("write_fail");
                fail(p, "passwd", name, e)
            }
        };
    }

    let me = match my_entry(p) {
        Some(e) => e,
        None => return fail(p, "passwd", "who are you?", Errno::ENOENT),
    };

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "passwd", "must be setuid root", Errno::EPERM);
        }
        // The setuid binary prompts for and checks the old password
        // itself against the whole shadow file it can read as root.
        p.cov("legacy_prompt");
        let old_ok = {
            let attempt = p.read_tty();
            let shadow = p.read_to_string("/etc/shadow").unwrap_or_default();
            find_entry(&shadow, NAME_FIELD, me.name.as_str(), ShadowEntry::parse)
                .zip(attempt)
                .map(|(e, a)| e.verify(&a))
                .unwrap_or(false)
        };
        if !old_ok {
            p.cov("legacy_auth_fail");
            p.println("passwd: Authentication token manipulation error");
            return 1;
        }
        p.cov("legacy_rewrite");
        let entry = ShadowEntry::with_password(&me.name, &newpw);
        if let Err(e) = rewrite_legacy_shadow(p, &entry) {
            p.cov("write_fail");
            return fail(p, "passwd", "/etc/shadow", e);
        }
    } else {
        // Protego: reading your own shadow fragment triggers the kernel's
        // reauthentication (the old-password prompt, §4.4); the write is
        // then plain owner DAC.
        let frag = format!("/etc/shadows/{}", me.name);
        match p.read_to_string(&frag) {
            Ok(_) => p.cov("protego_reauth_read"),
            Err(e) => return fail(p, "passwd", "authentication failure", e),
        }
        p.cov("protego_fragment_write");
        let entry = ShadowEntry::with_password(&me.name, &newpw);
        if let Err(e) = p.write_file(
            &frag,
            format!("{}\n", entry.render()).as_bytes(),
            Mode(0o600),
        ) {
            p.cov("write_fail");
            return fail(p, "passwd", &frag, e);
        }
    }
    p.println("passwd: password updated successfully");
    0
}

fn change_passwd_field(p: &mut Proc<'_>, prog: &str, apply: impl Fn(&mut PasswdEntry)) -> i32 {
    let me = match my_entry(p) {
        Some(e) => e,
        None => return fail(p, prog, "who are you?", Errno::ENOENT),
    };
    let mut updated = me.clone();
    apply(&mut updated);

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, prog, "must be setuid root", Errno::EPERM);
        }
        p.cov("legacy_rewrite");
        if let Err(e) = rewrite_legacy_passwd(p, &updated) {
            p.cov("write_fail");
            return fail(p, prog, "/etc/passwd", e);
        }
    } else {
        p.cov("protego_fragment_write");
        let frag = format!("/etc/passwds/{}", me.name);
        if let Err(e) = p.write_file(
            &frag,
            format!("{}\n", updated.render()).as_bytes(),
            Mode(0o600),
        ) {
            p.cov("write_fail");
            return fail(p, prog, &frag, e);
        }
    }
    p.println(&format!("{}: information changed", prog));
    0
}

/// `chsh <shell>` — change own login shell, validated against
/// `/etc/shells`.
pub fn chsh_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2005-1335, CVE-2011-0721 class).
    p.vuln("parse_args");
    let shell = match p.args.first() {
        Some(s) => s.clone(),
        None => {
            p.println("usage: chsh <shell>");
            return 2;
        }
    };
    let shells = p.read_to_string("/etc/shells").unwrap_or_default();
    if !shells.lines().any(|l| l.trim() == shell) {
        p.cov("invalid_shell");
        return fail(
            p,
            "chsh",
            &format!("{}: invalid shell", shell),
            Errno::EINVAL,
        );
    }
    change_passwd_field(p, "chsh", move |e| e.shell = shell.clone())
}

/// `chfn <gecos>` — change own GECOS field.
pub fn chfn_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site (CVE-2002-1616 class).
    p.vuln("parse_args");
    let gecos = p.args.join(" ");
    change_passwd_field(p, "chfn", move |e| e.gecos = gecos.clone())
}

/// `vipw <user> <shell>` — administrator edit of the account database.
/// Legacy edits the shared `/etc/passwd`; Protego edits the per-user file
/// (the paper's `+40` lines).
pub fn vipw_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    if !p.euid().is_root() {
        p.cov("not_root");
        return fail(p, "vipw", "permission denied", Errno::EPERM);
    }
    let (user, shell) = match (p.args.first(), p.args.get(1)) {
        (Some(u), Some(s)) => (u.clone(), s.clone()),
        _ => {
            p.println("usage: vipw <user> <shell>");
            return 2;
        }
    };
    let text = p.read_to_string("/etc/passwd").unwrap_or_default();
    let mut entry = match find_entry(&text, NAME_FIELD, user.as_str(), PasswdEntry::parse) {
        Some(e) => e,
        None => {
            p.cov("no_user");
            return fail(p, "vipw", &user, Errno::ENOENT);
        }
    };
    entry.shell = shell;
    if p.sys.mode == SystemMode::Protego {
        p.cov("protego_edit");
        let frag = format!("/etc/passwds/{}", user);
        if let Err(e) = p.write_file(
            &frag,
            format!("{}\n", entry.render()).as_bytes(),
            Mode(0o600),
        ) {
            return fail(p, "vipw", &frag, e);
        }
        // Restore fragment ownership to the account it describes.
        let _ = p.os().chown(
            &frag,
            Some(Uid(entry.uid)),
            Some(sim_kernel::cred::Gid(entry.gid)),
        );
    } else {
        p.cov("legacy_edit");
        if let Err(e) = rewrite_legacy_passwd(p, &entry) {
            return fail(p, "vipw", "/etc/passwd", e);
        }
    }
    p.println(&format!("vipw: updated {}", user));
    0
}

/// `login <user>` — verifies the password from the terminal and becomes
/// the user (the getty path; runs as root on both systems).
pub fn login_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let user = match p.args.first() {
        Some(u) => u.clone(),
        None => {
            p.println("usage: login <user>");
            return 2;
        }
    };
    let text = p.read_to_string("/etc/passwd").unwrap_or_default();
    let entry = match find_entry(&text, NAME_FIELD, user.as_str(), PasswdEntry::parse) {
        Some(e) => e,
        None => {
            p.cov("no_user");
            return fail(p, "login", &user, Errno::ENOENT);
        }
    };
    let ok = {
        let attempt = p.read_tty();
        let shadow = p.read_to_string("/etc/shadow").unwrap_or_default();
        find_entry(&shadow, NAME_FIELD, user.as_str(), ShadowEntry::parse)
            .zip(attempt)
            .map(|(e, a)| e.verify(&a))
            .unwrap_or(false)
    };
    if !ok {
        p.cov("auth_fail");
        p.println("Login incorrect");
        return 1;
    }
    p.cov("auth_ok");
    let _ = p.sys.kernel.mark_authenticated(p.pid);
    if let Err(e) = p.os().setuid(Uid(entry.uid)) {
        return fail(p, "login", "setuid", e);
    }
    p.println(&format!("login: welcome {}", user));
    p.exec(&entry.shell, &[])
}

/// `/bin/sh` — a stub shell (prints its identity and exits).
pub fn sh_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let (r, e) = (p.ruid().0, p.euid().0);
    p.println(&format!("sh: uid={} euid={}", r, e));
    0
}
