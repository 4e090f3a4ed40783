//! Group utilities: `newgrp` and `gpasswd` (§4.3).
//!
//! `newgrp` exports password-protected groups: a member may switch freely;
//! a non-member may join by proving the group password. Legacy `newgrp`
//! is setuid-root and does the checking itself; under Protego the `setgid`
//! hook enforces the same policy with kernel-launched authentication.

use super::{fail, CatalogItem};
use crate::db::{
    find_entry, parse_db, GroupEntry, GshadowEntry, PasswdEntry, ID_FIELD, NAME_FIELD,
};
use crate::system::{BinEntry, Proc, SystemMode};
use sim_kernel::cred::Gid;
use sim_kernel::error::Errno;
use sim_kernel::lsm::sim_crypt;
use sim_kernel::vfs::Mode;

/// Catalog entries for this module.
pub fn catalog() -> Vec<CatalogItem> {
    vec![
        CatalogItem {
            path: "/usr/bin/newgrp",
            entry: BinEntry {
                func: newgrp_main,
                points: &[
                    "start",
                    "parse_args",
                    "legacy_member",
                    "legacy_prompt",
                    "legacy_auth_fail",
                    "setgid_ok",
                    "setgid_fail",
                ],
            },
            setuid: true,
        },
        CatalogItem {
            path: "/usr/bin/gpasswd",
            entry: BinEntry {
                func: gpasswd_main,
                points: &["start", "set_ok", "remove_ok", "write_fail", "not_admin"],
            },
            setuid: true,
        },
    ]
}

/// Looks up a group by name.
pub fn lookup_group(p: &mut Proc<'_>, name: &str) -> Option<GroupEntry> {
    let text = p.read_to_string("/etc/group").ok()?;
    find_entry(&text, NAME_FIELD, name, GroupEntry::parse)
}

fn my_name(p: &mut Proc<'_>) -> Option<String> {
    let uid = p.ruid();
    let text = p.read_to_string("/etc/passwd").ok()?;
    find_entry(&text, ID_FIELD, uid.0, PasswdEntry::parse).map(|e| e.name)
}

/// `newgrp <group>`.
pub fn newgrp_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    // Historical exploit site: newgrp has six privilege-escalation CVEs
    // (CVE-1999-0050 through CVE-2005-0816).
    p.vuln("parse_args");
    let gname = match p.args.first() {
        Some(g) => g.clone(),
        None => {
            p.println("usage: newgrp <group>");
            return 2;
        }
    };
    let group = match lookup_group(p, &gname) {
        Some(g) => g,
        None => return fail(p, "newgrp", &format!("group {}", gname), Errno::ENOENT),
    };

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "newgrp", "must be setuid root", Errno::EPERM);
        }
        let me = my_name(p).unwrap_or_default();
        let is_member = group.members.iter().any(|m| m == &me);
        if is_member {
            p.cov("legacy_member");
        } else {
            // Non-member: the setuid binary prompts for the group
            // password from /etc/gshadow.
            p.cov("legacy_prompt");
            let gshadow = p.read_to_string("/etc/gshadow").unwrap_or_default();
            let entry = find_entry(&gshadow, NAME_FIELD, gname.as_str(), GshadowEntry::parse);
            let ok = match (entry, p.read_tty()) {
                (Some(e), Some(attempt)) if e.password_protected() => e.verify(&attempt),
                _ => false,
            };
            if !ok {
                p.cov("legacy_auth_fail");
                p.println("newgrp: Invalid password");
                return 1;
            }
        }
        // Drop root before announcing the new group.
        let ruid = p.ruid();
        let gid = Gid(group.gid);
        if let Err(e) = p.os().setgid(gid) {
            p.cov("setgid_fail");
            return fail(p, "newgrp", "setgid", e);
        }
        let _ = p.os().setuid(ruid);
    } else {
        match p.os().setgid(Gid(group.gid)) {
            Ok(()) => {}
            Err(e) => {
                p.cov("setgid_fail");
                p.println(&format!("newgrp: Invalid password ({})", e));
                return 1;
            }
        }
    }
    p.cov("setgid_ok");
    let egid = p.sys.kernel.task(p.pid).map(|t| t.cred.egid.0).unwrap_or(0);
    p.println(&format!("newgrp: now gid={}", egid));
    0
}

/// `gpasswd <group> <newpassword>` sets, `gpasswd -r <group>` removes the
/// group password. Legacy: root rewrites `/etc/gshadow`. Protego: the
/// group's *administrator* edits the per-group fragment
/// `/etc/gshadows/<group>`, which she owns.
pub fn gpasswd_main(p: &mut Proc<'_>) -> i32 {
    p.cov("start");
    let (remove, gname, newpw) = match p.args.first().map(String::as_str) {
        Some("-r") => match p.args.get(1) {
            Some(g) => (true, g.clone(), String::new()),
            None => {
                p.println("usage: gpasswd -r <group>");
                return 2;
            }
        },
        Some(g) => match p.args.get(1) {
            Some(pw) => (false, g.to_string(), pw.clone()),
            None => {
                p.println("usage: gpasswd <group> <newpassword>");
                return 2;
            }
        },
        None => {
            p.println("usage: gpasswd [-r] <group> [newpassword]");
            return 2;
        }
    };
    if lookup_group(p, &gname).is_none() {
        return fail(p, "gpasswd", &format!("group {}", gname), Errno::ENOENT);
    }
    let salt: String = gname.chars().take(2).collect();
    let hash = if remove {
        "!".to_string()
    } else {
        sim_crypt(&salt, &newpw)
    };
    let line = format!("{}:{}::\n", gname, hash);

    if p.sys.mode == SystemMode::Legacy {
        if !p.euid().is_root() {
            return fail(p, "gpasswd", "must be setuid root", Errno::EPERM);
        }
        // The setuid binary's own authorization: only root or a group
        // member (standing in for gshadow's administrator list) may
        // change the group password.
        if !p.ruid().is_root() {
            let me = my_name(p).unwrap_or_default();
            let is_member = lookup_group(p, &gname)
                .map(|g| g.members.iter().any(|m| m == &me))
                .unwrap_or(false);
            if !is_member {
                p.cov("not_admin");
                return fail(p, "gpasswd", "not a group administrator", Errno::EPERM);
            }
        }
        // Rewrite the shared file, replacing this group's record.
        let old = p.read_to_string("/etc/gshadow").unwrap_or_default();
        let mut entries: Vec<GshadowEntry> = parse_db(&old, GshadowEntry::parse);
        match entries.iter_mut().find(|e| e.name == gname) {
            Some(e) => e.hash = hash,
            None => entries.push(GshadowEntry {
                name: gname.clone(),
                hash,
            }),
        }
        let content: String = entries
            .iter()
            .map(|e| format!("{}\n", e.render()))
            .collect();
        if let Err(e) = p.write_file("/etc/gshadow", content.as_bytes(), Mode(0o600)) {
            p.cov("write_fail");
            return fail(p, "gpasswd", "/etc/gshadow", e);
        }
    } else {
        // Protego: write the fragment; DAC decides whether this user is
        // the group administrator (file owner).
        let frag = format!("/etc/gshadows/{}", gname);
        if let Err(e) = p.write_file(&frag, line.as_bytes(), Mode(0o600)) {
            p.cov(if e == Errno::EACCES {
                "not_admin"
            } else {
                "write_fail"
            });
            return fail(p, "gpasswd", &frag, e);
        }
    }
    if remove {
        p.cov("remove_ok");
        p.println(&format!("gpasswd: password removed for {}", gname));
    } else {
        p.cov("set_ok");
        p.println(&format!("gpasswd: password set for {}", gname));
    }
    0
}
