//! `/etc/fstab` parsing and translation into kernel mount rules.
//!
//! On stock Linux the *setuid mount binary* parses fstab and enforces the
//! `user`/`users` options itself (Figure 1, left). Under Protego this
//! parser runs in the trusted monitoring daemon, which translates the
//! user-mountable entries into the kernel whitelist grammar.

use crate::policy::{MountRule, MountScope};

/// A parsed fstab line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FstabEntry {
    /// Device or pseudo-fs source.
    pub device: String,
    /// Mountpoint.
    pub mountpoint: String,
    /// Filesystem type (`auto` = any).
    pub fstype: String,
    /// Raw option list.
    pub options: Vec<String>,
}

impl FstabEntry {
    /// Whether an option is present.
    pub fn has_option(&self, opt: &str) -> bool {
        self.options.iter().any(|o| o == opt)
    }

    /// Whether unprivileged users may mount this entry.
    pub fn user_mountable(&self) -> bool {
        self.has_option("user") || self.has_option("users")
    }

    /// The mount scope, if user-mountable.
    pub fn scope(&self) -> Option<MountScope> {
        if self.has_option("users") {
            Some(MountScope::Users)
        } else if self.has_option("user") {
            Some(MountScope::User)
        } else {
            None
        }
    }
}

/// The fields of one fstab line with its comment stripped: `None` for a
/// blank or comment-only line.
fn fields(raw: &str) -> Option<std::str::SplitWhitespace<'_>> {
    let line = raw.split('#').next().unwrap_or("").trim();
    (!line.is_empty()).then(|| line.split_whitespace())
}

/// Parses one fstab line: `Ok(None)` for a blank or comment-only line,
/// `Err(())` for a malformed one (fewer than four fields).
fn parse_line(raw: &str) -> Result<Option<FstabEntry>, ()> {
    let Some(mut f) = fields(raw) else {
        return Ok(None);
    };
    let (Some(device), Some(mountpoint), Some(fstype), Some(options)) =
        (f.next(), f.next(), f.next(), f.next())
    else {
        return Err(());
    };
    Ok(Some(FstabEntry {
        device: device.to_string(),
        mountpoint: mountpoint.to_string(),
        fstype: fstype.to_string(),
        options: options.split(',').map(String::from).collect(),
    }))
}

/// Parses fstab text. Malformed lines are skipped (as mount does),
/// returned separately for diagnostics.
pub fn parse_fstab(text: &str) -> (Vec<FstabEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut bad = Vec::new();
    for raw in text.lines() {
        match parse_line(raw) {
            Ok(Some(e)) => entries.push(e),
            Ok(None) => {}
            Err(()) => bad.push(raw.to_string()),
        }
    }
    (entries, bad)
}

/// The well-formed entries mounted at `mountpoint`, in file order,
/// parsing only the lines whose second field matches: the entries of
/// `parse_fstab(text).0` with that mountpoint, without building the
/// others.
pub fn fstab_entries_at<'a>(
    text: &'a str,
    mountpoint: &'a str,
) -> impl Iterator<Item = FstabEntry> + 'a {
    text.lines()
        .filter(move |raw| fields(raw).and_then(|mut f| f.nth(1)) == Some(mountpoint))
        .filter_map(|raw| parse_line(raw).ok().flatten())
}

/// Translates the user-mountable fstab entries into kernel mount rules —
/// the monitoring daemon's core transformation.
pub fn fstab_to_policy(entries: &[FstabEntry]) -> Vec<MountRule> {
    entries
        .iter()
        .filter_map(|e| {
            let scope = e.scope()?;
            Some(MountRule {
                source: e.device.clone(),
                mountpoint: e.mountpoint.clone(),
                fstype: if e.fstype == "auto" {
                    None
                } else {
                    Some(e.fstype.clone())
                },
                scope,
                read_only: e.has_option("ro"),
            })
        })
        .collect()
}

/// A reasonable default fstab for the simulated distribution image.
pub const DEFAULT_FSTAB: &str = "\
# <device>      <mountpoint>  <type>    <options>                  <dump> <pass>
/dev/sda1       /             ext4      errors=remount-ro          0      1
/dev/cdrom      /mnt/cdrom    iso9660   ro,user,noauto             0      0
/dev/sdb1       /media/usb    vfat      rw,users,noauto            0      0
ecryptfs        /home/alice/Private   fuse   rw,user,noauto          0      0
ecryptfs        /home/bob/Private     fuse   rw,user,noauto          0      0
ecryptfs        /home/carol/Private   fuse   rw,user,noauto          0      0
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_default_fstab() {
        let (entries, bad) = parse_fstab(DEFAULT_FSTAB);
        assert_eq!(entries.len(), 6);
        assert!(bad.is_empty());
        assert_eq!(entries[1].device, "/dev/cdrom");
        assert!(entries[1].user_mountable());
        assert!(!entries[0].user_mountable());
    }

    #[test]
    fn policy_translation() {
        let (entries, _) = parse_fstab(DEFAULT_FSTAB);
        let rules = fstab_to_policy(&entries);
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].mountpoint, "/mnt/cdrom");
        assert_eq!(rules[0].scope, MountScope::User);
        assert!(rules[0].read_only);
        assert_eq!(rules[1].scope, MountScope::Users);
        assert!(!rules[1].read_only);
    }

    #[test]
    fn auto_fstype_maps_to_wildcard() {
        let (entries, _) = parse_fstab("/dev/x /mnt/x auto user 0 0");
        let rules = fstab_to_policy(&entries);
        assert_eq!(rules[0].fstype, None);
    }

    #[test]
    fn malformed_lines_reported() {
        let (entries, bad) = parse_fstab("too few\n/dev/a /m ext4 rw 0 0\n");
        assert_eq!(entries.len(), 1);
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let (entries, bad) = parse_fstab("# all comments\n\n   \n");
        assert!(entries.is_empty());
        assert!(bad.is_empty());
    }
}
