//! Credential database file formats: passwd, shadow, group, gshadow — both
//! the legacy shared files and Protego's per-account fragments (§4.4).

use sim_kernel::lsm::sim_crypt;

/// The colon field that holds the name in every format here.
pub const NAME_FIELD: usize = 0;
/// The colon field that holds the uid in passwd and the gid in group.
pub const ID_FIELD: usize = 2;

/// One `/etc/passwd` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PasswdEntry {
    /// Login name.
    pub name: String,
    /// Uid.
    pub uid: u32,
    /// Primary gid.
    pub gid: u32,
    /// GECOS (full name / office).
    pub gecos: String,
    /// Home directory.
    pub home: String,
    /// Login shell.
    pub shell: String,
}

impl PasswdEntry {
    /// Renders the classic colon format.
    pub fn render(&self) -> String {
        format!(
            "{}:x:{}:{}:{}:{}:{}",
            self.name, self.uid, self.gid, self.gecos, self.home, self.shell
        )
    }

    /// Parses a passwd line.
    pub fn parse(line: &str) -> Option<PasswdEntry> {
        let ([name, _, _, _, gecos, home, shell], uid, gid) = passwd_fields(line)?;
        Some(PasswdEntry {
            name: name.to_string(),
            uid,
            gid,
            gecos: gecos.to_string(),
            home: home.to_string(),
            shell: shell.to_string(),
        })
    }

    /// The login name of a line [`PasswdEntry::parse`] accepts, borrowed
    /// from the line.
    pub fn parse_name(line: &str) -> Option<&str> {
        passwd_fields(line).map(|(f, ..)| f[0])
    }
}

/// The fields of a well-formed passwd line, with its uid and gid.
fn passwd_fields(line: &str) -> Option<([&str; 7], u32, u32)> {
    let f = fields(line)?;
    Some((f, f[2].parse().ok()?, f[3].parse().ok()?))
}

/// One `/etc/shadow` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowEntry {
    /// Login name.
    pub name: String,
    /// Password hash (`sim_crypt` format) or `!` for locked.
    pub hash: String,
}

impl ShadowEntry {
    /// Renders the shadow format (aging fields fixed).
    pub fn render(&self) -> String {
        format!("{}:{}:19000:0:99999:7:::", self.name, self.hash)
    }

    /// Parses a shadow line (name and hash; the aging fields are not
    /// read).
    pub fn parse(line: &str) -> Option<ShadowEntry> {
        let (name, hash) = name_and_hash(line)?;
        Some(ShadowEntry {
            name: name.to_string(),
            hash: hash.to_string(),
        })
    }

    /// Builds an entry hashing `password` with a name-derived salt.
    pub fn with_password(name: &str, password: &str) -> ShadowEntry {
        let salt: String = name.chars().take(2).collect();
        ShadowEntry {
            name: name.to_string(),
            hash: sim_crypt(&salt, password),
        }
    }

    /// Verifies a password attempt.
    pub fn verify(&self, password: &str) -> bool {
        sim_kernel::lsm::sim_crypt_verify(&self.hash, password)
    }
}

/// One `/etc/group` record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupEntry {
    /// Group name.
    pub name: String,
    /// Gid.
    pub gid: u32,
    /// Member login names.
    pub members: Vec<String>,
}

impl GroupEntry {
    /// Renders the group format.
    pub fn render(&self) -> String {
        format!("{}:x:{}:{}", self.name, self.gid, self.members.join(","))
    }

    /// Parses a group line.
    pub fn parse(line: &str) -> Option<GroupEntry> {
        let ([name, _, _, members], gid) = group_fields(line)?;
        Some(GroupEntry {
            name: name.to_string(),
            gid,
            members: members
                .split(',')
                .filter(|m| !m.is_empty())
                .map(String::from)
                .collect(),
        })
    }

    /// The group name of a line [`GroupEntry::parse`] accepts, borrowed
    /// from the line.
    pub fn parse_name(line: &str) -> Option<&str> {
        group_fields(line).map(|(f, _)| f[0])
    }
}

/// The fields of a well-formed group line, with its gid.
fn group_fields(line: &str) -> Option<([&str; 4], u32)> {
    let f = fields(line)?;
    Some((f, f[2].parse().ok()?))
}

/// One `/etc/gshadow` record (group password).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GshadowEntry {
    /// Group name.
    pub name: String,
    /// Group password hash, or `!` for none.
    pub hash: String,
}

impl GshadowEntry {
    /// Renders the gshadow format.
    pub fn render(&self) -> String {
        format!("{}:{}::", self.name, self.hash)
    }

    /// Parses a gshadow line (name and hash; the admin and member fields
    /// are not read).
    pub fn parse(line: &str) -> Option<GshadowEntry> {
        let (name, hash) = name_and_hash(line)?;
        Some(GshadowEntry {
            name: name.to_string(),
            hash: hash.to_string(),
        })
    }

    /// Whether the group is password-protected.
    pub fn password_protected(&self) -> bool {
        self.hash != "!" && !self.hash.is_empty()
    }

    /// Verifies a group password attempt.
    pub fn verify(&self, password: &str) -> bool {
        sim_kernel::lsm::sim_crypt_verify(&self.hash, password)
    }
}

/// Splits `line` into exactly `N` colon-separated fields.
fn fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    let mut it = line.split(':');
    let mut out = [""; N];
    for slot in &mut out {
        *slot = it.next()?;
    }
    it.next().is_none().then_some(out)
}

/// The first two colon fields of a line that has at least two: the name
/// and hash of a shadow or gshadow line, borrowed from the line.
pub fn name_and_hash(line: &str) -> Option<(&str, &str)> {
    let mut it = line.split(':');
    Some((it.next()?, it.next()?))
}

/// Colon field `n` (0-based) of `line`, as `line.split(':').nth(n)`, by
/// a byte scan.
fn nth_field(line: &str, n: usize) -> Option<&str> {
    let mut rest = line;
    for _ in 0..n {
        let at = rest.bytes().position(|b| b == b':')?;
        rest = &rest[at + 1..];
    }
    Some(
        rest.bytes()
            .position(|b| b == b':')
            .map_or(rest, |at| &rest[..at]),
    )
}

/// Whether `line` is blank as `str::trim` sees it. Bytes decide every
/// line whose first byte that is not ASCII whitespace is ASCII.
fn blank(line: &str) -> bool {
    match line.bytes().find(|b| !matches!(b, b'\t'..=b'\r' | b' ')) {
        None => true,
        Some(b) => b >= 0x80 && line.trim().is_empty(),
    }
}

/// The lines of a database file that hold records: not blank, not a
/// comment.
fn records(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.starts_with('#') && !blank(l))
}

/// Parses a whole database file into entries, skipping malformed lines.
pub fn parse_db<T>(text: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    records(text).filter_map(parse).collect()
}

/// The first well-formed entry of a database file, whatever its key (a
/// per-account fragment holds one record). `parse` may borrow from `text`.
pub fn first_entry<'t, T>(text: &'t str, parse: impl Fn(&'t str) -> Option<T>) -> Option<T> {
    records(text).find_map(parse)
}

/// A value one colon field of a record is matched against.
pub trait FieldKey {
    /// Whether the raw field text holds this key.
    fn matches(&self, field: &str) -> bool;
}

/// A name matches its field byte for byte.
impl FieldKey for &str {
    fn matches(&self, field: &str) -> bool {
        field == *self
    }
}

/// A numeric id matches any spelling its entry's parser reads as the
/// same number (`1000`, `01000`, `+1000`).
impl FieldKey for u32 {
    fn matches(&self, field: &str) -> bool {
        field.parse::<u32>() == Ok(*self)
    }
}

/// The first well-formed entry whose colon field `field` (0-based) holds
/// `key`. Only the lines whose key matches are parsed, so one lookup
/// allocates no more than the entry it returns, and nothing when `parse`
/// borrows from `text` (as [`PasswdEntry::parse_name`] and
/// [`name_and_hash`] do). The answer equals
/// `parse_db(text, parse).into_iter().find(..)` on that field, provided
/// `parse` takes the field's value from the same column.
pub fn find_entry<'t, T>(
    text: &'t str,
    field: usize,
    key: impl FieldKey,
    parse: impl Fn(&'t str) -> Option<T>,
) -> Option<T> {
    records(text)
        .filter(|l| nth_field(l, field).is_some_and(|f| key.matches(f)))
        .find_map(parse)
}

/// Renders entries back to a database file.
pub fn render_db<T>(entries: &[T], render: impl Fn(&T) -> String) -> String {
    entries.iter().map(|e| format!("{}\n", render(e))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passwd_roundtrip() {
        let line = "alice:x:1000:1000:Alice A.:/home/alice:/bin/sh";
        let e = PasswdEntry::parse(line).unwrap();
        assert_eq!(e.name, "alice");
        assert_eq!(e.uid, 1000);
        assert_eq!(e.render(), line);
        assert!(PasswdEntry::parse("broken:line").is_none());
    }

    #[test]
    fn shadow_verify() {
        let e = ShadowEntry::with_password("alice", "hunter2");
        assert!(e.verify("hunter2"));
        assert!(!e.verify("wrong"));
        let parsed = ShadowEntry::parse(&e.render()).unwrap();
        assert_eq!(parsed.hash, e.hash);
        assert!(parsed.verify("hunter2"));
    }

    #[test]
    fn group_roundtrip() {
        let line = "cdrom:x:24:alice,bob";
        let g = GroupEntry::parse(line).unwrap();
        assert_eq!(g.gid, 24);
        assert_eq!(g.members, vec!["alice", "bob"]);
        assert_eq!(g.render(), line);
        let empty = GroupEntry::parse("staff:x:101:").unwrap();
        assert!(empty.members.is_empty());
    }

    #[test]
    fn gshadow_protection_flag() {
        let locked = GshadowEntry::parse("cdrom:!::").unwrap();
        assert!(!locked.password_protected());
        let e = GshadowEntry {
            name: "staff".into(),
            hash: sim_crypt("st", "staffpw"),
        };
        assert!(e.password_protected());
        assert!(e.verify("staffpw"));
        assert!(!e.verify("nope"));
    }

    #[test]
    fn byte_scans_match_the_str_methods() {
        let lines = [
            "",
            " ",
            "\t\r",
            "\x0b",
            "\x0c",
            "\u{a0}",
            "\u{85}",
            " \u{2003} ",
            " x",
            "\u{a0}x",
            "x\u{a0}",
            "a:b::c",
            ":",
            "::",
            "é:ü:3",
            "#:x",
        ];
        for line in lines {
            assert_eq!(blank(line), line.trim().is_empty(), "{line:?}");
            for n in 0..5 {
                assert_eq!(nth_field(line, n), line.split(':').nth(n), "{line:?} {n}");
            }
        }
    }

    #[test]
    fn db_parse_skips_comments_and_garbage() {
        let text = "# comment\nalice:x:1000:1000:A:/h:/bin/sh\nbroken\n";
        let entries = parse_db(text, PasswdEntry::parse);
        assert_eq!(entries.len(), 1);
        let back = render_db(&entries, PasswdEntry::render);
        assert_eq!(back, "alice:x:1000:1000:A:/h:/bin/sh\n");
    }
}
