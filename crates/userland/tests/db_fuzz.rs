//! Property tests for the credential-database formats (§4.4): totality on
//! hostile input and render/parse round-trips, plus differential oracles
//! for the one-entry lookups (`find_entry`, `fstab_entries_at`) against
//! parsing the whole file, and for the coverage counters against a
//! flat (binary, point) map.

use proptest::prelude::*;
use protego_core::fstab::{fstab_entries_at, parse_fstab};
use std::collections::BTreeMap;
use userland::coverage::{Coverage, CoverageRow};
use userland::db::{
    find_entry, first_entry, name_and_hash, parse_db, GroupEntry, GshadowEntry, PasswdEntry,
    ShadowEntry, ID_FIELD, NAME_FIELD,
};

/// Field values for generated database lines: names (one empty),
/// numbers in several spellings of the same id, and values no id parser
/// accepts.
const DB_FIELDS: [&str; 16] = [
    "alice",
    "bob",
    "root",
    "",
    "x",
    "0",
    "00",
    "+0",
    "1000",
    "01000",
    "+1000",
    "1001",
    " 1000",
    "-1",
    "a,b",
    "99999999999",
];

/// A generated database file: each line is a kind (plain, plain, comment,
/// blank, blank beyond ASCII, CRLF-terminated) and 1-8 fields drawn from
/// [`DB_FIELDS`].
fn db_text(lines: &[(u8, Vec<usize>)]) -> String {
    let mut text = String::new();
    for (kind, fields) in lines {
        match kind {
            2 => text.push('#'),
            3 => {
                text.push_str("  \n");
                continue;
            }
            4 => {
                text.push_str("\u{a0}\x0b\n");
                continue;
            }
            _ => {}
        }
        let line: Vec<&str> = fields.iter().map(|&i| DB_FIELDS[i]).collect();
        text.push_str(&line.join(":"));
        text.push_str(if *kind == 5 { "\r\n" } else { "\n" });
    }
    text
}

/// `find_entry` on `field` agrees with a whole-file parse plus `find`.
fn check_lookup<T: PartialEq + std::fmt::Debug>(
    text: &str,
    parse: fn(&str) -> Option<T>,
    name_of: fn(&T) -> &str,
    id_of: Option<fn(&T) -> u32>,
) {
    let all = parse_db(text, parse);
    for name in ["alice", "bob", "root", ""] {
        let want = all.iter().find(|e| name_of(e) == name);
        assert_eq!(
            find_entry(text, NAME_FIELD, name, parse).as_ref(),
            want,
            "name {name:?} in {text:?}"
        );
    }
    if let Some(id_of) = id_of {
        for id in [0u32, 1000, 1001] {
            let want = all.iter().find(|e| id_of(e) == id);
            assert_eq!(
                find_entry(text, ID_FIELD, id, parse).as_ref(),
                want,
                "id {id} in {text:?}"
            );
        }
    }
    assert_eq!(first_entry(text, parse).as_ref(), all.first());
}

/// fstab tokens: devices, mountpoints (one a trailing-slash spelling of
/// another), types, options, and a comment marker.
const FSTAB_TOKENS: [&str; 12] = [
    "/dev/cdrom",
    "/dev/sdb1",
    "/mnt/cdrom",
    "/mnt/cdrom/",
    "/media/usb",
    "/",
    "iso9660",
    "auto",
    "ro,user,noauto",
    "rw,users",
    "0",
    "#x",
];

const FSTAB_SEPARATORS: [&str; 3] = [" ", "\t", "   "];

fn fstab_text(lines: &[Vec<(usize, usize)>]) -> String {
    let mut text = String::new();
    for tokens in lines {
        for (tok, sep) in tokens {
            text.push_str(FSTAB_SEPARATORS[*sep]);
            text.push_str(FSTAB_TOKENS[*tok]);
        }
        text.push('\n');
    }
    text
}

/// The coverage counters as a flat `(binary, point)` map: the layout
/// [`Coverage`] had before it keyed hits binary → point.
#[derive(Default)]
struct FlatCoverage {
    declared: BTreeMap<String, Vec<&'static str>>,
    hits: BTreeMap<(String, &'static str), u64>,
}

impl FlatCoverage {
    fn count(&self, binary: &str, point: &'static str) -> u64 {
        self.hits
            .get(&(binary.to_string(), point))
            .copied()
            .unwrap_or(0)
    }

    fn report(&self) -> Vec<CoverageRow> {
        self.declared
            .iter()
            .map(|(binary, points)| {
                let hit = points.iter().filter(|p| self.count(binary, p) > 0).count();
                CoverageRow {
                    binary: binary.clone(),
                    declared: points.len(),
                    hit,
                    percent: if points.is_empty() {
                        100.0
                    } else {
                        100.0 * hit as f64 / points.len() as f64
                    },
                }
            })
            .collect()
    }

    fn merge_from(&mut self, other: &FlatCoverage) {
        for (binary, points) in &other.declared {
            self.declared
                .entry(binary.clone())
                .or_insert_with(|| points.clone());
        }
        for ((binary, point), count) in &other.hits {
            *self.hits.entry((binary.clone(), point)).or_insert(0) += count;
        }
    }
}

const COV_BINARIES: [&str; 3] = ["/bin/mount", "/usr/bin/sudo", ""];
const COV_POINTS: [&str; 4] = ["start", "exec", "setuid_ok", "fail"];

/// Declares `declare` (binary index, number of points) and replays
/// `hits` (binary index, point index) on both layouts.
fn coverage_pair(declare: &[(usize, usize)], hits: &[(usize, usize)]) -> (Coverage, FlatCoverage) {
    let (mut c, mut flat) = (Coverage::new(), FlatCoverage::default());
    for &(b, n) in declare {
        c.declare(COV_BINARIES[b], &COV_POINTS[..n]);
        flat.declared
            .insert(COV_BINARIES[b].to_string(), COV_POINTS[..n].to_vec());
    }
    for &(b, p) in hits {
        c.hit(COV_BINARIES[b], COV_POINTS[p]);
        *flat
            .hits
            .entry((COV_BINARIES[b].to_string(), COV_POINTS[p]))
            .or_insert(0) += 1;
    }
    (c, flat)
}

fn assert_same_coverage(c: &Coverage, flat: &FlatCoverage) {
    assert_eq!(c.report(), flat.report());
    for b in COV_BINARIES {
        for p in COV_POINTS {
            assert_eq!(c.count(b, p), flat.count(b, p), "{b:?} {p}");
        }
    }
}

#[test]
fn numeric_keys_match_every_spelling_the_parser_accepts() {
    let text = "alice:x:01000:1000:A:/h:/bin/sh\nbob:x:+1001:1001:B:/h:/bin/sh\n";
    let by_uid = |uid| find_entry(text, ID_FIELD, uid, PasswdEntry::parse).map(|e| e.name);
    assert_eq!(by_uid(1000).as_deref(), Some("alice"));
    assert_eq!(by_uid(1001).as_deref(), Some("bob"));
    assert_eq!(by_uid(0), None);
    // A name is matched byte for byte, and a comment is never a record.
    assert!(find_entry(text, NAME_FIELD, "alic", PasswdEntry::parse).is_none());
    let commented = "#alice:x:0:0:A:/h:/bin/sh\n";
    assert!(find_entry(commented, NAME_FIELD, "#alice", PasswdEntry::parse).is_none());
}

proptest! {
    #[test]
    fn parsers_are_total(line in "\\PC{0,120}") {
        let _ = PasswdEntry::parse(&line);
        let _ = ShadowEntry::parse(&line);
        let _ = GroupEntry::parse(&line);
        let _ = GshadowEntry::parse(&line);
    }

    #[test]
    fn passwd_roundtrip(
        name in "[a-z][a-z0-9-]{0,12}",
        uid in 0u32..70000,
        gid in 0u32..70000,
        gecos in "[a-zA-Z ,]{0,20}",
        shell in "(/bin/sh|/bin/bash|/usr/sbin/nologin)",
    ) {
        let e = PasswdEntry {
            name: name.clone(),
            uid,
            gid,
            gecos,
            home: format!("/home/{}", name),
            shell: shell.to_string(),
        };
        prop_assert_eq!(PasswdEntry::parse(&e.render()).unwrap(), e);
    }

    #[test]
    fn shadow_password_verification(name in "[a-z]{1,10}", pw in "[ -~]{1,20}", other in "[ -~]{1,20}") {
        let e = ShadowEntry::with_password(&name, &pw);
        let back = ShadowEntry::parse(&e.render()).unwrap();
        prop_assert!(back.verify(&pw));
        if other != pw {
            prop_assert!(!back.verify(&other));
        }
    }

    #[test]
    fn group_roundtrip(
        name in "[a-z][a-z0-9-]{0,10}",
        gid in 0u32..70000,
        members in prop::collection::vec("[a-z]{1,8}", 0..5),
    ) {
        let e = GroupEntry { name, gid, members };
        prop_assert_eq!(GroupEntry::parse(&e.render()).unwrap(), e);
    }

    /// A whole-database render survives a parse cycle entry-for-entry,
    /// with malformed interleaved lines dropped silently (the behaviour
    /// legacy tools rely on).
    #[test]
    fn database_with_garbage_lines(
        names in prop::collection::btree_set("[a-z]{2,8}", 1..6),
        garbage in "[^:\\n]{0,30}",
    ) {
        let mut text = String::new();
        for (i, n) in names.iter().enumerate() {
            text.push_str(&PasswdEntry {
                name: n.clone(),
                uid: 1000 + i as u32,
                gid: 1000 + i as u32,
                gecos: String::new(),
                home: format!("/home/{}", n),
                shell: "/bin/sh".into(),
            }.render());
            text.push('\n');
            text.push_str(&garbage);
            text.push('\n');
        }
        let entries = parse_db(&text, PasswdEntry::parse);
        prop_assert_eq!(entries.len(), names.len());
    }

    /// One-entry lookups return exactly the entry a whole-file parse and
    /// `find` return, in all four formats, on files with comments, blank
    /// lines, malformed lines, duplicate keys and several spellings of
    /// one id.
    #[test]
    fn find_entry_equals_parse_db_then_find(
        lines in prop::collection::vec((0u8..6, prop::collection::vec(0usize..16, 1..9)), 0..12),
    ) {
        let text = db_text(&lines);
        check_lookup(&text, PasswdEntry::parse, |e| &e.name, Some(|e: &PasswdEntry| e.uid));
        check_lookup(&text, GroupEntry::parse, |e| &e.name, Some(|e: &GroupEntry| e.gid));
        check_lookup(&text, ShadowEntry::parse, |e| &e.name, None);
        check_lookup(&text, GshadowEntry::parse, |e| &e.name, None);
        // The borrowed parses find the records the owned ones find.
        for id in [0u32, 1000, 1001] {
            let owned = find_entry(&text, ID_FIELD, id, PasswdEntry::parse);
            let name = find_entry(&text, ID_FIELD, id, PasswdEntry::parse_name);
            prop_assert_eq!(name, owned.as_ref().map(|e| e.name.as_str()));
            let owned = find_entry(&text, ID_FIELD, id, GroupEntry::parse);
            let name = find_entry(&text, ID_FIELD, id, GroupEntry::parse_name);
            prop_assert_eq!(name, owned.as_ref().map(|e| e.name.as_str()));
        }
        for name in ["alice", "bob", "root", ""] {
            let owned = find_entry(&text, NAME_FIELD, name, ShadowEntry::parse);
            let borrowed = find_entry(&text, NAME_FIELD, name, name_and_hash);
            prop_assert_eq!(borrowed, owned.as_ref().map(|e| (e.name.as_str(), e.hash.as_str())));
        }
    }

    /// The fstab one-entry lookup returns exactly the entries a
    /// whole-file parse and a mountpoint filter return.
    #[test]
    fn fstab_entries_at_equals_parse_fstab_then_filter(
        lines in prop::collection::vec(
            prop::collection::vec((0usize..12, 0usize..3), 0..7),
            0..10,
        ),
    ) {
        let text = fstab_text(&lines);
        let (all, _) = parse_fstab(&text);
        for m in ["/mnt/cdrom", "/mnt/cdrom/", "/media/usb", "/", "0", "#x"] {
            let want: Vec<_> = all.iter().filter(|e| e.mountpoint == m).cloned().collect();
            let got: Vec<_> = fstab_entries_at(&text, m).collect();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                fstab_entries_at(&text, m).next().as_ref(),
                all.iter().find(|e| e.mountpoint == m)
            );
        }
    }

    /// Coverage counts, reports and merges are the same as with hits
    /// kept in one flat (binary, point) map.
    #[test]
    fn coverage_report_and_merge_match_flat_counters(
        declare_a in prop::collection::vec((0usize..3, 0usize..5), 0..4),
        declare_b in prop::collection::vec((0usize..3, 0usize..5), 0..4),
        hits_a in prop::collection::vec((0usize..3, 0usize..4), 0..20),
        hits_b in prop::collection::vec((0usize..3, 0usize..4), 0..20),
    ) {
        let (mut a, mut flat_a) = coverage_pair(&declare_a, &hits_a);
        let (b, flat_b) = coverage_pair(&declare_b, &hits_b);
        assert_same_coverage(&a, &flat_a);
        a.merge_from(&b);
        flat_a.merge_from(&flat_b);
        assert_same_coverage(&a, &flat_a);
    }
}
