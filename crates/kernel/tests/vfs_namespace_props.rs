//! Property tests over the VFS namespace: arbitrary rename/unlink
//! sequences never create cycles, never orphan a live inode, never make
//! `resolve` diverge, and never reclaim a directory (the dcache's
//! per-directory generations are indexed by ino on that promise).

use proptest::prelude::*;
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::vfs::{Ino, Mode, Vfs};
use std::collections::BTreeSet;

/// A namespace mutation drawn from a small pool of directory and file
/// names, so sequences collide often enough to exercise the interesting
/// paths (overwrites, ancestor moves, re-creates of reclaimed slots).
#[derive(Clone, Debug)]
enum NsOp {
    Mkdir(u8, u8),
    Create(u8, u8),
    Unlink(u8, u8),
    Rmdir(u8, u8),
    Rename(u8, u8, u8, u8),
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Mkdir(d, n)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Create(d, n)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Unlink(d, n)),
        (0u8..6, 0u8..4).prop_map(|(d, n)| NsOp::Rmdir(d, n)),
        (0u8..6, 0u8..4, 0u8..6, 0u8..4).prop_map(|(a, b, c, d)| NsOp::Rename(a, b, c, d)),
    ]
}

/// The six working directories ops address, resolved fresh each step so
/// renamed/removed directories fall back to root rather than dangling.
fn dir_pool(v: &Vfs) -> Vec<Ino> {
    let mut pool = vec![v.root()];
    for path in ["/d0", "/d1", "/d2", "/d0/d1", "/d1/d2"] {
        if let Ok(r) = v.resolve(v.root(), path) {
            pool.push(r.ino);
        } else {
            pool.push(v.root());
        }
    }
    pool
}

fn seed_tree() -> Vfs {
    let v = Vfs::new();
    v.mkdir_p("/d0/d1").unwrap();
    v.mkdir_p("/d1/d2").unwrap();
    v.mkdir_p("/d2").unwrap();
    v
}

/// Every inode slot that still carries links must be reachable from the
/// root by walking directory entries, and `path_of` must terminate on it
/// (its cycle guard reports `<cycle>` instead of hanging).
fn assert_live_inodes_root_reachable(v: &Vfs) {
    let mut reachable: BTreeSet<Ino> = BTreeSet::new();
    reachable.insert(v.root());
    let mut queue = vec![v.root()];
    while let Some(cur) = queue.pop() {
        let entries: Vec<Ino> = {
            let node = v.inode(cur);
            match node.dir_entries() {
                Some(e) => e.values().copied().collect(),
                None => continue,
            }
        };
        for child in entries {
            if !reachable.insert(child) {
                // A directory reached twice means a cycle or
                // double-parent — corrupt.
                assert!(
                    v.inode(child).dir_entries().is_none(),
                    "directory {:?} reachable via two paths: namespace cycle",
                    child
                );
                continue;
            }
            queue.push(child);
        }
    }
    let reclaimed: BTreeSet<Ino> = v.reclaimed_slots().iter().copied().collect();
    for idx in 0..v.inode_count() {
        let ino = Ino(idx);
        if reclaimed.contains(&ino) {
            continue;
        }
        let inode = v.inode(ino);
        if inode.nlink == 0 {
            continue; // dead (e.g. removed dir slot awaiting reuse)
        }
        assert!(
            reachable.contains(&ino),
            "live inode {:?} (nlink {}) unreachable from root at {}",
            ino,
            inode.nlink,
            v.path_of(ino)
        );
        assert_ne!(v.path_of(ino), "<cycle>", "path_of found a cycle");
    }
}

proptest! {
    /// Arbitrary rename/unlink/mkdir/rmdir sequences keep the
    /// namespace a rooted tree: `resolve` terminates on every probe, no
    /// live inode is orphaned, and directory-cycle renames are rejected
    /// (so a cycle can never be observed afterwards). Every directory the
    /// sequence saw, removed or not, is still a directory and its ino was
    /// never reclaimed.
    #[test]
    fn namespace_stays_rooted_under_random_mutations(
        ops in prop::collection::vec(ns_op(), 0..60),
    ) {
        let v = seed_tree();
        let mut dirs_seen = BTreeSet::new();
        for op in ops {
            let pool = dir_pool(&v);
            dirs_seen.extend(pool.iter().copied());
            let dir_at = |i: u8| pool[i as usize % pool.len()];
            let name = |n: u8| format!("n{}", n);
            let dname = |n: u8| format!("d{}", n);
            match op {
                NsOp::Mkdir(d, n) => {
                    let made = v.mkdir(dir_at(d), &dname(n), Mode(0o755), Uid::ROOT, Gid::ROOT);
                    dirs_seen.extend(made);
                }
                NsOp::Create(d, n) => {
                    let _ = v.create_file(
                        dir_at(d), &name(n), Mode(0o644), Uid::ROOT, Gid::ROOT, false,
                    );
                }
                NsOp::Unlink(d, n) => {
                    let _ = v.unlink(dir_at(d), &name(n));
                }
                NsOp::Rmdir(d, n) => {
                    let _ = v.rmdir(dir_at(d), &dname(n));
                }
                NsOp::Rename(sd, sn, td, tn) => {
                    // Rename both file names and directory names so the
                    // ancestor check sees real directory moves.
                    let _ = v.rename(dir_at(sd), &name(sn), dir_at(td), &name(tn));
                    let _ = v.rename(dir_at(sd), &dname(sn), dir_at(td), &dname(tn));
                }
            }
            // resolve() must terminate on every step, from every pool dir.
            for probe in ["/d0/d1", "/d1/d2/n0", "d1/n1", "..", "../../d2"] {
                for &start in &pool {
                    let _ = v.resolve(start, probe);
                }
            }
        }
        assert_live_inodes_root_reachable(&v);
        let reclaimed = v.reclaimed_slots();
        for dir in dirs_seen {
            prop_assert!(!reclaimed.contains(&dir), "directory {:?} was reclaimed", dir);
            prop_assert!(v.inode(dir).data.is_dir(), "directory {:?} is no longer one", dir);
        }
    }

    /// Directed adversarial sequence: repeatedly try to move an ancestor
    /// into its own descendant chain; every attempt must fail EINVAL and
    /// the tree must stay fully navigable.
    #[test]
    fn ancestor_moves_always_rejected(depth in 1usize..8) {
        let v = Vfs::new();
        let mut path = String::new();
        for i in 0..depth {
            path.push_str(&format!("/s{}", i));
        }
        v.mkdir_p(&path).unwrap();
        let top = v.resolve(v.root(), "/s0").unwrap().ino;
        let deepest = v.resolve(v.root(), &path).unwrap().ino;
        prop_assert_eq!(
            v.rename(v.root(), "s0", deepest, "loop").unwrap_err(),
            Errno::EINVAL
        );
        prop_assert_eq!(
            v.rename(v.root(), "s0", top, "self").unwrap_err(),
            Errno::EINVAL
        );
        prop_assert_eq!(v.resolve(v.root(), &path).unwrap().ino, deepest);
        assert_live_inodes_root_reachable(&v);
    }
}

/// Regression: before the ancestor check, this exact sequence detached
/// `/a` into an unreachable self-cycle and `path_of` reported `<cycle>`.
#[test]
fn rename_cycle_regression_shape() {
    let v = Vfs::new();
    v.mkdir_p("/a/b/c").unwrap();
    let c = v.resolve(v.root(), "/a/b/c").unwrap().ino;
    assert_eq!(
        v.rename(v.root(), "a", c, "a").unwrap_err(),
        Errno::EINVAL,
        "rename(\"/a\", \"/a/b/c/a\") must be rejected"
    );
    assert_eq!(v.path_of(c), "/a/b/c");
    assert_live_inodes_root_reachable(&v);
}

/// `dir_remove` is safe against the InodeData check even when handed a
/// non-directory parent.
#[test]
fn dir_remove_on_file_parent_is_enotdir() {
    let v = Vfs::new();
    v.install_file("/f", b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let f = v.resolve(v.root(), "/f").unwrap().ino;
    assert_eq!(v.dir_remove(f, "anything").unwrap_err(), Errno::ENOTDIR);
    assert_eq!(
        v.dir_remove(v.root(), "missing").unwrap_err(),
        Errno::ENOENT
    );
    let _ = f;
}
