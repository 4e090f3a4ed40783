//! Dcache invalidation properties, exercised through the syscall layer:
//! a mutation invalidates exactly the cached resolutions that read the
//! directories it changed, so a stale resolution is never served while
//! unrelated paths stay cached, and the `/proc/<lsm>/metrics` view reports
//! the cache counters.

use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::error::{Errno, KResult};
use sim_kernel::kernel::{Kernel, SharedKernel};
use sim_kernel::lsm::NullLsm;
use sim_kernel::net::SimNet;
use sim_kernel::vfs::{Ino, Mode, Vfs};
use sim_kernel::Pid;
use std::sync::atomic::{AtomicU64, Ordering};

fn boot() -> (Kernel, Pid) {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().unwrap();
    k.register_lsm(Box::new(NullLsm)).unwrap();
    let root = k.spawn_init();
    k.vfs
        .install_file("/data/a.txt", b"alpha", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/data/b.txt", b"beta", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file(
            "/etc/passwd",
            b"root:x:0:0\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    (k, root)
}

/// Stats `path` as `pid`, reporting whether the dcache served the walk.
fn stat_hit(k: &Kernel, pid: Pid, path: &str) -> (KResult<Ino>, bool) {
    let before = k.vfs.dcache_stats().hits;
    let r = k.sys_stat(pid, path).map(|s| s.ino);
    (r, k.vfs.dcache_stats().hits > before)
}

/// What `path` resolves to with the dcache off: the oracle every cached
/// answer must match.
fn uncached(k: &Kernel, pid: Pid, path: &str) -> KResult<Ino> {
    k.vfs.set_dcache_enabled(false);
    let r = k.sys_stat(pid, path).map(|s| s.ino);
    k.vfs.set_dcache_enabled(true);
    r
}

#[test]
fn repeated_reads_hit_the_dcache() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let before = k.vfs.dcache_stats();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let after = k.vfs.dcache_stats();
    assert!(after.hits > before.hits, "second read must hit the cache");
}

#[test]
fn rename_redirects_without_a_stale_hit() {
    let (k, root) = boot();
    assert_eq!(k.read_to_string(root, "/data/a.txt").unwrap(), "alpha");
    k.read_to_string(root, "/etc/passwd").unwrap();
    // Atomic replace: b.txt takes over the name a.txt.
    k.sys_rename(root, "/data/b.txt", "/data/a.txt").unwrap();
    // A stale hit would return "alpha".
    assert_eq!(k.read_to_string(root, "/data/a.txt").unwrap(), "beta");
    assert!(
        stat_hit(&k, root, "/etc/passwd").1,
        "unrelated path stays cached"
    );
}

#[test]
fn unlink_uncaches_the_name_and_nothing_unrelated() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/etc/passwd").unwrap();
    k.sys_unlink(root, "/data/a.txt").unwrap();
    // A stale hit would resolve the dead inode instead of failing.
    assert_eq!(
        k.read_to_string(root, "/data/a.txt").unwrap_err(),
        Errno::ENOENT
    );
    assert!(
        stat_hit(&k, root, "/etc/passwd").1,
        "unrelated path stays cached"
    );
}

#[test]
fn mount_and_umount_redirect_the_covered_path() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/mnt/usb").unwrap();
    k.vfs
        .install_file(
            "/mnt/usb/under.txt",
            b"under",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    // Warm the cache on the to-be-covered path.
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap(),
        "under"
    );
    k.sys_mount(root, "/dev/sdb1", "/mnt/usb", "vfat", "rw")
        .unwrap();
    // A stale hit would still see the covered file.
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap_err(),
        Errno::ENOENT
    );
    k.sys_umount(root, "/mnt/usb").unwrap();
    assert_eq!(
        k.read_to_string(root, "/mnt/usb/under.txt").unwrap(),
        "under"
    );
}

#[test]
fn chmod_keeps_the_path_cached_and_access_checks_live() {
    let (k, root) = boot();
    let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");
    assert_eq!(k.read_to_string(user, "/data/a.txt").unwrap(), "alpha");
    k.sys_chmod(root, "/data/a.txt", Mode(0o600)).unwrap();
    // The walk is still served from the dcache, but the permission check
    // reads the new mode.
    assert!(
        stat_hit(&k, user, "/data/a.txt").1,
        "chmod invalidates nothing"
    );
    assert_eq!(
        k.read_to_string(user, "/data/a.txt").unwrap_err(),
        Errno::EACCES
    );
    k.sys_chown(root, "/data/a.txt", Some(Uid(1000)), None)
        .unwrap();
    assert_eq!(k.read_to_string(user, "/data/a.txt").unwrap(), "alpha");
}

#[test]
fn renaming_a_directory_invalidates_paths_beneath_it() {
    let (k, root) = boot();
    k.vfs
        .install_file(
            "/data/sub/deep/f.txt",
            b"f",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
    let f = k.sys_stat(root, "/data/sub/deep/f.txt").unwrap().ino;
    k.sys_chdir(root, "/data/sub/deep").unwrap();
    let up = k.sys_stat(root, "../../a.txt").unwrap().ino;
    assert_eq!(up, k.sys_stat(root, "/data/a.txt").unwrap().ino);
    k.vfs.mkdir_p("/elsewhere").unwrap();
    k.sys_rename(root, "/data/sub", "/elsewhere/moved").unwrap();
    for path in [
        "/data/sub/deep/f.txt",
        "/elsewhere/moved/deep/f.txt",
        "../../a.txt",
        "f.txt",
    ] {
        assert_eq!(
            k.sys_stat(root, path).map(|s| s.ino),
            uncached(&k, root, path),
            "{path}"
        );
    }
    assert_eq!(
        k.sys_stat(root, "/elsewhere/moved/deep/f.txt").unwrap().ino,
        f
    );
    // The moved directory's `..` now leads to /elsewhere.
    assert_eq!(k.sys_stat(root, "../../a.txt").unwrap_err(), Errno::ENOENT);
}

#[test]
fn cwd_under_a_newly_covered_directory_sees_the_mount() {
    let (k, root) = boot();
    k.vfs
        .install_file("/mnt/x/under.txt", b"u", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/mnt/x/sub/g.txt", b"g", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.sys_chdir(root, "/mnt/x/sub").unwrap();
    let paths = [
        "..",
        "../under.txt",
        "../sub/g.txt",
        "g.txt",
        "/mnt/x/sub/g.txt",
    ];
    for path in paths {
        assert!(k.sys_stat(root, path).is_ok(), "{path}");
    }
    k.sys_mount(root, "tmpfs", "/mnt/x", "tmpfs", "rw").unwrap();
    let media = k.vfs.find_mount("/mnt/x").unwrap().root;
    for path in paths {
        assert_eq!(
            k.sys_stat(root, path).map(|s| s.ino),
            uncached(&k, root, path),
            "{path}"
        );
    }
    // `..` from the old directory crosses into the new mount, whose root
    // holds none of the covered names; the cwd itself keeps its entries.
    assert_eq!(k.sys_stat(root, "..").unwrap().ino, media);
    assert_eq!(k.sys_stat(root, "../under.txt").unwrap_err(), Errno::ENOENT);
    assert!(k.sys_stat(root, "g.txt").is_ok());
    k.sys_umount(root, "/mnt/x").unwrap();
    for path in paths {
        assert_eq!(
            k.sys_stat(root, path).map(|s| s.ino),
            uncached(&k, root, path),
            "{path}"
        );
    }
    assert!(k.sys_stat(root, "../under.txt").is_ok());
}

#[test]
fn symlink_replaced_by_rename_resolves_to_the_new_target() {
    let (k, root) = boot();
    k.vfs
        .install_file("/data/d1/f", b"one", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs
        .install_file("/data/d2/f", b"two", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.sys_symlink(root, "a.txt", "/data/link").unwrap();
    k.sys_symlink(root, "/data/d1", "/data/dir").unwrap();
    assert_eq!(k.read_to_string(root, "/data/link").unwrap(), "alpha");
    assert_eq!(k.read_to_string(root, "/data/dir/f").unwrap(), "one");
    k.sys_symlink(root, "b.txt", "/data/link.new").unwrap();
    k.sys_rename(root, "/data/link.new", "/data/link").unwrap();
    k.sys_symlink(root, "/data/d2", "/data/dir.new").unwrap();
    k.sys_rename(root, "/data/dir.new", "/data/dir").unwrap();
    assert_eq!(k.read_to_string(root, "/data/link").unwrap(), "beta");
    assert_eq!(k.read_to_string(root, "/data/dir/f").unwrap(), "two");
}

#[test]
fn a_mount_elsewhere_leaves_etc_passwd_cached() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/mnt/x").unwrap();
    let passwd = k.sys_stat(root, "/etc/passwd").unwrap().ino;
    k.sys_mount(root, "tmpfs", "/mnt/x", "tmpfs", "rw").unwrap();
    assert_eq!(stat_hit(&k, root, "/etc/passwd"), (Ok(passwd), true));
    k.sys_umount(root, "/mnt/x").unwrap();
    assert_eq!(stat_hit(&k, root, "/etc/passwd"), (Ok(passwd), true));
}

#[test]
fn a_create_or_rename_inside_a_directory_leaves_its_own_walk_cached() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/var/mail").unwrap();
    let mail = k.sys_stat(root, "/var/mail").unwrap().ino;
    k.write_file(root, "/var/mail/.bob.tmp", b"m", Mode(0o660))
        .unwrap();
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(mail), true));
    k.sys_rename(root, "/var/mail/.bob.tmp", "/var/mail/bob")
        .unwrap();
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(mail), true));
    // The entries themselves did change.
    assert!(k.sys_stat(root, "/var/mail/bob").is_ok());
    assert_eq!(
        k.sys_stat(root, "/var/mail/.bob.tmp").unwrap_err(),
        Errno::ENOENT
    );
}

#[test]
fn a_mount_its_umount_or_renaming_the_parent_invalidates_the_directory() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/var/mail").unwrap();
    let mail = k.sys_stat(root, "/var/mail").unwrap().ino;
    k.sys_mount(root, "tmpfs", "/var/mail", "tmpfs", "rw")
        .unwrap();
    let media = k.vfs.find_mount("/var/mail").unwrap().root;
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(media), false));
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(media), true));
    k.sys_umount(root, "/var/mail").unwrap();
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(mail), false));
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Ok(mail), true));
    k.sys_rename(root, "/var", "/spool").unwrap();
    assert_eq!(stat_hit(&k, root, "/var/mail"), (Err(Errno::ENOENT), false));
    assert_eq!(stat_hit(&k, root, "/spool/mail").0, Ok(mail));
}

#[test]
fn dotdot_out_of_a_mount_root_is_invalidated_by_the_umount() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/mnt/x").unwrap();
    let mnt = k.sys_stat(root, "/mnt").unwrap().ino;
    k.sys_mount(root, "tmpfs", "/mnt/x", "tmpfs", "rw").unwrap();
    // From inside the mount root, by absolute path and from the cwd.
    k.sys_chdir(root, "/mnt/x").unwrap();
    for path in ["/mnt/x/..", ".."] {
        assert_eq!(k.sys_stat(root, path).unwrap().ino, mnt, "{path}");
        assert_eq!(stat_hit(&k, root, path), (Ok(mnt), true), "{path}");
    }
    k.sys_umount(root, "/mnt/x").unwrap();
    for path in ["/mnt/x/..", ".."] {
        let (now, hit) = stat_hit(&k, root, path);
        assert!(!hit, "{path} served from before the umount");
        assert_eq!(now, uncached(&k, root, path), "{path}");
    }
    // The detached root's `..` no longer escapes to /mnt.
    assert_ne!(k.sys_stat(root, "..").unwrap().ino, mnt);
}

/// Resolves `path` from the root as `open` does, and reports whether the
/// dcache served it without a walk (a hit, and no miss).
fn probe(k: &Kernel, path: &str, follow: bool) -> (KResult<(Ino, String)>, bool) {
    let before = k.vfs.dcache_stats();
    let root = k.vfs.root();
    let r = match follow {
        true => k
            .vfs
            .resolve_canonical(root, path)
            .map(|(r, abs)| (r.ino, abs)),
        false => k
            .vfs
            .resolve_nofollow(root, path)
            .map(|r| (r.ino, k.vfs.abs_path(r.ino))),
    };
    let after = k.vfs.dcache_stats();
    let served = after.hits == before.hits + 1 && after.misses == before.misses;
    (r.map(|(ino, abs)| (ino, abs.as_str().to_string())), served)
}

/// What `path` resolves to with the dcache off, with its canonical path.
fn walked(k: &Kernel, path: &str, follow: bool) -> KResult<(Ino, String)> {
    k.vfs.set_dcache_enabled(false);
    let r = probe(k, path, follow).0;
    k.vfs.set_dcache_enabled(true);
    r
}

#[test]
fn a_name_replaced_by_rename_stays_a_hit_with_its_canonical_path() {
    let (k, root) = boot();
    let (old, path) = probe(&k, "/data/a.txt", true).0.unwrap();
    assert_eq!(path, "/data/a.txt");
    let beta = k.sys_stat(root, "/data/b.txt").unwrap().ino;
    k.sys_rename(root, "/data/b.txt", "/data/a.txt").unwrap();
    let now = Ok((beta, "/data/a.txt".to_string()));
    assert_eq!(probe(&k, "/data/a.txt", true), (now.clone(), true));
    assert_ne!(beta, old);
    // The entry itself stays as the miss stored it, so every later probe
    // redoes the lookup, and a second replacement is served the same way.
    assert_eq!(probe(&k, "/data/a.txt", true), (now, true));
    k.vfs
        .install_file("/data/c.txt", b"gamma", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let gamma = k.sys_stat(root, "/data/c.txt").unwrap().ino;
    k.sys_rename(root, "/data/c.txt", "/data/a.txt").unwrap();
    let now = Ok((gamma, "/data/a.txt".to_string()));
    assert_eq!(probe(&k, "/data/a.txt", true), (now, true));
    assert_eq!(k.read_to_string(root, "/data/a.txt").unwrap(), "gamma");
    assert_eq!(k.vfs.path_of(gamma), "/data/a.txt");
}

#[test]
fn a_name_unlinked_or_rebound_to_a_directory_or_symlink_is_walked_again() {
    type Rebind = fn(&Kernel, Pid);
    let cases: [(&str, Rebind); 3] = [
        ("unlinked", |k, root| {
            k.sys_unlink(root, "/data/a.txt").unwrap()
        }),
        ("a directory", |k, root| {
            k.sys_unlink(root, "/data/a.txt").unwrap();
            k.sys_mkdir(root, "/data/a.txt", Mode(0o755)).unwrap();
        }),
        ("a symlink", |k, root| {
            k.sys_symlink(root, "b.txt", "/data/a.new").unwrap();
            k.sys_rename(root, "/data/a.new", "/data/a.txt").unwrap();
        }),
    ];
    for (case, rebind) in cases {
        for follow in [true, false] {
            let (k, root) = boot();
            assert!(probe(&k, "/data/a.txt", follow).0.is_ok());
            rebind(&k, root);
            let (now, served) = probe(&k, "/data/a.txt", follow);
            assert!(!served, "{case}, follow {follow}: served without a walk");
            assert_eq!(now, walked(&k, "/data/a.txt", follow), "{case}, {follow}");
        }
    }
}

#[test]
fn a_change_to_an_ancestor_still_misses() {
    let (k, root) = boot();
    let install = |path: &str, body: &[u8]| {
        k.vfs
            .install_file(path, body, Mode(0o644), Uid::ROOT, Gid::ROOT)
            .unwrap()
    };
    install("/x/d/f", b"old");
    assert!(probe(&k, "/x/d/f", true).0.is_ok());
    // The directory moves away, and a new one takes its name with a new
    // `f`: the old directory still binds `f`, so redoing the last lookup
    // there would find the old file.
    k.sys_rename(root, "/x/d", "/x/e").unwrap();
    let new = install("/x/d/f", b"new");
    let (now, served) = probe(&k, "/x/d/f", true);
    assert!(!served, "served across a rename of its directory");
    assert_eq!(now, Ok((new, "/x/d/f".to_string())));
    // A create in an ancestor and a mount over one miss too.
    k.sys_mkdir(root, "/x/other", Mode(0o755)).unwrap();
    assert_eq!(
        probe(&k, "/x/d/f", true),
        (Ok((new, "/x/d/f".to_string())), false)
    );
    k.sys_mount(root, "tmpfs", "/x/d", "tmpfs", "rw").unwrap();
    assert_eq!(probe(&k, "/x/d/f", true), (Err(Errno::ENOENT), false));
}

/// A walk that read its last directory's entries before the last lookup
/// (here for `sub`, whose `..` led back) depends on more than that
/// lookup: once `sub` is a symlink elsewhere, the same path ends in
/// another directory.
#[test]
fn a_last_directory_read_earlier_in_the_walk_is_walked_again() {
    let (k, root) = boot();
    k.vfs.mkdir_p("/data/sub").unwrap();
    let other = k
        .vfs
        .install_file("/x/a.txt", b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    k.vfs.mkdir_p("/x/y").unwrap();
    let path = "/data/sub/../a.txt";
    assert_eq!(probe(&k, path, true).0, walked(&k, path, true));
    k.sys_rmdir(root, "/data/sub").unwrap();
    k.sys_symlink(root, "/x/y", "/data/sub").unwrap();
    let (now, served) = probe(&k, path, true);
    assert!(!served, "served after `sub` became a symlink");
    assert_eq!(now, Ok((other, "/x/a.txt".to_string())));
}

/// Releases a renamer's wait for acks for good once the reader stops,
/// even by a panic.
struct Finish<'a>(&'a AtomicU64);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.store(u64::MAX, Ordering::SeqCst);
    }
}

/// One thread keeps replacing `/spin/cur` by rename while another resolves
/// it and a path elsewhere. Nothing else links a replaced version, so
/// every rename frees the inode it overwrites. The name never goes
/// missing; once a rename returns, the name resolves to its new version;
/// and a resolve that starts once the replaced inode's link count reads 0
/// never returns it (rename makes every cached path to it stale before
/// freeing it). After each rename the renamer waits for the reader to see
/// the new version, so at most one rename is in flight and a freed slot is
/// not reused while the reader still watches it.
#[test]
fn concurrent_renames_never_serve_a_stale_inode() {
    const ROUNDS: u64 = 400;
    let v = Vfs::new();
    let spin = v.mkdir_p("/spin").unwrap();
    let other = v
        .install_file("/other/stable", b"s", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let version = |name: &str, i: u64| {
        let ino = v
            .create_file(spin, name, Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        v.write_all(ino, i.to_string().as_bytes()).unwrap();
        ino
    };
    let read = |ino: Ino| -> u64 {
        String::from_utf8(v.read_all(ino).unwrap())
            .unwrap()
            .parse()
            .unwrap()
    };
    let mut cur = version("cur", 0);
    let (done, acked) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=ROUNDS {
                while acked.load(Ordering::SeqCst) < i - 1 {
                    std::thread::yield_now();
                }
                version("next", i);
                v.rename(spin, "next", spin, "cur").unwrap();
                done.store(i, Ordering::SeqCst);
            }
        });
        s.spawn(|| {
            let _finish = Finish(&acked);
            let mut seen = 0;
            loop {
                assert_eq!(v.resolve(v.root(), "/other/stable").unwrap().ino, other);
                let floor = done.load(Ordering::SeqCst);
                if floor > seen {
                    // The renamer waits for this ack: nothing is in flight.
                    let r = v.resolve(v.root(), "/spin/cur").unwrap();
                    assert_eq!(read(r.ino), floor, "stale inode after rename {floor}");
                    assert_eq!(v.inode(r.ino).nlink, 1);
                    (cur, seen) = (r.ino, floor);
                    acked.store(floor, Ordering::SeqCst);
                    if floor == ROUNDS {
                        break;
                    }
                    continue;
                }
                // Rename `floor + 1` may be in flight and may free `cur`.
                let freed = v.inode(cur).nlink == 0;
                let r = v.resolve(v.root(), "/spin/cur").unwrap();
                if freed {
                    assert_ne!(r.ino, cur, "resolved a freed inode");
                }
                if r.ino != cur {
                    // The new version stays linked until our next ack.
                    assert_eq!(read(r.ino), floor + 1);
                }
            }
        });
    });
    // Renames in /spin never evicted /other/stable.
    assert!(v.dcache_stats().hits >= ROUNDS);
}

/// One thread moves a directory back and forth between `/a/x` and
/// `/b/x` while another names the directory and the file beneath it,
/// both reached from the moving directory as cwd, so the lookup keys
/// never change while the canonical paths do. Every name returned is one
/// the inode had, and once a rename returns the name is the new one:
/// naming reads each inode's parent and name after recording its
/// parent's generation, so an entry named across a rename is stale. (The
/// directory's own entry records only that parent's generation: the
/// file's also records the directory's, which every move bumps.) The
/// renamer waits for the reader to see each rename, as above. A rename
/// landing inside one naming walk is rare, hence the many rounds.
#[test]
fn concurrent_renames_never_serve_a_stale_canonical_path() {
    const ROUNDS: u64 = 4000;
    let v = Vfs::new();
    let a = v.mkdir_p("/a").unwrap();
    let b = v.mkdir_p("/b").unwrap();
    let f = v
        .install_file("/a/x/f", b"f", Mode(0o644), Uid::ROOT, Gid::ROOT)
        .unwrap();
    let x = v.resolve(v.root(), "/a/x").unwrap().ino;
    // Rename `i` leaves the directory under /b when `i` is odd.
    let name_after = |i: u64| if i % 2 == 1 { "/b/x" } else { "/a/x" };
    let (done, acked) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=ROUNDS {
                while acked.load(Ordering::SeqCst) < i - 1 {
                    std::thread::yield_now();
                }
                let (from, to) = if i % 2 == 1 { (a, b) } else { (b, a) };
                v.rename(from, "x", to, "x").unwrap();
                done.store(i, Ordering::SeqCst);
            }
        });
        s.spawn(|| {
            let _finish = Finish(&acked);
            let mut seen = 0;
            loop {
                let floor = done.load(Ordering::SeqCst);
                let (dir, dir_abs) = v.resolve_canonical(x, ".").unwrap();
                let (file, file_abs) = v.resolve_canonical(x, "f").unwrap();
                assert_eq!((dir.ino, file.ino), (x, f));
                let file_dir = file_abs.as_str().strip_suffix("/f");
                let names = [dir_abs.as_str(), file_dir.expect("the file's name")];
                if floor > seen {
                    // The renamer waits for this ack: nothing is in flight.
                    for name in names {
                        assert_eq!(name, name_after(floor), "after rename {floor}");
                    }
                    seen = floor;
                    acked.store(floor, Ordering::SeqCst);
                    if floor == ROUNDS {
                        break;
                    }
                    continue;
                }
                // Rename `floor + 1` may be in flight.
                for name in names {
                    let had = [name_after(floor), name_after(floor + 1)];
                    assert!(had.contains(&name), "{name} was never a name");
                }
            }
        });
    });
    assert!(v.dcache_stats().hits > 0);
}

/// Through the syscall layer on one shared kernel: a renamer keeps
/// replacing `/spin/cur` with a freshly written version while an opener
/// opens and reads it, so most opens are probes that redo the lookup of
/// `cur`. The opener never gets `ENOENT`, never reads a freed inode or
/// another file's bytes (every read is a whole version number), never
/// goes back to an older version, and once a rename returns it reads the
/// new version. The renamer waits for the opener to see each version, as
/// above, and each rename frees the version it replaces: an open pins the
/// inode its walk found only while the walk's last lookup still binds it,
/// and walks again otherwise, so it never opens a freed inode (read
/// emptied) or a slot reused for the next version's staging file.
#[test]
fn a_renamer_racing_an_opener_on_a_shared_kernel_never_serves_a_wrong_file() {
    const ROUNDS: u64 = 400;
    let (k, root) = boot();
    let k = SharedKernel::new(k);
    k.vfs.mkdir_p("/spin").unwrap();
    let opener = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/cat");
    let version = |i: u64| {
        let body = format!("version {i}");
        k.write_file(root, "/spin/next", body.as_bytes(), Mode(0o644))
            .unwrap();
        k.sys_rename(root, "/spin/next", "/spin/cur").unwrap();
    };
    version(0);
    let (done, acked) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=ROUNDS {
                while acked.load(Ordering::SeqCst) < i - 1 {
                    std::thread::yield_now();
                }
                version(i);
                done.store(i, Ordering::SeqCst);
            }
        });
        s.spawn(|| {
            let _finish = Finish(&acked);
            let mut last = 0;
            loop {
                let floor = done.load(Ordering::SeqCst);
                let text = k.read_to_string(opener, "/spin/cur").unwrap();
                let read: u64 = match text.strip_prefix("version ") {
                    Some(n) => n.parse().unwrap(),
                    None => panic!("read {text:?}, not a version"),
                };
                assert!(read >= last, "read version {read} after {last}");
                assert!(read == floor || read == floor + 1, "{read} at {floor}");
                last = read;
                if read == floor && floor > acked.load(Ordering::SeqCst) {
                    acked.store(floor, Ordering::SeqCst);
                    if floor == ROUNDS {
                        break;
                    }
                }
            }
        });
    });
    assert!(k.vfs.dcache_stats().hits >= ROUNDS);
}

#[test]
fn invalidation_counter_advances_on_flush() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.sys_unlink(root, "/data/a.txt").unwrap();
    let before = k.vfs.dcache_stats().invalidations;
    // The next probe of a.txt finds /data's generation moved and the name
    // gone, so it drops the entry and walks.
    let _ = k.read_to_string(root, "/data/a.txt");
    assert!(k.vfs.dcache_stats().invalidations > before);
}

#[test]
fn proc_metrics_reports_intern_counters() {
    let (k, root) = boot();
    // First resolve interns the components; repeats hit the interner.
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let text = k.read_to_string(root, "/proc/null/metrics").unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("cache_intern "))
        .expect("metrics must carry a cache_intern line");
    assert!(
        !line.contains("hits=0 "),
        "intern hits must be nonzero after repeated resolves: {}",
        line
    );
}

#[test]
fn proc_metrics_reports_dcache_counters() {
    let (k, root) = boot();
    k.read_to_string(root, "/data/a.txt").unwrap();
    k.read_to_string(root, "/data/a.txt").unwrap();
    let text = k.read_to_string(root, "/proc/null/metrics").unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("cache_dcache "))
        .expect("metrics must carry a cache_dcache line");
    assert!(
        !line.contains("hits=0 "),
        "dcache hits must be nonzero: {}",
        line
    );
}
