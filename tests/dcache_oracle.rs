//! Differential oracles for the dcache.
//!
//! Whole runs: each image boots twice, once with the dcache on and once
//! with it off, and runs the same script of privileged-utility runs
//! (mount, umount, ping, sudo, su, newgrp, lpr) interleaved with mail
//! deliveries, web requests and spool drains. Every observable output must
//! match: exit codes, stdout, the rendered audit stream, and the final
//! `/var/mail`, `/etc/mtab` and `/mnt` contents.
//!
//! The canonical path a dcache entry carries: after each namespace change
//! that moves an inode's path (an ancestor rename, a symlink left
//! dangling, a removed cwd whose name a new directory takes, a mount over
//! an ancestor, a medium mounted elsewhere), the path recorded in an opened
//! descriptor is `Vfs::path_of` of its inode, with the dcache on and
//! off; and Protego's keyfile rule decides on that path, however the
//! caller spelled it. A name replaced by rename, unlink and recreate, a
//! directory and a symlink opens what it binds now, under every spelling.

use protego::core::ProtegoLsm;
use protego::kernel::cred::{Credentials, Gid, Uid};
use protego::kernel::error::{Errno, KResult};
use protego::kernel::kernel::Kernel;
use protego::kernel::net::SimNet;
use protego::kernel::syscall::OpenFlags;
use protego::kernel::task::FdObject;
use protego::kernel::vfs::Mode;
use protego::kernel::Pid;
use protego::userland::workload;
use protego::userland::{boot, System, SystemMode};

/// Cycles of the script; each mounts and unmounts `/mnt/cdrom` once.
const CYCLES: usize = 6;

/// Who runs what, with which terminal input.
const RUNS: [(usize, &str, &[&str], &[&str]); 9] = [
    (0, "/bin/mount", &["/mnt/cdrom"], &[]),
    (0, "/bin/ping", &["10.0.0.1"], &[]),
    (2, "/usr/bin/sudo", &["/bin/id"], &["carolpw"]),
    (
        1,
        "/usr/bin/sudo",
        &["-u", "alice", "/usr/bin/lpr", "hello"],
        &["bobpw"],
    ),
    (0, "/usr/bin/lpr", &["report"], &[]),
    (0, "/bin/su", &["bob"], &["bobpw"]),
    (0, "/usr/bin/newgrp", &["staff"], &[]),
    (0, "/usr/bin/sudo", &["/bin/id"], &["alicepw"]),
    (0, "/bin/umount", &["/mnt/cdrom"], &[]),
];

const USERS: [(&str, &str); 3] = [("alice", "alicepw"), ("bob", "bobpw"), ("carol", "carolpw")];

/// Runs the script on a fresh `mode` image and returns everything it
/// observed, plus the dcache hits the script made.
fn transcript(mode: SystemMode, dcache: bool) -> (Vec<String>, u64) {
    let mut sys = boot(mode);
    sys.kernel.vfs.set_dcache_enabled(dcache);
    sys.kernel.set_trace(true);
    let hits = sys.kernel.vfs.dcache_stats().hits;
    let mut out = Vec::new();
    let mail = workload::start_mail_service(&mut sys).expect("exim4");
    let web = workload::start_web_service(&mut sys).expect("httpd");
    let client = workload::client_session(&mut sys).expect("client");
    let sessions: Vec<Pid> = USERS
        .iter()
        .map(|(user, pw)| sys.login(user, pw).expect("login"))
        .collect();
    for cycle in 0..CYCLES {
        for (i, (user, path, args, input)) in RUNS.iter().enumerate() {
            sys.kernel.advance_clock(400);
            let line = match sys.run(sessions[*user], path, args, input) {
                Ok(r) => format!("{path} {args:?}: code={} stdout={:?}", r.code, r.stdout),
                Err(e) => format!("{path} {args:?}: {e}"),
            };
            out.push(line);
            let rcpt = ["alice", "bob"][(cycle + i) % 2];
            let body = format!("cycle {cycle} run {i}");
            let delivered = workload::mail_delivery(&mut sys, client, mail, rcpt, &body);
            out.push(format!("mail {rcpt}: {delivered:?}"));
            out.push(format!(
                "web: {:?}",
                workload::web_request(&mut sys, client, web)
            ));
            out.extend(snapshot(&mut sys));
        }
        if cycle % 2 == 1 {
            workload::drain_spools(&mut sys, mail);
        }
    }
    out.extend(sys.kernel.audit.events().iter().map(|ev| ev.render()));
    (out, sys.kernel.vfs.dcache_stats().hits - hits)
}

/// The mail spools, the mount table file and the tree under `/mnt`, as
/// init sees them.
fn snapshot(sys: &mut System) -> Vec<String> {
    let init = sys.init_pid();
    let k = &sys.kernel;
    let mut out = Vec::new();
    for path in ["/var/mail/alice", "/var/mail/bob", "/etc/mtab"] {
        out.push(format!("{path}: {:?}", k.read_to_string(init, path)));
    }
    out.push(format!("/var/mail: {:?}", k.sys_readdir(init, "/var/mail")));
    let mnt = k.sys_readdir(init, "/mnt").unwrap_or_default();
    for entry in &mnt {
        let path = format!("/mnt/{entry}");
        out.push(format!("{path}: {:?}", k.sys_readdir(init, &path)));
    }
    out.push(format!("/mnt: {mnt:?}"));
    out
}

#[test]
fn dcache_on_and_off_give_identical_runs_on_both_images() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let (cached, hits) = transcript(mode, true);
        let (uncached, no_hits) = transcript(mode, false);
        assert!(hits > 0, "{mode:?}: the cached run must hit the dcache");
        assert_eq!(no_hits, 0, "{mode:?}: the uncached run must not");
        assert_eq!(cached.len(), uncached.len(), "{mode:?}");
        for (a, b) in cached.iter().zip(&uncached) {
            assert_eq!(a, b, "{mode:?}: dcache on vs off");
        }
        // The script did what it says: mounts succeeded and were audited.
        assert!(cached
            .iter()
            .any(|l| l.contains("/bin/mount") && l.contains("code=0")));
        assert!(
            cached.iter().any(|l| l.contains("hook=sb_mount")),
            "{mode:?}"
        );
    }
}

/// A Protego kernel with the standard devices, the dcache `on` or off,
/// and init's pid.
fn kernel(dcache: bool) -> (Kernel, Pid) {
    let k = Kernel::new(SimNet::new());
    k.install_standard_devices().expect("devices");
    k.register_lsm(Box::new(ProtegoLsm::new())).expect("lsm");
    k.vfs.set_dcache_enabled(dcache);
    let init = k.spawn_init();
    (k, init)
}

/// Opens `path` read-only as `pid` twice (a miss, then a hit when the
/// dcache is on) and returns the path each descriptor recorded, after
/// checking that both name the inode as `Vfs::path_of` does.
fn opened(k: &Kernel, pid: Pid, path: &str) -> KResult<String> {
    let mut names = Vec::new();
    for _ in 0..2 {
        let fd = k.sys_open(pid, path, OpenFlags::read_only())?;
        let (ino, name) = match &k.task(pid)?.fd(fd)?.object {
            FdObject::File { ino, path, .. } => (*ino, path.as_str()),
            other => panic!("{path}: not a file: {other:?}"),
        };
        k.sys_close(pid, fd)?;
        assert_eq!(name, k.vfs.path_of(ino), "{path}: descriptor vs path_of");
        names.push(name.to_string());
    }
    assert_eq!(names[0], names[1], "{path}: miss vs hit");
    Ok(names.swap_remove(0))
}

#[test]
fn opened_paths_are_path_of_after_every_namespace_change() {
    for dcache in [true, false] {
        let (k, init) = kernel(dcache);
        let ok = |path: &str, want: &str| {
            assert_eq!(opened(&k, init, path).as_deref(), Ok(want), "{path}");
        };
        let gone = |path: &str| {
            assert_eq!(opened(&k, init, path), Err(Errno::ENOENT), "{path}");
        };
        let install = |path: &str| {
            k.vfs
                .install_file(path, b"x", Mode(0o644), Uid::ROOT, Gid::ROOT)
                .expect(path);
        };
        install("/srv/a/b/f");
        install("/srv/a/b/h");
        ok("/srv/a/b/f", "/srv/a/b/f");
        k.sys_chdir(init, "/srv/a/b").expect("chdir");
        ok("f", "/srv/a/b/f");
        ok("../b/f", "/srv/a/b/f");

        // An ancestor rename renames every path below it, also the ones
        // reached from a cwd inside it.
        k.sys_rename(init, "/srv/a", "/srv/z").expect("rename");
        ok("f", "/srv/z/b/f");
        ok("../b/f", "/srv/z/b/f");
        ok("./f", "/srv/z/b/f");
        ok("/srv/z/b/f", "/srv/z/b/f");
        gone("/srv/a/b/f");

        // A symlink hop names the target; renaming past the link leaves
        // it dangling.
        k.sys_symlink(init, "/srv/z/b", "/srv/l").expect("symlink");
        k.sys_symlink(init, "z/b/f", "/srv/lf").expect("symlink");
        ok("/srv/l/f", "/srv/z/b/f");
        ok("/srv/lf", "/srv/z/b/f");
        k.sys_rename(init, "/srv/z", "/srv/y").expect("rename");
        gone("/srv/l/f");
        gone("/srv/lf");
        ok("f", "/srv/y/b/f");

        // A removed cwd keeps no name, also once a new directory takes
        // its old one.
        k.vfs.mkdir_p("/tmp").expect("tmp");
        k.sys_mkdir(init, "/tmp/d", Mode(0o755)).expect("mkdir");
        k.sys_chdir(init, "/tmp/d").expect("chdir");
        k.sys_rmdir(init, "/tmp/d").expect("rmdir");
        k.sys_mkdir(init, "/tmp/d", Mode(0o755)).expect("mkdir");
        let orphan = opened(&k, init, ".").expect(".");
        assert_ne!(orphan, "/tmp/d");
        assert!(orphan.starts_with("/tmp/<ino"), "{orphan}");
        ok("/tmp/d", "/tmp/d");
        k.sys_chdir(init, "/srv/y/b").expect("chdir");

        // A mount over an ancestor hides the absolute path, not the
        // inode reached from a cwd below it; the umount shows it again.
        k.sys_mount(init, "tmpfs", "/srv/y", "tmpfs", "rw")
            .expect("mount");
        gone("/srv/y/b/h");
        ok("h", "/srv/y/b/h");
        k.sys_umount(init, "/srv/y").expect("umount");
        ok("/srv/y/b/h", "/srv/y/b/h");

        // One medium mounted in turn on two mountpoints: its root, the
        // cwd here, is named by wherever it is mounted now.
        k.vfs.mkdir_p("/mnt/cdrom").expect("mountpoint");
        k.vfs.mkdir_p("/media/cd").expect("mountpoint");
        k.sys_mount(init, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .expect("mount");
        k.sys_chdir(init, "/mnt/cdrom").expect("chdir");
        ok("README", "/mnt/cdrom/README");
        k.sys_umount(init, "/mnt/cdrom").expect("umount");
        let unmounted = opened(&k, init, "README").expect("README");
        assert_ne!(unmounted, "/mnt/cdrom/README");
        k.sys_mount(init, "/dev/cdrom", "/media/cd", "iso9660", "ro")
            .expect("mount");
        ok("README", "/media/cd/README");
        ok("/media/cd/README", "/media/cd/README");
        gone("/mnt/cdrom/README");
        k.sys_umount(init, "/media/cd").expect("umount");
        k.sys_mount(init, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .expect("mount");
        ok("README", "/mnt/cdrom/README");
        ok("../cdrom/README", "/mnt/cdrom/README");
    }
}

/// A name replaced again and again, as a mail spool is: renamed over,
/// unlinked and recreated, replaced by a directory and by a symlink. After
/// each change every spelling of the name opens what it binds now, named
/// as `Vfs::path_of` names it, and reads that file's bytes, with the dcache
/// on (where the plain spellings redo only the last lookup) and off.
#[test]
fn a_replaced_name_opens_what_it_binds_now() {
    const SPELLINGS: [&str; 5] = ["/spool/box", "box", "/spool/./box", "../spool/box", "/lnk"];
    for dcache in [true, false] {
        let (k, init) = kernel(dcache);
        k.vfs.mkdir_p("/spool").expect("spool");
        k.sys_symlink(init, "/spool/box", "/lnk").expect("symlink");
        k.sys_chdir(init, "/spool").expect("chdir");
        let write = |path: &str, body: &str| {
            k.write_file(init, path, body.as_bytes(), Mode(0o644))
                .expect(path);
        };
        let all = |want: KResult<&str>, body: Option<&str>| {
            for path in SPELLINGS {
                assert_eq!(opened(&k, init, path), want.map(String::from), "{path}");
                if let Some(body) = body {
                    let read = k.read_to_string(init, path);
                    assert_eq!(read.as_deref(), Ok(body), "{path}");
                }
            }
        };
        write("/spool/box", "v0");
        all(Ok("/spool/box"), Some("v0"));
        for i in 1..4 {
            let body = format!("v{i}");
            write("/spool/.box.tmp", &body);
            k.sys_rename(init, "/spool/.box.tmp", "/spool/box")
                .expect("rename over");
            all(Ok("/spool/box"), Some(&body));
        }
        k.sys_unlink(init, "/spool/box").expect("unlink");
        all(Err(Errno::ENOENT), None);
        write("/spool/box", "again");
        all(Ok("/spool/box"), Some("again"));
        k.sys_unlink(init, "/spool/box").expect("unlink");
        k.sys_mkdir(init, "/spool/box", Mode(0o755)).expect("mkdir");
        all(Ok("/spool/box"), None);
        k.sys_rmdir(init, "/spool/box").expect("rmdir");
        write("/spool/other", "other");
        k.sys_symlink(init, "other", "/spool/box").expect("symlink");
        all(Ok("/spool/other"), Some("other"));
        write("/spool/.box.tmp", "last");
        k.sys_rename(init, "/spool/.box.tmp", "/spool/box")
            .expect("rename over the symlink");
        all(Ok("/spool/box"), Some("last"));
    }
}

/// Protego's binary-identity rule for the ssh host key keys on the path
/// the kernel resolved: ssh-keysign reads the key through a symlink, a
/// relative path and `..`, and any other binary is refused through each
/// of them, root included (DAC alone would let root read it).
#[test]
fn keyfile_rule_keys_on_the_canonical_path_however_it_is_spelled() {
    const KEY: &str = "/etc/ssh/ssh_host_key";
    const SPELLINGS: [&str; 5] = [
        KEY,
        "/tmp/key",
        "ssh_host_key",
        "../ssh/ssh_host_key",
        "/etc/./ssh/../ssh/ssh_host_key",
    ];
    for dcache in [true, false] {
        let (k, init) = kernel(dcache);
        k.vfs
            .install_file(KEY, b"key", Mode(0o600), Uid::ROOT, Gid::ROOT)
            .expect("host key");
        k.vfs.mkdir_p("/tmp").expect("tmp");
        k.sys_symlink(init, KEY, "/tmp/key").expect("symlink");
        let fd = k
            .sys_open(init, "/proc/protego/keyfiles", OpenFlags::write_only())
            .expect("keyfiles");
        k.sys_write(init, fd, format!("{KEY} /usr/lib/ssh-keysign\n").as_bytes())
            .expect("rule");
        k.sys_close(init, fd).expect("close");

        let user = Credentials::user(Uid(1000), Gid(1000));
        let keysign = k.spawn_session(user.clone(), "/usr/lib/ssh-keysign");
        let cat = k.spawn_session(user, "/bin/cat");
        let root_cat = k.spawn_session(Credentials::root(), "/bin/cat");
        for pid in [keysign, cat, root_cat] {
            k.sys_chdir(pid, "/etc/ssh").expect("chdir");
        }
        for path in SPELLINGS {
            assert_eq!(opened(&k, keysign, path).as_deref(), Ok(KEY), "{path}");
            assert_eq!(opened(&k, cat, path), Err(Errno::EACCES), "{path}");
            assert_eq!(opened(&k, root_cat, path), Err(Errno::EACCES), "{path}");
        }
        let denials = k
            .audit
            .events()
            .iter()
            .filter(|e| e.is_denial() && e.render().contains(KEY))
            .count();
        assert_eq!(
            denials,
            2 * SPELLINGS.len(),
            "every denial names the canonical path"
        );
    }
}
