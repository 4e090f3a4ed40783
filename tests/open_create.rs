//! `open(2)` with `O_CREAT` resolves the parent once and looks up the last
//! name in it: an absent name is created, a regular file reuses the
//! parent's walk, and every other case falls through to the full walk of
//! the whole path. Each case must return the errno, or open the inode,
//! that the full walk alone returns — the same on both images, for a user
//! and, where permissions decide, for root.

use protego::kernel::error::{Errno, KResult};
use protego::kernel::syscall::OpenFlags;
use protego::kernel::task::FdObject;
use protego::kernel::vfs::{Ino, Mode};
use protego::kernel::Pid;
use protego::userland::{boot, System, SystemMode};

/// Builds the tree every case opens into, as root:
///
/// ```text
/// /srv/oc            0777  file 0666, dir/, link -> file, dangling -> missing
/// /srv/locked        0700  inner/ 0777 holding file 0666
/// /srv/ro            0755  file 0666
/// ```
fn fixture(mode: SystemMode) -> (System, Pid, Pid) {
    let mut sys = boot(mode);
    let root = sys.login("root", "rootpw").unwrap();
    let alice = sys.login("alice", "alicepw").unwrap();
    let k = &sys.kernel;
    k.vfs.mkdir_p("/srv").unwrap();
    for (dir, m) in [
        ("/srv/oc", 0o777),
        ("/srv/oc/dir", 0o755),
        ("/srv/locked", 0o700),
        ("/srv/locked/inner", 0o777),
        ("/srv/ro", 0o755),
    ] {
        k.sys_mkdir(root, dir, Mode(m)).unwrap();
        k.sys_chmod(root, dir, Mode(m)).unwrap();
    }
    for file in ["/srv/oc/file", "/srv/locked/inner/file", "/srv/ro/file"] {
        k.write_file(root, file, b"x", Mode(0o666)).unwrap();
        k.sys_chmod(root, file, Mode(0o666)).unwrap();
    }
    k.sys_symlink(root, "/srv/oc/file", "/srv/oc/link").unwrap();
    k.sys_symlink(root, "/srv/oc/missing", "/srv/oc/dangling")
        .unwrap();
    (sys, root, alice)
}

/// Opens `path` with `O_WRONLY|O_CREAT|O_TRUNC` (plus `O_EXCL` when
/// `excl`) and returns the inode the descriptor refers to.
fn open_create(sys: &System, pid: Pid, path: &str, excl: bool) -> KResult<Ino> {
    let mut flags = OpenFlags::create_trunc(Mode(0o644));
    flags.excl = excl;
    let fd = sys.kernel.sys_open(pid, path, flags)?;
    let ino = match sys.kernel.task(pid)?.fd(fd)?.object {
        FdObject::File { ino, .. } => ino,
        _ => unreachable!("open returned a non-file descriptor"),
    };
    sys.kernel.sys_close(pid, fd)?;
    Ok(ino)
}

/// The inode `path` names now, as root sees it.
fn ino_of(sys: &System, root: Pid, path: &str) -> Ino {
    sys.kernel.sys_stat(root, path).unwrap().ino
}

#[test]
fn o_creat_returns_the_full_walks_errno_and_inode_on_both_images() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let (sys, root, alice) = fixture(mode);
        let file = ino_of(&sys, root, "/srv/oc/file");
        let locked_file = ino_of(&sys, root, "/srv/locked/inner/file");
        let ro_file = ino_of(&sys, root, "/srv/ro/file");
        let check = |pid: Pid, path: &str, excl: bool, want: KResult<Ino>| {
            assert_eq!(
                open_create(&sys, pid, path, excl),
                want,
                "{mode:?}: pid {pid:?} opening {path:?} (excl {excl})"
            );
        };

        // A new file is created, owned by its creator.
        let new = open_create(&sys, alice, "/srv/oc/new", false).unwrap();
        assert_eq!(new, ino_of(&sys, root, "/srv/oc/new"));
        assert_ne!(new, file);
        let alice_uid = sys.kernel.task(alice).unwrap().cred.fsuid;
        let st = sys.kernel.sys_stat(root, "/srv/oc/new").unwrap();
        assert_eq!((st.uid, st.mode), (alice_uid, Mode(0o644)));
        // An existing file is opened, not replaced; O_EXCL refuses it.
        check(alice, "/srv/oc/file", false, Ok(file));
        check(alice, "/srv/oc/new", false, Ok(new));
        check(alice, "/srv/oc/file", true, Err(Errno::EEXIST));
        // A directory cannot be opened for writing.
        check(alice, "/srv/oc/dir", false, Err(Errno::EISDIR));
        check(alice, "/srv/oc/dir", true, Err(Errno::EEXIST));
        // A symlink to a file opens the file; a dangling one is an
        // existing name in its directory.
        check(alice, "/srv/oc/link", false, Ok(file));
        check(alice, "/srv/oc/link", true, Err(Errno::EEXIST));
        check(alice, "/srv/oc/dangling", false, Err(Errno::EEXIST));
        // A missing parent, and a parent that is a file.
        check(alice, "/srv/nope/x", false, Err(Errno::ENOENT));
        check(alice, "/srv/oc/file/x", false, Err(Errno::ENOTDIR));
        check(alice, "/srv/oc/link/x", false, Err(Errno::ENOTDIR));
        // A trailing slash names the same entry as the bare path.
        let slashed = open_create(&sys, alice, "/srv/oc/slashed/", false).unwrap();
        assert_eq!(slashed, ino_of(&sys, root, "/srv/oc/slashed"));
        check(alice, "/srv/oc/file/", false, Ok(file));
        check(alice, "/srv/oc/file/.", false, Ok(file));
        // An unsearchable ancestor denies before O_EXCL can say EEXIST,
        // whether or not the name exists; root searches anyway.
        check(alice, "/srv/locked/inner/new", false, Err(Errno::EACCES));
        check(alice, "/srv/locked/inner/file", false, Err(Errno::EACCES));
        check(alice, "/srv/locked/inner/file", true, Err(Errno::EACCES));
        check(root, "/srv/locked/inner/file", false, Ok(locked_file));
        check(root, "/srv/locked/inner/file", true, Err(Errno::EEXIST));
        // An unwritable parent refuses a new name but not an existing file.
        check(alice, "/srv/ro/new", false, Err(Errno::EACCES));
        check(alice, "/srv/ro/file", false, Ok(ro_file));
        check(alice, "/srv/ro/file", true, Err(Errno::EEXIST));
        // `..` as the last name, and relative paths from the cwd.
        check(alice, "/srv/oc/dir/..", false, Err(Errno::EISDIR));
        sys.kernel.sys_chdir(alice, "/srv/oc").unwrap();
        check(alice, "file", false, Ok(file));
        check(alice, "dir/../file", false, Ok(file));
        let rel = open_create(&sys, alice, "rel", false).unwrap();
        assert_eq!(rel, ino_of(&sys, root, "/srv/oc/rel"));
        assert_eq!(sys.kernel.sys_stat(root, "/srv/oc/rel").unwrap().size, 0);
    }
}

/// An open refused after its pin drops the pin: a directory opened for
/// writing (`EISDIR`), a DAC denial and, on Protego, the shadow-fragment
/// rule (reading one's own fragment without a fresh authentication) each
/// leave the inode's open count as it was, and a file unlinked after such
/// a refusal is reclaimed.
#[test]
fn an_open_refused_after_its_pin_leaves_the_open_count_as_it_was() {
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        let (sys, root, alice) = fixture(mode);
        let k = &sys.kernel;
        k.write_file(root, "/srv/oc/secret", b"s", Mode(0o600))
            .unwrap();
        k.sys_chmod(root, "/srv/oc/secret", Mode(0o600)).unwrap();
        let mut refused = vec![
            ("/srv/oc/dir", OpenFlags::write_only(), Errno::EISDIR),
            ("/srv/oc/secret", OpenFlags::read_only(), Errno::EACCES),
        ];
        if mode == SystemMode::Protego {
            refused.push(("/etc/shadows/alice", OpenFlags::read_only(), Errno::EACCES));
        }
        for &(path, flags, errno) in &refused {
            let ino = ino_of(&sys, root, path);
            let opens = k.vfs.inode(ino).opens;
            assert_eq!(
                k.sys_open(alice, path, flags),
                Err(errno),
                "{mode:?}: opening {path:?}"
            );
            assert_eq!(k.vfs.inode(ino).opens, opens, "{mode:?}: {path:?}");
        }
        for &(path, ..) in &refused[1..] {
            let ino = ino_of(&sys, root, path);
            k.sys_unlink(root, path).unwrap();
            assert!(
                k.vfs.reclaimed_slots().contains(&ino),
                "{mode:?}: {path:?} was not reclaimed"
            );
        }
    }
}
