//! What a privileged run copies and reads. A forked child shares its
//! session's environment copy-on-write, so neither a child's `setenv` nor
//! the sanitization of a privilege transition (legacy sudo's and su's in
//! userspace, Protego's `ClearExcept` at exec) reaches the session, and a
//! later fork sees the session's current variables. Protego's `sudo`
//! reads `/etc/passwd` once, for its target; legacy `sudo` still names a
//! non-sudoer in its refusal.

use protego::kernel::cred::{Gid, Uid};
use protego::kernel::task::Pid;
use protego::kernel::vfs::Mode;
use protego::userland::{boot, BinEntry, Proc, System, SystemMode};

/// `printenv`: one `KEY=value` line per variable of the running task.
fn printenv_main(p: &mut Proc<'_>) -> i32 {
    let lines: Vec<String> = match p.sys.kernel.task(p.pid) {
        Ok(t) => t.env().iter().map(|(k, v)| format!("{k}={v}")).collect(),
        Err(e) => return e.as_errno_i32(),
    };
    for line in lines {
        p.println(&line);
    }
    0
}

/// `mode`'s image with `/usr/bin/printenv` installed.
fn boot_with_printenv(mode: SystemMode) -> System {
    let mut sys = boot(mode);
    sys.kernel
        .vfs
        .install_file(
            "/usr/bin/printenv",
            b"#!sim",
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
        )
        .expect("install printenv");
    sys.register(
        "/usr/bin/printenv",
        BinEntry {
            func: printenv_main,
            points: &["start"],
        },
    );
    sys
}

fn env_of(sys: &System, pid: Pid) -> Vec<(String, String)> {
    sys.kernel.task(pid).expect("task").env().to_vec()
}

fn names(env: &[(String, String)]) -> Vec<&str> {
    env.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn a_childs_setenv_leaves_its_session_alone_and_a_later_fork_sees_the_session() {
    let mut sys = boot(SystemMode::Protego);
    let alice = sys.login("alice", "alicepw").expect("login");
    let session = env_of(&sys, alice);
    assert_eq!(
        names(&session),
        ["PATH", "HOME", "USER", "LANG", "LD_PRELOAD_GUARD"]
    );

    let first = sys.kernel.sys_fork(alice).expect("fork");
    assert_eq!(env_of(&sys, first), session);
    {
        let mut t = sys.kernel.task_mut(first).expect("child");
        t.setenv("HOME", "/tmp");
        t.setenv("EDITOR", "vi");
    }
    assert_eq!(env_of(&sys, alice), session);
    assert_eq!(sys.kernel.task(first).unwrap().getenv("HOME"), Some("/tmp"));

    // The session changes after the first fork: a later child sees the
    // change, the earlier one does not.
    sys.kernel
        .task_mut(alice)
        .unwrap()
        .setenv("LANG", "de_DE.UTF-8");
    let second = sys.kernel.sys_fork(alice).expect("fork");
    assert_eq!(env_of(&sys, second), env_of(&sys, alice));
    assert_eq!(
        sys.kernel.task(second).unwrap().getenv("LANG"),
        Some("de_DE.UTF-8")
    );
    assert_eq!(
        sys.kernel.task(first).unwrap().getenv("LANG"),
        Some("en_US.UTF-8")
    );
}

#[test]
fn legacy_sudo_and_su_sanitize_only_the_child() {
    let mut sys = boot_with_printenv(SystemMode::Legacy);
    let root = sys.login("root", "rootpw").expect("login");
    let alice = sys.login("alice", "alicepw").expect("login");
    let (root_env, alice_env) = (env_of(&sys, root), env_of(&sys, alice));

    let r = sys
        .run(root, "/usr/bin/sudo", &["/usr/bin/printenv"], &["rootpw"])
        .expect("sudo");
    assert_eq!(r.code, 0, "{}", r.stdout);
    assert_eq!(
        r.stdout,
        "PATH=/usr/sbin:/usr/bin:/sbin:/bin\nLANG=en_US.UTF-8\n"
    );
    let r = sys
        .run(
            alice,
            "/bin/su",
            &["bob", "-c", "/usr/bin/printenv"],
            &["bobpw"],
        )
        .expect("su");
    assert_eq!(r.code, 0, "{}", r.stdout);
    assert_eq!(r.stdout, "PATH=/usr/sbin:/usr/bin:/sbin:/bin\n");

    assert_eq!(env_of(&sys, root), root_env);
    assert_eq!(env_of(&sys, alice), alice_env);
}

#[test]
fn protego_exec_transition_clears_only_the_child() {
    let mut sys = boot(SystemMode::Protego);
    let bob = sys.login("bob", "bobpw").expect("login");
    let session = env_of(&sys, bob);
    let child = sys.kernel.sys_fork(bob).expect("fork");
    sys.kernel.task_mut(child).unwrap().type_input("bobpw");
    // bob's lpr rule: a pending transition, applied at exec with
    // `ClearExcept` of the rule's kept names.
    sys.kernel.sys_setuid(child, Uid(1000)).expect("setuid");
    sys.kernel.sys_execve(child, "/usr/bin/lpr").expect("exec");
    assert_eq!(sys.kernel.task(child).unwrap().cred.euid, Uid(1000));
    assert_eq!(names(&env_of(&sys, child)), ["PATH", "LANG"]);
    assert_eq!(env_of(&sys, bob), session);
}

#[test]
fn legacy_sudo_names_a_non_sudoer() {
    let mut sys = boot(SystemMode::Legacy);
    let alice = sys.login("alice", "alicepw").expect("login");
    let r = sys
        .run(alice, "/usr/bin/sudo", &["/bin/id"], &["alicepw"])
        .expect("sudo");
    assert_eq!(r.code, 1);
    assert_eq!(
        r.stdout,
        "sudo: alice is not in the sudoers file. This incident will be reported.\n"
    );
}

/// A Protego `sudo /bin/id` is 9 kernel entries, one of them the open of
/// `/etc/passwd` that looks up its target.
#[test]
fn protego_sudo_opens_the_passwd_file_once() {
    let mut sys = boot(SystemMode::Protego);
    let carol = sys.login("carol", "carolpw").expect("login");
    let trace = sys.attach_recorder();
    let r = sys
        .run(carol, "/usr/bin/sudo", &["/bin/id"], &["carolpw"])
        .expect("sudo");
    assert_eq!(r.code, 0, "{}", r.stdout);
    assert!(r.stdout.contains("euid=0"), "{}", r.stdout);
    let trace = trace.lock().unwrap();
    let opens: Vec<&str> = trace
        .entries
        .iter()
        .map(|e| e.call.as_str())
        .filter(|call| call.starts_with("Open ") && call.contains("\"/etc/passwd\""))
        .collect();
    assert_eq!(opens.len(), 1, "{opens:?}");
    // fork, execve, the target's open/read/close, setuid, execve, exit
    // and wait.
    assert_eq!(trace.len(), 9, "{}", trace.render());
}
