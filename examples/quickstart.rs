//! Quickstart: Figure 1 as a runnable trace.
//!
//! Boots both systems and walks the mount example: who is trusted, where
//! the policy is checked, and what an unprivileged user can and cannot
//! do. Run with `cargo run --example quickstart`.

use protego::userland::{boot, SystemMode};

fn main() {
    println!("=== Figure 1: the mount system call on Linux vs Protego ===\n");

    // ------------------------------------------------------------------
    // Stock Linux: trust lives in the setuid /bin/mount binary.
    // ------------------------------------------------------------------
    println!("--- Linux (AppArmor baseline) ---");
    let mut linux = boot(SystemMode::Legacy);
    let init = linux.init_pid();
    let st = linux.kernel.sys_stat(init, "/bin/mount").unwrap();
    println!(
        "/bin/mount is {} owned by uid {} => the binary IS the policy engine",
        st.mode.render(),
        st.uid.0
    );

    let alice = linux.login("alice", "alicepw").unwrap();
    linux.kernel.set_trace(true);

    let r = linux
        .run(alice, "/bin/mount", &["/mnt/cdrom"], &[])
        .unwrap();
    print!("{}", r.stdout);
    println!("  (the setuid binary checked /etc/fstab itself, then called mount() as root)");

    let r = linux
        .run(
            alice,
            "/bin/mount",
            &["/dev/cdrom", "/etc", "iso9660", "ro"],
            &[],
        )
        .unwrap();
    print!("{}", r.stdout);
    println!("  (the *binary* refused; the kernel would have allowed it — euid was 0)\n");
    let _ = linux.run(alice, "/bin/umount", &["/mnt/cdrom"], &[]);

    // ------------------------------------------------------------------
    // Protego: trust lives in the kernel; mount is just a program.
    // ------------------------------------------------------------------
    println!("--- Protego ---");
    let mut protego = boot(SystemMode::Protego);
    let init = protego.init_pid();
    let st = protego.kernel.sys_stat(init, "/bin/mount").unwrap();
    println!(
        "/bin/mount is {} => no privilege anywhere in userspace",
        st.mode.render()
    );
    let policy = protego
        .kernel
        .read_to_string(init, "/proc/protego/mounts")
        .unwrap();
    println!("kernel whitelist (from /etc/fstab via the monitoring daemon):");
    for line in policy.lines() {
        println!("  {}", line);
    }

    let alice = protego.login("alice", "alicepw").unwrap();
    protego.kernel.set_trace(true);

    let r = protego
        .run(alice, "/bin/mount", &["/mnt/cdrom"], &[])
        .unwrap();
    print!("{}", r.stdout);

    let r = protego
        .run(
            alice,
            "/bin/mount",
            &["/dev/cdrom", "/etc", "iso9660", "ro"],
            &[],
        )
        .unwrap();
    print!("{}", r.stdout);
    println!("  (the *kernel* refused: /etc is not whitelisted — even a buggy mount can't do it)");

    // Only the mounting user may umount a "user" entry.
    let bob = protego.login("bob", "bobpw").unwrap();
    let r = protego
        .run(bob, "/bin/umount", &["/mnt/cdrom"], &[])
        .unwrap();
    print!("{}", r.stdout);
    let r = protego
        .run(alice, "/bin/umount", &["/mnt/cdrom"], &[])
        .unwrap();
    print!("{}", r.stdout);

    println!("\nkernel audit trail (Protego):");
    for ev in protego.kernel.audit.events() {
        println!("  {}", ev.render());
    }

    // The admin edits fstab; the monitoring daemon re-syncs the kernel.
    println!("\n--- live policy update ---");
    let root = protego.login("root", "rootpw").unwrap();
    protego
        .kernel
        .append_file(
            root,
            "/etc/fstab",
            b"/dev/cdrom /mnt/backup iso9660 ro,users,noauto 0 0\n",
        )
        .unwrap();
    protego.kernel.vfs.mkdir_p("/mnt/backup").unwrap();
    protego.sync_policies().unwrap();
    let r = protego
        .run(alice, "/bin/mount", &["/mnt/backup"], &[])
        .unwrap();
    print!("{}", r.stdout);
    println!("  (fstab edit -> monitord -> /proc/protego/mounts -> kernel, no new setuid code)");
}
