//! # apparmor-lsm
//!
//! The paper's baseline: an AppArmor-like security module for the
//! simulated kernel. It *confines* named binaries (path ACLs + capability
//! masks) but never grants privilege a capability check would refuse —
//! every hook either vetoes or falls through to stock Linux policy.
//!
//! This is exactly the property the paper critiques (§1): with AppArmor,
//! least privilege is enforced from the administrator's perspective. A
//! confined-but-compromised `mount` still holds `CAP_SYS_ADMIN` and can
//! re-shape the filesystem tree arbitrarily; the confinement only limits
//! *which files* it touches directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod glob;
mod profile;

pub use glob::{glob_match, CompiledGlob};
pub use profile::{parse_cap_name, parse_profiles, render_profiles, PathAccess, PathRule, Profile};

use sim_kernel::caps::Cap;
use sim_kernel::cred::Credentials;
use sim_kernel::error::{Errno, KResult};
use sim_kernel::lsm::{Decision, FileDecision, FileOpenCtx, RuleId, SecurityModule};
use sim_kernel::sync::lock;
use sim_kernel::trace::CacheStats;
use sim_kernel::vfs::Access;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Bound on the binary→profile resolution cache. Exec identities are few
/// in practice; on overflow the map is flushed wholesale.
const BINARY_CACHE_CAP: usize = 1024;

/// The AppArmor-like module: a set of profiles in enforce mode.
#[derive(Debug)]
pub struct AppArmorLsm {
    profiles: Vec<Profile>,
    /// `profile <binary>` audit label of each profile, interned when the
    /// profiles load; parallel to `profiles`.
    labels: Vec<RuleId>,
    /// Exec identity → index of the governing profile (None = unconfined).
    /// Invalidated whenever profiles reload.
    binary_cache: Mutex<HashMap<String, Option<usize>>>,
    binary_cache_stats: Mutex<CacheStats>,
    /// Hot-path caching toggle; benches flip this off to measure the
    /// interpreted baseline.
    caching: AtomicBool,
}

impl Default for AppArmorLsm {
    fn default() -> AppArmorLsm {
        AppArmorLsm {
            profiles: Vec::new(),
            labels: Vec::new(),
            binary_cache: Mutex::new(HashMap::new()),
            binary_cache_stats: Mutex::new(CacheStats::default()),
            caching: AtomicBool::new(true),
        }
    }
}

impl AppArmorLsm {
    /// A module with no profiles loaded — behaviourally identical to stock
    /// Linux (the measurement baseline).
    pub fn new() -> AppArmorLsm {
        AppArmorLsm::default()
    }

    /// Loads profiles from text, replacing the current set and dropping
    /// the binary→profile cache (the old indices are meaningless).
    pub fn load_text(&mut self, text: &str) -> Result<(), String> {
        self.profiles = parse_profiles(text)?;
        self.labels = self
            .profiles
            .iter()
            .map(|p| RuleId::intern(&format!("profile {}", p.binary)))
            .collect();
        let mut cache = lock(&self.binary_cache);
        if !cache.is_empty() {
            lock(&self.binary_cache_stats).invalidations += 1;
        }
        cache.clear();
        Ok(())
    }

    /// A module preloaded with profiles resembling Ubuntu 12.04's default
    /// confinement of the studied setuid binaries.
    pub fn with_ubuntu_defaults() -> AppArmorLsm {
        let mut a = AppArmorLsm::new();
        a.load_text(UBUNTU_DEFAULT_PROFILES)
            .expect("builtin profiles parse");
        a
    }

    /// Enables or disables the hot-path caches (binary→profile map and the
    /// per-profile decision LRUs). Benches flip this off to measure the
    /// interpreted baseline; correctness is identical either way.
    pub fn set_caching(&self, on: bool) {
        self.caching.store(on, Ordering::Relaxed);
    }

    /// The profile confining `binary`, with its audit label.
    fn profile_for(&self, binary: &str) -> Option<(&Profile, RuleId)> {
        let profile = |i: usize| (&self.profiles[i], self.labels[i]);
        if !self.caching.load(Ordering::Relaxed) {
            return self
                .profiles
                .iter()
                .position(|p| p.matches_binary_interpreted(binary))
                .map(profile);
        }
        {
            let cache = lock(&self.binary_cache);
            if let Some(&idx) = cache.get(binary) {
                lock(&self.binary_cache_stats).hits += 1;
                return idx.map(profile);
            }
        }
        lock(&self.binary_cache_stats).misses += 1;
        let idx = self.profiles.iter().position(|p| p.matches_binary(binary));
        let mut cache = lock(&self.binary_cache);
        if cache.len() >= BINARY_CACHE_CAP {
            cache.clear();
            lock(&self.binary_cache_stats).invalidations += 1;
        }
        cache.insert(binary.to_string(), idx);
        idx.map(profile)
    }

    /// Number of loaded profiles.
    pub fn profile_count(&self) -> usize {
        self.profiles.len()
    }

    /// Counters of the binary→profile resolution cache.
    pub fn binary_cache_stats(&self) -> CacheStats {
        *lock(&self.binary_cache_stats)
    }
}

/// Profiles approximating the Ubuntu baseline: confinement of mount and
/// the ping family. Note every profile must still grant the coarse
/// capability the kernel's hard-coded check demands.
pub const UBUNTU_DEFAULT_PROFILES: &str = r#"
profile /{bin,sbin}/mount {
  capability sys_admin,
  capability dac_override,
  /etc/fstab r,
  /etc/mtab rw,
  /proc/mounts r,
  /dev/** rw,
  /mnt/** rw,
  /media/** rw,
  /bin/mount r,
}
profile /{bin,sbin}/umount {
  capability sys_admin,
  /etc/fstab r,
  /etc/mtab rw,
  /proc/mounts r,
  /mnt/** rw,
  /media/** rw,
  /bin/umount r,
}
profile /{bin,usr/bin}/ping {
  capability net_raw,
  /etc/hosts r,
  /bin/ping r,
}
"#;

impl SecurityModule for AppArmorLsm {
    fn name(&self) -> &'static str {
        "apparmor"
    }

    fn capable(&self, _cred: &Credentials, binary: &str, cap: Cap) -> (Decision, Option<RuleId>) {
        match self.profile_for(binary) {
            Some((p, id)) if !p.check_cap(cap) => (Decision::Deny(Errno::EPERM), Some(id)),
            _ => (Decision::UseDefault, None),
        }
    }

    fn file_open(&self, ctx: &FileOpenCtx) -> (FileDecision, Option<RuleId>) {
        let Some((p, id)) = self.profile_for(ctx.binary) else {
            return (FileDecision::UseDefault, None);
        };
        let allowed = if self.caching.load(Ordering::Relaxed) {
            p.check_path(ctx.path, ctx.access)
        } else {
            p.check_path_interpreted(ctx.path, ctx.access)
        };
        if allowed {
            (FileDecision::UseDefault, None)
        } else {
            (FileDecision::Deny(Errno::EACCES), Some(id))
        }
    }

    fn cache_stats(&self) -> Vec<(&'static str, CacheStats)> {
        let mut decisions = CacheStats::default();
        for p in &self.profiles {
            decisions.merge(&p.decision_cache_stats());
        }
        vec![
            ("apparmor_binary_lookup", self.binary_cache_stats()),
            ("apparmor_decision_lru", decisions),
        ]
    }

    fn config_nodes(&self) -> Vec<&'static str> {
        vec!["profiles"]
    }

    fn config_write(&mut self, node: &str, content: &str) -> KResult<()> {
        match node {
            "profiles" => self.load_text(content).map_err(|_| Errno::EINVAL),
            _ => Err(Errno::ENOENT),
        }
    }

    fn config_read(&self, node: &str) -> KResult<String> {
        match node {
            "profiles" => Ok(render_profiles(&self.profiles)),
            _ => Err(Errno::ENOENT),
        }
    }
}

/// Convenience: evaluates whether a profile set would admit `(binary,
/// path, access)` — used by audit tooling and tests.
pub fn would_allow(profiles: &[Profile], binary: &str, path: &str, access: Access) -> bool {
    match profiles.iter().find(|p| p.matches_binary(binary)) {
        Some(p) => p.check_path(path, access),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_kernel::cred::{Gid, Uid};
    use sim_kernel::kernel::Kernel;
    use sim_kernel::net::SimNet;
    use sim_kernel::vfs::Mode;

    fn boot_with_apparmor() -> (Kernel, sim_kernel::Pid) {
        let k = Kernel::new(SimNet::new());
        k.install_standard_devices().unwrap();
        k.register_lsm(Box::new(AppArmorLsm::with_ubuntu_defaults()))
            .unwrap();
        let root = k.spawn_init();
        k.vfs
            .install_file("/etc/fstab", b"", Mode(0o644), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file("/etc/shadow", b"secret", Mode(0o600), Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.vfs
            .install_file("/bin/mount", b"#!sim", Mode(0o4755), Uid::ROOT, Gid::ROOT)
            .unwrap();
        (k, root)
    }

    #[test]
    fn unconfined_binary_unaffected() {
        let (k, root) = boot_with_apparmor();
        assert!(k.read_file(root, "/etc/shadow").is_ok());
    }

    #[test]
    fn confined_mount_cannot_read_shadow_even_as_root() {
        let (k, root) = boot_with_apparmor();
        // Simulate the exploited /bin/mount: task runs that binary as root.
        k.task_mut(root).unwrap().binary = "/bin/mount".into();
        assert_eq!(k.read_file(root, "/etc/shadow").unwrap_err(), Errno::EACCES);
        // But fstab is within the profile.
        assert!(k.read_file(root, "/etc/fstab").is_ok());
    }

    #[test]
    fn confined_mount_retains_sys_admin() {
        let (k, root) = boot_with_apparmor();
        k.task_mut(root).unwrap().binary = "/bin/mount".into();
        k.vfs.mkdir_p("/mnt/cdrom").unwrap();
        // The paper's critique: the confined binary can still re-arrange
        // the filesystem tree.
        k.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .unwrap();
    }

    #[test]
    fn confined_ping_loses_sys_admin() {
        let (k, root) = boot_with_apparmor();
        k.task_mut(root).unwrap().binary = "/bin/ping".into();
        k.vfs.mkdir_p("/mnt/cdrom").unwrap();
        assert_eq!(
            k.sys_mount(root, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
                .unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn proc_interface_roundtrip() {
        let (k, root) = boot_with_apparmor();
        let text = k.read_to_string(root, "/proc/apparmor/profiles").unwrap();
        assert!(text.contains("profile /{bin,sbin}/mount"));
        // Replace profiles through the /proc interface.
        let fd = k
            .sys_open(
                root,
                "/proc/apparmor/profiles",
                sim_kernel::syscall::OpenFlags::write_only(),
            )
            .unwrap();
        k.sys_write(root, fd, b"profile /bin/x {\n  /etc/hosts r,\n}\n")
            .unwrap();
        k.sys_close(root, fd).unwrap();
        let text = k.read_to_string(root, "/proc/apparmor/profiles").unwrap();
        assert!(text.contains("/bin/x"));
        assert!(!text.contains("mount"));
    }

    #[test]
    fn malformed_profile_write_is_einval() {
        let (k, root) = boot_with_apparmor();
        let fd = k
            .sys_open(
                root,
                "/proc/apparmor/profiles",
                sim_kernel::syscall::OpenFlags::write_only(),
            )
            .unwrap();
        assert_eq!(
            k.sys_write(root, fd, b"profile broken {").unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn config_write_requires_root() {
        let (k, _) = boot_with_apparmor();
        let user = k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh");
        // 0600 root:root — the open itself is refused by DAC.
        assert_eq!(
            k.sys_open(
                user,
                "/proc/apparmor/profiles",
                sim_kernel::syscall::OpenFlags::write_only(),
            )
            .unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn binary_cache_hits_and_reload_invalidation() {
        let mut a = AppArmorLsm::with_ubuntu_defaults();
        assert!(a.profile_for("/bin/mount").is_some());
        assert!(a.profile_for("/bin/mount").is_some());
        assert!(a.profile_for("/bin/unconfined").is_none());
        let s = a.binary_cache_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        // Reload drops the cache: the same binary resolves against the new
        // set, and the invalidation is counted.
        a.load_text("profile /bin/unconfined {\n  /etc/hosts r,\n}\n")
            .unwrap();
        assert_eq!(a.binary_cache_stats().invalidations, 1);
        assert!(a.profile_for("/bin/mount").is_none());
        assert!(a.profile_for("/bin/unconfined").is_some());
    }

    #[test]
    fn caching_toggle_preserves_decisions() {
        let a = AppArmorLsm::with_ubuntu_defaults();
        let root = Credentials::root();
        let ctx = |path: &'static str| FileOpenCtx {
            cred: &root,
            path,
            binary: "/bin/mount",
            access: Access::READ,
            dac_allows: true,
            file_owner: sim_kernel::cred::Uid::ROOT,
            last_auth: None,
            last_auth_scope: None,
            now: 0,
        };
        for path in ["/etc/fstab", "/etc/shadow", "/dev/null"] {
            let cached = a.file_open(&ctx(path));
            a.set_caching(false);
            let interpreted = a.file_open(&ctx(path));
            a.set_caching(true);
            assert_eq!(cached, interpreted, "path {:?}", path);
        }
    }

    #[test]
    fn would_allow_helper() {
        let ps = parse_profiles(UBUNTU_DEFAULT_PROFILES).unwrap();
        assert!(would_allow(&ps, "/bin/mount", "/etc/fstab", Access::READ));
        assert!(!would_allow(&ps, "/bin/mount", "/etc/shadow", Access::READ));
        assert!(would_allow(
            &ps,
            "/bin/unconfined",
            "/etc/shadow",
            Access::READ
        ));
    }
}
