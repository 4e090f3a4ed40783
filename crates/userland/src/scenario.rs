//! Adversarial scenario programs over the typed [`Syscall`] ABI — the
//! executable substrate of `tables fuzz` (ROADMAP item 3).
//!
//! A [`Scenario`] is a deterministic little program: an optional fault
//! plan (a seeded errno storm and/or scheduled one-shots for the
//! [`FaultInjector`](sim_kernel::syscall::FaultInjector)) followed by a
//! list of [`ScenarioOp`]s executed by a fixed cast of actors (root,
//! alice, bob) against a freshly booted [`System`]. Ops mix raw
//! unprivileged syscalls (namespace churn in a `/tmp/fuzz` scratch tree,
//! credential dances) with *program-level* privileged operations —
//! `/bin/mount` and `/bin/umount` run as real binaries, because that is
//! the level at which the paper promises legacy/Protego equivalence: the
//! legacy setuid binary enforces fstab policy itself while Protego's
//! kernel whitelist decides, and both must leave the caller seeing the
//! same outcome.
//!
//! Running a scenario yields a scenario-level [`Trace`]: one entry per
//! op, `pid` normalized to the actor index (raw pids differ across modes
//! — Protego boots monitord) and `ret` a normalized outcome rendering
//! (inode numbers excluded; they are allocation order, not behavior).
//! [`run_differential`] executes a scenario under both modes and applies
//! the oracles:
//!
//! * **equivalence** — fault-free scenarios must produce byte-identical
//!   traces under legacy and Protego ([`Trace::first_divergence`]);
//! * **determinism** — scenarios with a fault plan are run twice per
//!   mode and must reproduce their own trace byte-identically (faults
//!   perturb *which* calls fail, which may legitimately differ across
//!   modes, so the cross-mode diff is not a sound oracle there);
//! * **security** — no privileged artifacts
//!   ([`privileged_artifacts`]), no VFS namespace invariant violations
//!   ([`vfs_namespace_violations`]), no panics, and a consumed one-shot
//!   fault never fires twice.
//!
//! Scenarios serialize to a line-oriented text form (`scenario/v1`) so
//! failing cases can be committed verbatim to the
//! `tests/fuzz_regressions.rs` corpus and replayed forever; the
//! generator and shrinker live in `bench::fuzz`.

use crate::image::boot;
use crate::system::{System, SystemMode};
use crate::workload::{privileged_artifacts, vfs_namespace_violations};
use sim_kernel::cred::{Gid, Uid};
use sim_kernel::error::Errno;
use sim_kernel::syscall::FaultConfig;
use sim_kernel::task::{NsKind, Pid};
use sim_kernel::trace::{Trace, TraceEntry};
use sim_kernel::vfs::Mode;

/// The fixed cast: `(login, password)` per actor index. Actor 0 is root;
/// scenario ops refer to actors by index, which doubles as the
/// normalized `pid` in the scenario trace.
pub const ACTORS: [(&str, &str); 3] = [("root", "rootpw"), ("alice", "alicepw"), ("bob", "bobpw")];

/// One step of a scenario program. `actor` indexes [`ACTORS`].
///
/// Filesystem and credential ops go straight through the typed dispatch
/// ([`crate::Process`]); `RunMount`/`RunUmount` execute the real
/// binaries through [`System::run`] because raw `mount(2)` from an
/// unprivileged user diverges across modes *by design* (legacy denies
/// without the setuid binary's euid; Protego's kernel whitelist allows
/// fstab user mounts) — the paper's equivalence holds at the program
/// level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioOp {
    /// `mkdir(path, 0o755)`.
    Mkdir {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// `rmdir(path)`.
    Rmdir {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// Write `len` deterministic bytes to `path` (create/truncate).
    WriteFile {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
        /// Payload length in bytes.
        len: usize,
    },
    /// Read the file back; the outcome records the byte count.
    ReadFile {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// `rename(from, to)`.
    Rename {
        /// Actor index.
        actor: usize,
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// `unlink(path)`.
    Unlink {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// `symlink(target, link)`.
    Symlink {
        /// Actor index.
        actor: usize,
        /// Link target (may dangle or loop).
        target: String,
        /// Link path.
        link: String,
    },
    /// `stat(path)`; outcome renders mode/uid/gid/size (not the inode).
    Stat {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// `readdir(path)`; outcome renders the sorted name list.
    Readdir {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
    },
    /// `chmod(path, mode)`.
    Chmod {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
        /// New mode bits.
        mode: u32,
    },
    /// `chown(path, uid, -1)`.
    Chown {
        /// Actor index.
        actor: usize,
        /// Absolute path.
        path: String,
        /// New owner uid.
        uid: u32,
    },
    /// Run `/bin/mount` with the given argv (1 arg = fstab lookup,
    /// 2–4 args = source/target/fstype/options).
    RunMount {
        /// Actor index.
        actor: usize,
        /// Arguments to the binary.
        args: Vec<String>,
    },
    /// Run `/bin/umount <target>`.
    RunUmount {
        /// Actor index.
        actor: usize,
        /// Mountpoint to unmount.
        target: String,
    },
    /// `setuid(uid)` — persists for the actor's later ops.
    Setuid {
        /// Actor index.
        actor: usize,
        /// Target uid.
        uid: u32,
    },
    /// `seteuid(uid)`.
    Seteuid {
        /// Actor index.
        actor: usize,
        /// Target euid.
        uid: u32,
    },
    /// `setgid(gid)`.
    Setgid {
        /// Actor index.
        actor: usize,
        /// Target gid.
        gid: u32,
    },
    /// `setgroups(gids)`.
    Setgroups {
        /// Actor index.
        actor: usize,
        /// Supplementary groups.
        gids: Vec<u32>,
    },
    /// Credential read-back: getuid/geteuid/getgid in one op.
    GetIds {
        /// Actor index.
        actor: usize,
    },
    /// `unshare(kind)`.
    Unshare {
        /// Actor index.
        actor: usize,
        /// Namespace kind.
        kind: NsKind,
    },
    /// Root appends a well-formed line to `/etc/fstab` (policy source).
    FstabAdd {
        /// Device field.
        device: String,
        /// Mountpoint field.
        mountpoint: String,
        /// Filesystem type field.
        fstype: String,
        /// Comma-joined options field.
        options: String,
    },
    /// One monitord poll cycle ([`System::sync_policies`]); a no-op on
    /// legacy, where `mount(8)` re-reads fstab itself — the symmetric
    /// "policy reload" primitive.
    PolicySync,
}

fn ns_kind_name(kind: NsKind) -> &'static str {
    match kind {
        NsKind::User => "user",
        NsKind::Mount => "mount",
        NsKind::Net => "net",
        NsKind::Pid => "pid",
    }
}

fn parse_ns_kind(s: &str) -> Option<NsKind> {
    match s {
        "user" => Some(NsKind::User),
        "mount" => Some(NsKind::Mount),
        "net" => Some(NsKind::Net),
        "pid" => Some(NsKind::Pid),
        _ => None,
    }
}

impl ScenarioOp {
    /// The actor executing this op (0 for root-implicit ops).
    pub fn actor(&self) -> usize {
        match self {
            ScenarioOp::Mkdir { actor, .. }
            | ScenarioOp::Rmdir { actor, .. }
            | ScenarioOp::WriteFile { actor, .. }
            | ScenarioOp::ReadFile { actor, .. }
            | ScenarioOp::Rename { actor, .. }
            | ScenarioOp::Unlink { actor, .. }
            | ScenarioOp::Symlink { actor, .. }
            | ScenarioOp::Stat { actor, .. }
            | ScenarioOp::Readdir { actor, .. }
            | ScenarioOp::Chmod { actor, .. }
            | ScenarioOp::Chown { actor, .. }
            | ScenarioOp::RunMount { actor, .. }
            | ScenarioOp::RunUmount { actor, .. }
            | ScenarioOp::Setuid { actor, .. }
            | ScenarioOp::Seteuid { actor, .. }
            | ScenarioOp::Setgid { actor, .. }
            | ScenarioOp::Setgroups { actor, .. }
            | ScenarioOp::GetIds { actor }
            | ScenarioOp::Unshare { actor, .. } => *actor,
            ScenarioOp::FstabAdd { .. } | ScenarioOp::PolicySync => 0,
        }
    }

    /// One-line serialization; tokens are space-separated and paths are
    /// generator-controlled (no spaces), so the grammar stays trivial.
    pub fn render(&self) -> String {
        match self {
            ScenarioOp::Mkdir { actor, path } => format!("mkdir {} {}", actor, path),
            ScenarioOp::Rmdir { actor, path } => format!("rmdir {} {}", actor, path),
            ScenarioOp::WriteFile { actor, path, len } => {
                format!("write {} {} {}", actor, path, len)
            }
            ScenarioOp::ReadFile { actor, path } => format!("read {} {}", actor, path),
            ScenarioOp::Rename { actor, from, to } => format!("rename {} {} {}", actor, from, to),
            ScenarioOp::Unlink { actor, path } => format!("unlink {} {}", actor, path),
            ScenarioOp::Symlink {
                actor,
                target,
                link,
            } => format!("symlink {} {} {}", actor, target, link),
            ScenarioOp::Stat { actor, path } => format!("stat {} {}", actor, path),
            ScenarioOp::Readdir { actor, path } => format!("readdir {} {}", actor, path),
            ScenarioOp::Chmod { actor, path, mode } => {
                format!("chmod {} {} {:o}", actor, path, mode)
            }
            ScenarioOp::Chown { actor, path, uid } => format!("chown {} {} {}", actor, path, uid),
            ScenarioOp::RunMount { actor, args } => format!("mount {} {}", actor, args.join(" ")),
            ScenarioOp::RunUmount { actor, target } => format!("umount {} {}", actor, target),
            ScenarioOp::Setuid { actor, uid } => format!("setuid {} {}", actor, uid),
            ScenarioOp::Seteuid { actor, uid } => format!("seteuid {} {}", actor, uid),
            ScenarioOp::Setgid { actor, gid } => format!("setgid {} {}", actor, gid),
            ScenarioOp::Setgroups { actor, gids } => {
                let list: Vec<String> = gids.iter().map(|g| g.to_string()).collect();
                format!("setgroups {} {}", actor, list.join(","))
            }
            ScenarioOp::GetIds { actor } => format!("getids {}", actor),
            ScenarioOp::Unshare { actor, kind } => {
                format!("unshare {} {}", actor, ns_kind_name(*kind))
            }
            ScenarioOp::FstabAdd {
                device,
                mountpoint,
                fstype,
                options,
            } => format!("fstab_add {} {} {} {}", device, mountpoint, fstype, options),
            ScenarioOp::PolicySync => "policy_sync".to_string(),
        }
    }

    /// Parses [`ScenarioOp::render`] output.
    pub fn parse(line: &str) -> Result<ScenarioOp, String> {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad op line: {:?}", line);
        let actor = |s: &str| -> Result<usize, String> {
            let a: usize = s.parse().map_err(|_| bad())?;
            if a >= ACTORS.len() {
                return Err(format!("actor {} out of range in {:?}", a, line));
            }
            Ok(a)
        };
        let num = |s: &str| -> Result<u32, String> { s.parse().map_err(|_| bad()) };
        match toks.as_slice() {
            ["mkdir", a, p] => Ok(ScenarioOp::Mkdir {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["rmdir", a, p] => Ok(ScenarioOp::Rmdir {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["write", a, p, n] => Ok(ScenarioOp::WriteFile {
                actor: actor(a)?,
                path: p.to_string(),
                len: n.parse().map_err(|_| bad())?,
            }),
            ["read", a, p] => Ok(ScenarioOp::ReadFile {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["rename", a, f, t] => Ok(ScenarioOp::Rename {
                actor: actor(a)?,
                from: f.to_string(),
                to: t.to_string(),
            }),
            ["unlink", a, p] => Ok(ScenarioOp::Unlink {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["symlink", a, t, l] => Ok(ScenarioOp::Symlink {
                actor: actor(a)?,
                target: t.to_string(),
                link: l.to_string(),
            }),
            ["stat", a, p] => Ok(ScenarioOp::Stat {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["readdir", a, p] => Ok(ScenarioOp::Readdir {
                actor: actor(a)?,
                path: p.to_string(),
            }),
            ["chmod", a, p, m] => Ok(ScenarioOp::Chmod {
                actor: actor(a)?,
                path: p.to_string(),
                mode: u32::from_str_radix(m, 8).map_err(|_| bad())?,
            }),
            ["chown", a, p, u] => Ok(ScenarioOp::Chown {
                actor: actor(a)?,
                path: p.to_string(),
                uid: num(u)?,
            }),
            ["mount", a, rest @ ..] if !rest.is_empty() && rest.len() <= 4 => {
                Ok(ScenarioOp::RunMount {
                    actor: actor(a)?,
                    args: rest.iter().map(|s| s.to_string()).collect(),
                })
            }
            ["umount", a, t] => Ok(ScenarioOp::RunUmount {
                actor: actor(a)?,
                target: t.to_string(),
            }),
            ["setuid", a, u] => Ok(ScenarioOp::Setuid {
                actor: actor(a)?,
                uid: num(u)?,
            }),
            ["seteuid", a, u] => Ok(ScenarioOp::Seteuid {
                actor: actor(a)?,
                uid: num(u)?,
            }),
            ["setgid", a, g] => Ok(ScenarioOp::Setgid {
                actor: actor(a)?,
                gid: num(g)?,
            }),
            ["setgroups", a, list] => {
                let gids: Result<Vec<u32>, String> = list
                    .split(',')
                    .map(|g| g.parse().map_err(|_| bad()))
                    .collect();
                Ok(ScenarioOp::Setgroups {
                    actor: actor(a)?,
                    gids: gids?,
                })
            }
            ["getids", a] => Ok(ScenarioOp::GetIds { actor: actor(a)? }),
            ["unshare", a, k] => Ok(ScenarioOp::Unshare {
                actor: actor(a)?,
                kind: parse_ns_kind(k).ok_or_else(bad)?,
            }),
            ["fstab_add", d, m, f, o] => Ok(ScenarioOp::FstabAdd {
                device: d.to_string(),
                mountpoint: m.to_string(),
                fstype: f.to_string(),
                options: o.to_string(),
            }),
            ["policy_sync"] => Ok(ScenarioOp::PolicySync),
            _ => Err(bad()),
        }
    }
}

/// A complete scenario program: fault plan + op list, serializable as a
/// `scenario/v1` text block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Display name (family + seed, or a regression label).
    pub name: String,
    /// Seeded random errno storm `(seed, rate)`; `rate` means 1-in-rate.
    pub storm: Option<(u64, u64)>,
    /// Scheduled one-shots: `(syscall name, k, errno)`.
    pub one_shots: Vec<(String, u64, Errno)>,
    /// The op list, executed in order.
    pub ops: Vec<ScenarioOp>,
}

impl Scenario {
    /// A fault-free scenario with the given name and ops.
    pub fn new(name: &str, ops: Vec<ScenarioOp>) -> Scenario {
        Scenario {
            name: name.to_string(),
            storm: None,
            one_shots: Vec::new(),
            ops,
        }
    }

    /// Whether any fault plan is configured (storm or one-shots).
    pub fn has_faults(&self) -> bool {
        self.storm.is_some() || !self.one_shots.is_empty()
    }

    /// Text serialization, suitable for committing as a regression.
    pub fn render(&self) -> String {
        let mut out = format!("scenario/v1 {}\n", self.name);
        if let Some((seed, rate)) = self.storm {
            out.push_str(&format!("storm {} {}\n", seed, rate));
        }
        for (syscall, k, errno) in &self.one_shots {
            out.push_str(&format!("one_shot {} {} {}\n", syscall, k, errno.name()));
        }
        for op in &self.ops {
            out.push_str(&format!("op {}\n", op.render()));
        }
        out
    }

    /// Parses [`Scenario::render`] output.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty scenario")?;
        let name = header
            .strip_prefix("scenario/v1 ")
            .ok_or_else(|| format!("bad scenario header: {:?}", header))?
            .to_string();
        let mut sc = Scenario::new(&name, Vec::new());
        for line in lines {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("op ") {
                sc.ops.push(ScenarioOp::parse(rest)?);
            } else if let Some(rest) = line.strip_prefix("storm ") {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                match toks.as_slice() {
                    [seed, rate] => {
                        sc.storm = Some((
                            seed.parse().map_err(|_| format!("bad storm: {:?}", line))?,
                            rate.parse().map_err(|_| format!("bad storm: {:?}", line))?,
                        ));
                    }
                    _ => return Err(format!("bad storm: {:?}", line)),
                }
            } else if let Some(rest) = line.strip_prefix("one_shot ") {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                match toks.as_slice() {
                    [syscall, k, errno] => sc.one_shots.push((
                        syscall.to_string(),
                        k.parse().map_err(|_| format!("bad one_shot: {:?}", line))?,
                        Errno::from_name(errno)
                            .ok_or_else(|| format!("unknown errno in {:?}", line))?,
                    )),
                    _ => return Err(format!("bad one_shot: {:?}", line)),
                }
            } else {
                return Err(format!("unrecognized scenario line: {:?}", line));
            }
        }
        Ok(sc)
    }

    fn fault_config(&self) -> Option<FaultConfig> {
        if !self.has_faults() {
            return None;
        }
        let (seed, rate) = self.storm.unwrap_or((0, 0));
        let mut config = FaultConfig::storm(seed, rate);
        for (syscall, k, errno) in &self.one_shots {
            // OneShot takes a &'static str; intern through the ABI's own
            // name table so serialized names round-trip.
            if let Some(name) = syscall_static_name(syscall) {
                config.one_shots.push(sim_kernel::syscall::OneShot {
                    syscall: name,
                    k: *k,
                    errno: *errno,
                });
            }
        }
        Some(config)
    }
}

/// Resolves a serialized syscall name to the ABI's `&'static str` for
/// [`sim_kernel::syscall::OneShot`]. Unknown names resolve to `None` and
/// the one-shot is dropped (it could never match a dispatch anyway).
fn syscall_static_name(name: &str) -> Option<&'static str> {
    const NAMES: [&str; 12] = [
        "open", "read", "write", "stat", "mkdir", "unlink", "rename", "symlink", "mount", "umount",
        "setuid", "setgid",
    ];
    NAMES.iter().copied().find(|n| *n == name)
}

/// Everything observed from one mode's execution of a scenario.
#[derive(Clone, Debug)]
pub struct ModeRun {
    /// Scenario-level trace: one entry per op, pid = actor index.
    pub trace: Trace,
    /// Privileged-artifact detector output (must be empty).
    pub artifacts: Vec<String>,
    /// VFS namespace invariant violations (must be empty).
    pub vfs_violations: Vec<String>,
    /// Whether a consumed one-shot fired more than once (must be false).
    pub one_shot_overfire: bool,
}

/// Executes `scenario` under `mode` on a fresh boot. Panics inside the
/// run are caught (the run happens on a scratch thread) and reported as
/// `Err(message)`.
pub fn run_scenario(scenario: &Scenario, mode: SystemMode) -> Result<ModeRun, String> {
    let sc = scenario.clone();
    let handle = std::thread::Builder::new()
        .name(format!("scenario-{:?}", mode))
        .spawn(move || run_scenario_inner(&sc, mode))
        .expect("spawn scenario thread");
    match handle.join() {
        Ok(run) => Ok(run),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(msg)
        }
    }
}

fn run_scenario_inner(scenario: &Scenario, mode: SystemMode) -> ModeRun {
    let mut sys = boot(mode);
    // Sessions and the scratch tree are created fault-free so every
    // scenario starts from an identical, clean state.
    let sessions: Vec<Pid> = ACTORS
        .iter()
        .map(|(name, pw)| sys.login(name, pw).expect("actor login"))
        .collect();
    let root = sessions[0];
    sys.process(root)
        .mkdir("/tmp/fuzz", Mode(0o777))
        .expect("scratch dir");

    let fault_stats = scenario
        .fault_config()
        .map(|config| sys.attach_fault_injector(config));

    let mut trace = Trace::default();
    for op in &scenario.ops {
        sys.kernel.advance_clock(1);
        let ret = exec_op(&mut sys, &sessions, op);
        trace.entries.push(TraceEntry {
            pid: op.actor() as u32,
            call: op.render(),
            ret,
        });
    }

    let one_shot_overfire = match (&scenario.storm, fault_stats.as_ref()) {
        // With random injection off, every injection is a one-shot:
        // more injections than configured one-shots means a re-fire.
        (None, Some(stats)) => {
            let s = stats.lock().unwrap();
            let fired = s.one_shots_fired.iter().filter(|f| **f).count() as u64;
            s.injected > scenario.one_shots.len() as u64 || s.injected != fired
        }
        _ => false,
    };

    let vfs_violations = vfs_namespace_violations(&sys);
    let artifacts = privileged_artifacts(&mut sys);
    ModeRun {
        trace,
        artifacts,
        vfs_violations,
        one_shot_overfire,
    }
}

fn fmt_unit(r: Result<(), Errno>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(e) => e.name().to_string(),
    }
}

fn exec_op(sys: &mut System, sessions: &[Pid], op: &ScenarioOp) -> String {
    let pid = sessions[op.actor()];
    match op {
        ScenarioOp::Mkdir { path, .. } => fmt_unit(sys.process(pid).mkdir(path, Mode(0o755))),
        ScenarioOp::Rmdir { path, .. } => fmt_unit(sys.process(pid).rmdir(path)),
        ScenarioOp::WriteFile { path, len, .. } => {
            let data = vec![b'a' + (len % 23) as u8; *len];
            fmt_unit(sys.process(pid).write_file(path, &data, Mode(0o644)))
        }
        ScenarioOp::ReadFile { path, .. } => match sys.process(pid).read_file(path) {
            Ok(data) => format!("ok:{}", data.len()),
            Err(e) => e.name().to_string(),
        },
        ScenarioOp::Rename { from, to, .. } => fmt_unit(sys.process(pid).rename(from, to)),
        ScenarioOp::Unlink { path, .. } => fmt_unit(sys.process(pid).unlink(path)),
        ScenarioOp::Symlink { target, link, .. } => {
            fmt_unit(sys.process(pid).symlink(target, link))
        }
        ScenarioOp::Stat { path, .. } => match sys.process(pid).stat(path) {
            // The inode number is allocation order, not behavior —
            // renders differ across mode images, so it stays out.
            Ok(st) => format!(
                "mode={:o},uid={},gid={},size={}",
                st.mode.0, st.uid.0, st.gid.0, st.size
            ),
            Err(e) => e.name().to_string(),
        },
        ScenarioOp::Readdir { path, .. } => match sys.process(pid).readdir(path) {
            Ok(mut names) => {
                names.sort();
                format!("ok:[{}]", names.join(","))
            }
            Err(e) => e.name().to_string(),
        },
        ScenarioOp::Chmod { path, mode, .. } => fmt_unit(sys.process(pid).chmod(path, Mode(*mode))),
        ScenarioOp::Chown { path, uid, .. } => {
            fmt_unit(sys.process(pid).chown(path, Some(Uid(*uid)), None))
        }
        ScenarioOp::RunMount { args, .. } => {
            let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
            match sys.run(pid, "/bin/mount", &argv, &[]) {
                Ok(r) => format!("exit={}", r.code),
                Err(e) => e.name().to_string(),
            }
        }
        ScenarioOp::RunUmount { target, .. } => match sys.run(pid, "/bin/umount", &[target], &[]) {
            Ok(r) => format!("exit={}", r.code),
            Err(e) => e.name().to_string(),
        },
        ScenarioOp::Setuid { uid, .. } => fmt_unit(sys.process(pid).setuid(Uid(*uid))),
        ScenarioOp::Seteuid { uid, .. } => fmt_unit(sys.process(pid).seteuid(Uid(*uid))),
        ScenarioOp::Setgid { gid, .. } => fmt_unit(sys.process(pid).setgid(Gid(*gid))),
        ScenarioOp::Setgroups { gids, .. } => {
            let groups: Vec<Gid> = gids.iter().map(|g| Gid(*g)).collect();
            fmt_unit(sys.process(pid).setgroups(&groups))
        }
        ScenarioOp::GetIds { .. } => {
            let uid = sys.process(pid).getuid();
            let euid = sys.process(pid).geteuid();
            let gid = sys.process(pid).getgid();
            match (uid, euid, gid) {
                (Ok(u), Ok(e), Ok(g)) => format!("uid={},euid={},gid={}", u.0, e.0, g.0),
                _ => "E-GETID".to_string(),
            }
        }
        ScenarioOp::Unshare { kind, .. } => fmt_unit(sys.process(pid).unshare(*kind)),
        ScenarioOp::FstabAdd {
            device,
            mountpoint,
            fstype,
            options,
        } => {
            let line = format!("{} {} {} {} 0 0\n", device, mountpoint, fstype, options);
            let root = sessions[0];
            fmt_unit(sys.process(root).append_file("/etc/fstab", line.as_bytes()))
        }
        ScenarioOp::PolicySync => match sys.sync_policies() {
            // The pushed-anything bool legitimately differs by mode
            // (legacy has no monitord); only errors are behavior.
            Ok(_) => "ok".to_string(),
            Err(e) => e.name().to_string(),
        },
    }
}

/// A differential failure, ranked: panics and security-oracle hits beat
/// determinism and equivalence findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A mode panicked mid-scenario.
    Panic {
        /// Which mode.
        mode: SystemMode,
        /// Panic message.
        message: String,
    },
    /// The privileged-artifact detector fired.
    Artifact {
        /// Which mode.
        mode: SystemMode,
        /// Detector description.
        what: String,
    },
    /// A VFS namespace invariant was violated.
    Invariant {
        /// Which mode.
        mode: SystemMode,
        /// Violation description.
        what: String,
    },
    /// A consumed one-shot fault fired more than once.
    OneShotRearm {
        /// Which mode.
        mode: SystemMode,
    },
    /// The same mode produced two different traces for one scenario.
    NonDeterministic {
        /// Which mode.
        mode: SystemMode,
        /// Rendered trace diff.
        report: String,
    },
    /// Legacy and Protego traces diverged on a fault-free scenario.
    Divergence {
        /// First diverging entry index.
        index: usize,
        /// Rendered trace diff with context.
        report: String,
        /// Legacy's entry at the divergence (rendered).
        legacy: String,
        /// Protego's entry at the divergence (rendered).
        protego: String,
    },
}

fn mode_name(mode: SystemMode) -> &'static str {
    match mode {
        SystemMode::Legacy => "legacy",
        SystemMode::Protego => "protego",
    }
}

impl Failure {
    /// A stable signature for shrinking: two failures with equal
    /// signatures are "the same bug". Digits are stripped from detector
    /// descriptions (inode numbers and counts shift as ops are removed)
    /// but divergence entries keep their full rendering — if removing an
    /// op changes the divergent entry's bytes, the removal is rejected
    /// and the op is kept, which is exactly the conservative behavior a
    /// minimizer wants.
    pub fn signature(&self) -> String {
        let strip = |s: &str| -> String { s.chars().filter(|c| !c.is_ascii_digit()).collect() };
        match self {
            Failure::Panic { mode, message } => {
                format!("panic:{}:{}", mode_name(*mode), strip(message))
            }
            Failure::Artifact { mode, what } => {
                format!("artifact:{}:{}", mode_name(*mode), strip(what))
            }
            Failure::Invariant { mode, what } => {
                format!("invariant:{}:{}", mode_name(*mode), strip(what))
            }
            Failure::OneShotRearm { mode } => format!("rearm:{}", mode_name(*mode)),
            Failure::NonDeterministic { mode, .. } => format!("nondet:{}", mode_name(*mode)),
            Failure::Divergence {
                legacy, protego, ..
            } => format!("divergence:{}<->{}", legacy, protego),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Panic { mode, message } => {
                write!(f, "[{}] panic: {}", mode_name(*mode), message)
            }
            Failure::Artifact { mode, what } => {
                write!(f, "[{}] privileged artifact: {}", mode_name(*mode), what)
            }
            Failure::Invariant { mode, what } => {
                write!(f, "[{}] namespace invariant: {}", mode_name(*mode), what)
            }
            Failure::OneShotRearm { mode } => {
                write!(f, "[{}] consumed one-shot fault re-fired", mode_name(*mode))
            }
            Failure::NonDeterministic { mode, report } => {
                write!(
                    f,
                    "[{}] non-deterministic trace:\n{}",
                    mode_name(*mode),
                    report
                )
            }
            Failure::Divergence { index, report, .. } => {
                write!(f, "legacy/protego divergence at op {}:\n{}", index, report)
            }
        }
    }
}

/// The outcome of a differential run.
#[derive(Clone, Debug)]
pub struct DiffOutcome {
    /// The highest-ranked failure, if any oracle fired.
    pub failure: Option<Failure>,
    /// Legacy's run, when it did not panic.
    pub legacy: Option<ModeRun>,
    /// Protego's run, when it did not panic.
    pub protego: Option<ModeRun>,
}

/// Runs `scenario` under both modes and applies the oracles (see the
/// module docs for which oracle applies when).
pub fn run_differential(scenario: &Scenario) -> DiffOutcome {
    let mut outcome = DiffOutcome {
        failure: None,
        legacy: None,
        protego: None,
    };
    let mut runs: Vec<(SystemMode, ModeRun)> = Vec::new();
    for mode in [SystemMode::Legacy, SystemMode::Protego] {
        match run_scenario(scenario, mode) {
            Ok(run) => {
                // Fault plans make the cross-mode diff unsound (which
                // calls fail may legitimately differ), so the oracle for
                // faulted scenarios is per-mode determinism instead.
                if scenario.has_faults() && outcome.failure.is_none() {
                    match run_scenario(scenario, mode) {
                        Ok(again) => {
                            if let Some(report) = run.trace.divergence_report(&again.trace, 3) {
                                outcome.failure = Some(Failure::NonDeterministic { mode, report });
                            }
                        }
                        Err(message) => {
                            outcome.failure = Some(Failure::Panic { mode, message });
                        }
                    }
                }
                runs.push((mode, run));
            }
            Err(message) => {
                if outcome.failure.is_none() {
                    outcome.failure = Some(Failure::Panic { mode, message });
                }
            }
        }
    }
    // Security oracles rank above determinism/equivalence findings.
    for (mode, run) in &runs {
        if let Some(what) = run.artifacts.first() {
            outcome.failure = Some(Failure::Artifact {
                mode: *mode,
                what: what.clone(),
            });
        } else if let Some(what) = run.vfs_violations.first() {
            outcome.failure = Some(Failure::Invariant {
                mode: *mode,
                what: what.clone(),
            });
        } else if run.one_shot_overfire {
            outcome.failure = Some(Failure::OneShotRearm { mode: *mode });
        }
    }
    for (mode, run) in runs {
        match mode {
            SystemMode::Legacy => outcome.legacy = Some(run),
            SystemMode::Protego => outcome.protego = Some(run),
        }
    }
    if outcome.failure.is_none() && !scenario.has_faults() {
        if let (Some(l), Some(p)) = (&outcome.legacy, &outcome.protego) {
            if let Some(index) = l.trace.first_divergence(&p.trace) {
                let side = |t: &Trace| {
                    t.entries
                        .get(index)
                        .map(|e| e.render())
                        .unwrap_or_else(|| "<end of trace>".to_string())
                };
                outcome.failure = Some(Failure::Divergence {
                    index,
                    report: l.trace.divergence_report(&p.trace, 3).unwrap_or_default(),
                    legacy: side(&l.trace),
                    protego: side(&p.trace),
                });
            }
        }
    }
    outcome
}

/// Convenience for the shrinker and tests: the failure signature a
/// scenario produces, or `None` when every oracle is green.
pub fn failure_signature(scenario: &Scenario) -> Option<String> {
    run_differential(scenario).failure.map(|f| f.signature())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        let mut sc = Scenario::new(
            "sample-1",
            vec![
                ScenarioOp::Mkdir {
                    actor: 1,
                    path: "/tmp/fuzz/a".into(),
                },
                ScenarioOp::WriteFile {
                    actor: 1,
                    path: "/tmp/fuzz/a/f0".into(),
                    len: 17,
                },
                ScenarioOp::RunMount {
                    actor: 1,
                    args: vec!["/mnt/cdrom".into()],
                },
                ScenarioOp::Setgroups {
                    actor: 2,
                    gids: vec![24, 27],
                },
                // Root, deliberately: unprivileged user namespaces are a
                // *documented* cross-mode divergence (the Protego image
                // models a >=3.8 kernel), so equivalence-judged scenarios
                // only unshare as root. See `bench::fuzz`'s generator
                // policy.
                ScenarioOp::Unshare {
                    actor: 0,
                    kind: NsKind::User,
                },
                ScenarioOp::FstabAdd {
                    device: "/dev/sdc1".into(),
                    mountpoint: "/tmp/fuzz/mnt0".into(),
                    fstype: "vfat".into(),
                    options: "rw,user,noauto".into(),
                },
                ScenarioOp::PolicySync,
                ScenarioOp::RunUmount {
                    actor: 1,
                    target: "/mnt/cdrom".into(),
                },
            ],
        );
        sc.storm = Some((0xF00D, 50));
        sc.one_shots.push(("mount".to_string(), 2, Errno::EBUSY));
        sc
    }

    #[test]
    fn scenario_render_parse_roundtrip() {
        let sc = sample();
        let text = sc.render();
        assert_eq!(Scenario::parse(&text).unwrap(), sc);
    }

    #[test]
    fn scenario_parse_rejects_garbage() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("scenario/v2 x\n").is_err());
        assert!(Scenario::parse("scenario/v1 x\nop frobnicate 1 /tmp\n").is_err());
        assert!(Scenario::parse("scenario/v1 x\nop mkdir 9 /tmp\n").is_err());
        assert!(Scenario::parse("scenario/v1 x\none_shot mount two EIO\n").is_err());
        assert!(Scenario::parse("scenario/v1 x\none_shot mount 2 EWHAT\n").is_err());
    }

    #[test]
    fn fault_free_sample_is_equivalent_across_modes() {
        let mut sc = sample();
        sc.storm = None;
        sc.one_shots.clear();
        let outcome = run_differential(&sc);
        assert!(
            outcome.failure.is_none(),
            "sample scenario must be clean: {}",
            outcome.failure.unwrap()
        );
        let l = outcome.legacy.unwrap();
        assert_eq!(l.trace.len(), sc.ops.len(), "one trace entry per op");
    }
}
