//! The LSM decision path as a table: every hook site, every answer it
//! accepts, through a scripted stub module and a stub authentication
//! agent. Each row names a site, the caller, the module's answers in
//! order, the agent (`ok`, `fail`, or `-` for none), the call's result
//! with its effect, and the audit records the call left behind.
//!
//! A record is written `<module> <decision> [errno] <euid>`: `stub` for
//! the module (syscall and hook are the site's, rule `stub:rule`),
//! `kernel` for stock policy (no rule), `auth` for the kernel's
//! authentication run.

use sim_kernel::caps::Cap;
use sim_kernel::cred::{Credentials, Gid, Uid};
use sim_kernel::dev::{ModemOpt, ModemState};
use sim_kernel::error::Errno;
use sim_kernel::kernel::Kernel;
use sim_kernel::lsm::*;
use sim_kernel::net::{Domain, Ipv4, Route, RouteTable, SimNet, SockType};
use sim_kernel::syscall::{IoctlCmd, OpenFlags, RouteOp};
use sim_kernel::task::Pid;
use sim_kernel::trace::{AuditEvent, Hook};
use sim_kernel::vfs::{Mode, Name, Vfs};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

const ROWS: &[&str] = &[
    "capable root def - => true |",
    "capable user def - => false |",
    "capable user allow - => true | stub allow 1000",
    "capable root deny:EACCES - => false | stub deny EACCES 0",
    "setuid root def - => ok euid=0 |",
    "setuid user def - => EPERM | kernel deny EPERM 1000",
    "setuid user allow - => ok euid=0 | stub allow 1000",
    "setuid user deny:EAGAIN - => EAGAIN | stub deny EAGAIN 1000",
    "setuid user pending - => ok euid=1000 pending | stub defer 1000",
    "setuid user auth,allow ok => ok euid=0 | auth info 1000; stub allow 1000",
    "setuid user auth,auth ok => EPERM | auth info 1000; stub deny EPERM 1000",
    "setuid user auth fail => EPERM | auth deny EACCES 1000; stub deny EPERM 1000",
    "setuid user auth - => EPERM | stub deny EPERM 1000",
    "setgid root def - => ok egid=0 |",
    "setgid user def - => EPERM | kernel deny EPERM 1000",
    "setgid user allow - => ok egid=0 | stub allow 1000",
    "setgid user deny:EAGAIN - => EAGAIN | stub deny EAGAIN 1000",
    "setgid user pending - => EINVAL |",
    "setgid user auth,allow ok => ok egid=0 | auth info 1000; stub allow 1000",
    "setgid user auth,auth ok => EPERM | auth info 1000; stub deny EPERM 1000",
    "setgid user auth fail => EPERM | auth deny EACCES 1000; stub deny EPERM 1000",
    "execve root def - => ok euid=0 | kernel info 0",
    "execve user def - => ok euid=0 | kernel info 0",
    "execve user deny:EPERM - => EPERM | stub deny EPERM 1000",
    "execve user transition - => ok euid=0 | stub allow 0; kernel info 0",
    "execve user auth,transition ok => ok euid=0 | auth info 1000; stub allow 0; kernel info 0",
    "execve user auth,auth ok => EACCES | auth info 1000; stub deny EACCES 1000",
    "execve user auth fail => EACCES | auth deny EACCES 1000; stub deny EACCES 1000",
    "open root def - => ok |",
    "open user def - => EACCES |",
    "open user allow - => ok | stub allow 1000",
    "open user deny:EPERM - => EPERM | stub deny EPERM 1000",
    "open user cloexec - => ok cloexec | stub allow 1000",
    "open user auth,cloexec ok => ok cloexec | auth info 1000; stub allow 1000",
    "open user auth,auth ok => EACCES | auth info 1000; stub deny EACCES 1000",
    "open user auth fail => EACCES | auth deny EACCES 1000; stub deny EACCES 1000",
    "mount root def - => ok | kernel use_default 0",
    "mount user def - => EPERM | kernel deny EPERM 1000",
    "mount root allow - => ok | stub allow 0",
    "mount user allow - => ok nosuid | stub allow 1000",
    "mount user deny:EBUSY - => EBUSY | stub deny EBUSY 1000",
    "umount root def - => ok | kernel use_default 0",
    "umount user def - => EPERM | kernel deny EPERM 1000",
    "umount user allow - => ok | stub allow 1000",
    "umount user deny:EBUSY - => EBUSY | stub deny EBUSY 1000",
    "socket root def - => ok |",
    "socket user def - => EPERM | kernel deny EPERM 1000",
    "socket user allow - => ok | stub allow 1000",
    "socket user deny:EACCES - => EACCES | stub deny EACCES 1000",
    "stream user def - => ok |",
    "stream user allow - => ok |",
    "stream user deny:EACCES - => EACCES | stub deny EACCES 1000",
    "bind root def - => ok |",
    "bind user def - => EACCES | kernel deny EACCES 1000",
    "bind user allow - => ok | stub allow 1000",
    "bind user deny:EADDRINUSE - => EADDRINUSE | stub deny EADDRINUSE 1000",
    "route root def - => ok |",
    "route user def - => EPERM | kernel deny EPERM 1000",
    "route user allow - => ok | stub allow 1000",
    "route user deny:EEXIST - => EEXIST | stub deny EEXIST 1000",
    "modem root def - => ok |",
    "modem user def - => EPERM | kernel deny EPERM 1000",
    "modem user allow - => ok | stub allow 1000",
    "modem user deny:EBUSY - => EBUSY | stub deny EBUSY 1000",
    "dmcrypt root def - => ok |",
    "dmcrypt user def - => EPERM | kernel deny EPERM 1000",
    "dmcrypt user allow - => ok | stub allow 1000",
    "dmcrypt user deny:EACCES - => EACCES | stub deny EACCES 1000",
    "kms root def - => ok |",
    "kms user def - => EPERM | kernel deny EPERM 1000",
    "kms user allow - => ok | stub allow 1000",
    "kms user deny:EACCES - => EACCES | stub deny EACCES 1000",
    "kmsmode user deny:EPERM - => ok (1 answers unused) |",
];

/// The syscall and hook of each site's module records; `stream` is the
/// socket site with a socket type no capability guards, and `kmsmode` a
/// KMS mode set, which needs no privilege, with the stub scripting
/// `capable`.
fn site(name: &str) -> (&'static str, Hook) {
    match name {
        "capable" | "kmsmode" => ("capable", Hook::Capable),
        "setuid" => ("setuid", Hook::TaskSetuid),
        "setgid" => ("setgid", Hook::TaskSetgid),
        "execve" => ("execve", Hook::BprmCheck),
        "open" => ("open", Hook::FileOpen),
        "mount" => ("mount", Hook::SbMount),
        "umount" => ("umount", Hook::SbUmount),
        "socket" | "stream" => ("socket", Hook::SocketCreate),
        "bind" => ("bind", Hook::SocketBind),
        "route" => ("ioctl", Hook::IoctlRoute),
        "modem" => ("ioctl", Hook::IoctlModem),
        "dmcrypt" => ("ioctl", Hook::IoctlDmcrypt),
        "kms" => ("ioctl", Hook::IoctlKms),
        other => panic!("unknown site {other}"),
    }
}

/// A module that answers the hook under test from a script (each call
/// takes the next answer; an empty script answers `def`) and every
/// other hook with `UseDefault`.
struct Stub {
    hook: Hook,
    script: Arc<Mutex<VecDeque<String>>>,
}

type Answer<D> = (D, Option<RuleId>);

/// Maps the stub's next answer at `$hook` onto a decision type: `def`
/// and the listed words to their variants, `deny:<ERRNO>` to `Deny`.
macro_rules! answer {
    ($stub:expr, $hook:expr, $ty:ident { $($word:literal => $v:expr),* }) => {{
        let a = match $hook == $stub.hook {
            true => $stub.script.lock().unwrap().pop_front(),
            false => None,
        };
        let a = a.unwrap_or_else(|| "def".into());
        let rule = (a != "def").then(|| Name::intern("stub:rule"));
        let d = match a.as_str() {
            "def" => $ty::UseDefault,
            $($word => $v,)*
            deny => $ty::Deny(Errno::from_name(&deny["deny:".len()..]).expect("deny:<ERRNO>")),
        };
        (d, rule)
    }};
}

/// The authentication scope every scripted `auth` answer asks for.
const ME: AuthScope = AuthScope::User(Uid(1000));

impl SecurityModule for Stub {
    fn name(&self) -> &'static str {
        "stub"
    }
    fn capable(&self, _: &Credentials, _: &str, _: Cap) -> Answer<Decision> {
        answer!(self, Hook::Capable, Decision { "allow" => Decision::Allow })
    }
    fn sb_mount(&self, _: &Credentials, _: &MountRequest) -> Answer<Decision> {
        answer!(self, Hook::SbMount, Decision { "allow" => Decision::Allow })
    }
    fn sb_umount(&self, _: &Credentials, _: &UmountRequest) -> Answer<Decision> {
        answer!(self, Hook::SbUmount, Decision { "allow" => Decision::Allow })
    }
    fn socket_create(&self, _: &Credentials, _: Domain, _: SockType, _: u8) -> Answer<Decision> {
        answer!(self, Hook::SocketCreate, Decision { "allow" => Decision::Allow })
    }
    fn socket_bind(&self, _: &Credentials, _: &BindRequest) -> Answer<Decision> {
        answer!(self, Hook::SocketBind, Decision { "allow" => Decision::Allow })
    }
    fn task_setuid(&self, _: &SetidCtx<'_>, _: Uid) -> Answer<SetuidDecision> {
        self.setid(Hook::TaskSetuid)
    }
    fn task_setgid(&self, _: &SetidCtx<'_>, _: Gid) -> Answer<SetuidDecision> {
        self.setid(Hook::TaskSetgid)
    }
    fn bprm_check(&self, _: &ExecCtx) -> Answer<ExecDecision> {
        answer!(self, Hook::BprmCheck, ExecDecision {
            "auth" => ExecDecision::NeedAuth(ME),
            "transition" => ExecDecision::Transition { cred: Credentials::root(), env: EnvPolicy::KeepAll }
        })
    }
    fn ioctl_route_add(&self, _: &Credentials, _: &Route, _: &RouteTable) -> Answer<Decision> {
        answer!(self, Hook::IoctlRoute, Decision { "allow" => Decision::Allow })
    }
    fn ioctl_modem(&self, _: &Credentials, _: ModemOpt, _: &ModemState) -> Answer<Decision> {
        answer!(self, Hook::IoctlModem, Decision { "allow" => Decision::Allow })
    }
    fn ioctl_dmcrypt(&self, _: &Credentials) -> Answer<Decision> {
        answer!(self, Hook::IoctlDmcrypt, Decision { "allow" => Decision::Allow })
    }
    fn ioctl_kms(&self, _: &Credentials, _: KmsOp) -> Answer<Decision> {
        answer!(self, Hook::IoctlKms, Decision { "allow" => Decision::Allow })
    }
    fn file_open(&self, _: &FileOpenCtx) -> Answer<FileDecision> {
        answer!(self, Hook::FileOpen, FileDecision {
            "allow" => FileDecision::Allow,
            "cloexec" => FileDecision::AllowCloexec,
            "auth" => FileDecision::NeedAuth(ME)
        })
    }
}

impl Stub {
    fn setid(&self, hook: Hook) -> Answer<SetuidDecision> {
        let pending = PendingSetuid {
            target: Uid(0),
            allowed_binaries: Vec::new(),
            require_target_auth: false,
            keep_env: Vec::new(),
            rule: Some(Name::intern("stub:rule")),
        };
        answer!(self, hook, SetuidDecision {
            "allow" => SetuidDecision::Allow,
            "auth" => SetuidDecision::NeedAuth(ME),
            "pending" => SetuidDecision::Pending(pending)
        })
    }
}

/// An authentication agent that always succeeds or always fails.
struct Agent(bool);

impl AuthProvider for Agent {
    fn authenticate(&mut self, _: AuthScope, _: &mut VecDeque<String>, _: &Vfs) -> bool {
        self.0
    }
}

/// Boots a kernel for `site` under the null module with the objects its
/// call needs, and returns the caller and its descriptor for the device
/// or socket the call uses.
fn boot(site: &str, who: &str) -> (Kernel, Pid, i32) {
    let k = Kernel::new(SimNet::new());
    let init = k.spawn_init();
    k.install_standard_devices().unwrap();
    let (uid, gid) = (Uid::ROOT, Gid::ROOT);
    k.vfs.mkdir_p("/mnt/cdrom").unwrap();
    let bin = k.vfs.mkdir_p("/bin").unwrap();
    let prog = k.vfs.create_file(bin, "prog", Mode(0o4755), uid, gid, true);
    let etc = k.vfs.mkdir_p("/etc").unwrap();
    let secret = k
        .vfs
        .create_file(etc, "secret", Mode(0o600), uid, gid, true);
    prog.and(secret).unwrap();
    let dm = k.vfs.resolve(k.vfs.root(), "/dev/mapper/cryptohome");
    k.vfs.inode_mut(dm.unwrap().ino).mode = Mode(0o666);
    if site == "umount" {
        k.sys_mount(init, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .unwrap();
    }
    let pid = match who {
        "root" => init,
        _ => k.spawn_session(Credentials::user(Uid(1000), Gid(1000)), "/bin/sh"),
    };
    let fd = match site {
        "bind" => k.sys_socket(pid, Domain::Inet, SockType::Stream, 6),
        "modem" => k.sys_open(pid, "/dev/ttyS0", OpenFlags::read_only()),
        "dmcrypt" => k.sys_open(pid, "/dev/mapper/cryptohome", OpenFlags::read_only()),
        _ => k.sys_open(pid, "/dev/dri/card0", OpenFlags::read_only()),
    };
    (k, pid, fd.unwrap())
}

/// Runs `site`'s call as `pid` and renders its result and effect.
fn call(k: &Kernel, site: &str, pid: Pid, fd: i32) -> String {
    let task = || k.task(pid).unwrap();
    let ok = |effect: String| format!("ok{effect}");
    let r = match site {
        "capable" => return k.capable(pid, Cap::SysAdmin).to_string(),
        "setuid" => k.sys_setuid(pid, Uid(0)).map(|()| {
            let pending = if task().pending_setuid.is_some() {
                " pending"
            } else {
                ""
            };
            format!(" euid={}{pending}", task().cred.euid.0)
        }),
        "setgid" => k
            .sys_setgid(pid, Gid(0))
            .map(|()| format!(" egid={}", task().cred.egid.0)),
        "execve" => k
            .sys_execve(pid, "/bin/prog")
            .map(|_| format!(" euid={}", task().cred.euid.0)),
        "open" => k
            .sys_open(pid, "/etc/secret", OpenFlags::read_only())
            .map(|fd| {
                let cloexec = task().fd(fd).unwrap().cloexec;
                if cloexec { " cloexec" } else { "" }.to_string()
            }),
        "mount" => k
            .sys_mount(pid, "/dev/cdrom", "/mnt/cdrom", "iso9660", "ro")
            .map(|()| {
                let nosuid = k.vfs.find_mount("/mnt/cdrom").unwrap().options.nosuid;
                if nosuid { " nosuid" } else { "" }.to_string()
            }),
        "umount" => k.sys_umount(pid, "/mnt/cdrom").map(|()| String::new()),
        "socket" => k
            .sys_socket(pid, Domain::Inet, SockType::Raw, 1)
            .map(|_| String::new()),
        "stream" => k
            .sys_socket(pid, Domain::Inet, SockType::Stream, 6)
            .map(|_| String::new()),
        "bind" => k.sys_bind(pid, fd, Ipv4::ANY, 80).map(|()| String::new()),
        "route" => {
            let dest = Ipv4::new(10, 9, 0, 0);
            let (dev, created_by) = ("ppp0".into(), Uid::ROOT);
            let route = Route {
                dest,
                prefix: 16,
                gateway: None,
                dev,
                created_by,
            };
            k.sys_ioctl_route(pid, RouteOp::Add(route))
                .map(|()| String::new())
        }
        _ => {
            let cmd = match site {
                "modem" => IoctlCmd::Modem(ModemOpt::Baud(9600)),
                "dmcrypt" => IoctlCmd::DmStatus,
                "kmsmode" => IoctlCmd::Kms(KmsOp::SetMode {
                    width: 1024,
                    height: 768,
                    refresh: 60,
                }),
                _ => IoctlCmd::Kms(KmsOp::RawRegisterAccess),
            };
            k.sys_ioctl(pid, fd, cmd).map(|_| String::new())
        }
    };
    r.map_or_else(|e| e.name().to_string(), ok)
}

/// Renders one audit record in the rows' short form. A record whose
/// syscall, hook or rule is not the one its module implies at `site` is
/// rendered in full, so it cannot match any row.
fn record(e: &AuditEvent, (syscall, hook): (&str, Hook)) -> String {
    let p = &e.provenance;
    let errno = p.errno.map_or(String::new(), |e| format!("{} ", e.name()));
    let rule = p.rule.map(|r| r.as_str());
    let module = match (p.hook, e.syscall, p.module, rule) {
        (Hook::Auth, "auth", "kernel", None) => "auth",
        (h, s, "stub", Some("stub:rule")) if h == hook && s == syscall => "stub",
        (h, s, "kernel", None) if h == hook && s == syscall => "kernel",
        _ => return e.render(),
    };
    format!("{module} {} {errno}{}", p.decision.name(), e.euid)
}

/// Runs one row and returns what it observed in the row's own
/// `result | record; record` form.
fn run(row: &str) -> String {
    let words: Vec<&str> = row.split(' ').collect();
    let [name, who, answers, agent, ..] = words[..] else {
        panic!("bad row {row}")
    };
    let (k, pid, fd) = boot(name, who);
    let script = Arc::new(Mutex::new(answers.split(',').map(String::from).collect()));
    let hook = site(name).1;
    let stub = Stub {
        hook,
        script: Arc::clone(&script),
    };
    k.register_lsm(Box::new(stub)).unwrap();
    if agent != "-" {
        k.register_auth(Box::new(Agent(agent == "ok")));
    }
    k.set_trace(true);
    let first = k.audit.next_seq();
    let mut result = call(&k, name, pid, fd);
    let unused = script.lock().unwrap().len();
    if unused > 0 {
        result += &format!(" ({unused} answers unused)");
    }
    let events = k.audit.events();
    let records: Vec<String> = events
        .iter()
        .filter(|e| e.seq >= first)
        .map(|e| record(e, site(name)))
        .collect();
    format!(
        "{name} {who} {answers} {agent} => {result} | {}",
        records.join("; ")
    )
}

#[test]
fn every_hook_site_maps_each_answer_to_its_effect_and_audit_record() {
    let failures: Vec<String> = ROWS
        .iter()
        .map(|row| (row, run(row)))
        .filter(|(row, got)| row.trim_end() != got.trim_end())
        .map(|(row, got)| format!("want {row}\n got  {got}"))
        .collect();
    assert!(failures.is_empty(), "rows differ:\n{}", failures.join("\n"));
}
