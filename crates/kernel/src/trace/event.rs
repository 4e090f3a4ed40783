//! The typed audit event and its provenance record.

use crate::error::Errno;
use crate::lsm::RuleId;
use crate::vfs::AbsPath;
use core::fmt;

/// Declares [`Hook`] from one table: each variant with its doc and its
/// stable name. `COUNT`, `ALL` and `name()` all come from the table, so
/// a hook is listed once.
macro_rules! hooks {
    ($($(#[$doc:meta])* $variant:ident => $name:literal;)*) => {
        /// The LSM hook (or kernel-internal site) a decision came from.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Hook {
            $($(#[$doc])* $variant,)*
        }

        impl Hook {
            /// Number of hooks (the fixed metrics-counter table size).
            pub const COUNT: usize = [$($name),*].len();

            /// Every hook, in discriminant order.
            pub const ALL: [Hook; Hook::COUNT] = [$(Hook::$variant),*];

            /// Stable lower-snake name (metrics keys, `/proc` rendering).
            pub fn name(self) -> &'static str {
                match self {
                    $(Hook::$variant => $name,)*
                }
            }
        }
    };
}

hooks! {
    /// `capable()` — coarse capability check.
    Capable => "capable";
    /// `sb_mount` — `mount(2)`.
    SbMount => "sb_mount";
    /// `sb_umount` — `umount(2)`.
    SbUmount => "sb_umount";
    /// `socket_create` — `socket(2)` (raw/packet sockets).
    SocketCreate => "socket_create";
    /// `socket_bind` — `bind(2)` to a privileged port.
    SocketBind => "socket_bind";
    /// `task_setuid` — the `setuid(2)` family.
    TaskSetuid => "task_setuid";
    /// `task_setgid` — the `setgid(2)` family.
    TaskSetgid => "task_setgid";
    /// `bprm_check` — `execve(2)` credential transitions.
    BprmCheck => "bprm_check";
    /// `ioctl_route_add` — route-table-changing ioctls.
    IoctlRoute => "ioctl_route";
    /// `ioctl_modem` — modem-line ioctls (pppd).
    IoctlModem => "ioctl_modem";
    /// `ioctl_dmcrypt` — dm-crypt status ioctls.
    IoctlDmcrypt => "ioctl_dmcrypt";
    /// `ioctl_kms` — KMS mode-setting ioctls.
    IoctlKms => "ioctl_kms";
    /// `file_open` — per-open policy (key files, shadow fragments).
    FileOpen => "file_open";
    /// Netfilter OUTPUT-chain verdicts on the packet path.
    Netfilter => "netfilter";
    /// `/proc/<lsm>/*` configuration reads/writes.
    LsmConfig => "lsm_config";
    /// Kernel-launched trusted authentication (§4.3).
    Auth => "auth";
    /// Module registration and other lifecycle events.
    Lifecycle => "lifecycle";
    /// A dispatch-chain interceptor (fault injection, replay checking).
    Interceptor => "interceptor";
}

impl Hook {
    /// Fixed counter-table index (the discriminant).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a decision amounted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecisionKind {
    /// The module granted access the stock kernel would have refused.
    Allow,
    /// Access was refused (module or stock policy); security-relevant.
    Deny,
    /// The stock capability/DAC policy decided.
    UseDefault,
    /// The decision was deferred (e.g. a pending setuid transition).
    Defer,
    /// Informational (successful exec, config update, registration…).
    Info,
}

impl DecisionKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Allow => "allow",
            DecisionKind::Deny => "deny",
            DecisionKind::UseDefault => "use_default",
            DecisionKind::Defer => "defer",
            DecisionKind::Info => "info",
        }
    }
}

/// The object a decision was about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditObject {
    /// No specific object.
    None,
    /// A filesystem path (or `source -> target` pair for mounts).
    Path(String),
    /// A network port.
    Port {
        /// Port number.
        port: u16,
        /// TCP (vs UDP).
        tcp: bool,
    },
    /// A device node path.
    Device(String),
    /// A target uid (setuid family).
    UidTarget(u32),
    /// A target gid (setgid family).
    GidTarget(u32),
    /// A named capability.
    Capability(&'static str),
    /// A route description.
    Route(String),
    /// A packet description (netfilter path).
    Packet(String),
    /// An executed binary: the canonical path `execve` resolved.
    Binary(AbsPath),
    /// An LSM configuration node.
    Config(String),
}

impl fmt::Display for AuditObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditObject::None => write!(f, "-"),
            AuditObject::Path(p) => write!(f, "path:{}", p),
            AuditObject::Port { port, tcp } => {
                write!(f, "port:{}/{}", port, if *tcp { "tcp" } else { "udp" })
            }
            AuditObject::Device(d) => write!(f, "dev:{}", d),
            AuditObject::UidTarget(u) => write!(f, "uid:{}", u),
            AuditObject::GidTarget(g) => write!(f, "gid:{}", g),
            AuditObject::Capability(c) => write!(f, "cap:{}", c),
            AuditObject::Route(r) => write!(f, "route:{}", r),
            AuditObject::Packet(p) => write!(f, "pkt:{}", p),
            AuditObject::Binary(b) => write!(f, "bin:{}", b.as_str()),
            AuditObject::Config(n) => write!(f, "config:{}", n),
        }
    }
}

/// Who decided, under which rule, and what the outcome was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Deciding module: the LSM's name, or `"kernel"` for stock policy
    /// and kernel-internal events.
    pub module: &'static str,
    /// The hook the decision came from.
    pub hook: Hook,
    /// The matched policy rule, when the module tracks one.
    pub rule: Option<RuleId>,
    /// The decision kind.
    pub decision: DecisionKind,
    /// The errno returned to the caller, for denials.
    pub errno: Option<Errno>,
}

impl Provenance {
    /// Provenance for a decision made by a security module.
    pub fn lsm(
        module: &'static str,
        hook: Hook,
        rule: Option<RuleId>,
        decision: DecisionKind,
        errno: Option<Errno>,
    ) -> Provenance {
        Provenance {
            module,
            hook,
            rule,
            decision,
            errno,
        }
    }

    /// Provenance for stock-kernel policy (no module, no rule).
    pub fn kernel(hook: Hook, decision: DecisionKind, errno: Option<Errno>) -> Provenance {
        Provenance {
            module: "kernel",
            hook,
            rule: None,
            decision,
            errno,
        }
    }
}

/// One structured audit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic sequence number (assigned at emit time; counts every
    /// emitted event, including ones the ring did not store).
    pub seq: u64,
    /// Logical-clock timestamp.
    pub clock: u64,
    /// Subject pid (0 for kernel-context events).
    pub pid: u32,
    /// Subject real uid at emit time.
    pub ruid: u32,
    /// Subject effective uid at emit time.
    pub euid: u32,
    /// The syscall (or kernel pathway) the event came from.
    pub syscall: &'static str,
    /// The object the decision was about.
    pub object: AuditObject,
    /// Who decided and how.
    pub provenance: Provenance,
}

impl AuditEvent {
    /// Whether this event records a denial.
    pub fn is_denial(&self) -> bool {
        self.provenance.decision == DecisionKind::Deny
    }

    /// The full structured rendering (one `/proc/<lsm>/audit` line).
    pub fn render(&self) -> String {
        let errno = self.provenance.errno.map(|e| e.name()).unwrap_or("-");
        format!(
            "seq={} clk={} pid={} uid={}/{} syscall={} hook={} module={} decision={} errno={} rule={} obj={}",
            self.seq,
            self.clock,
            self.pid,
            self.ruid,
            self.euid,
            self.syscall,
            self.provenance.hook.name(),
            self.provenance.module,
            self.provenance.decision.name(),
            errno,
            self.provenance.rule.map_or("-", RuleId::as_str),
            self.object,
        )
    }
}
