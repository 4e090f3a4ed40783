//! The system-call surface, implemented as `impl Kernel` blocks.
//!
//! Eight system calls carry the privilege requirements the paper studies
//! (Table 4): `socket`, `ioctl`, `bind`, `mount`, `umount`, `setuid`,
//! `setgid`, and (credential-database) `open`. Each consults the active
//! LSM at the same decision point Protego hooks in Linux.
//!
//! Every entry point is also reachable through the typed ABI in [`abi`]:
//! [`Kernel::dispatch`](crate::kernel::Kernel::dispatch) maps a
//! [`Syscall`] request onto the matching `sys_*` method and threads it
//! through the registered [`Interceptor`] chain (fault injection, trace
//! record/replay, seccomp).

pub mod abi;
mod fs;
mod id;
pub mod interceptor;
mod ioctl;
mod mount;
mod net;
mod process;

pub use abi::{NetfilterRule, SysRet, Syscall, SyscallClass, Whence};
pub use fs::{OpenFlags, Stat};
pub use interceptor::{
    FaultConfig, FaultInjector, FaultStats, Interceptor, OneShot, SysCtx, Verdict, XorShift64,
};
pub use ioctl::{IoctlCmd, IoctlOut};
pub use net::{NetfilterOp, RouteOp};
