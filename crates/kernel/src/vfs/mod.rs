//! Virtual filesystem: inodes, path resolution, mounts, and dynamic nodes.

pub mod arena;
mod fs;
mod inode;
pub mod intern;

pub use arena::{ArenaBytes, ArenaString, PathArena};
pub(crate) use fs::PATH_MAX;
pub use fs::{AbsPath, DirChain, InodeMut, InodeRef, Mount, MountOptions, Resolved, Vfs};
pub use inode::{Access, Attrs, Ino, Inode, InodeData, Mode, ProcHook};
pub use intern::Name;
