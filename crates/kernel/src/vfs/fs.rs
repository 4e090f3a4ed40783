//! The virtual filesystem: inode arena, path resolution, and mount table.
//!
//! This module is pure *mechanism*. Permission checks (DAC, capabilities,
//! LSM hooks) are applied by the syscall layer in [`crate::kernel`]; the
//! functions here resolve paths, manage directory trees, and maintain the
//! mount table, mirroring the split between `fs/namei.c` and the
//! `security_*` hook callers in Linux.
//!
//! # Concurrency
//!
//! Since the shared-kernel refactor every method takes `&self`: the inode
//! arena is sharded across [`NSHARDS`] `RwLock`s (shard = ino mod
//! [`NSHARDS`], so a directory and the files allocated under it land in
//! different shards and independent subtrees don't contend), the dcache is
//! hash-sharded `RwLock`s (a hit holds only the read lock) whose entries
//! are validated against per-directory generations (a grow-only table
//! indexed by the exact ino, [`DirGens`]), the mount table is a small
//! copy-on-write `RwLock<Arc<..>>` that a walk snapshots by reference
//! count, and the counters (`change_seq`, `mount_seq`, the directory
//! generations, the dcache statistics) are atomics.
//!
//! # Dcache invalidation
//!
//! Each directory owns two generations on a cache line of their own:
//! `entries` and `coverage`. A cached resolution records, for every
//! directory its walk depended on, the generation of each part it actually
//! read, loaded *before* that read: reading a directory's entries or its `..` records
//! `entries`; consulting its mount coverage (following the mounts stacked
//! on it, or asking whether a `..` starts at a mount root) records
//! `coverage`. A probe hits only while every recorded generation is
//! unchanged. Writers bump just the counter they change, after changing
//! it: `create_node` and `dir_remove` the directory's `entries`;
//! `rename` the `entries` of both directories plus a moved directory's
//! (its `..` changes); mount and umount the `coverage` of the covered
//! directory and of the mount root. `chmod`/`chown` bump nothing, because
//! a walk reads no mode bits. So a user mount over `/mnt/x` leaves
//! `/etc/passwd` cached, and a create or rename inside `/var/mail` leaves
//! the resolution of `/var/mail` itself cached: that walk read only the
//! coverage of `/var/mail`, not its entries. The walk's mount-table
//! snapshot is taken before its generation loads, so a walk that
//! overlapped a mount or umount could pair a fresh generation with a
//! stale snapshot; such a walk is not stored (`mount_seq` moved).
//!
//! Every miss also names the inode it found, and its entry carries that
//! canonical path, which [`Vfs::resolve_canonical`] (`open`, `execve`)
//! serves on a hit. Each inode keeps its one name beside its parent, as a
//! dentry keeps `d_name`, so naming walks up the parent chain reading
//! each inode's `(parent, name)`, and records what it reads the same way:
//! each parent's `entries` (which a change of the child's name bumps) and
//! each inode's `coverage` (whether a mount is rooted at it). So the
//! entry goes stale exactly when [`Vfs::path_of`] would change: an
//! ancestor rename or removal, or a mount or umount rooted on the chain.
//!
//! A stale entry is not always a walk. When a miss ended by looking a
//! plain last name up in a directory whose entries it had not read
//! before, found a regular file, and named it by that same `(dir, name)` pair,
//! the entry keeps the pair; a later probe whose only moved generation is
//! that directory's `entries` redoes the one lookup
//! ([`Vfs::revalidate`]) instead of the walk. A regular file bound at
//! `(dir, name)` has exactly one name, so the entry's directories and
//! canonical path still hold for whatever file the name binds now. So an
//! atomic-replace `rename` over a spool, or a create beside it, leaves
//! the spool's path a hit. Any other answer (no entry, a directory, a
//! symlink) and any other moved generation fall through to the walk.
//!
//! Lock discipline (see DESIGN.md §13):
//! * at most one inode-shard guard is held at a time, except through
//!   [`Vfs::with_pair`] which orders by shard index;
//! * dcache before inode, never nested: a probe takes no inode guard
//!   while it holds a dcache shard guard (it copies what its revalidating
//!   lookup needs and drops the shard guard first), and writers bump
//!   generations without any dcache lock;
//! * the allocator mutex is never held while taking a shard lock
//!   (`alloc` reserves the ino, drops the mutex, then writes the shard;
//!   reclaim pushes to the free list *while* holding the shard guard,
//!   which is safe because no path acquires alloc → shard);
//! * cross-directory `rename` serializes on a dedicated mutex — only
//!   rename can move a directory, so the ancestor cycle-walk is sound
//!   under that lock alone.

use super::arena::{ArenaString, PathArena};
use super::inode::{Attrs, Ino, Inode, InodeData, Mode, ProcHook};
use super::intern::Name;
use crate::cred::{Gid, Uid};
use crate::error::{Errno, KResult};
use crate::sync::{self, CachePadded};
use crate::trace::CacheStats;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Maximum symlink expansions during one path walk (Linux uses 40).
const MAX_SYMLINK_DEPTH: usize = 16;

/// Number of inode-arena shards. An inode lives in shard `ino % NSHARDS`,
/// so consecutively allocated inodes (a directory and its children)
/// scatter across shards and parallel walks of independent subtrees
/// rarely touch the same lock.
const NSHARDS: usize = 64;

/// Number of dcache shards (the key's hash picks one).
const DSHARDS: usize = 16;

/// Bound on cached resolutions; a dcache shard is flushed wholesale when
/// it fills (a simulation stand-in for the kernel's LRU shrinker).
const DCACHE_CAPACITY: usize = 4096;

/// Longest path a walk accepts; longer ones fail `ENAMETOOLONG`.
pub(crate) const PATH_MAX: usize = 4096;

const fn shard_of(ino: Ino) -> usize {
    ino.0 % NSHARDS
}

const fn slot_of(ino: Ino) -> usize {
    ino.0 / NSHARDS
}

/// A dcache key: starting directory, follow-last flag, raw path.
type DcacheKey<'a> = (Ino, bool, &'a str);

/// Hashes a dcache key in one pass over the path, word-at-a-time
/// (FxHash-style `(h.rotl(5) ^ w) * K`), then avalanches so that both the
/// shard index and the map's bucket bits are well spread. The one hash
/// serves the shard choice and the map lookup, and the probe never
/// touches the interner. Not DoS-resistant; a collision only costs a
/// miss, because a probe also compares the full key.
fn dcache_hash((start, follow_last, path): DcacheKey<'_>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut h = mix(mix(start.0 as u64, follow_last as u64), path.len() as u64);
    let mut words = path.as_bytes().chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Hands a precomputed [`dcache_hash`] to the shard map unchanged.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("dcache maps are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// One shard of the dentry cache fronting [`Vfs::resolve`], keyed by the
/// key's [`dcache_hash`]. Each entry carries the directory generations its
/// walk depended on (see the module docs); a probe that finds one of them
/// moved drops the entry and counts an invalidation. Probes share the
/// shard's read lock, so threads whose hot paths hash to one shard never
/// wait for each other on a hit; the counters are atomic for that reason.
#[derive(Debug, Default)]
struct DcacheShard {
    map: HashMap<u64, Cached, BuildHasherDefault<PreHashed>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// A cached resolution, the full key it was stored under, the canonical
/// path of the inode it found, and the generations it is valid for.
#[derive(Debug)]
struct Cached {
    key: DcacheKey<'static>,
    resolved: Resolved,
    path: AbsPath,
    deps: Box<[Dep]>,
    /// The final lookup a probe may redo when only this directory's
    /// `entries` moved (see [`Trail::last`]).
    last: Option<(Ino, Name)>,
}

/// What a cached walk records as it reads.
#[derive(Default)]
struct Trail {
    /// The generations it read.
    deps: DirChain<Dep>,
    /// `(dir, name)` when the walk ended by looking the path's plain last
    /// name up in `dir`, whose entries it had not read before, and found
    /// a regular file.
    last: Option<(Ino, Name)>,
}

/// A stale entry's answer, copied out of the dcache for
/// [`Vfs::revalidate`]: the walk's directories and canonical path, the
/// generations it recorded, and the lookup to redo.
struct Redo {
    dirs: DirChain,
    path: AbsPath,
    deps: DirChain<Dep>,
    dir: Ino,
    name: Name,
}

/// The canonical absolute path of an inode, the text [`Vfs::path_of`]
/// returns: interned, with its text kept beside the symbol so that a
/// reader on a hot path takes no interner lock. Its `Debug` is that of
/// its text, a quoted string, as recorded traces show an exec's path.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AbsPath {
    name: Name,
    text: &'static str,
}

impl AbsPath {
    /// Interns `path`, which the caller vouches is absolute and canonical.
    pub fn intern(path: &str) -> AbsPath {
        let name = Name::intern(path);
        AbsPath {
            name,
            text: name.as_str(),
        }
    }

    /// The interned symbol.
    pub fn name(self) -> Name {
        self.name
    }

    /// The path's text.
    pub fn as_str(self) -> &'static str {
        self.text
    }
}

impl std::fmt::Debug for AbsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.text.fmt(f)
    }
}

/// One directory's two generations, padded to a cache line so that a
/// probe checking both loads one line and two directories never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct DirGen {
    /// Bumped when a name is added or removed, on a rename, or when the
    /// directory's `..` changes.
    entries: AtomicU64,
    /// Bumped when a mount covers or uncovers the directory, or is rooted
    /// at it.
    coverage: AtomicU64,
}

/// The part of a directory a walk read, and so the generation it records
/// and a writer bumps.
#[derive(Clone, Copy, Debug)]
enum Part {
    /// Its entries or its `..`.
    Entries,
    /// Its mount coverage, or whether a mount is rooted at it.
    Coverage,
}

impl DirGen {
    fn get(&self, part: Part) -> &AtomicU64 {
        match part {
            Part::Entries => &self.entries,
            Part::Coverage => &self.coverage,
        }
    }
}

/// A [`Dep`] generation for a part the walk did not read.
const UNREAD: u64 = u64::MAX;

/// One dependency of a cached resolution: a directory and the value each
/// of its generations held before the walk read that part of it, or
/// [`UNREAD`].
#[derive(Clone, Copy, Debug, Default)]
struct Dep {
    dir: Ino,
    entries: u64,
    coverage: u64,
}

/// The directory generations, indexed by the exact ino in a segmented,
/// grow-only table: bucket `b` holds `2^b` [`DirGen`]s, for the inos
/// `2^b - 1 ..= 2^(b+1) - 2`. Each bucket is published once and never
/// moved or reset, so a reader takes no lock, and [`Vfs::alloc`] creates
/// an ino's bucket before it hands the ino out. Directories are never
/// reclaimed, so a generation a walk read belongs to the same directory
/// for good.
#[derive(Debug)]
struct DirGens([OnceLock<Box<[DirGen]>>; usize::BITS as usize]);

impl DirGens {
    /// The bucket holding `ino`, and its index there.
    fn locate(ino: Ino) -> (usize, usize) {
        let i = ino.0 + 1;
        let bucket = i.ilog2() as usize;
        (bucket, i - (1 << bucket))
    }

    /// Creates the bucket holding `ino` unless it exists.
    fn reserve(&self, ino: Ino) {
        let bucket = DirGens::locate(ino).0;
        self.0[bucket].get_or_init(|| (0..1usize << bucket).map(|_| DirGen::default()).collect());
    }

    /// The generations of directory `ino`.
    fn get(&self, ino: Ino) -> &DirGen {
        let (bucket, i) = DirGens::locate(ino);
        &self.0[bucket].get().expect("alloc creates an ino's bucket")[i]
    }
}

impl DcacheShard {
    /// Stores an entry under its key's hash, replacing any already
    /// there. Inserting a fresh hash into a full shard flushes it
    /// wholesale first.
    fn store(&mut self, hash: u64, entry: Cached) {
        if self.map.len() >= DCACHE_CAPACITY / DSHARDS && !self.map.contains_key(&hash) {
            self.map.clear();
            *self.invalidations.get_mut() += 1;
        }
        self.map.insert(hash, entry);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Inode id allocator: free-list of reclaimed slots plus the
/// next-never-used id.
#[derive(Debug)]
struct AllocState {
    free: Vec<Ino>,
    next: usize,
}

/// Parsed mount options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MountOptions {
    /// Mount read-only.
    pub read_only: bool,
    /// Ignore setuid/setgid bits on this mount.
    pub nosuid: bool,
    /// Disallow device nodes.
    pub nodev: bool,
    /// Disallow executing binaries.
    pub noexec: bool,
    /// Unrecognized option strings, preserved verbatim.
    pub extra: Vec<String>,
}

impl MountOptions {
    /// Parses a comma-separated option string (`"ro,nosuid,nodev"`).
    pub fn parse(s: &str) -> MountOptions {
        let mut o = MountOptions::default();
        for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match tok {
                "ro" => o.read_only = true,
                "rw" => o.read_only = false,
                "nosuid" => o.nosuid = true,
                "suid" => o.nosuid = false,
                "nodev" => o.nodev = true,
                "dev" => o.nodev = false,
                "noexec" => o.noexec = true,
                "exec" => o.noexec = false,
                "defaults" => {}
                other => o.extra.push(other.to_string()),
            }
        }
        o
    }

    /// Renders the options back to a canonical comma-separated string.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.push(if self.read_only { "ro" } else { "rw" }.to_string());
        if self.nosuid {
            parts.push("nosuid".into());
        }
        if self.nodev {
            parts.push("nodev".into());
        }
        if self.noexec {
            parts.push("noexec".into());
        }
        parts.extend(self.extra.iter().cloned());
        parts.join(",")
    }
}

/// A mounted filesystem instance.
#[derive(Clone, Debug)]
pub struct Mount {
    /// Unique id, monotonically assigned.
    pub id: u64,
    /// Source device or pseudo-fs name (`/dev/cdrom`, `proc`).
    pub source: String,
    /// Normalized absolute mountpoint path.
    pub mountpoint: String,
    /// Filesystem type (`iso9660`, `vfat`, `proc`, ...).
    pub fstype: String,
    /// Active options.
    pub options: MountOptions,
    /// Root inode of the mounted tree.
    pub root: Ino,
    /// The directory inode this mount covers.
    pub covered: Ino,
    /// Real uid of the mounting user (recorded for user-umount policy).
    pub mounted_by: Uid,
}

/// Directories traversed during one resolution (or, in the dcache, the
/// directory generations it depends on, and in a naming walk, the names
/// it collects), inline up to `DIR_INLINE` deep
/// so the common walk — and cloning a dcache hit — never touches the
/// heap. Deeper walks spill to a `Vec`.
#[derive(Clone, Debug)]
pub struct DirChain<T = Ino> {
    inline: [T; DIR_INLINE],
    len: usize,
    spill: Vec<T>,
}

/// Inline capacity of a [`DirChain`]; covers any realistic path depth.
const DIR_INLINE: usize = 12;

impl<T: Copy + Default> DirChain<T> {
    /// An empty chain (no allocation).
    pub fn new() -> DirChain<T> {
        DirChain {
            inline: [T::default(); DIR_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends an element to the chain.
    pub fn push(&mut self, item: T) {
        if self.len < DIR_INLINE {
            self.inline[self.len] = item;
        } else {
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// The most recently pushed element.
    pub fn last(&self) -> Option<T> {
        match self.len {
            0 => None,
            n if n <= DIR_INLINE => Some(self.inline[n - 1]),
            _ => self.spill.last().copied(),
        }
    }

    /// Iterates the elements in push order, mutably.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.inline[..self.len.min(DIR_INLINE)]
            .iter_mut()
            .chain(self.spill.iter_mut())
    }

    /// Number of directories recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the elements in push order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = T> + '_ {
        self.inline[..self.len.min(DIR_INLINE)]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }
}

impl<T: Copy + Default> Default for DirChain<T> {
    fn default() -> Self {
        DirChain::new()
    }
}

/// Outcome of a full path resolution.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// The final inode.
    pub ino: Ino,
    /// Every directory inode traversed (for search-permission checks),
    /// excluding the final inode.
    pub dirs: DirChain,
    /// The entry the final inode was looked up under, `(dir, name)`;
    /// `None` when the walk ended without a lookup (at its start or
    /// through `..`). See [`Vfs::pin`].
    pub bound: Option<(Ino, Name)>,
}

/// Shared (read) access to a single inode; derefs to [`Inode`].
///
/// Holds the inode's shard read-locked — drop it before acquiring any
/// other inode guard (the arena discipline is one guard at a time).
pub struct InodeRef<'a> {
    shard: RwLockReadGuard<'a, Vec<Inode>>,
    slot: usize,
}

impl std::ops::Deref for InodeRef<'_> {
    type Target = Inode;
    fn deref(&self) -> &Inode {
        &self.shard[self.slot]
    }
}

/// Exclusive (write) access to a single inode; derefs to [`Inode`].
///
/// Same single-guard discipline as [`InodeRef`]. Callers that change
/// content or metadata must call [`Vfs::touch`] (after dropping the
/// guard) so watchers observe the change.
pub struct InodeMut<'a> {
    shard: RwLockWriteGuard<'a, Vec<Inode>>,
    slot: usize,
}

impl std::ops::Deref for InodeMut<'_> {
    type Target = Inode;
    fn deref(&self) -> &Inode {
        &self.shard[self.slot]
    }
}

impl std::ops::DerefMut for InodeMut<'_> {
    fn deref_mut(&mut self) -> &mut Inode {
        &mut self.shard[self.slot]
    }
}

/// The virtual filesystem state.
#[derive(Debug)]
pub struct Vfs {
    /// Inode arena, sharded by `ino % NSHARDS`.
    shards: Vec<CachePadded<RwLock<Vec<Inode>>>>,
    alloc: Mutex<AllocState>,
    root: Ino,
    /// The mount table, copied on write so a walk's snapshot is one
    /// reference-count bump.
    mounts: RwLock<Arc<Vec<Mount>>>,
    next_mount_id: AtomicU64,
    /// Global change sequence, bumped on every mutation; cheap poll target
    /// for the monitoring daemon. Read via [`Vfs::change_seq`].
    change_seq: CachePadded<AtomicU64>,
    /// Mount-table sequence, bumped under the `mounts` write lock. Only a
    /// guard: a walk that saw it move is not stored in the dcache.
    mount_seq: AtomicU64,
    /// Per-directory generations: `entries` bumped after every change to
    /// a directory's entries or `..`, `coverage` after every mount or
    /// umount over or rooted at it.
    dir_gens: DirGens,
    dcache: Vec<CachePadded<RwLock<DcacheShard>>>,
    dcache_enabled: AtomicBool,
    /// Serializes renames. Only rename re-parents a directory, so holding
    /// this lock makes the into-own-subtree ancestor walk race-free
    /// without locking the whole namespace.
    rename_lock: Mutex<()>,
}

fn placeholder_inode(ino: Ino) -> Inode {
    Inode {
        ino,
        parent: Ino(0),
        name: None,
        mode: Mode(0),
        uid: Uid::ROOT,
        gid: Gid::ROOT,
        data: InodeData::Regular(Vec::new()),
        version: 0,
        nlink: 0,
        opens: 0,
    }
}

fn mount_rooted_at_in(mounts: &[Mount], ino: Ino) -> Option<&Mount> {
    mounts.iter().rev().find(|m| m.root == ino)
}

fn mount_covering_in(mounts: &[Mount], ino: Ino) -> Option<&Mount> {
    mounts.iter().rev().find(|m| m.covered == ino)
}

/// Follows the mounts stacked on directory `ino`, passing each directory
/// whose coverage it consults to `note` first.
fn follow_mounts_in(mounts: &[Mount], mut ino: Ino, mut note: impl FnMut(Ino)) -> Ino {
    // The guard bounds pathological self-covering stacks, which
    // `add_mount` rejects but which defensive code should not spin on.
    for _ in 0..mounts.len() + 1 {
        note(ino);
        match mount_covering_in(mounts, ino) {
            Some(m) if m.root != ino => ino = m.root,
            _ => break,
        }
    }
    ino
}

impl Vfs {
    /// Creates a VFS with an empty root directory owned by root.
    pub fn new() -> Vfs {
        let root_inode = Inode {
            ino: Ino(0),
            parent: Ino(0),
            name: None,
            mode: Mode(0o755),
            uid: Uid::ROOT,
            gid: Gid::ROOT,
            data: InodeData::Directory(BTreeMap::new()),
            version: 0,
            nlink: 2,
            opens: 0,
        };
        let mut shards = Vec::with_capacity(NSHARDS);
        for s in 0..NSHARDS {
            shards.push(CachePadded(RwLock::new(if s == 0 {
                vec![root_inode.clone()]
            } else {
                Vec::new()
            })));
        }
        let dir_gens = DirGens(std::array::from_fn(|_| OnceLock::new()));
        dir_gens.reserve(Ino(0));
        Vfs {
            shards,
            alloc: Mutex::new(AllocState {
                free: Vec::new(),
                next: 1,
            }),
            root: Ino(0),
            mounts: RwLock::new(Arc::new(Vec::new())),
            next_mount_id: AtomicU64::new(1),
            change_seq: CachePadded(AtomicU64::new(0)),
            mount_seq: AtomicU64::new(0),
            dir_gens,
            dcache: (0..DSHARDS)
                .map(|_| CachePadded(RwLock::new(DcacheShard::default())))
                .collect(),
            dcache_enabled: AtomicBool::new(true),
            rename_lock: Mutex::new(()),
        }
    }

    /// The root directory inode.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// The attributes of `ino` an access check reads, under one guard
    /// that is dropped on return.
    pub fn attrs(&self, ino: Ino) -> Attrs {
        self.inode(ino).attrs()
    }

    /// Shared inode access. The returned guard read-locks the inode's
    /// shard; hold at most one inode guard at a time.
    pub fn inode(&self, ino: Ino) -> InodeRef<'_> {
        InodeRef {
            shard: sync::read(&self.shards[shard_of(ino)]),
            slot: slot_of(ino),
        }
    }

    /// Exclusive inode access. Callers that change content or metadata
    /// must call [`Vfs::touch`] so watchers observe the change.
    pub fn inode_mut(&self, ino: Ino) -> InodeMut<'_> {
        InodeMut {
            shard: sync::write(&self.shards[shard_of(ino)]),
            slot: slot_of(ino),
        }
    }

    /// Advances the change sequence, returning the new value.
    fn next_seq(&self) -> u64 {
        self.change_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current global change sequence (bumped on every mutation).
    pub fn change_seq(&self) -> u64 {
        self.change_seq.load(Ordering::Relaxed)
    }

    /// Records a modification of `ino` for change watchers.
    pub fn touch(&self, ino: Ino) {
        let seq = self.next_seq();
        self.inode_mut(ino).version = seq;
    }

    /// Allocates an inode, reusing a reclaimed slot when one is free.
    pub fn alloc(&self, parent: Ino, mode: Mode, uid: Uid, gid: Gid, data: InodeData) -> Ino {
        let nlink = if data.is_dir() { 2 } else { 1 };
        // Reserve the id first, then drop the allocator mutex before
        // touching the shard (alloc → shard is the forbidden order's
        // mirror image; see the module docs).
        let ino = {
            let mut a = sync::lock(&self.alloc);
            match a.free.pop() {
                Some(i) => i,
                None => {
                    let i = Ino(a.next);
                    a.next += 1;
                    i
                }
            }
        };
        self.dir_gens.reserve(ino);
        let (s, slot) = (shard_of(ino), slot_of(ino));
        let mut g = sync::write(&self.shards[s]);
        // Two threads can reserve fresh ids in the same shard and arrive
        // out of order, so grow with placeholders up to our slot.
        while g.len() < slot {
            let pad = Ino(g.len() * NSHARDS + s);
            g.push(placeholder_inode(pad));
        }
        let inode = Inode {
            ino,
            parent,
            name: None,
            mode,
            uid,
            gid,
            data,
            version: 0,
            nlink,
            opens: 0,
        };
        if g.len() == slot {
            g.push(inode);
        } else {
            g[slot] = inode;
        }
        ino
    }

    /// Number of inode slots ever allocated (live + reclaimed).
    pub fn inode_count(&self) -> usize {
        sync::lock(&self.alloc).next
    }

    /// Inode slots currently sitting on the free list.
    pub fn reclaimed_slots(&self) -> Vec<Ino> {
        sync::lock(&self.alloc).free.clone()
    }

    /// Records that a file description opened `ino`.
    pub fn inc_open(&self, ino: Ino) {
        self.inode_mut(ino).opens += 1;
    }

    /// Records that a file description opened the inode `r` found, if a
    /// concurrent unlink or rename has not unbound it since: it must still
    /// be named by `r`'s final lookup (a directory, which is never
    /// reclaimed, always qualifies). Checked and counted under the inode's
    /// guard, so a pinned inode is not reclaimed until
    /// [`Vfs::dec_open`], and a freed or reused slot is never pinned.
    /// Returns the attributes `open` checks, read under the same guard;
    /// on `None` the caller walks again.
    pub fn pin(&self, r: &Resolved) -> Option<Attrs> {
        let mut node = self.inode_mut(r.ino);
        let bound = node.data.is_dir()
            || (node.nlink > 0 && node.name.is_some_and(|n| r.bound == Some((node.parent, n))));
        bound.then(|| {
            node.opens += 1;
            node.attrs()
        })
    }

    /// Records a close; reclaims the inode if it is also unlinked.
    pub fn dec_open(&self, ino: Ino) {
        let mut g = self.inode_mut(ino);
        g.opens = g.opens.saturating_sub(1);
        drop(g);
        self.maybe_reclaim(ino);
    }

    /// Reclaims an inode with no links and no opens. The root, mount
    /// roots, and hook nodes always keep a link, so only orphaned
    /// regular files/symlinks are recycled.
    fn maybe_reclaim(&self, ino: Ino) {
        if ino == self.root {
            return;
        }
        let mut g = self.inode_mut(ino);
        if g.nlink == 0 && g.opens == 0 && !matches!(g.data, InodeData::Directory(_)) {
            // Drop contents eagerly and remember the slot. The free-list
            // push happens under the shard guard (shard → alloc order) so
            // concurrent callers cannot double-free the slot.
            g.data = InodeData::Regular(Vec::new());
            sync::lock(&self.alloc).free.push(ino);
        }
    }

    /// Runs `f` with exclusive access to two *distinct* inodes at once —
    /// the only sanctioned way to hold two inode guards. Locks shards in
    /// ascending index order (or splits one shard's slice) so concurrent
    /// pairs cannot deadlock.
    fn with_pair<R>(&self, a: Ino, b: Ino, f: impl FnOnce(&mut Inode, &mut Inode) -> R) -> R {
        assert_ne!(a, b, "with_pair requires distinct inodes");
        let (sa, sb) = (shard_of(a), shard_of(b));
        if sa == sb {
            let mut g = sync::write(&self.shards[sa]);
            let (ia, ib) = (slot_of(a), slot_of(b));
            if ia < ib {
                let (left, right) = g.split_at_mut(ib);
                f(&mut left[ia], &mut right[0])
            } else {
                let (left, right) = g.split_at_mut(ia);
                f(&mut right[0], &mut left[ib])
            }
        } else if sa < sb {
            let mut ga = sync::write(&self.shards[sa]);
            let mut gb = sync::write(&self.shards[sb]);
            f(&mut ga[slot_of(a)], &mut gb[slot_of(b)])
        } else {
            let mut gb = sync::write(&self.shards[sb]);
            let mut ga = sync::write(&self.shards[sa]);
            f(&mut ga[slot_of(a)], &mut gb[slot_of(b)])
        }
    }

    // ------------------------------------------------------------------
    // Path handling
    // ------------------------------------------------------------------

    /// Iterates over normalized path components, resolving `.` lexically.
    /// `..` is preserved (it must be resolved against the directory tree,
    /// not lexically, to honour symlinks and mounts). Borrows from `path`
    /// and never allocates — this is the hot-path walker.
    pub fn component_iter(path: &str) -> impl Iterator<Item = &str> + '_ {
        path.split('/').filter(|c| !c.is_empty() && *c != ".")
    }

    // ------------------------------------------------------------------
    // Dentry cache
    // ------------------------------------------------------------------

    /// Invalidates every cached resolution that read `part` of directory
    /// `ino`.
    fn bump(&self, ino: Ino, part: Part) {
        self.dir_gens
            .get(ino)
            .get(part)
            .fetch_add(1, Ordering::Release);
    }

    /// Records that a walk is about to read `part` of directory `dir`. The
    /// generation is loaded before the read, so a change racing the read
    /// leaves the entry already stale. Every read of one directory shares
    /// a [`Dep`]; a part read twice keeps the generation loaded first,
    /// which preceded both reads.
    fn note_dep(&self, trail: &mut Trail, dir: Ino, part: Part) {
        let deps = &mut trail.deps;
        if !deps.iter().any(|d| d.dir == dir) {
            deps.push(Dep {
                dir,
                entries: UNREAD,
                coverage: UNREAD,
            });
        }
        let dep = deps
            .iter_mut()
            .find(|d| d.dir == dir)
            .expect("pushed above");
        let seen = match part {
            Part::Entries => &mut dep.entries,
            Part::Coverage => &mut dep.coverage,
        };
        if *seen == UNREAD {
            *seen = self.dir_gens.get(dir).get(part).load(Ordering::Acquire);
        }
    }

    /// Whether every generation `dep` recorded still holds, except the
    /// `entries` of directory `skip`, if any.
    fn dep_fresh(&self, dep: Dep, skip: Option<Ino>) -> bool {
        let gens = self.dir_gens.get(dep.dir);
        (dep.entries == UNREAD
            || skip == Some(dep.dir)
            || gens.entries.load(Ordering::Acquire) == dep.entries)
            && (dep.coverage == UNREAD || gens.coverage.load(Ordering::Acquire) == dep.coverage)
    }

    /// The lookup a probe of the stale `entry` may redo instead of the
    /// walk: its final lookup, when every generation it recorded holds
    /// but the `entries` of the directory that lookup read. Copies what
    /// [`Vfs::revalidate`] needs, so the probe can drop its shard guard.
    fn redo_of(&self, entry: &Cached) -> Option<Redo> {
        let (dir, name) = entry.last?;
        let mut deps = DirChain::new();
        for &dep in entry.deps.iter() {
            if !self.dep_fresh(dep, Some(dir)) {
                return None;
            }
            deps.push(dep);
        }
        Some(Redo {
            dirs: entry.resolved.dirs.clone(),
            path: entry.path,
            deps,
            dir,
            name,
        })
    }

    /// Redoes a stale entry's final lookup in place of its walk,
    /// seqlock-style: the directory's `entries` generation is loaded
    /// before the lookup, and it and every other generation the entry
    /// recorded (which held when [`Vfs::redo_of`] copied them) are checked
    /// again after it. So the lookup and the kind check read the directory
    /// while the rest of the walk still held, and the inode found was not
    /// freed by then (a writer frees a replaced inode only after its
    /// bumps). Returns it if the name binds a regular file.
    fn revalidate(&self, redo: &Redo) -> Option<Ino> {
        let entries = &self.dir_gens.get(redo.dir).entries;
        let seen = entries.load(Ordering::Acquire);
        let ino = self
            .inode(redo.dir)
            .dir_entries()?
            .get(&redo.name)
            .copied()?;
        if !matches!(self.inode(ino).data, InodeData::Regular(_)) {
            return None;
        }
        // The reads above complete before the generations are loaded
        // again.
        fence(Ordering::Acquire);
        let held = entries.load(Ordering::Acquire) == seen
            && redo.deps.iter().all(|d| self.dep_fresh(d, Some(redo.dir)));
        held.then_some(ino)
    }

    /// Enables or disables the dcache (used by benches to measure the cold
    /// path, and by oracles comparing against it). Disabling does not
    /// flush; re-enabled entries are still generation-checked.
    pub fn set_dcache_enabled(&self, on: bool) {
        self.dcache_enabled.store(on, Ordering::Relaxed);
    }

    /// Current dcache hit/miss/invalidation counters (summed over shards).
    pub fn dcache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.dcache {
            total.merge(&sync::read(shard).stats());
        }
        total
    }

    /// Snapshot of the mount table for one walk; allocation-free.
    fn mounts_snapshot(&self) -> Arc<Vec<Mount>> {
        Arc::clone(&sync::read(&self.mounts))
    }

    /// Cache-fronted resolution. Looks up (start dir, follow-last, path) in
    /// its dcache shard and serves the entry if every directory generation
    /// it recorded is unchanged, or if only its final lookup's directory
    /// changed and [`Vfs::revalidate`] finds a regular file under the
    /// name; otherwise walks with [`Vfs::resolve_inner`], names the inode
    /// found with [`Vfs::name_walk`], and stores both with the generations
    /// the two walks loaded. Only called with the dcache on.
    fn resolve_cached(
        &self,
        cwd: Ino,
        path: &str,
        follow_last: bool,
    ) -> KResult<(Resolved, AbsPath)> {
        let start = if path.starts_with('/') {
            self.root
        } else {
            cwd
        };
        let key = (start, follow_last, path);
        let hash = dcache_hash(key);
        let shard = &self.dcache[(hash >> 32) as usize % DSHARDS];
        {
            let _probe_span = crate::trace::span(crate::trace::Pathway::DcacheProbe);
            let fresh = |e: &Cached| e.deps.iter().all(|&d| self.dep_fresh(d, None));
            let dc = sync::read(shard);
            // A hit clones a `Resolved` whose `DirChain` is inline for
            // realistic depths, so the hit path stays allocation-free.
            let (stale, redo) = match dc.map.get(&hash).filter(|e| e.key == key) {
                Some(entry) if fresh(entry) => {
                    let hit = (entry.resolved.clone(), entry.path);
                    dc.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(hit);
                }
                Some(entry) => (true, self.redo_of(entry)),
                None => (false, None),
            };
            if redo.is_none() {
                dc.misses.fetch_add(1, Ordering::Relaxed);
            }
            drop(dc);
            if let Some(redo) = redo {
                let found = self.revalidate(&redo);
                let dc = sync::read(shard);
                if let Some(ino) = found {
                    dc.hits.fetch_add(1, Ordering::Relaxed);
                    let (dirs, bound) = (redo.dirs, Some((redo.dir, redo.name)));
                    return Ok((Resolved { ino, dirs, bound }, redo.path));
                }
                dc.misses.fetch_add(1, Ordering::Relaxed);
            }
            if stale {
                // Unless another probe dropped it, or a walk replaced it
                // with a fresh entry, in the meantime.
                let mut dc = sync::write(shard);
                if dc.map.get(&hash).is_some_and(|e| e.key == key && !fresh(e)) {
                    dc.map.remove(&hash);
                    *dc.invalidations.get_mut() += 1;
                }
            }
        }
        let mount_seq = self.mount_seq.load(Ordering::Acquire);
        let mounts = self.mounts_snapshot();
        let mut trail = Trail::default();
        let resolved = self.resolve_inner(cwd, path, follow_last, 0, &mounts, &mut trail)?;
        let (abs, named) = PathArena::scope(|arena| {
            let (text, named) = self.name_walk(arena, &mounts, resolved.ino, |ino, part| {
                self.note_dep(&mut trail, ino, part)
            });
            (AbsPath::intern(&text), named)
        });
        // The final lookup is worth redoing only if naming read the file's
        // name from that same entry.
        let Trail { deps, last } = trail;
        let last = last.filter(|&l| named == Some(l));
        // The stored key borrows the path's interned text, which lives
        // for the whole process.
        let key = (start, follow_last, Name::intern(path).as_str());
        let mut dc = sync::write(shard);
        // A walk that overlapped a mount or umount may pair its stale
        // snapshot with a fresh generation, so it is not stored.
        if self.mount_seq.load(Ordering::Acquire) == mount_seq {
            let entry = Cached {
                key,
                resolved: resolved.clone(),
                path: abs,
                deps: deps.iter().collect(),
                last,
            };
            dc.store(hash, entry);
        }
        Ok((resolved, abs))
    }

    /// The dcache-off walk: resolves without naming, storing or recording.
    fn resolve_uncached(&self, cwd: Ino, path: &str, follow_last: bool) -> KResult<Resolved> {
        let mounts = self.mounts_snapshot();
        self.resolve_inner(cwd, path, follow_last, 0, &mounts, &mut Trail::default())
    }

    /// [`Vfs::resolve`] or [`Vfs::resolve_nofollow`]. With the dcache on,
    /// a miss names the inode it stores; with it off, nothing is named.
    fn resolve_plain(&self, cwd: Ino, path: &str, follow_last: bool) -> KResult<Resolved> {
        let _resolve_span = crate::trace::span(crate::trace::Pathway::VfsResolve);
        if self.dcache_enabled.load(Ordering::Relaxed) {
            Ok(self.resolve_cached(cwd, path, follow_last)?.0)
        } else {
            self.resolve_uncached(cwd, path, follow_last)
        }
    }

    /// Returns the topmost mount covering directory `ino`, if any.
    pub fn mount_covering(&self, ino: Ino) -> Option<Mount> {
        mount_covering_in(&sync::read(&self.mounts), ino).cloned()
    }

    /// Returns the mount whose root is `ino`, if any.
    pub fn mount_rooted_at(&self, ino: Ino) -> Option<Mount> {
        mount_rooted_at_in(&sync::read(&self.mounts), ino).cloned()
    }

    /// Follows mounts stacked on a directory.
    fn follow_mounts(&self, ino: Ino) -> Ino {
        follow_mounts_in(&self.mounts_snapshot(), ino, |_| {})
    }

    /// Resolves `path` (absolute, or relative to `cwd`) to an inode,
    /// following symlinks in every component including the last.
    pub fn resolve(&self, cwd: Ino, path: &str) -> KResult<Resolved> {
        self.resolve_plain(cwd, path, true)
    }

    /// Resolves `path` without following a symlink in the final component.
    pub fn resolve_nofollow(&self, cwd: Ino, path: &str) -> KResult<Resolved> {
        self.resolve_plain(cwd, path, false)
    }

    /// [`Vfs::resolve`], also naming the inode it finds by its canonical
    /// path (what [`Vfs::path_of`] returns), however `path` spelled it. A
    /// dcache hit serves the path its miss computed, so a warm call
    /// neither walks parents nor interns.
    pub fn resolve_canonical(&self, cwd: Ino, path: &str) -> KResult<(Resolved, AbsPath)> {
        let _resolve_span = crate::trace::span(crate::trace::Pathway::VfsResolve);
        if self.dcache_enabled.load(Ordering::Relaxed) {
            return self.resolve_cached(cwd, path, true);
        }
        let resolved = self.resolve_uncached(cwd, path, true)?;
        let abs = self.abs_path(resolved.ino);
        Ok((resolved, abs))
    }

    fn resolve_inner(
        &self,
        cwd: Ino,
        path: &str,
        follow_last: bool,
        depth: usize,
        mounts: &[Mount],
        trail: &mut Trail,
    ) -> KResult<Resolved> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(Errno::ELOOP);
        }
        if path.len() > PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        let mut cur = if path.starts_with('/') {
            follow_mounts_in(mounts, self.root, |d| {
                self.note_dep(trail, d, Part::Coverage)
            })
        } else {
            cwd
        };
        let mut dirs = DirChain::new();
        let mut comps = Vfs::component_iter(path).peekable();
        if comps.peek().is_none() {
            let bound = None;
            return Ok(Resolved {
                ino: cur,
                dirs,
                bound,
            });
        }
        while let Some(comp) = comps.next() {
            let is_last = comps.peek().is_none();
            // A probe may later redo this lookup alone (see `Trail::last`):
            // the top walk's last step, by the path's plain last name, in a
            // directory whose entries the walk reads here first.
            let redo = depth == 0
                && is_last
                && comp != ".."
                && path.rsplit('/').next() == Some(comp)
                && !trail
                    .deps
                    .iter()
                    .any(|d| d.dir == cur && d.entries != UNREAD);
            // One shard guard at a time: copy the entry and parent out,
            // then drop the guard before touching any other inode.
            // Entries are keyed by interned symbol; a `Name::lookup`
            // miss means the name was never interned anywhere, hence
            // certainly absent from this directory.
            self.note_dep(trail, cur, Part::Entries);
            let key = Name::lookup(comp);
            let (entry, parent) = {
                let node = self.inode(cur);
                let entries = match node.dir_entries() {
                    Some(e) => e,
                    None => return Err(Errno::ENOTDIR),
                };
                let entry = key.and_then(|n| entries.get(&n)).copied();
                (entry, node.parent)
            };
            dirs.push(cur);
            let bound = key.filter(|_| comp != "..").map(|name| (cur, name));
            let next = if comp == ".." {
                // At a mount root, `..` escapes to the covered directory's
                // parent.
                self.note_dep(trail, cur, Part::Coverage);
                if let Some(m) = mount_rooted_at_in(mounts, cur) {
                    self.note_dep(trail, m.covered, Part::Entries);
                    self.inode(m.covered).parent
                } else {
                    parent
                }
            } else {
                match entry {
                    Some(ino) => ino,
                    None => return Err(Errno::ENOENT),
                }
            };
            // Symlink expansion. (An inode's kind never changes while it
            // is live, so reading it in a fresh scope is race-free.)
            let (sym_target, is_dir, is_file) = {
                let node = self.inode(next);
                match &node.data {
                    InodeData::Symlink(t) => (Some(t.clone()), false, false),
                    data => (None, data.is_dir(), matches!(data, InodeData::Regular(_))),
                }
            };
            if let Some(target) = sym_target {
                if is_last && !follow_last {
                    return Ok(Resolved {
                        ino: next,
                        dirs,
                        bound,
                    });
                }
                let sub = self.resolve_inner(cur, &target, true, depth + 1, mounts, trail)?;
                for d in sub.dirs.iter() {
                    dirs.push(d);
                }
                let mut landed = sub.ino;
                if !is_last {
                    landed = follow_mounts_in(mounts, landed, |d| {
                        self.note_dep(trail, d, Part::Coverage)
                    });
                    cur = landed;
                    continue;
                }
                let landed = if self.inode(landed).data.is_dir() {
                    follow_mounts_in(mounts, landed, |d| self.note_dep(trail, d, Part::Coverage))
                } else {
                    landed
                };
                let bound = sub.bound;
                return Ok(Resolved {
                    ino: landed,
                    dirs,
                    bound,
                });
            }
            // Mount traversal.
            let next = if is_dir {
                follow_mounts_in(mounts, next, |d| self.note_dep(trail, d, Part::Coverage))
            } else {
                next
            };
            if is_last {
                if redo && is_file {
                    trail.last = bound;
                }
                return Ok(Resolved {
                    ino: next,
                    dirs,
                    bound,
                });
            }
            cur = next;
        }
        unreachable!("loop returns on last component");
    }

    /// Resolves the parent directory of `path` and returns it with the
    /// final component name. Used by create/unlink-style operations.
    ///
    /// The parent prefix and the name are borrowed straight out of `path`
    /// (no join), so the walk itself allocates nothing.
    pub fn resolve_parent<'p>(&self, cwd: Ino, path: &'p str) -> KResult<(Resolved, &'p str)> {
        // Locate the last normalized component and its byte offset.
        let mut last: Option<(usize, &str)> = None;
        let mut off = 0;
        for seg in path.split('/') {
            if !seg.is_empty() && seg != "." {
                last = Some((off, seg));
            }
            off += seg.len() + 1;
        }
        let (start, name) = last.ok_or(Errno::EINVAL)?;
        if name == ".." {
            return Err(Errno::EINVAL);
        }
        // `resolve("")` yields the start directory, which matches the old
        // behaviour of resolving "." for a bare relative name.
        let r = self.resolve(cwd, &path[..start])?;
        if !self.inode(r.ino).data.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        Ok((r, name))
    }

    /// Computes the absolute path of an inode by walking parents. Mount
    /// roots are translated through their covered directory. Allocating
    /// form of [`Vfs::path_of_in`] for diagnostics and `/proc/mounts`.
    pub fn path_of(&self, ino: Ino) -> String {
        PathArena::scope(|arena| self.path_of_in(arena, ino).to_string())
    }

    /// [`Vfs::path_of`], interned: the name `open` records for an inode
    /// no cached walk named (an `O_CREAT` open, a dcache-off resolve).
    pub fn abs_path(&self, ino: Ino) -> AbsPath {
        PathArena::scope(|arena| AbsPath::intern(&self.path_of_in(arena, ino)))
    }

    /// Computes the absolute path of an inode into an arena buffer,
    /// allocating no heap memory for realistic depths in steady state.
    /// It is the walk that names the inode a dcache miss stores, with
    /// nothing recorded.
    pub fn path_of_in<'a>(&self, arena: &'a PathArena, ino: Ino) -> ArenaString<'a> {
        self.name_walk(arena, &self.mounts_snapshot(), ino, |_, _| {})
            .0
    }

    /// Walks from `ino` up to the root and joins the names found into an
    /// arena buffer, allocating no heap memory for realistic depths in
    /// steady state: entry names come back as interned `&'static str`s,
    /// the collected parent chain lives in a [`DirChain`], and the joined
    /// path reuses recycled arena capacity. Each inode's name is the one it
    /// keeps beside its parent; an unlinked inode is marked `<inoN>`, and
    /// a mount root stands for the directory it covers. Before each read
    /// it passes `note` what it is about to read, as a dcache walk does:
    /// each mount-root check reads the inode's coverage, each name read
    /// its parent's entries. Also returns the `(parent, name)` pair it
    /// read for the first name it joined, if that name was not a marker.
    fn name_walk<'a>(
        &self,
        arena: &'a PathArena,
        mounts: &[Mount],
        ino: Ino,
        mut note: impl FnMut(Ino, Part),
    ) -> (ArenaString<'a>, Option<(Ino, Name)>) {
        let mut cur = ino;
        let mut parts: DirChain<&'static str> = DirChain::new();
        let mut first = None;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 4096 {
                return (arena.alloc_str("<cycle>"), None);
            }
            note(cur, Part::Coverage);
            if let Some(m) = mount_rooted_at_in(mounts, cur) {
                cur = m.covered;
                continue;
            }
            if cur == self.root {
                break;
            }
            // A rename sets the moved inode's parent and name before it
            // bumps the old parent's generation: the pair is read after
            // `note`, and a parent that changed under it is read again, so
            // `note` saw the generation of the directory that names `cur`.
            let parent = self.inode(cur).parent;
            note(parent, Part::Entries);
            let (now, name) = {
                let c = self.inode(cur);
                (c.parent, c.name)
            };
            if now != parent {
                continue;
            }
            if parts.is_empty() {
                first = name.map(|name| (parent, name));
            }
            let name = match name {
                Some(name) => name.as_str(),
                // Orphan diagnostic (cold): intern so the text gets the
                // 'static lifetime the parts array needs.
                None => Name::intern(&format!("<ino{}>", cur.0)).as_str(),
            };
            parts.push(name);
            cur = parent;
        }
        // Parts were collected leaf-to-root; present them root-to-leaf.
        (arena.join_path(parts.iter().rev()), first)
    }

    // ------------------------------------------------------------------
    // Directory operations (mechanism; callers check permissions)
    // ------------------------------------------------------------------

    /// Looks up a single name in a directory (no symlink/mount logic).
    pub fn dir_lookup(&self, dir: Ino, name: &str) -> KResult<Option<Ino>> {
        let d = self.inode(dir);
        let entries = d.dir_entries().ok_or(Errno::ENOTDIR)?;
        Ok(Name::lookup(name).and_then(|n| entries.get(&n)).copied())
    }

    /// Lists a directory's entry names in sorted order. (The entry map
    /// iterates in symbol order, so the resolved strings are re-sorted
    /// to preserve the lexicographic `readdir` contract.)
    pub fn dir_names(&self, dir: Ino) -> KResult<Vec<String>> {
        let d = self.inode(dir);
        let entries = d.dir_entries().ok_or(Errno::ENOTDIR)?;
        let mut names: Vec<String> = entries.keys().map(|n| n.as_str().to_string()).collect();
        names.sort();
        Ok(names)
    }

    /// Allocates an inode and links it into `dir` as `name`, its one name;
    /// `EEXIST` if the name exists. The entry and the name appear in one
    /// critical section, so no walk finds the inode unnamed. A check first
    /// keeps the common error paths from allocating.
    pub(crate) fn create_node(
        &self,
        dir: Ino,
        name: &str,
        mode: Mode,
        uid: Uid,
        gid: Gid,
        data: InodeData,
    ) -> KResult<Ino> {
        if name.is_empty() || name.contains('/') {
            return Err(Errno::EINVAL);
        }
        {
            let d = self.inode(dir);
            let entries = d.dir_entries().ok_or(Errno::ENOTDIR)?;
            if Name::lookup(name).is_some_and(|n| entries.contains_key(&n)) {
                return Err(Errno::EEXIST);
            }
        }
        // Intern outside the shard guards: interner locks are leaves, but
        // there is no reason to nest them under an inode lock.
        let key = Name::intern(name);
        let ino = self.alloc(dir, mode, uid, gid, data);
        let added = self.with_pair(dir, ino, |d, c| {
            let entries = match &mut d.data {
                InodeData::Directory(e) => e,
                _ => return Err(Errno::ENOTDIR),
            };
            if entries.contains_key(&key) {
                return Err(Errno::EEXIST);
            }
            entries.insert(key, ino);
            c.name = Some(key);
            if c.data.is_dir() {
                d.nlink += 1;
            }
            d.version = self.next_seq();
            Ok(())
        });
        if let Err(e) = added {
            // A racing creator took the name. No directory links this
            // inode and no walk found it, so its slot is freed, under the
            // shard guard (shard → alloc is the sanctioned order) so no
            // one observes it half reset.
            let mut g = self.inode_mut(ino);
            g.data = InodeData::Regular(Vec::new());
            g.nlink = 0;
            sync::lock(&self.alloc).free.push(ino);
            return Err(e);
        }
        self.bump(dir, Part::Entries);
        Ok(ino)
    }

    /// Removes a directory entry, returning the unlinked inode number,
    /// which loses its name and keeps its parent.
    ///
    /// Removing a *directory* entry requires the directory to be empty —
    /// this is checked here (atomically with the removal, both inodes
    /// locked), not just in [`Vfs::rmdir`], because this is a `pub` API
    /// and dropping a populated subtree to `nlink = 0` would orphan every
    /// inode under it.
    pub fn dir_remove(&self, dir: Ino, name: &str) -> KResult<Ino> {
        let (key, child) = {
            let d = self.inode(dir);
            let entries = d.dir_entries().ok_or(Errno::ENOTDIR)?;
            // A lookup miss is authoritative: a name that was never
            // interned cannot be a key in any directory.
            let key = Name::lookup(name).ok_or(Errno::ENOENT)?;
            (key, *entries.get(&key).ok_or(Errno::ENOENT)?)
        };
        self.with_pair(dir, child, |d, c| {
            let entries = match &mut d.data {
                InodeData::Directory(e) => e,
                _ => return Err(Errno::ENOTDIR),
            };
            // Re-check under the pair lock: the entry may have raced away.
            match entries.get(&key) {
                Some(&i) if i == child => {}
                _ => return Err(Errno::ENOENT),
            }
            if let Some(sub) = c.dir_entries() {
                if !sub.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
            }
            entries.remove(&key);
            c.name = None;
            if c.data.is_dir() {
                d.nlink -= 1;
            }
            // For a directory, the emptiness check above guarantees
            // nothing is orphaned.
            c.nlink = 0;
            d.version = self.next_seq();
            Ok(())
        })?;
        // Freed only after the bump, so no probe returns a freed slot: a
        // hit checks the bumped generation, and a revalidating probe that
        // looked the name up before the removal checks it again after.
        self.bump(dir, Part::Entries);
        self.maybe_reclaim(child);
        Ok(child)
    }

    /// Creates a regular file; `exclusive` makes an existing name an error.
    pub fn create_file(
        &self,
        dir: Ino,
        name: &str,
        mode: Mode,
        uid: Uid,
        gid: Gid,
        exclusive: bool,
    ) -> KResult<Ino> {
        match self.create_node(dir, name, mode, uid, gid, InodeData::Regular(Vec::new())) {
            // The name exists, or a racing creator just added it.
            Err(Errno::EEXIST) if !exclusive => self.dir_lookup(dir, name)?.ok_or(Errno::ENOENT),
            created => created,
        }
    }

    /// Creates a directory.
    pub fn mkdir(&self, dir: Ino, name: &str, mode: Mode, uid: Uid, gid: Gid) -> KResult<Ino> {
        let data = InodeData::Directory(BTreeMap::new());
        self.create_node(dir, name, mode, uid, gid, data)
    }

    /// Creates a symlink.
    pub fn symlink(&self, dir: Ino, name: &str, target: &str, uid: Uid, gid: Gid) -> KResult<Ino> {
        let data = InodeData::Symlink(target.to_string());
        self.create_node(dir, name, Mode(0o777), uid, gid, data)
    }

    /// Removes a non-directory entry.
    pub fn unlink(&self, dir: Ino, name: &str) -> KResult<()> {
        let child = self.dir_lookup(dir, name)?.ok_or(Errno::ENOENT)?;
        if self.inode(child).data.is_dir() {
            return Err(Errno::EISDIR);
        }
        self.dir_remove(dir, name)?;
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, dir: Ino, name: &str) -> KResult<()> {
        let child = self.dir_lookup(dir, name)?.ok_or(Errno::ENOENT)?;
        match self.inode(child).dir_entries() {
            Some(e) if !e.is_empty() => return Err(Errno::ENOTEMPTY),
            Some(_) => {}
            None => return Err(Errno::ENOTDIR),
        }
        if self.mount_covering(child).is_some() {
            return Err(Errno::EBUSY);
        }
        self.dir_remove(dir, name)?;
        Ok(())
    }

    /// Renames an entry, overwriting a non-directory target if present —
    /// the atomic-replace primitive database rewriters rely on. As on
    /// Linux, a directory never replaces a non-directory (`ENOTDIR`) nor a
    /// non-directory a directory (`EISDIR`).
    ///
    /// All renames serialize on the dedicated rename mutex; since nothing else
    /// re-parents a directory, the cycle check below cannot race another
    /// mutation into creating a detached loop.
    pub fn rename(
        &self,
        from_dir: Ino,
        from_name: &str,
        to_dir: Ino,
        to_name: &str,
    ) -> KResult<()> {
        let _serial = sync::lock(&self.rename_lock);
        let src = self.dir_lookup(from_dir, from_name)?.ok_or(Errno::ENOENT)?;
        let src_is_dir = self.inode(src).data.is_dir();
        if src_is_dir {
            // Moving a directory under itself (or into itself) would
            // detach the subtree into an unreachable cycle: walk the
            // destination's parent chain and refuse if `src` shows up
            // anywhere on it (Linux returns EINVAL here).
            let mut cur = to_dir;
            let mut guard = 0usize;
            loop {
                if cur == src {
                    return Err(Errno::EINVAL);
                }
                guard += 1;
                if cur == self.root || guard > 4096 {
                    break;
                }
                cur = self.inode(cur).parent;
            }
        }
        // The source key must already be interned (the entry exists); the
        // destination name is interned fresh.
        let from_key = Name::lookup(from_name).ok_or(Errno::ENOENT)?;
        let to_key = Name::intern(to_name);
        // An existing target is overwritten in the same critical section
        // that inserts the source, so a concurrent resolve of `to_name`
        // finds the old inode or the new one, never ENOENT (rename(2)).
        // A target a non-rename writer changed since the lookup is looked
        // up again.
        let replaced = loop {
            let existing = self.dir_lookup(to_dir, to_name)?;
            if let Some(e) = existing {
                if e == src {
                    return Ok(());
                }
                if self.inode(e).data.is_dir() {
                    return Err(Errno::EISDIR);
                }
                if src_is_dir {
                    return Err(Errno::ENOTDIR);
                }
            }
            // Swap the entries under the directory lock(s); `false`,
            // having changed nothing, when the target entry is no longer
            // `existing`.
            let moved = if from_dir == to_dir {
                let mut d = self.inode_mut(from_dir);
                let entries = match &mut d.data {
                    InodeData::Directory(e) => e,
                    _ => return Err(Errno::ENOTDIR),
                };
                if entries.get(&from_key) != Some(&src) {
                    return Err(Errno::ENOENT);
                }
                let moved = entries.get(&to_key).copied() == existing;
                if moved {
                    entries.remove(&from_key);
                    entries.insert(to_key, src);
                    d.version = self.next_seq();
                }
                moved
            } else {
                self.with_pair(from_dir, to_dir, |f, t| {
                    let to_entries = match &mut t.data {
                        InodeData::Directory(e) => e,
                        _ => return Err(Errno::ENOTDIR),
                    };
                    let from_entries = match &mut f.data {
                        InodeData::Directory(e) => e,
                        _ => return Err(Errno::ENOTDIR),
                    };
                    if from_entries.get(&from_key) != Some(&src) {
                        return Err(Errno::ENOENT);
                    }
                    if to_entries.get(&to_key).copied() != existing {
                        return Ok(false);
                    }
                    from_entries.remove(&from_key);
                    to_entries.insert(to_key, src);
                    if src_is_dir {
                        f.nlink -= 1;
                        t.nlink += 1;
                    }
                    f.version = self.next_seq();
                    t.version = self.next_seq();
                    Ok(true)
                })?
            };
            if moved {
                break existing;
            }
        };
        // The moved inode's parent and name change together, before the
        // bumps. A concurrent `dir_remove` of the new entry may already
        // have unlinked it; an unlinked inode stays unnamed.
        {
            let mut s = self.inode_mut(src);
            let seq = self.next_seq();
            s.parent = to_dir;
            s.name = s.name.map(|_| to_key);
            s.version = seq;
        }
        if let Some(old) = replaced {
            self.inode_mut(old).name = None;
        }
        self.bump(from_dir, Part::Entries);
        self.bump(to_dir, Part::Entries);
        if src_is_dir {
            self.bump(src, Part::Entries);
        }
        // Only now, with every cached path through the old entry stale, may
        // the replaced inode be freed (the order `dir_remove` keeps): a
        // probe passing its generation check never returns a freed slot,
        // and a revalidating probe returns an inode it looked up live and
        // checks the directory's generation again after the lookup: one
        // that found the old inode either checks before these bumps, while
        // the inode is still allocated, or after them, and walks.
        if let Some(old) = replaced {
            {
                let mut g = self.inode_mut(old);
                g.nlink = g.nlink.saturating_sub(1);
            }
            self.maybe_reclaim(old);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // File content
    // ------------------------------------------------------------------

    /// Reads the full contents of a regular file.
    pub fn read_all(&self, ino: Ino) -> KResult<Vec<u8>> {
        self.with_file(ino, |d| d.to_vec())
    }

    /// Runs `f` over a regular file's contents without copying them out.
    /// The inode's shard stays read-locked for the duration of `f`.
    pub fn with_file<R>(&self, ino: Ino, f: impl FnOnce(&[u8]) -> R) -> KResult<R> {
        let g = self.inode(ino);
        match &g.data {
            InodeData::Regular(d) => Ok(f(d)),
            InodeData::Directory(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Replaces the contents of a regular file.
    pub fn write_all(&self, ino: Ino, data: &[u8]) -> KResult<()> {
        {
            let mut g = self.inode_mut(ino);
            let seq = self.next_seq();
            let node = &mut *g;
            match &mut node.data {
                InodeData::Regular(d) => {
                    d.clear();
                    d.extend_from_slice(data);
                }
                InodeData::Directory(_) => return Err(Errno::EISDIR),
                _ => return Err(Errno::EINVAL),
            }
            node.version = seq;
        }
        Ok(())
    }

    /// Overwrites a regular file's bytes from `offset`, growing it (with
    /// zeros for any hole) as needed: the positional `write(2)`. Resize
    /// and copy happen under one inode guard, so a concurrent write to
    /// other bytes of the file is never lost.
    pub fn write_at(&self, ino: Ino, offset: usize, data: &[u8]) -> KResult<()> {
        let end = offset.checked_add(data.len()).ok_or(Errno::EFBIG)?;
        let mut g = self.inode_mut(ino);
        let seq = self.next_seq();
        let node = &mut *g;
        match &mut node.data {
            InodeData::Regular(d) => {
                if end > d.len() {
                    d.resize(end, 0);
                }
                d[offset..end].copy_from_slice(data);
            }
            InodeData::Directory(_) => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        }
        node.version = seq;
        Ok(())
    }

    /// Appends to a regular file.
    pub fn append(&self, ino: Ino, data: &[u8]) -> KResult<()> {
        {
            let mut g = self.inode_mut(ino);
            let seq = self.next_seq();
            let node = &mut *g;
            match &mut node.data {
                InodeData::Regular(d) => d.extend_from_slice(data),
                InodeData::Directory(_) => return Err(Errno::EISDIR),
                _ => return Err(Errno::EINVAL),
            }
            node.version = seq;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mount table
    // ------------------------------------------------------------------

    /// Installs a mount over directory `covered`.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mount(
        &self,
        source: &str,
        mountpoint: &str,
        fstype: &str,
        options: MountOptions,
        root: Ino,
        covered: Ino,
        mounted_by: Uid,
    ) -> KResult<u64> {
        // Inode checks before the mount lock (inode shard ↔ mount table
        // lock order is resolve's: mounts are snapshotted, never held
        // across shard access).
        if !self.inode(covered).data.is_dir() || !self.inode(root).data.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if root == covered {
            return Err(Errno::EBUSY);
        }
        let id = self.next_mount_id.fetch_add(1, Ordering::Relaxed);
        let mut mounts = sync::write(&self.mounts);
        self.mount_seq.fetch_add(1, Ordering::Release);
        Arc::make_mut(&mut mounts).push(Mount {
            id,
            source: source.to_string(),
            mountpoint: mountpoint.to_string(),
            fstype: fstype.to_string(),
            options,
            root,
            covered,
            mounted_by,
        });
        drop(mounts);
        self.next_seq();
        self.bump(covered, Part::Coverage);
        self.bump(root, Part::Coverage);
        Ok(id)
    }

    /// Removes the topmost mount at `mountpoint`, returning it.
    pub fn remove_mount(&self, mountpoint: &str) -> KResult<Mount> {
        let mut mounts = sync::write(&self.mounts);
        let idx = mounts
            .iter()
            .rposition(|m| m.mountpoint == mountpoint)
            .ok_or(Errno::EINVAL)?;
        // A mount with a child mount underneath it is busy.
        let prefix = if mountpoint == "/" {
            "/".to_string()
        } else {
            format!("{}/", mountpoint)
        };
        let has_children = mounts
            .iter()
            .any(|m| m.mountpoint != mountpoint && m.mountpoint.starts_with(&prefix));
        if has_children {
            return Err(Errno::EBUSY);
        }
        let removed = Arc::make_mut(&mut mounts).remove(idx);
        self.mount_seq.fetch_add(1, Ordering::Release);
        drop(mounts);
        self.next_seq();
        self.bump(removed.covered, Part::Coverage);
        self.bump(removed.root, Part::Coverage);
        Ok(removed)
    }

    /// A snapshot of the current mount table.
    pub fn mounts(&self) -> Vec<Mount> {
        self.mounts_snapshot().to_vec()
    }

    /// Runs `f` over the innermost mount holding absolute path `abs`,
    /// under the mount-table read lock: of the mounts whose mountpoint is
    /// `abs` itself or a `/`-bounded prefix of it, the one with the
    /// longest mountpoint, the latest on a tie. So the `/` mount holds
    /// only `/` itself.
    pub fn with_mount_holding<R>(&self, abs: &str, f: impl FnOnce(Option<&Mount>) -> R) -> R {
        let mounts = sync::read(&self.mounts);
        f(mounts
            .iter()
            .filter(|m| {
                abs.strip_prefix(m.mountpoint.as_str())
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
            })
            .max_by_key(|m| m.mountpoint.len()))
    }

    /// Finds a mount by its mountpoint path.
    pub fn find_mount(&self, mountpoint: &str) -> Option<Mount> {
        sync::read(&self.mounts)
            .iter()
            .rev()
            .find(|m| m.mountpoint == mountpoint)
            .cloned()
    }

    /// Renders the mount table in `/proc/mounts` format.
    pub fn render_proc_mounts(&self) -> String {
        let mut out = String::new();
        for m in sync::read(&self.mounts).iter() {
            out.push_str(&format!(
                "{} {} {} {} 0 0\n",
                m.source,
                m.mountpoint,
                m.fstype,
                m.options.render()
            ));
        }
        out
    }

    // ------------------------------------------------------------------
    // Convenience used by image builders and tests
    // ------------------------------------------------------------------

    /// Creates every missing directory along `path` (root-owned, 0755) and
    /// returns the final directory inode.
    pub fn mkdir_p(&self, path: &str) -> KResult<Ino> {
        let mut cur = self.root;
        for comp in Vfs::component_iter(path) {
            if comp == ".." {
                cur = self.inode(cur).parent;
                continue;
            }
            let existing = self.dir_lookup(cur, comp)?;
            cur = match existing {
                Some(i) => self.follow_mounts(i),
                None => match self.mkdir(cur, comp, Mode(0o755), Uid::ROOT, Gid::ROOT) {
                    Ok(i) => i,
                    Err(Errno::EEXIST) => {
                        // Raced another mkdir_p; take the winner's inode.
                        let won = self.dir_lookup(cur, comp)?.ok_or(Errno::ENOENT)?;
                        self.follow_mounts(won)
                    }
                    Err(e) => return Err(e),
                },
            };
        }
        Ok(cur)
    }

    /// Creates (or truncates) a file at an absolute path with explicit
    /// ownership and mode, creating parent directories as needed.
    pub fn install_file(
        &self,
        path: &str,
        contents: &[u8],
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> KResult<Ino> {
        let (dir_path, name) = path.rsplit_once('/').ok_or(Errno::EINVAL)?;
        if name.is_empty() {
            return Err(Errno::EINVAL);
        }
        let dir = self.mkdir_p(dir_path)?;
        let ino = self.create_file(dir, name, mode, uid, gid, false)?;
        {
            let mut g = self.inode_mut(ino);
            g.mode = mode;
            g.uid = uid;
            g.gid = gid;
        }
        self.write_all(ino, contents)?;
        Ok(ino)
    }

    /// Installs a dynamic kernel-backed node at an absolute path.
    pub fn install_hook(
        &self,
        path: &str,
        hook: ProcHook,
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> KResult<Ino> {
        let (dir_path, name) = path.rsplit_once('/').ok_or(Errno::EINVAL)?;
        let dir = self.mkdir_p(dir_path)?;
        self.create_node(dir, name, mode, uid, gid, InodeData::Hook(hook))
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Vfs {
        let v = Vfs::new();
        v.mkdir_p("/etc").unwrap();
        v.install_file(
            "/etc/fstab",
            b"# fstab\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
        )
        .unwrap();
        v.mkdir_p("/home/alice").unwrap();
        v
    }

    #[test]
    fn resolve_absolute_path() {
        let v = fixture();
        let r = v.resolve(v.root(), "/etc/fstab").unwrap();
        assert_eq!(v.read_all(r.ino).unwrap(), b"# fstab\n");
        assert_eq!(r.dirs.len(), 2); // "/" and "/etc"
    }

    #[test]
    fn resolve_missing_is_enoent() {
        let v = fixture();
        assert_eq!(v.resolve(v.root(), "/etc/nope").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn resolve_through_file_is_enotdir() {
        let v = fixture();
        assert_eq!(
            v.resolve(v.root(), "/etc/fstab/x").unwrap_err(),
            Errno::ENOTDIR
        );
    }

    #[test]
    fn dot_and_dotdot() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let r = v.resolve(v.root(), "/etc/./../etc/fstab").unwrap();
        assert_eq!(v.inode(r.ino).parent, etc);
        let root = v.resolve(v.root(), "/..").unwrap();
        assert_eq!(root.ino, v.root());
    }

    #[test]
    fn relative_resolution() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let r = v.resolve(etc, "fstab").unwrap();
        assert_eq!(v.read_all(r.ino).unwrap(), b"# fstab\n");
    }

    #[test]
    fn symlink_follow_and_nofollow() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        v.symlink(etc, "fstab.link", "/etc/fstab", Uid::ROOT, Gid::ROOT)
            .unwrap();
        let followed = v.resolve(v.root(), "/etc/fstab.link").unwrap();
        assert_eq!(v.read_all(followed.ino).unwrap(), b"# fstab\n");
        let raw = v.resolve_nofollow(v.root(), "/etc/fstab.link").unwrap();
        assert!(matches!(v.inode(raw.ino).data, InodeData::Symlink(_)));
    }

    #[test]
    fn symlink_loop_is_eloop() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        v.symlink(etc, "a", "/etc/b", Uid::ROOT, Gid::ROOT).unwrap();
        v.symlink(etc, "b", "/etc/a", Uid::ROOT, Gid::ROOT).unwrap();
        assert_eq!(v.resolve(v.root(), "/etc/a").unwrap_err(), Errno::ELOOP);
    }

    #[test]
    fn relative_symlink() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        v.symlink(etc, "rel", "fstab", Uid::ROOT, Gid::ROOT)
            .unwrap();
        let r = v.resolve(v.root(), "/etc/rel").unwrap();
        assert_eq!(v.read_all(r.ino).unwrap(), b"# fstab\n");
    }

    #[test]
    fn mount_and_traverse() {
        let v = fixture();
        let mnt = v.mkdir_p("/mnt/cdrom").unwrap();
        let media_root = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.create_file(
            media_root,
            "readme.txt",
            Mode(0o444),
            Uid::ROOT,
            Gid::ROOT,
            true,
        )
        .unwrap();
        v.add_mount(
            "/dev/cdrom",
            "/mnt/cdrom",
            "iso9660",
            MountOptions::parse("ro"),
            media_root,
            mnt,
            Uid(1000),
        )
        .unwrap();
        let r = v.resolve(v.root(), "/mnt/cdrom/readme.txt").unwrap();
        assert_eq!(v.inode(r.ino).mode, Mode(0o444));
        // `..` from inside the mount escapes to /mnt.
        let up = v.resolve(v.root(), "/mnt/cdrom/..").unwrap();
        assert_eq!(v.path_of(up.ino), "/mnt");
    }

    #[test]
    fn mount_holding_a_path_is_the_longest_slash_bounded_prefix() {
        let v = fixture();
        let media = |v: &Vfs| {
            v.alloc(
                Ino(0),
                Mode(0o755),
                Uid::ROOT,
                Gid::ROOT,
                InodeData::Directory(BTreeMap::new()),
            )
        };
        for (mp, opts) in [("/", "ro"), ("/mnt/cd", "noexec"), ("/mnt/cdrom", "nosuid")] {
            let covered = v.mkdir_p(mp).unwrap();
            let root = media(&v);
            v.add_mount(
                "dev",
                mp,
                "t",
                MountOptions::parse(opts),
                root,
                covered,
                Uid::ROOT,
            )
            .unwrap();
        }
        let holder = |abs: &str| v.with_mount_holding(abs, |m| m.map(|m| m.mountpoint.clone()));
        assert_eq!(holder("/mnt/cdrom/bin/x").as_deref(), Some("/mnt/cdrom"));
        assert_eq!(holder("/mnt/cdrom").as_deref(), Some("/mnt/cdrom"));
        assert_eq!(holder("/mnt/cd/x").as_deref(), Some("/mnt/cd"));
        assert_eq!(holder("/mnt/cdromx/y"), None);
        // The `/` mount holds `/` itself and nothing below it.
        assert_eq!(holder("/").as_deref(), Some("/"));
        assert_eq!(holder("/bin/sh"), None);
    }

    #[test]
    fn umount_restores_view() {
        let v = fixture();
        let mnt = v.mkdir_p("/mnt/usb").unwrap();
        v.create_file(mnt, "under.txt", Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        let media = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.add_mount(
            "/dev/sdb1",
            "/mnt/usb",
            "vfat",
            MountOptions::default(),
            media,
            mnt,
            Uid(1000),
        )
        .unwrap();
        assert_eq!(
            v.resolve(v.root(), "/mnt/usb/under.txt").unwrap_err(),
            Errno::ENOENT
        );
        v.remove_mount("/mnt/usb").unwrap();
        assert!(v.resolve(v.root(), "/mnt/usb/under.txt").is_ok());
    }

    #[test]
    fn umount_with_child_mount_is_busy() {
        let v = fixture();
        let a = v.mkdir_p("/a").unwrap();
        let media = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.add_mount("x", "/a", "t", MountOptions::default(), media, a, Uid::ROOT)
            .unwrap();
        let b = v.mkdir_p("/a/b").unwrap();
        let media2 = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.add_mount(
            "y",
            "/a/b",
            "t",
            MountOptions::default(),
            media2,
            b,
            Uid::ROOT,
        )
        .unwrap();
        assert_eq!(v.remove_mount("/a").unwrap_err(), Errno::EBUSY);
        v.remove_mount("/a/b").unwrap();
        v.remove_mount("/a").unwrap();
    }

    #[test]
    fn stacked_mounts_lifo() {
        let v = fixture();
        let mnt = v.mkdir_p("/mnt/x").unwrap();
        let m1 = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        let m2 = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.add_mount(
            "one",
            "/mnt/x",
            "t",
            MountOptions::default(),
            m1,
            mnt,
            Uid::ROOT,
        )
        .unwrap();
        v.create_file(m1, "one.txt", Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        v.add_mount(
            "two",
            "/mnt/x",
            "t",
            MountOptions::default(),
            m2,
            mnt,
            Uid::ROOT,
        )
        .unwrap();
        v.create_file(m2, "two.txt", Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        assert!(v.resolve(v.root(), "/mnt/x/two.txt").is_ok());
        assert!(v.resolve(v.root(), "/mnt/x/one.txt").is_err());
        v.remove_mount("/mnt/x").unwrap();
        assert!(v.resolve(v.root(), "/mnt/x/one.txt").is_ok());
    }

    #[test]
    fn path_of_roundtrip() {
        let v = fixture();
        let r = v.resolve(v.root(), "/home/alice").unwrap();
        assert_eq!(v.path_of(r.ino), "/home/alice");
        assert_eq!(v.path_of(v.root()), "/");
    }

    #[test]
    fn unlink_and_rmdir() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        v.unlink(etc, "fstab").unwrap();
        assert_eq!(
            v.resolve(v.root(), "/etc/fstab").unwrap_err(),
            Errno::ENOENT
        );
        let home = v.resolve(v.root(), "/home").unwrap().ino;
        assert_eq!(v.rmdir(v.root(), "home").unwrap_err(), Errno::ENOTEMPTY);
        v.rmdir(home, "alice").unwrap();
        v.rmdir(v.root(), "home").unwrap();
    }

    #[test]
    fn unlink_directory_is_eisdir() {
        let v = fixture();
        assert_eq!(v.unlink(v.root(), "etc").unwrap_err(), Errno::EISDIR);
    }

    #[test]
    fn rename_moves_and_overwrites() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let tmp = v.mkdir_p("/tmp").unwrap();
        let f = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        // Move across directories.
        v.rename(etc, "fstab", tmp, "fstab.new").unwrap();
        assert_eq!(
            v.resolve(v.root(), "/etc/fstab").unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(v.resolve(v.root(), "/tmp/fstab.new").unwrap().ino, f);
        assert_eq!(v.path_of(f), "/tmp/fstab.new");
        // Overwrite an existing target (atomic replace).
        v.create_file(tmp, "target", Mode(0o600), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        v.rename(tmp, "fstab.new", tmp, "target").unwrap();
        let t = v.resolve(v.root(), "/tmp/target").unwrap();
        assert_eq!(t.ino, f);
        assert_eq!(v.read_all(f).unwrap(), b"# fstab\n");
        // Missing source.
        assert_eq!(v.rename(tmp, "nope", tmp, "x").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn rename_into_own_subtree_is_einval() {
        let v = fixture();
        let a = v.mkdir_p("/a").unwrap();
        let b = v.mkdir_p("/a/b").unwrap();
        let c = v.mkdir_p("/a/b/c").unwrap();
        // Direct: /a -> /a/x.
        assert_eq!(v.rename(v.root(), "a", a, "x").unwrap_err(), Errno::EINVAL);
        // Transitive: /a -> /a/b/c/x.
        assert_eq!(v.rename(v.root(), "a", c, "x").unwrap_err(), Errno::EINVAL);
        // Mid-chain source: /a/b -> /a/b/c/x.
        assert_eq!(v.rename(a, "b", c, "x").unwrap_err(), Errno::EINVAL);
        // The tree is untouched: everything still resolves and nlinks are
        // consistent (/a holds ".", "..", and b => 3).
        assert_eq!(v.resolve(v.root(), "/a/b/c").unwrap().ino, c);
        assert_eq!(v.inode(a).nlink, 3);
        assert_eq!(v.inode(b).nlink, 3);
        // Moving a directory *sideways* still works.
        let d = v.mkdir_p("/d").unwrap();
        v.rename(a, "b", d, "b").unwrap();
        assert_eq!(v.resolve(v.root(), "/d/b/c").unwrap().ino, c);
    }

    #[test]
    fn rename_same_inode_is_noop() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let f = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        // Rename onto itself (same entry).
        v.rename(etc, "fstab", etc, "fstab").unwrap();
        assert_eq!(v.resolve(v.root(), "/etc/fstab").unwrap().ino, f);
    }

    #[test]
    fn rename_overwrite_open_target_defers_reclaim() {
        let v = fixture();
        let tmp = v.mkdir_p("/tmp").unwrap();
        let old = v
            .create_file(tmp, "spool", Mode(0o600), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        v.write_all(old, b"old contents").unwrap();
        let new = v
            .create_file(tmp, "spool.tmp", Mode(0o600), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        v.write_all(new, b"new contents").unwrap();
        // A reader holds the about-to-be-replaced inode open.
        v.inc_open(old);
        v.rename(tmp, "spool.tmp", tmp, "spool").unwrap();
        // The name now points at the replacement...
        assert_eq!(v.resolve(v.root(), "/tmp/spool").unwrap().ino, new);
        // ...but the old inode is still readable through the open fd.
        assert_eq!(v.inode(old).nlink, 0);
        assert_eq!(v.read_all(old).unwrap(), b"old contents");
        // Close: now it is reclaimed, and the slot is reusable.
        v.dec_open(old);
        let fresh = v.alloc(
            tmp,
            Mode(0o644),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Regular(Vec::new()),
        );
        assert_eq!(fresh, old, "reclaimed slot must be reused");
        assert_eq!(v.read_all(fresh).unwrap(), b"", "no content leak");
    }

    #[test]
    fn rename_errno_paths() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let f = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        let home = v.resolve(v.root(), "/home").unwrap().ino;
        // Overwriting a directory with a file is EISDIR.
        assert_eq!(
            v.rename(etc, "fstab", v.root(), "home").unwrap_err(),
            Errno::EISDIR
        );
        // A file as the destination directory is ENOTDIR.
        assert_eq!(v.rename(etc, "fstab", f, "x").unwrap_err(), Errno::ENOTDIR);
        // So is a directory over a regular file or a symlink.
        v.symlink(etc, "link", "/home", Uid::ROOT, Gid::ROOT)
            .unwrap();
        let link = v.resolve_nofollow(v.root(), "/etc/link").unwrap().ino;
        for target in ["fstab", "link"] {
            assert_eq!(
                v.rename(v.root(), "home", etc, target).unwrap_err(),
                Errno::ENOTDIR
            );
        }
        // Missing source is ENOENT.
        assert_eq!(v.rename(etc, "nope", etc, "x").unwrap_err(), Errno::ENOENT);
        // Nothing above disturbed the namespace.
        assert_eq!(v.resolve(v.root(), "/etc/fstab").unwrap().ino, f);
        assert_eq!(v.resolve_nofollow(v.root(), "/etc/link").unwrap().ino, link);
        assert_eq!(v.resolve(v.root(), "/home").unwrap().ino, home);
    }

    #[test]
    fn dir_remove_refuses_nonempty_directory() {
        let v = fixture();
        let home = v.resolve(v.root(), "/home").unwrap().ino;
        let alice = v.resolve(v.root(), "/home/alice").unwrap().ino;
        // /home/alice is populated via /home — direct dir_remove must
        // refuse rather than orphan the subtree.
        v.create_file(alice, "notes", Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        assert_eq!(
            v.dir_remove(v.root(), "home").unwrap_err(),
            Errno::ENOTEMPTY
        );
        assert_eq!(v.dir_remove(home, "alice").unwrap_err(), Errno::ENOTEMPTY);
        // The subtree survived with sane links.
        assert!(v.resolve(v.root(), "/home/alice/notes").is_ok());
        assert!(v.inode(alice).nlink >= 2);
        // Empty it out and removal succeeds bottom-up.
        v.unlink(alice, "notes").unwrap();
        v.dir_remove(home, "alice").unwrap();
        v.dir_remove(v.root(), "home").unwrap();
        assert_eq!(v.resolve(v.root(), "/home").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn rename_directory_updates_nlink() {
        let v = fixture();
        let home = v.resolve(v.root(), "/home").unwrap().ino;
        let tmp = v.mkdir_p("/tmp").unwrap();
        let home_links = v.inode(home).nlink;
        let tmp_links = v.inode(tmp).nlink;
        v.rename(home, "alice", tmp, "alice").unwrap();
        assert_eq!(v.inode(home).nlink, home_links - 1);
        assert_eq!(v.inode(tmp).nlink, tmp_links + 1);
        assert!(v.resolve(v.root(), "/tmp/alice").is_ok());
    }

    #[test]
    fn touch_bumps_version_and_seq() {
        let v = fixture();
        let f = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        let v0 = v.inode(f).version;
        let s0 = v.change_seq();
        v.append(f, b"more\n").unwrap();
        assert!(v.inode(f).version > v0);
        assert!(v.change_seq() > s0);
    }

    #[test]
    fn dcache_hits_repeat_lookups() {
        let v = fixture();
        let a = v.resolve(v.root(), "/etc/fstab").unwrap();
        let b = v.resolve(v.root(), "/etc/fstab").unwrap();
        assert_eq!(a.ino, b.ino);
        let s = v.dcache_stats();
        assert_eq!(s.hits, 1);
        assert!(s.misses >= 1);
    }

    #[test]
    fn dcache_disabled_never_hits() {
        let v = fixture();
        v.set_dcache_enabled(false);
        v.resolve(v.root(), "/etc/fstab").unwrap();
        v.resolve(v.root(), "/etc/fstab").unwrap();
        assert_eq!(v.dcache_stats().hits, 0);
    }

    #[test]
    fn dcache_distinguishes_follow_modes() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        v.symlink(etc, "lnk", "/etc/fstab", Uid::ROOT, Gid::ROOT)
            .unwrap();
        let followed = v.resolve(v.root(), "/etc/lnk").unwrap();
        let raw = v.resolve_nofollow(v.root(), "/etc/lnk").unwrap();
        assert_ne!(followed.ino, raw.ino);
        // Repeat both: each must come back from its own cache slot.
        assert_eq!(v.resolve(v.root(), "/etc/lnk").unwrap().ino, followed.ino);
        assert_eq!(
            v.resolve_nofollow(v.root(), "/etc/lnk").unwrap().ino,
            raw.ino
        );
    }

    /// Resolves `path` from the root and reports whether the dcache
    /// served it.
    fn resolve_hit(v: &Vfs, path: &str) -> (KResult<Ino>, bool) {
        let before = v.dcache_stats().hits;
        let r = v.resolve(v.root(), path).map(|r| r.ino);
        (r, v.dcache_stats().hits > before)
    }

    #[test]
    fn namespace_mutations_invalidate_only_what_they_change() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let fstab = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        let alice = v.resolve(v.root(), "/home/alice").unwrap().ino;
        let new = v
            .create_file(etc, "new", Mode(0o644), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        // The creation is visible, and a path in another directory stays
        // cached.
        assert_eq!(resolve_hit(&v, "/etc/new").0, Ok(new));
        assert_eq!(resolve_hit(&v, "/home/alice"), (Ok(alice), true));
        // No stale hit after the unlink; /etc's other entries still resolve.
        v.unlink(etc, "new").unwrap();
        assert_eq!(resolve_hit(&v, "/etc/new").0, Err(Errno::ENOENT));
        assert_eq!(resolve_hit(&v, "/etc/fstab").0, Ok(fstab));
        assert_eq!(resolve_hit(&v, "/home/alice"), (Ok(alice), true));
        // Content writes invalidate nothing.
        v.append(fstab, b"x").unwrap();
        assert_eq!(resolve_hit(&v, "/etc/fstab"), (Ok(fstab), true));
    }

    #[test]
    fn re_storing_one_key_never_flushes_the_shard() {
        let v = fixture();
        let resolved = v.resolve(v.root(), "/etc/fstab").unwrap();
        let key = (v.root(), true, "/etc/fstab");
        let mut shard = DcacheShard::default();
        for _ in 0..1000 {
            let entry = Cached {
                key,
                resolved: resolved.clone(),
                path: AbsPath::intern("/etc/fstab"),
                deps: Box::new([]),
                last: None,
            };
            shard.store(dcache_hash(key), entry);
        }
        assert_eq!(shard.map.len(), 1);
        assert_eq!(shard.stats().invalidations, 0, "no capacity flush");
    }

    #[test]
    fn dcache_stale_hit_impossible_after_rename() {
        let v = fixture();
        let etc = v.resolve(v.root(), "/etc").unwrap().ino;
        let old = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        // Warm the cache, then swap a different file into the same name.
        v.create_file(etc, "other", Mode(0o600), Uid::ROOT, Gid::ROOT, true)
            .unwrap();
        let other = v.resolve(v.root(), "/etc/other").unwrap().ino;
        v.rename(etc, "other", etc, "fstab").unwrap();
        let before = v.dcache_stats();
        let now = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        assert_eq!(now, other);
        assert_ne!(now, old);
        // Only /etc's entries moved, so the probe redid the one lookup
        // of `fstab` in /etc instead of walking.
        let after = v.dcache_stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
    }

    /// A plain resolve stores the canonical path, adding to its walk's
    /// generations only the leaf's coverage, each directory once; a
    /// canonical resolve of the same key hits that entry.
    #[test]
    fn every_entry_carries_the_path_and_records_each_directory_once() {
        let v = fixture();
        let key = (v.root(), true, "/etc/fstab");
        let entry = |v: &Vfs| {
            let hash = dcache_hash(key);
            let dc = sync::read(&v.dcache[(hash >> 32) as usize % DSHARDS]);
            let e = &dc.map[&hash];
            let parts = e
                .deps
                .iter()
                .map(|d| (d.entries != UNREAD, d.coverage != UNREAD));
            (e.path.as_str(), parts.collect::<Vec<_>>())
        };
        let fstab = v.resolve(v.root(), "/etc/fstab").unwrap().ino;
        // `/` and `/etc`: coverage, then the entries naming the next; the
        // leaf: whether a mount is rooted at it.
        let stored = (
            "/etc/fstab",
            vec![(true, true), (true, true), (false, true)],
        );
        assert_eq!(entry(&v), stored);
        let hits = v.dcache_stats().hits;
        let (r, abs) = v.resolve_canonical(v.root(), "/etc/fstab").unwrap();
        assert_eq!((r.ino, abs.as_str()), (fstab, "/etc/fstab"));
        v.resolve(v.root(), "/etc/fstab").unwrap();
        assert_eq!(v.dcache_stats().hits, hits + 2);
        assert_eq!(entry(&v), stored);
    }

    #[test]
    fn mount_options_parse_render() {
        let o = MountOptions::parse("ro,nosuid,nodev,uid=1000");
        assert!(o.read_only && o.nosuid && o.nodev && !o.noexec);
        assert_eq!(o.extra, vec!["uid=1000".to_string()]);
        assert_eq!(o.render(), "ro,nosuid,nodev,uid=1000");
        assert_eq!(MountOptions::parse("defaults").render(), "rw");
    }

    #[test]
    fn proc_mounts_rendering() {
        let v = fixture();
        let mnt = v.mkdir_p("/mnt/c").unwrap();
        let m = v.alloc(
            Ino(0),
            Mode(0o755),
            Uid::ROOT,
            Gid::ROOT,
            InodeData::Directory(BTreeMap::new()),
        );
        v.add_mount(
            "/dev/cdrom",
            "/mnt/c",
            "iso9660",
            MountOptions::parse("ro,nosuid"),
            m,
            mnt,
            Uid(1000),
        )
        .unwrap();
        let s = v.render_proc_mounts();
        assert_eq!(s, "/dev/cdrom /mnt/c iso9660 ro,nosuid 0 0\n");
    }

    // ------------------------------------------------------------------
    // Concurrency
    // ------------------------------------------------------------------

    #[test]
    fn concurrent_creates_in_disjoint_dirs() {
        use std::sync::Arc;
        let v = Arc::new(Vfs::new());
        let mut dirs = Vec::new();
        for w in 0..8 {
            dirs.push(v.mkdir_p(&format!("/w{}", w)).unwrap());
        }
        let handles: Vec<_> = dirs
            .into_iter()
            .enumerate()
            .map(|(w, dir)| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let name = format!("f{}", i);
                        let ino = v
                            .create_file(
                                dir,
                                &name,
                                Mode(0o644),
                                Uid(1000 + w as u32),
                                Gid::ROOT,
                                true,
                            )
                            .unwrap();
                        v.write_all(ino, format!("{}:{}", w, i).as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..8 {
            for i in 0..50 {
                let r = v.resolve(v.root(), &format!("/w{}/f{}", w, i)).unwrap();
                assert_eq!(
                    v.read_all(r.ino).unwrap(),
                    format!("{}:{}", w, i).as_bytes()
                );
            }
        }
    }

    #[test]
    fn concurrent_same_name_create_single_winner() {
        use std::sync::Arc;
        let v = Arc::new(Vfs::new());
        let dir = v.mkdir_p("/race").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    v.create_file(dir, "winner", Mode(0o644), Uid::ROOT, Gid::ROOT, false)
                })
            })
            .collect();
        let inos: Vec<Ino> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        // Every non-exclusive creator must converge on the same inode.
        assert!(inos.windows(2).all(|w| w[0] == w[1]));
        // Losers' speculative allocations were returned to the free list:
        // nothing outside the entry + reclaimed slots was leaked.
        let live = v.resolve(v.root(), "/race/winner").unwrap().ino;
        assert_eq!(live, inos[0]);
    }
}
