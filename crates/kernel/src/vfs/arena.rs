//! Per-thread recycled-buffer arena for transient path scratch.
//!
//! The VFS walk needs short-lived buffers — an absolute path being
//! reconstructed for an LSM hook, glob-matcher DP scratch rows — whose
//! lifetime is at most one syscall dispatch. Allocating them fresh put
//! ~20 `String` sites on the resolve/open fast path; instead each thread
//! owns a [`PathArena`] whose buffers are *recycled*: [`ArenaString`] /
//! [`ArenaBytes`] hand their storage back to the pool on drop, so after
//! a short warmup the steady-state fast path performs **zero** heap
//! allocations (the counting-allocator test in `protego-core` asserts
//! exactly this).
//!
//! This is deliberately safe Rust: `sim-kernel` carries
//! `#![forbid(unsafe_code)]`, so instead of a raw bump pointer the arena
//! reuses `String`/`Vec<u8>` capacity, which gives the same steady-state
//! allocation profile without any `unsafe`. The arena is *not* reachable
//! from `Kernel` state: it is a thread-local, mirroring per-CPU scratch
//! pages in a real kernel, and therefore sits entirely outside the lock
//! hierarchy of DESIGN.md §13. [`PathArena::scope`] is the only way to
//! reach it; the higher-ranked closure bound keeps every handed-out
//! buffer from outliving the scope, and top-level scope exit trims the
//! pool back to its cap (the "reset at dispatch exit" discipline —
//! `Kernel::dispatch` brackets each syscall in a scope).

use std::cell::{Cell, RefCell};

/// Maximum buffers kept in each pool; more simply drop (cold).
const POOL_CAP: usize = 32;

/// Buffers above this capacity are not returned to the pool, so one
/// pathological path cannot pin a huge allocation forever.
const RETAIN_CAP: usize = 16 * 1024;

/// A per-thread pool of recycled path/scratch buffers.
pub struct PathArena {
    strings: RefCell<Vec<String>>,
    bytes: RefCell<Vec<Vec<u8>>>,
    /// Live `scope` nesting depth; the pools are trimmed when the
    /// outermost scope exits.
    depth: Cell<usize>,
}

thread_local! {
    static ARENA: PathArena = PathArena::new();
}

impl PathArena {
    fn new() -> PathArena {
        PathArena {
            strings: RefCell::new(Vec::new()),
            bytes: RefCell::new(Vec::new()),
            depth: Cell::new(0),
        }
    }

    /// Runs `f` with the calling thread's arena. Scopes nest; when the
    /// outermost scope exits (also on panic) the pools are trimmed to
    /// `POOL_CAP`. The closure-bound lifetime keeps arena buffers from
    /// escaping the scope.
    pub fn scope<R>(f: impl FnOnce(&PathArena) -> R) -> R {
        ARENA.with(|arena| {
            arena.depth.set(arena.depth.get() + 1);
            let _exit = ScopeExit { arena };
            f(arena)
        })
    }

    /// An empty string buffer with recycled capacity.
    pub fn string(&self) -> ArenaString<'_> {
        let buf = self.strings.borrow_mut().pop().unwrap_or_default();
        ArenaString { buf, owner: self }
    }

    /// Copies `s` into a recycled buffer.
    pub fn alloc_str(&self, s: &str) -> ArenaString<'_> {
        let mut out = self.string();
        out.buf.push_str(s);
        out
    }

    /// Builds `/part0/part1/…` in a recycled buffer ("/" for no parts).
    pub fn join_path<'s>(&self, parts: impl IntoIterator<Item = &'s str>) -> ArenaString<'_> {
        let mut out = self.string();
        for part in parts {
            out.buf.push('/');
            out.buf.push_str(part);
        }
        if out.buf.is_empty() {
            out.buf.push('/');
        }
        out
    }

    /// A zeroed byte buffer of length `len` with recycled capacity
    /// (DP-scratch rows for the glob matcher, and similar).
    pub fn bytes(&self, len: usize) -> ArenaBytes<'_> {
        let mut buf = self.bytes.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0);
        ArenaBytes { buf, owner: self }
    }

    fn give_string(&self, mut buf: String) {
        buf.clear();
        if buf.capacity() <= RETAIN_CAP {
            let mut pool = self.strings.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(buf);
            }
        }
    }

    fn give_bytes(&self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() <= RETAIN_CAP {
            let mut pool = self.bytes.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(buf);
            }
        }
    }
}

struct ScopeExit<'a> {
    arena: &'a PathArena,
}

impl Drop for ScopeExit<'_> {
    fn drop(&mut self) {
        let depth = self.arena.depth.get() - 1;
        self.arena.depth.set(depth);
        if depth == 0 {
            self.arena.strings.borrow_mut().truncate(POOL_CAP);
            self.arena.bytes.borrow_mut().truncate(POOL_CAP);
        }
    }
}

/// A pooled string buffer; derefs to `str` and returns its storage to
/// the arena on drop.
pub struct ArenaString<'a> {
    buf: String,
    owner: &'a PathArena,
}

impl ArenaString<'_> {
    /// The buffered text.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Appends text (capacity growth is amortized and recycled).
    pub fn push_str(&mut self, s: &str) {
        self.buf.push_str(s);
    }

    /// Appends one character.
    pub fn push(&mut self, c: char) {
        self.buf.push(c);
    }
}

impl std::ops::Deref for ArenaString<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        &self.buf
    }
}

impl std::fmt::Display for ArenaString<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.buf)
    }
}

impl std::fmt::Debug for ArenaString<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.buf, f)
    }
}

impl Drop for ArenaString<'_> {
    fn drop(&mut self) {
        self.owner.give_string(std::mem::take(&mut self.buf));
    }
}

/// A pooled byte buffer; derefs to `[u8]` and returns its storage to the
/// arena on drop.
pub struct ArenaBytes<'a> {
    buf: Vec<u8>,
    owner: &'a PathArena,
}

impl std::ops::Deref for ArenaBytes<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for ArenaBytes<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for ArenaBytes<'_> {
    fn drop(&mut self) {
        self.owner.give_bytes(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_str_round_trips() {
        PathArena::scope(|a| {
            let s = a.alloc_str("/etc/passwd");
            assert_eq!(s.as_str(), "/etc/passwd");
            assert_eq!(format!("{s}"), "/etc/passwd");
        });
    }

    #[test]
    fn join_path_formats_components() {
        PathArena::scope(|a| {
            assert_eq!(a.join_path([]).as_str(), "/");
            assert_eq!(a.join_path(["etc"]).as_str(), "/etc");
            assert_eq!(
                a.join_path(["etc", "ssl", "certs"]).as_str(),
                "/etc/ssl/certs"
            );
        });
    }

    #[test]
    fn bytes_are_zeroed_between_uses() {
        PathArena::scope(|a| {
            {
                let mut b = a.bytes(8);
                b.fill(0xAA);
            }
            let b = a.bytes(8);
            assert!(b.iter().all(|&x| x == 0), "recycled buffer is re-zeroed");
        });
    }

    #[test]
    fn buffers_are_recycled() {
        PathArena::scope(|a| {
            let cap = {
                let mut s = a.string();
                s.push_str(&"x".repeat(500));
                s.buf.capacity()
            };
            let s2 = a.string();
            assert!(
                s2.buf.capacity() >= cap,
                "second buffer reuses the first one's storage"
            );
        });
    }

    #[test]
    fn scopes_nest_and_trim_at_top_level_exit() {
        PathArena::scope(|a| {
            let outer = a.alloc_str("outer");
            PathArena::scope(|b| {
                let inner = b.alloc_str("inner");
                assert_eq!(inner.as_str(), "inner");
            });
            assert_eq!(outer.as_str(), "outer");
        });
        ARENA.with(|a| {
            assert_eq!(a.depth.get(), 0);
            assert!(a.strings.borrow().len() <= POOL_CAP);
        });
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        PathArena::scope(|a| {
            {
                let mut s = a.string();
                s.push_str(&"y".repeat(RETAIN_CAP + 1));
            }
            ARENA.with(|inner| {
                assert!(inner
                    .strings
                    .borrow()
                    .iter()
                    .all(|b| b.capacity() <= RETAIN_CAP));
            });
        });
    }

    #[test]
    fn pool_stays_bounded_across_many_scopes() {
        for _ in 0..100 {
            PathArena::scope(|a| {
                let _x = a.alloc_str("abc");
                let _y = a.bytes(64);
            });
        }
        ARENA.with(|a| {
            assert!(a.strings.borrow().len() <= POOL_CAP);
            assert!(a.bytes.borrow().len() <= POOL_CAP);
        });
    }
}
