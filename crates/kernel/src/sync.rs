//! Small concurrency utilities shared by the kernel's interior-locked
//! subsystems.
//!
//! Everything here is built on `std::sync` only (the crate vendors no
//! locking dependencies). Two pieces live here:
//!
//! * poison-tolerant lock helpers ([`read`], [`write()`], [`lock`]) — a
//!   panicking worker thread must not wedge every other worker on a
//!   poisoned `std` lock, so all kernel subsystems acquire through these;
//! * [`PerThread`], a per-instance thread-local slot used where a value
//!   is logically *per (object, thread)* — e.g. a syscall meter's
//!   dispatch start time, written and read within one dispatch on one
//!   thread, so thread-locality keeps it exact under concurrency without
//!   any locking.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquires a read lock, recovering the guard if the lock was poisoned
/// by a panicking thread.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a write lock, recovering the guard if the lock was poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a mutex, recovering the guard if the lock was poisoned.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-unique id source for [`PerThread`] instances (and any other
/// subsystem that needs to key per-instance thread-local state).
pub fn unique_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static SLOTS: RefCell<HashMap<usize, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// A per-(instance, thread) storage slot.
///
/// Each `PerThread<T>` value owns a process-unique id; `with` resolves
/// the calling thread's copy of `T` (default-constructed on first use on
/// that thread) and passes it to the closure. Distinct instances and
/// distinct threads never observe each other's values.
#[derive(Debug)]
pub struct PerThread<T> {
    id: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Default + 'static> PerThread<T> {
    /// Creates a slot with a fresh process-unique identity.
    pub fn new() -> PerThread<T> {
        PerThread {
            id: unique_id(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Runs `f` over this thread's copy of the value.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        SLOTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            let entry = slots
                .entry(self.id)
                .or_insert_with(|| Box::new(T::default()));
            let value = entry
                .downcast_mut::<T>()
                .expect("PerThread id collision with mismatched type");
            f(value)
        })
    }

    /// Replaces this thread's value, returning the previous one.
    pub fn replace(&self, value: T) -> T {
        self.with(|v| std::mem::replace(v, value))
    }

    /// Takes this thread's value, leaving the default.
    pub fn take(&self) -> T {
        self.with(std::mem::take)
    }
}

impl<T: Default + 'static> Default for PerThread<T> {
    fn default() -> Self {
        PerThread::new()
    }
}

/// Cloning creates an independent slot (per-thread state is scratch or
/// drained-immediately data, never shared identity).
impl<T: Default + 'static> Clone for PerThread<T> {
    fn clone(&self) -> Self {
        PerThread::new()
    }
}

/// A poison-tolerant `RwLock` wrapper for kernel subsystems that were
/// born single-threaded (`NetStack`, `Netfilter`, `RouteTable`,
/// `DeviceRegistry`). The wrapped type keeps its original `&self`/`&mut
/// self` API; callers take a scoped guard with [`Locked::read`] /
/// [`Locked::write`].
///
/// Lock discipline: guards are scope-local. Copy what you need out of the
/// guard and drop it before calling any other kernel method that may
/// take a lock — in particular the audit/emit paths and `capable()`.
#[derive(Debug, Default)]
pub struct Locked<T>(RwLock<T>);

impl<T> Locked<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Locked<T> {
        Locked(RwLock::new(value))
    }

    /// Takes a shared read guard (poison-tolerant).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        read(&self.0)
    }

    /// Takes an exclusive write guard (poison-tolerant).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        write(&self.0)
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_thread_is_per_instance() {
        let a: PerThread<u32> = PerThread::new();
        let b: PerThread<u32> = PerThread::new();
        a.with(|v| *v = 7);
        b.with(|v| *v = 9);
        assert_eq!(a.with(|v| *v), 7);
        assert_eq!(b.with(|v| *v), 9);
    }

    #[test]
    fn per_thread_is_per_thread() {
        let a: std::sync::Arc<PerThread<u32>> = std::sync::Arc::new(PerThread::new());
        a.with(|v| *v = 41);
        let a2 = std::sync::Arc::clone(&a);
        let other = std::thread::spawn(move || a2.with(|v| *v)).join().unwrap();
        // `clone` was not involved: same instance, fresh thread, default value.
        assert_eq!(other, 0);
        assert_eq!(a.with(|v| *v), 41);
    }

    #[test]
    fn replace_and_take() {
        let s: PerThread<Option<String>> = PerThread::new();
        assert_eq!(s.replace(Some("x".into())), None);
        assert_eq!(s.take(), Some("x".into()));
        assert_eq!(s.take(), None);
    }

    #[test]
    fn poison_recovery() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*lock(&m), 5);
    }
}
