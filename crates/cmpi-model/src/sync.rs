//! Shim synchronization layer: the types the hot-path structures use.
//!
//! In a normal build everything here is a zero-cost re-export of
//! `std::sync::atomic` and `parking_lot`. Under `--cfg cmpi_model` the
//! same names become instrumented stand-ins that route every operation
//! through the model checker's scheduler when a model execution is
//! active on the calling thread, and fall back to the embedded real
//! primitive otherwise (so ordinary tests still pass under the cfg).
//!
//! [`SpinLock`] is built on top of the shim atomics in both builds, so
//! the checker explores its acquire and release like any other protocol.
//!
//! [`quarantine`] replaces `drop(Box::from_raw(..))` on lock-free node
//! frees so the model can keep freed addresses alive for the rest of the
//! execution (freed-then-reallocated nodes would otherwise alias a stale
//! store history).

pub use std::sync::atomic::Ordering;

#[cfg(not(cmpi_model))]
mod imp {
    pub use parking_lot::{Condvar, Mutex, MutexGuard};
    pub use std::sync::atomic::{
        AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    };

    /// Reschedule hint; the model build turns this into a scheduler
    /// yield point.
    #[inline]
    pub fn yield_now() {
        std::thread::yield_now();
    }

    /// Free a node popped off a lock-free structure. Plain drop outside
    /// the model.
    #[inline]
    pub fn quarantine<T: Send + 'static>(b: Box<T>) {
        drop(b);
    }
}

#[cfg(cmpi_model)]
mod imp {
    use std::cell::UnsafeCell;
    use std::marker::PhantomData;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::Ordering;

    use crate::engine;

    #[inline]
    fn model() -> Option<(std::sync::Arc<engine::Execution>, usize)> {
        match engine::current() {
            Some(e) if !std::thread::panicking() => Some(e),
            _ => None,
        }
    }

    macro_rules! int_atomic {
        ($Name:ident, $Prim:ty) => {
            #[derive(Debug)]
            pub struct $Name {
                real: std::sync::atomic::$Name,
            }

            impl $Name {
                pub const fn new(v: $Prim) -> Self {
                    Self {
                        real: std::sync::atomic::$Name::new(v),
                    }
                }

                #[inline]
                fn addr(&self) -> usize {
                    self as *const Self as usize
                }

                #[inline]
                fn init(&self) -> u64 {
                    self.real.load(Ordering::SeqCst) as u64
                }

                pub fn load(&self, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => {
                            e.atomic_load(tid, self.addr(), ord, self.init(), stringify!($Name))
                                as $Prim
                        }
                        Some((e, _)) => e.raw_load(self.addr(), self.init()) as $Prim,
                        None => self.real.load(ord),
                    }
                }

                pub fn store(&self, v: $Prim, ord: Ordering) {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_store(
                            tid,
                            self.addr(),
                            v as u64,
                            ord,
                            self.init(),
                            stringify!($Name),
                        ),
                        Some((e, _)) => e.raw_store(self.addr(), v as u64, self.init()),
                        None => self.real.store(v, ord),
                    }
                }

                pub fn swap(&self, v: $Prim, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_rmw(
                            tid,
                            self.addr(),
                            ord,
                            self.init(),
                            stringify!($Name),
                            &mut |_| v as u64,
                        ) as $Prim,
                        Some((e, _)) => {
                            e.raw_rmw(self.addr(), self.init(), &mut |_| v as u64) as $Prim
                        }
                        None => self.real.swap(v, ord),
                    }
                }

                pub fn fetch_add(&self, v: $Prim, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_rmw(
                            tid,
                            self.addr(),
                            ord,
                            self.init(),
                            stringify!($Name),
                            &mut |old| (old as $Prim).wrapping_add(v) as u64,
                        ) as $Prim,
                        Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |old| {
                            (old as $Prim).wrapping_add(v) as u64
                        }) as $Prim,
                        None => self.real.fetch_add(v, ord),
                    }
                }

                pub fn fetch_sub(&self, v: $Prim, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_rmw(
                            tid,
                            self.addr(),
                            ord,
                            self.init(),
                            stringify!($Name),
                            &mut |old| (old as $Prim).wrapping_sub(v) as u64,
                        ) as $Prim,
                        Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |old| {
                            (old as $Prim).wrapping_sub(v) as u64
                        }) as $Prim,
                        None => self.real.fetch_sub(v, ord),
                    }
                }

                pub fn fetch_or(&self, v: $Prim, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_rmw(
                            tid,
                            self.addr(),
                            ord,
                            self.init(),
                            stringify!($Name),
                            &mut |old| ((old as $Prim) | v) as u64,
                        ) as $Prim,
                        Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |old| {
                            ((old as $Prim) | v) as u64
                        }) as $Prim,
                        None => self.real.fetch_or(v, ord),
                    }
                }

                pub fn fetch_and(&self, v: $Prim, ord: Ordering) -> $Prim {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e.atomic_rmw(
                            tid,
                            self.addr(),
                            ord,
                            self.init(),
                            stringify!($Name),
                            &mut |old| ((old as $Prim) & v) as u64,
                        ) as $Prim,
                        Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |old| {
                            ((old as $Prim) & v) as u64
                        }) as $Prim,
                        None => self.real.fetch_and(v, ord),
                    }
                }

                pub fn compare_exchange(
                    &self,
                    current: $Prim,
                    new: $Prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$Prim, $Prim> {
                    match engine::current() {
                        Some((e, tid)) if !std::thread::panicking() => e
                            .atomic_cas(
                                tid,
                                self.addr(),
                                current as u64,
                                new as u64,
                                success,
                                failure,
                                self.init(),
                                stringify!($Name),
                            )
                            .map(|v| v as $Prim)
                            .map_err(|v| v as $Prim),
                        Some((e, _)) => {
                            let old = e.raw_load(self.addr(), self.init()) as $Prim;
                            if old == current {
                                e.raw_store(self.addr(), new as u64, self.init());
                                Ok(old)
                            } else {
                                Err(old)
                            }
                        }
                        None => self.real.compare_exchange(current, new, success, failure),
                    }
                }
            }
        };
    }

    int_atomic!(AtomicU8, u8);
    int_atomic!(AtomicU32, u32);
    int_atomic!(AtomicU64, u64);
    int_atomic!(AtomicUsize, usize);

    #[derive(Debug)]
    pub struct AtomicBool {
        real: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self {
                real: std::sync::atomic::AtomicBool::new(v),
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        #[inline]
        fn init(&self) -> u64 {
            self.real.load(Ordering::SeqCst) as u64
        }

        pub fn load(&self, ord: Ordering) -> bool {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.atomic_load(tid, self.addr(), ord, self.init(), "AtomicBool") != 0
                }
                Some((e, _)) => e.raw_load(self.addr(), self.init()) != 0,
                None => self.real.load(ord),
            }
        }

        pub fn store(&self, v: bool, ord: Ordering) {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.atomic_store(tid, self.addr(), v as u64, ord, self.init(), "AtomicBool")
                }
                Some((e, _)) => e.raw_store(self.addr(), v as u64, self.init()),
                None => self.real.store(v, ord),
            }
        }

        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.atomic_rmw(
                        tid,
                        self.addr(),
                        ord,
                        self.init(),
                        "AtomicBool",
                        &mut |_| v as u64,
                    ) != 0
                }
                Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |_| v as u64) != 0,
                None => self.real.swap(v, ord),
            }
        }
    }

    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        real: std::sync::atomic::AtomicPtr<T>,
        _marker: PhantomData<*mut T>,
    }

    // SAFETY: the wrapped std AtomicPtr is Send+Sync for any T (it only
    // hands out raw pointers); the PhantomData is there to keep variance
    // honest, not to drop T.
    unsafe impl<T> Send for AtomicPtr<T> {}
    // SAFETY: as above — all access to the pointer value is atomic.
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            Self {
                real: std::sync::atomic::AtomicPtr::new(p),
                _marker: PhantomData,
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        #[inline]
        fn init(&self) -> u64 {
            self.real.load(Ordering::SeqCst) as usize as u64
        }

        pub fn load(&self, ord: Ordering) -> *mut T {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.atomic_load(tid, self.addr(), ord, self.init(), "AtomicPtr") as usize
                        as *mut T
                }
                Some((e, _)) => e.raw_load(self.addr(), self.init()) as usize as *mut T,
                None => self.real.load(ord),
            }
        }

        pub fn store(&self, p: *mut T, ord: Ordering) {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => e.atomic_store(
                    tid,
                    self.addr(),
                    p as usize as u64,
                    ord,
                    self.init(),
                    "AtomicPtr",
                ),
                Some((e, _)) => e.raw_store(self.addr(), p as usize as u64, self.init()),
                None => self.real.store(p, ord),
            }
        }

        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.atomic_rmw(tid, self.addr(), ord, self.init(), "AtomicPtr", &mut |_| {
                        p as usize as u64
                    }) as usize as *mut T
                }
                Some((e, _)) => e.raw_rmw(self.addr(), self.init(), &mut |_| p as usize as u64)
                    as usize as *mut T,
                None => self.real.swap(p, ord),
            }
        }
    }

    /// Model-aware mutex with the `parking_lot` API shape.
    pub struct Mutex<T> {
        raw: parking_lot::Mutex<()>,
        data: UnsafeCell<T>,
    }

    // SAFETY: exclusive access to `data` is enforced either by the model
    // scheduler (one holder recorded per mutex address) or by `raw` in
    // fallback mode; moving the T between threads then only needs T: Send.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: as above — `&Mutex<T>` only exposes `T` through `lock()`.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        raw: Option<parking_lot::MutexGuard<'a, ()>>,
    }

    impl<T> Mutex<T> {
        pub const fn new(t: T) -> Self {
            Mutex {
                raw: parking_lot::Mutex::new(()),
                data: UnsafeCell::new(t),
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        pub fn lock(&self) -> MutexGuard<'_, T> {
            match engine::current() {
                Some((e, tid)) if !std::thread::panicking() => {
                    e.mutex_lock(tid, self.addr());
                    MutexGuard {
                        lock: self,
                        raw: None,
                    }
                }
                Some((e, _)) => {
                    e.raw_mutex_lock(self.addr());
                    MutexGuard {
                        lock: self,
                        raw: None,
                    }
                }
                None => MutexGuard {
                    lock: self,
                    raw: Some(self.raw.lock()),
                },
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.data.get_mut()
        }

        pub fn into_inner(self) -> T {
            self.data.into_inner()
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: holding the guard means this thread holds the
            // model (or raw fallback) lock; access is exclusive.
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as in Deref — the guard proves exclusive access.
            unsafe { &mut *self.lock.data.get() }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.raw.is_none() {
                if let Some((e, tid)) = engine::current() {
                    if std::thread::panicking() {
                        e.raw_mutex_unlock(self.lock.addr());
                    } else {
                        e.mutex_unlock(tid, self.lock.addr());
                    }
                }
            }
        }
    }

    /// Model-aware condvar with the `parking_lot` API shape.
    pub struct Condvar {
        real: parking_lot::Condvar,
    }

    impl Condvar {
        pub const fn new() -> Self {
            Condvar {
                real: parking_lot::Condvar::new(),
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            if guard.raw.is_some() {
                self.real
                    .wait(guard.raw.as_mut().expect("checked raw guard"));
            } else {
                let (e, tid) = engine::current().expect("model guard outside model execution");
                e.cv_wait(tid, self.addr(), guard.lock.addr());
            }
        }

        pub fn notify_all(&self) {
            match model() {
                Some((e, tid)) => e.cv_notify(tid, self.addr(), true),
                None if std::thread::panicking() && engine::current().is_some() => {
                    // Abort teardown: model waiters are woken by the
                    // failure broadcast, nothing to do.
                }
                None => self.real.notify_all(),
            }
        }

        pub fn notify_one(&self) {
            match model() {
                Some((e, tid)) => e.cv_notify(tid, self.addr(), false),
                None if std::thread::panicking() && engine::current().is_some() => {}
                None => self.real.notify_one(),
            }
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Reschedule hint: a scheduler yield point under the model.
    #[inline]
    pub fn yield_now() {
        if let Some((e, tid)) = model() {
            e.yield_now(tid);
        } else {
            std::thread::yield_now();
        }
    }

    /// Free a node popped off a lock-free structure. Under an active
    /// model execution the box is kept alive until the execution ends so
    /// its address is not reused while stale pointers to it may still be
    /// read on other schedules.
    #[inline]
    pub fn quarantine<T: Send + 'static>(b: Box<T>) {
        match engine::current() {
            Some((e, _)) => e.quarantine(b),
            None => drop(b),
        }
    }
}

pub use imp::*;

/// Spins on a held [`SpinLock`] before each `yield_now`: a hot-path
/// section lasts tens of nanoseconds, so a holder on another core is
/// usually out before the spin ends.
#[cfg(not(cmpi_model))]
const SPINS: u32 = 32;

/// A test-and-set lock whose uncontended acquire plus release is one
/// read-modify-write: an `Acquire` swap to take it, a `Release` store to
/// give it back. A `Mutex` costs two (a compare-exchange in, a swap
/// out). A waiter spins briefly, then yields its thread, so the lock is
/// for sections that never block or deschedule; it neither parks nor
/// poisons. Under the model the section's data is race-checked: a
/// release too weak to order two holders is a reported data race.
pub struct SpinLock<T> {
    held: AtomicBool,
    data: std::cell::UnsafeCell<T>,
}

// SAFETY: `data` is reached only through a guard, and a guard exists
// only while its holder owns `held`; moving the T between threads then
// only needs T: Send.
unsafe impl<T: Send> Send for SpinLock<T> {}
// SAFETY: as above; `&SpinLock<T>` exposes `T` only through `lock()`.
unsafe impl<T: Send> Sync for SpinLock<T> {}

/// RAII guard of a [`SpinLock`]: the section ends when it drops.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// A free lock around `t`.
    pub const fn new(t: T) -> Self {
        SpinLock {
            held: AtomicBool::new(false),
            data: std::cell::UnsafeCell::new(t),
        }
    }

    /// Take the lock, spinning and then yielding while another thread
    /// holds it.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        // The one RMW of a section. `Acquire` pairs with the previous
        // holder's `Release` store, so its writes are visible here.
        while self.held.swap(true, Ordering::Acquire) {
            self.wait_until_free();
        }
        crate::race::write(self.data.get(), "spin lock: section entered");
        SpinGuard { lock: self }
    }

    /// Read-only wait for the holder's release, so waiters do not bounce
    /// the line with failed swaps. Under the model the waiter only
    /// yields, which hands the baton to another thread, and then retries
    /// its swap: a spin of loads, each free to read a stale `true` and
    /// each a schedule point, would only multiply interleavings.
    #[cold]
    fn wait_until_free(&self) {
        #[cfg(cmpi_model)]
        yield_now();
        #[cfg(not(cmpi_model))]
        {
            let mut spins = 0;
            while self.held.load(Ordering::Relaxed) {
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    yield_now();
                }
            }
        }
    }
}

impl<T> std::ops::Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard's holder owns the lock, so no other
        // reference to `data` exists.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; the guard is borrowed mutably.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        // A plain store: `Release` publishes the section's writes to the
        // next holder's `Acquire` swap.
        self.lock.held.store(false, Ordering::Release);
    }
}
