//! The execution engine: every rank is a task of one pool.
//!
//! A job is `n` rank bodies (`Fn(&mut Mpi) -> R` closures) handed to
//! [`run_task_pool`]. A rank that would block — recv wait, rendezvous
//! CTS, SHM backpressure, barrier fan-in, failure-detector decision —
//! *deschedules* itself through [`yield_blocked`], and the mailbox poke
//! that ends the wait reschedules it through [`TaskHook::wake`]. Those
//! two calls (plus [`yield_now`] for poll loops) are the whole interface
//! the rest of the crate sees; what "deschedule" means is a backend
//! choice made once per job and invisible outside this file:
//!
//! * **Fibers** ([`ExecMode::Tasks`], the default wherever
//!   [`fibers_supported`]): every rank is a stackful fiber multiplexed
//!   over a fixed set of workers (default: available cores). Descheduling
//!   switches the fiber's stack out to its worker; waking enqueues the
//!   task on its home run queue. No rank ever occupies an OS thread while
//!   it waits, which is what lets a 4096-rank job run on two cores.
//! * **OS threads** ([`ExecMode::Threads`]: targets without the fiber
//!   switch, and callers that pin it — `exec_equiv` uses it as the
//!   reference): every rank body runs on its own thread. Descheduling
//!   parks that thread; waking unparks it.
//!
//! Both backends drive the *same* blocked→queued handoff
//! ([`handoff::TaskState`]); they differ in one match arm each of
//! `yield_blocked`, `yield_now` and `TaskHook::wake`. The virtual clock,
//! the call-entry-tax refund rules and the packet protocol never see the
//! backend, which is what makes the two testable bit-for-bit against
//! each other.
//!
//! ### Why fibers and not a state-machine rewrite
//!
//! Rank bodies block deep inside library calls (a `recv` inside a
//! collective inside a proptest plan). CPS-converting every wait site
//! would fork the whole pt2pt/collective surface into hand-written state
//! machines. A stackful fiber keeps the blocking call *sites* exactly
//! where they are — `RankCell::sleep_if_idle` is the single funnel every
//! wait loop goes through — and only changes what runs on the CPU while
//! the rank waits.
//!
//! ### The yield/poke handoff
//!
//! The one concurrency protocol here is the blocked→queued transition in
//! [`handoff::TaskState`]: a rank that deschedules must not lose a poke
//! that races with its own descheduling, and must never be scheduled
//! twice (one rank on two workers would break the mailbox's
//! single-consumer contract). The protocol is one word — a state in its
//! low bits and a sticky `NOTIFIED` bit, every transition one SeqCst
//! read-modify-write (`block` is one compare-exchange after a load) —
//! and lives in its own module on the model-checker atomics so the
//! litmus tests in `model_tests` explore every interleaving of the
//! *production* transition code.
//!
//! Single-consumer safety across worker migration: all of a fiber's
//! mailbox pops happen while its task state is RUNNING on one worker.
//! The chain {pops on worker A} → `block`'s compare-exchange (worker A)
//! → the winning `BLOCKED → QUEUED` transition → enqueue under the
//! run-queue lock → dequeue + `claim` on worker B gives every pop on B
//! a happens-before edge to every pop on A — the queue's `tail` cursor
//! migrates safely even though it is an unsynchronized `UnsafeCell`.
//!
//! ### The run queues
//!
//! A worker that must put the task it just ran back (a voluntary yield,
//! or a `block` that found a poke pending) and owns that task's home
//! queue pushes it and pops its next task under one hold of the queue
//! lock. The queue locks are [`SpinLock`]s: an uncontended hold costs one
//! read-modify-write, not a mutex's two, and no section blocks. The `idle` lock is taken by `enqueue` only when the atomic
//! parked count says a worker waits; `park` raises that count under
//! `idle` *before* it re-checks the queues, so an enqueue that reads
//! zero pushed before the re-check and is seen by it.
//!
//! The one-worker run order is a tested invariant
//! (`tests/run_order.rs`): virtual time reaches it through the HCA link
//! schedule, which reserves gaps first-fit in real post order.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

use cmpi_model::sync::SpinLock;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The backend a job's tasks run on: what a blocked rank gives up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Every rank body runs on its own OS thread and deschedules by
    /// parking it. The only backend on targets without the fiber switch.
    Threads,
    /// Ranks are stackful fibers on a fixed worker pool (the default
    /// wherever the fiber switch exists).
    Tasks,
}

/// Execution-engine knobs on a [`crate::JobSpec`]. An unset worker count
/// falls back to `CMPI_WORKERS` and then to the core count; an unset
/// stack size to 1 MiB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSpec {
    /// Backend; `None` = [`ExecMode::Tasks`] where fibers are supported.
    pub mode: Option<ExecMode>,
    /// Worker count of the fiber pool; `None` = `CMPI_WORKERS` or
    /// available cores. Clamped to the rank count.
    pub workers: Option<usize>,
    /// Fiber stack size in KiB; `None` = 1024.
    pub stack_kib: Option<usize>,
}

/// Fully resolved engine configuration (spec ∪ env ∪ defaults).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExecConfig {
    pub(crate) mode: ExecMode,
    pub(crate) workers: usize,
    pub(crate) stack_bytes: usize,
}

/// Minimum fiber stack: deep collective recursion plus a panic unwind
/// both fit comfortably; anything smaller risks overruns, which the
/// stacks have no guard page to stop (see [`StackSlab`]).
const MIN_STACK_KIB: usize = 64;
/// Default fiber stack (KiB).
const DEFAULT_STACK_KIB: usize = 1024;

impl ExecSpec {
    pub(crate) fn resolve(&self) -> ExecConfig {
        let mode = if self.mode != Some(ExecMode::Threads) && fibers_supported() {
            ExecMode::Tasks
        } else {
            ExecMode::Threads
        };
        let workers = self
            .workers
            .or_else(|| env_usize("CMPI_WORKERS"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .max(1);
        let stack_kib = self
            .stack_kib
            .unwrap_or(DEFAULT_STACK_KIB)
            .max(MIN_STACK_KIB);
        ExecConfig {
            mode,
            workers,
            stack_bytes: stack_kib * 1024,
        }
    }
}

/// The environment variable `key` as a positive integer, if set.
fn env_usize(key: &str) -> Option<usize> {
    let value = std::env::var_os(key)?;
    Some(positive(key, &value.to_string_lossy()))
}

/// `value` of the variable `key` as a positive integer. Anything else
/// ends the job: a malformed count must not silently become the default.
fn positive(key: &str, value: &str) -> usize {
    match value.trim().parse() {
        Ok(v) if v > 0 => v,
        _ => panic!("{key}={value:?} is not a positive integer"),
    }
}

/// Whether the stackful-fiber backend exists for this target.
pub(crate) const fn fibers_supported() -> bool {
    cfg!(all(
        any(target_arch = "x86_64", target_arch = "aarch64"),
        target_os = "linux"
    ))
}

// ---------------------------------------------------------------------------
// The blocked→queued handoff (model-checked)
// ---------------------------------------------------------------------------

/// The wake/yield handoff protocol, on the model-checker primitives so
/// the litmus tests in `model_tests` run the production transitions
/// under exhaustive interleaving.
pub(crate) mod handoff {
    use cmpi_model::sync::{AtomicU8, Condvar, Mutex, Ordering};

    /// Task is executing (on a worker, or on its own thread).
    const RUNNING: u8 = 0;
    /// Task is scheduled to run: it sits in exactly one run queue (or is
    /// being carried to one by the unique thread that won the
    /// blocked→queued transition), or its parked thread has been told to
    /// go.
    const QUEUED: u8 = 1;
    /// Task descheduled itself; nothing runs it until a wake.
    const BLOCKED: u8 = 2;
    /// Task body returned (or unwound); it will never run again.
    const DONE: u8 = 3;
    /// The bits of the word that hold one of the four states above.
    const STATE: u8 = 0b011;
    const _: () = assert!(
        RUNNING == 0,
        "claim clears the state bits to reach RUNNING and requeue ors QUEUED into them"
    );
    /// Sticky "a poke happened" bit, consumed by `block`. A stale one
    /// (poke while running) costs one spurious reschedule; the task
    /// re-checks its mailbox and yields again.
    const NOTIFIED: u8 = 0b100;

    /// The per-task scheduling word: the state in its low two bits and
    /// the `NOTIFIED` bit above them, so every transition is one
    /// read-modify-write of one location.
    ///
    /// Invariant: a task is scheduled exactly once per block episode,
    /// because that requires winning the episode's single transition
    /// out of `BLOCKED`, or taking the task to `QUEUED` without passing
    /// through it. `wake` and `block` race, and the word's modification
    /// order decides:
    ///
    /// * a wake ordered before the yielder's compare-exchange finds the
    ///   task not blocked and only sets `NOTIFIED`; the yielder's
    ///   compare-exchange then sees that bit (or fails on it and retries)
    ///   and takes the task to `QUEUED` itself: the wakeup is not lost;
    /// * a wake ordered after it finds `BLOCKED` and wins the transition;
    ///   the yielder wrote `BLOCKED` only because the bit was clear: no
    ///   double scheduling.
    pub(crate) struct TaskState {
        word: AtomicU8,
        /// OS-thread backend only: where the task's own thread waits out
        /// a block episode (`park`) until the transition's winner tells
        /// it to go (`unpark`). Never touched when the task is a fiber.
        parked: Mutex<()>,
        unparked: Condvar,
    }

    impl TaskState {
        /// New task, already scheduled for its first run.
        pub(crate) fn new_queued() -> Self {
            TaskState {
                word: AtomicU8::new(QUEUED),
                parked: Mutex::new(()),
                unparked: Condvar::new(),
            }
        }

        /// Poke-side transition: set `NOTIFIED`, and take a `BLOCKED`
        /// task to `QUEUED` in the same step. Returns `true` iff the
        /// caller must schedule the task (it won the blocked→queued
        /// transition). A winning wake leaves the bit set, exactly as a
        /// losing one does, so the task's next `block` reschedules it at
        /// once.
        ///
        /// With `publish`, the word is written even when it already
        /// carries the bit and is not blocked: the owner's next `block`
        /// or `claim` reads that write, which orders everything the
        /// poker did before (a linked node, a raised flag) before the
        /// owner's next look. A load would order nothing, and the owner
        /// could block on a stale view of the node the poke was for.
        /// Without it, such a word is only loaded: for a poker that runs
        /// on the one thread that also runs the owner's next look, where
        /// program order already puts the poke first.
        pub(crate) fn wake(&self, publish: bool) -> bool {
            let mut cur = self.word.load(Ordering::SeqCst);
            loop {
                let blocked = cur & STATE == BLOCKED;
                let new = if blocked {
                    QUEUED | NOTIFIED
                } else {
                    cur | NOTIFIED
                };
                if new == cur && !publish {
                    return false;
                }
                match self
                    .word
                    // rmw: the one RMW of a poke. Two wakes race for one
                    // blocked task, and the exchange lets exactly one take
                    // it to `QUEUED`; with `publish`, the owner's next RMW
                    // of the word reads it, which publishes the poker's
                    // writes.
                    .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => return blocked,
                    Err(seen) => cur = seen,
                }
            }
        }

        /// Yield-side transition, once the task has stopped running:
        /// `QUEUED` if a poke is pending (consuming `NOTIFIED`), else
        /// `BLOCKED`. Returns `true` iff the yielder must reschedule the
        /// task itself (a poke raced with the yield and did not take the
        /// transition). One compare-exchange, and in the common case the
        /// bit is already set: a task that was woken still carries it,
        /// and a wake that finds it set leaves the value as it is.
        pub(crate) fn block(&self) -> bool {
            let mut cur = self.word.load(Ordering::SeqCst);
            loop {
                let new = if cur & NOTIFIED != 0 { QUEUED } else { BLOCKED };
                match self
                    .word
                    // rmw: a wake may set `NOTIFIED` between the load and
                    // the write; the exchange then fails and the retry
                    // consumes it.
                    .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => return new == QUEUED,
                    Err(seen) => cur = seen,
                }
            }
        }

        /// Resume-side transition: whoever runs the task next takes
        /// ownership (`NOTIFIED` is kept). Panics if the task was not
        /// `QUEUED` — that would mean two owners of one rank.
        pub(crate) fn claim(&self) {
            // rmw: a wake may set `NOTIFIED` on the queued word
            // meanwhile; a plain store would drop it.
            let prev = self.word.fetch_and(NOTIFIED, Ordering::SeqCst) & STATE;
            assert_eq!(prev, QUEUED, "task claimed while not queued (state {prev})");
        }

        /// Voluntary-yield transition: the running worker puts the task
        /// straight back to `QUEUED` (`RUNNING` is zero, so or-ing keeps
        /// `NOTIFIED`) without ever passing through `BLOCKED`. Used by
        /// `yield_now` (cooperative poll loops): the task needs no poke
        /// to become runnable again, and skipping `BLOCKED` means a
        /// racing `wake` can only set `NOTIFIED`, so the single-enqueue
        /// invariant holds — the worker's enqueue after this call is the
        /// episode's only one.
        pub(crate) fn requeue(&self) {
            // rmw: a wake may set `NOTIFIED` on the running word
            // meanwhile; a plain store would drop it.
            self.word.fetch_or(QUEUED, Ordering::SeqCst);
        }

        /// Terminal transition.
        pub(crate) fn finish(&self) {
            // rmw: not per message; once per task, and nothing runs it
            // again, so any wake after it only sets `NOTIFIED`.
            self.word.store(DONE, Ordering::SeqCst);
        }

        pub(crate) fn is_blocked(&self) -> bool {
            self.word.load(Ordering::SeqCst) & STATE == BLOCKED
        }

        /// OS-thread backend: after `block()` returned `false`, wait on
        /// the task's own thread until a waker wins the transition (or
        /// the job is `cancelled`). The state check and the wait happen
        /// under the park lock, and `unpark` takes the same lock before
        /// it notifies, so a wake that lands between the check and the
        /// wait cannot notify early: the wakeup is not lost.
        pub(crate) fn park(&self, cancelled: impl Fn() -> bool) {
            let mut g = self.parked.lock();
            while self.is_blocked() && !cancelled() {
                // Reached only from the `ExecMode::Threads` arm of
                // `yield_blocked`, where the caller is the rank's own OS
                // thread — parking it is that backend's deschedule, and
                // there is no worker or fiber to strand.
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the one-thread-per-rank backend parks the rank's own thread"
                )]
                self.unparked.wait(&mut g);
            }
        }

        /// OS-thread backend: let a parked task re-check its state.
        /// Called by the winner of the blocked→queued transition (and by
        /// job cancellation).
        pub(crate) fn unpark(&self) {
            let _g = self.parked.lock();
            self.unparked.notify_one();
        }
    }
}

// ---------------------------------------------------------------------------
// Stackful fibers
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
std::arch::global_asm!(
    // Save the SysV callee-saved set and the stack pointer of the
    // current context into `*save` (rdi), then resume the context whose
    // stack pointer is `to` (rsi). Returns on the *target* stack.
    ".text",
    ".global cmpi_core_fiber_switch",
    ".p2align 4",
    "cmpi_core_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First-entry trampoline: a fresh fiber's stack is seeded so the
    // restore above "returns" here with the task pointer in r12 and
    // rsp 16-aligned, i.e. call-site alignment for the boot call.
    ".global cmpi_core_fiber_thunk",
    ".p2align 4",
    "cmpi_core_fiber_thunk:",
    "mov rdi, r12",
    "call cmpi_core_fiber_boot",
    "ud2",
);

#[cfg(all(target_arch = "aarch64", target_os = "linux"))]
std::arch::global_asm!(
    // AAPCS64 callee-saved set: x19-x28, fp, lr, d8-d15 — a 160-byte
    // frame. `save` is x0, `to` is x1.
    ".text",
    ".global cmpi_core_fiber_switch",
    ".p2align 2",
    "cmpi_core_fiber_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    // First entry: restored x19 carries the task pointer, restored lr
    // points here; sp is back at the 16-aligned stack top.
    ".global cmpi_core_fiber_thunk",
    ".p2align 2",
    "cmpi_core_fiber_thunk:",
    "mov x0, x19",
    "bl cmpi_core_fiber_boot",
    "brk #1",
);

#[cfg(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    target_os = "linux"
))]
extern "C" {
    fn cmpi_core_fiber_switch(save: *mut *mut u8, to: *mut u8);
    fn cmpi_core_fiber_thunk();
}

/// Unsupported-target stubs so the module typechecks everywhere; the
/// resolver picks the OS-thread backend there, which never switches.
#[cfg(not(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    target_os = "linux"
)))]
#[allow(non_snake_case)]
mod fallback_asm {
    // SAFETY: trivially safe — the stub aborts; it is `unsafe fn` only
    // to keep one signature with the real asm symbol.
    pub(super) unsafe fn cmpi_core_fiber_switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("fiber switch on unsupported target")
    }
    // SAFETY: trivially safe — the stub aborts; it is `unsafe fn` only
    // to keep one signature with the real asm symbol.
    pub(super) unsafe fn cmpi_core_fiber_thunk() {
        unreachable!("fiber thunk on unsupported target")
    }
}
#[cfg(not(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    target_os = "linux"
)))]
use fallback_asm::{cmpi_core_fiber_switch, cmpi_core_fiber_thunk};

/// Every fiber stack of one pool run, carved from a single allocation:
/// stack `i` is the `stack_bytes` below [`StackSlab::top`]`(i)`. One
/// request per job, not a mapping, a header page and an unmapping per
/// rank. glibc serves it with a fresh `mmap`, of which only touched
/// pages commit, when it is above malloc's mmap threshold: 128 KiB at
/// first, raised to the size of each mapping freed since, to at most
/// 32 MiB. Below the threshold the slab is recycled heap, whose pages an
/// earlier job's fibers may already have committed and written.
///
/// A fiber's frames are budgeted to its stack's top page (4 032 bytes,
/// see below; DESIGN §16), so a rank costs one page of stack; the
/// runtime keeps no large value in a frame that is live under a deep
/// call, and `tests/footprint.rs` holds it to that in release builds.
///
/// No guard pages: adding them needs `mprotect`, and the workspace
/// deliberately has no libc-level dependency. A fiber that overruns its
/// stack writes into the top of its lower neighbour's. The defence is
/// generous sizing (1 MiB default, see `JobSpec::with_stack_kib`) against rank
/// bodies whose deepest frames are a collective inside a proptest plan,
/// and a [`STACK_CANARY`] in the lowest 8 bytes of every stack: the
/// worker checks it each time a fiber switches out and takes the job
/// down naming the rank. That catches an overrun after the fact, at the
/// next switch, and only one whose frames wrote over the canary.
///
/// The stacks start `CANARY_SLACK` bytes below a page boundary. With a
/// stack size of whole pages (every size in use) each canary above
/// stack 0's then shares a page with the top of the stack below it,
/// which that stack's fiber touches on its first run anyway: the
/// canaries commit one page per job, not one per rank. It also keeps
/// every fiber's seeded first frame inside its top page; a slab that
/// starts a few bytes into a page has each seed frame straddle into the
/// bottom page of the stack above, a page per rank nothing else uses.
struct StackSlab {
    /// The allocation, as returned by the allocator.
    raw: *mut u8,
    /// Bytes from `raw` to the bottom of stack 0.
    skip: usize,
    layout: std::alloc::Layout,
    stack_bytes: usize,
}

/// Written into the lowest 8 bytes of every fiber stack at slab
/// creation; any other value there means the stack's fiber overran it.
const STACK_CANARY: u64 = 0x5EED_CA4A_2D57_AC4B;
/// Distance from a stack's bottom to the next page boundary above it.
const CANARY_SLACK: usize = 64;
/// The page size the slack is laid out against.
const PAGE: usize = 4096;

// SAFETY: workers share the slab by reference only to compute stack
// tops (`top` reads fields that never change after construction) and to
// read the canary of a stack whose fiber they just switched out of; each
// stack region is touched solely by the unique owner of its task's
// fiber cell (see `Task`).
unsafe impl Sync for StackSlab {}

impl StackSlab {
    fn new(stacks: usize, stack_bytes: usize) -> StackSlab {
        // 16-byte alignment and a 16-multiple stride keep every top
        // aligned for both ABIs.
        let stack_bytes = stack_bytes.max(MIN_STACK_KIB * 1024) & !15;
        // One page more than the stacks, for the canary slack.
        let layout = stacks
            .checked_mul(stack_bytes)
            .and_then(|bytes| bytes.checked_add(PAGE))
            .and_then(|bytes| std::alloc::Layout::from_size_align(bytes, 16).ok())
            .expect("stack slab layout");
        // SAFETY: layout has non-zero size (the pool has at least one
        // task and stacks are at least MIN_STACK_KIB).
        let raw = unsafe { std::alloc::alloc(layout) };
        assert!(
            !raw.is_null(),
            "could not reserve {stacks} fiber stacks of {} KiB; lower JobSpec::with_stack_kib",
            stack_bytes / 1024
        );
        // Start at the lowest address CANARY_SLACK below a page boundary:
        // less than the page the layout holds beyond the stacks, and
        // 16-aligned because `raw` is.
        let skip = (PAGE - (raw as usize + CANARY_SLACK) % PAGE) % PAGE;
        let slab = StackSlab {
            raw,
            skip,
            layout,
            stack_bytes,
        };
        for i in 0..stacks {
            // SAFETY: the bottom of stack `i` is inside the allocation,
            // 16-aligned, with at least 8 bytes of the stack above it.
            unsafe { slab.bottom(i).write(STACK_CANARY) };
        }
        slab
    }

    /// One past the highest byte of stack `index` — its initial (empty,
    /// 16-aligned) top.
    fn top(&self, index: usize) -> *mut u8 {
        let offset = self.skip + (index + 1) * self.stack_bytes;
        assert!(offset <= self.layout.size());
        // SAFETY: checked above to stay inside the allocation we own.
        unsafe { self.raw.add(offset) }
    }

    /// The lowest 8 bytes of stack `index`, where its canary lives.
    fn bottom(&self, index: usize) -> *mut u64 {
        self.top(index).wrapping_sub(self.stack_bytes) as *mut u64
    }

    /// Whether stack `index` still holds its canary.
    fn intact(&self, index: usize) -> bool {
        // SAFETY: `bottom` is an aligned word inside the allocation,
        // written at creation; the fiber that might overwrite it is
        // switched out while its worker reads.
        unsafe { self.bottom(index).read() == STACK_CANARY }
    }
}

impl Drop for StackSlab {
    fn drop(&mut self) {
        // SAFETY: raw/layout are exactly what alloc returned.
        unsafe { std::alloc::dealloc(self.raw, self.layout) }
    }
}

/// Seed a fresh stack so the first `cmpi_core_fiber_switch` into it
/// restores zeroed registers, the task pointer in the callee-saved slot
/// the thunk expects, and "returns" into the thunk.
///
/// # Safety
/// `top` must be the 16-aligned top of a live allocation with at least
/// 256 free bytes below it; `task` must outlive the fiber.
// SAFETY: the `# Safety` contract above is the whole obligation; every
// write below stays within the 256 bytes the caller guarantees.
unsafe fn seed_stack(top: *mut u8, task: *const Task) -> *mut u8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Layout (low→high): r15 r14 r13 r12 rbx rbp ret.
        let sp = top.wrapping_sub(56) as *mut u64;
        // SAFETY: 56 bytes below `top` are inside the fresh stack.
        unsafe {
            for i in 0..6 {
                sp.add(i).write(0);
            }
            sp.add(3).write(task as u64); // r12 = task
            sp.add(6)
                .write(cmpi_core_fiber_thunk as *const () as usize as u64);
        }
        sp as *mut u8
    }
    #[cfg(target_arch = "aarch64")]
    {
        // Layout mirrors the 160-byte stp frame in the asm above.
        let sp = top.wrapping_sub(160) as *mut u64;
        // SAFETY: 160 bytes below `top` are inside the fresh stack.
        unsafe {
            for i in 0..20 {
                sp.add(i).write(0);
            }
            sp.add(0).write(task as u64); // x19 = task
            sp.add(11)
                .write(cmpi_core_fiber_thunk as *const () as usize as u64); // x30
        }
        sp as *mut u8
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (top, task);
        unreachable!("fiber seed on unsupported target")
    }
}

/// Run state of a fiber's stack (worker-private; see [`Task`] safety).
enum FiberStatus {
    /// Never switched into; `body` is still intact.
    New,
    /// Yielded mid-body; `sp` resumes it.
    Suspended,
    /// Body returned or unwound; the stack is dead.
    Done,
}

/// Sentinel panic payload used to unwind a cancelled task's stack so its
/// locals drop. Swallowed where the body was started; never
/// user-visible.
struct Cancelled;

/// Owner-private half of a task: the body, what it left behind, and (for
/// a fiber) the suspended stack. The OS-thread backend uses `body` and
/// `panic` only.
struct FiberState {
    status: FiberStatus,
    /// Suspended stack pointer (valid iff `Suspended`).
    sp: *mut u8,
    /// Where the fiber switches back to: the address of the `resume`
    /// local of whichever worker currently runs it, into which that
    /// worker's switch-in saved its own stack pointer. The fiber loads
    /// the slot at yield time (not earlier — the save happens inside
    /// the worker's switch).
    ret_sp: *mut *mut u8,
    /// The rank body, taken at first entry.
    body: Option<Box<dyn FnOnce() + Send + 'static>>,
    /// Voluntary-yield flag: set by `yield_now` before switching out so
    /// the worker re-enqueues the task directly instead of running the
    /// blocked→queued handoff (no poke is coming; the task is runnable).
    requeue: bool,
    /// Teardown flag: checked at every yield resume; set only after the
    /// workers have exited, resumed from the pool's own thread.
    cancel: bool,
    /// A real (non-`Cancelled`) panic the body unwound with.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One rank as a schedulable task.
///
/// The `fiber` cell is owner-private state despite the `Sync` impl:
/// exactly one thread may touch it at a time, namely whichever thread
/// owns the task per the [`handoff::TaskState`] protocol (RUNNING: the
/// worker that claimed it, or the task's own thread; BLOCKED: nobody;
/// teardown: the pool thread after every worker or rank thread joined).
/// The SeqCst transitions in `handoff` and the run-queue locks provide
/// the happens-before edges between consecutive owners.
struct Task {
    state: handoff::TaskState,
    fiber: UnsafeCell<FiberState>,
}

// SAFETY: see the `Task` doc comment — `fiber` access is serialized by
// the handoff state machine, never concurrent.
unsafe impl Sync for Task {}
// SAFETY: all fields are owned; raw pointers inside `FiberState` point
// into this task's region of the pool run's `StackSlab`, which is
// alive whenever a fiber can run (or into a worker stack slot only
// dereferenced by that worker).
unsafe impl Send for Task {}

/// What a mailbox poke needs to reschedule a descheduled rank: the task
/// and a route back to its pool. Held by the rank's `RankCell`.
pub(crate) struct TaskHook {
    pool: Arc<PoolShared>,
    index: usize,
}

impl TaskHook {
    /// Poke-side wakeup: if this task was blocked, schedule it again.
    /// Safe from any thread, any number of times. Returns `true` iff the
    /// wakeup cost an OS-thread unpark (the mailbox counts those).
    pub(crate) fn wake(&self) -> bool {
        let task = &self.pool.tasks[self.index];
        if !task.state.wake(!self.on_owner_thread()) {
            return false;
        }
        match self.pool.mode {
            ExecMode::Tasks => {
                self.pool.enqueue(self.index);
                false
            }
            ExecMode::Threads => {
                task.state.unpark();
                true
            }
        }
    }

    /// Whether the caller runs on the thread that runs the task's next
    /// look: a one-worker fiber pool runs every task on one thread, so a
    /// poke from one of its tasks is ordered before that look by program
    /// order, and its wake needs no publishing write.
    fn on_owner_thread(&self) -> bool {
        let pool = &*self.pool;
        pool.mode == ExecMode::Tasks
            && pool.queues.len() == 1
            && CURRENT.with(|c| std::ptr::eq(c.get().0, pool))
    }
}

thread_local! {
    /// The task the current OS thread is running — its pool and index —
    /// or a null pool between tasks and on threads that run none.
    static CURRENT: Cell<(*const PoolShared, usize)> = const { Cell::new((std::ptr::null(), 0)) };
}

/// The pool and task the calling code runs as, if any. Read once per
/// call and never across a fiber switch: a resumed fiber may be on
/// another thread, whose `CURRENT` its worker has set to the same value.
fn current<'a>() -> Option<(&'a PoolShared, &'a Task)> {
    let (pool, index) = CURRENT.with(|c| c.get());
    // SAFETY: `CURRENT` is non-null only while one of the pool's tasks
    // runs on this thread, and `run_task_pool` keeps the pool alive
    // until every task has finished or been unwound.
    let pool = unsafe { pool.as_ref() }?;
    Some((pool, &pool.tasks[index]))
}

/// Deschedule the calling rank until the next [`TaskHook::wake`]. Must be
/// called from a task. The caller is responsible for having published
/// its "I am waiting" state (the mailbox `poked` protocol) *before*
/// yielding; the handoff CAS closes the remaining race.
pub(crate) fn yield_blocked() {
    let (pool, task) = current().expect("yield_blocked outside a task");
    match pool.mode {
        // The worker completes the BLOCKED transition once this fiber's
        // stack is off the CPU.
        ExecMode::Tasks => task.switch_out(false),
        ExecMode::Threads => {
            if !task.state.block() {
                task.state.park(|| pool.poisoned());
            }
            pool.unwind_if_cancelled();
            task.state.claim();
        }
    }
}

/// Cooperative-scheduling hint for non-blocking poll loops (`test`,
/// `iprobe`): let other ranks make progress, then resume without waiting
/// for a poke. A fiber that busy-polls would starve every other rank
/// multiplexed on its worker (livelock on a pool smaller than the
/// spinning ranks). Purely a real-time scheduling event: callers have
/// already refunded the failed poll's virtual time, so the virtual clock
/// is untouched. No-op outside a task.
pub(crate) fn yield_now() {
    let Some((pool, task)) = current() else {
        return;
    };
    match pool.mode {
        ExecMode::Tasks => task.switch_out(true),
        ExecMode::Threads => {
            pool.unwind_if_cancelled();
            std::thread::yield_now();
        }
    }
}

impl Task {
    /// Fiber backend: suspend the running fiber and hand the CPU back to
    /// its worker, which re-enqueues the task at once (`requeue`) or
    /// runs the blocked→queued handoff for it.
    fn switch_out(&self, requeue: bool) {
        // SAFETY: the caller runs *as* this fiber, so it is the unique
        // RUNNING owner of the cell until the switch, and the worker
        // (sole next owner) takes over after it.
        unsafe {
            let fs = self.fiber.get();
            (*fs).requeue = requeue;
            (*fs).status = FiberStatus::Suspended;
            let ret = *(*fs).ret_sp;
            // SAFETY: `ret` is the worker context that switched into us;
            // the save slot is our own `sp` field. The worker touches the
            // task only after this switch hands control back to it, so
            // no other worker can resume this stack while it is still
            // live here.
            cmpi_core_fiber_switch(std::ptr::addr_of_mut!((*fs).sp), ret);
            // Resumed. If the pool is tearing us down, unwind so locals
            // drop.
            if (*fs).cancel {
                std::panic::resume_unwind(Box::new(Cancelled));
            }
        }
    }
}

/// Fiber entry point, called from the boot thunk on the fiber's own
/// stack. Runs the body under `catch_unwind`, records any real panic,
/// and switches back to the worker for the last time.
///
/// # Safety
/// Called only by the seeded thunk with the task pointer planted by
/// `seed_stack`.
#[no_mangle]
extern "C" fn cmpi_core_fiber_boot(task: *mut Task) -> ! {
    // SAFETY: the thunk passes the pointer `seed_stack` planted; the
    // task outlives the fiber. No &mut is held across the body call —
    // the body may yield, and each yield re-derives its own pointer.
    let panicked = unsafe {
        let body = (*task)
            .fiber
            .get()
            .as_mut()
            .and_then(|fs| fs.body.take())
            .expect("fiber booted twice");
        std::panic::catch_unwind(AssertUnwindSafe(body)).err()
    };
    // SAFETY: body finished; we are again the unique owner of the cell.
    unsafe {
        let fs = (*task).fiber.get();
        if let Some(p) = panicked {
            if !p.is::<Cancelled>() {
                (*fs).panic = Some(p);
            }
        }
        (*fs).status = FiberStatus::Done;
        let ret = *(*fs).ret_sp;
        // SAFETY: final switch back to the worker; this context is dead
        // and its save slot will never be restored.
        cmpi_core_fiber_switch(std::ptr::addr_of_mut!((*fs).sp), ret);
    }
    unreachable!("fiber resumed after Done")
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// Everything the tasks, the workers and the pokers share.
pub(crate) struct PoolShared {
    /// The backend, fixed for the pool's lifetime.
    mode: ExecMode,
    tasks: Box<[Task]>,
    /// Fiber backend: one FIFO run queue per worker. Pokes enqueue to the
    /// task's home queue (index % workers); idle workers steal from the
    /// back of other queues.
    queues: Box<[SpinLock<VecDeque<usize>>]>,
    /// Where workers park, guarding the count of consecutive
    /// full-quiescence observations (all workers parked, queues empty,
    /// tasks outstanding), which any sign of life resets.
    idle: Mutex<u32>,
    idle_cv: Condvar,
    /// Workers parked on `idle_cv`. Changed only under `idle`; read
    /// without it by `enqueue`, which takes `idle` only to notify.
    parked: AtomicUsize,
    /// Fiber backend: tasks not yet Done. The last finisher wakes all
    /// parked workers so the pool winds down promptly.
    live: AtomicUsize,
    /// Raised on a task panic or detected deadlock: no task is resumed
    /// any more; teardown unwinds the remnants.
    poisoned: AtomicBool,
}

/// Park timeout. Also the deadlock-detector sampling period: with no
/// external wake sources (all pokes come from running ranks), a fully
/// parked pool with live tasks and empty queues can only be a lost-
/// progress bug, reported after `DEADLOCK_STRIKES` consecutive samples.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);
const DEADLOCK_STRIKES: u32 = 3;

impl PoolShared {
    /// A pool of `bodies.len()` tasks, every one scheduled for its first
    /// run, with `workers` run queues (which only fibers use).
    ///
    /// The `'a` bodies are transmuted to `'static`; this is the
    /// scoped-thread pattern — whoever builds a pool must finish or
    /// unwind every body before `'a` ends (see [`run_task_pool`]).
    fn new<'a>(
        bodies: Vec<Box<dyn FnOnce() + Send + 'a>>,
        mode: ExecMode,
        workers: usize,
    ) -> Arc<PoolShared> {
        let n = bodies.len();
        let tasks: Box<[Task]> = bodies
            .into_iter()
            .map(|body| {
                // SAFETY: lifetime erasure only ('a → 'static); see the
                // function doc — the pool finishes or unwinds every body
                // before its creator returns, so the borrows never
                // dangle.
                let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
                Task {
                    state: handoff::TaskState::new_queued(),
                    fiber: UnsafeCell::new(FiberState {
                        status: FiberStatus::New,
                        sp: std::ptr::null_mut(),
                        ret_sp: std::ptr::null_mut(),
                        body: Some(body),
                        requeue: false,
                        cancel: false,
                        panic: None,
                    }),
                }
            })
            .collect();
        Arc::new(PoolShared {
            mode,
            tasks,
            queues: (0..workers)
                .map(|_| SpinLock::new(VecDeque::new()))
                .collect(),
            idle: Mutex::new(0),
            idle_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            live: AtomicUsize::new(n),
            poisoned: AtomicBool::new(false),
        })
    }

    fn hook(self: &Arc<Self>, index: usize) -> Arc<TaskHook> {
        Arc::new(TaskHook {
            pool: Arc::clone(self),
            index,
        })
    }

    fn home(&self, index: usize) -> usize {
        index % self.queues.len()
    }

    /// Put a QUEUED task onto a run queue and wake a parked worker.
    fn enqueue(&self, index: usize) {
        self.queues[self.home(index)].lock().push_back(index);
        self.notify_parked();
    }

    /// Wake one parked worker, if the count says one waits. A push that
    /// reads zero here preceded the parker's count increment, hence its
    /// queue re-check, which sees the push (see `park`).
    fn notify_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            // The parker holds `idle` from its re-check into its wait, so
            // a notify under it cannot fall between the two.
            let _g = self.idle.lock();
            self.idle_cv.notify_one();
        }
    }

    fn any_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().is_empty())
    }

    /// Local pop, then steal sweep.
    fn find_work(&self, me: usize) -> Option<usize> {
        if let Some(idx) = self.queues[me].lock().pop_front() {
            return Some(idx);
        }
        let w = self.queues.len();
        for k in 1..w {
            if let Some(idx) = self.queues[(me + k) % w].lock().pop_back() {
                return Some(idx);
            }
        }
        None
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    fn poison(&self) {
        // rmw: not per message; once per failed job, before the notify.
        self.poisoned.store(true, Ordering::SeqCst);
        self.idle_cv.notify_all();
    }

    /// OS-thread backend: a poisoned pool resumes no task, so a rank
    /// thread that reaches a yield point unwinds instead (its locals
    /// drop, exactly as `cancel_remnants` does for a suspended fiber).
    fn unwind_if_cancelled(&self) {
        if self.poisoned() {
            std::panic::resume_unwind(Box::new(Cancelled));
        }
    }

    /// OS-thread backend: run task `idx` on the calling thread, start to
    /// finish.
    fn thread_main(&self, idx: usize) {
        let task = &self.tasks[idx];
        task.state.claim();
        // SAFETY: claim() made this thread the owner of the fiber cell,
        // and on this backend no other thread touches it before the
        // join.
        let body = unsafe { (*task.fiber.get()).body.take() }.expect("task started twice");
        let outer = CURRENT.with(|c| c.replace((self as *const PoolShared, idx)));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(body));
        CURRENT.with(|c| c.set(outer));
        task.state.finish();
        let Err(p) = outcome else { return };
        if p.is::<Cancelled>() {
            return;
        }
        // SAFETY: still the owner (see above).
        unsafe { (*task.fiber.get()).panic = Some(p) };
        self.poison();
        // Ranks parked for a message this one will never send must see
        // the poison.
        for t in self.tasks.iter() {
            t.state.unpark();
        }
    }

    /// OS-thread backend: one scoped thread per task.
    fn run_threads(&self) {
        std::thread::scope(|scope| {
            for idx in 0..self.tasks.len() {
                std::thread::Builder::new()
                    .name(format!("mpi-rank-{idx}"))
                    .spawn_scoped(scope, move || self.thread_main(idx))
                    .expect("failed to spawn rank thread");
            }
        });
        self.propagate_panic();
    }

    /// Fiber backend: run every task on `self.queues.len()` workers, then
    /// unwind whatever a poisoned pool left suspended.
    fn run_fibers(&self, stack_bytes: usize) {
        // Seed: every task starts queued on its home worker.
        for i in 0..self.tasks.len() {
            self.queues[self.home(i)].lock().push_back(i);
        }
        // The stacks live exactly as long as fibers can run: from here to
        // the end of teardown. (The pool itself outlives this call
        // through the hooks, which only ever enqueue an index.)
        let stacks = StackSlab::new(self.tasks.len(), stack_bytes);
        let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.queues.len())
                .map(|w| {
                    let stacks = &stacks;
                    std::thread::Builder::new()
                        .name(format!("cmpi-worker-{w}"))
                        .spawn_scoped(scope, move || self.worker(w, stacks))
                        .expect("failed to spawn pool worker")
                })
                .collect();
            for h in handles {
                if let Err(p) = h.join() {
                    worker_panic.get_or_insert(p);
                }
            }
        });
        self.cancel_remnants(&stacks);
        self.propagate_panic();
        if let Some(p) = worker_panic {
            std::panic::resume_unwind(p);
        }
    }

    /// Re-raise the lowest-index task panic, if any. Call only once
    /// nothing runs the pool's tasks any more.
    fn propagate_panic(&self) {
        for task in self.tasks.iter() {
            // SAFETY: every worker / rank thread joined; sole owner.
            if let Some(p) = unsafe { (*task.fiber.get()).panic.take() } {
                std::panic::resume_unwind(p);
            }
        }
    }

    /// Worker main loop: run the task `run_task` hands back, else find
    /// one, else park.
    fn worker(&self, me: usize, stacks: &StackSlab) {
        let mut next = None;
        loop {
            if self.poisoned() {
                return;
            }
            if let Some(idx) = next.take().or_else(|| self.find_work(me)) {
                next = self.run_task(idx, me, stacks);
                continue;
            }
            if self.live.load(Ordering::SeqCst) == 0 {
                return;
            }
            self.park();
        }
    }

    fn park(&self) {
        let mut strikes = self.idle.lock();
        // Count ourselves before the re-check: an enqueue that reads the
        // count as zero pushed before this increment, so the re-check
        // below sees its task; one that reads it later notifies, under
        // `idle`, which we hold until the wait releases it.
        // rmw: not per message; an idle worker's count, read by enqueue.
        self.parked.fetch_add(1, Ordering::SeqCst);
        // idle -> queues is the designed lock order — park holds `idle`
        // while any_queued sweeps the run queues; enqueue takes queues
        // then idle *sequentially* (each released before the next), so
        // the reverse edge never exists.
        if self.any_queued() || self.live.load(Ordering::SeqCst) == 0 || self.poisoned() {
            // rmw: not per message; the count enqueue reads.
            self.parked.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // Worker-thread context, never fiber context — park() runs on
        // the pool's OS worker between tasks (fibers block via
        // yield_blocked(), which switches back to this loop instead of
        // ever reaching an OS wait).
        #[allow(
            clippy::disallowed_methods,
            reason = "an idle worker parks between tasks, never under a fiber"
        )]
        let timed_out = self
            .idle_cv
            .wait_for(&mut strikes, PARK_TIMEOUT)
            .timed_out();
        // rmw: not per message; the count enqueue reads.
        let others = self.parked.fetch_sub(1, Ordering::SeqCst) - 1;
        if !timed_out {
            *strikes = 0;
            return;
        }
        // Timed out: quiescence probe. The count changes only under
        // `idle`, which we hold, so "everyone else parked" is exact.
        let all_parked = others == self.queues.len() - 1;
        let live = self.live.load(Ordering::SeqCst);
        if all_parked && live > 0 && !self.any_queued() && !self.poisoned() {
            *strikes += 1;
            if *strikes >= DEADLOCK_STRIKES {
                let stuck: Vec<usize> = (0..self.tasks.len())
                    .filter(|&i| self.tasks[i].state.is_blocked())
                    .collect();
                self.poison();
                drop(strikes);
                panic!(
                    "cmpi task pool deadlock: {live} task(s) outstanding, all workers idle, \
                     no queued work; blocked ranks: {stuck:?}"
                );
            }
        } else {
            *strikes = 0;
        }
    }

    /// Claim, switch into, and dispose of one task on worker `me` (task
    /// `i` runs on stack `i` of `stacks`). A task that must run again and
    /// is at home here goes back on this worker's queue under the same
    /// hold that pops the next task, which is returned; `None` sends the
    /// worker to `find_work`.
    fn run_task(&self, idx: usize, me: usize, stacks: &StackSlab) -> Option<usize> {
        let task = &self.tasks[idx];
        task.state.claim();
        let mut resume: *mut u8 = std::ptr::null_mut();
        // SAFETY: claim() made us the unique owner of the fiber cell
        // (see the Task doc comment for the cross-worker ordering).
        unsafe {
            let fs = task.fiber.get();
            if matches!((*fs).status, FiberStatus::New) {
                (*fs).sp = seed_stack(stacks.top(idx), task);
                (*fs).status = FiberStatus::Suspended;
            }
            (*fs).ret_sp = std::ptr::addr_of_mut!(resume);
            let to = (*fs).sp;
            CURRENT.with(|c| c.set((self as *const PoolShared, idx)));
            // SAFETY: `to` is a stack this pool seeded/suspended; the
            // save slot is this frame's `resume` local, which outlives
            // the switch because the fiber always switches back here.
            cmpi_core_fiber_switch(&mut resume, to);
            CURRENT.with(|c| c.set((std::ptr::null(), 0)));
            if !stacks.intact(idx) {
                self.poison();
                panic!(
                    "rank {idx} overran its {} KiB fiber stack",
                    stacks.stack_bytes / 1024
                );
            }
            let again = match (*fs).status {
                FiberStatus::Done => {
                    task.state.finish();
                    if (*fs).panic.is_some() {
                        self.poison();
                    }
                    // rmw: once per task; the last finisher wakes the pool.
                    if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                        let _g = self.idle.lock();
                        self.idle_cv.notify_all();
                    }
                    false
                }
                FiberStatus::Suspended if (*fs).requeue => {
                    // Voluntary yield: the task is runnable now; put it
                    // straight back without the blocked handoff.
                    (*fs).requeue = false;
                    task.state.requeue();
                    true
                }
                FiberStatus::Suspended => task.state.block(),
                FiberStatus::New => unreachable!("fiber yielded before first entry"),
            };
            if !again {
                return None;
            }
        }
        if self.home(idx) != me {
            self.enqueue(idx);
            return None;
        }
        let (next, more) = {
            let mut q = self.queues[me].lock();
            q.push_back(idx);
            (q.pop_front(), !q.is_empty())
        };
        // Work left behind for a parked worker to steal.
        if more {
            self.notify_parked();
        }
        next
    }

    /// Post-join teardown, on the pool thread: unwind every fiber that
    /// is not Done so its stack-held locals drop, and drop unstarted
    /// bodies. Workers are gone, so this thread owns every fiber cell.
    fn cancel_remnants(&self, stacks: &StackSlab) {
        // An overrun breaks its own canary and writes into the top of
        // the stack below: neither stack's frames can be trusted to
        // unwind, so their locals leak instead.
        let sound =
            |i: usize| stacks.intact(i) && (i + 1 == self.tasks.len() || stacks.intact(i + 1));
        for (idx, task) in self.tasks.iter().enumerate() {
            // SAFETY: single-threaded teardown; no other accessor left.
            unsafe {
                let fs = task.fiber.get();
                (*fs).cancel = true;
                match (*fs).status {
                    FiberStatus::Done => {}
                    FiberStatus::New => {
                        (*fs).body = None;
                        (*fs).status = FiberStatus::Done;
                    }
                    FiberStatus::Suspended if !sound(idx) => {
                        (*fs).status = FiberStatus::Done;
                    }
                    FiberStatus::Suspended => {
                        // Bounded: each resume unwinds via Cancelled
                        // unless the body catches it, which nothing in
                        // this crate does.
                        for _ in 0..64 {
                            if matches!((*fs).status, FiberStatus::Done) {
                                break;
                            }
                            let mut resume: *mut u8 = std::ptr::null_mut();
                            (*fs).ret_sp = std::ptr::addr_of_mut!(resume);
                            let to = (*fs).sp;
                            CURRENT.with(|c| c.set((self as *const PoolShared, idx)));
                            // SAFETY: suspended stack owned solely by us.
                            cmpi_core_fiber_switch(&mut resume, to);
                            CURRENT.with(|c| c.set((std::ptr::null(), 0)));
                        }
                    }
                }
            }
        }
    }
}

/// Run `bodies[i]` as task `i` on the backend `cfg.mode` names;
/// `bind(i, hook)` is called before any task starts so mailbox cells can
/// route pokes. Returns when every body has run to completion; a task
/// panic takes the job down — descheduled ranks are unwound so their
/// locals drop — and the lowest-index panic is propagated.
///
/// Every body is finished or unwound before this function returns, so
/// no body outlives its `'a` borrows (see [`PoolShared::new`]).
pub(crate) fn run_task_pool<'a>(
    bodies: Vec<Box<dyn FnOnce() + Send + 'a>>,
    cfg: &ExecConfig,
    mut bind: impl FnMut(usize, Arc<TaskHook>),
) {
    let n = bodies.len();
    if n == 0 {
        return;
    }
    let pool = PoolShared::new(bodies, cfg.mode, cfg.workers.max(1).min(n));
    for i in 0..n {
        bind(i, pool.hook(i));
    }
    match pool.mode {
        ExecMode::Tasks => pool.run_fibers(cfg.stack_bytes),
        ExecMode::Threads => pool.run_threads(),
    }
}

/// Test scaffolding: run `body` on the *calling* thread as the one task
/// of an OS-thread-backed pool, so unit and model tests can drive a
/// `RankCell` owner through the production handoff without spawning
/// threads the model checker cannot see.
#[cfg(test)]
pub(crate) fn run_on_this_thread<'a>(
    body: impl FnOnce() + Send + 'a,
    bind: impl FnOnce(Arc<TaskHook>),
) {
    let pool = PoolShared::new(vec![Box::new(body)], ExecMode::Threads, 0);
    bind(pool.hook(0));
    pool.thread_main(0);
    pool.propagate_panic();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_model::sync::AtomicU64;

    #[test]
    fn a_worker_count_is_a_positive_integer() {
        assert_eq!(positive("CMPI_WORKERS", "3"), 3);
        assert_eq!(positive("CMPI_WORKERS", " 8\n"), 8);
    }

    #[test]
    #[should_panic(expected = "CMPI_WORKERS=\"1x\" is not a positive integer")]
    fn a_malformed_worker_count_is_refused() {
        positive("CMPI_WORKERS", "1x");
    }

    #[test]
    #[should_panic(expected = "CMPI_WORKERS=\"0\" is not a positive integer")]
    fn a_zero_worker_count_is_refused() {
        positive("CMPI_WORKERS", "0");
    }

    /// Both backends at `workers` workers: everything below must hold on
    /// fibers and on OS threads alike.
    fn backends(workers: usize) -> [ExecConfig; 2] {
        [ExecMode::Tasks, ExecMode::Threads].map(|mode| ExecConfig {
            mode,
            workers,
            stack_bytes: 256 * 1024,
        })
    }

    #[test]
    fn pool_runs_every_body_once() {
        for cfg in backends(4) {
            let counter = AtomicU64::new(0);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_task_pool(bodies, &cfg, |_, _| {});
            assert_eq!(counter.load(Ordering::SeqCst), 64);
        }
    }

    /// Only a task of a one-worker fiber pool pokes from the owner's
    /// thread; a poke from any other thread must publish.
    #[test]
    fn only_a_one_worker_fiber_pool_skips_the_publishing_write() {
        for (mode, workers, expect) in [
            (ExecMode::Tasks, 1, true),
            (ExecMode::Tasks, 2, false),
            (ExecMode::Threads, 1, false),
        ] {
            let cfg = ExecConfig {
                mode,
                workers,
                stack_bytes: 256 * 1024,
            };
            let hooks: Mutex<Vec<Arc<TaskHook>>> = Mutex::new(Vec::new());
            let seen = Mutex::new(Vec::new());
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
                .map(|_| {
                    Box::new(|| seen.lock().push(hooks.lock()[0].on_owner_thread()))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_task_pool(bodies, &cfg, |_, h| hooks.lock().push(h));
            assert_eq!(*seen.lock(), [expect; 2], "{mode:?} at {workers} workers");
            assert!(
                !hooks.lock()[0].on_owner_thread(),
                "a poke from outside the pool"
            );
        }
    }

    #[test]
    fn yield_and_wake_resume_a_blocked_task() {
        // Task 0 blocks until task 1 (on fibers: running later on the
        // same worker) pokes it — the handoff in miniature.
        for cfg in backends(1) {
            let flag = AtomicU64::new(0);
            let hooks: Mutex<Vec<Option<Arc<TaskHook>>>> = Mutex::new(vec![None, None]);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {
                    while flag.load(Ordering::SeqCst) == 0 {
                        yield_blocked();
                    }
                    flag.store(2, Ordering::SeqCst);
                }),
                Box::new(|| {
                    flag.store(1, Ordering::SeqCst);
                    if let Some(h) = hooks.lock()[0].as_ref() {
                        h.wake();
                    }
                }),
            ];
            run_task_pool(bodies, &cfg, |i, h| {
                hooks.lock()[i] = Some(h);
            });
            assert_eq!(flag.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn results_written_through_erased_slots() {
        for cfg in backends(3) {
            let mut slots: Vec<Option<u64>> = vec![None; 16];
            struct SlotPtr(*mut Option<u64>);
            // SAFETY: each closure gets a distinct slot; the pool joins
            // before the vec is read.
            unsafe impl Send for SlotPtr {}
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let p = SlotPtr(slot as *mut _);
                    Box::new(move || {
                        let p = p;
                        // SAFETY: distinct slot per task, pool joins first.
                        unsafe { *p.0 = Some(i as u64 * 3) };
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_task_pool(bodies, &cfg, |_, _| {});
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, Some(i as u64 * 3));
            }
        }
    }

    #[test]
    fn task_panic_propagates_lowest_index_first() {
        for cfg in backends(2) {
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("rank 0 boom")),
                Box::new(|| panic!("rank 1 boom")),
            ];
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_task_pool(bodies, &cfg, |_, _| {});
            }))
            .expect_err("pool should propagate the panic");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("boom"), "unexpected payload {msg:?}");
        }
    }

    #[test]
    fn blocked_task_is_unwound_on_teardown() {
        // A task that blocks forever (nobody wakes it) alongside a
        // panicking task: the pool must cancel it, run its destructors,
        // and still propagate the real panic.
        struct DropFlag<'a>(&'a AtomicU64);
        impl Drop for DropFlag<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        for cfg in backends(2) {
            let dropped = AtomicU64::new(0);
            let started = AtomicBool::new(false);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {
                    let _guard = DropFlag(&dropped);
                    started.store(true, Ordering::SeqCst);
                    loop {
                        yield_blocked();
                    }
                }),
                Box::new(|| {
                    // A pool poisoned before the blocker ever started
                    // drops its body unrun, guard and all: take the pool
                    // down only once the guard exists.
                    while !started.load(Ordering::SeqCst) {
                        yield_now();
                    }
                    panic!("take the pool down")
                }),
            ];
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_task_pool(bodies, &cfg, |_, _| {});
            }));
            assert!(err.is_err());
            assert_eq!(dropped.load(Ordering::SeqCst), 1, "guard never dropped");
        }
    }

    /// 4 KiB frames, `depth` deep, every byte written; the deepest one
    /// yields.
    #[inline(never)]
    fn recurse(depth: usize) -> u8 {
        let mut frame = [depth as u8 | 1; 4096];
        std::hint::black_box(&mut frame);
        if depth == 0 {
            yield_now();
        } else {
            recurse(depth - 1);
        }
        frame[4095]
    }

    /// On one worker with 64 KiB stacks, run task 0's `first` body, then
    /// let task 1 run 32 KiB past the bottom of its stack into task 0's.
    fn overrun_after(first: impl FnOnce() + Send) {
        let cfg = ExecConfig {
            mode: ExecMode::Tasks,
            workers: 1,
            stack_bytes: 64 * 1024,
        };
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(first),
            Box::new(|| {
                std::hint::black_box(recurse(24));
            }),
        ];
        run_task_pool(bodies, &cfg, |_, _| {});
    }

    /// An overrun into a finished neighbour takes the job down at the
    /// overrunning fiber's next switch, by rank, instead of running on.
    #[test]
    #[should_panic(expected = "rank 1 overran its 64 KiB fiber stack")]
    fn stack_overrun_is_reported_at_the_next_switch() {
        overrun_after(|| {});
    }

    /// With the neighbour suspended instead, the overrun wrote over its
    /// saved context: teardown must not resume it to unwind (that would
    /// return through frame bytes), and the report is the same panic.
    #[test]
    #[should_panic(expected = "rank 1 overran its 64 KiB fiber stack")]
    fn an_overrun_neighbour_is_not_resumed_at_teardown() {
        overrun_after(|| loop {
            yield_blocked();
        });
    }

    #[test]
    fn resolve_takes_sizes_from_the_spec_and_the_backend_from_the_target() {
        let mut spec = ExecSpec {
            mode: None,
            workers: Some(3),
            stack_kib: Some(128),
        };
        let cfg = spec.resolve();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.stack_bytes, 128 * 1024);
        let default = if fibers_supported() {
            ExecMode::Tasks
        } else {
            ExecMode::Threads
        };
        assert_eq!(cfg.mode, default);
        spec.mode = Some(ExecMode::Tasks);
        assert_eq!(spec.resolve().mode, default);
        spec.mode = Some(ExecMode::Threads);
        assert_eq!(spec.resolve().mode, ExecMode::Threads);
    }
}

/// Exhaustive interleaving checks of the blocked→queued handoff and of
/// the pool's counter-checked idle notify. The OS-thread backend's
/// park/unpark on top of the handoff is checked end to end, from a
/// mailbox poke to the parked owner, in `mailbox::model_tests`.
/// Run via `scripts/check.sh` with `RUSTFLAGS="--cfg cmpi_model"`.
#[cfg(all(test, cmpi_model))]
mod model_tests {
    use super::handoff::TaskState;
    use cmpi_model::model::{thread, Builder};
    use cmpi_model::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering, SpinLock};
    use std::sync::Arc;

    /// A poke racing a yield: however the two interleave, the task is
    /// enqueued exactly once — the wakeup is never lost (no enqueue at
    /// all would strand the rank) and never duplicated (two enqueues
    /// would run one rank on two workers and break the mailbox's
    /// single-consumer contract).
    #[test]
    fn model_yield_vs_poke_enqueues_exactly_once() {
        Builder::new().max_executions(400_000).check(|| {
            let st = Arc::new(TaskState::new_queued());
            st.claim(); // the worker is running the task
            let enq = Arc::new(AtomicUsize::new(0));
            let (st_p, enq_p) = (Arc::clone(&st), Arc::clone(&enq));
            let poker = thread::spawn(move || {
                if st_p.wake(true) {
                    enq_p.fetch_add(1, Ordering::SeqCst);
                }
            });
            // The worker completing the fiber's yield.
            if st.block() {
                enq.fetch_add(1, Ordering::SeqCst);
            }
            poker.join();
            assert_eq!(enq.load(Ordering::SeqCst), 1, "lost or duplicated wakeup");
            // And the single enqueue is claimable exactly once.
            st.claim();
        });
    }

    /// Two pokers racing each other over an already-blocked task: only
    /// one wins the CAS, so the task still enters a queue exactly once.
    #[test]
    fn model_concurrent_pokes_enqueue_once() {
        Builder::new().max_executions(400_000).check(|| {
            let st = Arc::new(TaskState::new_queued());
            st.claim();
            assert!(!st.block(), "no poke yet, worker must not re-enqueue");
            let enq = Arc::new(AtomicUsize::new(0));
            let mut joins = Vec::new();
            for _ in 0..2 {
                let (s, e) = (Arc::clone(&st), Arc::clone(&enq));
                joins.push(thread::spawn(move || {
                    if s.wake(true) {
                        e.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for j in joins {
                j.join();
            }
            assert_eq!(
                enq.load(Ordering::SeqCst),
                1,
                "blocked task must enqueue once"
            );
            st.claim();
        });
    }

    /// A poke that lands while the task is still RUNNING (before the
    /// yield starts) is deferred, not dropped: the subsequent block()
    /// observes the sticky `NOTIFIED` bit and re-enqueues.
    #[test]
    fn model_early_poke_is_deferred_not_lost() {
        Builder::new().max_executions(400_000).check(|| {
            let st = TaskState::new_queued();
            st.claim();
            assert!(
                !st.wake(true),
                "running task must not be enqueued by a poke"
            );
            assert!(st.block(), "deferred poke must re-enqueue at yield");
            st.claim();
        });
    }

    /// A wake that wins the blocked→queued transition still leaves the
    /// poke pending, so the task's next `block` reschedules it at once.
    /// The one-worker run order (`tests/run_order.rs`) depends on this
    /// extra turn.
    #[test]
    fn model_won_wake_keeps_the_flag_sticky() {
        Builder::new().max_executions(400_000).check(|| {
            let st = TaskState::new_queued();
            st.claim();
            assert!(!st.block(), "no poke yet, the task stays blocked");
            assert!(
                st.wake(true),
                "a wake of a blocked task wins the transition"
            );
            st.claim();
            assert!(st.block(), "the won wake's poke must still be pending");
        });
    }

    /// `block`'s one-compare-exchange path racing a wake. The task was
    /// woken while blocked, so it runs with `NOTIFIED` set (the steady
    /// state) and its first `block` requeues it at once; its second finds
    /// the bit clear unless the poker's wake landed in between. Each
    /// episode is scheduled exactly once: the first by the yielder, the
    /// second by whichever of the yielder and the poker takes it, unless
    /// the wake landed before the first `block` and was absorbed by the
    /// pending bit. A wake that follows the first `block` is never lost.
    #[test]
    fn model_one_cas_block_racing_a_wake_schedules_once() {
        Builder::new().max_executions(400_000).check(|| {
            let st = Arc::new(TaskState::new_queued());
            st.claim();
            assert!(!st.block(), "no poke yet, the task stays blocked");
            assert!(
                st.wake(true),
                "a wake of a blocked task wins the transition"
            );
            st.claim();
            let enq = Arc::new(AtomicUsize::new(0));
            let first_done = Arc::new(AtomicBool::new(false));
            let (st_p, enq_p, done_p) =
                (Arc::clone(&st), Arc::clone(&enq), Arc::clone(&first_done));
            let poker = thread::spawn(move || {
                let after_first = done_p.load(Ordering::SeqCst);
                if st_p.wake(true) {
                    enq_p.fetch_add(1, Ordering::SeqCst);
                }
                after_first
            });
            assert!(st.block(), "the pending poke must requeue at once");
            enq.fetch_add(1, Ordering::SeqCst);
            first_done.store(true, Ordering::SeqCst);
            st.claim();
            if st.block() {
                enq.fetch_add(1, Ordering::SeqCst);
            }
            let after_first = poker.join();
            let scheduled = enq.load(Ordering::SeqCst);
            if st.is_blocked() {
                assert_eq!(scheduled, 1, "a blocked task was scheduled");
                assert!(!after_first, "a wake after the first block was lost");
            } else {
                assert_eq!(scheduled, 2, "lost or duplicated wakeup");
                st.claim();
            }
        });
    }

    /// A wake of a task that already carries `NOTIFIED` still writes the
    /// word, and that write is what publishes the poker's earlier stores
    /// to the owner (the mailbox's `poked` flag no longer does). The
    /// poker writes a value in two relaxed stores, `1` then `2`, and
    /// wakes; the owner looks for `2` before each `block`. The checker
    /// shows a thread each stale store at most once, so the two stores
    /// let the owner look stale twice, as a store buffer can for longer.
    /// A wake that only loaded a word already carrying the bit would let
    /// the owner consume the bit, look again, block, and never be woken:
    /// the spin below then runs into the step bound.
    #[test]
    fn model_a_notified_wake_publishes_the_pokers_writes() {
        Builder::new().max_executions(400_000).check(|| {
            let st = Arc::new(TaskState::new_queued());
            st.claim();
            assert!(!st.block(), "no poke yet, the task stays blocked");
            assert!(
                st.wake(true),
                "a wake of a blocked task wins the transition"
            );
            st.claim();
            let val = Arc::new(AtomicUsize::new(0));
            let enq = Arc::new(AtomicBool::new(false));
            let (st_p, val_p, enq_p) = (Arc::clone(&st), Arc::clone(&val), Arc::clone(&enq));
            let poker = thread::spawn(move || {
                val_p.store(1, Ordering::Relaxed);
                val_p.store(2, Ordering::Relaxed);
                if st_p.wake(true) {
                    enq_p.store(true, Ordering::Release);
                }
            });
            while val.load(Ordering::Relaxed) != 2 {
                if !st.block() {
                    // Blocked: only the poker's winning wake requeues it.
                    while !enq.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                }
                st.claim();
            }
            poker.join();
        });
    }

    /// The pool's idle protocol distilled onto the shim primitives: one
    /// run queue behind the pool's spin lock, the `idle` mutex and
    /// condvar, and the parked count that `enqueue` reads without taking
    /// `idle` (after the queue lock's `Release` store, not after a
    /// mutex's swap). `count_first` is the pool's order (raise the
    /// count, then re-check the queue); `false` raises it after the
    /// re-check.
    struct Idle {
        queue: SpinLock<usize>,
        idle: Mutex<()>,
        idle_cv: Condvar,
        parked: AtomicUsize,
    }

    impl Idle {
        fn enqueue(&self) {
            *self.queue.lock() += 1;
            if self.parked.load(Ordering::SeqCst) > 0 {
                let _g = self.idle.lock();
                self.idle_cv.notify_one();
            }
        }

        fn park(&self, count_first: bool) {
            let mut g = self.idle.lock();
            if count_first {
                self.parked.fetch_add(1, Ordering::SeqCst);
            }
            if *self.queue.lock() > 0 {
                if count_first {
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
            if !count_first {
                self.parked.fetch_add(1, Ordering::SeqCst);
            }
            self.idle_cv.wait(&mut g);
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A worker parks while its queue is empty as another thread
    /// enqueues; a notify lost between the two leaves it waiting beside a
    /// non-empty queue, which the model reports as a deadlock.
    fn enqueue_vs_park(count_first: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let pool = Arc::new(Idle {
                queue: SpinLock::new(0),
                idle: Mutex::new(()),
                idle_cv: Condvar::new(),
                parked: AtomicUsize::new(0),
            });
            let p = Arc::clone(&pool);
            let enqueuer = thread::spawn(move || p.enqueue());
            while *pool.queue.lock() == 0 {
                pool.park(count_first);
            }
            enqueuer.join();
        }
    }

    #[test]
    fn model_enqueue_racing_a_park_is_never_slept_through() {
        Builder::new()
            .max_executions(400_000)
            .check(enqueue_vs_park(true));
    }

    /// The checker catches the order the pool must not use: counted after
    /// the re-check, an enqueue can read zero, skip the notify, and leave
    /// the worker parked beside its task.
    #[test]
    fn model_count_raised_after_the_recheck_loses_a_wakeup() {
        let report = Builder::new()
            .max_executions(400_000)
            .check_expect_failure(enqueue_vs_park(false));
        assert!(report.contains("deadlock"), "report:\n{report}");
    }
}
