//! Public face of the model checker (only under `cfg(cmpi_model)`).
//!
//! ```ignore
//! cmpi_model::model::Builder::new().check(|| {
//!     let cell = Arc::new(RankCell::new());
//!     let p = {
//!         let cell = Arc::clone(&cell);
//!         cmpi_model::model::thread::spawn(move || cell.push(pkt()))
//!     };
//!     // ... consumer logic on this thread ...
//!     p.join();
//! });
//! ```
//!
//! `check` runs the closure under every interleaving the DFS explorer
//! generates (bounded preemption, weak-memory load choices) and panics
//! with a schedule trace plus a `replay: …` line on the first failure —
//! an assertion, a detected data race, or a lost wakeup (all live threads
//! blocked).

use std::sync::Arc;

use crate::engine;

/// Exploration statistics returned by a passing [`Builder::check`].
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Number of distinct interleavings executed.
    pub executions: usize,
}

/// Configures one exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Builder {
    max_executions: usize,
    preemption_bound: usize,
    max_steps: usize,
    max_threads: usize,
}

impl Default for Builder {
    fn default() -> Self {
        let o = engine::Options::default();
        Builder {
            max_executions: o.max_executions,
            preemption_bound: o.preemption_bound,
            max_steps: o.max_steps,
            max_threads: o.max_threads,
        }
    }
}

impl Builder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap on explored interleavings; exceeding it fails the check (size
    /// the test so exploration completes).
    pub fn max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// How many involuntary thread switches one interleaving may contain.
    /// Two finds every bug a pair of racing regions can exhibit; three
    /// covers triple-overlap scenarios at a steep execution-count cost.
    pub fn preemption_bound(mut self, n: usize) -> Self {
        self.preemption_bound = n;
        self
    }

    /// Per-execution step cap (livelock brake).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Maximum number of model threads (including the root closure).
    pub fn max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    fn options(&self) -> engine::Options {
        engine::Options {
            max_executions: self.max_executions,
            preemption_bound: self.preemption_bound,
            max_steps: self.max_steps,
            max_threads: self.max_threads,
        }
    }

    /// Explore every interleaving of `f`; panic with a replayable trace
    /// on the first failure.
    pub fn check<F>(&self, f: F) -> Stats
    where
        F: Fn() + Send + Sync + 'static,
    {
        match engine::explore(&self.options(), Arc::new(f)) {
            engine::ExploreResult::Passed { executions } => Stats { executions },
            engine::ExploreResult::Failed { report, .. } => panic!("{report}"),
            engine::ExploreResult::BudgetExhausted { executions } => panic!(
                "cmpi-model: exploration budget exhausted after {executions} executions \
                 without covering the schedule space; shrink the test or raise \
                 max_executions"
            ),
        }
    }

    /// Like [`Builder::check`] but *expects* a bug: returns the failure
    /// report, panicking only if exploration finds no failure. Used to
    /// pin deliberately-broken variants.
    pub fn check_expect_failure<F>(&self, f: F) -> String
    where
        F: Fn() + Send + Sync + 'static,
    {
        match engine::explore(&self.options(), Arc::new(f)) {
            engine::ExploreResult::Failed { report, .. } => report,
            engine::ExploreResult::Passed { executions } => {
                panic!("cmpi-model: expected a failure but all {executions} interleavings passed")
            }
            engine::ExploreResult::BudgetExhausted { executions } => panic!(
                "cmpi-model: exploration budget exhausted after {executions} executions \
                 without finding the expected failure"
            ),
        }
    }

    /// Re-run exactly one schedule (the comma-separated choice list from
    /// a report's `replay:` line). Returns the failure report if that
    /// schedule still fails, `None` if it now passes.
    pub fn replay<F>(&self, schedule: &str, f: F) -> Option<String>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let parsed: Vec<usize> = schedule
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad replay token {s:?}"))
            })
            .collect();
        engine::replay_once(&self.options(), &parsed, Arc::new(f))
    }
}

/// [`Builder::check`] with default bounds.
pub fn check<F>(f: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f)
}

/// Extract the `replay: …` schedule string from a failure report.
pub fn extract_replay(report: &str) -> Option<String> {
    report
        .lines()
        .find_map(|l| l.strip_prefix("replay: "))
        .map(|s| s.trim().to_string())
}

/// Model-thread spawning; mirrors `std::thread` but participates in the
/// scheduler. Only usable inside [`check`].
pub mod thread {
    use std::sync::Arc;

    use crate::engine;

    /// Handle to a spawned model thread.
    pub struct JoinHandle<T> {
        target: usize,
        slot: Arc<parking_lot::Mutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Block (at model level) until the thread finishes, then take
        /// its result.
        pub fn join(self) -> T {
            let (exec, tid) = engine::current().expect("join outside model execution");
            exec.join_thread(tid, self.target);
            self.slot
                .lock()
                .take()
                .expect("model thread result already taken")
        }
    }

    /// Spawn a model thread. Panics outside [`super::check`].
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (exec, tid) = engine::current().expect("model::thread::spawn outside model::check");
        let slot = Arc::new(parking_lot::Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let target = exec.spawn_thread(
            tid,
            Box::new(move || {
                let r = f();
                *slot2.lock() = Some(r);
            }),
        );
        JoinHandle { target, slot }
    }

    /// Scheduler-visible yield: prefers handing the baton to another
    /// runnable thread.
    pub fn yield_now() {
        if let Some((exec, tid)) = engine::current() {
            exec.yield_now(tid);
        } else {
            std::thread::yield_now();
        }
    }
}
