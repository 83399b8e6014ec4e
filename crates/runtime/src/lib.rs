//! # acme-runtime
//!
//! A scoped, work-stealing thread pool for the ACME pipeline's
//! embarrassingly parallel stages: Phase 1 candidate distillation, the
//! per-cluster customization loops, and the pairwise Wasserstein
//! similarity matrix.
//!
//! The design goals, in order:
//!
//! 1. **Determinism.** [`Pool::par_map`] returns results in input order,
//!    and the pipeline derives every task's RNG stream from the root
//!    seed by *stable task index* (see [`stream_seed`]) before any task
//!    runs. Output is therefore identical at any thread count —
//!    `threads = 1` reproduces the serial pipeline bit-for-bit.
//! 2. **Scoped borrows.** Tasks may borrow from the caller's stack
//!    ([`Pool::scope`] is built on [`std::thread::scope`]), so the large
//!    teacher model, datasets, and candidate pools are shared by
//!    reference instead of cloned per task.
//! 3. **No external dependencies.** The pool uses std threads,
//!    mutex-backed deques, and atomics only (plus the std-only
//!    `acme-obs` path crate for optional task spans), so this crate
//!    builds and tests even in offline environments where the
//!    crates.io registry is unreachable.
//!
//! Work distribution is round-robin across per-worker deques at spawn
//! time; an idle worker pops its own deque LIFO and steals FIFO from its
//! siblings, so imbalanced task costs (e.g. one slow cluster) do not
//! serialize the batch.
//!
//! Panic handling: a panicking task never aborts the process. All tasks
//! of the scope still run to completion (or unwind), and the panic of
//! the **earliest-spawned** panicking task is re-raised on the caller's
//! thread once the scope ends — again independent of thread count.
//!
//! ```
//! use acme_runtime::Pool;
//!
//! let pool = Pool::new(4);
//! let doubled = pool.par_map(vec![1u64, 2, 3, 4], |i, x| x * 2 + i as u64);
//! assert_eq!(doubled, vec![2, 5, 8, 11]);
//! ```
//!
//! Nested use is supported: a task may create its own [`Pool::scope`] /
//! [`Pool::par_map`] (each scope owns its worker threads), which is how
//! the per-cluster refinement parallelizes its inner similarity matrix.
//! Spawning onto a *parent* scope from inside a task is not supported.
//!
//! Nesting shares **one thread budget** instead of multiplying thread
//! counts. A top-level scope has the budget `max(pool.threads,
//! global_threads())` and behaves as if nothing else existed. Each task
//! it runs on `w > 1` workers carries a *share* of `max(1, budget / w)`
//! (`w` is `threads` for [`Pool::scope`], `min(threads, items)` for
//! [`Pool::par_map`]), and every scope opened from inside that task —
//! on an explicit [`Pool`] or on [`global_pool`] — uses at most that
//! many workers and divides the share again among its own tasks. A
//! share of 1 takes the inline path: no threads, no queues. So
//! `Pool::new(2).par_map` over tasks that call `Pool::new(2).par_map`
//! over kernels on a 2-thread [`global_pool`] keeps 2 threads runnable,
//! not 8, while `Pool::new(8)` over 2 items still lets each item fan
//! out 4 wide.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Process-wide worker count used by components that cannot be handed a
/// [`Pool`] explicitly (e.g. the `acme-tensor` GEMM kernels called from
/// deep inside layer forwards). `0` means "unset", in which case
/// [`global_pool`] falls back to the machine's available parallelism.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count returned by [`global_pool`]. The pipeline calls
/// this with `AcmeConfig::threads` at the start of a run so `--threads`
/// governs kernel-level parallelism too; benches and tests may call it to
/// pin kernels serial. Values below 1 are clamped to 1.
///
/// Because every parallel consumer in this workspace is bit-deterministic
/// with respect to thread count, changing this never changes results —
/// only wall-clock time.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads.max(1), Ordering::SeqCst);
}

/// The configured global worker count (`0` = unset; see
/// [`set_global_threads`]).
pub fn global_threads() -> usize {
    GLOBAL_THREADS.load(Ordering::SeqCst)
}

thread_local! {
    /// How many threads the task running on this thread may keep busy,
    /// itself included; 0 on a thread that is not inside any task of a
    /// multi-worker scope (top level).
    static SHARE: Cell<usize> = const { Cell::new(0) };
}

/// A pool sized by [`set_global_threads`], or by available parallelism
/// when no explicit count has been set — capped, inside a task, at that
/// task's share of the thread budget (see the crate docs), so kernels
/// that size their split by [`Pool::threads`] stay serial where a scope
/// would run inline anyway. Construction is free ([`Pool`] only records
/// a thread count); workers are spawned per scope.
pub fn global_pool() -> Pool {
    let pool = match GLOBAL_THREADS.load(Ordering::SeqCst) {
        0 => Pool::with_available_parallelism(),
        t => Pool::new(t),
    };
    match SHARE.get() {
        0 => pool,
        share => Pool::new(pool.threads.min(share)),
    }
}

/// A boxed task queued on a [`Scope`].
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Acquires `m`, ignoring poisoning: jobs run outside every internal
/// lock, so a panicking task cannot leave shared state inconsistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Derives a per-task stream seed from a root seed and a stable task
/// index (SplitMix64 finalizer). Tasks seeded this way produce the same
/// stream no matter which worker executes them or in what order, which
/// is the foundation of the pipeline's "same seed ⇒ same results at any
/// thread count" contract.
pub fn stream_seed(root_seed: u64, task_index: u64) -> u64 {
    let mut z = root_seed ^ task_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A work-stealing thread pool configuration.
///
/// The pool is *scoped*: worker threads live only for the duration of
/// one [`Pool::scope`] (or [`Pool::par_map`]) call, which lets tasks
/// borrow from the caller's stack without `'static` bounds or `Arc`
/// cloning. Construction is free — the struct only records the thread
/// count — so it can be embedded in configs and cloned liberally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers. Values below 1 are clamped to 1; a
    /// one-thread pool runs every task inline on the calling thread, in
    /// spawn order, which reproduces the plain serial loop exactly.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism (1 when that
    /// cannot be determined). The query reads the affinity mask and the
    /// cgroup quota files (≈17 µs), so it is made once per process: an
    /// unpinned [`global_pool`] comes through here on every kernel call.
    pub fn with_available_parallelism() -> Self {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        Pool::new(*AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }))
    }

    /// The single-threaded pool: tasks run inline at their spawn site.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs tasks inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Worker count, and the share each task gets, for a scope opened
    /// here that wants `fan_out` workers: all of them at top level, at
    /// most the enclosing task's share inside one.
    fn plan(&self, fan_out: usize) -> (usize, usize) {
        let (workers, budget) = match SHARE.get() {
            0 => (fan_out, self.threads.max(global_threads())),
            share => (fan_out.min(share), share),
        };
        (workers, (budget / workers.max(1)).max(1))
    }

    /// Runs `f` with a [`Scope`] onto which tasks can be spawned, and
    /// blocks until `f` has returned **and** every spawned task has
    /// finished. The calling thread participates as worker 0 once `f`
    /// returns. Called from inside a task of another scope, it uses at
    /// most that task's share of the thread budget (see the crate docs).
    ///
    /// If one or more tasks panic, all remaining tasks still run, and
    /// the earliest-spawned panic is resumed on the calling thread after
    /// the scope completes (with one thread, a panicking task unwinds
    /// directly from its spawn site — the same task's panic, earlier).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let (workers, task_share) = self.plan(self.threads);
        self.scope_on(workers, task_share, f)
    }

    /// [`Pool::scope`] on exactly `workers` threads (the caller's
    /// included), each task carrying `task_share`.
    fn scope_on<'env, F, R>(&self, workers: usize, task_share: usize, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        if workers <= 1 {
            return f(&Scope {
                shared: None,
                inline_seq: Cell::new(0),
            });
        }
        let shared = Shared::new(workers, task_share);
        let result = std::thread::scope(|ts| {
            // Declared first so it drops last: workers are told to exit
            // even when `f` or the drain unwinds.
            let _close = CloseGuard(&shared);
            for w in 1..workers {
                let sh = &shared;
                ts.spawn(move || sh.worker_loop(w));
            }
            let scope = Scope {
                shared: Some(&shared),
                inline_seq: Cell::new(0),
            };
            let r = f(&scope);
            shared.drain_as(0);
            r
        });
        if let Some((_seq, payload)) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        result
    }

    /// Maps `f` over `items` in parallel, returning the results **in
    /// input order**. `f` receives the item's index alongside the item,
    /// so callers can derive per-task state (RNG streams, labels) from
    /// the stable index rather than from execution order.
    ///
    /// With one thread this is exactly `items.into_iter().enumerate()
    /// .map(..).collect()` — no queues, no threads.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (workers, task_share) = self.plan(self.threads.min(items.len()));
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let slots_ref = &slots;
        let f_ref = &f;
        self.scope_on(workers, task_share, |s| {
            for (i, item) in items.into_iter().enumerate() {
                s.spawn(move || {
                    let r = f_ref(i, item);
                    *lock(&slots_ref[i]) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("scope waits for every task before returning")
            })
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_available_parallelism()
    }
}

/// Handle for spawning tasks inside a [`Pool::scope`] call. Tasks may
/// borrow anything that outlives the scope (`'env`).
pub struct Scope<'scope, 'env> {
    /// `None` in single-threaded pools: tasks run inline at spawn.
    shared: Option<&'scope Shared<'env>>,
    /// Task sequence of the inline path, mirroring `Shared::spawned` so
    /// `runtime.task` spans carry the same `seq` at every thread count.
    inline_seq: Cell<usize>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Queues `f` for execution (or runs it immediately on a one-thread
    /// pool). Tasks are distributed round-robin over the worker deques;
    /// idle workers steal from their siblings.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        match self.shared {
            None => {
                let seq = self.inline_seq.get();
                self.inline_seq.set(seq + 1);
                let _task = acme_obs::span!(acme_obs::Detail::Task, "runtime.task", "seq" => seq);
                f()
            }
            Some(sh) => sh.push(Box::new(f)),
        }
    }
}

/// State shared between the scope owner and its workers.
struct Shared<'env> {
    /// One deque per worker (index 0 = the scope-owning thread).
    queues: Vec<Mutex<VecDeque<(usize, Job<'env>)>>>,
    /// The share of the thread budget each task of this scope runs with.
    task_share: usize,
    /// Tasks queued or running.
    pending: AtomicUsize,
    /// Tasks spawned so far — the stable task sequence.
    spawned: AtomicUsize,
    /// Set when the scope is over and workers should exit.
    closed: AtomicBool,
    /// Wakeup channel for idle workers / the draining owner: an epoch
    /// bumped by every [`Shared::wake`].
    signal: Mutex<u64>,
    signal_cv: Condvar,
    /// Earliest-spawned panic payload, if any task panicked.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
}

impl<'env> Shared<'env> {
    fn new(threads: usize, task_share: usize) -> Self {
        Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            task_share,
            pending: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            signal: Mutex::new(0),
            signal_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn push(&self, job: Job<'env>) {
        let seq = self.spawned.fetch_add(1, Ordering::Relaxed);
        self.pending.fetch_add(1, Ordering::SeqCst);
        lock(&self.queues[seq % self.queues.len()]).push_back((seq, job));
        self.wake();
    }

    /// Owner pops its own deque newest-first; thieves take oldest-first.
    fn find_job(&self, w: usize) -> Option<(usize, Job<'env>)> {
        if let Some(job) = lock(&self.queues[w]).pop_back() {
            return Some(job);
        }
        let n = self.queues.len();
        for k in 1..n {
            if let Some(job) = lock(&self.queues[(w + k) % n]).pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn run_job(&self, seq: usize, job: Job<'env>) {
        let task = acme_obs::span!(acme_obs::Detail::Task, "runtime.task", "seq" => seq);
        // The owner drains on a thread that has a share of its own (or
        // none); `catch_unwind` guarantees it gets it back.
        let outer_share = SHARE.replace(self.task_share);
        let result = catch_unwind(AssertUnwindSafe(job));
        SHARE.set(outer_share);
        drop(task);
        if let Err(payload) = result {
            let mut slot = lock(&self.panic);
            match &*slot {
                Some((first, _)) if *first <= seq => {}
                _ => *slot = Some((seq, payload)),
            }
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake();
        }
    }

    fn worker_loop(&self, w: usize) {
        loop {
            let seen = *lock(&self.signal);
            while let Some((seq, job)) = self.find_job(w) {
                self.run_job(seq, job);
            }
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            self.sleep_unless_woken_since(seen);
        }
    }

    /// Runs tasks as worker `w` until none are queued *or running*.
    fn drain_as(&self, w: usize) {
        loop {
            let seen = *lock(&self.signal);
            while let Some((seq, job)) = self.find_job(w) {
                self.run_job(seq, job);
            }
            if self.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            self.sleep_unless_woken_since(seen);
        }
    }

    /// Parks until the next [`Shared::wake`], unless one already came
    /// after `seen` was read. The caller reads `seen` *before* the scan
    /// that finds the deques empty and before it checks `closed` or
    /// `pending`; every change to those is followed by a `wake`, so a
    /// change the scan missed has moved the epoch and the wait is
    /// skipped. Without the check a thread pre-empted between scan and
    /// wait sleeps through the push it raced with — a full timeout, ten
    /// times the work of a 100 µs kernel scope. (A `seen` read before
    /// jobs ran is merely older: it can skip a wait, never lose a wake.)
    fn sleep_unless_woken_since(&self, seen: u64) {
        let guard = lock(&self.signal);
        if *guard != seen {
            return;
        }
        // Backstop only: no wake-up can be lost above, so this bounds the
        // damage of a future bug at 1 ms per wait instead of a hang.
        let _ = self
            .signal_cv
            .wait_timeout(guard, Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner());
    }

    fn wake(&self) {
        let mut g = lock(&self.signal);
        *g = g.wrapping_add(1);
        self.signal_cv.notify_all();
    }
}

/// Tells workers to exit once the queues empty, even on unwind.
struct CloseGuard<'a, 'env>(&'a Shared<'env>);

impl Drop for CloseGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::SeqCst);
        self.0.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let pool = Pool::new(4);
        let out = pool.par_map((0u64..100).collect(), |i, x| (i as u64) * 1000 + x * x);
        let expect: Vec<u64> = (0u64..100).map(|x| x * 1000 + x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let f = |i: usize, x: u64| stream_seed(x, i as u64);
        let serial: Vec<u64> = Pool::new(1).par_map(items.clone(), f);
        for threads in [2, 3, 4, 8] {
            let par = Pool::new(threads).par_map(items.clone(), f);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(vec![9], |i, x| x + i as u32), vec![9]);
    }

    #[test]
    fn scope_runs_every_task() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..500 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn scope_returns_closure_value() {
        assert_eq!(Pool::new(2).scope(|_| 42), 42);
        assert_eq!(Pool::new(1).scope(|_| "x"), "x");
    }

    #[test]
    fn tasks_borrow_from_the_stack() {
        let data: Vec<u64> = (0..32).collect();
        let pool = Pool::new(4);
        let sums = pool.par_map((0..4usize).collect(), |_, chunk| {
            data[chunk * 8..(chunk + 1) * 8].iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn earliest_panic_wins_regardless_of_threads() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map((0..16usize).collect(), |i, _| {
                    if i >= 5 {
                        panic!("boom {i}");
                    }
                    i
                })
            }))
            .expect_err("must propagate");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "boom 5", "threads = {threads}");
        }
    }

    #[test]
    fn remaining_tasks_run_even_when_one_panics() {
        let pool = Pool::new(4);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..64 {
                    let done = &done;
                    s.spawn(move || {
                        if i == 0 {
                            panic!("first");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 63);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let outer = Pool::new(3);
        let inner = Pool::new(2);
        let out = outer.par_map((0u64..6).collect(), |_, x| {
            inner.par_map((0u64..4).collect(), |_, y| x * 10 + y)
        });
        assert_eq!(out[2], vec![20, 21, 22, 23]);
        assert_eq!(out.len(), 6);
    }

    /// `set_global_threads` is process-global; tests that depend on it
    /// (the budget is `max(pool.threads, global_threads())`) serialize.
    static GLOBAL: Mutex<()> = Mutex::new(());

    /// Counts the tasks running at once and remembers the most seen.
    #[derive(Default)]
    struct HighWater {
        running: AtomicUsize,
        max: AtomicUsize,
    }

    impl HighWater {
        /// A leaf task: long enough that sibling leaves overlap whenever
        /// the pool lets them. The bound below is a safety property, so
        /// timing can hide a violation but never fake one.
        fn leaf(&self) {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(300));
            self.running.fetch_sub(1, Ordering::SeqCst);
        }

        fn max(&self) -> usize {
            self.max.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn nested_scopes_stay_within_one_thread_budget() {
        let _g = lock(&GLOBAL);
        for outer in [2usize, 3, 4] {
            for inner in [2usize, 3, 4] {
                set_global_threads(inner);
                let budget = outer.max(inner);

                let hw = HighWater::default();
                Pool::new(outer).par_map((0..outer).collect(), |_, _| {
                    Pool::new(inner).par_map((0..2 * inner).collect(), |_, _| hw.leaf());
                });
                assert!(
                    hw.max() <= budget,
                    "explicit pools: {} leaves at once, outer {outer} x inner {inner}",
                    hw.max()
                );

                let hw = HighWater::default();
                Pool::new(outer).par_map((0..outer).collect(), |_, _| {
                    global_pool().scope(|s| {
                        for _ in 0..2 * inner {
                            s.spawn(|| hw.leaf());
                        }
                    });
                });
                assert!(
                    hw.max() <= budget,
                    "global pool: {} leaves at once, outer {outer} x global {inner}",
                    hw.max()
                );
            }
        }
        set_global_threads(1);
    }

    #[test]
    fn nesting_changes_neither_results_nor_which_panic_wins() {
        let f = |i: usize, x: u64| stream_seed(x, i as u64);
        let expect: Vec<Vec<u64>> = (0..6u64)
            .map(|x| Pool::serial().par_map((x..x + 9).collect(), f))
            .collect();
        for threads in [1usize, 2, 4] {
            let (outer, inner) = (Pool::new(threads), Pool::new(threads));
            let got = outer.par_map((0..6u64).collect(), |_, x| {
                inner.par_map((x..x + 9).collect(), f)
            });
            assert_eq!(got, expect, "threads = {threads}");

            let caught = catch_unwind(AssertUnwindSafe(|| {
                outer.par_map((0..6usize).collect(), |i, _| {
                    inner.par_map((0..8usize).collect(), |j, _| {
                        if i >= 2 && j >= 3 {
                            panic!("boom {i}.{j}");
                        }
                    })
                })
            }))
            .expect_err("must propagate");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "boom 2.3", "threads = {threads}");
        }
    }

    #[test]
    fn top_level_task_starts_while_the_scope_body_runs() {
        // `serve()` spawns its workers and then runs the load generator
        // in the scope body; the workers must not wait for it to return.
        let (tx, rx) = std::sync::mpsc::channel();
        let started = Pool::new(2).scope(|s| {
            s.spawn(move || tx.send(()).expect("the body is still listening"));
            rx.recv_timeout(Duration::from_secs(10)).is_ok()
        });
        assert!(started, "the task ran only after the body returned");
    }

    #[test]
    fn share_is_the_budget_divided_by_the_fan_out() {
        let _g = lock(&GLOBAL);
        set_global_threads(1);
        assert_eq!(SHARE.get(), 0, "top level");
        let shares = Pool::new(8).par_map(vec![(); 2], |_, _| {
            let hw = HighWater::default();
            let nested = Pool::new(8).par_map(vec![(); 8], |_, _| {
                hw.leaf();
                SHARE.get()
            });
            (SHARE.get(), nested, hw.max())
        });
        for (share, nested, max) in shares {
            assert_eq!(share, 4, "8 threads over 2 items");
            assert_eq!(nested, vec![1; 8], "4 workers over a share of 4");
            assert!(max <= 4, "{max} nested tasks at once on a share of 4");
        }
        // `scope` fans out over its workers, however few tasks it gets.
        Pool::new(4).scope(|s| s.spawn(|| assert_eq!(SHARE.get(), 1)));
        // Inline tasks are not tasks of a multi-worker scope.
        Pool::new(1).scope(|s| s.spawn(|| assert_eq!(SHARE.get(), 0)));
        set_global_threads(6);
        Pool::new(2).scope(|s| {
            s.spawn(|| {
                assert_eq!(SHARE.get(), 3, "budget max(2, 6) over 2 workers");
                assert_eq!(global_pool().threads(), 3);
                assert_eq!(Pool::new(8).plan(8), (3, 1));
            })
        });
        assert_eq!(global_pool().threads(), 6, "uncapped at top level");
        set_global_threads(1);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_serial());
        assert_eq!(pool.par_map(vec![1, 2], |_, x| x), vec![1, 2]);
    }

    #[test]
    fn default_pool_uses_available_parallelism() {
        assert!(Pool::default().threads() >= 1);
    }

    #[test]
    fn stream_seed_is_stable_and_index_sensitive() {
        assert_eq!(stream_seed(7, 3), stream_seed(7, 3));
        assert_ne!(stream_seed(7, 3), stream_seed(7, 4));
        assert_ne!(stream_seed(7, 3), stream_seed(8, 3));
        // Consecutive indices must not collide for small grids.
        let seeds: std::collections::HashSet<u64> = (0..1024).map(|i| stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1024);
    }

    #[test]
    fn global_pool_reflects_set_threads() {
        let _g = lock(&GLOBAL);
        // Unset (0 on a fresh process) falls back to available
        // parallelism; after setting, the pool mirrors the setting.
        assert!(global_pool().threads() >= 1);
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(global_pool().threads(), 3);
        set_global_threads(0);
        assert_eq!(global_threads(), 1, "zero clamps to serial");
        assert_eq!(global_pool().threads(), 1);
    }

    #[test]
    fn work_is_actually_distributed() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let pool = Pool::new(4);
        let ids = StdMutex::new(HashSet::new());
        pool.scope(|s| {
            for _ in 0..256 {
                let ids = &ids;
                s.spawn(move || {
                    std::thread::sleep(Duration::from_micros(200));
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        // With 256 sleeping tasks and 4 workers, more than one thread
        // must have participated.
        assert!(ids.lock().unwrap().len() > 1);
    }
}
