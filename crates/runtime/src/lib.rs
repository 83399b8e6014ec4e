//! # acme-runtime
//!
//! One fork–join primitive, [`Pool::par_map`], for the ACME pipeline's
//! fan-outs: Phase 1 candidate distillation, the per-cluster
//! customization loops, the pairwise Wasserstein similarity matrix, the
//! row chunks of one GEMM, the roles of a serving session. Each of them
//! walks a list that is complete before its first task starts, so the
//! whole schedule is "each of `w` threads takes the next index".
//!
//! The design goals, in order:
//!
//! 1. **Determinism.** [`Pool::par_map`] returns results in input order,
//!    and the pipeline derives every task's RNG stream from the root
//!    seed by *stable task index* (`SmallRng64::fork`) before any task
//!    runs. Output is therefore identical at any thread count —
//!    `threads = 1` reproduces the serial pipeline bit-for-bit.
//! 2. **Scoped borrows.** Tasks may borrow from the caller's stack (the
//!    workers are [`std::thread::scope`] threads that live for one
//!    call), so the large teacher model, datasets, and candidate pools
//!    are shared by reference instead of cloned per task.
//! 3. **No external dependencies.** The pool uses std threads, mutexes
//!    and one atomic counter only (plus the std-only `acme-obs` path
//!    crate for optional task spans), so this crate builds and tests
//!    even in offline environments where the crates.io registry is
//!    unreachable.
//!
//! Work distribution: the threads of a call share one counter, and a
//! thread that is free claims the next index from it. Tasks therefore
//! **start in index order** — the order of the serial loop — at every
//! thread count, and imbalanced task costs (e.g. one slow cluster) do
//! not serialize the batch. A caller whose list is sorted by cost
//! decides for itself which end goes first.
//!
//! Panic handling: a panicking task never aborts the process. All tasks
//! of the call still run to completion (or unwind), and the panic of
//! the **lowest-index** panicking task is re-raised on the caller's
//! thread once they have — again independent of thread count.
//!
//! ```
//! use acme_runtime::Pool;
//!
//! let pool = Pool::new(4);
//! let doubled = pool.par_map(vec![1u64, 2, 3, 4], |i, x| x * 2 + i as u64);
//! assert_eq!(doubled, vec![2, 5, 8, 11]);
//! ```
//!
//! Nested use is supported: a task may call [`Pool::par_map`] itself
//! (each call owns its worker threads), which is how the per-cluster
//! refinement parallelizes its inner similarity matrix.
//!
//! Nesting shares **one thread budget** instead of multiplying thread
//! counts. A top-level call has the budget `max(pool.threads,
//! global_threads())` and behaves as if nothing else existed. Each task
//! it runs on `w = min(threads, items) > 1` workers carries a *share* of
//! `max(1, budget / w)`, and every call made from inside that task — on
//! an explicit [`Pool`] or on [`global_pool`] — uses at most that many
//! workers and divides the share again among its own tasks. A share of
//! 1 takes the inline path: no threads, a plain loop. So
//! `Pool::new(2).par_map` over tasks that call `Pool::new(2).par_map`
//! over kernels on a 2-thread [`global_pool`] keeps 2 threads runnable,
//! not 8, while `Pool::new(8)` over 2 items still lets each item fan
//! out 4 wide.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

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
    /// multi-worker [`Pool::par_map`] (top level).
    static SHARE: Cell<usize> = const { Cell::new(0) };
}

/// A pool sized by [`set_global_threads`], or by available parallelism
/// when no explicit count has been set — capped, inside a task, at that
/// task's share of the thread budget (see the crate docs), so kernels
/// that size their split by [`Pool::threads`] stay serial where the map
/// would run inline anyway. Construction is free ([`Pool`] only records
/// a thread count); workers are spawned per call.
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

/// Acquires `m`, ignoring poisoning: tasks run outside every internal
/// lock, so a panicking task cannot leave a slot half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-pool configuration.
///
/// The pool is *scoped*: worker threads live only for the duration of
/// one [`Pool::par_map`] call, which lets tasks borrow from the caller's
/// stack without `'static` bounds or `Arc` cloning. Construction is
/// free — the struct only records the thread count — so it can be
/// embedded in configs and cloned liberally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers. Values below 1 are clamped to 1; a
    /// one-thread pool runs every task inline on the calling thread, in
    /// index order, which reproduces the plain serial loop exactly.
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

    /// The single-threaded pool: tasks run inline on the calling thread.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker count, and the share each task gets, for a map opened
    /// here that wants `fan_out` workers: all of them at top level, at
    /// most the enclosing task's share inside one.
    fn plan(&self, fan_out: usize) -> (usize, usize) {
        let (workers, budget) = match SHARE.get() {
            0 => (fan_out, self.threads.max(global_threads())),
            share => (fan_out.min(share), share),
        };
        (workers, (budget / workers.max(1)).max(1))
    }

    /// Maps `f` over `items` in parallel, returning the results **in
    /// input order**. `f` receives the item's index alongside the item,
    /// so callers can derive per-task state (RNG streams, labels) from
    /// the stable index rather than from execution order.
    ///
    /// Runs on `min(threads, items)` threads, the caller's included — at
    /// most the enclosing task's share of the thread budget when called
    /// from inside a task (see the crate docs). Tasks are **claimed in
    /// index order**, each by the first thread free to take it: index 0
    /// is the first to start at every thread count, and a thread runs
    /// its own tasks in ascending order. Blocks until every task has
    /// finished; if any panicked, the rest still run and the panic of
    /// the lowest index is resumed on the calling thread.
    ///
    /// With one thread this is exactly `items.into_iter().enumerate()
    /// .map(..).collect()` — no threads, and a panic unwinds from the
    /// task directly (the same task's panic, earlier).
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (workers, task_share) = self.plan(self.threads.min(items.len()));
        let task = |i: usize, item: T| {
            let _span = acme_obs::span!(acme_obs::Detail::Task, "runtime.task", "seq" => i);
            f(i, item)
        };
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }
        // One slot per index: the item until a thread claims it, and what
        // its task returned or panicked with afterwards.
        type Outcome<R> = Mutex<Option<std::thread::Result<R>>>;
        let slots: Vec<(Mutex<Option<T>>, Outcome<R>)> = items
            .into_iter()
            .map(|item| (Mutex::new(Some(item)), Mutex::new(None)))
            .collect();
        fork_join(slots.len(), workers, task_share, &|i| {
            let (input, outcome) = &slots[i];
            let item = lock(input).take().expect("an index is claimed once");
            let result = catch_unwind(AssertUnwindSafe(|| task(i, item)));
            *lock(outcome) = Some(result);
        });
        slots
            .into_iter()
            .map(|(_, outcome)| {
                let outcome = outcome.into_inner().unwrap_or_else(|e| e.into_inner());
                match outcome.expect("the join waits for every index") {
                    Ok(r) => r,
                    Err(payload) => resume_unwind(payload),
                }
            })
            .collect()
    }
}

/// Runs `run(0) .. run(n - 1)` on `workers` scoped threads, the caller's
/// included: each takes the next index from one shared counter until
/// none is left. `run` must not unwind. Not generic: inlined into each
/// of [`Pool::par_map`]'s 27 instantiations, the spawn and join were
/// 144 KB of text and cost `recustomize`, all small kernels, 5 %.
fn fork_join(n: usize, workers: usize, task_share: usize, run: &(dyn Fn(usize) + Sync)) {
    // Relaxed: the counter hands out indices and publishes nothing; what
    // the tasks read and write is ordered by the threads' spawn and join.
    let next = AtomicUsize::new(0);
    let work = || {
        // The caller works on a thread that has a share of its own (or
        // none) and gets it back, because `run` returns.
        let outer_share = SHARE.replace(task_share);
        std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&i| i < n)
            .for_each(run);
        SHARE.set(outer_share);
    };
    #[expect(clippy::disallowed_methods, reason = "par_map: the pool's one fork")]
    std::thread::scope(|ts| {
        for _ in 1..workers {
            ts.spawn(work);
        }
        work();
    });
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A task result that depends on both the item and its index.
    fn mix(x: u64, i: usize) -> u64 {
        (x ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

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
        let f = |i: usize, x: u64| mix(x, i);
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
    fn par_map_runs_every_task() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        pool.par_map(vec![(); 500], |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
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
            pool.par_map((0..64).collect(), |_, i| {
                if i == 0 {
                    panic!("first");
                }
                done.fetch_add(1, Ordering::SeqCst);
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
                    global_pool().par_map((0..2 * inner).collect(), |_, _| hw.leaf());
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
        let f = |i: usize, x: u64| mix(x, i);
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
    fn two_tasks_on_two_threads_run_at_the_same_time() {
        // `serve()` maps over its load generator and its worker loops;
        // neither side finishes unless the other is running. Each task
        // here signals its sibling and then waits for the sibling's.
        let ((tx_a, rx_a), (tx_b, rx_b)) = (mpsc::channel(), mpsc::channel());
        let met = Pool::new(2).par_map(vec![(tx_a, rx_b), (tx_b, rx_a)], |_, (tx, rx)| {
            tx.send(()).is_ok() && rx.recv_timeout(Duration::from_secs(10)).is_ok()
        });
        assert_eq!(met, [true, true], "a task ran only after the other ended");
    }

    #[test]
    fn a_free_thread_claims_what_a_busy_one_leaves() {
        // Item 0 returns only once the 63 others have, so the map ends
        // only if the second thread claims every one of them: nothing is
        // dealt out ahead of time to the thread that item 0 keeps busy.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let ran_on = Pool::new(2).par_map((0..64usize).collect(), |_, i| {
            let in_time = match i {
                0 => {
                    let rx = lock(&rx);
                    (1..64).all(|_| rx.recv_timeout(Duration::from_secs(10)).is_ok())
                }
                _ => tx.send(()).is_ok(),
            };
            (in_time, std::thread::current().id())
        });
        assert!(ran_on[0].0, "63 items waited behind the one that was busy");
        let busy = ran_on[0].1;
        assert_eq!(ran_on.iter().filter(|(_, id)| *id == busy).count(), 1);
    }

    #[test]
    fn tasks_start_in_index_order() {
        for threads in [1usize, 2, 4] {
            let started = AtomicUsize::new(0);
            let tickets = Pool::new(threads).par_map(vec![(); 200], |_, _| {
                let ticket = started.fetch_add(1, Ordering::SeqCst);
                (std::thread::current().id(), ticket)
            });
            if threads == 1 {
                let order: Vec<usize> = tickets.iter().map(|&(_, t)| t).collect();
                assert_eq!(order, (0..200).collect::<Vec<_>>(), "the serial loop");
            }
            // Walking the indices upwards, each thread's own tickets rise.
            let mut last = std::collections::HashMap::new();
            for (index, (id, ticket)) in tickets.into_iter().enumerate() {
                if let Some(before) = last.insert(id, ticket) {
                    assert!(before < ticket, "index {index}, threads = {threads}");
                }
            }
        }
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
        // The fan-out is the item count when that is below the threads.
        Pool::new(4).par_map(vec![(); 4], |_, _| assert_eq!(SHARE.get(), 1));
        Pool::new(4).par_map(vec![(); 2], |_, _| assert_eq!(SHARE.get(), 2));
        // Inline tasks are not tasks of a multi-worker map.
        Pool::new(1).par_map(vec![(); 2], |_, _| assert_eq!(SHARE.get(), 0));
        Pool::new(4).par_map(vec![()], |_, _| assert_eq!(SHARE.get(), 0));
        set_global_threads(6);
        Pool::new(2).par_map(vec![(); 2], |_, _| {
            assert_eq!(SHARE.get(), 3, "budget max(2, 6) over 2 workers");
            assert_eq!(global_pool().threads(), 3);
            assert_eq!(Pool::new(8).plan(8), (3, 1));
        });
        assert_eq!(global_pool().threads(), 6, "uncapped at top level");
        set_global_threads(1);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map(vec![1, 2], |_, x| x), vec![1, 2]);
    }

    #[test]
    fn default_pool_uses_available_parallelism() {
        assert!(Pool::default().threads() >= 1);
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
        pool.par_map(vec![(); 256], |_, _| {
            std::thread::sleep(Duration::from_micros(200));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        // With 256 sleeping tasks and 4 workers, more than one thread
        // must have participated.
        assert!(ids.lock().unwrap().len() > 1);
    }
}
