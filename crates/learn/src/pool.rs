//! A small persistent thread pool for the per-core work of a
//! [`TnCoreLayer`](crate::layer::TnCoreLayer).
//!
//! [`map`] runs `task(i)` for every `i in 0..n` and returns the results in
//! index order. Each task runs whole on one thread, so a task's own sums
//! keep their order; callers merge the results in index order, so the
//! caller-visible arithmetic is the serial loop's, bit for bit.
//!
//! How a region (one [`map`] call) runs:
//!
//! * **Helpers.** The first region starts `available_parallelism() − 1`
//!   helper threads, which live as long as the process.
//! * **The caller works too.** Tasks are claimed from a shared counter by
//!   the caller and the helpers alike; the caller keeps claiming until none
//!   is left, so every task nobody else took runs on the caller. A helper
//!   that wakes late costs speed, never progress.
//! * **A busy pool runs inline.** A caller that finds another region in
//!   flight (a concurrent trainer, or a task that itself calls [`map`])
//!   runs its tasks on its own thread, in index order, through the same
//!   task code. Concurrent trainers therefore never oversubscribe the CPUs
//!   and never share a region.
//! * **Spin, then park.** After a region, helpers spin for [`SPIN`], which
//!   covers a training step's serial gaps between its three regions
//!   (forward, parameter gradients, SGD step): the readout and loss, and
//!   the next batch's gather. That avoids the ~1 ms it costs to wake a
//!   halted vCPU. Then they park on a condvar without a timeout,
//!   re-checking the region epoch on every wake-up. Each spin turn yields the CPU, so a spinning helper
//!   (or a caller spinning for its last task) never starves a concurrent
//!   trainer's thread: with busy-waiting instead, two bench-1 trainers at
//!   once (perfbench `packed_pair`, 2-vCPU VM) set up 20–24 % slower than
//!   with no pool at all.
//! * **Panics.** A panicking task is caught where it runs; the region still
//!   completes, and the caller re-raises the first panic once every task
//!   has finished.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle helper, or a caller waiting for the last task, spins
/// (yielding on each turn) before it parks.
const SPIN: Duration = Duration::from_micros(1500);

/// A region's task, borrowing for `'t`.
type Task<'t> = dyn Fn(usize) + Sync + 't;

/// Run `task(i)` for every `i in 0..n`, spread over the pool, and return
/// the results in index order.
///
/// # Panics
///
/// Re-raises the first panic of any task, after every task has finished.
pub(crate) fn map<T: Send>(n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run(n, &|i| {
        let out = task(i);
        *slots[i].lock().expect("only task i locks slot i") = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("only task i locks slot i")
                .expect("run returns only after every task has finished")
        })
        .collect()
}

/// Run `task(0..n)` over the pool; returns once every task has finished.
fn run(n: usize, task: &Task<'_>) {
    let pool = pool();
    let inline = n < 2
        || pool.helpers == 0
        || pool
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err();
    if inline {
        let region = Region::new(task, n);
        region.work();
        return region.finish();
    }
    // SAFETY: helpers outlive this call, so the region they share needs a
    // `'static` task; this erases the borrow's lifetime and nothing else.
    // The erased reference is called only by `Region::work` for a claimed
    // index `i < n`, and `done` counts each such call after it returns or
    // unwinds (the unwind is caught inside `work`). Below, this function
    // neither returns nor unwinds until `done == n`: `work` catches task
    // panics, the locks it takes ignore poisoning, and the wait loop cannot
    // panic. After `done == n` every index has been claimed, so a helper
    // still holding the region claims `i >= n` and never calls the task.
    // `pool::tests` pins this: panicking tasks, more tasks than threads,
    // more threads than tasks, and concurrent callers.
    let task = unsafe { std::mem::transmute::<&Task<'_>, &Task<'static>>(task) };
    let region = Arc::new(Region::new(task, n));
    {
        let mut slot = pool.region.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(Arc::clone(&region));
        // Release pairs with the helpers' Acquire load: a helper that sees
        // the new epoch finds this region in the slot.
        pool.epoch.fetch_add(1, Ordering::Release);
    }
    pool.wake.notify_all();
    region.work();
    let start = Instant::now();
    // Acquire pairs with `work`'s Release increment: every task's writes
    // are visible once `done == n`.
    while region.done.load(Ordering::Acquire) < n {
        if start.elapsed() < SPIN {
            thread::yield_now();
        } else {
            // The helper that finishes the last task unparks this thread;
            // a wake-up before the park leaves a token, so none is lost.
            thread::park();
        }
    }
    *pool.region.lock().unwrap_or_else(PoisonError::into_inner) = None;
    pool.busy.store(false, Ordering::Release);
    region.finish();
}

/// One [`map`] call: its task and how far it has got.
struct Region<'t> {
    task: &'t Task<'t>,
    n: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Tasks finished (returned or panicked).
    done: AtomicUsize,
    /// The first task panic, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The thread that opened the region, unparked by the last task.
    caller: Thread,
}

impl<'t> Region<'t> {
    fn new(task: &'t Task<'t>, n: usize) -> Self {
        Self {
            task,
            n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panic: Mutex::new(None),
            caller: thread::current(),
        }
    }

    /// Claim and run tasks until none is left. Returns whether this call
    /// finished the region's last task.
    fn work(&self) -> bool {
        let mut finished_last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return finished_last;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
            // Release pairs with the caller's Acquire load of `done`.
            finished_last = self.done.fetch_add(1, Ordering::Release) + 1 == self.n;
        }
    }

    /// Re-raise the first task panic, if any, on the caller's thread. Call
    /// only once every task has finished.
    fn finish(&self) {
        let payload = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

/// The process-wide pool.
struct Pool {
    /// Helper threads started (0 on a single-CPU host).
    helpers: usize,
    /// Set while a region is in flight; a caller that finds it set runs
    /// its region inline.
    busy: AtomicBool,
    /// Bumped each time a region is published.
    epoch: AtomicU64,
    /// The region in flight, if any.
    region: Mutex<Option<Arc<Region<'static>>>>,
    /// Wakes parked helpers when a region is published.
    wake: Condvar,
}

/// The pool, starting its helpers on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static START: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool {
        helpers: thread::available_parallelism().map_or(0, |n| n.get() - 1),
        busy: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        region: Mutex::new(None),
        wake: Condvar::new(),
    });
    START.call_once(|| {
        // Helpers run for the life of the process and are never joined.
        // One that fails to start only costs speed: callers run every task
        // nobody else claims.
        for k in 0..pool.helpers {
            let _ = thread::Builder::new()
                .name(format!("tn-learn-pool-{k}"))
                .spawn(move || pool.helper());
        }
    });
    pool
}

impl Pool {
    /// A helper's life: wait for the next region, work on it, repeat.
    fn helper(&self) {
        let mut seen = 0u64;
        loop {
            let start = Instant::now();
            while self.epoch.load(Ordering::Acquire) == seen && start.elapsed() < SPIN {
                thread::yield_now();
            }
            let region = {
                let mut slot = self.region.lock().unwrap_or_else(PoisonError::into_inner);
                // The epoch is bumped under this lock, so checking it here
                // before each wait cannot miss a publication.
                while self.epoch.load(Ordering::Acquire) == seen {
                    slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                seen = self.epoch.load(Ordering::Acquire);
                slot.clone()
            };
            if let Some(region) = region {
                if region.work() {
                    region.caller.unpark();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Every index runs exactly once and results come back in index
    /// order, whether tasks outnumber threads or threads outnumber tasks.
    fn assert_each_index_once(n: usize) {
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = map(n, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_task_runs_once_when_tasks_outnumber_threads() {
        assert_each_index_once(pool().helpers * 8 + 13);
    }

    #[test]
    fn every_task_runs_once_when_threads_outnumber_tasks() {
        for n in 0..=pool().helpers + 1 {
            assert_each_index_once(n);
        }
    }

    #[test]
    fn a_panicking_task_re_raises_in_the_caller_after_the_rest_finish() {
        let n = 9;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            map(n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 4, "task 4 fails");
            })
        }))
        .expect_err("the task panic reaches the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"task 4 fails"));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        // The pool is free again and still works.
        assert_each_index_once(n);
    }

    #[test]
    fn concurrent_and_nested_callers_keep_their_own_results() {
        let barrier = Barrier::new(2);
        thread::scope(|s| {
            for c in 0..2usize {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..50 {
                        let out = map(6, |i| {
                            // A task that opens a region of its own finds
                            // the pool busy and runs it inline.
                            let inner = map(3, |j| c * 1000 + i * 10 + j);
                            inner.iter().sum::<usize>()
                        });
                        let want: Vec<usize> =
                            (0..6).map(|i| 3 * (c * 1000 + i * 10) + 3).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
    }
}
