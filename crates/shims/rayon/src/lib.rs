//! Self-contained stand-in for the subset of the `rayon` API used by this
//! workspace.
//!
//! The build environment is offline, so the workspace vendors a tiny
//! data-parallelism layer with rayon's *call shapes* (`par_iter`,
//! `into_par_iter`, `par_chunks_mut`, `map`, `map_init`, `for_each_init`,
//! `enumerate`, `collect`) backed by a **persistent worker pool** (see
//! `pool`) and a shared work queue. Worker threads are spawned once, on
//! the first parallel sweep, and reused for every sweep after that — the
//! previous incarnation spawned scoped OS threads per sweep, which showed
//! up as constant-factor overhead on the dynamics engine's thousands of
//! short parallel sections. On a single-core host every combinator
//! degrades to the sequential loop with zero thread overhead; the
//! semantics (output order, per-worker init state) match rayon for the
//! patterns the workspace uses.
//!
//! Unlike real rayon the combinators here are *eager*: each adapter runs
//! its stage to completion and materializes a `Vec`. That is fine for the
//! workloads in this repository, where the parallel sections are single
//! `map`/`for_each` sweeps over BFS sources, trees, or dynamics seeds.

#![deny(unsafe_code)]

use std::sync::Mutex;

/// Everything a `use rayon::prelude::*` caller expects.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

/// The persistent worker pool behind every parallel sweep.
///
/// Workers are OS threads spawned lazily on the first sweep and parked on
/// a condvar between sweeps. A sweep enqueues *mirror jobs* — closures
/// that pull `(index, item)` pairs from the sweep's own item queue — and
/// the calling thread both participates in its sweep and, while waiting
/// for stragglers, helps drain the global job queue (that cooperative
/// draining is what makes nested sweeps — census over trees, APSP inside
/// each — deadlock-free without per-sweep thread spawns).
///
/// Mirror jobs borrow the caller's stack (the item queue, the `init`/`f`
/// closures), so handing them to `'static` worker threads requires one
/// lifetime transmute, encapsulated in [`pool::run_mirrored`]. Safety rests
/// on the completion latch: `run_mirrored` does not return — normally *or*
/// by unwinding — until every submitted job has finished executing, so no
/// borrow outlives the frame that owns it. The latch itself is
/// heap-allocated (`Arc`) so a finishing job never touches the caller's
/// stack after releasing it.
mod pool {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Duration;

    /// A unit of pool work. Jobs are self-contained: each catches its own
    /// panics and reports through its sweep's latch.
    type Job = Box<dyn FnOnce() + Send>;

    /// The global queue shared by all pool workers.
    struct Shared {
        queue: Mutex<VecDeque<Job>>,
        work_ready: Condvar,
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Completion latch of one sweep: remaining mirror jobs plus a panic
    /// flag. Heap-allocated and shared by `Arc` so job teardown never
    /// races the caller's stack frame.
    struct Latch {
        state: Mutex<(usize, bool)>,
        done: Condvar,
    }

    /// Number of hardware threads (the pool's size, and the cap on how
    /// wide a single sweep fans out).
    pub(crate) fn hardware_workers() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// The global pool, spawning its workers on first use.
    fn shared() -> &'static Shared {
        static SHARED: OnceLock<Shared> = OnceLock::new();
        static SPAWNED: OnceLock<()> = OnceLock::new();
        let shared = SHARED.get_or_init(|| Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        SPAWNED.get_or_init(|| {
            for i in 0..hardware_workers() {
                let _ = std::thread::Builder::new()
                    .name(format!("bncg-par-{i}"))
                    .spawn(|| worker_loop(SHARED.get().expect("pool initialized")));
            }
        });
        shared
    }

    fn worker_loop(shared: &'static Shared) -> ! {
        loop {
            let job = {
                let mut queue = lock(&shared.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = shared
                        .work_ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            bncg_telemetry::counter!("pool.jobs").incr();
            // Jobs handle their own panics; this catch only shields the
            // worker from a defect in the job wrapper itself.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Runs one queued job on the current thread, if any is pending.
    fn try_run_one(shared: &Shared) -> bool {
        let job = lock(&shared.queue).pop_front();
        match job {
            Some(job) => {
                bncg_telemetry::counter!("pool.steals").incr();
                let _ = catch_unwind(AssertUnwindSafe(job));
                true
            }
            None => false,
        }
    }

    /// Widens `job` from its true borrow lifetime to `'static` so it can
    /// sit in the pool queue. Sound **only** under `run_mirrored`'s
    /// blocking discipline (see its safety argument).
    #[allow(unsafe_code)]
    fn widen_job(job: Box<dyn FnOnce() + Send + '_>) -> Job {
        // SAFETY: `run_mirrored` blocks — through normal return and
        // through unwinds alike — until the sweep's latch records that
        // every submitted job has finished running. The borrows captured
        // by `job` (the sweep's item queue, `init`, `f`, the result
        // vector) therefore strictly outlive every use. After its last
        // use of those borrows each job only touches its `Arc`-owned
        // latch, so nothing dereferences the caller's stack once
        // `run_mirrored` is free to return. Both trait objects have
        // identical layout; only the lifetime bound differs.
        unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) }
    }

    /// Runs `body` on the calling thread while `mirrors` pool workers run
    /// the same closure concurrently; returns only once every mirror has
    /// finished. Returns whether any mirror panicked. A panic in the
    /// caller's own `body` run is caught, held until the mirrors drain
    /// (the safety invariant of [`widen_job`]), and then resumed.
    pub(crate) fn run_mirrored(mirrors: usize, body: &(dyn Fn() + Sync)) -> bool {
        if mirrors == 0 {
            body();
            return false;
        }
        let shared = shared();
        let latch = Arc::new(Latch {
            state: Mutex::new((mirrors, false)),
            done: Condvar::new(),
        });
        {
            let mut queue = lock(&shared.queue);
            for _ in 0..mirrors {
                let latch = Arc::clone(&latch);
                queue.push_back(widen_job(Box::new(move || {
                    let panicked = catch_unwind(AssertUnwindSafe(body)).is_err();
                    let mut state = lock(&latch.state);
                    state.0 -= 1;
                    state.1 |= panicked;
                    drop(state);
                    latch.done.notify_all();
                })));
            }
            shared.work_ready.notify_all();
        }
        // Participate, then help the global queue until the latch clears —
        // even if our own body panicked, the mirrors must finish first.
        let own_panic = catch_unwind(AssertUnwindSafe(body)).err();
        let mirrors_panicked = loop {
            let state = lock(&latch.state);
            if state.0 == 0 {
                break state.1;
            }
            drop(state);
            if !try_run_one(shared) {
                let state = lock(&latch.state);
                if state.0 != 0 {
                    let _ = latch
                        .done
                        .wait_timeout(state, Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        if let Some(payload) = own_panic {
            std::panic::resume_unwind(payload);
        }
        mirrors_panicked
    }
}

/// Number of worker threads to use for a parallel section.
fn workers(items: usize) -> usize {
    pool::hardware_workers().min(items).max(1)
}

/// Core executor: applies `f` to every item with a per-worker `init` state,
/// returning results in input order. Sequential when only one worker is
/// warranted; otherwise the calling thread plus persistent pool workers
/// pull `(index, item)` pairs from a shared queue so uneven workloads
/// balance dynamically.
fn execute<T, S, U, I, F>(items: Vec<T>, init: I, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> U + Sync,
{
    let n = items.len();
    let nthreads = workers(n);
    if nthreads <= 1 || n <= 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let sweep = || {
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
            match next {
                Some((i, t)) => local.push((i, f(&mut state, t))),
                None => break,
            }
        }
        if !local.is_empty() {
            collected
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(local);
        }
    };
    // A panic in `f` on the calling thread resumes inside `run_mirrored`
    // (after the mirrors drain); a panic on a mirror surfaces as the
    // boolean and is re-raised here.
    if pool::run_mirrored(nthreads - 1, &sweep) {
        panic!("parallel worker panicked");
    }
    let mut tagged = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

/// An (eager) parallel iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map preserving input order.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Sync + Send,
    {
        ParIter {
            items: execute(self.items, || (), |(), t| f(t)),
        }
    }

    /// Parallel map with a per-worker scratch state (rayon's `map_init`).
    pub fn map_init<S, U, I, F>(self, init: I, f: F) -> ParIter<U>
    where
        U: Send,
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) -> U + Sync + Send,
    {
        ParIter {
            items: execute(self.items, init, f),
        }
    }

    /// Pairs each item with its index (cheap; indices were preserved by the
    /// eager stages before this one).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Parallel for-each.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync + Send,
    {
        execute(self.items, || (), |(), t| f(t));
    }

    /// Parallel for-each with per-worker scratch state (rayon's
    /// `for_each_init`).
    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) + Sync + Send,
    {
        execute(self.items, init, f);
    }

    /// Collects the (already computed, order-preserved) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into a [`ParIter`] — rayon's `IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_into_par!(usize, u32, u64, i32, i64);

/// Borrowing parallel iteration over slices — rayon's `par_iter`.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel mutable chunking — rayon's `par_chunks_mut`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_gets_worker_state() {
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map_init(Vec::<u8>::new, |scratch, x| {
                scratch.clear();
                scratch.resize(x % 7, 0);
                scratch.len()
            })
            .collect();
        assert_eq!(out, (0..64).map(|x| x % 7).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_enumerate_for_each_init_writes_every_chunk() {
        let n = 17;
        let mut d = vec![0u32; n * n];
        d.par_chunks_mut(n).enumerate().for_each_init(
            || (),
            |(), (row, chunk)| {
                for (col, slot) in chunk.iter_mut().enumerate() {
                    *slot = (row * n + col) as u32;
                }
            },
        );
        assert!(d.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn par_iter_borrows() {
        let data = [String::from("a"), String::from("bb"), String::from("ccc")];
        let lens: Vec<usize> = data.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn nested_sweeps_complete_without_deadlock() {
        // Census-shaped workload: an outer sweep whose every item runs an
        // inner sweep. The cooperative queue draining in `run_mirrored`
        // must let waiting sweeps make progress on pool workers that are
        // all busy with outer items.
        let totals: Vec<u64> = (0..8u64)
            .into_par_iter()
            .map(|outer| {
                let inner: Vec<u64> = (0..64u64).into_par_iter().map(|i| outer + i).collect();
                inner.into_iter().sum()
            })
            .collect();
        let expected: Vec<u64> = (0..8u64).map(|o| (0..64).map(|i| o + i).sum()).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate_to_the_caller() {
        (0..256usize).into_par_iter().for_each(|i| {
            if i == 137 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn sweeps_survive_an_earlier_panicked_sweep() {
        // A panicked sweep must not wedge the persistent pool.
        let result = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i % 2 == 0 {
                    panic!("intentional");
                }
            });
        });
        assert!(result.is_err());
        let doubled: Vec<usize> = (0..64usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_mirrored_runs_body_once_per_participant() {
        // Direct pool exercise, independent of the hardware worker count
        // (single-core hosts route the combinators around the pool): three
        // mirror jobs plus the caller must each run the body exactly once,
        // with the caller helping drain the queue if no worker picks up.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let body = || {
            count.fetch_add(1, Ordering::SeqCst);
        };
        let mirrors_panicked = crate::pool::run_mirrored(3, &body);
        assert!(!mirrors_panicked);
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn run_mirrored_surfaces_panics_and_leaves_the_pool_usable() {
        let attempt = std::panic::catch_unwind(|| {
            let body = || -> () { panic!("mirror boom") };
            let _ = crate::pool::run_mirrored(2, &body);
        });
        assert!(attempt.is_err(), "caller's own panic must resume");
        // The pool must still serve jobs afterwards.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let body = || {
            count.fetch_add(1, Ordering::SeqCst);
        };
        assert!(!crate::pool::run_mirrored(2, &body));
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn pool_threads_persist_across_sweeps() {
        use std::collections::HashSet;
        let workers = crate::pool::hardware_workers();
        if workers < 2 {
            return; // single-core hosts take the sequential path
        }
        // Distinct pool-worker ids over many sweeps. Which workers pick up
        // a sweep's mirror jobs is up to the scheduler, but a persistent
        // pool can never show more ids than it has workers, while spawning
        // per sweep would mint a fresh id every sweep. Threads of other
        // tests that steal a mirror job carry other names.
        let mut pool_ids = HashSet::new();
        for _ in 0..16 {
            let ids: Vec<_> = (0..64usize)
                .into_par_iter()
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    let t = std::thread::current();
                    let pooled = t.name().is_some_and(|name| name.starts_with("bncg-par-"));
                    pooled.then(|| t.id())
                })
                .collect();
            pool_ids.extend(ids.into_iter().flatten());
        }
        assert!(
            (1..=workers).contains(&pool_ids.len()),
            "expected 1..={workers} persistent pool workers across sweeps, saw {}",
            pool_ids.len()
        );
    }
}
