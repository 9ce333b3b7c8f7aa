//! The workspace's one deterministic parallel executor.
//!
//! [`ordered`] runs a job over owned work items on scoped threads and
//! commits every result in item order, one at a time, with a stop rule
//! checked after each. Whatever a caller folds from the results is
//! therefore the fold a serial loop would make, for any worker count:
//! the adaptive Monte-Carlo batches, the pipeline's streamed sweeps and
//! the wafer engine's phases all run on it.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

// The canonical seed-splitting rule lives in `cnt_stats::seed` (one place
// for the whole workspace); this re-export keeps the engine's historical
// import path working for the fan-out layers built on it.
pub use cnt_stats::seed::split_seed;

/// Run `job` over `items` on at most `min(workers, items.len())` threads
/// and hand each result to `commit`, in item order.
///
/// The calling thread is one of the threads, so a run that one thread
/// suffices for spawns none and `n` threads means `n − 1` spawns. Threads
/// claim unstarted items one at a time, at most `ahead` items past the
/// first uncommitted one (`usize::MAX`: no bound). A thread that finishes
/// an item commits every result that is then next in line, so `commit`
/// runs on any of the threads, one call at a time. Once it returns `false`
/// no further item starts or commits; the jobs still running (at most one
/// per other thread) finish and their results are dropped.
///
/// A small `ahead` suits a run that usually stops early on items of
/// equal cost: no thread starts an item the stop is likely to drop. No
/// bound suits items of unequal cost that all commit: no thread waits for
/// a slow one.
///
/// `commit` runs while no thread can claim an item, so keep it short.
///
/// # Panics
///
/// Panics if `workers == 0`. A panic in `job` or `commit` stops further
/// claims and, once every thread has stopped, panics the caller. After a
/// panicking job the items before it still commit as they finish; after a
/// panicking commit nothing more commits.
pub fn ordered<I, R>(
    items: I,
    workers: usize,
    ahead: usize,
    job: impl Fn(I::Item) -> R + Sync,
    commit: impl FnMut(R) -> bool + Send,
) where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    assert!(workers > 0, "ordered requires at least one worker");
    let items = items.into_iter();
    let threads = workers.min(items.len());
    let queue = Queue {
        state: Mutex::new(State {
            items: items.enumerate().fuse(),
            ahead,
            next: 0,
            claimed: 0,
            panicked: false,
            declined: false,
            done: BTreeMap::new(),
            commit,
        }),
        changed: Condvar::new(),
    };
    let work = || {
        let _stop = StopOnPanic(&queue);
        let mut state = queue.lock();
        loop {
            if let Some((index, item)) = state.claim() {
                drop(state);
                let result = job(item);
                state = queue.lock();
                state.done.insert(index, result);
                state.commit_ready();
                queue.changed.notify_all();
            } else if state.full() {
                state = queue
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            } else {
                break;
            }
        }
    };
    // The scope joins the spawned threads and re-raises their panics.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// The claim source, the finished-but-uncommitted results and the commit
/// of one [`ordered`] run.
struct State<E, R, C> {
    items: E,
    /// How many items past the first uncommitted one may be claimed.
    ahead: usize,
    /// The first uncommitted item.
    next: usize,
    /// Items handed out so far; the next claim gets this index.
    claimed: usize,
    /// Set once a thread panics: nothing more starts.
    panicked: bool,
    /// Set once `commit` declines or panics: nothing more starts or commits.
    declined: bool,
    done: BTreeMap<usize, R>,
    commit: C,
}

impl<T, E: Iterator<Item = (usize, T)>, R, C: FnMut(R) -> bool> State<E, R, C> {
    fn claim(&mut self) -> Option<(usize, T)> {
        if self.closed() || self.full() {
            return None;
        }
        let claimed = self.items.next();
        self.claimed += usize::from(claimed.is_some());
        claimed
    }

    fn closed(&self) -> bool {
        self.panicked || self.declined
    }

    /// True while every item `ahead` allows is claimed: a thread then
    /// waits for a commit instead of running further ahead.
    fn full(&self) -> bool {
        !self.closed() && self.claimed > self.next.saturating_add(self.ahead)
    }

    /// Commit the results that are next in line, up to a `false`. A
    /// panicked job's result never arrives, so commits stop before it.
    fn commit_ready(&mut self) {
        while !self.declined {
            let Some(result) = self.done.remove(&self.next) else {
                return;
            };
            self.next += 1;
            // Stays set if `commit` panics.
            self.declined = true;
            self.declined = !(self.commit)(result);
        }
    }
}

struct Queue<E, R, C> {
    state: Mutex<State<E, R, C>>,
    /// Signals a commit or a stop to the threads waiting for room.
    changed: Condvar,
}

impl<E, R, C> Queue<E, R, C> {
    /// Every update of the state completes under the lock before any
    /// `job` or `commit` runs, so a panic in either leaves it valid.
    fn lock(&self) -> MutexGuard<'_, State<E, R, C>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the queue when its thread unwinds, so no thread claims more work
/// or waits for room that a dead thread's result would have made.
struct StopOnPanic<'a, E, R, C>(&'a Queue<E, R, C>);

impl<E, R, C> Drop for StopOnPanic<'_, E, R, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().panicked = true;
            self.0.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// What one run of [`ordered`] did, as its jobs and commits saw it.
    struct Seen {
        committed: Vec<usize>,
        /// Jobs that started after `commit` returned `false`.
        late: usize,
        /// The most jobs started past item `i` by the time `i` committed.
        ahead: usize,
        /// Distinct threads that ran jobs.
        threads: usize,
    }

    /// Runs `ordered` over `0..n` with a per-item sleep from `work_us`,
    /// stopping after item `stop_at`.
    fn run(n: usize, workers: usize, ahead: usize, work_us: &[u64], stop_at: usize) -> Seen {
        let started = AtomicUsize::new(0);
        let threads = Mutex::new(HashSet::new());
        let mut committed = Vec::new();
        let mut started_at_stop = None;
        let mut ran_ahead = 0;
        ordered(
            0..n,
            workers,
            ahead,
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                threads
                    .lock()
                    .expect("no test job panics")
                    .insert(std::thread::current().id());
                std::thread::sleep(Duration::from_micros(work_us[i % work_us.len()]));
                i
            },
            |i| {
                committed.push(i);
                let now = started.load(Ordering::SeqCst);
                ran_ahead = ran_ahead.max(now - (i + 1));
                if i == stop_at {
                    started_at_stop = Some(now);
                }
                i != stop_at
            },
        );
        let threads = threads.lock().expect("no test job panics").len();
        Seen {
            committed,
            late: started_at_stop.map_or(0, |at| started.load(Ordering::SeqCst) - at),
            ahead: ran_ahead,
            threads,
        }
    }

    proptest! {
        #[test]
        fn commits_in_order_stops_on_a_prefix_and_bounds_threads(
            n in 0usize..201,
            workers in 1usize..10,
            ahead in 0usize..12,
            unbounded in prop::bool::ANY,
            work_us in prop::collection::vec(0u64..40, 1..16),
            stop_at in 0usize..201,
        ) {
            let ahead = if unbounded { usize::MAX } else { ahead };
            let threads = workers.min(n);
            let all = run(n, workers, ahead, &work_us, usize::MAX);
            prop_assert_eq!(all.committed, (0..n).collect::<Vec<_>>());
            prop_assert!(all.ahead <= ahead, "{} jobs past the commit point", all.ahead);
            prop_assert!(all.threads <= threads, "{} threads for {threads}", all.threads);

            let prefix = run(n, workers, ahead, &work_us, stop_at);
            prop_assert_eq!(prefix.committed, (0..n.min(stop_at + 1)).collect::<Vec<_>>());
            prop_assert!(prefix.late < threads.max(1), "{} jobs started after the stop", prefix.late);
            prop_assert!(prefix.ahead <= ahead);
            prop_assert!(prefix.threads <= threads);
        }

        #[test]
        fn a_panicking_job_panics_the_caller_after_every_earlier_commit(
            n in 1usize..201,
            workers in 1usize..10,
            ahead in 0usize..4,
            at in 0usize..201,
            work_us in prop::collection::vec(0u64..40, 1..16),
        ) {
            // A small `ahead` makes the other threads wait on the panicked
            // item's slot: the panic must release them. Items before it,
            // even ones that finish after the panic, still commit.
            let at = at % n;
            let mut committed = Vec::new();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                ordered(
                    0..n,
                    workers,
                    ahead,
                    |i| {
                        assert_ne!(i, at, "job {i} panics");
                        std::thread::sleep(Duration::from_micros(work_us[i % work_us.len()]));
                        i
                    },
                    |i| {
                        committed.push(i);
                        true
                    },
                );
            }));
            prop_assert!(outcome.is_err());
            prop_assert_eq!(committed, (0..at).collect::<Vec<_>>());
        }
    }

    #[test]
    fn trial_counts_are_exact() {
        let mut count = 0;
        ordered(
            0..1001,
            4,
            usize::MAX,
            |_| 1,
            |one| {
                count += one;
                true
            },
        );
        assert_eq!(count, 1001);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_workers() {
        // Items seeded by index and folded in commit order: the fold is
        // bit-identical for any worker count and moves with the seed.
        let fold = |seed: u64, workers: usize| {
            let mut sum = 0.0_f64;
            ordered(
                0..500_usize,
                workers,
                workers - 1,
                |i| {
                    let mut rng = StdRng::seed_from_u64(split_seed(seed, i as u64));
                    (0..100).map(|_| rng.gen::<f64>()).sum::<f64>()
                },
                |x| {
                    sum += x;
                    true
                },
            );
            sum.to_bits()
        };
        let reference = fold(42, 1);
        for workers in 2..=4 {
            assert_eq!(fold(42, workers), reference, "workers = {workers}");
        }
        assert_ne!(fold(43, 3), reference);
    }

    #[test]
    fn a_panicking_commit_panics_the_caller_and_ends_the_commits() {
        // Item 8 starts before item 7 finishes and returns only once item
        // 7's commit is panicking: it must not commit.
        let both_started = Barrier::new(2);
        let (panicking, commit_panicked) = mpsc::channel();
        let commit_panicked = Mutex::new(commit_panicked);
        let mut committed = Vec::new();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ordered(
                0..50,
                3,
                usize::MAX,
                |i| {
                    if i == 7 || i == 8 {
                        both_started.wait();
                    }
                    if i == 8 {
                        let commit_panicked = commit_panicked.lock().expect("one reader");
                        commit_panicked.recv().expect("item 7 commits");
                    }
                    i
                },
                |i| {
                    committed.push(i);
                    if i == 7 {
                        panicking.send(()).expect("item 8 is waiting");
                        panic!("commit 7 panics");
                    }
                    true
                },
            );
        }));
        assert!(outcome.is_err());
        assert_eq!(committed, (0..=7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ordered(0..10, 0, 0, |i| i, |_| true);
    }
}
