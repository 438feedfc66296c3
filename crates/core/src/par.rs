//! Data parallelism for block SV, on `std::thread::scope`.
//!
//! SV is the one phase that fans out: EV, UV and value/midstates run
//! inline on the calling thread, because they read and write the chain
//! state and a scope costs more than their per-block job. [`feed`] runs a
//! window's staging on the calling thread while the SV chunks it queues
//! are settled by helper threads, spawned as chunks appear; once staging
//! ends, the caller settles what is left alongside them. There is no pool:
//! one scope per window.

use std::num::NonZeroUsize;
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, OnceLock};
use std::thread::{Scope, ScopedJoinHandle};

/// Worker count for SV: the override, or every available core when there
/// is none (or it is 0). The core count is resolved once per process:
/// `available_parallelism` reads cgroup files on every call.
pub fn worker_count(workers: Option<usize>) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    workers.filter(|&n| n > 0).unwrap_or_else(|| {
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// The queue end `body` pushes items onto, inside [`feed`]'s scope.
pub struct Feed<'scope, 'env, T, R> {
    scope: &'scope Scope<'scope, 'env>,
    sender: Sender<T>,
    drain: &'scope (dyn Fn() -> Vec<R> + Sync),
    helpers: Vec<ScopedJoinHandle<'scope, Vec<R>>>,
    workers: usize,
    pushed: usize,
}

impl<T: Send, R: Send> Feed<'_, '_, T, R> {
    /// Queue `item`. Each item after the first spawns a helper while
    /// fewer than `workers - 1` run: the caller takes a share once `body`
    /// returns, so a lone item never starts a thread.
    pub fn push(&mut self, item: T) {
        self.sender
            .send(item)
            .expect("the queue outlives every feed");
        self.pushed += 1;
        if self.helpers.len() + 1 < self.workers.min(self.pushed) {
            let drain = self.drain;
            self.helpers.push(self.scope.spawn(drain));
        }
    }
}

/// Run `body` on the calling thread while up to `workers - 1` helper
/// threads apply `work` to the items it pushes, in queue order; when
/// `body` returns, the caller drains the queue too. Returns `body`'s
/// output and every `Some` that `work` returned, in no particular order.
/// With one worker, `body` runs to its end and then the caller works off
/// every item itself.
pub fn feed<T: Send, R: Send, O>(
    workers: usize,
    work: impl Fn(T) -> Option<R> + Sync,
    body: impl FnOnce(&mut Feed<'_, '_, T, R>) -> O,
) -> (O, Vec<R>) {
    let (sender, receiver) = mpsc::channel();
    let queue = Mutex::new(receiver);
    let drain = || {
        let mut out = Vec::new();
        loop {
            // The guard drops at the end of this statement, so other
            // threads take items while this one works.
            let next = queue.lock().expect("feed queue lock").recv();
            let Ok(item) = next else { break out };
            out.extend(work(item));
        }
    };
    std::thread::scope(|scope| {
        let mut feed = Feed {
            scope,
            sender,
            drain: &drain,
            helpers: Vec::new(),
            workers,
            pushed: 0,
        };
        let output = body(&mut feed);
        // Closing the queue lets every drainer stop once it is empty.
        let Feed {
            sender, helpers, ..
        } = feed;
        drop(sender);
        let mut results = drain();
        for helper in helpers {
            let theirs = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            results.extend(theirs);
        }
        (output, results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Push `items` and return `(work result, worker thread)` pairs.
    fn run(items: usize, workers: usize) -> Vec<(usize, ThreadId)> {
        let (_, mut out) = feed(
            workers,
            |x: usize| Some((x * 2, std::thread::current().id())),
            |feed| (0..items).for_each(|x| feed.push(x)),
        );
        out.sort_by_key(|r| r.0);
        out
    }

    #[test]
    fn every_item_is_worked_once() {
        for workers in [1, 2, 3, 7] {
            for items in [0, 1, 2, 5, 100] {
                let doubled: Vec<usize> = run(items, workers).iter().map(|r| r.0).collect();
                assert_eq!(doubled, (0..items).map(|x| x * 2).collect::<Vec<_>>());
            }
        }
        // `None` results are dropped.
        let (output, evens) = feed(
            2,
            |x: u32| (x < 5).then_some(x),
            |feed| {
                (0..10).for_each(|x| feed.push(x));
                "body output"
            },
        );
        assert_eq!(output, "body output");
        assert_eq!(evens.into_iter().collect::<HashSet<_>>(), (0..5).collect());
    }

    #[test]
    fn helpers_start_only_for_a_second_item() {
        let caller = std::thread::current().id();
        let threads = |items, workers| -> HashSet<ThreadId> {
            run(items, workers).into_iter().map(|r| r.1).collect()
        };
        // One worker, or one item: only the calling thread works.
        assert_eq!(threads(10, 1), [caller].into());
        assert_eq!(threads(1, 8), [caller].into());
        assert_eq!(threads(0, 8), HashSet::new());
        // Never more threads than workers, nor than items.
        for (items, workers) in [(2, 8), (3, 2), (50, 3)] {
            let n = threads(items, workers).len();
            assert!(
                n <= workers.min(items),
                "{items} items, {workers} workers: {n}"
            );
        }
    }

    #[test]
    fn one_worker_runs_everything_after_the_body() {
        let body_done = AtomicBool::new(false);
        let (_, seen) = feed(
            1,
            |_: u8| Some(body_done.load(Ordering::SeqCst)),
            |feed| {
                (0..5).for_each(|x| feed.push(x));
                body_done.store(true, Ordering::SeqCst);
            },
        );
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn helpers_work_while_the_body_runs() {
        let worked = AtomicUsize::new(0);
        let (during_body, _) = feed(
            2,
            |_: u8| {
                worked.fetch_add(1, Ordering::SeqCst);
                Some(())
            },
            |feed| {
                feed.push(0);
                feed.push(1);
                // The second item started a helper; wait for it to take
                // an item while the body is still running.
                let waited = ebv_telemetry::Stopwatch::start();
                while worked.load(Ordering::SeqCst) == 0
                    && waited.elapsed() < Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
                worked.load(Ordering::SeqCst)
            },
        );
        assert!(during_body >= 1);
        assert_eq!(worked.into_inner(), 2);
    }

    #[test]
    fn worker_count_defaults_to_available_cores() {
        assert_eq!(worker_count(Some(3)), 3);
        assert!(worker_count(None) >= 1);
        assert_eq!(worker_count(Some(0)), worker_count(None));
    }
}
