//! Data parallelism for block SV, on `std::thread::scope`.
//!
//! SV is the one phase that fans out: EV, UV and value/midstates run
//! inline, because a scope costs more than their whole per-block job. Every
//! call splits its items into one contiguous chunk per worker and spawns a
//! scoped thread per chunk; there is no pool. Results come back in index
//! order, so the lowest-index error wins however the chunks finish — the
//! property that makes parallel SV report the same minimum `(tx, input)`
//! failure as a sequential scan.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

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

/// Map `f` over `items` on up to `workers` scoped threads, one contiguous
/// chunk each, and collect the results in index order. The first error in
/// index order is returned; a chunk stops at its own first error, which
/// cannot hide a lower-index one. With one worker (or one item) the map
/// runs inline on the calling thread.
pub fn try_par_map<T, R, E, F>(items: &[T], workers: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let chunks: Vec<_> = items
            .chunks(items.len().div_ceil(workers))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Result<Vec<R>, E>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for chunk in chunks {
            let results = chunk
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            out.extend(results?);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn ok<T: Copy>(x: &T) -> Result<T, ()> {
        Ok(*x)
    }

    #[test]
    fn results_keep_index_order() {
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 3, 7, 64] {
            let doubled = try_par_map(&items, workers, |&x| Ok::<_, ()>(x * 2)).unwrap();
            assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
        assert_eq!(try_par_map(&[] as &[u8], 4, ok), Ok(Vec::new()));
    }

    #[test]
    fn lowest_index_error_wins() {
        let items: Vec<usize> = (0..100).collect();
        // Failures in several chunks: the lowest index is reported no
        // matter which chunk finishes first.
        for workers in [1, 2, 4, 100] {
            let r = try_par_map(&items, workers, |&x| {
                if matches!(x, 40 | 63 | 97) {
                    Err(x)
                } else {
                    Ok(x)
                }
            });
            assert_eq!(r, Err(40), "{workers} workers");
        }
    }

    #[test]
    fn one_contiguous_chunk_per_worker() {
        let threads = |items: usize, workers: usize| -> Vec<ThreadId> {
            let items: Vec<usize> = (0..items).collect();
            try_par_map(&items, workers, |_| {
                Ok::<_, ()>(std::thread::current().id())
            })
            .unwrap()
        };
        let runs = |ids: &[ThreadId]| -> Vec<usize> {
            ids.chunk_by(|a, b| a == b).map(<[ThreadId]>::len).collect()
        };
        let caller = std::thread::current().id();
        // One worker, or one item: inline on the calling thread.
        assert!(threads(10, 1).iter().all(|&t| t == caller));
        assert_eq!(threads(1, 8), vec![caller]);
        // 10 items over 3 workers: chunks of 4, 4, 2, each on its own
        // spawned thread.
        let ids = threads(10, 3);
        assert_eq!(runs(&ids), vec![4, 4, 2]);
        assert!(!ids.contains(&caller));
        // More workers than items: one item per thread.
        assert_eq!(runs(&threads(3, 8)), vec![1, 1, 1]);
    }

    #[test]
    fn worker_count_defaults_to_available_cores() {
        assert_eq!(worker_count(Some(3)), 3);
        assert!(worker_count(None) >= 1);
        assert_eq!(worker_count(Some(0)), worker_count(None));
    }
}
