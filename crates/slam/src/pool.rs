//! Fork-join executor for particle-parallel work (paper Fig. 6).
//!
//! The paper's cloud acceleration spins up a thread pool of `N`
//! threads and hands each a slice of `M/N` particles. We implement the
//! same structure with `std::thread::scope`: safe borrowing of the
//! particle array, disjoint `&mut` chunks, no `'static` bounds. A
//! panicking worker propagates its panic to the caller once every
//! worker has joined.
//! Thread count 1 short-circuits to inline execution so the
//! single-thread baseline pays no dispatch cost (mirroring the
//! platform timing model in `lgv-sim`).
//!
//! The executor is also the profiler's fork-join seam: when wall-clock
//! profiling is collecting (`lgv_trace::prof`), each worker's scope
//! tree is harvested after its chunk completes and grafted under the
//! *calling* thread's current scope in chunk order — so parallel
//! kernels are attributed to the call path that forked them, and the
//! merged tree is identical for any thread count.

use lgv_trace::prof;

/// A fork-join executor with a fixed parallelism degree.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Executor using `threads` workers (≥ 1).
    pub fn new(threads: usize) -> Self {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// Configured parallelism degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, splitting the slice into contiguous
    /// chunks across the worker threads. Returns one result per chunk
    /// (e.g. per-chunk work tallies) in chunk order.
    pub fn run_chunks<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let n = self.threads.min(items.len());
        if n == 1 {
            return vec![f(items)];
        }
        let chunk = items.len().div_ceil(n);
        let mut results: Vec<Option<(R, prof::ProfileTree)>> = Vec::new();
        results.resize_with(items.len().div_ceil(chunk), || None);

        std::thread::scope(|scope| {
            for (slot, part) in results.iter_mut().zip(items.chunks_mut(chunk)) {
                let f = &f;
                scope.spawn(move || {
                    let r = f(part);
                    // Harvest this worker's profile alongside its
                    // result (an empty tree when not collecting).
                    *slot = Some((r, prof::take_thread()));
                });
            }
        });

        results
            .into_iter()
            .map(|r| {
                let (r, tree) = r.expect("all chunks complete");
                // Graft in deterministic chunk order under the caller's
                // current scope (no-op for empty trees).
                prof::absorb(&tree);
                r
            })
            .collect()
    }

    /// Map every item to a value in parallel, preserving order.
    pub fn map<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let per_chunk =
            self.run_chunks(items, |chunk| chunk.iter_mut().map(&f).collect::<Vec<R>>());
        per_chunk.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_runs_inline() {
        let ex = ParallelExecutor::new(1);
        let mut v = vec![1, 2, 3];
        let r = ex.run_chunks(&mut v, |c| c.iter().sum::<i32>());
        assert_eq!(r, vec![6]);
    }

    #[test]
    fn chunks_cover_all_items_once() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u64> = (0..1000).collect();
        let partials = ex.run_chunks(&mut v, |c| c.iter().sum::<u64>());
        assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
        assert_eq!(partials.len(), 4);
    }

    #[test]
    fn mutations_are_applied() {
        let ex = ParallelExecutor::new(3);
        let mut v: Vec<i64> = (0..100).collect();
        ex.run_chunks(&mut v, |c| {
            for x in c.iter_mut() {
                *x *= 2;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as i64));
    }

    #[test]
    fn map_preserves_order() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u32> = (0..57).collect();
        let out = ex.map(&mut v, |x| *x * 10);
        assert_eq!(out, (0..57).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let ex = ParallelExecutor::new(16);
        let mut v = vec![5u8, 6];
        let r = ex.map(&mut v, |x| *x + 1);
        assert_eq!(r, vec![6, 7]);
    }

    #[test]
    fn empty_input_is_noop() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u8> = vec![];
        let r: Vec<u8> = ex.map(&mut v, |x| *x);
        assert!(r.is_empty());
    }

    #[test]
    fn worker_profiles_merge_under_caller_scope() {
        // Only meaningful when the profiler is compiled in (workspace
        // builds get it via lgv-bench's default features).
        if !prof::is_available() {
            return;
        }
        let _ = prof::take_thread();
        prof::set_enabled(true);
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u64> = (0..64).collect();
        {
            let _job = prof::scope("job");
            ex.run_chunks(&mut v, |c| {
                let _k = prof::scope("kernel");
                c.iter().sum::<u64>()
            });
        }
        prof::set_enabled(false);
        let tree = prof::take_thread();
        // Expect job -> kernel with one kernel visit per chunk,
        // regardless of which worker ran which chunk.
        let job = tree.children_sorted(0)[0];
        assert_eq!(tree.nodes()[job].name, "job");
        let kernel = tree.nodes()[job].children[0];
        assert_eq!(tree.path(kernel), "job;kernel");
        assert_eq!(tree.nodes()[kernel].count, 4, "one visit per chunk");
    }

    #[test]
    #[should_panic]
    fn worker_panic_reaches_the_caller() {
        let ex = ParallelExecutor::new(4);
        let mut v: Vec<u32> = (0..16).collect();
        ex.run_chunks(&mut v, |c| {
            if c.contains(&9) {
                panic!("worker boom");
            }
        });
    }

    #[test]
    fn parallel_equals_serial_result() {
        let serial = ParallelExecutor::new(1);
        let parallel = ParallelExecutor::new(8);
        let mut a: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let mut b = a.clone();
        let ra = serial.map(&mut a, |x| x.sin());
        let rb = parallel.map(&mut b, |x| x.sin());
        assert_eq!(ra, rb);
    }
}
