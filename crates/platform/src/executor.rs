//! The grid-wide work-stealing task executor.
//!
//! Campaigns and scenario grids are embarrassingly parallel — every
//! `(cell, run)` pair is an independent, seeded simulation — but the old
//! implementation parallelized only *within* one cell's runs and funneled
//! every result through a `Mutex` over the whole results vector. This
//! module provides the one executor both layers now share:
//!
//! * **one pool for the whole workload** — [`run_indexed_streamed`]
//!   schedules all `n_tasks` tasks over one set of scoped workers, so a
//!   48-cell × 1,000-run campaign keeps every core busy until the *last*
//!   run of the *last* cell finishes, instead of draining and refilling a
//!   pool per cell;
//! * **work stealing by atomic counter** — workers claim the next task
//!   index with a single `fetch_add`; no queues, no per-task locks;
//! * **streamed results in index order** — workers hand `(index, result)`
//!   pairs to the caller's thread over a channel as they finish, and the
//!   caller passes them on in index order; no shared results vector, no
//!   per-run `Mutex`, and consumers aggregate and report incrementally
//!   (the scenario engine folds each run into its cell as it arrives and
//!   emits the cell's progress line when its last run does). The order
//!   of everything a consumer sees is therefore the same for any thread
//!   count or scheduling.

use std::collections::BTreeMap;

/// Runs `task(0..n_tasks)` across `threads` workers, delivering each
/// `(index, result)` to `on_result` **on the caller's thread**, in index
/// order.
///
/// Workers finish tasks in scheduling order; a result that lands before
/// a lower index has been delivered waits in a map until it has. So
/// `on_result` sees index 0, 1, 2, … whatever the thread count, and a
/// streamed consumer (the scenario engine's per-cell aggregation and
/// progress lines) sees each result as soon as every earlier one is in.
/// `task` must be deterministic per index for the overall output to be
/// reproducible — which holds for simulation runs, whose randomness is
/// derived from per-index seeds. With `threads <= 1` (or a single task)
/// everything runs inline on the caller's thread, which keeps single-run
/// latency free of any thread overhead.
///
/// # Panics
///
/// Propagates a panic from any task (the scope joins all workers first).
pub fn run_indexed_streamed<T, F>(
    n_tasks: usize,
    threads: usize,
    task: F,
    mut on_result: impl FnMut(usize, T),
) where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_tasks <= 1 {
        for i in 0..n_tasks {
            on_result(i, task(i));
        }
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.min(n_tasks);
    let (sender, receiver) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let next = &next;
        let task = &task;
        for w in 0..workers {
            let sender = sender.clone();
            // Named threads let crash-tolerant callers (the CLI's panic
            // hook) tell an isolated worker panic from a caller-thread
            // one, and show up in debugger/`/proc` listings.
            std::thread::Builder::new()
                .name(format!("cba-worker-{w}"))
                .spawn_scoped(scope, move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n_tasks {
                        break;
                    }
                    if sender.send((i, task(i))).is_err() {
                        break;
                    }
                })
                .expect("spawning a named worker thread");
        }
        // The receive loop ends when the last worker drops its sender.
        drop(sender);
        let mut early = BTreeMap::new();
        let mut next_out = 0;
        for (i, result) in receiver {
            early.insert(i, result);
            while let Some(result) = early.remove(&next_out) {
                on_result(next_out, result);
                next_out += 1;
            }
        }
    });
}

/// The default worker count: every hardware thread (no artificial cap —
/// campaigns are CPU-bound and cache-light, so the full machine is the
/// right default; `--threads` / `with_threads` override it).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the tasks on the streamed executor and collects the results,
    /// checking that they arrive in index order.
    fn ordered<T: Send>(
        n_tasks: usize,
        threads: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::new();
        run_indexed_streamed(n_tasks, threads, task, |i, result| {
            assert_eq!(i, out.len(), "index {i} out of order");
            out.push(result);
        });
        assert_eq!(out.len(), n_tasks, "every index delivered");
        out
    }

    #[test]
    fn results_are_in_index_order() {
        let out = ordered(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn results_arrive_in_index_order_at_two_threads() {
        // Every fourth task is slow, so the other worker finishes the
        // indices after it first.
        let out = ordered(32, 2, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = ordered(5, 1, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let slow = |i: usize| {
            // Uneven task sizes exercise the stealing.
            let mut acc = 0u64;
            for k in 0..(i % 7) * 1_000 {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        };
        let a = ordered(64, 2, slow);
        let b = ordered(64, 16, slow);
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = ordered(3, 64, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_tasks_yield_empty() {
        let out: Vec<usize> = ordered(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn streamed_delivers_every_index_exactly_once() {
        let mut seen = vec![0u32; 50];
        let mut sum = 0u64;
        run_indexed_streamed(
            50,
            8,
            |i| (i as u64) * 2,
            |i, r| {
                seen[i] += 1;
                sum += r;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(sum, (0..50u64).map(|i| i * 2).sum());
    }

    #[test]
    fn streamed_single_thread_preserves_index_order() {
        let mut order = Vec::new();
        run_indexed_streamed(6, 1, |i| i, |i, _| order.push(i));
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
