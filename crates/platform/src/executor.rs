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
//! * **streamed, lock-free result placement** — workers hand `(index,
//!   result)` pairs to the caller's thread over a channel as they finish;
//!   no shared results vector, no per-run `Mutex`, and consumers
//!   aggregate and report incrementally (the scenario engine folds each
//!   run into its cell the moment it lands and emits the cell's progress
//!   line when its last run does). Consumers place results by index, so
//!   ordered output stays deterministic regardless of thread count or
//!   scheduling.

/// Runs `task(0..n_tasks)` across `threads` workers, delivering each
/// `(index, result)` to `on_result` **on the caller's thread** as soon as
/// it is produced.
///
/// Results arrive in scheduling order (not index order); callers that
/// need determinism place them by index — which also means streamed
/// consumers (the scenario engine's per-cell aggregation and progress
/// lines) see work as it completes instead of waiting for the whole
/// batch. `task` must be deterministic per index for the overall output
/// to be reproducible — which holds for simulation runs, whose
/// randomness is derived from per-index seeds. With `threads <= 1` (or a
/// single task) everything runs inline on the caller's thread, in index
/// order, which keeps single-run latency free of any thread overhead.
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
        for (i, result) in receiver {
            on_result(i, result);
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

    /// Runs the tasks on the streamed executor and places every result
    /// by its index.
    fn ordered<T: Send>(
        n_tasks: usize,
        threads: usize,
        task: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
        run_indexed_streamed(n_tasks, threads, task, |i, result| {
            assert!(
                slots[i].replace(result).is_none(),
                "index {i} delivered twice"
            );
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index delivered"))
            .collect()
    }

    #[test]
    fn results_are_in_index_order() {
        let out = ordered(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
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
