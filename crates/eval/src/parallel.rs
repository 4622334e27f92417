//! Scoped parallel fan-out for independent experiment cells.
//!
//! Table II evaluates ~12 methods × 10 dataset/combo cells; the cells
//! are independent, so the repro binaries fan them out across threads
//! with [`parallel_map`]. Determinism is unaffected: each cell seeds
//! its own RNGs.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A cell whose closure panicked during [`try_parallel_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// Index of the input item whose closure panicked.
    pub index: usize,
    /// The panic payload rendered as text, when it was a string.
    pub message: String,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item on a pool of crossbeam-scoped threads
/// (capped at `max_threads` concurrent items) and returns per-cell
/// results in input order. A panicking cell is trapped at the cell
/// boundary and reported as `Err(CellPanic)`; its siblings keep running
/// and their results are kept — one poisoned experiment cell no longer
/// takes the whole sweep down with it.
pub fn try_parallel_map<T, R, F>(
    items: Vec<T>,
    max_threads: usize,
    f: F,
) -> Vec<Result<R, CellPanic>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_parallel_map_with(items, max_threads, |_| (), |_, item| f(item))
}

/// The stateful variant of [`try_parallel_map`]: each worker thread
/// builds its own long-lived state once via `init(worker_index)` and
/// threads it through every cell it processes. The cluster router and
/// `loopsweep` use this to give each worker its own pipeline clone
/// instead of rebuilding one per request.
///
/// A panicking cell may leave the worker state inconsistent, so the
/// worker rebuilds it with `init` before touching the next cell.
pub fn try_parallel_map_with<T, S, R, Init, F>(
    items: Vec<T>,
    max_threads: usize,
    init: Init,
    f: F,
) -> Vec<Result<R, CellPanic>>
where
    T: Send,
    R: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let max_threads = max_threads.max(1);
    let n = items.len();
    let mut results: Vec<Option<Result<R, CellPanic>>> = (0..n).map(|_| None).collect();
    let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = parking_lot::Mutex::new(work);
    let out = parking_lot::Mutex::new(&mut results);
    let run =
        crossbeam::scope(|scope| {
            let (init, f, queue, out) = (&init, &f, &queue, &out);
            for worker in 0..max_threads.min(n.max(1)) {
                scope.spawn(move |_| {
                    let mut state = init(worker);
                    loop {
                        let item = queue.lock().pop();
                        let Some((idx, item)) = item else {
                            break;
                        };
                        // AssertUnwindSafe: the slot is written exactly
                        // once, so a trapped panic cannot leave a cell
                        // half-filled; the worker state is rebuilt below.
                        let result = catch_unwind(AssertUnwindSafe(|| f(&mut state, item)))
                            .map_err(|payload| CellPanic {
                                index: idx,
                                message: panic_message(payload.as_ref()),
                            });
                        if result.is_err() {
                            state = init(worker);
                        }
                        out.lock()[idx] = Some(result);
                    }
                });
            }
        });
    // Cells trap their own panics, so the scope can only fail if a
    // worker died outside the cell boundary — nothing to salvage then.
    run.expect("worker thread died outside the cell boundary");
    results
        .into_iter()
        .map(|r| r.expect("every index filled"))
        .collect()
}

/// Infallible wrapper over [`try_parallel_map_with`]: per-worker state,
/// results in input order, first trapped panic re-raised after every
/// sibling finishes.
pub fn parallel_map_with<T, S, R, Init, F>(
    items: Vec<T>,
    max_threads: usize,
    init: Init,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    Init: Fn(usize) -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    try_parallel_map_with(items, max_threads, init, f)
        .into_iter()
        .map(|result| match result {
            Ok(r) => r,
            Err(p) => panic!("parallel_map cell {} panicked: {}", p.index, p.message),
        })
        .collect()
}

/// Infallible wrapper over [`try_parallel_map`]: returns results in
/// input order, and if any cell panicked, re-raises the first panic —
/// but only after every sibling cell has finished, so no in-flight work
/// is torn down mid-cell.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    try_parallel_map(items, max_threads, f)
        .into_iter()
        .map(|result| match result {
            Ok(r) => r,
            Err(p) => panic!("parallel_map cell {} panicked: {}", p.index, p.message),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let results = parallel_map(items.clone(), 8, |x| x * 2);
        assert_eq!(results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let results = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    fn handles_empty_input() {
        let results: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(results.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let results = parallel_map(vec![5], 16, |x| x * x);
        assert_eq!(results, vec![25]);
    }

    #[test]
    fn panicking_cell_does_not_poison_siblings() {
        let results = try_parallel_map((0..16).collect::<Vec<i32>>(), 4, |x| {
            if x == 7 {
                panic!("cell {x} exploded");
            }
            x * 10
        });
        assert_eq!(results.len(), 16);
        for (i, result) in results.iter().enumerate() {
            if i == 7 {
                let err = result.as_ref().unwrap_err();
                assert_eq!(err.index, 7);
                assert!(err.message.contains("cell 7 exploded"));
            } else {
                assert_eq!(
                    result.as_ref().unwrap(),
                    &(i as i32 * 10),
                    "sibling cell {i} must survive the panic in cell 7"
                );
            }
        }
    }

    #[test]
    fn parallel_map_reraises_after_siblings_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..8).collect::<Vec<i32>>(), 2, |x| {
                if x == 0 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(caught.is_err(), "the panic must still propagate");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            7,
            "every non-panicking sibling must have run to completion"
        );
    }

    #[test]
    fn stateful_workers_reuse_their_state_across_cells() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let results = parallel_map_with(
            (0..32).collect::<Vec<u64>>(),
            4,
            |worker| {
                inits.fetch_add(1, Ordering::SeqCst);
                worker as u64
            },
            |state, x| {
                // Worker-local accumulator: proves the state persists
                // between cells instead of being rebuilt per item.
                *state += 1;
                x * 3
            },
        );
        assert_eq!(results, (0..32).map(|x| x * 3).collect::<Vec<u64>>());
        assert!(
            inits.load(Ordering::SeqCst) <= 4,
            "state must be built at most once per worker"
        );
    }

    #[test]
    fn panicking_cell_rebuilds_worker_state() {
        let results = try_parallel_map_with(
            (0..8).collect::<Vec<i32>>(),
            1,
            |_| 0i32,
            |state, x| {
                *state += 1;
                if x == 2 {
                    panic!("cell 2 exploded");
                }
                *state
            },
        );
        assert!(results[2].is_err());
        let ok: Vec<i32> = results
            .iter()
            .filter_map(|r| r.as_ref().ok().copied())
            .collect();
        assert_eq!(ok.len(), 7, "only the panicking cell is lost");
        // After the panic the single worker's counter restarted from a
        // fresh init, so the count value 1 appears twice: once at the
        // very first cell and once right after the rebuild.
        assert_eq!(ok.iter().filter(|&&v| v == 1).count(), 2);
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        parallel_map((0..8).collect::<Vec<_>>(), 4, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "expected concurrent execution"
        );
    }
}
