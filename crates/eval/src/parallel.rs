//! Scoped parallel fan-out for independent experiment cells.
//!
//! Table II evaluates ~12 methods × 10 dataset/combo cells; the cells
//! are independent, so the repro binaries fan them out across threads
//! with [`parallel_map`]. Determinism is unaffected: each cell seeds
//! its own RNGs.

use parking_lot::Mutex;

/// Applies `f` to every item on up to `max_threads` scoped threads and
/// returns the results in input order.
///
/// A panicking cell ends only its own worker. Cells in flight on other
/// workers finish, and queued cells keep running while at least one
/// worker survives; with one worker, or once every worker has panicked,
/// the rest of the queue never runs. After all workers have stopped,
/// the scope re-raises as the generic "a scoped thread panicked"; the
/// cell's own message is what the panic hook printed when it fired.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, max_threads, |_| (), |_, item| f(item))
}

/// The stateful variant of [`parallel_map`]: each worker thread builds
/// its own long-lived state once via `init(worker_index)` and threads
/// it through every cell it processes. The cluster router and
/// `loopsweep` use this to give each worker its own pipeline clone
/// instead of rebuilding one per request.
///
/// Workers take cells from the back of the input, so one worker visits
/// them last to first. Results still come back in input order, and a
/// panicking cell behaves as in [`parallel_map`].
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
    let n = items.len();
    // `f` runs with neither lock held, so a panicking cell leaves both
    // locks usable for the workers that keep draining the queue.
    let queue = Mutex::new(items.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|scope| {
        let (init, f, queue, results) = (&init, &f, &queue, &results);
        for worker in 0..max_threads.clamp(1, n.max(1)) {
            scope.spawn(move || {
                let mut state = init(worker);
                loop {
                    // Bind first: the guard must not live through `f`.
                    let next = queue.lock().pop();
                    let Some((idx, item)) = next else {
                        break;
                    };
                    let result = f(&mut state, item);
                    results.lock()[idx] = Some(result);
                }
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every cell ran: a panicking cell re-raises before this"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    /// `serve_cluster` with one router worker serves requests in the
    /// order this visits cells, and `repro_cluster` builds its fleet
    /// cost model from those responses: visiting cells first to last
    /// changes 57 values of `results/cluster.json`.
    #[test]
    fn one_worker_visits_cells_last_to_first() {
        let visited = parallel_map_with(
            (0..6).collect::<Vec<u32>>(),
            1,
            |_| Vec::new(),
            |seen: &mut Vec<u32>, x| {
                seen.push(x);
                seen.clone()
            },
        );
        assert_eq!(visited[0], vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn parallel_map_reraises_after_siblings_finish() {
        use std::cell::RefCell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        /// Sends once its thread has exited: thread-local destructors
        /// run after the thread's closure has finished unwinding.
        struct SignalOnExit(mpsc::Sender<()>);
        impl Drop for SignalOnExit {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<SignalOnExit>> = const { RefCell::new(None) };
        }

        let (exited_tx, exited_rx) = mpsc::channel();
        let exited_rx = Mutex::new(exited_rx);
        let completed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            // Cell 7 is the first one taken, so its worker dies; cell 6
            // is the survivor's first and waits until that worker has
            // exited. The survivor must then still run cells 5..0
            // before the panic re-raises.
            parallel_map((0..8).collect::<Vec<i32>>(), 2, |x| {
                if x == 7 {
                    let signal = SignalOnExit(exited_tx.clone());
                    ON_EXIT.with(|slot| *slot.borrow_mut() = Some(signal));
                    panic!("boom");
                }
                if x == 6 {
                    exited_rx
                        .lock()
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("the panicking worker exits");
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
