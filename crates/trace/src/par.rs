//! The one work-stealing loop the workspace runs its CPU-bound batches
//! on: the simulator's *(layer, op, chunk)* items and the model zoo's
//! *(layer, op)* trace builds.
//!
//! Workers claim items off a shared atomic index and write each result
//! into that item's own slot, so the output is in input order whatever
//! the thread count or the order items finish in. Anything a batch
//! reduces afterwards is therefore byte-identical to a serial run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the available parallelism, capped at 8 (one
/// batch rarely has enough independent items to feed more).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(8)
}

/// Runs `work` over `items` on up to `threads` scoped workers and returns
/// one slot per item, in input order.
///
/// `stop` is consulted before each item is claimed: once it returns
/// `true` no further item starts, while items already running finish.
/// Claims follow the index, so the filled slots are always a prefix and
/// every later slot is `None`. With one worker (or one item) the loop runs
/// on the calling thread and spawns nothing.
///
/// # Panics
///
/// Propagates a panic of `work`.
pub fn par_map<I: Send, T: Send>(
    items: Vec<I>,
    threads: usize,
    stop: impl Fn() -> bool + Sync,
    work: impl Fn(I) -> T + Sync,
) -> Vec<Option<T>> {
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        for item in items {
            if stop() {
                break;
            }
            out.push(Some(work(item)));
        }
        out.resize_with(n, || None);
        return out;
    }

    // Each slot is locked only by the worker that claimed its index (to
    // take the input, then to store the result), so no lock is contended.
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stop() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else { break };
                let item = input
                    .lock()
                    .expect("only the claiming worker locks a slot")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = work(item);
                *outputs[i]
                    .lock()
                    .expect("only the claiming worker locks a slot") = Some(result);
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.into_inner().expect("workers joined cleanly"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 3, 7, 100] {
                let got = par_map((0..n).collect(), threads, || false, |i: u64| i * i);
                let want: Vec<Option<u64>> = (0..n).map(|i| Some(i * i)).collect();
                assert_eq!(got, want, "{threads} threads, {n} items");
            }
        }
    }

    /// A stop that fires after the third finished item: no item starts
    /// after it fires, items in flight finish, and since claims follow
    /// the index the finished items are exactly a prefix.
    #[test]
    fn a_stop_mid_run_leaves_the_unclaimed_items_empty() {
        for threads in [1, 2, 8] {
            let done = AtomicUsize::new(0);
            let got = par_map(
                (0..200u64).collect(),
                threads,
                || done.load(Ordering::SeqCst) >= 3,
                |i| {
                    done.fetch_add(1, Ordering::SeqCst);
                    i + 1
                },
            );
            assert_eq!(got.len(), 200);
            let filled = got.iter().take_while(|slot| slot.is_some()).count();
            assert!(
                (3..3 + threads).contains(&filled),
                "{threads} threads filled {filled}"
            );
            assert!(got[filled..].iter().all(Option::is_none));
            for (i, slot) in got[..filled].iter().enumerate() {
                assert_eq!(*slot, Some(i as u64 + 1));
            }
        }
    }
}
