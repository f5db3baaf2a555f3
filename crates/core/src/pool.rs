//! The workspace's one worker pool: an ordered parallel map over scoped
//! threads. The simulator is single-threaded by design; experiment grids
//! and campaigns parallelize across runs through here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count when the caller has no preference: one per available
/// core (4 when the platform cannot say).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Apply `f` to every item on up to `workers` scoped threads and return
/// the results in input order. Workers pull the next unclaimed item from
/// an atomic counter, so long and short items balance; with one worker
/// (or at most one item) everything runs inline on the calling thread,
/// in input order.
pub fn map_ordered<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let item = slot.lock().unwrap().0.take();
                    let result = f(item.expect("each item is claimed exactly once"));
                    slot.lock().unwrap().1 = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let (_, result) = slot.into_inner().unwrap();
            result.expect("every item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 3, 64] {
            assert_eq!(map_ordered(items.clone(), workers, |i| i * i), want);
        }
        assert!(map_ordered(Vec::<u8>::new(), 4, |i| i).is_empty());
    }
}
