//! Minimal scoped-thread parallel map.
//!
//! The build environment cannot add crates.io dependencies, so instead of
//! `rayon` the engine uses a small work-stealing-free pool built on
//! `std::thread::scope`: items are pulled from a shared queue, results are
//! re-ordered by item index, so the output is deterministic regardless of
//! thread scheduling.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Applies `f` to every item, using up to `threads` OS threads, and returns
/// the results in item order. With `threads <= 1` (or one item) the map runs
/// inline, paying no thread overhead.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some((i, item)) = next else {
                    break;
                };
                let out = f(i, item);
                results.lock().expect("results lock").push((i, out));
            });
        }
    });
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(items.clone(), 4, |_, x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_path_matches_threaded_path() {
        let items: Vec<u64> = (0..37).collect();
        let inline = parallel_map(items.clone(), 1, |i, x| (i as u64) * 1000 + x);
        let threaded = parallel_map(items, 8, |i, x| (i as u64) * 1000 + x);
        assert_eq!(inline, threaded);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(empty, 4, |_, x: u8| x).is_empty());
        assert_eq!(parallel_map(vec![7u8], 4, |_, x| x + 1), vec![8]);
    }
}
