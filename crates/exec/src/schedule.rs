//! Skew-aware task scheduling: LPT (longest-processing-time-first)
//! greedy assignment, and page-range morsel construction.
//!
//! Partition pairs after a skewed partitioning can differ in size by
//! orders of magnitude; naive round-robin then leaves most workers idle
//! while one grinds through the heavy pair. LPT — sort tasks by
//! descending weight, give each to the currently least-loaded worker —
//! is the classic 4/3-approximation to makespan and needs only the
//! per-partition sizes the partition phase already produces.

use std::ops::Range;

/// Assign `weights.len()` tasks to `workers` workers, LPT-greedy.
///
/// Returns one task-index list per worker, each in **descending** weight
/// order — the order the worker should execute them, and the order of
/// the pool's per-worker task lists: the owner takes the largest
/// remaining task from the front while thieves take the smallest from
/// the back. Ties break toward the lower task index and the lower
/// worker id, so the assignment is fully deterministic.
pub fn lpt_assign(weights: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for i in order {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).unwrap();
        load[w] += weights[i];
        lists[w].push(i);
    }
    lists
}

/// Split `num_pages` input pages into morsels of roughly equal size,
/// about `per_worker` morsels per worker (over-decomposed so stealing
/// can rebalance), each at least one page.
pub fn page_morsels(num_pages: usize, workers: usize, per_worker: usize) -> Vec<Range<usize>> {
    if num_pages == 0 {
        return Vec::new();
    }
    let target = (workers.max(1) * per_worker.max(1)).min(num_pages);
    let chunk = num_pages.div_ceil(target);
    (0..num_pages)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(num_pages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_skewed_weights() {
        // One heavy task and many light ones: the heavy task gets a
        // worker almost to itself.
        let weights = [100, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let lists = lpt_assign(&weights, 2);
        let load = |l: &Vec<usize>| l.iter().map(|&i| weights[i]).sum::<u64>();
        assert_eq!(load(&lists[0]) + load(&lists[1]), 200);
        assert!(load(&lists[0]).abs_diff(load(&lists[1])) <= 20);
        // Worker 0 took the heavy task first.
        assert_eq!(lists[0][0], 0);
        // Each list is in descending weight order.
        for l in &lists {
            for pair in l.windows(2) {
                assert!(weights[pair[0]] >= weights[pair[1]]);
            }
        }
    }

    #[test]
    fn lpt_assigns_every_task_exactly_once() {
        let weights: Vec<u64> = (0..37).map(|i| (i * 7919) % 100).collect();
        for workers in [1, 2, 3, 8, 64] {
            let lists = lpt_assign(&weights, workers);
            assert_eq!(lists.len(), workers);
            let mut seen: Vec<usize> = lists.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..37).collect::<Vec<_>>());
        }
    }

    #[test]
    fn morsels_cover_all_pages_without_overlap() {
        for (pages, workers) in [(0, 4), (1, 4), (7, 2), (100, 3), (5, 16)] {
            let m = page_morsels(pages, workers, 4);
            let covered: usize = m.iter().map(|r| r.len()).sum();
            assert_eq!(covered, pages);
            for pair in m.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            if pages > 0 {
                assert_eq!(m[0].start, 0);
                assert_eq!(m.last().unwrap().end, pages);
                assert!(m.len() <= pages.max(1));
            }
        }
    }
}
