//! A small scoped worker pool for embarrassingly parallel campaign
//! work, the deterministic shard planning the campaign stack shares,
//! and the sealed-record [`codec`] every on-disk format is built on.
//!
//! The whole workspace is offline and dependency-free, so this crate
//! provides the thin slice of `rayon` the campaign stack actually
//! needs: order-preserving parallel map over an index space, built on
//! `std::thread::scope` and an atomic work counter. Tasks are coarse
//! (a trace shard, a zoo design, a block of key candidates), so a
//! mutex-guarded result store costs nothing measurable and keeps the
//! crate `#![forbid(unsafe_code)]`.
//!
//! # Determinism contract
//!
//! Parallel execution must never change results. Every helper here is
//! order-preserving: `par_map(workers, items, f)` returns exactly
//! `items.iter().map(f).collect()` for any worker count, as long as
//! `f` itself depends only on its argument. The campaign layers build
//! on that: work is split into *shards* whose boundaries and seeds
//! ([`ShardPlan`], [`mix_seed`]) depend only on the plan — never on
//! the worker count — so a campaign merged from shard partials is
//! bit-identical whether it ran on one thread or sixteen.
//!
//! # On-disk records
//!
//! [`codec`] is the one little-endian writer, bounds-checked reader,
//! Fletcher-64 seal and `magic + version` header check behind every
//! persisted format (checkpoints, the progress log and the scan
//! cache), plus the shared [`codec::fnv1a`] key hash. It lives in
//! this crate because the crate has no dependencies and every crate
//! that persists state already depends on it.
//!
//! # Example
//!
//! ```
//! let items: Vec<u64> = (0..8).collect();
//! let squares = slm_par::par_map(4, &items, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (respecting cgroup/affinity
/// limits), with a floor of one.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a worker-count knob: `0` means "use the machine"
/// ([`available_workers`]), anything else is taken literally.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        available_workers()
    } else {
        requested
    }
}

/// Maps `0..n` through `f` on up to `workers` threads, returning the
/// results in index order; see [`par_map`] for scheduling and panic
/// semantics.
fn par_map_indexed<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = resolve_workers(workers).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let results = Mutex::new(slots);
    let panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || panic.lock().expect("panic slot poisoned").is_some() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => results.lock().expect("result store poisoned")[i] = Some(r),
                    Err(payload) => {
                        panic
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }
    results
        .into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|slot| slot.expect("every index visited"))
        .collect()
}

/// Maps a slice through `f` on up to `workers` threads, preserving
/// item order in the result.
///
/// Work is handed out dynamically (an atomic next-index counter), so
/// uneven task costs balance across workers. With `workers <= 1` or
/// fewer than two items the map runs inline on the calling thread — no
/// threads are spawned and no ordering question arises. `workers == 0`
/// resolves to the machine's available parallelism.
///
/// # Panics
///
/// If `f` panics on any item, the panic is resumed on the calling
/// thread with its original payload once all workers have stopped.
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(workers, items.len(), |i| f(&items[i]))
}

/// Derives an independent seed for a numbered lane of a campaign.
///
/// The scheme is the same splitmix64 finalizer the in-tree
/// `Rng64::fork` uses: the master seed is perturbed by the lane index
/// times an odd constant and passed through the avalanche rounds, so
/// every lane gets a statistically independent stream and the mapping
/// `(master, lane) → seed` is a pure function — the cornerstone of the
/// parallel determinism contract. Note `mix_seed(s, 0) != s`: even
/// lane 0 is a fresh stream, distinct from any serial use of the
/// master seed itself.
pub fn mix_seed(master: u64, lane: u64) -> u64 {
    let mut z = master
        .rotate_left(17)
        .wrapping_add(lane.wrapping_mul(0xa076_1d64_78bd_642f))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic split of a trace budget into fixed-size shards.
///
/// The shard layout depends only on `(total, shard_size)` — never on
/// how many workers execute it — so the same plan replayed on any
/// thread count produces the same shards in the same index order.
/// Shards are the unit of determinism; workers are the unit of
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total units of work (traces) in the campaign.
    pub total: u64,
    /// Units per shard; the final shard takes the remainder.
    pub shard_size: u64,
}

/// One shard of a [`ShardPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index, `0..plan.shard_count()`.
    pub index: usize,
    /// Global index of the shard's first unit.
    pub start: u64,
    /// Units assigned to this shard.
    pub traces: u64,
}

impl ShardPlan {
    /// A plan covering `total` units in shards of `shard_size`
    /// (clamped to at least 1).
    pub fn new(total: u64, shard_size: u64) -> Self {
        ShardPlan {
            total,
            shard_size: shard_size.max(1),
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        usize::try_from(self.total.div_ceil(self.shard_size)).expect("shard count fits usize")
    }

    /// The shards, in index order.
    pub fn shards(&self) -> Vec<ShardSpec> {
        (0..self.shard_count())
            .map(|index| {
                let start = index as u64 * self.shard_size;
                ShardSpec {
                    index,
                    start,
                    traces: self.shard_size.min(self.total - start),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn balanced_split_is_exact_over_edge_counts() {
        for total in [0u64, 1, 2, 15, 16, 17, 31, 100, 999, 1000, 1001] {
            for parts in [1u64, 2, 3, 15, 16, 17, 64] {
                // at most `parts` shards of near-equal size
                let plan = ShardPlan::new(total, total.div_ceil(parts));
                let shards = plan.shards();
                assert_eq!(
                    shards.iter().map(|s| s.traces).sum::<u64>(),
                    total,
                    "partition of {total} into {parts}"
                );
                assert!(
                    shards.iter().all(|s| s.traces > 0),
                    "no empty shard for {total}/{parts}"
                );
                assert!(
                    shards.len() as u64 <= parts.max(1),
                    "{total} into {parts} made {} shards",
                    shards.len()
                );
                // Contiguous, ordered, gap-free coverage.
                let mut next = 0u64;
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.index, i);
                    assert_eq!(s.start, next);
                    next += s.traces;
                }
                // Near-equal: only the last shard may be smaller, and
                // every other shard has the same size.
                if let Some((last, rest)) = shards.split_last() {
                    assert!(rest.iter().all(|s| s.traces == plan.shard_size));
                    assert!(last.traces <= plan.shard_size);
                }
            }
        }
        assert_eq!(
            ShardPlan::new(10, 0).shards().len(),
            10,
            "shard size 0 clamps to 1"
        );
    }

    #[test]
    fn par_map_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            assert_eq!(par_map(workers, &items, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = par_map_indexed(7, 100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(4, 1, |i| i + 9), vec![9]);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(4, 32, |i| {
                if i == 13 {
                    panic!("unlucky shard");
                }
                i
            })
        })
        .expect_err("must panic");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("wrong payload type");
        assert!(msg.contains("unlucky shard"), "payload was {msg:?}");
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for (total, size) in [
            (0u64, 5u64),
            (1, 5),
            (5, 5),
            (6, 5),
            (500, 7),
            (500, 500),
            (3, 1),
        ] {
            let plan = ShardPlan::new(total, size);
            let shards = plan.shards();
            assert_eq!(shards.len(), plan.shard_count());
            let mut next = 0u64;
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.start, next);
                assert!(s.traces >= 1 || total == 0);
                assert!(s.traces <= size);
                next += s.traces;
            }
            assert_eq!(next, total, "shards must cover the budget exactly");
        }
    }

    #[test]
    fn shard_size_zero_is_clamped() {
        let plan = ShardPlan::new(10, 0);
        assert_eq!(plan.shard_size, 1);
        assert_eq!(plan.shard_count(), 10);
    }

    #[test]
    fn mix_seed_is_pure_and_spreads() {
        assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
        let lanes: Vec<u64> = (0..64).map(|l| mix_seed(42, l)).collect();
        let mut uniq = lanes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), lanes.len(), "lane seeds must not collide");
        assert_ne!(mix_seed(42, 0), 42, "lane 0 is a fresh stream");
        assert_ne!(mix_seed(1, 3), mix_seed(2, 3), "master seed matters");
    }

    #[test]
    fn resolve_workers_zero_means_machine() {
        assert_eq!(resolve_workers(0), available_workers());
        assert_eq!(resolve_workers(5), 5);
        assert!(available_workers() >= 1);
    }
}
