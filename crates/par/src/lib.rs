//! # arda-par
//!
//! The workspace-wide parallel execution substrate. Every hot path in the
//! ARDA reproduction — blocked matrix kernels (`arda-linalg`), forest and
//! k-NN fitting (`arda-ml`), RIFS ensemble rounds and the τ-threshold sweep
//! (`arda-select`), soft-join row matching and group-by pre-aggregation
//! (`arda-join` / `arda-table`), join discovery (`arda-discovery`) and
//! join-plan batches (`arda-core`) — funnels through the primitives in this
//! crate instead of hand-rolling threads.
//!
//! ## The work-budget model
//!
//! ARDA's stages are embarrassingly parallel at several nesting levels at
//! once: RIFS injection rounds × forest fits × blocked linalg kernels, or
//! batch joins × per-row soft-join scans. Letting every level spawn its own
//! full complement of workers oversubscribes the machine; pinning inner
//! levels to one worker (the pre-budget approach) starves them whenever the
//! outer level happens to be narrow.
//!
//! A [`Budget`] solves both ends. It combines
//!
//! * a **permit pool** shared by the whole process: the global pool holds
//!   `default_threads() - 1` *spawn permits* (the calling thread is always
//!   the `+1`). A primitive may only spawn a worker while it holds a
//!   [`Permit`]; permits are RAII guards, so a worker that panics or exits
//!   early returns its permit immediately. Total live workers therefore
//!   never exceed the budget, at any nesting depth.
//! * a **nominal width**: the share of the machine this stage should *plan*
//!   for. Chunk layout is computed from the width alone — never from how
//!   many permits were actually granted — so a run that finds the pool
//!   drained produces chunk-for-chunk the same work decomposition (and
//!   bit-identical output) as one that got every permit.
//!
//! [`Budget::split(n)`] derives the width a stage should hand each of its
//! `n` concurrent children (`max(1, width / n)`); the children share the
//! parent's pool, so splitting never mints new permits. The budget-aware
//! primitives do this automatically: a worker executing the body of
//! [`par_map`] sees an *ambient* budget of `width / slots` via
//! [`current_budget`], which every nested `threads = 0` call picks up. The
//! practical consequence for consumers:
//!
//! * pass `threads = 0` everywhere and nesting just works — an 8-wide
//!   budget fanned over 4 RIFS rounds gives each round's forest fit a
//!   2-wide budget, while a lone join in a batch keeps all 8;
//! * call [`Budget::split`] / [`par_map_budget`] directly only when a stage
//!   wants a *different* shape than "even split over my items";
//! * never pin inner stages to 1 worker "to be safe" — the pool already
//!   guarantees no oversubscription, and the pin wastes budget when the
//!   outer fan-out is narrow.
//!
//! ## Design
//!
//! * **Dependency-free.** Built only on [`std::thread::scope`]; workers are
//!   spawned per call and joined before the call returns, so there is no
//!   pool state beyond three atomics, no channels and nothing to shut down.
//! * **Deterministic ordering.** Inputs are split into *contiguous, ordered
//!   chunks*; chunk boundaries depend only on the budget's nominal width.
//!   Workers pull whole chunks from a shared cursor and results are
//!   stitched back together in chunk order. A caller therefore observes the
//!   exact same output `Vec` (bit-for-bit, including floating-point
//!   accumulation order within an element) no matter how many workers ran.
//!   All parallel call sites in the workspace are written so that
//!   *per-element* work is independent, which makes "parallel output ==
//!   sequential output" an invariant the test suite asserts across budgets
//!   {1, 2, 3, 8} (`tests/budget_determinism.rs`) and thread counts
//!   {1, 2, 8} (`tests/par_determinism.rs`).
//! * **One knob.** The global budget size is read **once** from the
//!   `ARDA_THREADS` environment variable (falling back to
//!   [`std::thread::available_parallelism`]). The budget is the only way
//!   to choose a width: a plain primitive's `threads = 0` runs on the
//!   ambient budget, [`current_budget`] reports its width, and
//!   [`threads_for`] drops small inputs to `1`. Tests and benchmarks pin a
//!   width by running the code under test inside [`with_ambient`] with a
//!   [`Budget::isolated`] budget, or resize the global budget with
//!   [`set_default_threads`].
//!
//! ## Choosing a primitive
//!
//! | Shape of work | Primitive |
//! |---|---|
//! | independent items → owned results | [`par_map`] / [`par_map_budget`] |
//! | contiguous row ranges → owned result blocks | [`par_for_rows`] / [`par_for_rows_budget`] |
//! | disjoint in-place writes to one buffer | [`par_chunks_mut`] / [`par_chunks_mut_budget`] |
//!
//! ```
//! let squares = arda_par::par_map(&[1u64, 2, 3, 4], 0, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Explicit budgets for tests / custom stage shapes:
//! let budget = arda_par::Budget::isolated(4);
//! let doubled = arda_par::par_map_budget(&[1u64, 2, 3], &budget, |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cached global default (0 = not yet initialised).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The global budget size: `ARDA_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism. Read once and cached;
/// [`set_default_threads`] overrides it.
pub fn default_threads() -> usize {
    let cached = DEFAULT_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("ARDA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // A benign race: concurrent first calls compute the same value.
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Override the global budget size for this process (used by the benchmark
/// harness to sweep budgets, and by tests). The global permit pool resizes
/// immediately; permits already granted are honoured until released.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Permit pool
// ---------------------------------------------------------------------------

/// A pool of spawn permits. `live` counts *extra* workers currently alive
/// (the calling thread never holds a permit), so the total worker count is
/// bounded by `capacity() + 1 == budget`.
#[derive(Debug)]
struct Pool {
    /// Spawned workers currently live.
    live: AtomicUsize,
    /// High-water mark of `live` since the last counter reset.
    peak: AtomicUsize,
    /// Permits granted since the last counter reset.
    spawns: AtomicUsize,
    /// `Some(n)` = fixed capacity (isolated pools); `None` = track
    /// `default_threads() - 1` dynamically (the global pool).
    fixed: Option<usize>,
}

impl Pool {
    fn new(fixed: Option<usize>) -> Pool {
        Pool {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            spawns: AtomicUsize::new(0),
            fixed,
        }
    }

    fn capacity(&self) -> usize {
        self.fixed
            .unwrap_or_else(|| default_threads().saturating_sub(1))
    }

    fn try_spawn(self: &Arc<Self>) -> Option<Permit> {
        let cap = self.capacity();
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return None;
            }
            match self
                .live
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(cur + 1, Ordering::AcqRel);
                    self.spawns.fetch_add(1, Ordering::Relaxed);
                    return Some(Permit {
                        pool: Arc::clone(self),
                    });
                }
                Err(observed) => cur = observed,
            }
        }
    }
}

fn global_pool() -> &'static Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(Pool::new(None)))
}

/// RAII guard for one spawned worker. Dropping it — on normal worker exit,
/// early return, or unwind after a panic — returns the permit to the pool.
#[derive(Debug)]
pub struct Permit {
    pool: Arc<Pool>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.pool.live.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

/// A work budget: a nominal planning `width` plus a handle on the permit
/// pool that actually bounds spawning. See the crate docs for the model.
#[derive(Debug, Clone)]
pub struct Budget {
    pool: Arc<Pool>,
    width: usize,
}

impl Budget {
    /// The process-wide budget: width [`default_threads`], permits from the
    /// global pool.
    pub fn global() -> Budget {
        Budget {
            pool: Arc::clone(global_pool()),
            width: default_threads(),
        }
    }

    /// A budget with its own private permit pool of `width - 1` spawn
    /// permits. For tests and benchmarks that must not share permits with
    /// the rest of the process.
    pub fn isolated(width: usize) -> Budget {
        let width = width.max(1);
        Budget {
            pool: Arc::new(Pool::new(Some(width - 1))),
            width,
        }
    }

    /// Nominal planning width (≥ 1). Chunk layouts derive from this alone.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The budget each of `stages` concurrent children should plan with:
    /// same pool, width `max(1, width / stages)`. Deterministic — it never
    /// looks at pool occupancy.
    pub fn split(&self, stages: usize) -> Budget {
        Budget {
            pool: Arc::clone(&self.pool),
            width: (self.width / stages.max(1)).max(1),
        }
    }

    /// Same pool, explicit width override (≥ 1). Used by the `threads != 0`
    /// escape hatch of the plain primitives.
    pub fn with_width(&self, width: usize) -> Budget {
        Budget {
            pool: Arc::clone(&self.pool),
            width: width.max(1),
        }
    }

    /// Try to reserve one spawn permit. Non-blocking: `None` means the pool
    /// is at capacity and the caller should do the work inline instead.
    pub fn try_spawn(&self) -> Option<Permit> {
        self.pool.try_spawn()
    }

    /// Spawned workers currently live in this budget's pool.
    pub fn live_workers(&self) -> usize {
        self.pool.live.load(Ordering::Acquire)
    }

    /// High-water mark of live spawned workers since the last reset. The
    /// oversubscription invariant is `peak_workers() + 1 <= budget`.
    pub fn peak_workers(&self) -> usize {
        self.pool.peak.load(Ordering::Acquire)
    }

    /// Permits granted since the last reset (instrumentation: proves the
    /// parallel paths actually engaged).
    pub fn total_spawns(&self) -> usize {
        self.pool.spawns.load(Ordering::Acquire)
    }

    /// Reset the `peak` / `spawns` instrumentation counters (peak resets to
    /// the current live count).
    pub fn reset_counters(&self) {
        self.pool
            .peak
            .store(self.pool.live.load(Ordering::Acquire), Ordering::Release);
        self.pool.spawns.store(0, Ordering::Release);
    }
}

/// Spawned workers currently live in the **global** pool.
pub fn live_spawned_workers() -> usize {
    Budget::global().live_workers()
}

/// High-water mark of live spawned workers in the global pool since the
/// last [`reset_spawn_counters`]. Total concurrent workers (spawned +
/// calling thread) never exceed `peak_spawned_workers() + 1`.
pub fn peak_spawned_workers() -> usize {
    Budget::global().peak_workers()
}

/// Global-pool permits granted since the last [`reset_spawn_counters`].
pub fn total_spawned_workers() -> usize {
    Budget::global().total_spawns()
}

/// Reset the global pool's instrumentation counters.
pub fn reset_spawn_counters() {
    Budget::global().reset_counters();
}

// ---------------------------------------------------------------------------
// Ambient budget propagation
// ---------------------------------------------------------------------------

thread_local! {
    static AMBIENT: RefCell<Option<Budget>> = const { RefCell::new(None) };
}

/// The budget ambient on this thread: the split installed by the enclosing
/// budget-aware primitive, or [`Budget::global`] at top level.
pub fn current_budget() -> Budget {
    AMBIENT
        .with(|a| a.borrow().clone())
        .unwrap_or_else(Budget::global)
}

/// Run `f` with `budget` installed as this thread's ambient budget,
/// restoring the previous ambient afterwards (also on unwind). Everything
/// `f` runs — however deeply nested — plans with `budget`, so this is how a
/// test pins a width: `with_ambient(&Budget::isolated(n), || ...)`.
pub fn with_ambient<R>(budget: &Budget, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Budget>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            AMBIENT.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = AMBIENT.with(|a| a.replace(Some(budget.clone())));
    let _restore = Restore(prev);
    f()
}

/// The shared small-input policy for every parallel hot path: stay
/// sequential (`1`) when the kernel touches fewer than `min_work` work
/// units (thread spawn would dominate), and defer to the ambient budget
/// (`0`) above that. `min_work` is clamped to at least 1 so `work == 0` can
/// never request a full budget's worth of workers for nothing. The returned
/// value is a `threads` argument for the primitives in this crate.
#[inline]
pub fn threads_for(work: usize, min_work: usize) -> usize {
    if work < min_work.max(1) {
        1
    } else {
        0
    }
}

/// The budget a plain primitive should run under: the ambient budget, with
/// an explicit non-zero `threads` overriding the planning width.
fn budget_for(threads: usize) -> Budget {
    let ambient = current_budget();
    if threads == 0 {
        ambient
    } else {
        ambient.with_width(threads)
    }
}

// ---------------------------------------------------------------------------
// Budget-aware primitives
// ---------------------------------------------------------------------------

/// Map `f` over `items` under `budget`, returning results in input order.
/// `f` receives the item's index, so callers can derive per-item seeds.
///
/// The items are split into `min(width, len)` contiguous chunks; the caller
/// plus up to `chunks - 1` permitted workers pull whole chunks from a
/// shared cursor and results are stitched back in chunk order, so the
/// output is identical to the sequential `items.iter().enumerate().map(..)`
/// for any budget and any permit availability. Each chunk body runs with
/// the ambient budget set to `budget.split(chunks)`.
pub fn par_map_budget<T, U, F>(items: &[T], budget: &Budget, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let slots = budget.width().min(n).max(1);
    let inner = budget.split(slots);
    let sequential = || {
        with_ambient(&inner, || {
            items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
        })
    };
    if slots <= 1 || n <= 1 {
        return sequential();
    }
    let chunk = n.div_ceil(slots);
    let n_chunks = n.div_ceil(chunk);
    let permits: Vec<Permit> = (1..n_chunks).map_while(|_| budget.try_spawn()).collect();
    if permits.is_empty() {
        return sequential();
    }
    let next = AtomicUsize::new(0);
    // Pull whole chunks until the cursor runs out; chunk boundaries are
    // fixed by `slots`, only the chunk→worker assignment is dynamic.
    let run_chunks = || {
        let mut parts: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                return parts;
            }
            let lo = ci * chunk;
            let hi = ((ci + 1) * chunk).min(n);
            parts.push((
                ci,
                items[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(j, t)| f(lo + j, t))
                    .collect(),
            ));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = permits
            .into_iter()
            .map(|permit| {
                let run_chunks = &run_chunks;
                let inner = &inner;
                scope.spawn(move || {
                    let _permit = permit;
                    with_ambient(inner, run_chunks)
                })
            })
            .collect();
        let run_chunks = &run_chunks;
        let mut parts = with_ambient(&inner, run_chunks);
        for h in handles {
            parts.extend(h.join().expect("par_map worker panicked"));
        }
        parts.sort_unstable_by_key(|(ci, _)| *ci);
        let mut out = Vec::with_capacity(n);
        for (_, mut p) in parts {
            out.append(&mut p);
        }
        out
    })
}

/// Split `0..n_rows` into `min(width, n_rows)` contiguous ranges under
/// `budget`, run `f` on each range concurrently and concatenate the
/// returned blocks in range order.
///
/// The concatenation order is deterministic for any budget. Output indices
/// line up with row indices only when `f` returns exactly one item per row;
/// callers that filter rows (e.g. the k-NN scan) get the same *sequence* as
/// a sequential scan, not a per-row mapping.
pub fn par_for_rows_budget<U, F>(n_rows: usize, budget: &Budget, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> Vec<U> + Sync,
{
    let slots = budget.width().min(n_rows.max(1)).max(1);
    let inner = budget.split(slots);
    if slots <= 1 {
        return with_ambient(&inner, || f(0..n_rows));
    }
    let chunk = n_rows.div_ceil(slots);
    let n_chunks = n_rows.div_ceil(chunk);
    let permits: Vec<Permit> = (1..n_chunks).map_while(|_| budget.try_spawn()).collect();
    if permits.is_empty() {
        return with_ambient(&inner, || f(0..n_rows));
    }
    let next = AtomicUsize::new(0);
    let run_chunks = || {
        let mut parts: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                return parts;
            }
            // Both ends clamp so a trailing chunk gets an empty range
            // (never an inverted one) when `chunk` over-covers `n_rows`.
            let lo = (ci * chunk).min(n_rows);
            let hi = ((ci + 1) * chunk).min(n_rows);
            parts.push((ci, f(lo..hi)));
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = permits
            .into_iter()
            .map(|permit| {
                let run_chunks = &run_chunks;
                let inner = &inner;
                scope.spawn(move || {
                    let _permit = permit;
                    with_ambient(inner, run_chunks)
                })
            })
            .collect();
        let run_chunks = &run_chunks;
        let mut parts = with_ambient(&inner, run_chunks);
        for h in handles {
            parts.extend(h.join().expect("par_for_rows worker panicked"));
        }
        parts.sort_unstable_by_key(|(ci, _)| *ci);
        let mut out = Vec::with_capacity(n_rows);
        for (_, mut p) in parts {
            out.append(&mut p);
        }
        out
    })
}

/// Process disjoint in-place chunks of `data` concurrently under `budget`:
/// the buffer is split into consecutive chunks of `chunk_len` elements (the
/// last may be shorter) and `f(start_offset, chunk)` runs once per chunk.
///
/// Chunk boundaries are fixed by `chunk_len`; whole contiguous spans of
/// chunks are distributed over the caller plus however many workers the
/// pool permits, so outputs (positional, disjoint writes) are identical for
/// any budget. This is the write-side primitive behind the blocked matrix
/// kernels: a row-major output buffer with `chunk_len = row_len ×
/// rows_per_block` gives every worker an exclusive band of output rows.
pub fn par_chunks_mut_budget<T, F>(data: &mut [T], chunk_len: usize, budget: &Budget, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len).max(1);
    let slots = budget.width().min(n_chunks).max(1);
    let inner = budget.split(slots);
    let mut permits: Vec<Permit> = Vec::new();
    if slots > 1 {
        permits.extend((1..slots).map_while(|_| budget.try_spawn()));
    }
    if permits.is_empty() {
        with_ambient(&inner, || {
            for (ci, ch) in data.chunks_mut(chunk_len).enumerate() {
                f(ci * chunk_len, ch);
            }
        });
        return;
    }
    let workers = permits.len() + 1;
    let span = n_chunks.div_ceil(workers) * chunk_len;
    std::thread::scope(|scope| {
        let mut permits = permits.into_iter();
        let mut own: Option<(usize, &mut [T])> = None;
        for (wi, wspan) in data.chunks_mut(span).enumerate() {
            // The caller keeps the first span and processes it below while
            // the permitted workers run the rest.
            if own.is_none() {
                own = Some((wi, wspan));
            } else {
                let permit = permits.next().expect("spans never exceed workers");
                let f = &f;
                let inner = &inner;
                scope.spawn(move || {
                    let _permit = permit;
                    with_ambient(inner, || {
                        for (ci, ch) in wspan.chunks_mut(chunk_len).enumerate() {
                            f(wi * span + ci * chunk_len, ch);
                        }
                    })
                });
            }
        }
        if let Some((wi, wspan)) = own {
            with_ambient(&inner, || {
                for (ci, ch) in wspan.chunks_mut(chunk_len).enumerate() {
                    f(wi * span + ci * chunk_len, ch);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Plain primitives (ambient budget + explicit-width escape hatch)
// ---------------------------------------------------------------------------

/// Map `f` over `items` on the ambient budget (`threads = 0`) or an
/// explicit planning width, returning results in input order. See
/// [`par_map_budget`].
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_budget(items, &budget_for(threads), f)
}

/// Row-range fan-out on the ambient budget (`threads = 0`) or an explicit
/// planning width. See [`par_for_rows_budget`].
pub fn par_for_rows<U, F>(n_rows: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> Vec<U> + Sync,
{
    par_for_rows_budget(n_rows, &budget_for(threads), f)
}

/// Disjoint in-place chunk processing on the ambient budget (`threads = 0`)
/// or an explicit planning width. See [`par_chunks_mut_budget`].
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_budget(data, chunk_len, &budget_for(threads), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x, "index matches item position");
                x * 3 + 1
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_edge_cases() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
        // More threads than items.
        assert_eq!(par_map(&[1u32, 2], 16, |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn par_for_rows_concatenates_in_range_order() {
        for threads in [1, 2, 5, 8] {
            let out = par_for_rows(103, threads, |range| range.collect::<Vec<usize>>());
            assert_eq!(out, (0..103).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(par_for_rows(0, 4, |r| r.collect::<Vec<usize>>()).is_empty());
    }

    #[test]
    fn par_for_rows_never_hands_out_inverted_ranges() {
        // 5 rows over 4 workers: chunk = 2, the last chunk's span starts
        // past n_rows and must clamp to an empty range, not 6..5.
        let out = par_for_rows(5, 4, |range| {
            assert!(range.start <= range.end, "inverted range {range:?}");
            let v: Vec<usize> = (range.start..range.end).collect();
            // Slicing with the range must also be safe.
            let data = [0usize, 1, 2, 3, 4];
            assert_eq!(&data[range], v.as_slice());
            v
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn par_chunks_mut_covers_every_chunk_once() {
        for threads in [1, 2, 3, 8] {
            let mut data = vec![0usize; 97];
            par_chunks_mut(&mut data, 10, threads, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = start + i;
                }
            });
            let expected: Vec<usize> = (0..97).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_chunk_longer_than_data() {
        let mut data = vec![1u8; 5];
        par_chunks_mut(&mut data, 100, 4, |start, chunk| {
            assert_eq!(start, 0);
            for v in chunk.iter_mut() {
                *v = 2;
            }
        });
        assert_eq!(data, vec![2; 5]);
    }

    #[test]
    fn set_default_resizes_the_global_budget() {
        set_default_threads(3);
        assert_eq!(current_budget().width(), 3);
        set_default_threads(0); // clamps to 1
        assert_eq!(current_budget().width(), 1);
    }

    // ---- Budget unit tests -------------------------------------------------

    #[test]
    fn budget_split_arithmetic() {
        let b = Budget::isolated(8);
        assert_eq!(b.width(), 8);
        assert_eq!(b.split(1).width(), 8);
        assert_eq!(b.split(2).width(), 4);
        assert_eq!(b.split(3).width(), 2);
        assert_eq!(b.split(8).width(), 1);
        assert_eq!(b.split(9).width(), 1, "splits never go below 1");
        assert_eq!(b.split(0).width(), 8, "0 stages clamps to 1");
        // Splits of splits keep dividing and share the pool.
        assert_eq!(b.split(2).split(2).width(), 2);
        assert_eq!(Budget::isolated(0).width(), 1, "zero width clamps to 1");
        assert_eq!(b.with_width(3).width(), 3);
        assert_eq!(b.with_width(0).width(), 1);
    }

    #[test]
    fn permits_are_bounded_and_returned_on_drop() {
        let b = Budget::isolated(3); // 2 spawn permits
        let p1 = b.try_spawn().expect("first permit");
        let p2 = b.try_spawn().expect("second permit");
        assert!(b.try_spawn().is_none(), "pool exhausted at width - 1");
        assert_eq!(b.live_workers(), 2);
        drop(p1);
        assert_eq!(b.live_workers(), 1);
        let p3 = b.try_spawn().expect("permit returned by drop is reusable");
        drop(p2);
        drop(p3);
        assert_eq!(b.live_workers(), 0);
        assert_eq!(b.peak_workers(), 2);
        assert_eq!(b.total_spawns(), 3);
        b.reset_counters();
        assert_eq!(b.peak_workers(), 0);
        assert_eq!(b.total_spawns(), 0);
    }

    #[test]
    fn split_budgets_share_one_pool() {
        let b = Budget::isolated(4); // 3 permits shared by every split
        let child = b.split(2);
        let _p1 = child.try_spawn().unwrap();
        let _p2 = child.try_spawn().unwrap();
        let _p3 = b.try_spawn().unwrap();
        assert!(b.try_spawn().is_none());
        assert!(child.try_spawn().is_none(), "children drain the same pool");
        assert_eq!(b.live_workers(), 3);
    }

    #[test]
    fn zero_and_one_permit_budgets_run_sequentially() {
        for width in [0usize, 1] {
            let b = Budget::isolated(width);
            let out = par_map_budget(&[1u32, 2, 3], &b, |_, &x| x * 10);
            assert_eq!(out, vec![10, 20, 30]);
            assert_eq!(b.total_spawns(), 0, "width {width} must not spawn");
            assert_eq!(b.live_workers(), 0);
        }
    }

    #[test]
    fn permit_returned_when_worker_panics() {
        let b = Budget::isolated(4);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_budget(&items, &b, |i, &x| {
                if i == 40 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(result.is_err(), "worker panic propagates");
        assert_eq!(b.live_workers(), 0, "permits returned after panic unwind");
    }

    #[test]
    fn budget_peak_never_exceeds_width_minus_one() {
        let b = Budget::isolated(4);
        let items: Vec<u64> = (0..256).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for _ in 0..8 {
            assert_eq!(par_map_budget(&items, &b, |_, &x| x * x), expected);
        }
        assert!(b.peak_workers() <= 3, "peak {} > 3", b.peak_workers());
        assert_eq!(b.live_workers(), 0);
    }

    #[test]
    fn nested_calls_inherit_split_ambient_budget() {
        let b = Budget::isolated(8);
        // 2 slots → each item body plans with width 8 / 2 = 4.
        let widths = par_map_budget(&[0u8, 1], &b, |_, _| current_budget().width());
        assert_eq!(widths, vec![4, 4]);
        // A lone item keeps the whole budget.
        let widths = par_map_budget(&[0u8], &b, |_, _| current_budget().width());
        assert_eq!(widths, vec![8]);
        // Nested par_map with threads = 0 picks the ambient split up and
        // splits again; results stay ordered.
        let out = par_map_budget(&[10u64, 20], &b, |_, &base| {
            let inner: Vec<u64> = par_map(&[1u64, 2, 3], 0, |_, &x| base + x);
            inner
        });
        assert_eq!(out, vec![vec![11, 12, 13], vec![21, 22, 23]]);
        assert_eq!(b.live_workers(), 0);
    }

    #[test]
    fn threads_for_clamps_empty_work() {
        // work = 0 must never defer to the full budget, even with the
        // degenerate min_work = 0 that previously let it through.
        assert_eq!(threads_for(0, 0), 1);
        assert_eq!(threads_for(0, 100), 1);
        // At or above the (clamped) threshold → ambient budget.
        assert_eq!(threads_for(1, 0), 0);
        assert_eq!(threads_for(100, 100), 0);
        assert_eq!(threads_for(99, 100), 1);
    }

    #[test]
    fn threads_for_feeds_budget_planning() {
        let b = Budget::isolated(4);
        with_ambient(&b, || {
            // Small work → sequential regardless of the ambient budget.
            assert_eq!(budget_for(threads_for(10, 1000)).width(), 1);
            // Large work → the ambient width.
            assert_eq!(budget_for(threads_for(10_000, 1000)).width(), 4);
        });
    }

    #[test]
    fn budget_outputs_identical_across_widths_and_split_shapes() {
        let items: Vec<u64> = (0..145).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 7 + i as u64)
            .collect();
        for width in [1usize, 2, 3, 8] {
            let b = Budget::isolated(width);
            let got = par_map_budget(&items, &b, |i, &x| x * 7 + i as u64);
            assert_eq!(got, reference, "width={width}");
            for stages in [1usize, 2, 5] {
                let got = par_map_budget(&items, &b.split(stages), |i, &x| x * 7 + i as u64);
                assert_eq!(got, reference, "width={width} split={stages}");
            }
        }
    }

    #[test]
    fn par_for_rows_and_chunks_mut_budget_variants_deterministic() {
        for width in [1usize, 2, 3, 8] {
            let b = Budget::isolated(width);
            let rows = par_for_rows_budget(103, &b, |r| r.collect::<Vec<usize>>());
            assert_eq!(rows, (0..103).collect::<Vec<_>>(), "width={width}");
            let mut data = vec![0usize; 97];
            par_chunks_mut_budget(&mut data, 10, &b, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = start + i;
                }
            });
            assert_eq!(data, (0..97).collect::<Vec<_>>(), "width={width}");
            assert_eq!(b.live_workers(), 0, "width={width}");
        }
    }
}
