//! Shared thread-pool executor for every parallel workload in the
//! workspace.
//!
//! Two execution shapes cover everything the simulators and solvers need:
//!
//! * [`run_rounds`] — a **persistent**, barrier-synchronized pool of scoped
//!   workers for Jacobi-style fixed-point iteration: each round every worker
//!   recomputes its chunk of a shared iterate from the *previous* iterate,
//!   in contiguous blocks a kernel can keep cache-resident, the chunks are
//!   published, and a coordinator epilogue decides termination. One pool
//!   serves every round of a solve (value iteration sweeps,
//!   backward-induction stages, policy evaluation), so thread-spawn cost is
//!   paid once per solve, not once per round.
//! * [`parallel_map`] — one-shot fan-out of independent coarse jobs
//!   (per-RSU MDP compiles and solves, experiment-grid cells) over an
//!   atomically-shared work queue, with results returned in input order.
//!
//! Both shapes are **deterministic**: every job/chunk computes from
//! immutable inputs into its own output slot, so results are bit-for-bit
//! identical no matter how many workers run (including the serial loop a
//! single worker runs on the calling thread), and per-chunk round
//! stats are folded in worker-index order, never in scheduling-dependent
//! arrival order (see [`RoundStat`] for the exact guarantee). Panics
//! inside a worker poison the pool and re-raise on the calling thread
//! instead of deadlocking the barrier protocol.
//!
//! Callers size both shapes with [`worker_count`]; with one worker both
//! entry points run their serial loops and create no thread.
//! [`serialized`] is the one way to keep a call tree on the calling
//! thread: every [`worker_count`] inside it returns 1.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A mergeable per-round reduction computed across worker chunks (e.g. the
/// sup-norm change of a sweep). The identity must be the neutral element of
/// [`merge`](RoundStat::merge).
///
/// Per-chunk stats are folded in worker-index order, so any reduction is
/// deterministic run-to-run for a given worker count. Only reductions
/// whose merge is order- and grouping-independent (max, min, logical
/// and/or — not floating-point sums) are additionally bit-identical
/// *across* worker counts, because the chunk partition itself changes
/// with the worker count.
pub trait RoundStat: Clone + Send {
    /// The neutral element merged chunks start from.
    fn identity() -> Self;
    /// Folds another chunk's reduction into this one.
    fn merge(&mut self, other: &Self);
}

/// No-op stat for rounds that need no reduction (e.g. fixed-horizon
/// stage backups).
impl RoundStat for () {
    fn identity() -> Self {}
    fn merge(&mut self, _other: &Self) {}
}

/// Result of a [`run_rounds`] loop.
#[derive(Debug, Clone)]
pub struct RoundOutcome<T, R> {
    /// Final iterate.
    pub values: Vec<T>,
    /// Rounds performed.
    pub rounds: usize,
    /// Stat of the final round (`None` when no round ran).
    pub last: Option<R>,
    /// Whether the epilogue signalled convergence before `max_rounds`.
    pub converged: bool,
}

/// Upper bound on pool fan-out; the workloads are memory-bound, so very
/// wide pools stop paying for themselves.
const MAX_WORKERS: usize = 16;

/// Total pools actually spawned by [`run_rounds`] (monotone; test hook for
/// asserting pool reuse, e.g. "one pool per solve").
static POOLS_CREATED: AtomicUsize = AtomicUsize::new(0);

/// Worker-count override installed by [`force_workers`] (0 = automatic).
static FORCED_WORKERS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Whether the current thread is a pool worker. Automatic sizing
    /// ([`worker_count`]) refuses to fan out from inside a pool: the outer
    /// fan-out already owns the hardware, and nesting would oversubscribe
    /// it with `workers²` threads (each with its own barrier traffic).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is one of the executor's own pool workers.
pub fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(|flag| flag.get())
}

/// Runs `f` with automatic fan-out suppressed on this thread: every
/// [`worker_count`] call made (directly or transitively) inside `f`
/// returns 1, exactly as if `f` were already running on a pool worker.
/// Explicit worker counts passed straight to [`run_rounds`] /
/// [`parallel_map`] are unaffected.
///
/// Callers that promise "fully serial" execution (e.g. an experiment
/// plan pinned to 1 worker) wrap their work in this so nested layers —
/// per-RSU solves, sweep pools — stay on the calling thread too.
pub fn serialized<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL_WORKER.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Number of pools spawned by [`run_rounds`] since process start.
///
/// Serial executions (1 worker) spawn no pool and do not count. Intended
/// for tests asserting pool reuse; see [`force_workers`] for driving the
/// pooled path on single-CPU hosts.
pub fn pools_created() -> usize {
    POOLS_CREATED.load(Ordering::SeqCst)
}

/// Overrides the worker count [`worker_count`] computes (test/CI hook so
/// single-CPU hosts can exercise the pooled code paths).
///
/// `None` restores automatic sizing. The override is process-global and
/// only applies where parallelism is allowed (it never forces a caller
/// that requested serial execution, or one inside [`serialized`], onto
/// the pool). Results are bit-for-bit identical either way; only
/// scheduling changes.
pub fn force_workers(workers: Option<usize>) {
    FORCED_WORKERS.store(workers.unwrap_or(0).min(64), Ordering::SeqCst);
}

/// Decides how many workers a workload of `n_items` items should fan out
/// across: at most one per hardware thread, at most one per `min_per_worker`
/// items (so synchronization never dominates the work), capped at 16.
///
/// Returns 1 — run on the calling thread, no pool — when `fan_out` is
/// false (the workload has nothing worth splitting) or the caller is
/// already running *on* a pool worker or inside [`serialized`] (the outer
/// fan-out owns the hardware; nesting would oversubscribe it). An override installed via
/// [`force_workers`] takes precedence over the automatic sizing (but never
/// over `fan_out == false` or the nesting guard).
///
/// Workloads too small to split (fewer than `2 * min_per_worker` items)
/// return 1 before the hardware is queried: on Linux
/// `available_parallelism` re-reads the cgroup CPU quota and the affinity
/// mask on every call, which would dominate a tiny inline job. The count
/// is never cached, since both can change at run time.
pub fn worker_count(n_items: usize, fan_out: bool, min_per_worker: usize) -> usize {
    if !fan_out || on_pool_worker() {
        return 1;
    }
    let forced = FORCED_WORKERS.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    let by_work = n_items / min_per_worker.max(1);
    if by_work < 2 {
        return 1;
    }
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hardware.min(by_work).clamp(1, MAX_WORKERS)
}

/// Barrier-synchronized Jacobi round loop over a shared iterate.
///
/// Each round hands `task` the iterate in contiguous element ranges of at
/// most `block` elements (`task(range, &old, &mut new[range], &mut stat)`),
/// so a kernel can keep a range's working set cache-resident and expose
/// loops the autovectorizer can batch; `block = 1` is the per-element form.
/// Then `epilogue(&mut new, &round_stat, round)` post-processes the fresh
/// iterate (e.g. normalizes it, harvests a stage) and decides convergence;
/// the loop stops after `max_rounds` rounds otherwise. Because every range
/// is computed from the *previous* iterate only, the parallel schedule is
/// bit-for-bit identical to the serial one. Ranges are visited in
/// ascending order within each worker chunk, and worker chunk boundaries
/// do not depend on `block`, so results — including the fold order of
/// `stat` — are also identical for any `block`.
///
/// With `workers >= 2` a **persistent** pool of scoped workers is spawned
/// once and reused for every round: per round the workers (1) read the
/// shared iterate and recompute their chunk into a worker-local buffer,
/// (2) publish the chunk, and the coordinator (3) runs the epilogue and
/// decides termination — three barrier phases, no per-round allocation
/// anywhere. A panic inside `task` poisons the pool
/// (workers keep honouring the barrier protocol) and re-raises on the
/// calling thread once every worker has exited.
pub fn run_rounds<T, R, B, E>(
    values: Vec<T>,
    workers: usize,
    max_rounds: usize,
    block: usize,
    task: B,
    epilogue: E,
) -> RoundOutcome<T, R>
where
    T: Copy + Default + Send + Sync,
    R: RoundStat,
    B: Fn(std::ops::Range<usize>, &[T], &mut [T], &mut R) + Sync,
    E: FnMut(&mut [T], &R, usize) -> bool,
{
    let block = block.max(1);
    if workers >= 2 {
        return run_rounds_pooled(values, workers, max_rounds, block, task, epilogue);
    }
    run_rounds_serial(values, max_rounds, block, task, epilogue)
}

/// Runs `task` over `lo..hi` in ascending sub-ranges of at most `block`
/// elements, writing each sub-range into the matching slice of `out`
/// (whose index 0 corresponds to element `lo`).
#[inline]
fn run_blocks<T, R>(
    lo: usize,
    hi: usize,
    block: usize,
    old: &[T],
    out: &mut [T],
    stat: &mut R,
    task: &impl Fn(std::ops::Range<usize>, &[T], &mut [T], &mut R),
) {
    let mut start = lo;
    while start < hi {
        let end = start.saturating_add(block).min(hi);
        task(start..end, old, &mut out[start - lo..end - lo], stat);
        start = end;
    }
}

fn run_rounds_serial<T, R, B, E>(
    mut values: Vec<T>,
    max_rounds: usize,
    block: usize,
    task: B,
    mut epilogue: E,
) -> RoundOutcome<T, R>
where
    T: Copy + Default,
    R: RoundStat,
    B: Fn(std::ops::Range<usize>, &[T], &mut [T], &mut R),
    E: FnMut(&mut [T], &R, usize) -> bool,
{
    let n = values.len();
    let mut scratch = vec![T::default(); n];
    let mut rounds = 0;
    let mut last = None;
    let mut converged = false;
    while rounds < max_rounds {
        rounds += 1;
        let mut stat = R::identity();
        run_blocks(0, n, block, &values, &mut scratch, &mut stat, &task);
        let stop = epilogue(&mut scratch, &stat, rounds);
        std::mem::swap(&mut values, &mut scratch);
        last = Some(stat);
        if stop {
            converged = true;
            break;
        }
    }
    RoundOutcome {
        values,
        rounds,
        last,
        converged,
    }
}

/// The persistent pool behind [`run_rounds`].
fn run_rounds_pooled<T, R, B, E>(
    values: Vec<T>,
    workers: usize,
    max_rounds: usize,
    block: usize,
    task: B,
    mut epilogue: E,
) -> RoundOutcome<T, R>
where
    T: Copy + Default + Send + Sync,
    R: RoundStat,
    B: Fn(std::ops::Range<usize>, &[T], &mut [T], &mut R) + Sync,
    E: FnMut(&mut [T], &R, usize) -> bool,
{
    use std::sync::atomic::AtomicBool;
    use std::sync::{Barrier, Mutex, RwLock};

    POOLS_CREATED.fetch_add(1, Ordering::SeqCst);

    let n = values.len();
    let chunk = n.div_ceil(workers).max(1);
    let shared = RwLock::new(values);
    let barrier = Barrier::new(workers + 1);
    let done = AtomicBool::new(false);
    let poisoned = AtomicBool::new(false);
    // One stat slot per worker, folded by the coordinator in worker-index
    // order — never in scheduling-dependent arrival order — so even a
    // non-commutative reduction is deterministic run-to-run for a given
    // worker count.
    let round_stats: Vec<Mutex<Option<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();

    let mut rounds = 0;
    let mut last = None;
    let mut converged = false;
    let mut worker_panicked = false;
    let mut epilogue_panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        for (worker, stat_slot) in round_stats.iter().enumerate() {
            let lo = (worker * chunk).min(n);
            let hi = ((worker + 1) * chunk).min(n);
            let shared = &shared;
            let barrier = &barrier;
            let done = &done;
            let poisoned = &poisoned;
            let task = &task;
            scope.spawn(move || {
                IN_POOL_WORKER.with(|flag| flag.set(true));
                let mut out = vec![T::default(); hi - lo];
                loop {
                    barrier.wait(); // phase 1: released into a round
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let compute = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut local = R::identity();
                        // lint:allow(panic-hygiene): a poisoned round lock means a
                        // sibling worker panicked; propagating is the pool's contract.
                        let old = shared.read().expect("round lock");
                        run_blocks(lo, hi, block, &old, &mut out, &mut local, task);
                        local
                    }));
                    match compute {
                        // lint:allow(panic-hygiene): stat slots are poisoned only by a
                        // worker panic, which the pool re-raises.
                        Ok(local) => *stat_slot.lock().expect("stat slot") = Some(local),
                        Err(_) => poisoned.store(true, Ordering::SeqCst),
                    }
                    barrier.wait(); // phase 2: all chunks computed
                                    // lint:allow(panic-hygiene): see the read() above — poisoning
                                    // only follows a sibling panic the pool re-raises.
                    shared.write().expect("round lock")[lo..hi].copy_from_slice(&out);
                    barrier.wait(); // phase 3: iterate published
                }
            });
        }

        // Coordinator (this thread).
        loop {
            if rounds == max_rounds {
                done.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
            barrier.wait(); // phase 1
            barrier.wait(); // phase 2
            barrier.wait(); // phase 3
            if poisoned.load(Ordering::SeqCst) {
                worker_panicked = true;
                done.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
            rounds += 1;
            let stat = {
                let mut merged = R::identity();
                for slot in &round_stats {
                    // lint:allow(panic-hygiene): stat-slot poisoning only follows a
                    // worker panic the pool re-raises.
                    if let Some(local) = slot.lock().expect("stat slot").take() {
                        merged.merge(&local);
                    }
                }
                merged
            };
            // The epilogue is arbitrary caller code; a panic here must not
            // unwind past the barrier protocol, or the workers (already
            // waiting on phase 1 of the next round) would block the scope's
            // implicit join forever. Catch it, release the workers through
            // the shutdown path, and re-raise once they have exited.
            let stop = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // lint:allow(panic-hygiene): round-lock poisoning only follows a
                // worker panic the pool re-raises.
                let mut iterate = shared.write().expect("round lock");
                epilogue(&mut iterate, &stat, rounds)
            })) {
                Ok(stop) => stop,
                Err(payload) => {
                    epilogue_panic = Some(payload);
                    done.store(true, Ordering::SeqCst);
                    barrier.wait();
                    break;
                }
            };
            last = Some(stat);
            if stop {
                converged = true;
                done.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
    });

    // All workers have exited cleanly; now it is safe to re-raise.
    if let Some(payload) = epilogue_panic {
        std::panic::resume_unwind(payload);
    }
    assert!(
        !worker_panicked,
        "a pool worker panicked (round task closure)"
    );

    RoundOutcome {
        // lint:allow(panic-hygiene): the worker-panic assert above already
        // fired if the lock could be poisoned.
        values: shared.into_inner().expect("round lock"),
        rounds,
        last,
        converged,
    }
}

/// Applies `job` to every item, fanning the items out across `workers`
/// scoped threads through a shared atomic queue, and returns the results
/// **in input order** (so the output is independent of scheduling).
///
/// Jobs must be independent and deterministic per item; with that, the
/// result is bit-for-bit identical for any worker count, including the
/// serial loop (`workers < 2` or fewer than two items). A panicking job
/// stops the queue and re-raises on the calling thread after all workers
/// have exited.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers >= 2 && items.len() >= 2 {
        return parallel_map_pooled(workers, items, job);
    }
    items.iter().enumerate().map(|(i, t)| job(i, t)).collect()
}

fn parallel_map_pooled<T, R, F>(workers: usize, items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            let results = &results;
            let next = &next;
            let panicked = &panicked;
            let job = &job;
            scope.spawn(move || {
                IN_POOL_WORKER.with(|flag| flag.set(true));
                while !panicked.load(Ordering::SeqCst) {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= items.len() {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job(i, &items[i])
                    })) {
                        // lint:allow(panic-hygiene): result slots are poisoned only by
                        // a job panic, which parallel_map re-raises below.
                        Ok(r) => *results[i].lock().expect("result slot") = Some(r),
                        Err(_) => panicked.store(true, Ordering::SeqCst),
                    }
                }
            });
        }
    });

    assert!(
        !panicked.load(Ordering::SeqCst),
        "a pool worker panicked (map job closure)"
    );
    results
        .into_iter()
        .map(|slot| {
            // lint:allow(panic-hygiene): the panicked assert above already fired
            // for any poisoned slot, and the index loop visits every job.
            slot.into_inner()
                .expect("result slot")
                .expect("every job ran")
        })
        .collect()
}

/// A captured panic from one supervised map job: which item panicked and
/// the panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the item whose job panicked.
    pub index: usize,
    /// Panic payload rendered as text (`&str` / `String` payloads are
    /// reproduced verbatim; anything else becomes a placeholder).
    pub message: String,
}

/// [`parallel_map`] with per-item panic isolation: a panicking job yields
/// `Err(TaskPanic)` for *that item only* — the queue keeps draining, every
/// other item still completes, and nothing is re-raised on the calling
/// thread.
///
/// This is the supervision primitive: where [`parallel_map`] treats a
/// panic as a harness bug (stop the pool, `assert!`), a supervised map
/// treats it as a per-task failure to be reported, retried, or
/// quarantined by the caller. Results are in input order, bit-identical
/// across worker counts, exactly as for [`parallel_map`].
pub fn parallel_map_supervised<T, R, F>(
    workers: usize,
    items: &[T],
    job: F,
) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(workers, items, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i, t))).map_err(|payload| {
            TaskPanic {
                index: i,
                message: crate::supervise::panic_message(payload.as_ref()),
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sup-norm change reduction used by the tests (mirrors the sweep stats
    /// the MDP solvers feed through the pool).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct MaxAbs(f64);

    impl RoundStat for MaxAbs {
        fn identity() -> Self {
            MaxAbs(0.0)
        }
        fn merge(&mut self, other: &Self) {
            self.0 = self.0.max(other.0);
        }
    }

    /// A contractive fixed-point iteration with a data dependency across
    /// the whole iterate (each element averages its neighbours), so any
    /// scheduling error would show up as a numeric difference.
    fn relax(i: usize, v: &[f64], stat: &mut MaxAbs) -> f64 {
        let n = v.len();
        let left = v[(i + n - 1) % n];
        let right = v[(i + 1) % n];
        let new = 0.25 * left + 0.5 * v[i] + 0.25 * right + (i as f64).sin() * 1e-3;
        stat.0 = stat.0.max((new - v[i]).abs());
        new
    }

    /// Lifts a per-element task to the block task [`run_rounds`] takes.
    fn each<T, R>(
        task: impl Fn(usize, &[T], &mut R) -> T + Sync,
    ) -> impl Fn(std::ops::Range<usize>, &[T], &mut [T], &mut R) + Sync {
        move |range, old, out, stat| {
            for (slot, i) in out.iter_mut().zip(range) {
                *slot = task(i, old, stat);
            }
        }
    }

    #[test]
    fn serial_and_pooled_rounds_agree_bitwise() {
        let init: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).cos()).collect();
        let run = |workers| {
            run_rounds(init.clone(), workers, 80, 1, each(relax), |_, stat, _| {
                stat.0 < 1e-7
            })
        };
        let serial = run(1);
        for workers in [2, 3, 5, 9] {
            let pooled = run(workers);
            assert_eq!(serial.rounds, pooled.rounds, "{workers} workers");
            assert_eq!(serial.converged, pooled.converged);
            assert_eq!(
                serial.values, pooled.values,
                "iterates must be identical with {workers} workers"
            );
        }
    }

    /// Block size must be invisible in the results: any block granularity
    /// (including blocks that straddle worker-chunk boundaries) computes
    /// the same iterate, round count, and stat as the per-element form.
    #[test]
    fn blocked_rounds_agree_bitwise_for_any_block_size() {
        let init: Vec<f64> = (0..300).map(|i| (i as f64 * 0.53).sin()).collect();
        let run = |workers, block| {
            run_rounds(
                init.clone(),
                workers,
                40,
                block,
                each(relax),
                |_, stat, _| stat.0 < 1e-7,
            )
        };
        let reference = run(1, 1);
        for workers in [1, 3] {
            for block in [1, 7, 64, usize::MAX] {
                let blocked = run(workers, block);
                assert_eq!(reference.rounds, blocked.rounds, "{workers}w block {block}");
                assert_eq!(
                    reference.values, blocked.values,
                    "{workers} workers, block {block}"
                );
                assert_eq!(reference.last, blocked.last, "{workers}w block {block}");
            }
        }
    }

    #[test]
    fn epilogue_sees_every_round_and_can_mutate() {
        let mut harvested = Vec::new();
        let out = run_rounds(
            vec![0.0f64; 16],
            3,
            4,
            1,
            each(|i, v: &[f64], _: &mut ()| v[i] + i as f64),
            |iterate, _, round| {
                harvested.push(iterate.to_vec());
                // Normalize so the next round starts shifted.
                iterate[0] += 1000.0 * round as f64;
                false
            },
        );
        assert_eq!(out.rounds, 4);
        assert!(!out.converged);
        assert_eq!(harvested.len(), 4);
        // Round 1 harvest: element i == i.
        assert_eq!(harvested[0][5], 5.0);
        // The epilogue's mutation must feed the next round.
        assert!(harvested[1][0] >= 1000.0);
    }

    #[test]
    fn zero_rounds_is_identity() {
        let out: RoundOutcome<f64, ()> = run_rounds(
            vec![7.0; 8],
            3,
            0,
            1,
            each(|i, v: &[f64], _| v[i]),
            |_, _, _| false,
        );
        assert_eq!(out.values, vec![7.0; 8]);
        assert_eq!(out.rounds, 0);
        assert!(out.last.is_none());
        assert!(!out.converged);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn round_worker_panic_propagates_instead_of_deadlocking() {
        let _ = run_rounds(
            vec![0.0f64; 4096],
            3,
            5,
            1,
            each(|i, v: &[f64], _: &mut ()| {
                if i == 1234 {
                    panic!("boom");
                }
                v[i]
            }),
            |_, _, _| false,
        );
    }

    /// The symmetric case to a worker panic: a panic in the *coordinator's*
    /// epilogue must release the pool and re-raise, not leave the workers
    /// blocked on a barrier the coordinator will never reach.
    #[test]
    #[should_panic(expected = "epilogue boom")]
    fn epilogue_panic_propagates_instead_of_deadlocking() {
        let _ = run_rounds(
            vec![0.0f64; 512],
            3,
            5,
            1,
            each(|i, v: &[f64], _: &mut ()| v[i] + 1.0),
            |_, _, round| {
                if round == 2 {
                    panic!("epilogue boom");
                }
                false
            },
        );
    }

    #[test]
    fn parallel_map_returns_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let serial = parallel_map(1, &items, |i, x| i * 1000 + x * x);
        for workers in [2, 3, 8] {
            let pooled = parallel_map(workers, &items, |i, x| i * 1000 + x * x);
            assert_eq!(serial, pooled, "{workers} workers");
        }
    }

    #[test]
    fn parallel_map_handles_few_items() {
        assert_eq!(parallel_map(8, &[3usize], |_, x| x + 1), vec![4]);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(parallel_map(8, &empty, |_, x: &usize| x + 1), Vec::new());
    }

    /// The supervised map isolates a panicking item: the rest of the
    /// queue completes, the failure arrives as a structured value, and
    /// results stay in input order, serial and pooled alike.
    #[test]
    fn supervised_map_isolates_panics_per_item() {
        let items: Vec<usize> = (0..20).collect();
        for workers in [1, 4] {
            let results = parallel_map_supervised(workers, &items, |i, &x| {
                if x % 7 == 3 {
                    panic!("poison {i}");
                }
                if x == 5 {
                    // A literal message: a `&'static str` payload.
                    panic!("static boom");
                }
                x * 2
            });
            assert_eq!(results.len(), items.len());
            for (i, r) in results.iter().enumerate() {
                if i % 7 == 3 {
                    let failure = r.as_ref().expect_err("items 3, 10, 17 panic");
                    assert_eq!(failure.index, i);
                    assert_eq!(failure.message, format!("poison {i}"));
                } else if i == 5 {
                    let failure = r.as_ref().expect_err("item 5 panics");
                    assert_eq!(failure.index, 5);
                    assert_eq!(failure.message, "static boom");
                } else {
                    assert_eq!(*r.as_ref().expect("healthy items complete"), i * 2);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn map_job_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = parallel_map(4, &items, |_, x| {
            if *x == 17 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    fn automatic_sizing_refuses_to_nest() {
        let items = [(); 4];
        let inner_counts = parallel_map(4, &items, |_, _| {
            assert!(on_pool_worker());
            worker_count(1 << 20, true, 1)
        });
        assert_eq!(
            inner_counts,
            vec![1; 4],
            "fan-out from inside a pool worker must stay serial"
        );
        assert!(!on_pool_worker(), "the flag must not leak to the caller");
    }

    #[test]
    fn worker_count_policy() {
        // Serial requests never fan out.
        assert_eq!(worker_count(1 << 20, false, 1), 1);
        // Tiny workloads stay serial regardless of hardware.
        assert_eq!(worker_count(10, true, 1024), 1);
        // The early return for unsplittable work changes no value:
        // every size, including both sides of the `n / m < 2`
        // boundary, matches the plain hardware/work/cap formula.
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        for m in [0, 1, 2, 3, 7, 1024] {
            let unit = m.max(1);
            for n in [
                0,
                1,
                unit - 1,
                unit,
                2 * unit - 1,
                2 * unit,
                3 * unit,
                17 * unit,
                1 << 20,
            ] {
                assert_eq!(
                    worker_count(n, true, m),
                    hardware.min(n / unit).clamp(1, MAX_WORKERS),
                    "n_items={n} min_per_worker={m}"
                );
            }
        }
        // The forced override wins over automatic sizing...
        force_workers(Some(5));
        assert_eq!(worker_count(10, true, 1024), 5);
        // ...but never over an explicit serial request...
        assert_eq!(worker_count(10, false, 1024), 1);
        // ...nor over a serialized call tree.
        assert_eq!(serialized(|| worker_count(10, true, 1024)), 1);
        force_workers(None);
        assert_eq!(worker_count(10, true, 1024), 1);
    }
}
