//! Deterministic multi-threaded Monte-Carlo trial runner.
//!
//! Trials are partitioned into fixed-size chunks; chunk `c` always runs with
//! the RNG seeded from `SeedSequence::derive(c)`, so results are identical
//! whatever the thread count — including single-threaded CI machines.
//!
//! The runner is **worker-persistent**: each worker thread creates one
//! accumulator with `A::default()`, pulls chunk indices from a shared atomic
//! counter, folds every chunk it claims directly into that accumulator, and
//! hands back exactly one partial when the counter runs dry.  Heavy
//! accumulator state — `CampaignScratch` buffers, `BinomialCache` /
//! `HypergeometricCache` CDF tables — is therefore built once per worker,
//! not once per chunk, and no channel sits between the workers and the
//! caller: partials come back through the join handles and are merged on
//! the calling thread in worker order.
//!
//! [`parallel_sweep`] builds on the same pool discipline for the *outer*
//! grids of the exhibits (parameter sweeps), evaluating grid points
//! concurrently while returning results in input order.

use crate::rng::{DeterministicRng, SeedSequence};
use crate::samplers::SamplerMode;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Hard ceiling on explicit thread requests; catches typo'd `--threads`
/// values (e.g. a seed pasted into the wrong flag) before the runner tries
/// to spawn them.
pub const MAX_THREADS: usize = 1024;

/// A [`TrialConfig`] field that cannot be run as configured.
///
/// Returned by [`TrialConfig::validate`] so CLI layers can reject bad
/// configurations with a proper exit code instead of panicking mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidTrialConfig {
    /// Name of the offending field.
    pub field: &'static str,
    /// Why the value is unusable.
    pub message: &'static str,
}

impl fmt::Display for InvalidTrialConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trial config: {} {}", self.field, self.message)
    }
}

impl std::error::Error for InvalidTrialConfig {}

/// Configuration for [`run_trials`].
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Total number of trials to run.
    pub trials: u64,
    /// Trials per deterministic chunk (seed granularity).
    pub chunk_size: u64,
    /// Worker threads; 0 means "use available parallelism".
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
    /// Which sampler strategy trial bodies should draw with.
    ///
    /// The runner itself never consumes it — chunking and seeding are
    /// mode-independent — but carrying it here lets every trial closure
    /// (and each worker's per-accumulator scratch) pick up the mode from
    /// the one config that already travels to them.
    pub sampler: SamplerMode,
}

impl TrialConfig {
    /// Default chunk size for cheap scalar trials ([`TrialConfig::new`]).
    ///
    /// Large chunks amortise per-chunk seeding when a single trial is a few
    /// nanoseconds of work (coin flips, closed-form evaluations).
    pub const DEFAULT_CHUNK_SIZE: u64 = 256;

    /// Chunk size used by the campaign drivers in `redundancy-sim`.
    ///
    /// A campaign trial simulates thousands of tasks, so chunks of 4 keep
    /// the shared counter balancing load across workers while seeding
    /// overhead stays unmeasurable.
    pub const CAMPAIGN_CHUNK_SIZE: u64 = 4;

    /// A reasonable default: `trials` trials in chunks of
    /// [`DEFAULT_CHUNK_SIZE`](Self::DEFAULT_CHUNK_SIZE) with auto-detected
    /// thread count.
    pub fn new(trials: u64, seed: u64) -> Self {
        TrialConfig {
            trials,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            threads: 0,
            seed,
            sampler: SamplerMode::default(),
        }
    }

    /// Pick a chunk size automatically for this config's trial count.
    ///
    /// Starts from the per-trial-cost default —
    /// [`CAMPAIGN_CHUNK_SIZE`](Self::CAMPAIGN_CHUNK_SIZE) (4) when each
    /// trial is `heavyweight` (a full simulated campaign),
    /// [`DEFAULT_CHUNK_SIZE`](Self::DEFAULT_CHUNK_SIZE) (256) for cheap
    /// scalar trials — then shrinks it so every worker can claim at least a
    /// few chunks, which is what lets the atomic queue balance load.  Never
    /// returns 0; changing the chunk size changes the chunk→seed mapping,
    /// so fix it explicitly where byte-stable output matters.
    pub fn auto_chunk_size(&self, heavyweight: bool) -> u64 {
        let base = if heavyweight {
            Self::CAMPAIGN_CHUNK_SIZE
        } else {
            Self::DEFAULT_CHUNK_SIZE
        };
        let workers = self.effective_threads().max(1) as u64;
        // Aim for ≥ 4 chunks per worker so no thread idles while another
        // finishes a final oversized chunk.
        let balanced = (self.trials / (4 * workers)).max(1);
        base.min(balanced)
    }

    /// Builder-style variant of [`auto_chunk_size`](Self::auto_chunk_size):
    /// returns the config with `chunk_size` replaced by the auto choice.
    pub fn with_auto_chunk_size(mut self, heavyweight: bool) -> Self {
        self.chunk_size = self.auto_chunk_size(heavyweight);
        self
    }

    /// Check that the configuration can actually be run.
    ///
    /// [`run_trials`] only `debug_assert`s these invariants; callers whose
    /// parameters come from user input (the CLI flags `--chunk-size` and
    /// `--threads`) should validate first and surface the error with a
    /// proper exit code.
    pub fn validate(&self) -> Result<(), InvalidTrialConfig> {
        if self.chunk_size == 0 {
            return Err(InvalidTrialConfig {
                field: "chunk_size",
                message: "must be positive (each deterministic chunk needs at least one trial)",
            });
        }
        if self.threads > MAX_THREADS {
            return Err(InvalidTrialConfig {
                field: "threads",
                message: "exceeds the 1024-thread ceiling (0 means auto-detect)",
            });
        }
        Ok(())
    }

    pub(crate) fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Resolve a requested thread count: 0 means "use available parallelism".
fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `config.trials` independent trials of `trial`, folding results into
/// one persistent accumulator per worker and merging the partials.
///
/// * `trial(rng, global_index, acc)` runs one trial and updates the
///   accumulator;
/// * accumulators start from `A::default()` once per **worker** and persist
///   across every chunk that worker claims, so per-accumulator caches
///   (scratch buffers, CDF tables) are built at most `threads` times;
/// * which chunks land in which partial depends on runtime scheduling, so
///   `merge` must be commutative and associative and `trial`'s accumulator
///   updates must be fold-order-insensitive (pure counters/moments —
///   everything in this workspace qualifies);
/// * chunk `c` is always seeded from `SeedSequence::derive(c)` regardless
///   of thread count, so any such accumulator yields thread-count-invariant
///   results;
/// * if a worker panics, the panic is re-raised **once** on the calling
///   thread after the remaining workers finish, so the root cause is not
///   buried under a cascade of secondary panics;
/// * a zero `config.chunk_size` panics, naming the field.
///
/// ```
/// use redundancy_stats::parallel::{run_trials, TrialConfig};
/// use redundancy_stats::Proportion;
/// // Estimate P(heads) of a fair coin.
/// let acc: Proportion = run_trials(
///     &TrialConfig::new(10_000, 42),
///     |rng, _i, acc: &mut Proportion| acc.push(rng.bernoulli(0.5)),
///     |a, b| a.merge(&b),
/// );
/// assert!((acc.estimate() - 0.5).abs() < 0.02);
/// ```
pub fn run_trials<A, F, M>(config: &TrialConfig, trial: F, merge: M) -> A
where
    A: Default + Send,
    F: Fn(&mut DeterministicRng, u64, &mut A) + Sync,
    M: Fn(&mut A, A),
{
    // CLI-facing callers go through `TrialConfig::validate` first; this
    // one check per call turns a bad library call into a named panic in
    // release builds too, not a division by zero below.
    assert!(config.chunk_size > 0, "chunk_size must be positive");
    let n_chunks = config.trials.div_ceil(config.chunk_size);
    let seq = SeedSequence::new(config.seed);
    let threads = config
        .effective_threads()
        .max(1)
        .min(n_chunks.max(1) as usize);

    // Fold one chunk into a worker's persistent accumulator.  The chunk
    // seed depends only on the chunk index, never on which worker runs it.
    let run_chunk = |chunk: u64, acc: &mut A| {
        let mut rng = DeterministicRng::new(seq.derive(chunk));
        let start = chunk * config.chunk_size;
        let end = (start + config.chunk_size).min(config.trials);
        for i in start..end {
            trial(&mut rng, i, acc);
        }
    };

    if threads == 1 || n_chunks <= 1 {
        let mut total = A::default();
        for chunk in 0..n_chunks {
            run_chunk(chunk, &mut total);
        }
        return total;
    }

    let next_chunk = AtomicU64::new(0);
    // One worker loop shared by the spawned threads and the caller: claim
    // chunks until the counter runs dry, folding into `acc` the whole time.
    let work = |acc: &mut A| loop {
        let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
        if chunk >= n_chunks {
            break;
        }
        run_chunk(chunk, acc);
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                let work = &work;
                scope.spawn(move || {
                    let mut acc = A::default();
                    work(&mut acc);
                    acc
                })
            })
            .collect();
        // The caller is worker 0 — one fewer thread spawn per call, which
        // matters at bench-fixture trial counts.
        let mut total = A::default();
        work(&mut total);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(partial) => merge(&mut total, partial),
                Err(payload) => {
                    // Keep the first payload (closest to the root cause);
                    // later ones are usually knock-on effects.
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        total
    })
}

/// Split a total thread budget between a sweep's outer grid and the
/// per-point inner Monte-Carlo runner.
///
/// Returns `(outer_width, inner_threads)`: the sweep pool gets
/// `min(budget, points)` workers and each grid point's own `run_trials`
/// gets the leftover factor, so `outer_width * inner_threads ≤ budget`
/// (with both at least 1).  `budget == 0` means "use available
/// parallelism", mirroring [`TrialConfig::threads`].
pub fn sweep_thread_split(budget: usize, points: usize) -> (usize, usize) {
    let budget = resolve_threads(budget).max(1);
    let outer = budget.min(points.max(1));
    let inner = (budget / outer).max(1);
    (outer, inner)
}

/// Evaluate `eval` at every grid point of `items` on one shared worker
/// pool, returning results in **input order**.
///
/// This is the sweep-level companion to [`run_trials`]: exhibits whose
/// outer loop walks a parameter grid (Fig. 1's p-grid, Fig. 3's ε-grid,
/// the fault sweeps) evaluate grid points concurrently instead of serially,
/// while the ordered return keeps their printed tables byte-identical to
/// the sequential loop.  `threads == 0` means "use available parallelism";
/// the pool never exceeds `items.len()` workers.  Grid points are claimed
/// dynamically from an atomic counter, so ragged per-point costs still
/// balance.  Worker panics are re-raised once on the calling thread, after
/// the surviving workers drain the grid.
///
/// `eval` receives `(index, &item)`; pass the index through when the
/// closure needs to derive per-point seeds.
///
/// ```
/// use redundancy_stats::parallel::parallel_sweep;
/// let grid = [1u64, 2, 3, 4, 5];
/// let squares = parallel_sweep(2, &grid, |_i, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn parallel_sweep<T, R, F>(threads: usize, items: &[T], eval: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let width = resolve_threads(threads).max(1).min(items.len().max(1));
    if width <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| eval(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let work = |out: &mut Vec<(usize, R)>| loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(idx) else { break };
        out.push((idx, eval(idx, item)));
    };

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..width)
            .map(|_| {
                let work = &work;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    work(&mut out);
                    out
                })
            })
            .collect();
        let mut local = Vec::new();
        work(&mut local);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut collected = vec![local];
        for handle in handles {
            match handle.join() {
                Ok(out) => collected.push(out),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        for (idx, value) in collected.into_iter().flatten() {
            slots[idx] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every grid point evaluated exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Proportion, RunningMoments};
    use crate::samplers::cache::BinomialCache;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads: usize| -> (u64, u64) {
            let cfg = TrialConfig {
                trials: 5_000,
                chunk_size: 128,
                threads,
                seed: 99,
                sampler: SamplerMode::default(),
            };
            let p: Proportion = run_trials(
                &cfg,
                |rng, _i, acc: &mut Proportion| acc.push(rng.bernoulli(0.3)),
                |a, b| a.merge(&b),
            );
            (p.successes(), p.trials())
        };
        let single = run(1);
        let quad = run(4);
        assert_eq!(single, quad);
        assert_eq!(single.1, 5_000);
    }

    #[test]
    fn covers_every_trial_index_exactly_once() {
        #[derive(Default)]
        struct Seen(Vec<u64>);
        let cfg = TrialConfig {
            trials: 1_000,
            chunk_size: 64,
            threads: 3,
            seed: 5,
            sampler: SamplerMode::default(),
        };
        let seen: Seen = run_trials(
            &cfg,
            |_rng, i, acc: &mut Seen| acc.0.push(i),
            |a, mut b| a.0.append(&mut b.0),
        );
        let mut v = seen.0;
        v.sort_unstable();
        assert_eq!(v, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn mean_estimate_converges() {
        let cfg = TrialConfig::new(50_000, 1234);
        let m: RunningMoments = run_trials(
            &cfg,
            |rng, _i, acc: &mut RunningMoments| acc.push(rng.uniform()),
            |a, b| a.merge(&b),
        );
        assert_eq!(m.count(), 50_000);
        assert!((m.mean() - 0.5).abs() < 0.01, "{}", m.mean());
    }

    #[test]
    fn zero_trials_yields_default() {
        let cfg = TrialConfig::new(0, 7);
        let p: Proportion = run_trials(
            &cfg,
            |_rng, _i, acc: &mut Proportion| acc.push(true),
            |a, b| a.merge(&b),
        );
        assert_eq!(p.trials(), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_size")]
    fn zero_chunk_size_panics() {
        let cfg = TrialConfig {
            trials: 10,
            chunk_size: 0,
            threads: 1,
            seed: 0,
            sampler: SamplerMode::default(),
        };
        let _: Proportion = run_trials(&cfg, |_r, _i, _a: &mut Proportion| {}, |a, b| a.merge(&b));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut cfg = TrialConfig::new(10, 0);
        assert!(cfg.validate().is_ok());
        cfg.chunk_size = 0;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field, "chunk_size");
        assert!(err.to_string().contains("chunk_size"));
    }

    #[test]
    fn validate_rejects_absurd_thread_counts() {
        let mut cfg = TrialConfig::new(10, 0);
        cfg.threads = MAX_THREADS;
        assert!(cfg.validate().is_ok());
        cfg.threads = MAX_THREADS + 1;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.field, "threads");
    }

    #[test]
    fn auto_chunk_size_tracks_trial_weight_and_count() {
        // Plenty of trials: the per-weight base wins untouched.
        let cheap = TrialConfig {
            trials: 1_000_000,
            chunk_size: 1,
            threads: 4,
            seed: 0,
            sampler: SamplerMode::default(),
        };
        assert_eq!(
            cheap.auto_chunk_size(false),
            TrialConfig::DEFAULT_CHUNK_SIZE
        );
        assert_eq!(
            cheap.auto_chunk_size(true),
            TrialConfig::CAMPAIGN_CHUNK_SIZE
        );
        // Few trials: shrink so each of the 4 workers sees several chunks.
        let small = TrialConfig {
            trials: 64,
            chunk_size: 1,
            threads: 4,
            seed: 0,
            sampler: SamplerMode::default(),
        };
        assert_eq!(small.auto_chunk_size(false), 4);
        assert_eq!(small.auto_chunk_size(true), 4);
        // Degenerate: never 0, and the builder form validates.
        let tiny = TrialConfig {
            trials: 1,
            chunk_size: 1,
            threads: 8,
            seed: 0,
            sampler: SamplerMode::default(),
        };
        assert_eq!(tiny.auto_chunk_size(true), 1);
        assert!(tiny.with_auto_chunk_size(false).validate().is_ok());
    }

    /// Satellite guarantee for the sim drivers: per-accumulator sampler
    /// caches are built once per worker, not once per chunk.  The plan
    /// builds are observable through `BinomialCache::misses`, so the total
    /// across all partials is bounded by the worker count.
    #[test]
    fn caches_build_once_per_worker_not_per_chunk() {
        #[derive(Default)]
        struct CacheAcc {
            cache: BinomialCache,
            /// Plan builds observed in partials merged into this one.
            merged_builds: u64,
            draws: u64,
        }
        let threads = 4usize;
        let cfg = TrialConfig {
            trials: 512,
            chunk_size: 8, // 64 chunks — far more chunks than workers
            threads,
            seed: 11,
            sampler: SamplerMode::default(),
        };
        let total: CacheAcc = run_trials(
            &cfg,
            |rng, _i, acc: &mut CacheAcc| {
                let id = acc.cache.prepare(12, 0.3);
                let _ = acc.cache.sample_prepared(id, rng);
                acc.draws += 1;
            },
            |a, b| {
                a.merged_builds += b.cache.misses() + b.merged_builds;
                a.draws += b.draws;
            },
        );
        let builds = total.merged_builds + total.cache.misses();
        assert_eq!(total.draws, 512);
        assert!(builds >= 1);
        assert!(
            builds <= threads as u64,
            "expected at most one cache build per worker, saw {builds}"
        );
    }

    #[test]
    #[should_panic(expected = "trial 137 exploded")]
    fn worker_panic_surfaces_once_with_root_cause() {
        let cfg = TrialConfig {
            trials: 1_000,
            chunk_size: 16,
            threads: 4,
            seed: 3,
            sampler: SamplerMode::default(),
        };
        let _: Proportion = run_trials(
            &cfg,
            |_rng, i, acc: &mut Proportion| {
                assert!(i != 137, "trial 137 exploded");
                acc.push(true);
            },
            |a, b| a.merge(&b),
        );
    }

    #[test]
    fn sweep_returns_results_in_input_order() {
        let grid: Vec<u64> = (0..97).collect();
        for threads in [1usize, 2, 4, 8] {
            let out = parallel_sweep(threads, &grid, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expect: Vec<u64> = grid.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_singleton_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_sweep(4, &empty, |_i, &x| x).is_empty());
        assert_eq!(parallel_sweep(4, &[9u32], |_i, &x| x + 1), vec![10]);
    }

    #[test]
    fn sweep_evaluates_each_point_exactly_once() {
        let calls = AtomicUsize::new(0);
        let grid: Vec<usize> = (0..37).collect();
        let out = parallel_sweep(4, &grid, |i, _x| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 37);
        assert_eq!(out, grid);
    }

    #[test]
    #[should_panic(expected = "point 5 is cursed")]
    fn sweep_panic_surfaces_once() {
        let grid: Vec<usize> = (0..32).collect();
        let _ = parallel_sweep(4, &grid, |i, _x| {
            assert!(i != 5, "point 5 is cursed");
            i
        });
    }

    #[test]
    fn thread_split_respects_budget_and_grid() {
        assert_eq!(sweep_thread_split(8, 4), (4, 2));
        assert_eq!(sweep_thread_split(8, 16), (8, 1));
        assert_eq!(sweep_thread_split(1, 10), (1, 1));
        assert_eq!(sweep_thread_split(6, 4), (4, 1));
        // Degenerate grids never produce a zero-width pool.
        assert_eq!(sweep_thread_split(4, 0), (1, 4));
        // budget == 0 resolves to available parallelism: both factors ≥ 1.
        let (outer, inner) = sweep_thread_split(0, 3);
        assert!(outer >= 1 && inner >= 1);
        assert!(outer <= 3);
    }
}
