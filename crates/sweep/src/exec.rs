//! Parallel plan execution on a work-stealing thread pool.
//!
//! Simulation jobs share work through one process-wide cache, keyed by
//! the store's cell identity without the axes the value does not depend
//! on, and filled only when another planned job could read the value.
//! An exact job snapshots its warm state ([`SingleCoreSim::try_clone`]);
//! the cell's other intervals restore it and re-aim its timer
//! (`retarget_interval`) instead of re-simulating warmup. A sampled job
//! keeps only its window measurement, which is interval-independent (see
//! [`sbp_sim::sampling`]) and so serves every interval via the analytic
//! estimator. Cached values are bit-identical to recomputed ones, so
//! caching is invisible in the results (and therefore in store bytes).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use sbp_attack::AttackOutcome;
use sbp_core::Mechanism;
use sbp_sim::{
    estimate_cycles, SampledMeasurement, SampledSim, SamplingPlan, SingleCoreSim, SmtSim,
};
use sbp_trace::{EventBuffer, PhaseSchedule};
use sbp_types::{PredictionStats, SbpError};

use crate::plan::{Job, JobGroup, SweepPlan};
use crate::spec::{SweepMode, SweepSpec};
use crate::store::{sim_fingerprint, Omit};

/// Per-worker scratch reused across jobs.
///
/// Each simulation job needs one batch [`EventBuffer`] per software
/// context; an arena keeps those allocations alive between the cells a
/// worker executes, so long (or resumed) campaigns don't re-allocate
/// batch storage per cell. Results are identical with or without an
/// arena — buffers are recycled empty.
#[derive(Debug, Default)]
pub struct JobArena {
    buffers: Vec<EventBuffer>,
}

impl JobArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        JobArena::default()
    }

    /// Number of pooled event buffers (observability for tests).
    pub fn pooled_buffers(&self) -> usize {
        self.buffers.len()
    }
}

/// Raw outcome of one executed simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRun {
    /// Measured cycles: the target's cycles on the single-core mode, wall
    /// cycles across threads on SMT. Sampled jobs record the weighted
    /// estimate for the full measurement budget.
    pub cycles: f64,
    /// Prediction statistics (summed across hardware threads for SMT).
    pub stats: PredictionStats,
    /// Per-hardware-thread statistics (SMT runs; empty on single-core).
    pub per_thread: Vec<PredictionStats>,
    /// Standard error of `cycles` propagated from the sampling windows;
    /// `None` on the exact path (which has no sampling uncertainty).
    pub stderr: Option<f64>,
}

/// Raw outcome of one executed job — the execution-side mirror of the
/// plan's polymorphic [`Job`] payload, and the unit the sweep store
/// persists.
#[derive(Debug, Clone, PartialEq)]
pub enum RawResult {
    /// A simulation outcome.
    Sim(RawRun),
    /// An attack-campaign outcome.
    Attack(AttackOutcome),
}

impl RawResult {
    /// The simulation outcome, if this is one.
    pub fn sim(&self) -> Option<&RawRun> {
        match self {
            RawResult::Sim(run) => Some(run),
            RawResult::Attack(_) => None,
        }
    }

    /// The attack outcome, if this is one.
    pub fn attack(&self) -> Option<&AttackOutcome> {
        match self {
            RawResult::Attack(out) => Some(out),
            RawResult::Sim(_) => None,
        }
    }
}

/// A simulator of the spec's core mode; also the warm-state checkpoint
/// the cache stores for exact jobs.
enum CellSim {
    Single(SingleCoreSim),
    Smt(SmtSim),
}

/// Evaluates `$body` with `$s` bound to the simulator inside a
/// [`CellSim`], whichever core mode it is.
macro_rules! with_sim {
    ($sim:expr, $s:ident => $body:expr) => {
        match $sim {
            CellSim::Single($s) => $body,
            CellSim::Smt($s) => $body,
        }
    };
}

impl CellSim {
    /// A simulator warmed from scratch, its batch buffers adopted from
    /// the arena (hand them back with `release_buffers`).
    fn warmed(
        arena: &mut JobArena,
        spec: &SweepSpec,
        group: &JobGroup,
        mechanism: Mechanism,
    ) -> Result<Self, SbpError> {
        let case = &spec.cases[group.case_index];
        let workloads: Vec<&str> = case.workloads.iter().map(String::as_str).collect();
        let (core, predictor, interval, seed) =
            (spec.core, group.predictor, group.interval, group.seed);
        let mut sim = match spec.mode {
            SweepMode::SingleCore => CellSim::Single(SingleCoreSim::new(
                core, predictor, mechanism, interval, &workloads, seed,
            )?),
            SweepMode::Smt => CellSim::Smt(SmtSim::new(
                core, predictor, mechanism, interval, &workloads, seed,
            )?),
        };
        with_sim!(&mut sim, s => {
            s.adopt_buffers(&mut arena.buffers);
            s.warm(spec.budget.warmup);
        });
        Ok(sim)
    }

    fn try_clone(&self) -> Option<Self> {
        match self {
            CellSim::Single(s) => s.try_clone().map(CellSim::Single),
            CellSim::Smt(s) => s.try_clone().map(CellSim::Smt),
        }
    }
}

/// Intra-worker window-parallelism width (1 — serial — until set).
static WINDOW_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the intra-worker window-parallelism width for sampled jobs:
/// with `n > 1`, the independent measurement windows of one sampled
/// cell fan out across `n` threads (each window runs on its own clone
/// of the job's warm simulator). Values below 1 clamp to 1 (serial).
/// Results are bit-identical at any width.
pub fn set_window_threads(n: usize) {
    WINDOW_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current intra-worker window-parallelism width: the last
/// [`set_window_threads`] value, else 1 (serial).
pub fn window_threads() -> usize {
    WINDOW_THREADS.load(Ordering::Relaxed)
}

/// Runs `f(i)` for `i in 0..n` on a pool of worker threads (one per
/// available core) and returns the results in index order.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, || (), |(), i| f(i))
}

/// Like [`parallel_map`], but each worker thread owns a scratch state
/// built by `init` and passed to every `f` call it executes — the hook
/// the per-worker [`JobArena`] rides on.
pub fn parallel_map_with<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    parallel_map_bounded_with(n, workers, init, f)
}

/// [`parallel_map_with`] with an explicit worker-thread bound — the
/// window fan-out uses this so `--window-threads` controls pool width
/// independently of core count.
fn parallel_map_bounded_with<S, T, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let results: Vec<parking_lot::Mutex<Option<T>>> =
        (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = workers.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *results[i].lock() = Some(f(&mut scratch, i));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("worker completed"))
        .collect()
}

/// Executes every planned job in parallel; results are in plan job order.
///
/// # Errors
///
/// Returns the first unknown-workload or configuration error.
pub fn execute(spec: &SweepSpec, plan: &SweepPlan) -> Result<Vec<RawResult>, SbpError> {
    let results = parallel_map_with(plan.jobs.len(), JobArena::new, |arena, j| {
        run_job_indexed(arena, spec, plan, j)
    });
    results.into_iter().collect()
}

/// Human-readable identity of plan job `index` (telemetry span detail).
pub fn job_label(spec: &SweepSpec, plan: &SweepPlan, index: usize) -> String {
    match &plan.jobs[index] {
        Job::Attack(a) => format!(
            "attack={:?} mech={:?} predictor={:?} smt={} seed={}",
            a.attack, a.mechanism, a.predictor, a.smt, a.seed_index
        ),
        Job::Sim { group, mechanism } => {
            let g = &plan.groups[*group];
            format!(
                "case={} predictor={:?} mech={mechanism:?} interval={:?} seed={}",
                spec.cases[g.case_index].id, g.predictor, g.interval, g.seed_index
            )
        }
    }
}

/// [`run_job_in`] for plan job `index`, wrapped in a telemetry job
/// scope: the job gets a deterministic `job` span plus result-derived
/// counters/gauges, all keyed by the plan index so re-runs and shards
/// assign identical span IDs. With telemetry disabled this is exactly
/// [`run_job_in`] — results are bit-identical either way.
///
/// # Errors
///
/// Same as [`run_job_in`].
pub fn run_job_indexed(
    arena: &mut JobArena,
    spec: &SweepSpec,
    plan: &SweepPlan,
    index: usize,
) -> Result<RawResult, SbpError> {
    sbp_telemetry::job_scope(index as u64, || {
        let result = {
            let _span = sbp_telemetry::span("job", true, &job_label(spec, plan, index));
            let result = run_job_in(arena, spec, plan, &plan.jobs[index]);
            if let Ok(r) = &result {
                emit_result_events(r);
            }
            result
        };
        sbp_telemetry::gauge(
            "arena_pooled_buffers",
            arena.pooled_buffers() as f64,
            false,
            "",
        );
        result
    })
}

/// Deterministic result-derived telemetry: every value here is a pure
/// function of the job's (bit-exact) outcome, so the events survive
/// into the canonical projection.
fn emit_result_events(result: &RawResult) {
    match result {
        RawResult::Sim(run) => {
            sbp_telemetry::counter("branches_stepped", run.stats.cond_branches as f64, true, "");
            sbp_telemetry::counter("storm_events", run.stats.context_switches as f64, true, "");
            sbp_telemetry::gauge("cycles", run.cycles, true, "");
            if let Some(se) = run.stderr {
                sbp_telemetry::gauge("cycles_stderr", se, true, "");
            }
        }
        RawResult::Attack(out) => {
            sbp_telemetry::counter("trials", out.trials as f64, true, "");
            sbp_telemetry::gauge("success_rate", out.success_rate, true, "");
        }
    }
}

/// Executes one planned job (either payload kind) with a caller-owned
/// [`JobArena`]: batch event buffers are adopted from the arena before
/// the run and released back afterwards, so a worker looping over many
/// cells reuses the same allocations. [`execute`] and
/// `SweepSpec::run_with` are the whole-plan entry points.
///
/// # Errors
///
/// Returns unknown-workload or configuration errors (sim jobs; attack
/// jobs are infallible once planned).
pub fn run_job_in(
    arena: &mut JobArena,
    spec: &SweepSpec,
    plan: &SweepPlan,
    job: &Job,
) -> Result<RawResult, SbpError> {
    let (group, mechanism) = match job {
        Job::Attack(a) => {
            return Ok(RawResult::Attack(a.attack.run(
                a.mechanism,
                a.predictor,
                a.smt,
                a.trials,
                a.seed,
            )))
        }
        Job::Sim { group, mechanism } => (&plan.groups[*group], *mechanism),
    };
    if let Some(sampling) = &spec.sampling {
        return run_sampled_job(arena, spec, group, mechanism, sampling);
    }
    let (mut sim, from_cache) = warm(arena, spec, group, mechanism)?;
    let run = match &mut sim {
        CellSim::Single(s) => {
            let stats = s.run_measure(spec.budget.measure);
            RawRun {
                cycles: stats.cycles as f64,
                stats,
                per_thread: Vec::new(),
                stderr: None,
            }
        }
        CellSim::Smt(s) => {
            let result = s.run_measure(spec.budget.measure);
            let mut stats = PredictionStats::new();
            for t in &result.per_thread {
                stats += *t;
            }
            stats.cycles = result.cycles as u64;
            RawRun {
                cycles: result.cycles,
                stats,
                per_thread: result.per_thread,
                stderr: None,
            }
        }
    };
    if !from_cache {
        with_sim!(&mut sim, s => s.release_buffers(&mut arena.buffers));
    }
    Ok(RawResult::Sim(run))
}

/// The executor cache's bound, in entries: it is cleared wholesale when
/// full, so eviction order never depends on thread scheduling and a
/// refill recomputes deterministically (results are identical either
/// way — restores are bit-identical to fresh runs).
const CACHE_CAP: usize = 256;

/// The executor cache, keyed by [`sim_fingerprint`]: an exact cell's warm
/// [`CellSim`] and a sampled cell's [`SampledMeasurement`] under
/// [`Omit::Interval`], a replay target's [`PhaseSchedule`] under
/// [`Omit::IntervalPredictorMechanism`].
fn cache() -> &'static Mutex<HashMap<u64, Box<dyn Any + Send>>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Box<dyn Any + Send>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A copy of the `T` cached under `key`.
fn lookup<T: 'static>(key: u64, copy: impl FnOnce(&T) -> Option<T>) -> Option<T> {
    cache().lock().get(&key)?.downcast_ref::<T>().and_then(copy)
}

/// Stores `value` under `key` when another planned job of `spec` could
/// read it: jobs share a key only when they differ on an omitted axis.
fn share<T: Any + Send>(spec: &SweepSpec, omit: Omit, key: u64, value: impl FnOnce() -> Option<T>) {
    let readers = spec.intervals.len()
        * match omit {
            Omit::IntervalPredictorMechanism => {
                spec.predictors.len() * (spec.series_mechanisms().len() + 1)
            }
            _ => 1,
        };
    let Some(value) = (readers > 1).then(value).flatten() else {
        return;
    };
    let mut map = cache().lock();
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Box::new(value));
}

/// Returns a warmed simulator for an exact job and whether it came from
/// the cache (cache restores own their buffers and bypass the arena).
/// Checkpoints are stored only when the warm-up saw no timer switch, so
/// every restore is bit-identical to a fresh run.
fn warm(
    arena: &mut JobArena,
    spec: &SweepSpec,
    group: &JobGroup,
    mechanism: Mechanism,
) -> Result<(CellSim, bool), SbpError> {
    let key = sim_fingerprint(spec, group, mechanism, Omit::Interval);
    if let Some(mut clone) = lookup(key, CellSim::try_clone) {
        if with_sim!(&mut clone, s => s.retarget_interval(group.interval)) {
            sbp_telemetry::counter("warm_cache_hit", 1.0, false, "");
            return Ok((clone, true));
        }
    }
    sbp_telemetry::counter("warm_cache_miss", 1.0, false, "");
    let sim = CellSim::warmed(arena, spec, group, mechanism)?;
    if with_sim!(&sim, s => s.context_switches()) == 0 {
        share(spec, Omit::Interval, key, || sim.try_clone());
    }
    Ok((sim, false))
}

/// Executes a sampled simulation job: the window measurement is
/// interval-independent, so it is shared across the interval axis
/// through the cache, and the per-interval estimate is produced
/// analytically. Its warm state is never kept: no other job reads it.
fn run_sampled_job(
    arena: &mut JobArena,
    spec: &SweepSpec,
    group: &JobGroup,
    mechanism: Mechanism,
    sampling: &SamplingPlan,
) -> Result<RawResult, SbpError> {
    let key = sim_fingerprint(spec, group, mechanism, Omit::Interval);
    let m = match lookup(key, |m: &SampledMeasurement| Some(m.clone())) {
        Some(m) => {
            sbp_telemetry::counter("window_cache_hit", 1.0, false, "");
            m
        }
        None => {
            sbp_telemetry::counter("window_cache_miss", 1.0, false, "");
            let phases = match sampling.phase_windows {
                0 => None,
                _ => Some(phase_schedule(spec, group, mechanism, sampling)?),
            };
            let mut sim = CellSim::warmed(arena, spec, group, mechanism)?;
            let m = measure_windows(&mut sim, sampling, phases.as_ref(), window_threads());
            with_sim!(&mut sim, s => s.release_buffers(&mut arena.buffers));
            share(spec, Omit::Interval, key, || Some(m.clone()));
            m
        }
    };
    // Per-window gauges are deterministic: `m` is bit-identical whether
    // it came from the cache, a serial run, or the window fan-out, so
    // every job of the group emits the same sequence.
    for (w, cycles) in m.steady_cycles.iter().enumerate() {
        sbp_telemetry::gauge(
            "steady_window_cycles",
            *cycles,
            true,
            &format!("window {w}"),
        );
    }
    for (w, cycles) in m.event_cycles.iter().enumerate() {
        sbp_telemetry::gauge("event_window_cycles", *cycles, true, &format!("window {w}"));
    }
    let est = estimate_cycles(&m, spec.budget.measure, group.interval);
    let mut stats = m.stats;
    stats.cycles = est.cycles as u64;
    Ok(RawResult::Sim(RawRun {
        cycles: est.cycles,
        stats,
        per_thread: m.per_thread,
        stderr: Some(est.stderr),
    }))
}

/// Measures the warm simulator's sampled windows. With `threads > 1`,
/// each window runs on its own clone of the warm state
/// ([`SampledSim::run_window`]) across a `threads`-wide pool, and the
/// per-window results reassemble into exactly the measurement the
/// serial run produces (each clone replays its prefix functionally).
/// Falls back to the serial run when the simulator cannot be cloned.
fn measure_windows(
    sim: &mut CellSim,
    plan: &SamplingPlan,
    phases: Option<&PhaseSchedule>,
    threads: usize,
) -> SampledMeasurement {
    with_sim!(sim, s => {
        let schedule = s.schedule(plan, phases);
        let n = schedule.windows.len();
        let slots = (threads > 1 && n > 1)
            .then(|| {
                let clone = || s.try_clone().map(|c| Mutex::new(Some(c)));
                (0..n).map(|_| clone()).collect::<Option<Vec<_>>>()
            })
            .flatten();
        let Some(slots) = slots else {
            return s.run_schedule(&schedule);
        };
        sbp_telemetry::gauge("window_threads", threads as f64, false, "");
        // Window threads record their phase spans into this job's lane,
        // adopted in window order.
        let scope = sbp_telemetry::JobScope::current();
        let runs = parallel_map_bounded_with(n, threads, || (), |(), i| {
            let solo = slots[i].lock().take();
            scope.capture(|| solo.expect("one clone per window").run_window(&schedule, i))
        });
        let runs = runs.into_iter().map(|(run, events)| {
            sbp_telemetry::adopt(events);
            run
        });
        schedule.assemble(runs.collect())
    })
}

/// The phase-clustered steady-window schedule of a single-core replay
/// job (`SamplingPlan::phase_windows`). The target workload must be a
/// `replay:<workload>@<dir>` stream — the clusterer reads the same
/// on-disk trace the simulator replays, skipping the warm-up prefix so
/// schedule indices line up with the warm cursor. Every clusterer input
/// (trace, skip, sampling plan) stays in the schedule's cache key.
fn phase_schedule(
    spec: &SweepSpec,
    group: &JobGroup,
    mechanism: Mechanism,
    sampling: &SamplingPlan,
) -> Result<PhaseSchedule, SbpError> {
    if spec.mode != SweepMode::SingleCore {
        return Err(SbpError::config(
            "phase-clustered sampling (phase_windows > 0) is single-core only",
        ));
    }
    let case = &spec.cases[group.case_index];
    let target = case.workloads.first().map(String::as_str).unwrap_or("");
    let Some((workload, dir)) = sbp_trace::parse_replay(target) else {
        return Err(SbpError::config(format!(
            "phase-clustered sampling needs a replay target \
             (`replay:<workload>@<dir>`), got `{target}`",
        )));
    };
    // Context 0 of the single-core sim: fixed base address, seed stream 0
    // (must match `SingleCoreSim::new`'s derivation).
    let path = sbp_trace::replay_trace_path(
        std::path::Path::new(dir),
        workload,
        0x1000_0000,
        sbp_types::rng::SplitMix64::derive(group.seed, 0),
    );
    // Branches the event-window stratum will consume after the last
    // clustered interval, plus one batch-refill of slack (the replayer
    // serves events in `EventBuffer` batches, so the simulator can pull
    // up to a batch beyond what it executes).
    let reserve = sampling.event_windows as u64
        * (sampling.gap + sampling.rewarm + sampling.event_window)
        + 2 * EventBuffer::DEFAULT_CAPACITY as u64;
    let key = sim_fingerprint(spec, group, mechanism, Omit::IntervalPredictorMechanism);
    if let Some(s) = lookup(key, |s: &PhaseSchedule| Some(s.clone())) {
        return Ok(s);
    }
    let schedule = sbp_trace::cluster_trace(
        &path,
        spec.budget.warmup,
        sampling.window,
        sampling.phase_windows as usize,
        reserve,
    )?;
    share(spec, Omit::IntervalPredictorMechanism, key, || {
        Some(schedule.clone())
    });
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::Mechanism;
    use sbp_sim::WorkBudget;

    use crate::spec::CaseSpec;

    fn quick_spec(mode_smt: bool) -> SweepSpec {
        let base = if mode_smt {
            SweepSpec::smt("exec test")
        } else {
            SweepSpec::single("exec test")
        };
        base.with_cases(vec![CaseSpec::pair("c1", "gcc", "calculix")])
            .with_intervals(vec![sbp_sim::SwitchInterval::M8])
            .with_mechanisms(vec![Mechanism::CompleteFlush])
            .with_budget(WorkBudget::quick())
    }

    /// The warm-checkpoint cache must be invisible in results: executing
    /// a two-interval grid (the second interval retargets the first's
    /// warm state) matches per-job fresh runs bit for bit.
    #[test]
    fn checkpoint_reuse_across_intervals_changes_no_results() {
        for smt in [false, true] {
            let spec = quick_spec(smt).with_intervals(vec![
                sbp_sim::SwitchInterval::M8,
                sbp_sim::SwitchInterval::M12,
            ]);
            let plan = crate::plan::plan(&spec);
            let cached = execute(&spec, &plan).expect("run");
            // Fresh single-interval specs never share a warm key with a
            // still-cached snapshot being retargeted mid-grid, so each
            // cell is recomputed from scratch for comparison.
            for (job, got) in plan.jobs.iter().zip(&cached) {
                let fresh = run_job_in(&mut JobArena::new(), &spec, &plan, job).expect("fresh run");
                assert_eq!(got, &fresh, "checkpoint restore diverged (smt={smt})");
            }
        }
    }

    /// Cache keys of every sim job in `spec`'s plan, with `omit` left out.
    fn cache_keys(spec: &SweepSpec, omit: Omit) -> Vec<u64> {
        let plan = crate::plan::plan(spec);
        plan.jobs
            .iter()
            .filter_map(Job::sim)
            .map(|(g, m)| sim_fingerprint(spec, &plan.groups[g], m, omit))
            .collect()
    }

    /// A value no other planned job could read is never stored: a
    /// single-interval grid leaves no warm state or window measurement
    /// behind, exact or sampled, on either core mode. (Each spec draws a
    /// master seed no other test uses, so concurrently running tests
    /// cannot fill these keys.)
    #[test]
    fn single_interval_grids_leave_the_cache_empty() {
        for smt in [false, true] {
            for sampling in [None, Some(sbp_sim::SamplingPlan::quick_functional())] {
                let spec = quick_spec(smt)
                    .with_master_seed(0x5eed_0001)
                    .with_sampling(sampling);
                execute(&spec, &crate::plan::plan(&spec)).expect("run");
                let map = cache().lock();
                for key in cache_keys(&spec, Omit::Interval) {
                    assert!(
                        !map.contains_key(&key),
                        "stored an unread value (smt={smt})"
                    );
                }
            }
        }
    }

    /// Sampled jobs share window measurements across the interval axis
    /// and never snapshot warm state.
    #[test]
    fn sampled_grids_never_cache_warm_state() {
        for smt in [false, true] {
            let spec = quick_spec(smt)
                .with_master_seed(0x5eed_0002)
                .with_intervals(vec![
                    sbp_sim::SwitchInterval::M8,
                    sbp_sim::SwitchInterval::M12,
                ])
                .with_sampling(Some(sbp_sim::SamplingPlan::quick_functional()));
            execute(&spec, &crate::plan::plan(&spec)).expect("run");
            let map = cache().lock();
            for key in cache_keys(&spec, Omit::Interval) {
                assert!(
                    !map.get(&key).is_some_and(|v| v.is::<CellSim>()),
                    "a sampled job cached its warm state (smt={smt})"
                );
            }
        }
    }

    #[test]
    fn sampled_execution_is_deterministic_and_estimates_overhead() {
        for smt in [false, true] {
            let spec = quick_spec(smt).with_sampling(Some(sbp_sim::SamplingPlan::quick()));
            let plan = crate::plan::plan(&spec);
            let first = execute(&spec, &plan).expect("run");
            let second = execute(&spec, &plan).expect("rerun");
            assert_eq!(first, second, "sampled results must be deterministic");
            assert_eq!(first.len(), 2);
            let baseline = first[0].sim().expect("sim");
            let flush = first[1].sim().expect("sim");
            for r in [baseline, flush] {
                assert!(r.cycles > 0.0);
                let se = r.stderr.expect("sampled runs carry a stderr");
                assert!(se.is_finite() && se >= 0.0);
            }
            assert!(
                flush.cycles > baseline.cycles,
                "Complete Flush must cost cycles over baseline (smt={smt}): \
                 {} vs {}",
                flush.cycles,
                baseline.cycles,
            );
        }
    }

    /// Window-parallel execution is an implementation detail: fanning
    /// the sampled windows out across clones of the warm simulator must
    /// reassemble the exact `SampledMeasurement` the serial run
    /// produces, in both gap modes and on both core modes.
    #[test]
    fn window_parallel_sampled_measurement_matches_serial() {
        for smt in [false, true] {
            for splan in [
                sbp_sim::SamplingPlan::quick(),
                sbp_sim::SamplingPlan::quick_functional(),
            ] {
                let spec = quick_spec(smt).with_sampling(Some(splan));
                let plan = crate::plan::plan(&spec);
                let (group, mechanism) = match &plan.jobs[1] {
                    Job::Sim { group, mechanism } => (&plan.groups[*group], *mechanism),
                    Job::Attack(_) => unreachable!("sim plan"),
                };
                let mut arena = JobArena::new();
                let mut serial =
                    CellSim::warmed(&mut arena, &spec, group, mechanism).expect("warm");
                let want = with_sim!(&mut serial, s => s.run_sampled(&splan));
                let mut windowed =
                    CellSim::warmed(&mut arena, &spec, group, mechanism).expect("warm");
                let got = measure_windows(&mut windowed, &splan, None, 3);
                assert_eq!(got, want, "windowed (smt={smt}, {:?})", splan.gap_mode);
            }
        }
    }

    #[test]
    fn window_threads_knob_clamps_and_overrides() {
        set_window_threads(0);
        assert_eq!(window_threads(), 1, "zero clamps to serial");
        set_window_threads(4);
        assert_eq!(window_threads(), 4);
        set_window_threads(1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<usize> = parallel_map(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn executes_single_core_plan() {
        let spec = quick_spec(false);
        let plan = crate::plan::plan(&spec);
        let raw = execute(&spec, &plan).expect("run");
        assert_eq!(raw.len(), 2);
        for r in &raw {
            let r = r.sim().expect("sim result");
            assert!(r.cycles > 0.0);
            assert!(r.stats.cond_branches > 0);
            assert!(r.per_thread.is_empty(), "no per-thread split single-core");
        }
    }

    #[test]
    fn executes_smt_plan_with_summed_thread_stats() {
        let spec = quick_spec(true);
        let plan = crate::plan::plan(&spec);
        let raw = execute(&spec, &plan).expect("run");
        assert_eq!(raw.len(), 2);
        for r in &raw {
            let r = r.sim().expect("sim result");
            assert!(r.cycles > 0.0);
            // Both threads' instructions are folded into one record...
            assert!(r.stats.instructions >= spec.budget.measure);
            // ...and the per-thread breakdown sums back to it.
            assert_eq!(r.per_thread.len(), 2);
            assert_eq!(
                r.per_thread.iter().map(|t| t.instructions).sum::<u64>(),
                r.stats.instructions
            );
        }
    }

    #[test]
    fn executes_attack_plans() {
        use sbp_attack::AttackKind;
        let spec = crate::spec::SweepSpec::attack("exec test")
            .with_attacks(vec![AttackKind::SpectreV2])
            .with_mechanisms(vec![Mechanism::Baseline, Mechanism::noisy_xor_bp()])
            .with_attack_modes(vec![crate::spec::SweepMode::SingleCore])
            .with_trials(300);
        let plan = crate::plan::plan(&spec);
        let raw = execute(&spec, &plan).expect("run");
        assert_eq!(raw.len(), 2);
        let baseline = raw[0].attack().expect("attack outcome");
        let defended = raw[1].attack().expect("attack outcome");
        assert!(baseline.success_rate > defended.success_rate);
        assert_eq!(baseline.trials, 300);
    }

    #[test]
    fn arena_reuse_changes_no_results() {
        let spec = quick_spec(false);
        let plan = crate::plan::plan(&spec);
        let mut arena = JobArena::new();
        let pooled: Vec<RawResult> = plan
            .jobs
            .iter()
            .map(|j| run_job_in(&mut arena, &spec, &plan, j).expect("run"))
            .collect();
        // Every buffer adopted from the arena came back: at most one per
        // software context. Jobs served from the warm-checkpoint cache
        // (populated here or by a concurrently running test — the cache
        // is process-wide) own their cloned buffers and bypass the arena,
        // so the pool may legitimately hold fewer.
        assert!(arena.pooled_buffers() <= 2, "arena leaked buffers");
        let fresh: Vec<RawResult> = plan
            .jobs
            .iter()
            .map(|j| run_job_in(&mut JobArena::new(), &spec, &plan, j).expect("run"))
            .collect();
        assert_eq!(pooled, fresh, "arena reuse must not change results");
    }

    #[test]
    fn parallel_map_with_reuses_worker_scratch() {
        let out = parallel_map_with(
            64,
            || 0u32,
            |calls, i| {
                *calls += 1;
                i + *calls as usize // depends on scratch, not just i
            },
        );
        // Every result is i + (per-worker call count at that moment); with
        // reuse the counts exceed 1 unless there are 64 workers.
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert!(*v > i, "scratch not threaded through");
        }
    }

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        let spec =
            quick_spec(false).with_cases(vec![CaseSpec::pair("bad", "no_such_workload", "gcc")]);
        let plan = crate::plan::plan(&spec);
        assert!(execute(&spec, &plan).is_err());
    }
}
