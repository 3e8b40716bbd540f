//! Stratified sampled simulation: plans, window measurements, and the
//! weighted cycle estimator.
//!
//! A paper-scale cell simulates millions of target branches, but the
//! quantity every figure checks — overhead relative to baseline — is
//! driven by two regimes: *steady-state* prediction cost (always-on
//! mechanism cost: codec latency, noise mispredicts, aliasing) and the
//! *post-context-switch misprediction storm* (the cost of flushed or
//! re-keyed tables retraining). A [`SamplingPlan`] measures each regime
//! directly with a few short windows and combines them with their true
//! occupancy in the exact timeline:
//!
//! ```text
//! M̂ = B·c_s + n_sw · W_e · (c_e − c_s)      n_sw = M̂ · T / I
//!   ⇒ M̂ = B·c_s / (1 − T·W_e·(c_e − c_s)/I)
//! ```
//!
//! where `B` is the full measurement budget (target branches on the
//! single core, instructions on SMT), `c_s`/`c_e` are the per-unit cycle
//! costs measured in the steady/event windows, `W_e` is the event-window
//! length, `I` the context-switch interval in cycles and `T` the number
//! of hardware threads receiving timer interrupts (1 on the single
//! core). The fixed point exists because switches happen per *cycle* of
//! executed time while windows are denominated in work units.
//!
//! Because switches enter only through the analytic weight `n_sw`, the
//! measurement itself is **interval-independent**: one warm simulation
//! yields estimates for every interval on the axis. Window boundaries
//! are count-based (not clock-based), so baseline and mechanism cells
//! with the same seed measure the *same stream positions* — the paired
//! common-random-numbers design that makes overhead deltas low-variance.
//!
//! The estimator propagates a standard error from the per-window spread
//! via the delta method; reports carry it so tolerance checks can see
//! the sampling uncertainty. The exact path remains the reference:
//! sampling is opt-in per sweep spec.
//!
//! Both simulators run the measurement through one driver: a plan (plus
//! an optional phase-clustered [`PhaseSchedule`]) becomes one ordered
//! [`WindowSchedule`], and [`SampledSim`] walks it over the simulator's
//! own stepping loops — measuring every window ([`SampledSim::run_schedule`])
//! or only window *i* after a functional replay of its prefix
//! ([`SampledSim::run_window`], the unit of window parallelism). Either
//! way [`WindowSchedule::assemble`] builds the [`SampledMeasurement`].

use serde::{Deserialize, Serialize};

use sbp_trace::PhaseSchedule;
use sbp_types::{PredictionStats, SbpError};

use crate::config::SwitchInterval;
use crate::experiment::scale;

/// How a sampled run advances through the gap regions between windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GapMode {
    /// Skip gaps generation-only: the trace generator advances (RNG
    /// cursor preserved) but no branch executes, so predictor state goes
    /// stale and each window needs a `rewarm` prefix. Cheapest, but
    /// under-covers background table pollution in storm-dominated cells.
    #[default]
    FastForward,
    /// Execute gaps *functionally*: every branch trains the predictors,
    /// BTB, RAS and key contexts bit-identically to the timed path, but
    /// cycle/stats bookkeeping is skipped. Slower than fast-forward per
    /// unit, yet windows open on exact predictor state — `rewarm` can be
    /// zero and gaps can shrink to decorrelation spacing, eliminating
    /// the storm-cell pollution bias by construction.
    Functional,
}

/// A stratified sampling plan.
///
/// Units are **target branches** on the single core and **total
/// instructions** on SMT, matching the corresponding
/// [`crate::WorkBudget`] denominations. All window work is executed
/// through the normal batched hot loop; gaps advance the target's trace
/// generator without executing (see `TraceGenerator::skip_branches`)
/// under [`GapMode::FastForward`], or execute functionally (state-exact,
/// timing-free) under [`GapMode::Functional`]. Both preserve the RNG
/// cursor, so sampled runs are byte-deterministic for a fixed plan and
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Number of steady-state measurement windows.
    pub steady_windows: u32,
    /// Work units measured per steady window.
    pub window: u64,
    /// Work units skipped (generation-only) before each window.
    pub gap: u64,
    /// Work units executed unmeasured after each gap, re-synchronising
    /// the predictor with the stream position before measuring.
    pub rewarm: u64,
    /// Number of forced-context-switch event windows.
    pub event_windows: u32,
    /// Work units measured per event window (must cover the
    /// misprediction storm).
    pub event_window: u64,
    /// Background work executed between the forced switch pair on the
    /// single core (models the other context's table pollution);
    /// unused on SMT where threads run concurrently.
    pub burst: u64,
    /// Gap advancement strategy (see [`GapMode`]). Defaults to
    /// [`GapMode::FastForward`], the pre-hybrid behaviour.
    #[serde(default)]
    pub gap_mode: GapMode,
    /// When nonzero, steady windows are *phase-clustered*: the target
    /// stream must be a recorded trace, and up to this many
    /// representative windows (chosen by `sbp_trace::cluster_trace`,
    /// weighted by phase share) replace the uniform
    /// `steady_windows`-window schedule. Event windows still follow the
    /// plan. Zero (the default) keeps the uniform schedule.
    #[serde(default)]
    pub phase_windows: u32,
}

impl SamplingPlan {
    /// Default plan for single-core sweeps (branch units), scaled by
    /// `SBP_SCALE` like [`crate::WorkBudget::single_default`].
    pub fn single_default() -> Self {
        let s = scale();
        SamplingPlan {
            steady_windows: 4,
            window: scaled(60_000, s, 2_000),
            gap: scaled(400_000, s, 4_000),
            rewarm: scaled(20_000, s, 1_000),
            event_windows: 2,
            event_window: scaled(40_000, s, 2_000),
            burst: scaled(24_000, s, 1_000),
            gap_mode: GapMode::FastForward,
            phase_windows: 0,
        }
    }

    /// Default plan for SMT sweeps (instruction units), scaled by
    /// `SBP_SCALE` like [`crate::WorkBudget::smt_default`].
    pub fn smt_default() -> Self {
        let s = scale();
        SamplingPlan {
            steady_windows: 4,
            window: scaled(2_000_000, s, 40_000),
            gap: scaled(10_000_000, s, 100_000),
            rewarm: scaled(500_000, s, 20_000),
            event_windows: 2,
            event_window: scaled(1_200_000, s, 40_000),
            burst: 0,
            gap_mode: GapMode::FastForward,
            phase_windows: 0,
        }
    }

    /// Hybrid single-core plan: small *executed* gaps, no rewarm, and
    /// event windows long enough to hold the whole storm.
    ///
    /// Functional gap execution keeps predictor state exact, so the gap
    /// only needs to decorrelate adjacent windows, not re-cover phase
    /// behaviour — the synthetic workload generators are stationary.
    /// The 160k-branch event window covers the full post-switch
    /// misprediction storm: the flush-family retrain tail extends well
    /// past the default plan's 40k-branch window, and truncating it was
    /// the dominant storm-cell bias (CF/4M read ~35% low; with the full
    /// tail it lands within ~1% of exact — see `docs/PERFORMANCE.md`).
    pub fn single_hybrid() -> Self {
        let s = scale();
        SamplingPlan {
            steady_windows: 4,
            window: scaled(60_000, s, 2_000),
            gap: scaled(100_000, s, 2_000),
            rewarm: 0,
            event_windows: 2,
            event_window: scaled(160_000, s, 2_000),
            burst: scaled(24_000, s, 1_000),
            gap_mode: GapMode::Functional,
            phase_windows: 0,
        }
    }

    /// Hybrid SMT plan: smaller windows and executed gaps, no rewarm.
    ///
    /// The SMT scheduler is clock-driven, so functional stepping keeps
    /// cycle arithmetic (see `SmtSim`) and the speedup comes from the
    /// leaner geometry: roughly half the total stepped instructions of
    /// [`Self::smt_default`] with bias-free gap coverage. Gaps shrink
    /// the most — with state-exact execution they only decorrelate
    /// adjacent windows, so 250k instructions replace the default's
    /// 10M-instruction fast-forward regions.
    pub fn smt_hybrid() -> Self {
        let s = scale();
        SamplingPlan {
            steady_windows: 4,
            window: scaled(800_000, s, 40_000),
            gap: scaled(250_000, s, 20_000),
            rewarm: 0,
            event_windows: 2,
            event_window: scaled(1_000_000, s, 40_000),
            burst: 0,
            gap_mode: GapMode::Functional,
            phase_windows: 0,
        }
    }

    /// A tiny plan for unit tests (seconds, not minutes).
    pub fn quick() -> Self {
        SamplingPlan {
            steady_windows: 2,
            window: 5_000,
            gap: 8_000,
            rewarm: 2_000,
            event_windows: 1,
            event_window: 4_000,
            burst: 3_000,
            gap_mode: GapMode::FastForward,
            phase_windows: 0,
        }
    }

    /// [`Self::quick`] with functional gaps, for hybrid-path unit tests.
    pub fn quick_functional() -> Self {
        SamplingPlan {
            rewarm: 0,
            gap_mode: GapMode::Functional,
            ..Self::quick()
        }
    }

    /// Canonical identity string for store fingerprints: two plans with
    /// different windows must never collide in a sweep store. Legacy
    /// fast-forward plans keep their pre-[`GapMode`] strings byte-stable
    /// (existing stores stay valid); functional plans append a mode
    /// token so the two paths never share cached results, and
    /// phase-clustered plans append a `p{k}` token for the same reason.
    pub fn fingerprint(&self) -> String {
        let mode = match self.gap_mode {
            GapMode::FastForward => "",
            GapMode::Functional => "mfunc",
        };
        let phases = if self.phase_windows > 0 {
            format!("p{}", self.phase_windows)
        } else {
            String::new()
        };
        format!(
            "s{}x{}g{}r{}e{}x{}b{}{mode}{phases}",
            self.steady_windows,
            self.window,
            self.gap,
            self.rewarm,
            self.event_windows,
            self.event_window,
            self.burst
        )
    }

    /// Checks the plan is executable.
    ///
    /// # Errors
    ///
    /// Returns a config error when a window stratum has zero windows or
    /// zero-length windows.
    pub fn validate(&self) -> Result<(), SbpError> {
        if self.steady_windows == 0 || self.window == 0 {
            return Err(SbpError::config(
                "sampling plan needs at least one non-empty steady window",
            ));
        }
        if self.event_windows > 0 && self.event_window == 0 {
            return Err(SbpError::config(
                "sampling plan event windows must be non-empty",
            ));
        }
        Ok(())
    }

    /// Work units executed (not skipped) per measurement, excluding
    /// warmup — the cost the plan pays per cell.
    pub fn executed_units(&self) -> u64 {
        self.steady_windows as u64 * (self.window + self.rewarm)
            + self.event_windows as u64 * (self.event_window + self.rewarm + self.burst)
    }
}

fn scaled(value: u64, s: f64, min: u64) -> u64 {
    ((value as f64 * s) as u64).max(min)
}

/// Raw per-window measurements from a sampled run, before any weighting.
///
/// Built by [`WindowSchedule::assemble`]; interval-independent (the forced-switch windows measure the storm
/// itself, and the interval enters only in [`estimate_cycles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SampledMeasurement {
    /// Measured cycles per steady window (target cycles on the single
    /// core, wall cycles on SMT).
    pub steady_cycles: Vec<f64>,
    /// Work units per steady window.
    pub steady_units: u64,
    /// Measured cycles per forced-switch event window (includes the
    /// resume context-switch overhead, as the exact loop attributes it).
    pub event_cycles: Vec<f64>,
    /// Work units per event window.
    pub event_units: u64,
    /// Aggregate prediction statistics over the steady windows only.
    /// Storm windows are excluded so accuracy/MPKI reflect their tiny
    /// true occupancy rather than the deliberate event oversampling.
    pub stats: PredictionStats,
    /// Per-thread steady-window statistics (SMT; empty on single core).
    pub per_thread: Vec<PredictionStats>,
    /// Hardware threads receiving timer interrupts (the `T` in the
    /// estimator); 1 on the single core.
    pub threads: u32,
    /// Per-steady-window weights from phase clustering (summing to 1).
    /// Empty for the uniform schedule, where every window carries equal
    /// weight — the estimator reproduces the legacy unweighted
    /// arithmetic bit-for-bit in that case.
    pub steady_weights: Vec<f64>,
}

/// What one scheduled window measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowKind {
    /// A steady-state window.
    Steady {
        /// Work units measured.
        len: u64,
        /// Phase-population weight, `None` on the uniform schedule.
        weight: Option<f64>,
    },
    /// A window opened by a forced context switch.
    Event {
        /// Work units measured after the switch.
        len: u64,
        /// Hardware thread whose timer event fires (0 on the single core).
        thread: usize,
    },
}

/// One entry of a [`WindowSchedule`]: the gap that precedes a window,
/// then the window itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Gap units advanced before the window: skipped generation-only
    /// under [`GapMode::FastForward`], executed functionally otherwise.
    pub skip: u64,
    /// Gap units executed after `skip` to re-synchronise the predictor
    /// (timed under fast-forward, functional otherwise).
    pub rewarm: u64,
    /// The measured window.
    pub kind: WindowKind,
}

/// A sampling plan resolved into the ordered list of windows one
/// simulator measures: steady windows (uniform, or the phase-clustered
/// representatives), then the forced-switch event windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSchedule {
    /// The windows, in execution order.
    pub windows: Vec<Window>,
    gap_mode: GapMode,
    burst: u64,
    threads: u32,
}

impl WindowSchedule {
    /// Resolves `plan` for a simulator with `threads` timer-interrupted
    /// hardware threads (event windows round-robin across them).
    ///
    /// With `phases`, the steady windows are the schedule's
    /// representatives instead of the plan's uniform ones. `phases`
    /// indexes the **target's** branch stream from the warm cursor, so it
    /// must have been clustered with a `skip` equal to the warm-up the
    /// simulator ran.
    pub fn new(plan: &SamplingPlan, phases: Option<&PhaseSchedule>, threads: u32) -> Self {
        // (gap before the window, window length, phase weight)
        let steady: Vec<(u64, u64, Option<f64>)> = match phases {
            None => vec![(plan.gap + plan.rewarm, plan.window, None); plan.steady_windows as usize],
            Some(phases) => {
                // Target branches consumed since the schedule origin.
                let mut pos = 0u64;
                let picks = phases.picks.iter().map(|pick| {
                    let start = pick.index * phases.interval;
                    debug_assert!(start >= pos, "picks must ascend");
                    let gap = start - pos;
                    pos = start + phases.interval;
                    (gap, phases.interval, Some(pick.weight))
                });
                picks.collect()
            }
        };
        let mut windows: Vec<Window> = steady
            .into_iter()
            .map(|(gap, len, weight)| {
                let rewarm = plan.rewarm.min(gap);
                Window {
                    skip: gap - rewarm,
                    rewarm,
                    kind: WindowKind::Steady { len, weight },
                }
            })
            .collect();
        windows.extend((0..plan.event_windows).map(|w| Window {
            skip: plan.gap,
            rewarm: plan.rewarm,
            kind: WindowKind::Event {
                len: plan.event_window,
                thread: w as usize % threads as usize,
            },
        }));
        WindowSchedule {
            windows,
            gap_mode: plan.gap_mode,
            burst: plan.burst,
            threads,
        }
    }

    /// Reassembles per-window results — from one serial run or from one
    /// clone per window, in schedule order — into the measurement.
    ///
    /// Steady-window statistics aggregate per hardware thread; on SMT the
    /// aggregate's cycle counters are the final per-thread clocks, read
    /// from the last window.
    pub fn assemble(&self, runs: Vec<WindowRun>) -> SampledMeasurement {
        debug_assert_eq!(runs.len(), self.windows.len(), "one run per window");
        let (mut steady_cycles, mut steady_weights, mut event_cycles) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut steady_units, mut event_units) = (0, 0);
        let mut agg: Vec<PredictionStats> = Vec::new();
        for (window, run) in self.windows.iter().zip(&runs) {
            match window.kind {
                WindowKind::Steady { len, weight } => {
                    steady_units = len;
                    steady_cycles.push(run.cycles);
                    steady_weights.extend(weight);
                    agg.resize(run.stats.len(), PredictionStats::new());
                    for (a, s) in agg.iter_mut().zip(&run.stats) {
                        *a += *s;
                    }
                }
                WindowKind::Event { len, .. } => {
                    event_units = len;
                    event_cycles.push(run.cycles);
                }
            }
        }
        let clocks = runs.last().map_or(&[][..], |r| &r.thread_cycles[..]);
        for (a, clock) in agg.iter_mut().zip(clocks) {
            a.cycles = *clock;
        }
        let mut stats = PredictionStats::new();
        for a in &agg {
            stats += *a;
        }
        SampledMeasurement {
            steady_cycles,
            steady_units,
            event_cycles,
            event_units,
            stats,
            per_thread: if clocks.is_empty() { Vec::new() } else { agg },
            threads: self.threads,
            steady_weights,
        }
    }
}

/// The measured result of one scheduled window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRun {
    /// Measured cycles (target cycles on the single core, wall cycles on
    /// SMT).
    pub cycles: f64,
    /// Window statistics: the target's (cycles stamped with the window's)
    /// on the single core, one per hardware thread on SMT.
    pub stats: Vec<PredictionStats>,
    /// Per-thread cycle counters after the window (SMT; empty on the
    /// single core, which reports no per-thread split).
    pub thread_cycles: Vec<u64>,
}

/// A forced context switch opening an event window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedSwitch {
    /// Hardware thread whose timer event fires.
    pub thread: usize,
    /// Background work between the switch pair (single core only).
    pub burst: u64,
    /// Run the burst through the timing-free path (state-identical).
    pub functional: bool,
}

/// The stepping loops a simulator lends the sampled driver. Work units
/// are target branches on the single core and instructions (across all
/// threads) on SMT.
pub trait SampledSim {
    /// Hardware threads receiving timer interrupts (the estimator's `T`).
    fn timer_threads(&self) -> u32;

    /// Disables the natural timer for the rest of the simulator's life:
    /// switches are forced at event windows and weighted analytically
    /// per interval, which makes one sampled run valid for every
    /// interval.
    fn disable_timers(&mut self);

    /// Fast-forwards the stream `units` generation-only (clocks and
    /// predictor state untouched).
    fn skip(&mut self, units: u64);

    /// Executes `units` unmeasured, timed or through the functional
    /// (state-exact, timing-free) path.
    fn advance(&mut self, units: u64, functional: bool);

    /// Fires a forced context switch outside a measured window.
    fn force_switch(&mut self, switch: ForcedSwitch);

    /// Resets statistics and measures `units`, opened by `switch` for an
    /// event window.
    fn measure(&mut self, units: u64, switch: Option<ForcedSwitch>) -> WindowRun;

    /// The schedule `plan` (and optional phase clustering) resolves to on
    /// this simulator.
    fn schedule(&self, plan: &SamplingPlan, phases: Option<&PhaseSchedule>) -> WindowSchedule {
        WindowSchedule::new(plan, phases, self.timer_threads())
    }

    /// Measures every window of `schedule` from the current (warm)
    /// state.
    fn run_schedule(&mut self, schedule: &WindowSchedule) -> SampledMeasurement {
        let runs = drive(self, schedule, None);
        schedule.assemble(runs)
    }

    /// Measures only window `index` of `schedule` from the current (warm)
    /// state. Every earlier region — gaps, forced switches and the earlier
    /// windows themselves — replays through the functional path, which
    /// leaves predictor, generator and (on SMT) clock state bit-identical
    /// to [`Self::run_schedule`] at the window's opening, so the window
    /// reproduces the serial numbers exactly.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    fn run_window(&mut self, schedule: &WindowSchedule, index: usize) -> WindowRun {
        assert!(index < schedule.windows.len(), "window index out of range");
        drive(self, schedule, Some(index))
            .pop()
            .expect("the requested window was measured")
    }
}

/// The one sampled-simulation driver: walks `schedule`, measuring every
/// window (`only == None`) or replaying up to window `only` functionally
/// and measuring just that one. Phase boundaries open the advisory
/// telemetry spans `gap`, `steady_window` and `event_window`.
fn drive<S: SampledSim + ?Sized>(
    sim: &mut S,
    schedule: &WindowSchedule,
    only: Option<usize>,
) -> Vec<WindowRun> {
    sim.disable_timers();
    let mut runs = Vec::new();
    let end = only.map_or(schedule.windows.len(), |i| i + 1);
    for (i, window) in schedule.windows[..end].iter().enumerate() {
        let measured = only.is_none_or(|o| o == i);
        {
            let _span = sbp_telemetry::span("gap", false, "");
            match schedule.gap_mode {
                GapMode::FastForward => {
                    sim.skip(window.skip);
                    sim.advance(window.rewarm, !measured);
                }
                GapMode::Functional => sim.advance(window.skip + window.rewarm, true),
            }
        }
        let (len, switch, span) = match window.kind {
            WindowKind::Steady { len, .. } => (len, None, "steady_window"),
            WindowKind::Event { len, thread } => {
                let switch = ForcedSwitch {
                    thread,
                    burst: schedule.burst,
                    functional: !measured || schedule.gap_mode == GapMode::Functional,
                };
                (len, Some(switch), "event_window")
            }
        };
        if measured {
            let _span = sbp_telemetry::span(span, false, "");
            runs.push(sim.measure(len, switch));
        } else {
            if let Some(switch) = switch {
                sim.force_switch(switch);
            }
            sim.advance(len, true);
        }
    }
    runs
}

/// A weighted cycle estimate with its propagated standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledEstimate {
    /// Estimated cycles for the full measurement budget.
    pub cycles: f64,
    /// Delta-method standard error of `cycles` from the per-window
    /// spread (0 when a stratum has a single window).
    pub stderr: f64,
}

/// Combines window measurements into the full-budget cycle estimate for
/// one context-switch interval (see the module docs for the model).
///
/// `measure_units` is the exact-path measurement budget the estimate
/// stands in for ([`crate::WorkBudget::measure`]).
pub fn estimate_cycles(
    m: &SampledMeasurement,
    measure_units: u64,
    interval: SwitchInterval,
) -> SampledEstimate {
    let (c_s, se_s) = if m.steady_weights.is_empty() {
        per_unit(&m.steady_cycles, m.steady_units)
    } else {
        per_unit_weighted(&m.steady_cycles, m.steady_units, &m.steady_weights)
    };
    let b = measure_units as f64;
    let no_events =
        m.event_cycles.is_empty() || m.event_units == 0 || interval.cycles() == u64::MAX;
    if no_events {
        return SampledEstimate {
            cycles: b * c_s,
            stderr: b * se_s,
        };
    }
    let (c_e, se_e) = per_unit(&m.event_cycles, m.event_units);
    let w_e = m.event_units as f64;
    let t = m.threads as f64;
    let i = interval.cycles() as f64;
    // D = 1 − T·W_e·(c_e − c_s)/I; clamp so a pathological plan (storm
    // longer than the interval) degrades gracefully instead of blowing
    // up the fixed point.
    let d = (1.0 - t * w_e * (c_e - c_s) / i).max(0.25);
    let cycles = b * c_s / d;
    // Partials of M̂ = B·c_s/D with ∂D/∂c_s = +T·W_e/I, ∂D/∂c_e = −T·W_e/I.
    let dm_dcs = b / d - b * c_s * (t * w_e / i) / (d * d);
    let dm_dce = b * c_s * (t * w_e / i) / (d * d);
    let stderr = ((dm_dcs * se_s).powi(2) + (dm_dce * se_e).powi(2)).sqrt();
    SampledEstimate { cycles, stderr }
}

/// Mean and standard error of per-unit window costs.
fn per_unit(cycles: &[f64], units: u64) -> (f64, f64) {
    if cycles.is_empty() || units == 0 {
        return (0.0, 0.0);
    }
    let u = units as f64;
    let xs: Vec<f64> = cycles.iter().map(|c| c / u).collect();
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// [`per_unit`] for phase-weighted windows: the mean weights each
/// window by its phase's share of the trace, and the standard error
/// uses the reliability-weights estimator (weights are shares, not
/// repeat counts). Falls back to the unweighted path when the weights
/// are degenerate (non-positive sum).
fn per_unit_weighted(cycles: &[f64], units: u64, weights: &[f64]) -> (f64, f64) {
    debug_assert_eq!(cycles.len(), weights.len(), "one weight per window");
    if cycles.is_empty() || units == 0 {
        return (0.0, 0.0);
    }
    let wsum: f64 = weights.iter().sum();
    if wsum <= 0.0 {
        return per_unit(cycles, units);
    }
    let u = units as f64;
    let xs: Vec<f64> = cycles.iter().map(|c| c / u).collect();
    let ws: Vec<f64> = weights.iter().map(|w| w / wsum).collect();
    let mean: f64 = xs.iter().zip(&ws).map(|(x, w)| x * w).sum();
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    // Unbiased weighted variance under reliability weights, then the
    // effective-sample-size shrink for the standard error of the mean.
    let w2: f64 = ws.iter().map(|w| w * w).sum();
    if w2 >= 1.0 {
        // One window holds all the weight: no spread information.
        return (mean, 0.0);
    }
    let var: f64 = xs
        .iter()
        .zip(&ws)
        .map(|(x, w)| w * (x - mean).powi(2))
        .sum::<f64>()
        / (1.0 - w2);
    (mean, (var * w2).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(steady: &[f64], event: &[f64]) -> SampledMeasurement {
        SampledMeasurement {
            steady_cycles: steady.to_vec(),
            steady_units: 10_000,
            event_cycles: event.to_vec(),
            event_units: 5_000,
            stats: PredictionStats::new(),
            per_thread: Vec::new(),
            threads: 1,
            steady_weights: Vec::new(),
        }
    }

    #[test]
    fn fingerprints_separate_plans() {
        let a = SamplingPlan::quick();
        let mut b = a;
        b.window += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), SamplingPlan::quick().fingerprint());
    }

    #[test]
    fn fingerprints_keep_legacy_strings_and_separate_gap_modes() {
        // Fast-forward plans must keep their pre-GapMode fingerprints so
        // existing stores resolve; functional plans must never collide
        // with them.
        let quick = SamplingPlan::quick();
        assert_eq!(quick.fingerprint(), "s2x5000g8000r2000e1x4000b3000");
        let mut func = quick;
        func.gap_mode = GapMode::Functional;
        assert_ne!(quick.fingerprint(), func.fingerprint());
        assert!(func.fingerprint().ends_with("mfunc"));
        assert!(SamplingPlan::single_hybrid().validate().is_ok());
        assert!(SamplingPlan::smt_hybrid().validate().is_ok());
        assert_ne!(
            SamplingPlan::single_hybrid().fingerprint(),
            SamplingPlan::single_default().fingerprint()
        );
    }

    #[test]
    fn schedules_list_steady_then_round_robin_event_windows() {
        let mut plan = SamplingPlan::quick();
        plan.event_windows = 3;
        let uniform = WindowSchedule::new(&plan, None, 2);
        let kinds: Vec<WindowKind> = uniform.windows.iter().map(|w| w.kind).collect();
        let steady = WindowKind::Steady {
            len: 5_000,
            weight: None,
        };
        let event = |thread| WindowKind::Event { len: 4_000, thread };
        assert_eq!(kinds, [steady, steady, event(0), event(1), event(0)]);
        assert!(uniform
            .windows
            .iter()
            .all(|w| (w.skip, w.rewarm) == (8_000, 2_000)));

        // Phase picks become weighted steady windows whose gaps reach
        // each pick's start; the rewarm never exceeds the gap.
        let phases = PhaseSchedule {
            interval: 1_000,
            picks: vec![
                sbp_trace::PhasePick {
                    index: 1,
                    weight: 3.0,
                },
                sbp_trace::PhasePick {
                    index: 9,
                    weight: 5.0,
                },
            ],
        };
        let phased = WindowSchedule::new(&plan, Some(&phases), 1);
        let gaps: Vec<(u64, u64)> = phased.windows[..2]
            .iter()
            .map(|w| (w.skip, w.rewarm))
            .collect();
        assert_eq!(gaps, [(0, 1_000), (5_000, 2_000)]);
        assert_eq!(
            phased.windows[1].kind,
            WindowKind::Steady {
                len: 1_000,
                weight: Some(5.0)
            }
        );
        assert_eq!(phased.windows.len(), 2 + 3);
    }

    #[test]
    fn validate_rejects_empty_strata() {
        let mut p = SamplingPlan::quick();
        p.steady_windows = 0;
        assert!(p.validate().is_err());
        let mut p = SamplingPlan::quick();
        p.window = 0;
        assert!(p.validate().is_err());
        let mut p = SamplingPlan::quick();
        p.event_window = 0;
        assert!(p.validate().is_err());
        p.event_windows = 0;
        assert!(p.validate().is_ok());
        assert!(SamplingPlan::single_default().validate().is_ok());
        assert!(SamplingPlan::smt_default().validate().is_ok());
    }

    #[test]
    fn no_switches_is_pure_steady_extrapolation() {
        let m = measurement(&[35_000.0, 35_000.0], &[60_000.0]);
        let est = estimate_cycles(&m, 1_000_000, SwitchInterval::Off);
        // c_s = 3.5 cycles/branch over 1M branches.
        assert!((est.cycles - 3.5e6).abs() < 1.0);
        assert_eq!(est.stderr, 0.0);
    }

    #[test]
    fn storms_add_occupancy_weighted_cost() {
        // c_s = 3.5, c_e = 12 over W_e = 5k: each storm adds
        // 5k·(12 − 3.5) = 42.5k cycles, one per 4M cycles.
        let m = measurement(&[35_000.0, 35_000.0], &[60_000.0]);
        let est = estimate_cycles(&m, 1_000_000, SwitchInterval::M4);
        let d: f64 = 1.0 - 5_000.0 * (12.0 - 3.5) / 4_000_000.0;
        assert!((est.cycles - 3.5e6 / d).abs() < 1.0);
        // Larger interval → smaller overhead, monotone.
        let est8 = estimate_cycles(&m, 1_000_000, SwitchInterval::M8);
        let est12 = estimate_cycles(&m, 1_000_000, SwitchInterval::M12);
        assert!(est.cycles > est8.cycles);
        assert!(est8.cycles > est12.cycles);
        assert!(est12.cycles > 3.5e6);
    }

    #[test]
    fn stderr_tracks_window_spread() {
        let tight = measurement(&[35_000.0, 35_010.0], &[60_000.0]);
        let loose = measurement(&[30_000.0, 40_000.0], &[60_000.0]);
        let a = estimate_cycles(&tight, 1_000_000, SwitchInterval::M8);
        let b = estimate_cycles(&loose, 1_000_000, SwitchInterval::M8);
        assert!(a.stderr > 0.0);
        assert!(b.stderr > 10.0 * a.stderr);
    }

    #[test]
    fn phase_windows_extend_the_fingerprint_without_touching_legacy() {
        let quick = SamplingPlan::quick();
        assert_eq!(quick.fingerprint(), "s2x5000g8000r2000e1x4000b3000");
        let mut phased = quick;
        phased.phase_windows = 6;
        assert_eq!(phased.fingerprint(), "s2x5000g8000r2000e1x4000b3000p6");
        let mut func = phased;
        func.gap_mode = GapMode::Functional;
        assert!(func.fingerprint().ends_with("mfuncp6"));
    }

    #[test]
    fn uniform_weights_match_the_unweighted_estimate() {
        let unweighted = measurement(&[35_000.0, 36_000.0], &[60_000.0]);
        let mut weighted = unweighted.clone();
        weighted.steady_weights = vec![0.5, 0.5];
        let a = estimate_cycles(&unweighted, 1_000_000, SwitchInterval::M8);
        let b = estimate_cycles(&weighted, 1_000_000, SwitchInterval::M8);
        assert!(
            (a.cycles - b.cycles).abs() < 1e-6,
            "{} vs {}",
            a.cycles,
            b.cycles
        );
        assert!(
            (a.stderr - b.stderr).abs() < 1e-6,
            "{} vs {}",
            a.stderr,
            b.stderr
        );
    }

    #[test]
    fn phase_weights_tilt_the_estimate_toward_heavy_phases() {
        // The cheap window carries 90% of the trace: the weighted
        // estimate must sit far below the uniform mean.
        let mut m = measurement(&[30_000.0, 60_000.0], &[]);
        m.steady_weights = vec![0.9, 0.1];
        let est = estimate_cycles(&m, 1_000_000, SwitchInterval::Off);
        // c_s = 0.9·3.0 + 0.1·6.0 = 3.3 cycles/branch.
        assert!((est.cycles - 3.3e6).abs() < 1.0, "{}", est.cycles);
        assert!(est.stderr > 0.0);
        // A single all-weight window reports zero spread.
        let mut solo = measurement(&[30_000.0], &[]);
        solo.steady_weights = vec![1.0];
        let est = estimate_cycles(&solo, 1_000_000, SwitchInterval::Off);
        assert_eq!(est.stderr, 0.0);
    }

    #[test]
    fn executed_units_counts_all_strata() {
        let p = SamplingPlan::quick();
        assert_eq!(
            p.executed_units(),
            2 * (5_000 + 2_000) + (4_000 + 2_000 + 3_000)
        );
    }
}
