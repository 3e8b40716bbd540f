//! SMT core: several hardware threads sharing one predictor front-end.
//!
//! Models the paper's gem5 experiments: one application per hardware
//! thread, a shared direction predictor and BTB, per-thread RAS and
//! histories. Periodic timer interrupts fire a context-switch event on
//! each hardware thread (the mechanism's trigger).
//!
//! The paper runs these benchmarks in gem5's **System Call Emulation**
//! mode: syscalls are emulated by the simulator, so no kernel code runs
//! and no privilege switches occur. We reproduce that by zeroing the
//! workload's syscall rate — on the SMT core the only isolation trigger
//! is the timer, exactly as in the paper (which is why Complete Flush,
//! which destroys *every* thread's state per event, loses to Noisy-XOR-BP,
//! which re-keys only the switching thread).

use sbp_core::{FrontendConfig, Mechanism, SecureFrontend};
use sbp_predictors::PredictorKind;
use sbp_trace::{
    EventBuffer, EventSource, TraceEvent, TraceGenerator, TraceReplayer, WorkloadProfile,
};
use sbp_types::{CoreEvent, PredictionStats, SbpError, ThreadId};

use crate::config::{CoreConfig, SwitchInterval};
use crate::sampling::{ForcedSwitch, SampledMeasurement, SampledSim, SamplingPlan, WindowRun};
use crate::timing::{execute_branch, execute_branch_scalar, train_branch_clocked};

#[derive(Debug)]
struct SmtThread {
    gen: EventSource,
    stats: PredictionStats,
    clock: f64,
    next_switch: f64,
    /// Pre-generated event batch (see [`EventBuffer`]); the SMT scheduler
    /// interleaves threads per event, so batching here only amortizes the
    /// generator dispatch, not the scheduling itself.
    buf: EventBuffer,
}

impl SmtThread {
    /// Next event from the buffered batch, refilling when drained. The
    /// event sequence is identical to calling the generator directly.
    #[inline]
    fn next_event(&mut self) -> TraceEvent {
        match self.buf.pop() {
            Some(ev) => ev,
            None => {
                self.gen.fill(&mut self.buf);
                self.buf.pop().expect("buffer was just filled")
            }
        }
    }
}

/// Result of an SMT run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtResult {
    /// Wall-clock cycles to complete the measured instruction budget.
    pub cycles: f64,
    /// Instructions executed during measurement (all threads).
    pub instructions: u64,
    /// Per-thread statistics.
    pub per_thread: Vec<PredictionStats>,
}

impl SmtResult {
    /// Combined conditional MPKI across threads.
    pub fn mpki(&self) -> f64 {
        let mispredicts: u64 = self.per_thread.iter().map(|s| s.cond_mispredicts).sum();
        if self.instructions == 0 {
            0.0
        } else {
            mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// An SMT core simulation.
pub struct SmtSim {
    cfg: CoreConfig,
    fe: SecureFrontend,
    threads: Vec<SmtThread>,
    interval: u64,
}

impl std::fmt::Debug for SmtSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtSim")
            .field("core", &self.cfg.name)
            .field("mechanism", &self.fe.mechanism())
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl SmtSim {
    /// Builds an SMT core with one workload per hardware thread.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown workloads or fewer than two threads.
    pub fn new(
        cfg: CoreConfig,
        predictor: PredictorKind,
        mechanism: Mechanism,
        interval: SwitchInterval,
        workloads: &[&str],
        seed: u64,
    ) -> Result<Self, SbpError> {
        if workloads.len() < 2 {
            return Err(SbpError::config(
                "an SMT core needs at least two hardware threads",
            ));
        }
        let threads = workloads
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let base = 0x1000_0000 + (i as u64) * 0x0800_0000;
                let thread_seed = sbp_types::rng::SplitMix64::derive(seed, 100 + i as u64);
                let gen = match sbp_trace::parse_replay(name) {
                    Some((workload, dir)) => {
                        // Replayed traces must be recorded from the same
                        // SE-mode (syscall-free) generator configuration;
                        // the campaign recorder guarantees that.
                        let path = sbp_trace::replay_trace_path(
                            std::path::Path::new(dir),
                            workload,
                            base,
                            thread_seed,
                        );
                        EventSource::Replay(TraceReplayer::open(&path)?)
                    }
                    None => {
                        let mut profile = WorkloadProfile::by_name(name)?;
                        // gem5 SE mode: syscalls are emulated, never executed.
                        profile.syscalls_per_minstr = 0.0;
                        EventSource::Generator(TraceGenerator::new(&profile, base, thread_seed))
                    }
                };
                Ok(SmtThread {
                    gen,
                    stats: PredictionStats::new(),
                    clock: 0.0,
                    buf: EventBuffer::default(),
                    // Stagger the per-thread timers across the interval:
                    // real timer interrupts are not synchronized between
                    // hardware threads, and coinciding flushes would
                    // under-charge Complete Flush.
                    next_switch: interval.cycles() as f64 * (i + 1) as f64 / workloads.len() as f64,
                })
            })
            .collect::<Result<Vec<_>, SbpError>>()?;
        let fe_cfg = FrontendConfig {
            predictor,
            btb: cfg.btb,
            ras_depth: cfg.ras_depth,
            threads: workloads.len(),
            mechanism,
            key_seed: sbp_types::rng::SplitMix64::derive(seed, 0xdead),
        };
        Ok(SmtSim {
            cfg,
            fe: SecureFrontend::new(fe_cfg),
            threads,
            interval: interval.cycles(),
        })
    }

    /// Advances the globally-least-advanced thread by one event and
    /// returns the instructions it retired.
    ///
    /// `SCALAR` selects the uncached reference front-end path; the event
    /// stream, scheduling, and timing are identical either way. With
    /// `STATS` off this is the *functional* step: the branch trains the
    /// front-end through the timing-free trainer and statistics
    /// bookkeeping is skipped, but per-thread clocks still advance
    /// bit-identically — the scheduler is clock-driven, so dropping the
    /// clock would change the thread interleaving and with it the
    /// shared-predictor state. The functional step is only valid with the
    /// natural timer disabled (sampled mode): the timer path mutates
    /// stats.
    fn step_generic<const SCALAR: bool, const STATS: bool>(&mut self) -> u64 {
        debug_assert!(
            STATS || self.interval == u64::MAX,
            "functional step needs timers off"
        );
        let idx = self.next_thread();
        let hw = ThreadId::new(idx as u8);

        // Timer interrupt on this hardware thread.
        if self.interval != u64::MAX && self.threads[idx].clock >= self.threads[idx].next_switch {
            self.fe
                .handle_event(CoreEvent::ContextSwitch { hw_thread: hw });
            self.threads[idx].stats.context_switches += 1;
            self.threads[idx].clock += self.cfg.context_switch_overhead as f64;
            let iv = self.interval as f64;
            self.threads[idx].next_switch += iv;
        }

        match self.threads[idx].next_event() {
            TraceEvent::Branch(rec) => {
                let t = &mut self.threads[idx];
                t.clock += if !STATS {
                    train_branch_clocked(&mut self.fe, &self.cfg, hw, &rec)
                } else if SCALAR {
                    execute_branch_scalar(&mut self.fe, &self.cfg, hw, &rec, &mut t.stats)
                } else {
                    execute_branch(&mut self.fe, &self.cfg, hw, &rec, &mut t.stats)
                };
                rec.instructions()
            }
            TraceEvent::PrivilegeSwitch(to) => {
                self.fe
                    .handle_event(CoreEvent::PrivilegeSwitch { hw_thread: hw, to });
                let t = &mut self.threads[idx];
                if STATS {
                    t.stats.privilege_switches += 1;
                }
                t.clock += self.cfg.trap_overhead as f64;
                0
            }
        }
    }

    /// Steps until at least `instructions` retired; returns how many did.
    fn step_until<const SCALAR: bool, const STATS: bool>(&mut self, instructions: u64) -> u64 {
        let mut executed = 0u64;
        while executed < instructions {
            executed += self.step_generic::<SCALAR, STATS>();
        }
        executed
    }

    /// The thread the SMT scheduler advances next: the one with the
    /// least-advanced clock.
    #[inline]
    fn next_thread(&self) -> usize {
        self.threads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.clock.total_cmp(&b.1.clock))
            .map(|(i, _)| i)
            .expect("non-empty thread list")
    }

    /// Runs `warmup_instr` instructions (discarded), then measures the
    /// wall-clock cycles to execute `measure_instr` further instructions
    /// across all threads (the paper's methodology).
    pub fn run(&mut self, warmup_instr: u64, measure_instr: u64) -> SmtResult {
        self.step_until::<false, true>(warmup_instr);
        self.run_measure_generic::<false>(measure_instr)
    }

    /// [`Self::run`] through the uncached reference front-end path; kept
    /// for equivalence tests and the branches-per-second benchmark.
    /// Results are bit-identical to [`Self::run`].
    pub fn run_scalar(&mut self, warmup_instr: u64, measure_instr: u64) -> SmtResult {
        self.step_until::<true, true>(warmup_instr);
        self.run_measure_generic::<true>(measure_instr)
    }

    /// Runs the warm-up phase: `warmup_instr` instructions across all
    /// threads, statistics discarded. `warm(w)` followed by
    /// [`Self::run_measure`] is bit-identical to [`Self::run`]`(w, m)`;
    /// the split lets callers checkpoint the warm state
    /// ([`Self::try_clone`]).
    pub fn warm(&mut self, warmup_instr: u64) {
        let _span = sbp_telemetry::span("warm", false, "");
        self.step_until::<false, true>(warmup_instr);
    }

    /// The measurement phase of [`Self::run`]: resets per-thread
    /// statistics and measures `measure_instr` further instructions.
    pub fn run_measure(&mut self, measure_instr: u64) -> SmtResult {
        self.run_measure_generic::<false>(measure_instr)
    }

    fn run_measure_generic<const SCALAR: bool>(&mut self, measure_instr: u64) -> SmtResult {
        let _span = sbp_telemetry::span("measure", false, "");
        let start_wall = self.wall_clock();
        for t in &mut self.threads {
            t.stats = PredictionStats::new();
        }
        let measured = self.step_until::<SCALAR, true>(measure_instr);
        let cycles = self.wall_clock() - start_wall;
        for t in &mut self.threads {
            t.stats.cycles = t.clock as u64;
        }
        SmtResult {
            cycles,
            instructions: measured,
            per_thread: self.threads.iter().map(|t| t.stats).collect(),
        }
    }

    /// Deep-copies the whole SMT simulator (shared front-end, per-thread
    /// generator cursors, clocks, buffered events), or `None` when the
    /// front-end wraps a custom predictor. A clone continues
    /// bit-identically — the warm-state checkpoint primitive.
    pub fn try_clone(&self) -> Option<Self> {
        Some(SmtSim {
            cfg: self.cfg,
            fe: self.fe.try_clone()?,
            threads: self
                .threads
                .iter()
                .map(|t| SmtThread {
                    gen: t.gen.clone(),
                    stats: t.stats,
                    clock: t.clock,
                    next_switch: t.next_switch,
                    buf: t.buf.clone(),
                })
                .collect(),
            interval: self.interval,
        })
    }

    /// Total timer context switches fired so far (all threads).
    pub fn context_switches(&self) -> u64 {
        self.threads.iter().map(|t| t.stats.context_switches).sum()
    }

    /// Re-aims a warm checkpoint at a different switch interval (see
    /// `SingleCoreSim::retarget_interval`). Sound only when no timer has
    /// fired and every thread's clock is still short of its new staggered
    /// deadline; returns `false`, leaving the simulator untouched,
    /// otherwise.
    pub fn retarget_interval(&mut self, interval: SwitchInterval) -> bool {
        if self.context_switches() != 0 {
            return false;
        }
        let cycles = interval.cycles();
        let n = self.threads.len();
        if cycles != u64::MAX {
            for (i, t) in self.threads.iter().enumerate() {
                if t.clock >= cycles as f64 * (i + 1) as f64 / n as f64 {
                    return false;
                }
            }
        }
        self.interval = cycles;
        for (i, t) in self.threads.iter_mut().enumerate() {
            t.next_switch = cycles as f64 * (i + 1) as f64 / n as f64;
        }
        true
    }

    /// Runs a sampled measurement from the current (warm) state: steady
    /// windows, then forced-switch event windows (one thread's timer
    /// event fired explicitly, round-robin across threads). The natural
    /// timer is disabled for the rest of this simulator's life; switches
    /// enter the estimate analytically per interval
    /// ([`crate::sampling::estimate_cycles`] with `threads = T`).
    pub fn run_sampled(&mut self, plan: &SamplingPlan) -> SampledMeasurement {
        let schedule = self.schedule(plan, None);
        self.run_schedule(&schedule)
    }

    fn wall_clock(&self) -> f64 {
        self.threads.iter().map(|t| t.clock).fold(0.0, f64::max)
    }

    /// Replaces each hardware thread's (still-unallocated) event buffer
    /// with one recycled from `pool`; see
    /// [`crate::SingleCoreSim::adopt_buffers`].
    pub fn adopt_buffers(&mut self, pool: &mut Vec<EventBuffer>) {
        for t in &mut self.threads {
            if let Some(mut buf) = pool.pop() {
                buf.recycle();
                t.buf = buf;
            }
        }
    }

    /// Moves this simulator's event buffers into `pool` for reuse; see
    /// [`crate::SingleCoreSim::release_buffers`].
    pub fn release_buffers(&mut self, pool: &mut Vec<EventBuffer>) {
        for t in &mut self.threads {
            pool.push(std::mem::take(&mut t.buf));
        }
    }

    /// The shared front-end (observability).
    pub fn frontend(&self) -> &SecureFrontend {
        &self.fe
    }
}

/// Units are instructions across all threads. Functional stepping keeps
/// per-thread clocks (the scheduler is clock-driven), so windows measured
/// after a functional replay see bit-identical clocks.
impl SampledSim for SmtSim {
    fn timer_threads(&self) -> u32 {
        self.threads.len() as u32
    }

    fn disable_timers(&mut self) {
        self.interval = u64::MAX;
        for t in &mut self.threads {
            t.next_switch = f64::INFINITY;
        }
    }

    /// Fast-forwards every thread's stream by `instructions / threads`
    /// generation-only (buffered events drained first).
    fn skip(&mut self, instructions: u64) {
        let per_thread = instructions / self.threads.len() as u64;
        for t in &mut self.threads {
            let mut left = per_thread;
            while left > 0 {
                match t.buf.pop() {
                    Some(TraceEvent::Branch(rec)) => {
                        left = left.saturating_sub(rec.instructions());
                    }
                    Some(TraceEvent::PrivilegeSwitch(_)) => {}
                    None => break,
                }
            }
            if left > 0 {
                t.gen.skip_instructions(left);
            }
        }
    }

    fn advance(&mut self, instructions: u64, functional: bool) {
        if functional {
            self.step_until::<false, false>(instructions);
        } else {
            self.step_until::<false, true>(instructions);
        }
    }

    /// Fires the thread's timer event exactly as the natural timer would
    /// (flush/rekey plus switch overhead on that thread).
    fn force_switch(&mut self, switch: ForcedSwitch) {
        let idx = switch.thread;
        self.fe.handle_event(CoreEvent::ContextSwitch {
            hw_thread: ThreadId::new(idx as u8),
        });
        self.threads[idx].stats.context_switches += 1;
        self.threads[idx].clock += self.cfg.context_switch_overhead as f64;
    }

    /// Wall-clock delta over `instructions`; an event window's delta
    /// includes its forced switch.
    fn measure(&mut self, instructions: u64, switch: Option<ForcedSwitch>) -> WindowRun {
        for t in &mut self.threads {
            t.stats = PredictionStats::new();
        }
        let start_wall = self.wall_clock();
        if let Some(switch) = switch {
            self.force_switch(switch);
        }
        self.step_until::<false, true>(instructions);
        WindowRun {
            cycles: self.wall_clock() - start_wall,
            stats: self.threads.iter().map(|t| t.stats).collect(),
            thread_cycles: self.threads.iter().map(|t| t.clock as u64).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(mech: Mechanism, seed: u64) -> SmtSim {
        SmtSim::new(
            CoreConfig::gem5(),
            PredictorKind::Gshare,
            mech,
            SwitchInterval::M8,
            &["zeusmp", "lbm"],
            seed,
        )
        .expect("sim")
    }

    #[test]
    fn needs_two_threads() {
        let r = SmtSim::new(
            CoreConfig::gem5(),
            PredictorKind::Gshare,
            Mechanism::Baseline,
            SwitchInterval::M8,
            &["gcc"],
            1,
        );
        assert!(r.is_err());
    }

    #[test]
    fn runs_and_measures() {
        let mut s = sim(Mechanism::Baseline, 11);
        let r = s.run(20_000, 200_000);
        assert!(r.cycles > 0.0);
        assert!(r.instructions >= 200_000);
        assert_eq!(r.per_thread.len(), 2);
        assert!(r.mpki() >= 0.0);
        // Both threads progressed.
        for t in &r.per_thread {
            assert!(t.instructions > 10_000, "thread starved: {t:?}");
        }
    }

    #[test]
    fn deterministic() {
        let a = sim(Mechanism::CompleteFlush, 5).run(10_000, 100_000);
        let b = sim(Mechanism::CompleteFlush, 5).run(10_000, 100_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.per_thread, b.per_thread);
    }

    #[test]
    fn batched_run_matches_scalar_reference() {
        for mech in [Mechanism::noisy_xor_bp(), Mechanism::CompleteFlush] {
            let a = sim(mech, 17).run(10_000, 120_000);
            let b = sim(mech, 17).run_scalar(10_000, 120_000);
            assert_eq!(a, b, "SMT results diverged under {mech:?}");
        }
    }

    #[test]
    fn warm_then_measure_equals_run() {
        let mut split = sim(Mechanism::noisy_xor_bp(), 13);
        split.warm(10_000);
        let a = split.run_measure(100_000);
        let b = sim(Mechanism::noisy_xor_bp(), 13).run(10_000, 100_000);
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let mut s = sim(Mechanism::CompleteFlush, 7);
        s.warm(15_000);
        let mut restored = s.try_clone().expect("static predictors clone");
        let a = s.run_measure(80_000);
        let b = restored.run_measure(80_000);
        assert_eq!(a, b);
    }

    #[test]
    fn retargeted_checkpoint_matches_fresh_warm() {
        let build = |interval| {
            SmtSim::new(
                CoreConfig::gem5(),
                PredictorKind::Gshare,
                Mechanism::CompleteFlush,
                interval,
                &["zeusmp", "lbm"],
                3,
            )
            .expect("sim")
        };
        let mut warm8 = build(SwitchInterval::M8);
        warm8.warm(12_000);
        assert_eq!(warm8.context_switches(), 0);
        assert!(warm8.retarget_interval(SwitchInterval::M4));
        let a = warm8.run_measure(60_000);
        let mut fresh4 = build(SwitchInterval::M4);
        fresh4.warm(12_000);
        let b = fresh4.run_measure(60_000);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_run_is_deterministic_and_sees_storms() {
        let plan = crate::SamplingPlan::quick();
        let run = |mech| {
            let mut s = sim(mech, 51);
            s.warm(20_000);
            s.run_sampled(&plan)
        };
        let a = run(Mechanism::CompleteFlush);
        let b = run(Mechanism::CompleteFlush);
        assert_eq!(a, b);
        assert_eq!(a.threads, 2);
        assert_eq!(a.steady_cycles.len(), plan.steady_windows as usize);
        // Complete Flush: the forced-switch window costs more wall time
        // per instruction than steady state.
        let steady =
            a.steady_cycles.iter().sum::<f64>() / a.steady_cycles.len() as f64 / plan.window as f64;
        let event = a.event_cycles[0] / plan.event_window as f64;
        assert!(event > steady, "no storm: steady {steady} event {event}");
    }

    #[test]
    fn functional_stepping_matches_timed_stepping() {
        // Run the same region once through warm() (timed) and once
        // functionally through advance(): thread clocks, interleaving and
        // shared predictor state must match bit-for-bit, proven by
        // identical measured windows afterwards.
        for mech in [Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()] {
            let mut timed = sim(mech, 71);
            let mut functional = sim(mech, 71);
            for s in [&mut timed, &mut functional] {
                s.warm(10_000);
                s.disable_timers();
            }
            timed.warm(30_000);
            functional.advance(30_000, true);
            for (a, b) in timed.threads.iter().zip(&functional.threads) {
                assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "clock skew");
            }
            let a = timed.run_measure(40_000);
            let b = functional.run_measure(40_000);
            assert_eq!(a, b, "functional region diverged under {mech:?}");
        }
    }

    #[test]
    fn functional_sampled_run_is_deterministic() {
        let plan = crate::SamplingPlan::quick_functional();
        let run = || {
            let mut s = sim(Mechanism::CompleteFlush, 81);
            s.warm(20_000);
            s.run_sampled(&plan)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.steady_cycles.iter().all(|c| *c > 0.0));
        assert!(a.event_cycles.iter().all(|c| *c > 0.0));
    }

    #[test]
    fn windowed_sampled_run_matches_serial() {
        for plan in [
            crate::SamplingPlan::quick(),
            crate::SamplingPlan::quick_functional(),
        ] {
            let mut warm = sim(Mechanism::CompleteFlush, 91);
            warm.warm(15_000);
            let mut serial = warm.try_clone().expect("clone");
            let m = serial.run_sampled(&plan);
            let schedule = warm.schedule(&plan, None);
            let mut agg = vec![PredictionStats::new(); 2];
            let mut last_clocks = Vec::new();
            let steady = plan.steady_windows as usize;
            for index in 0..schedule.windows.len() {
                let mut solo = warm.try_clone().expect("clone");
                let run = solo.run_window(&schedule, index);
                let want = if index < steady {
                    for (a, t) in agg.iter_mut().zip(&run.stats) {
                        *a += *t;
                    }
                    m.steady_cycles[index]
                } else {
                    m.event_cycles[index - steady]
                };
                assert_eq!(run.cycles.to_bits(), want.to_bits(), "window {index}");
                last_clocks = run.thread_cycles;
            }
            for ((a, want), clock) in agg.iter_mut().zip(&m.per_thread).zip(&last_clocks) {
                a.cycles = *clock;
                assert_eq!(a, want, "per-thread aggregate");
            }
        }
    }

    #[test]
    fn threads_progress_in_parallel() {
        let mut s = sim(Mechanism::Baseline, 9);
        let r = s.run(0, 100_000);
        let i0 = r.per_thread[0].instructions as f64;
        let i1 = r.per_thread[1].instructions as f64;
        let ratio = i0.max(i1) / i0.min(i1).max(1.0);
        assert!(ratio < 3.0, "thread imbalance {ratio}");
    }
}
