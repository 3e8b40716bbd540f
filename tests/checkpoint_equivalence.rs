//! Pins the warm-state checkpoint machinery at the simulator level:
//! snapshotting a simulator after warm-up (`try_clone`) and continuing
//! from the snapshot must be **bit-identical** to never having paused —
//! for every predictor × mechanism combination the sweep grids use, on
//! both the single-core and SMT frontends. The interval-retarget path
//! (one warm state serving the whole interval axis) is pinned the same
//! way: a checkpoint taken under one interval and retargeted to another
//! must match a fresh warm-up run entirely under the second interval.
//!
//! These are the invariants that let the sweep engine's checkpoint cache
//! skip re-simulating warm-up without changing a single stored byte.
//! Budgets are pinned small and explicit (never via `SBP_SCALE`, which is
//! process-cached).

use secure_bp::isolation::Mechanism;
use secure_bp::predictors::PredictorKind;
use secure_bp::sim::{
    CoreConfig, GapMode, SampledSim, SamplingPlan, SingleCoreSim, SmtSim, SwitchInterval,
};

/// Every mechanism family the paper grids exercise.
fn mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Baseline,
        Mechanism::CompleteFlush,
        Mechanism::PreciseFlush,
        Mechanism::xor_btb(),
        Mechanism::enhanced_xor_pht(),
        Mechanism::noisy_xor_bp(),
    ]
}

const WARM: u64 = 30_000;
const MEASURE: u64 = 40_000;

#[test]
fn single_core_checkpoint_restore_is_bit_identical_per_predictor_and_mechanism() {
    for predictor in PredictorKind::ALL {
        for mechanism in mechanisms() {
            let fresh = || {
                SingleCoreSim::new(
                    CoreConfig::fpga(),
                    predictor,
                    mechanism,
                    SwitchInterval::M8,
                    &["gcc", "calculix"],
                    0xc0de,
                )
                .expect("valid sim")
            };
            // Uninterrupted reference run.
            let mut uninterrupted = fresh();
            let expected = uninterrupted.run_target(WARM, MEASURE);
            // Warm, checkpoint, continue from the restored snapshot.
            let mut warm = fresh();
            warm.warm(WARM);
            let mut restored = warm
                .try_clone()
                .expect("built-in predictors are snapshotable");
            drop(warm);
            let got = restored.run_measure(MEASURE);
            assert_eq!(
                got, expected,
                "{predictor:?}/{mechanism:?}: restored checkpoint diverged"
            );
        }
    }
}

#[test]
fn smt_checkpoint_restore_is_bit_identical_per_predictor_and_mechanism() {
    for predictor in PredictorKind::ALL {
        for mechanism in mechanisms() {
            let fresh = || {
                SmtSim::new(
                    CoreConfig::gem5(),
                    predictor,
                    mechanism,
                    SwitchInterval::M8,
                    &["zeusmp", "lbm"],
                    0xbeef,
                )
                .expect("valid sim")
            };
            let mut uninterrupted = fresh();
            let expected = uninterrupted.run(WARM, MEASURE);
            let mut warm = fresh();
            warm.warm(WARM);
            let mut restored = warm.try_clone().expect("snapshotable");
            drop(warm);
            let got = restored.run_measure(MEASURE);
            assert_eq!(
                got.per_thread, expected.per_thread,
                "{predictor:?}/{mechanism:?}: restored SMT checkpoint diverged"
            );
            assert_eq!(
                got.cycles.to_bits(),
                expected.cycles.to_bits(),
                "{predictor:?}/{mechanism:?}: SMT wall clock diverged"
            );
        }
    }
}

/// Gap region length for the functional-vs-timed equivalence tests.
const REGION: u64 = 20_000;

#[test]
fn single_core_functional_gap_execution_matches_timed_per_predictor_and_mechanism() {
    // The hybrid sampling plans execute gap regions through the
    // timing-free trainer. That is only sound if functional execution
    // leaves predictor/BTB/generator state *bit-identical* to full timed
    // execution — pinned here through the public API for every
    // predictor × mechanism: a timed probe window after a functional
    // gap must reproduce the timed-gap reference byte for byte
    // (`PredictionStats` equality includes the probe's cycle count).
    let plan = SamplingPlan {
        steady_windows: 1,
        window: MEASURE,
        gap: REGION,
        rewarm: 0,
        event_windows: 0,
        event_window: 0,
        burst: 0,
        gap_mode: GapMode::Functional,
        phase_windows: 0,
    };
    for predictor in PredictorKind::ALL {
        for mechanism in mechanisms() {
            let fresh = || {
                SingleCoreSim::new(
                    CoreConfig::fpga(),
                    predictor,
                    mechanism,
                    SwitchInterval::M12,
                    &["gcc", "calculix"],
                    0xc0de,
                )
                .expect("valid sim")
            };
            // Reference: warm-up, then the region executed *timed*
            // (unmeasured), then the timed probe. No timer fires at
            // these budgets, so the M12 interval is inert.
            let mut timed = fresh();
            timed.warm(WARM);
            timed.warm(REGION);
            let expected = timed.run_measure(MEASURE);
            // Hybrid: same warm-up, region executed *functionally* as
            // the plan's gap, then the same probe as the plan's window.
            let mut hybrid = fresh();
            hybrid.warm(WARM);
            let schedule = hybrid.schedule(&plan, None);
            let run = hybrid.run_window(&schedule, 0);
            let (cycles, got) = (run.cycles, run.stats[0]);
            assert_eq!(
                got, expected,
                "{predictor:?}/{mechanism:?}: functional gap diverged from timed execution"
            );
            assert_eq!(
                cycles as u64, expected.cycles,
                "{predictor:?}/{mechanism:?}: probe cycles diverged after functional gap"
            );
        }
    }
}

#[test]
fn smt_functional_gap_execution_matches_timed_per_predictor_and_mechanism() {
    // The SMT functional stepper keeps per-thread clocks (the scheduler
    // is clock-driven), so a functional gap must leave shared-predictor
    // state, generator cursors *and* every thread clock bit-identical
    // to timed execution — the timed probe after it reproduces the
    // reference's per-thread stats, final clocks and wall-clock delta
    // exactly (`to_bits`, not approximately).
    let plan = SamplingPlan {
        steady_windows: 1,
        window: MEASURE,
        gap: REGION,
        rewarm: 0,
        event_windows: 0,
        event_window: 0,
        burst: 0,
        gap_mode: GapMode::Functional,
        phase_windows: 0,
    };
    for predictor in PredictorKind::ALL {
        for mechanism in mechanisms() {
            let fresh = || {
                SmtSim::new(
                    CoreConfig::gem5(),
                    predictor,
                    mechanism,
                    SwitchInterval::M12,
                    &["zeusmp", "lbm"],
                    0xbeef,
                )
                .expect("valid sim")
            };
            let mut timed = fresh();
            timed.warm(WARM);
            timed.warm(REGION);
            let expected = timed.run_measure(MEASURE);
            let mut hybrid = fresh();
            hybrid.warm(WARM);
            let schedule = hybrid.schedule(&plan, None);
            let run = hybrid.run_window(&schedule, 0);
            let (cycles, mut per_thread) = (run.cycles, run.stats);
            // A window run leaves per-thread `cycles` unset (the
            // assembler stamps them from the final clocks); stamp them
            // the same way before comparing.
            for (stats, clock) in per_thread.iter_mut().zip(run.thread_cycles) {
                stats.cycles = clock;
            }
            assert_eq!(
                per_thread, expected.per_thread,
                "{predictor:?}/{mechanism:?}: SMT functional gap diverged from timed execution"
            );
            assert_eq!(
                cycles.to_bits(),
                expected.cycles.to_bits(),
                "{predictor:?}/{mechanism:?}: SMT probe wall clock diverged after functional gap"
            );
        }
    }
}

#[test]
fn retargeted_checkpoints_match_fresh_warmups_on_the_new_interval() {
    for mechanism in [Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()] {
        // Warm under M12, retarget the snapshot to M4: identical to a
        // sim that ran under M4 from the start (warm-up fires no timer
        // switch at these budgets, so the warm state is interval-free).
        let build = |interval| {
            SingleCoreSim::new(
                CoreConfig::fpga(),
                PredictorKind::Gshare,
                mechanism,
                interval,
                &["gcc", "calculix"],
                7,
            )
            .expect("valid sim")
        };
        let mut warm = build(SwitchInterval::M12);
        warm.warm(WARM);
        assert_eq!(warm.context_switches(), 0, "warm-up must not switch");
        let mut retargeted = warm.try_clone().expect("snapshotable");
        assert!(retargeted.retarget_interval(SwitchInterval::M4));
        let got = retargeted.run_measure(MEASURE);
        let mut reference = build(SwitchInterval::M4);
        let expected = reference.run_target(WARM, MEASURE);
        assert_eq!(got, expected, "{mechanism:?}: retargeted run diverged");
    }
}

#[test]
fn sampled_measurements_are_deterministic_from_restored_checkpoints() {
    // The window-measurement cache stores one SampledMeasurement per warm
    // state; re-measuring from a second restore of the same checkpoint
    // must reproduce it exactly (this is what makes cache eviction safe).
    let plan = SamplingPlan::quick();
    let mut warm = SingleCoreSim::new(
        CoreConfig::fpga(),
        PredictorKind::TageScL,
        Mechanism::CompleteFlush,
        SwitchInterval::M8,
        &["gcc", "calculix"],
        11,
    )
    .expect("valid sim");
    warm.warm(WARM);
    let mut a = warm.try_clone().expect("snapshotable");
    let mut b = warm.try_clone().expect("snapshotable");
    let ma = a.run_sampled(&plan);
    let mb = b.run_sampled(&plan);
    assert_eq!(ma, mb, "sampled windows diverged across restores");
}
