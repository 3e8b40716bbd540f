//! Pins the telemetry hard invariant: recording is **observation-only**.
//! Every artifact the pipeline produces — report tables, JSONL records,
//! persisted sweep stores — must be byte-identical with telemetry on,
//! off, or at any parallelism, and the deterministic projection of the
//! recorded timeline must itself be byte-identical across
//! window-threads settings (span ids derive from (shard, job, seq),
//! never wall clock).
//!
//! The telemetry sink is process-global, so every test serializes on
//! one lock and leaves the sink disabled behind itself.

use std::path::PathBuf;
use std::sync::Mutex;

use secure_bp::isolation::Mechanism;
use secure_bp::sim::{SamplingPlan, SwitchInterval, WorkBudget};
use secure_bp::sweep::{CaseSpec, RunOptions, SweepSpec};
use secure_bp::telemetry;

/// Serializes sink access across the test threads of this binary.
static SINK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock; the sink
    // state is still fine to reuse after `disable()`.
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbp_tel_eq_{}_{name}", std::process::id()))
}

/// A small exact-simulation grid (one baseline + two mechanism cells).
fn quick_spec() -> SweepSpec {
    SweepSpec::single("telemetry equivalence")
        .with_cases(vec![CaseSpec::pair("c1", "gcc", "calculix")])
        .with_intervals(vec![SwitchInterval::M8])
        .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()])
        .with_budget(WorkBudget::quick())
}

/// The same grid under the sampled functional-gap estimator — the path
/// with warm/window caches and per-window telemetry.
fn sampled_spec() -> SweepSpec {
    quick_spec().with_sampling(Some(SamplingPlan::quick_functional()))
}

#[test]
fn reports_are_byte_identical_with_telemetry_on_and_off() {
    let _guard = lock();
    telemetry::disable();
    let plain = quick_spec().run().expect("plain run");

    telemetry::enable("equivalence", 1, None);
    let observed = quick_spec().run().expect("observed run");
    let events = telemetry::take_events();
    telemetry::disable();

    assert!(!events.is_empty(), "telemetry recorded nothing");
    assert_eq!(
        observed.to_table(),
        plain.to_table(),
        "telemetry changed the report table"
    );
    assert_eq!(
        observed.to_jsonl(),
        plain.to_jsonl(),
        "telemetry changed the JSONL records"
    );
    assert_eq!(
        observed.to_csv(),
        plain.to_csv(),
        "telemetry changed the CSV emitter"
    );
}

#[test]
fn sweep_stores_are_byte_identical_with_telemetry_on_and_off() {
    let _guard = lock();
    telemetry::disable();
    let plain_store = tmp("store_plain.jsonl");
    let observed_store = tmp("store_observed.jsonl");
    let sidecar = tmp("store_sidecar.jsonl");
    for p in [&plain_store, &observed_store, &sidecar] {
        let _ = std::fs::remove_file(p);
    }

    quick_spec()
        .run_with(&RunOptions {
            store: Some(plain_store.clone()),
            shard: None,
        })
        .expect("plain store run");

    telemetry::enable("equivalence", 1, Some(&sidecar));
    quick_spec()
        .run_with(&RunOptions {
            store: Some(observed_store.clone()),
            shard: None,
        })
        .expect("observed store run");
    telemetry::disable();

    let plain = std::fs::read(&plain_store).expect("plain store bytes");
    let observed = std::fs::read(&observed_store).expect("observed store bytes");
    assert_eq!(plain, observed, "telemetry changed the persisted store");
    assert!(
        std::fs::metadata(&sidecar)
            .map(|m| m.len() > 0)
            .unwrap_or(false),
        "sidecar stream was written"
    );
    let events = telemetry::read_events(&sidecar).expect("sidecar parses");
    telemetry::validate(&events).expect("sidecar validates");

    for p in [&plain_store, &observed_store, &sidecar] {
        std::fs::remove_file(p).expect("cleanup");
    }
}

#[test]
fn deterministic_projection_is_invariant_across_window_threads() {
    let _guard = lock();
    telemetry::disable();

    let mut projections = Vec::new();
    for threads in [1usize, 3] {
        secure_bp::sweep::set_window_threads(threads);
        telemetry::enable("equivalence", 1, None);
        let report = sampled_spec().run().expect("sampled run");
        let events = telemetry::take_events();
        telemetry::disable();
        let lines: Vec<String> = telemetry::canonical_projection(&events)
            .iter()
            .map(telemetry::Event::to_line)
            .collect();
        assert!(!lines.is_empty(), "projection empty at {threads} threads");
        projections.push((report.to_jsonl(), lines.join("\n")));
    }
    secure_bp::sweep::set_window_threads(1);

    let (report_1, proj_1) = &projections[0];
    let (report_3, proj_3) = &projections[1];
    assert_eq!(report_1, report_3, "window threads changed the report");
    assert_eq!(
        proj_1, proj_3,
        "window threads changed the deterministic projection"
    );
    // The projection keeps only deterministic events, renumbered.
    for line in proj_1.lines() {
        let event = telemetry::Event::parse_line(line).expect("projection line parses");
        assert!(event.det, "advisory event survived the projection");
        assert_eq!(event.ts_us, 0, "timestamp survived the projection");
    }
}

/// Sampled jobs share window measurements across the interval axis and
/// never look up or snapshot warm state: a two-interval sampled grid
/// records window-cache events only, where the exact grid records the
/// warm-cache ones.
#[test]
fn sampled_grids_record_no_warm_cache_events() {
    let _guard = lock();
    telemetry::disable();
    let intervals = vec![SwitchInterval::M8, SwitchInterval::M12];
    let counted = |spec: SweepSpec, prefix: &str| {
        telemetry::enable("equivalence", 1, None);
        spec.with_intervals(intervals.clone()).run().expect("run");
        let events = telemetry::take_events();
        telemetry::disable();
        events.iter().filter(|e| e.name.starts_with(prefix)).count()
    };
    assert_eq!(counted(sampled_spec(), "warm_cache_"), 0);
    assert_eq!(counted(sampled_spec(), "window_cache_"), 6, "one per job");
    assert_eq!(counted(quick_spec(), "warm_cache_"), 6, "one per job");
}
