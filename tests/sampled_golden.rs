//! Pins the sampled estimator's *values*, bit for bit, against checked-in
//! golden files — not just its determinism or its serial-vs-windowed
//! agreement:
//!
//! - the raw [`SampledMeasurement`] of `run_sampled` on the single core
//!   and on SMT, under the fast-forward (`SamplingPlan::quick`) and the
//!   functional-gap (`SamplingPlan::quick_functional`) plans;
//! - the report JSONL of uniform sampled single-core and SMT grids (two
//!   intervals each, both gap modes) and of a phase-clustered
//!   single-core grid replaying traces recorded into a temp directory.
//!
//! The report grids run at window threads 1 and 3 and must both match
//! the one golden. The sweep executor caches warm states and window
//! measurements process-wide, so a second run in the same process would
//! be served from the cache; each window-thread setting therefore runs
//! in a fresh child process of this test binary (see
//! [`report_grids_child`]).
//!
//! Budgets and plans are pinned explicitly (never via `SBP_SCALE`).
//! Regenerate with `SBP_UPDATE_GOLDEN=1` only after an intentional
//! change to the estimator.

use std::path::{Path, PathBuf};
use std::process::Command;

use secure_bp::campaign::{record_spec, TraceOptions};
use secure_bp::isolation::Mechanism;
use secure_bp::predictors::PredictorKind;
use secure_bp::sim::{
    CoreConfig, SampledMeasurement, SamplingPlan, SingleCoreSim, SmtSim, SwitchInterval, WorkBudget,
};
use secure_bp::sweep::{CaseSpec, SweepSpec};

/// Child-process protocol: `window_threads|trace_dir|output_file`.
const CHILD_ENV: &str = "SBP_SAMPLED_GOLDEN_CHILD";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("SBP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with SBP_UPDATE_GOLDEN=1 to (re)generate",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden file; the sampled estimator changed"
    );
}

/// Every field of a measurement, floats as their exact bit patterns.
fn describe(label: &str, m: &SampledMeasurement) -> String {
    let bits = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{:016x}", x.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = format!("[{label}]\n");
    out.push_str(&format!("steady_cycles {}\n", bits(&m.steady_cycles)));
    out.push_str(&format!("steady_units {}\n", m.steady_units));
    out.push_str(&format!("event_cycles {}\n", bits(&m.event_cycles)));
    out.push_str(&format!("event_units {}\n", m.event_units));
    out.push_str(&format!("stats {:?}\n", m.stats));
    for (i, t) in m.per_thread.iter().enumerate() {
        out.push_str(&format!("per_thread[{i}] {t:?}\n"));
    }
    out.push_str(&format!("threads {}\n", m.threads));
    out.push_str(&format!("steady_weights {}\n", bits(&m.steady_weights)));
    out
}

fn plans() -> [(&'static str, SamplingPlan); 2] {
    [
        ("quick", SamplingPlan::quick()),
        ("quick_functional", SamplingPlan::quick_functional()),
    ]
}

#[test]
fn run_sampled_measurements_match_the_golden_file() {
    let mut out = String::new();
    for (name, plan) in plans() {
        for mechanism in [Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()] {
            let mut single = SingleCoreSim::new(
                CoreConfig::fpga(),
                PredictorKind::Gshare,
                mechanism,
                SwitchInterval::M8,
                &["gcc", "calculix"],
                61,
            )
            .expect("single-core sim");
            single.warm(4_000);
            let m = single.run_sampled(&plan);
            out.push_str(&describe(&format!("single {name} {mechanism:?}"), &m));

            let mut smt = SmtSim::new(
                CoreConfig::gem5(),
                PredictorKind::Gshare,
                mechanism,
                SwitchInterval::M8,
                &["zeusmp", "lbm"],
                91,
            )
            .expect("smt sim");
            smt.warm(15_000);
            let m = smt.run_sampled(&plan);
            out.push_str(&describe(&format!("smt {name} {mechanism:?}"), &m));
        }
    }
    assert_golden("sampled_measurements.txt", &out);
}

/// Uniform sampled grids (both cores, both gap modes, two intervals).
fn uniform_specs() -> Vec<(String, SweepSpec)> {
    let mut specs = Vec::new();
    for (name, plan) in plans() {
        let single = SweepSpec::single("golden: sampled single")
            .with_cases(vec![CaseSpec::pair("gcc+calculix", "gcc", "calculix")])
            .with_intervals(vec![SwitchInterval::M4, SwitchInterval::M8])
            .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()])
            .with_budget(WorkBudget::quick())
            .with_sampling(Some(plan));
        specs.push((format!("single {name}"), single));
        let smt = SweepSpec::smt("golden: sampled smt")
            .with_cases(vec![CaseSpec::pair("zeusmp+lbm", "zeusmp", "lbm")])
            .with_intervals(vec![SwitchInterval::M4, SwitchInterval::M8])
            .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()])
            .with_budget(WorkBudget::quick())
            .with_sampling(Some(plan));
        specs.push((format!("smt {name}"), smt));
    }
    specs
}

/// A phase-clustered single-core grid replaying traces under `dir`.
fn phased_spec(dir: &Path) -> SweepSpec {
    let dir = dir.display();
    let plan = SamplingPlan {
        phase_windows: 3,
        ..SamplingPlan::quick_functional()
    };
    SweepSpec::single("golden: phased replay")
        .with_cases(vec![CaseSpec::pair(
            "gcc+calculix",
            &format!("replay:gcc@{dir}"),
            &format!("replay:calculix@{dir}"),
        )])
        .with_intervals(vec![SwitchInterval::M4, SwitchInterval::M8])
        .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_pht()])
        .with_budget(WorkBudget::quick())
        .with_sampling(Some(plan))
        .with_seeds(2)
        .with_master_seed(0x7e57_0001)
}

/// Runs every report grid and returns their labelled JSONL.
fn report_grids(trace_dir: &Path) -> String {
    let mut specs = uniform_specs();
    specs.push(("single phased replay".to_string(), phased_spec(trace_dir)));
    let mut out = String::new();
    for (label, spec) in specs {
        out.push_str(&format!("# {label}\n"));
        out.push_str(&spec.run().expect("sampled grid").to_jsonl());
    }
    out
}

/// The child half of [`sampled_reports_match_the_golden_file_at_window_threads_1_and_3`]:
/// a no-op unless that test spawned this process with [`CHILD_ENV`] set.
#[test]
fn report_grids_child() {
    let Ok(raw) = std::env::var(CHILD_ENV) else {
        return;
    };
    let mut parts = raw.splitn(3, '|');
    let threads: usize = parts.next().unwrap().parse().expect("thread count");
    let trace_dir = PathBuf::from(parts.next().expect("trace dir"));
    let output = PathBuf::from(parts.next().expect("output file"));
    secure_bp::sweep::set_window_threads(threads);
    std::fs::write(output, report_grids(&trace_dir)).expect("write child output");
}

#[test]
fn sampled_reports_match_the_golden_file_at_window_threads_1_and_3() {
    let tmp = std::env::temp_dir().join(format!("sbp-sampled-golden-{}", std::process::id()));
    let trace_dir = tmp.join("traces");
    std::fs::create_dir_all(&trace_dir).expect("tmp dir");
    record_spec(
        &phased_spec(&trace_dir),
        "sampled-golden",
        &TraceOptions::default(),
    )
    .expect("record traces");
    let exe = std::env::current_exe().expect("test binary");
    for threads in [1usize, 3] {
        let output = tmp.join(format!("reports_{threads}.jsonl"));
        let status = Command::new(&exe)
            .args(["--exact", "report_grids_child", "--test-threads=1"])
            .env(
                CHILD_ENV,
                format!("{threads}|{}|{}", trace_dir.display(), output.display()),
            )
            .status()
            .expect("spawn child test process");
        assert!(status.success(), "child at {threads} window threads failed");
        let reports = std::fs::read_to_string(&output).expect("child output");
        assert_golden("sampled_reports.jsonl", &reports);
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
