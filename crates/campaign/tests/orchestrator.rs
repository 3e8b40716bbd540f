//! End-to-end tests of the `campaign` binary: a 2-worker fan-out must be
//! byte-identical to the in-process unsharded run of the same manifest,
//! and a killed worker must leave a resumable campaign where the second
//! pass executes exactly the missing jobs.
//!
//! Every assertion drives the real binary (via `CARGO_BIN_EXE_campaign`),
//! so the coordinator/worker subprocess plumbing, not just the library
//! functions, is under test. The manifests pin `SBP_SCALE` so the tests
//! are independent of the ambient environment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sbp_campaign::{Catalog, DIE_AFTER_ENV, DIE_EXIT_CODE, PERTURB_ENV, STALL_AFTER_ENV};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbp_campaign_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn write_manifest(dir: &Path, body: &str) -> PathBuf {
    let path = dir.join("manifest.json");
    std::fs::write(&path, body).expect("write manifest");
    path
}

/// Runs the campaign binary with every fault/perturbation knob stripped,
/// then the given environment applied on top.
fn campaign_with(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(args);
    for knob in [DIE_AFTER_ENV, STALL_AFTER_ENV, PERTURB_ENV] {
        cmd.env_remove(knob);
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("run campaign binary")
}

/// Runs the campaign binary with the crash knob stripped unless
/// explicitly requested.
fn campaign(args: &[&str], die_after: Option<usize>) -> Output {
    match die_after {
        Some(n) => campaign_with(args, &[(DIE_AFTER_ENV, &n.to_string())]),
        None => campaign_with(args, &[]),
    }
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

/// Sum of the `executed N` counts in the relayed worker summary lines.
fn total_executed(stderr: &str) -> usize {
    stderr
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            words.by_ref().find(|w| *w == "executed")?;
            words.next()?.parse::<usize>().ok()
        })
        .sum()
}

/// Completed cells across every shard store of `entry` in `dir`.
fn stored_cells(dir: &Path, entry: &str) -> usize {
    std::fs::read_dir(dir)
        .expect("read out_dir")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&format!("{entry}.shard")) && name.ends_with(".jsonl")
        })
        .map(|e| {
            std::fs::read_to_string(e.path())
                .expect("read shard store")
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count()
        })
        .sum()
}

#[test]
fn two_worker_campaign_is_byte_identical_to_the_in_process_run() {
    let dir = tmp_dir("byte_identical");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_single","smoke_attack"],"workers":2,
                "scale":0.02,"out_dir":"{}"}}"#,
            dir.join("stores").display()
        ),
    );
    let manifest = manifest.to_str().expect("utf8 path");

    let reference = campaign(&["--in-process", manifest], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));
    let reference_stdout = stdout_of(&reference);
    assert!(
        reference_stdout.contains("Noisy-XOR-BP"),
        "reference run printed a report: {reference_stdout:?}"
    );

    let sharded = campaign(&[manifest], None);
    assert!(sharded.status.success(), "{}", stderr_of(&sharded));
    assert_eq!(
        stdout_of(&sharded),
        reference_stdout,
        "2-worker merged report differs from the unsharded in-process run"
    );

    // The merged canonical stores exist, and a second campaign run
    // resumes from the shard stores: zero jobs executed, same bytes out.
    for entry in ["smoke_single", "smoke_attack"] {
        assert!(dir.join("stores").join(format!("{entry}.jsonl")).is_file());
    }
    let resumed = campaign(&[manifest], None);
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));
    assert_eq!(stdout_of(&resumed), reference_stdout);
    assert_eq!(
        total_executed(&stderr_of(&resumed)),
        0,
        "every cell came from the stores: {}",
        stderr_of(&resumed)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn killed_worker_rerun_executes_exactly_the_missing_jobs() {
    let dir = tmp_dir("crash_rerun");
    let stores = dir.join("stores");
    let body = format!(
        r#"{{"entries":["smoke_single"],"workers":2,"scale":0.02,
            "seeds":3,"retries":0,"out_dir":"{}"}}"#,
        stores.display()
    );
    let manifest = write_manifest(&dir, &body);
    let manifest = manifest.to_str().expect("utf8 path");
    let total_jobs = sbp_sweep::plan(
        &Catalog::get("smoke_single")
            .expect("registered")
            .spec()
            .with_seeds(3),
    )
    .jobs
    .len();

    // Reference: an uninterrupted in-process run of the same manifest.
    let reference = campaign(&["--in-process", manifest], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    // Crash run: workers die after one append; with retries 0 the
    // campaign fails but leaves resumable shard stores behind.
    let crashed = campaign(&[manifest], Some(1));
    assert!(!crashed.status.success(), "injected crash must fail");
    assert!(
        stderr_of(&crashed).contains("resumable"),
        "failure explains how to resume: {}",
        stderr_of(&crashed)
    );
    let stored = stored_cells(&dir.join("stores"), "smoke_single");
    assert!(
        stored > 0 && stored < total_jobs,
        "the crash landed mid-campaign ({stored}/{total_jobs} cells stored)"
    );

    // Re-run without the knob: exactly the missing jobs execute, and the
    // final report is byte-identical to the uninterrupted run.
    let rerun = campaign(&[manifest], None);
    assert!(rerun.status.success(), "{}", stderr_of(&rerun));
    assert_eq!(
        total_executed(&stderr_of(&rerun)),
        total_jobs - stored,
        "rerun executed only the missing jobs: {}",
        stderr_of(&rerun)
    );
    assert_eq!(stdout_of(&rerun), stdout_of(&reference));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn coordinator_retries_a_crashed_shard_within_one_run() {
    let dir = tmp_dir("retry");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_single"],"workers":2,"scale":0.02,
                "seeds":3,"retries":1,"out_dir":"{}"}}"#,
            dir.join("stores").display()
        ),
    );
    let manifest = manifest.to_str().expect("utf8 path");

    let reference = campaign(&["--in-process", manifest], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    // The knob kills at least one first-attempt worker (exit 42); the
    // coordinator strips it for the retry, which finishes the shard.
    let retried = campaign(&[manifest], Some(1));
    let err = stderr_of(&retried);
    assert!(retried.status.success(), "{err}");
    assert!(
        err.contains(&format!("exit status: {DIE_EXIT_CODE}")) && err.contains("retrying"),
        "retry path was exercised: {err}"
    );
    assert_eq!(stdout_of(&retried), stdout_of(&reference));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stalled_worker_is_killed_and_its_retry_executes_the_missing_jobs() {
    let dir = tmp_dir("stall");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_single"],"workers":2,"scale":0.02,
                "seeds":3,"retries":1,"out_dir":"{}"}}"#,
            dir.join("stores").display()
        ),
    );
    let manifest = manifest.to_str().expect("utf8 path");
    let total_jobs = sbp_sweep::plan(
        &Catalog::get("smoke_single")
            .expect("registered")
            .spec()
            .with_seeds(3),
    )
    .jobs
    .len();

    let reference = campaign(&["--in-process", manifest], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));

    // Every worker wedges after one append; the heartbeat kills them and
    // the in-run retry (knobs stripped) finishes exactly the remainder.
    let healed = campaign_with(
        &["--stall-timeout", "2", manifest],
        &[(STALL_AFTER_ENV, "1")],
    );
    let err = stderr_of(&healed);
    assert!(healed.status.success(), "{err}");
    // Each wedged worker logs one hang line after its single append;
    // shards owning no jobs complete without wedging.
    let wedged = err
        .lines()
        .filter(|l| l.contains("hanging after 1 append(s)"))
        .count();
    assert!(wedged > 0, "the fault knob must bite at least one worker");
    assert!(
        err.contains("stalled"),
        "heartbeat kill was exercised: {err}"
    );
    assert!(err.contains("retrying"), "retry pass ran: {err}");
    // Only completing workers print summaries; the wedged ones appended
    // one cell each before the kill, so the completing passes executed
    // exactly the missing jobs.
    assert_eq!(
        total_executed(&err),
        total_jobs - wedged,
        "retry executed only the missing jobs: {err}"
    );
    assert_eq!(
        stdout_of(&healed),
        stdout_of(&reference),
        "healed campaign report is byte-identical to the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn check_mode_verdicts_pass_and_are_shard_invariant() {
    let dir = tmp_dir("check");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_single","smoke_attack"],"workers":2,
                "scale":0.02,"out_dir":"{}"}}"#,
            dir.join("stores").display()
        ),
    );
    let manifest = manifest.to_str().expect("utf8 path");

    let reference = campaign(&["--in-process", "--check", manifest], None);
    assert!(reference.status.success(), "{}", stderr_of(&reference));
    let reference_stdout = stdout_of(&reference);
    for needle in [
        "verdict[smoke_single]: PASS",
        "verdict[smoke_attack]: PASS",
        "conformance: within tolerance of the paper",
    ] {
        assert!(reference_stdout.contains(needle), "{reference_stdout}");
    }

    // The sharded coordinator prints byte-identical verdicts: the oracle
    // is a pure function of the merged (plan-ordered) report.
    let sharded = campaign(&["--check", manifest], None);
    assert!(sharded.status.success(), "{}", stderr_of(&sharded));
    assert_eq!(stdout_of(&sharded), reference_stdout);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn check_mode_fails_when_expectations_are_perturbed() {
    let dir = tmp_dir("perturb");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_attack"],"scale":0.02,"out_dir":"{}"}}"#,
            dir.join("stores").display()
        ),
    );
    let manifest = manifest.to_str().expect("utf8 path");

    let perturbed = campaign_with(&["--check", manifest], &[(PERTURB_ENV, "1")]);
    assert!(
        !perturbed.status.success(),
        "a perturbed expectation set must fail the campaign"
    );
    let out = stdout_of(&perturbed);
    assert!(
        out.contains("verdict[smoke_attack]: FAIL") && out.contains("OUT OF TOLERANCE"),
        "{out}"
    );
    assert!(
        stderr_of(&perturbed).contains("paper-expectation check failed"),
        "{}",
        stderr_of(&perturbed)
    );

    // Without the knob the same stores pass: the data is fine, the
    // perturbed oracle was the only thing failing.
    let clean = campaign(&["--check", manifest], None);
    assert!(clean.status.success(), "{}", stderr_of(&clean));
    assert!(stdout_of(&clean).contains("verdict[smoke_attack]: PASS"));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn campaign_rejects_unknown_entries_and_bad_manifests() {
    let dir = tmp_dir("bad_input");
    let unknown = write_manifest(&dir, r#"{"entries":["fig99"],"workers":2}"#);
    let out = campaign(&[unknown.to_str().expect("utf8")], None);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("fig99"), "{}", stderr_of(&out));

    let out = campaign(&["/no/such/manifest.json"], None);
    assert!(!out.status.success());

    let typo = write_manifest(&dir, r#"{"entries":["smoke_single"],"worker":2}"#);
    let out = campaign(&[typo.to_str().expect("utf8")], None);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("unknown key"),
        "{}",
        stderr_of(&out)
    );

    // CLI option validation: unknown flags, bad stall timeouts, and
    // flags the selected mode cannot honor are rejected, not ignored.
    let out = campaign(&["--frobnicate"], None);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown option"));
    for bad in [
        &["--stall-timeout"][..],
        &["--stall-timeout", "0"][..],
        // Beyond Duration's range: a clean error, not a conversion panic.
        &["--stall-timeout", "1e20"][..],
    ] {
        let out = campaign(bad, None);
        assert!(!out.status.success(), "{bad:?}");
        assert!(stderr_of(&out).contains("stall-timeout"));
        assert_ne!(out.status.code(), Some(101), "{bad:?} must not panic");
    }
    let out = campaign(&["--list", "--check"], None);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--list takes no other"));
    let out = campaign(
        &["--in-process", "--stall-timeout", "5", "manifest.json"],
        None,
    );
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("no workers to watch"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn telemetry_campaign_is_observation_only_and_its_timeline_reports() {
    let dir = tmp_dir("telemetry");
    let plain_stores = dir.join("plain");
    let telemetry_stores = dir.join("telemetry");
    let body = |stores: &Path, extra: &str| {
        format!(
            r#"{{"entries":["smoke_single","smoke_attack"],"workers":2,
                "scale":0.02,"out_dir":"{}"{extra}}}"#,
            stores.display()
        )
    };
    let plain_manifest = dir.join("plain.json");
    std::fs::write(&plain_manifest, body(&plain_stores, "")).expect("write manifest");
    let telemetry_manifest = dir.join("telemetry.json");
    std::fs::write(
        &telemetry_manifest,
        body(&telemetry_stores, r#","telemetry":true"#),
    )
    .expect("write manifest");
    let trace = dir.join("trace.json");

    // Observation-only: the telemetry campaign's stdout and canonical
    // stores are byte-identical to the plain campaign's.
    let plain = campaign(&[plain_manifest.to_str().expect("utf8")], None);
    assert!(plain.status.success(), "{}", stderr_of(&plain));
    let traced = campaign(
        &[
            "--trace-out",
            trace.to_str().expect("utf8"),
            telemetry_manifest.to_str().expect("utf8"),
        ],
        None,
    );
    assert!(traced.status.success(), "{}", stderr_of(&traced));
    assert_eq!(
        stdout_of(&traced),
        stdout_of(&plain),
        "telemetry changed the campaign's stdout"
    );
    for entry in ["smoke_single", "smoke_attack"] {
        let plain_store =
            std::fs::read(plain_stores.join(format!("{entry}.jsonl"))).expect("plain store");
        let telemetry_store = std::fs::read(telemetry_stores.join(format!("{entry}.jsonl")))
            .expect("telemetry store");
        assert_eq!(
            plain_store, telemetry_store,
            "telemetry changed the canonical {entry} store"
        );
    }

    // The merged timeline exists, validates, covers both entries and
    // both worker lanes, and the Chrome trace export is well-formed.
    let timeline = sbp_telemetry::read_events(&telemetry_stores.join("telemetry.jsonl"))
        .expect("merged timeline readable");
    let stats = sbp_telemetry::validate(&timeline).expect("merged timeline validates");
    assert!(stats.spans > 0, "no spans in {stats:?}");
    for entry in ["smoke_single", "smoke_attack"] {
        assert!(
            timeline.iter().any(|e| e.entry == entry && e.job.is_some()),
            "no job-lane events for {entry}"
        );
    }
    assert!(
        stderr_of(&traced).contains("campaign telemetry:"),
        "{}",
        stderr_of(&traced)
    );
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.contains("traceEvents"), "{trace_text:?}");

    // `campaign report` summarizes the recorded out_dir.
    let report = campaign(&["report", telemetry_stores.to_str().expect("utf8")], None);
    assert!(report.status.success(), "{}", stderr_of(&report));
    let report_out = stdout_of(&report);
    for needle in ["events validated", "smoke_single", "smoke_attack"] {
        assert!(report_out.contains(needle), "{report_out}");
    }
    // ... and demands a timeline when none was recorded.
    let missing = campaign(&["report", plain_stores.to_str().expect("utf8")], None);
    assert!(!missing.status.success());
    assert!(
        stderr_of(&missing).contains("--telemetry"),
        "{}",
        stderr_of(&missing)
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The in-process runner records on lane 0, whose first job span once
/// had span id 0 and failed the report's validation.
#[test]
fn in_process_telemetry_timeline_reports() {
    let dir = tmp_dir("inproc_telemetry");
    let stores = dir.join("out");
    let manifest = write_manifest(
        &dir,
        &format!(
            r#"{{"entries":["smoke_single","smoke_attack"],"scale":0.02,"out_dir":"{}"}}"#,
            stores.display()
        ),
    );
    let run = campaign(
        &[
            "--in-process",
            "--telemetry",
            manifest.to_str().expect("utf8"),
        ],
        None,
    );
    assert!(run.status.success(), "{}", stderr_of(&run));
    let report = campaign(&["report", stores.to_str().expect("utf8")], None);
    assert!(report.status.success(), "{}", stderr_of(&report));
    let report_out = stdout_of(&report);
    for needle in ["events validated", "smoke_single", "smoke_attack"] {
        assert!(report_out.contains(needle), "{report_out}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn list_mode_prints_the_whole_catalog() {
    let out = campaign(&["--list"], None);
    assert!(out.status.success());
    let text = stdout_of(&out);
    for entry in Catalog::entries() {
        assert!(text.contains(entry.name), "missing {}", entry.name);
    }
}

/// Parses the `gaps`, `steady windows` and `event windows` seconds out of
/// every `profile:` line on stderr.
fn profiled_phase_seconds(stderr: &str) -> Vec<[f64; 3]> {
    let secs = |line: &str, label: &str| -> f64 {
        let rest = &line[line.find(label).expect("phase label") + label.len()..];
        let value = rest.trim_start().split('s').next().expect("seconds");
        value.parse().expect("numeric seconds")
    };
    stderr
        .lines()
        .filter(|line| line.contains(" profile: warm "))
        .map(|line| {
            [
                secs(line, "gaps"),
                secs(line, "steady windows"),
                secs(line, "event windows"),
            ]
        })
        .collect()
}

#[test]
fn profile_is_a_telemetry_view_that_changes_no_output() {
    let dir = tmp_dir("profile");
    let run = |name: &str, telemetry: bool, profile: bool| {
        let stores = dir.join(name);
        let manifest = dir.join(format!("{name}.json"));
        std::fs::write(
            &manifest,
            format!(
                r#"{{"entries":["smoke_single"],"workers":1,"scale":0.2,"sampling":true,
                    "gap_mode":"functional","telemetry":{telemetry},"out_dir":"{}"}}"#,
                stores.display()
            ),
        )
        .expect("write manifest");
        let mut args = vec![manifest.to_str().expect("utf8").to_string()];
        if profile {
            args.insert(0, "--profile".to_string());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = campaign(&args, None);
        assert!(out.status.success(), "{}", stderr_of(&out));
        let store = std::fs::read(stores.join("smoke_single.jsonl")).expect("canonical store");
        (out, stores, store)
    };
    let (plain, _, plain_store) = run("plain", false, false);
    let (profiled, _, profiled_store) = run("profiled", false, true);
    let (traced, traced_dir, traced_store) = run("traced", true, false);
    let (both, both_dir, both_store) = run("both", true, true);

    for (label, out, store) in [
        ("--profile", &profiled, &profiled_store),
        ("--telemetry", &traced, &traced_store),
        ("--profile --telemetry", &both, &both_store),
    ] {
        assert_eq!(stdout_of(out), stdout_of(&plain), "{label} changed stdout");
        assert_eq!(store, &plain_store, "{label} changed the canonical store");
    }
    for out in [&plain, &traced] {
        assert!(profiled_phase_seconds(&stderr_of(out)).is_empty());
    }
    for out in [&profiled, &both] {
        let lines = profiled_phase_seconds(&stderr_of(out));
        assert_eq!(lines.len(), 1, "{}", stderr_of(out));
        assert!(
            lines[0].iter().all(|s| *s > 0.0),
            "gaps, steady and event windows all take time: {}",
            stderr_of(out)
        );
    }
    // Profiling only reads the advisory phase spans: the sidecar's
    // deterministic projection is the same with and without it.
    let projection = |stores: &Path| -> Vec<String> {
        let sidecar = stores.join("smoke_single.telemetry.shard1of1.jsonl");
        let events = sbp_telemetry::read_events(&sidecar).expect("sidecar readable");
        sbp_telemetry::canonical_projection(&events)
            .iter()
            .map(sbp_telemetry::Event::to_line)
            .collect()
    };
    let traced_projection = projection(&traced_dir);
    assert!(!traced_projection.is_empty());
    assert_eq!(projection(&both_dir), traced_projection);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
