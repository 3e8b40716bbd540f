//! The coordinator half of the orchestrator: spawn N local worker
//! subprocesses per catalog entry, stream per-shard progress/ETA to
//! stderr, retry crashed shards, then merge + compact the stores and emit
//! the report.
//!
//! Layout on disk (all under the manifest's `out_dir`):
//!
//! * `<entry>.shard<k>of<n>.jsonl` — shard `k`'s store, written by its
//!   worker one line per completed job (resumable after any crash);
//! * `<entry>.jsonl` — the merged canonical store (plan order), written
//!   after every shard completes.
//!
//! The merged report printed to stdout is byte-identical to an in-process
//! unsharded run of the same manifest (`campaign --in-process`): the
//! report is a pure function of the plan-ordered results, and stored
//! floats round-trip exactly. Status/progress goes to stderr only, so
//! the two stdouts are directly comparable.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sbp_sweep::{
    gc_store, json, merge_stores, plan, plan_fingerprints, Shard, SweepSpec, VerdictTable,
};
use sbp_types::{SbpError, SweepReport};

use crate::catalog::CatalogEntry;
use crate::expect;
use crate::manifest::Manifest;
use crate::worker::{DIE_AFTER_ENV, STALL_AFTER_ENV};

/// Coordinator behavior knobs beyond the manifest (CLI flags).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignOptions {
    /// End every entry with its paper-expectation verdict table and fail
    /// the campaign when any expectation misses (`--check`).
    pub check: bool,
    /// Liveness timeout: a worker whose shard store has not grown for
    /// this long is killed and retried (`--stall-timeout`). Must exceed
    /// the slowest single job, or healthy workers get killed mid-cell.
    pub stall_timeout: Option<Duration>,
    /// Forward `--profile` to every worker: each shard prints its
    /// wall-time phase breakdown (warm / gaps / steady / event / exact
    /// measure) to stderr after its run.
    pub profile: bool,
    /// Record a structured telemetry timeline (`--telemetry`): workers
    /// write sidecar event streams and the coordinator merges them into
    /// `<out_dir>/telemetry.jsonl`. Also switched on by the manifest's
    /// `"telemetry": true` or by `--trace-out`.
    pub telemetry: bool,
    /// Additionally export the merged timeline as Chrome `trace_event`
    /// JSON to this file (`--trace-out FILE`) for chrome://tracing.
    pub trace_out: Option<PathBuf>,
}

/// Runs the whole campaign described by `manifest`, spawning workers from
/// the binary at `exe` (normally `std::env::current_exe()`).
///
/// With `options.check`, every entry's merged report is joined against
/// its catalog expectations and the verdict table printed after the
/// report; a manifest-level summary rolls all entries up, and any failed
/// expectation fails the campaign.
///
/// # Errors
///
/// Returns campaign errors when workers cannot be spawned or keep
/// crashing/stalling past the retry budget, store/validation errors from
/// the merge, and a campaign error naming the failing entries when a
/// `--check` run is out of tolerance. Shard stores survive every failure
/// mode — re-running the same campaign resumes from them.
pub fn run_campaign(
    manifest: &Manifest,
    exe: &Path,
    options: &CampaignOptions,
) -> Result<(), SbpError> {
    std::fs::create_dir_all(&manifest.out_dir).map_err(|e| {
        SbpError::campaign(format!(
            "cannot create out_dir {}: {e}",
            manifest.out_dir.display()
        ))
    })?;
    let telemetry_on = telemetry_enabled(manifest, options);
    if telemetry_on {
        sbp_telemetry::enable(
            "",
            0,
            Some(&manifest.out_dir.join("telemetry.coordinator.jsonl")),
        );
    }
    let mut options = options.clone();
    options.telemetry = telemetry_on;
    let specs = manifest.specs()?;
    let costs = load_entry_costs(manifest.sampling);
    let mut verdicts = Vec::new();
    let mut outcome = Ok(());
    for (idx, (entry, spec)) in specs.iter().enumerate() {
        sbp_telemetry::set_entry(entry.name);
        // Sum of the later entries' benchmark costs — the campaign-level
        // ETA remainder. `None` (no benchmark data for some entry) falls
        // back to the entry-local estimate.
        let tail_secs = costs.as_ref().and_then(|c| {
            specs[idx + 1..]
                .iter()
                .map(|(e, _)| c.get(e.name).copied())
                .sum::<Option<f64>>()
        });
        let entry_secs = costs.as_ref().and_then(|c| c.get(entry.name).copied());
        let entry_span = sbp_telemetry::control_span("entry", entry.name);
        let report = run_entry(manifest, entry, spec, exe, &options, entry_secs, tail_secs);
        drop(entry_span);
        match report {
            Ok(report) => {
                if options.check {
                    verdicts.push(check_and_print(entry, &report));
                }
            }
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    if telemetry_on {
        finalize_telemetry(manifest, options.trace_out.as_deref(), true)?;
    }
    outcome?;
    summarize_verdicts(&verdicts)
}

/// Whether this campaign records telemetry: the manifest's
/// `"telemetry": true`, `--telemetry`, or `--trace-out` (a trace export
/// needs the timeline).
pub fn telemetry_enabled(manifest: &Manifest, options: &CampaignOptions) -> bool {
    options.telemetry || manifest.telemetry || options.trace_out.is_some()
}

/// Merges the coordinator's collected control events with every worker
/// sidecar (in manifest entry order, shards ascending) into
/// `<out_dir>/telemetry.jsonl`, optionally exporting a Chrome trace,
/// then disables the sink. `include_sidecars` is false on the
/// in-process path, whose events all live in the sink collection.
///
/// # Errors
///
/// Returns a campaign error when the merged timeline or trace cannot be
/// written (sidecar reads are lenient — a worker that executed nothing
/// never creates its file).
pub fn finalize_telemetry(
    manifest: &Manifest,
    trace_out: Option<&Path>,
    include_sidecars: bool,
) -> Result<(), SbpError> {
    let mut streams = Vec::new();
    if include_sidecars {
        for name in &manifest.entries {
            if let Some(entry) = crate::catalog::Catalog::get(name) {
                for k in 1..=manifest.workers {
                    let path =
                        telemetry_sidecar_path(&manifest.out_dir, entry, k, manifest.workers);
                    streams.push(sbp_telemetry::read_events_lenient(&path));
                }
            }
        }
    }
    streams.push(sbp_telemetry::take_events());
    sbp_telemetry::disable();
    let timeline = sbp_telemetry::merge(streams, &manifest.entries);
    let merged_path = manifest.out_dir.join("telemetry.jsonl");
    sbp_telemetry::write_events(&merged_path, &timeline).map_err(SbpError::campaign)?;
    let validated = match sbp_telemetry::validate(&timeline) {
        Ok(stats) => format!(
            "{} events ({} spans, {} counters, {} gauges, {} marks)",
            stats.events, stats.spans, stats.counters, stats.gauges, stats.marks
        ),
        Err(e) => format!("{} events (VALIDATION FAILED: {e})", timeline.len()),
    };
    eprintln!(
        "campaign telemetry: {validated} -> {}",
        merged_path.display()
    );
    if let Some(trace_path) = trace_out {
        let trace = sbp_telemetry::to_chrome_trace(&timeline);
        std::fs::write(trace_path, trace).map_err(|e| {
            SbpError::campaign(format!("cannot write trace {}: {e}", trace_path.display()))
        })?;
        eprintln!(
            "campaign telemetry: Chrome trace -> {} (open in chrome://tracing)",
            trace_path.display()
        );
    }
    Ok(())
}

/// Per-entry wall-second costs from the tracked campaign benchmark
/// (`BENCH_8.json` in the working directory): the `"sampled"`
/// stanza for sampling campaigns, `"exact"` otherwise. `None` (missing
/// file, malformed JSON, absent stanza) means "no cost model" and the
/// ETA falls back to the line-count-linear estimate.
fn load_entry_costs(sampling: bool) -> Option<HashMap<String, f64>> {
    let text = std::fs::read_to_string("BENCH_8.json").ok()?;
    let value = json::parse(&text).ok()?;
    let obj = value.as_object()?;
    let stanza = json::get(obj, if sampling { "sampled" } else { "exact" })
        .ok()?
        .as_object()?;
    let entries = json::get(stanza, "entries").ok()?.as_object()?;
    let mut costs = HashMap::new();
    for (name, _) in entries {
        costs.insert(name.clone(), json::get_f64(entries, name).ok()?);
    }
    Some(costs)
}

/// Joins one entry's report against its expectations and prints the
/// verdict table to stdout (below the report, so a `--check` run's
/// stdout is still deterministic and shard-invariant).
pub fn check_and_print(entry: &CatalogEntry, report: &SweepReport) -> VerdictTable {
    let table = expect::check_entry(entry, report);
    print!("{}", table.to_table());
    table
}

/// Prints the manifest-level conformance rollup and returns an error when
/// any entry failed. No-op for an empty list (a run without `--check`).
pub fn summarize_verdicts(verdicts: &[VerdictTable]) -> Result<(), SbpError> {
    if verdicts.is_empty() {
        return Ok(());
    }
    let (mut pass, mut fail, mut missing) = (0, 0, 0);
    let mut failed_entries = Vec::new();
    for table in verdicts {
        let (p, f, m) = table.counts();
        pass += p;
        fail += f;
        missing += m;
        if !table.passed() {
            failed_entries.push(table.entry.clone());
        }
    }
    let verdict = if failed_entries.is_empty() {
        "within tolerance of the paper"
    } else {
        "OUT OF TOLERANCE"
    };
    println!(
        "conformance: {verdict} — {} entr{}, {pass} pass, {fail} fail, {missing} missing",
        verdicts.len(),
        if verdicts.len() == 1 { "y" } else { "ies" },
    );
    if failed_entries.is_empty() {
        Ok(())
    } else {
        Err(SbpError::campaign(format!(
            "paper-expectation check failed for entr{}: {}",
            if failed_entries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            failed_entries.join(", "),
        )))
    }
}

/// Shard store path for worker `k` (1-based) of `n`.
pub fn shard_store_path(out_dir: &Path, entry: &CatalogEntry, k: usize, n: usize) -> PathBuf {
    out_dir.join(format!("{}.shard{k}of{n}.jsonl", entry.name))
}

/// Sidecar telemetry stream for worker `k` (1-based) of `n` — next to
/// its shard store, so a crashed worker's events survive with it.
pub fn telemetry_sidecar_path(out_dir: &Path, entry: &CatalogEntry, k: usize, n: usize) -> PathBuf {
    out_dir.join(format!("{}.telemetry.shard{k}of{n}.jsonl", entry.name))
}

/// One worker subprocess being tracked by the progress loop.
struct WorkerProc {
    /// 0-based shard index.
    shard: usize,
    child: Child,
    /// Exit status once reaped.
    status: Option<std::process::ExitStatus>,
}

fn run_entry(
    manifest: &Manifest,
    entry: &CatalogEntry,
    spec: &SweepSpec,
    exe: &Path,
    options: &CampaignOptions,
    entry_secs: Option<f64>,
    tail_secs: Option<f64>,
) -> Result<SweepReport, SbpError> {
    let n = manifest.workers;
    let job_plan = plan(spec);
    let fps = plan_fingerprints(spec, &job_plan);
    let shard_paths: Vec<PathBuf> = (1..=n)
        .map(|k| shard_store_path(&manifest.out_dir, entry, k, n))
        .collect();
    let owned: Vec<usize> = (0..n)
        .map(|index| {
            let shard = Shard { index, count: n };
            fps.iter().filter(|fp| shard.owns(**fp)).count()
        })
        .collect();
    eprintln!(
        "campaign[{}]: {} — {} cells over {} worker(s)",
        entry.name,
        entry.artifact,
        fps.len(),
        n
    );
    // Benchmark-weighted ETA inputs: seconds per cell for this entry
    // plus the later entries' total cost (both `None` without
    // benchmark data, falling back to the entry-local linear estimate).
    let eta_costs = match (entry_secs, tail_secs) {
        (Some(secs), Some(tail)) if !fps.is_empty() => Some(EtaCosts {
            per_cell: secs / fps.len() as f64,
            tail_secs: tail,
        }),
        _ => None,
    };

    let mut pending: Vec<usize> = (0..n).collect();
    let mut attempt = 0u32;
    loop {
        let mut procs = Vec::with_capacity(pending.len());
        for &shard in &pending {
            let child = spawn_worker(manifest, entry, exe, shard, n, attempt, options)?;
            procs.push(WorkerProc {
                shard,
                child,
                status: None,
            });
        }
        let failed = wait_with_progress(
            entry,
            &mut procs,
            &shard_paths,
            &owned,
            n,
            options.stall_timeout,
            eta_costs,
        )?;
        if failed.is_empty() {
            break;
        }
        if attempt >= manifest.retries {
            let shards: Vec<String> = failed.iter().map(|s| format!("{}/{n}", s + 1)).collect();
            return Err(SbpError::campaign(format!(
                "{}: shard(s) {} failed after {} attempt(s); the shard stores are \
                 resumable — re-run the campaign to execute only the missing jobs",
                entry.name,
                shards.join(", "),
                attempt + 1,
            )));
        }
        attempt += 1;
        eprintln!(
            "campaign[{}]: retrying {} crashed worker(s), attempt {}",
            entry.name,
            failed.len(),
            attempt + 1,
        );
        sbp_telemetry::control_mark(
            "retry",
            &format!(
                "attempt {} for shard(s) {}",
                attempt + 1,
                failed
                    .iter()
                    .map(|s| format!("{}/{n}", s + 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        pending = failed;
    }

    // Every shard completed: merge into the canonical store, emit the
    // report, then garbage-collect stale cells out of all stores.
    let canonical = manifest.out_dir.join(entry.store);
    let report = merge_stores(spec, &shard_paths, Some(&canonical))?;
    print!("{}", report.to_table());
    let mut dropped = 0;
    for path in shard_paths.iter().chain(std::iter::once(&canonical)) {
        dropped += gc_store(path, std::slice::from_ref(spec))?;
    }
    eprintln!(
        "campaign[{}]: merged {} shard store(s) into {}; gc dropped {} stale cell(s)",
        entry.name,
        n,
        canonical.display(),
        dropped,
    );
    sbp_telemetry::control_gauge("gc_dropped", dropped as f64, entry.name);
    Ok(report)
}

fn spawn_worker(
    manifest: &Manifest,
    entry: &CatalogEntry,
    exe: &Path,
    shard: usize,
    n: usize,
    attempt: u32,
    options: &CampaignOptions,
) -> Result<Child, SbpError> {
    let store = shard_store_path(&manifest.out_dir, entry, shard + 1, n);
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .arg(entry.name)
        .arg("--shard")
        .arg(format!("{}/{n}", shard + 1))
        .arg("--store")
        .arg(&store)
        .stdout(Stdio::piped());
    if let Some(seeds) = manifest.seeds {
        cmd.arg("--seeds").arg(seeds.to_string());
    }
    if manifest.sampling {
        cmd.arg("--sampled");
        if manifest.gap_mode == sbp_sim::GapMode::Functional {
            cmd.arg("--gap-mode").arg("functional");
        }
    }
    if let Some(threads) = manifest.window_threads {
        cmd.arg("--window-threads").arg(threads.to_string());
    }
    if options.profile {
        cmd.arg("--profile");
    }
    if options.telemetry {
        cmd.arg("--telemetry").arg(telemetry_sidecar_path(
            &manifest.out_dir,
            entry,
            shard + 1,
            n,
        ));
    }
    if let Some(scale) = manifest.scale {
        cmd.env("SBP_SCALE", format!("{scale}"));
    }
    if attempt > 0 {
        // A retried shard must not re-inherit the fault-injection knobs,
        // or an injected crash/hang would burn the whole retry budget.
        cmd.env_remove(DIE_AFTER_ENV);
        cmd.env_remove(STALL_AFTER_ENV);
    }
    cmd.spawn().map_err(|e| {
        SbpError::campaign(format!(
            "cannot spawn worker for {} shard {}/{n}: {e}",
            entry.name,
            shard + 1
        ))
    })
}

/// Benchmark-derived ETA inputs for one entry (see `load_entry_costs`).
#[derive(Debug, Clone, Copy)]
struct EtaCosts {
    /// Benchmark seconds per cell of this entry.
    per_cell: f64,
    /// Benchmark seconds for every entry after this one.
    tail_secs: f64,
}

/// Polls the worker processes to completion, streaming per-shard
/// `done/owned` progress — with each worker's heartbeat age (seconds
/// since its store last grew) and an ETA estimated from the observed
/// completion rate — to stderr whenever a count changes; a quiet worker
/// re-prints its line every few seconds so a wedging shard is visible
/// before any stall-timeout fires. With benchmark costs, the label
/// adds a campaign-level remainder weighted by the later entries' cost
/// (the per-entry cost model the linear estimate lacks). With a stall
/// timeout, a still-running worker whose store has not grown for that
/// long is killed (its kill-status lands it in the failed list, so the
/// ordinary retry path reruns exactly the missing jobs). Returns the
/// 0-based shard indices whose workers exited unsuccessfully.
#[allow(clippy::too_many_arguments)]
fn wait_with_progress(
    entry: &CatalogEntry,
    procs: &mut [WorkerProc],
    shard_paths: &[PathBuf],
    owned: &[usize],
    n: usize,
    stall_timeout: Option<Duration>,
    eta_costs: Option<EtaCosts>,
) -> Result<Vec<usize>, SbpError> {
    let start = Instant::now();
    let done0: usize = procs
        .iter()
        .map(|p| count_lines(&shard_paths[p.shard]))
        .sum();
    // Cells this pass is responsible for: only the running shards' —
    // on a retry pass the completed shards' cells are not remaining
    // work, and counting them would inflate the ETA.
    let owned_this_pass: usize = procs.iter().map(|p| owned[p.shard]).sum();
    let mut last_done: Vec<usize> = vec![usize::MAX; procs.len()];
    // Per-worker heartbeat: the last time its store-line count grew (or
    // the spawn time before the first append).
    let mut last_growth: Vec<Instant> = vec![start; procs.len()];
    // Last time a quiet (no-growth) worker's line was echoed anyway.
    let mut last_echo: Vec<Instant> = vec![start; procs.len()];
    loop {
        let mut all_exited = true;
        for p in procs.iter_mut() {
            if p.status.is_none() {
                match p.child.try_wait() {
                    Ok(Some(status)) => p.status = Some(status),
                    Ok(None) => all_exited = false,
                    Err(e) => {
                        return Err(SbpError::campaign(format!(
                            "cannot wait for {} shard {}/{n}: {e}",
                            entry.name,
                            p.shard + 1
                        )))
                    }
                }
            }
        }
        let done: Vec<usize> = procs
            .iter()
            .map(|p| count_lines(&shard_paths[p.shard]))
            .collect();
        if done != last_done {
            let total_done: usize = done.iter().sum();
            let eta = eta_label(start, done0, total_done, owned_this_pass, eta_costs);
            for ((i, p), d) in procs.iter().enumerate().zip(&done) {
                if last_done[i] != *d {
                    last_growth[i] = Instant::now();
                }
                last_echo[i] = Instant::now();
                eprintln!(
                    "campaign[{}] shard {}/{n}: {d}/{} cells, hb {:.1}s{eta}",
                    entry.name,
                    p.shard + 1,
                    owned[p.shard],
                    last_growth[i].elapsed().as_secs_f64(),
                );
            }
            last_done = done;
        }
        if all_exited {
            break;
        }
        // A worker whose store is not growing prints nothing through the
        // change-driven path above; echo its heartbeat age periodically
        // so a wedging shard is visible before any stall-kill fires.
        const QUIET_ECHO: Duration = Duration::from_secs(5);
        for (i, p) in procs.iter().enumerate() {
            let age = last_growth[i].elapsed();
            if p.status.is_none() && age >= QUIET_ECHO && last_echo[i].elapsed() >= QUIET_ECHO {
                last_echo[i] = Instant::now();
                eprintln!(
                    "campaign[{}] shard {}/{n}: {}/{} cells, hb {:.1}s — no store growth",
                    entry.name,
                    p.shard + 1,
                    last_done.get(i).copied().unwrap_or(0),
                    owned[p.shard],
                    age.as_secs_f64(),
                );
                sbp_telemetry::control_gauge(
                    "heartbeat_age_s",
                    age.as_secs_f64(),
                    &format!("shard {}/{n}", p.shard + 1),
                );
            }
        }
        if let Some(timeout) = stall_timeout {
            for (i, p) in procs.iter_mut().enumerate() {
                let stalled = last_growth[i].elapsed();
                if p.status.is_none() && stalled > timeout {
                    eprintln!(
                        "campaign[{}] shard {}/{n}: stalled — no store growth for \
                         {:.1}s (timeout {:.1}s), killing worker",
                        entry.name,
                        p.shard + 1,
                        stalled.as_secs_f64(),
                        timeout.as_secs_f64(),
                    );
                    sbp_telemetry::control_mark(
                        "stall_kill",
                        &format!(
                            "shard {}/{n} after {:.1}s without store growth",
                            p.shard + 1,
                            stalled.as_secs_f64()
                        ),
                    );
                    // A kill failure means the process already exited;
                    // the next try_wait round reaps it either way.
                    let _ = p.child.kill();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // Relay each worker's summary line (its whole stdout) to stderr and
    // collect the crashed shards.
    let mut failed = Vec::new();
    for p in procs.iter_mut() {
        let mut out = String::new();
        if let Some(stdout) = p.child.stdout.as_mut() {
            let _ = stdout.read_to_string(&mut out);
        }
        for line in out.lines() {
            eprintln!("campaign[{}] {line}", entry.name);
        }
        let status = p.status.expect("all workers reaped");
        if !status.success() {
            eprintln!(
                "campaign[{}] shard {}/{n}: worker crashed ({status})",
                entry.name,
                p.shard + 1,
            );
            failed.push(p.shard);
        }
    }
    Ok(failed)
}

/// Completed-cell count of a shard store (missing file = 0 — a shard
/// owning no jobs never creates its store).
fn count_lines(path: &Path) -> usize {
    match std::fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(_) => 0,
    }
}

/// `", ETA 12s"` once at least one cell completed this run, `""` before.
///
/// With benchmark costs ([`EtaCosts`]), the label adds a campaign-level
/// remainder: the observed per-cell pace calibrates the later entries'
/// benchmark seconds (this machine vs. the benchmark machine), so
/// `campaign 240s` means "this entry's remainder plus the cost-weighted
/// tail of the catalog at the current pace".
fn eta_label(
    start: Instant,
    done0: usize,
    done: usize,
    total: usize,
    costs: Option<EtaCosts>,
) -> String {
    let fresh = done.saturating_sub(done0);
    let remaining = total.saturating_sub(done);
    if fresh == 0 || remaining == 0 {
        return String::new();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let entry_secs = elapsed * remaining as f64 / fresh as f64;
    match costs {
        Some(c) if c.per_cell > 0.0 => {
            // How much faster/slower this machine runs a cell than the
            // benchmark that produced the per-entry costs.
            let calibration = elapsed / (fresh as f64 * c.per_cell);
            let campaign_secs = entry_secs + c.tail_secs * calibration;
            format!(
                ", ETA {}s (campaign {}s)",
                entry_secs.ceil() as u64,
                campaign_secs.ceil() as u64
            )
        }
        _ => format!(", ETA {}s", entry_secs.ceil() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn shard_store_paths_are_distinct_per_worker() {
        let entry = Catalog::get("smoke_single").expect("registered");
        let a = shard_store_path(Path::new("/tmp/c"), entry, 1, 2);
        let b = shard_store_path(Path::new("/tmp/c"), entry, 2, 2);
        assert_ne!(a, b);
        assert_eq!(a, PathBuf::from("/tmp/c/smoke_single.shard1of2.jsonl"));
    }

    #[test]
    fn eta_appears_only_once_cells_complete() {
        let t = Instant::now();
        assert_eq!(eta_label(t, 3, 3, 10, None), "");
        assert_eq!(eta_label(t, 0, 10, 10, None), "");
        let label = eta_label(t, 2, 5, 10, None);
        assert!(label.starts_with(", ETA "), "{label}");
        assert!(!label.contains("campaign"), "{label}");
        let costs = Some(EtaCosts {
            per_cell: 0.5,
            tail_secs: 120.0,
        });
        let weighted = eta_label(t, 2, 5, 10, costs);
        assert!(weighted.contains("(campaign "), "{weighted}");
        // Degenerate benchmark (zero per-cell cost) falls back to the
        // entry-only label instead of dividing by zero.
        let degenerate = eta_label(
            t,
            2,
            5,
            10,
            Some(EtaCosts {
                per_cell: 0.0,
                tail_secs: 120.0,
            }),
        );
        assert!(!degenerate.contains("campaign"), "{degenerate}");
    }

    #[test]
    fn count_lines_tolerates_missing_files() {
        assert_eq!(count_lines(Path::new("/no/such/store.jsonl")), 0);
    }
}
