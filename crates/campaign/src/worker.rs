//! The worker half of the orchestrator: one subprocess owning one
//! `--shard k/n` slice of one catalog entry's job list.
//!
//! A worker is just the store-backed sweep path
//! ([`SweepSpec::run_with`](sbp_sweep::SweepSpec)) pointed at a dedicated
//! shard store; everything that makes the campaign crash-tolerant lives
//! in the store layer (append-per-job, fingerprint resume). The worker
//! prints a single machine-readable summary line to stdout — the
//! coordinator relays it to stderr and the tests parse it — and leaves
//! stdout otherwise untouched.
//!
//! For tests of the crash and hang paths, the [`DIE_AFTER_ENV`] /
//! [`STALL_AFTER_ENV`] variables make the worker execute its slice
//! sequentially and abort — or park forever — after that many store
//! appends: deterministic stand-ins for a worker dying or wedging
//! mid-shard (the latter is what the coordinator's `--stall-timeout`
//! heartbeat detects and kills). The coordinator strips both variables
//! when it retries a failed shard, so an injected fault exercises
//! exactly one death-and-resume cycle per shard.

use std::path::PathBuf;

use sbp_sim::GapMode;
use sbp_sweep::{
    plan, plan_fingerprints, run_job_indexed, JobArena, RunOptions, Shard, SweepStore,
};
use sbp_types::SbpError;

use crate::catalog::Catalog;

/// Fault-injection knob: when set to `N`, a worker dies (exit code 42)
/// after appending `N` results to its shard store.
pub const DIE_AFTER_ENV: &str = "SBP_CAMPAIGN_DIE_AFTER";

/// Fault-injection knob: when set to `N`, a worker hangs forever (without
/// exiting or appending) after `N` store appends — a deterministic
/// stand-in for a wedged worker, detected and killed by the
/// coordinator's `--stall-timeout` heartbeat.
pub const STALL_AFTER_ENV: &str = "SBP_CAMPAIGN_STALL_AFTER";

/// Exit code of a fault-injected worker death.
pub const DIE_EXIT_CODE: i32 = 42;

/// Parsed `--worker` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Catalog entry to run.
    pub entry: String,
    /// This worker's slice of the job list.
    pub shard: Shard,
    /// Shard store path (dedicated to this worker).
    pub store: PathBuf,
    /// Seed-replica override from the manifest, if any.
    pub seeds: Option<u32>,
    /// Run the entry with its mode's default sampling plan (the
    /// manifest's `"sampling": true`, forwarded as `--sampled`).
    pub sampled: bool,
    /// Gap strategy for sampled runs (the manifest's `"gap_mode"`,
    /// forwarded as `--gap-mode`); ignored without `sampled`.
    pub gap_mode: GapMode,
    /// Intra-worker window-parallelism width (the manifest's
    /// `"window_threads"`, forwarded as `--window-threads`); `None`
    /// leaves the process's width (serial unless set).
    pub window_threads: Option<usize>,
    /// Print this shard's wall-time phase breakdown (warm / gaps /
    /// steady / event / exact measure), summed from the telemetry
    /// sink's phase spans, to stderr after the run (forwarded from the
    /// campaign's `--profile`).
    pub profile: bool,
    /// Sidecar telemetry stream this worker appends its structured
    /// events to (forwarded by the coordinator as `--telemetry PATH`);
    /// `None` leaves telemetry off. Observation-only: the shard store
    /// is byte-identical either way.
    pub telemetry: Option<PathBuf>,
}

/// Runs one worker: resolves the catalog entry, executes the shard
/// against its store, and prints the summary line.
///
/// # Errors
///
/// Returns campaign errors for unknown entries and the underlying sweep
/// errors otherwise.
pub fn run_worker(args: &WorkerArgs) -> Result<(), SbpError> {
    let entry = Catalog::get(&args.entry)
        .ok_or_else(|| SbpError::campaign(format!("unknown catalog entry {:?}", args.entry)))?;
    let mut spec = entry.spec();
    if let Some(seeds) = args.seeds {
        spec = spec.with_seeds(seeds);
    }
    if args.sampled {
        spec = spec.with_default_sampling_mode(args.gap_mode);
    }
    if let Some(n) = args.window_threads {
        sbp_sweep::set_window_threads(n);
    }
    if args.telemetry.is_some() || args.profile {
        // Worker lanes are 1-based; lane 0 is the coordinator's. A
        // profile-only run collects its phase spans in memory, with no
        // sidecar.
        let lane = args.shard.index as u32 + 1;
        sbp_telemetry::enable(&args.entry, lane, args.telemetry.as_deref());
    }
    if let Some(after) = fault_knob(DIE_AFTER_ENV)? {
        return run_fault_injected(&spec, args, after, FaultMode::Die);
    }
    if let Some(after) = fault_knob(STALL_AFTER_ENV)? {
        return run_fault_injected(&spec, args, after, FaultMode::Stall);
    }
    let outcome = spec.run_with(&RunOptions {
        store: Some(args.store.clone()),
        shard: Some(args.shard),
    })?;
    close_telemetry(args);
    print_summary(args, outcome.executed, outcome.skipped, outcome.pending);
    Ok(())
}

/// Disables the sink, first printing this shard's wall-time phase
/// breakdown to stderr under `--profile` (stdout stays byte-comparable
/// between profiled and unprofiled runs).
fn close_telemetry(args: &WorkerArgs) {
    if args.profile {
        eprintln!(
            "worker[{}] shard {}/{} profile: {}",
            args.entry,
            args.shard.index + 1,
            args.shard.count,
            crate::report::profile_line(&sbp_telemetry::take_events(), &args.entry),
        );
    }
    sbp_telemetry::disable();
}

/// Parses one numeric fault-injection variable, `None` when unset.
fn fault_knob(var: &str) -> Result<Option<usize>, SbpError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| SbpError::campaign(format!("{var}={raw:?}: {e}"))),
    }
}

/// What a fault-injected worker does when its append budget runs out.
enum FaultMode {
    /// Abort the process (a crashed worker).
    Die,
    /// Park forever without exiting or appending (a wedged worker, for
    /// the coordinator's stall-timeout heartbeat).
    Stall,
}

/// The fault-test path: executes the shard's missing jobs one at a time
/// (deterministic append order) and dies or hangs after `after` appends.
/// A slice with fewer missing jobs than `after` completes and exits
/// normally.
fn run_fault_injected(
    spec: &sbp_sweep::SweepSpec,
    args: &WorkerArgs,
    after: usize,
    mode: FaultMode,
) -> Result<(), SbpError> {
    spec.validate()?;
    let plan = plan(spec);
    let fps = plan_fingerprints(spec, &plan);
    let mut store = SweepStore::open(&args.store)?;
    let skipped = fps.iter().filter(|fp| store.get(**fp).is_some()).count();
    let mut executed = 0usize;
    let mut arena = JobArena::new();
    for (i, &fp) in fps.iter().enumerate() {
        if !args.shard.owns(fp) || store.get(fp).is_some() {
            continue;
        }
        // The indexed runner flushes each job's telemetry before the
        // store append, so an injected death still leaves a sidecar
        // covering every persisted cell.
        let result = run_job_indexed(&mut arena, spec, &plan, i)?;
        store.append(fp, &result)?;
        executed += 1;
        if executed == after {
            match mode {
                FaultMode::Die => {
                    eprintln!(
                        "worker[{}] shard {}/{}: fault injection — dying after {after} append(s)",
                        args.entry,
                        args.shard.index + 1,
                        args.shard.count,
                    );
                    std::process::exit(DIE_EXIT_CODE);
                }
                FaultMode::Stall => {
                    eprintln!(
                        "worker[{}] shard {}/{}: fault injection — hanging after {after} append(s)",
                        args.entry,
                        args.shard.index + 1,
                        args.shard.count,
                    );
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
            }
        }
    }
    let pending = fps.iter().filter(|fp| store.get(**fp).is_none()).count();
    close_telemetry(args);
    print_summary(args, executed, skipped, pending);
    Ok(())
}

/// The machine-readable per-shard summary (mirrors `SweepOutcome`'s
/// counts; `skipped`/`pending` are plan-wide like `run_with`'s).
fn print_summary(args: &WorkerArgs, executed: usize, skipped: usize, pending: usize) {
    println!(
        "shard {}/{} entry {} executed {executed} skipped {skipped} pending {pending}",
        args.shard.index + 1,
        args.shard.count,
        args.entry,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sbp_campaign_worker_{}_{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn worker_rejects_unknown_entries() {
        let args = WorkerArgs {
            entry: "no_such_entry".into(),
            shard: Shard { index: 0, count: 1 },
            store: tmp("unknown"),
            seeds: None,
            sampled: false,
            gap_mode: GapMode::FastForward,
            window_threads: None,
            profile: false,
            telemetry: None,
        };
        assert!(matches!(
            run_worker(&args),
            Err(SbpError::Campaign(msg)) if msg.contains("no_such_entry")
        ));
    }

    #[test]
    fn worker_executes_its_slice_and_is_resumable() {
        let store = tmp("slice");
        let _ = std::fs::remove_file(&store);
        let args = WorkerArgs {
            entry: "smoke_attack".into(),
            shard: Shard { index: 0, count: 2 },
            store: store.clone(),
            seeds: None,
            sampled: false,
            gap_mode: GapMode::FastForward,
            window_threads: None,
            profile: false,
            telemetry: None,
        };
        run_worker(&args).expect("first pass");
        let after_first = SweepStore::open(&store).expect("open").len();
        run_worker(&args).expect("second pass");
        assert_eq!(
            SweepStore::open(&store).expect("open").len(),
            after_first,
            "second pass resumes, adds nothing"
        );
        std::fs::remove_file(&store).expect("cleanup");
    }
}
