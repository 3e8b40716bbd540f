//! One end-to-end pass of a workload, in its own process so every cache
//! starts empty: set-up, the campaign run and, on sharded workloads, a
//! resume pass over the same stores.
//!
//! Untraced passes at the catalog seeds run the program's own campaign
//! path. A sharded workload calls `sbp_campaign::run_campaign`, whose
//! workers are this binary's `--worker` handler around
//! `sbp_campaign::run_worker`. An in-process workload does what
//! `campaign --in-process --check` does: `SweepSpec::run`, then
//! `check_and_print` and `summarize_verdicts`. The campaign's standard
//! output is this process's, between marker lines, for `run.py` to digest.
//!
//! Two kinds of pass leave that path, because they cannot be measured on
//! it. A re-seeded sharded pass (`--seed`) runs this module's own
//! coordinator: `run_campaign`'s workers and merge build the catalog's
//! specs, not `SweepSpec::with_master_seed` ones. Traced passes make the
//! campaign's calls one layer down (`run_job_indexed`,
//! `SweepStore::append`, `build_report`, ...) so each can be wrapped in a
//! span.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sbp_campaign::coordinator::{check_and_print, summarize_verdicts};
use sbp_campaign::{
    record_spec, run_campaign, shard_store_path, CampaignOptions, CatalogEntry, TraceOptions,
};
use sbp_sweep::store::fnv1a64;
use sbp_sweep::{
    build_report, gc_store, merge_stores, plan, plan_fingerprints, run_job_indexed, Job, JobArena,
    RawResult, Shard, SweepSpec, SweepStore,
};
use sbp_types::{SbpError, SweepReport};

use crate::spans::{self, Span, SpanLog};
use crate::workload::Workload;

type Specs = Vec<(&'static CatalogEntry, SweepSpec)>;

/// Set-up is milliseconds on the in-process workloads: it is repeated
/// this many times in a pass and the median kept.
const SETUP_REPS: usize = 25;

/// Lanes of worker `k`'s job threads start at `k * WORKER_LANES`.
pub const WORKER_LANES: u32 = 1000;

/// Printed on standard output before the campaign's output, and before
/// the resume pass's; `run.py` digests what lies between them.
const RUN_MARKER: &str = "==perfbench run==";
const RESUME_MARKER: &str = "==perfbench resume==";

/// What a pass needs to know besides the workload.
pub struct PassCtx<'a> {
    pub workload: &'a Workload,
    pub seed: Option<u64>,
    pub dir: PathBuf,
}

impl PassCtx<'_> {
    fn out(&self) -> PathBuf {
        self.dir.join("out")
    }

    fn sharded(&self) -> bool {
        self.workload.workers > 0
    }

    /// The store of each shard. An in-process workload has one, written
    /// only by the store leg of traced passes.
    fn shard_paths(&self, entry: &CatalogEntry) -> Vec<PathBuf> {
        let n = self.workload.workers.max(1);
        (1..=n)
            .map(|k| shard_store_path(&self.out(), entry, k, n))
            .collect()
    }
}

/// Runs one pass and returns its JSON result line.
pub fn pass(ctx: &PassCtx, traced: bool) -> Result<String, SbpError> {
    let out = ctx.out();
    remove_dir(&out)?;
    if ctx.workload.replay {
        remove_dir(&ctx.dir.join(crate::workload::TRACE_DIR))?;
    }
    std::fs::create_dir_all(&out)
        .map_err(|e| SbpError::campaign(format!("cannot create {}: {e}", out.display())))?;
    let epoch = spans::unix_ns();
    let log = SpanLog::new(traced);
    let root = log.open("pass", None);

    let setup = log.open("setup", Some(root));
    let record_start = Instant::now();
    if ctx.workload.replay {
        let t = log.now();
        for (entry, spec) in ctx.workload.specs(&out, ctx.seed)? {
            if !spec.is_attack() {
                record_spec(&spec, entry.name, &TraceOptions::default())?;
            }
        }
        log.record("trace.record", t, Some(setup), 0, 0);
    }
    let record_s = record_start.elapsed().as_secs_f64();
    // The repetitions, each followed by a run of the host kernel
    // (`host.rs`), are the benchmark's, not the program's: their CPU time
    // is reported so that run.py can leave it out of cpu_s.
    let cpu_start = thread_cpu_s()?;
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut host = Vec::with_capacity(SETUP_REPS);
    let mut jobs = 0;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let rep = log.open("setup.rep", Some(setup));
        jobs = prepare(ctx, &log, rep)?;
        log.close(rep);
        reps.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(crate::host::kernel());
        host.push(start.elapsed().as_secs_f64());
    }
    let setup_cpu_s = thread_cpu_s()? - cpu_start;
    log.close(setup);
    let specs = ctx.workload.specs(&out, ctx.seed)?;

    let trace_log = traced.then_some(&log);
    // Jobs executed, counted outside the timed runs: as store lines on
    // sharded workloads, as the coordinator counts them.
    let executed = |outcome: &RunOutcome, stored_before: usize| {
        if ctx.sharded() {
            stored_cells(ctx, &specs).saturating_sub(stored_before)
        } else {
            outcome.executed.unwrap_or(jobs)
        }
    };
    marker(RUN_MARKER)?;
    let run = log.open("run", Some(root));
    let start = Instant::now();
    let first = run_once(ctx, &specs, trace_log, run, epoch);
    let run_s = start.elapsed().as_secs_f64();
    log.close(run);
    let first = match first {
        Ok(outcome) => outcome,
        Err(e) => return Ok(failed_pass(jobs, &e)),
    };
    let first_executed = executed(&first, 0);

    let mut store_digest = None;
    let mut resume = None;
    if ctx.sharded() {
        store_digest = Some(digest_stores(&out, &specs)?);
        marker(RESUME_MARKER)?;
        let stored = stored_cells(ctx, &specs);
        let span = log.open("resume", Some(root));
        let start = Instant::now();
        let again = run_once(ctx, &specs, trace_log, span, epoch)?;
        let resume_s = start.elapsed().as_secs_f64();
        log.close(span);
        let again_executed = executed(&again, stored);
        resume = Some((resume_s, again_executed, digest_stores(&out, &specs)?));
    } else if traced {
        // `campaign --in-process` keeps no store. The traced pass writes
        // one from the run's results after the run, so the store layers
        // are timed on this workload's cells too and its canonical
        // stores can be held to the pinned digest.
        let span = log.open("stores", Some(root));
        write_stores(ctx, &specs, &first.results, &log, span)?;
        log.close(span);
        store_digest = Some(digest_stores(&out, &specs)?);
        let span = log.open("resume", Some(root));
        let start = Instant::now();
        let mut resumed = 0;
        for (entry, spec) in &specs {
            let path = &ctx.shard_paths(entry)[0];
            let store = Some((path.as_path(), Shard { index: 0, count: 1 }));
            resumed += traced_run_with(spec, store, &log, Some(span), 1)?.executed;
        }
        let resume_s = start.elapsed().as_secs_f64();
        log.close(span);
        resume = Some((resume_s, resumed, digest_stores(&out, &specs)?));
    }
    log.close(root);

    let layers = if traced {
        let all = log.into_spans();
        spans::write(&all, &ctx.dir.join("spans.jsonl"))?;
        layer_json(&all, root)
    } else {
        "null".to_string()
    };
    let digest = |d: Option<u64>| d.map_or("null".to_string(), |d| format!("\"{d:016x}\""));
    let (resume_s, resume_executed, resume_digest) = match resume {
        Some((s, n, d)) => (s.to_string(), n.to_string(), digest(Some(d))),
        None => ("null".into(), "null".into(), "null".into()),
    };
    Ok(format!(
        "{{\"jobs\":{jobs},\"setup_s\":{},\"host_s\":{},\"setup_cpu_s\":{setup_cpu_s},\
         \"run_s\":{run_s},\
         \"resume_s\":{resume_s},\"executed\":{},\"resume_executed\":{resume_executed},\
         \"store_digest\":{},\"resume_store_digest\":{resume_digest},\
         \"error\":null,\"layers\":{layers}}}",
        record_s + median(&reps),
        median(&host),
        first_executed,
        digest(store_digest),
    ))
}

/// The result line of a pass whose run failed: every job counts as failed.
fn failed_pass(jobs: usize, error: &SbpError) -> String {
    format!("{{\"jobs\":{jobs},\"error\":{:?}}}", error.to_string())
}

/// Prints a marker line, flushing the campaign output before it.
fn marker(line: &str) -> Result<(), SbpError> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.flush())
        .map_err(|e| SbpError::campaign(format!("cannot write standard output: {e}")))
}

/// CPU seconds the calling thread has run (`/proc/thread-self/schedstat`).
fn thread_cpu_s() -> Result<f64, SbpError> {
    let path = "/proc/thread-self/schedstat";
    let text = std::fs::read_to_string(path)
        .map_err(|e| SbpError::campaign(format!("cannot read {path}: {e}")))?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 * 1e-9)
        .ok_or_else(|| SbpError::campaign(format!("{path}: unexpected {text:?}")))
}

fn remove_dir(path: &Path) -> Result<(), SbpError> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(SbpError::campaign(format!(
            "cannot remove {}: {e}",
            path.display()
        ))),
        _ => Ok(()),
    }
}

/// Set-up before the first job: manifest parse, spec build, plan and
/// fingerprints, and on sharded workloads store open. Returns the job
/// count.
fn prepare(ctx: &PassCtx, log: &SpanLog, parent: usize) -> Result<usize, SbpError> {
    let mut jobs = 0;
    for (entry, spec) in ctx.workload.specs(&ctx.out(), ctx.seed)? {
        spec.validate()?;
        let t = log.now();
        let job_plan = plan(&spec);
        let fps = plan_fingerprints(&spec, &job_plan);
        log.record("sweep.plan", t, Some(parent), 0, fps.len() as u64);
        jobs += fps.len();
        if ctx.sharded() {
            for path in ctx.shard_paths(entry) {
                let t = log.now();
                SweepStore::open(&path)?;
                log.record("sweep.store.open", t, Some(parent), 0, 0);
            }
        }
    }
    Ok(jobs)
}

/// What a traced in-process run did: the jobs it executed and every
/// entry's results in plan order. Other runs leave both empty.
#[derive(Default)]
struct RunOutcome {
    executed: Option<usize>,
    results: Vec<Vec<RawResult>>,
}

/// Runs every entry once, printing what the campaign prints.
fn run_once(
    ctx: &PassCtx,
    specs: &Specs,
    log: Option<&SpanLog>,
    parent: usize,
    epoch: u128,
) -> Result<RunOutcome, SbpError> {
    let mut outcome = RunOutcome::default();
    if log.is_none() && ctx.sharded() && ctx.seed.is_none() {
        let exe = std::env::current_exe()
            .map_err(|e| SbpError::campaign(format!("cannot locate own binary: {e}")))?;
        let options = CampaignOptions {
            check: true,
            ..CampaignOptions::default()
        };
        run_campaign(&ctx.workload.manifest(&ctx.out())?, &exe, &options)?;
        return Ok(outcome);
    }
    let mut verdicts = Vec::new();
    for (entry, spec) in specs {
        let span = log.map(|l| l.open(&format!("entry:{}", entry.name), Some(parent)));
        let report = if ctx.sharded() {
            let shard_paths = ctx.shard_paths(entry);
            run_workers(ctx, entry, &shard_paths, log.zip(span), epoch)?;
            let canonical = ctx.out().join(entry.store);
            let report = match log {
                None => merge_stores(spec, &shard_paths, Some(&canonical))?,
                Some(l) => traced_merge(spec, &shard_paths, &canonical, l, span)?,
            };
            timed(log, "sweep.gc", span, || {
                for path in shard_paths.iter().chain(std::iter::once(&canonical)) {
                    gc_store(path, std::slice::from_ref(spec))?;
                }
                Ok::<_, SbpError>(())
            })?;
            report
        } else {
            match log {
                None => spec.run()?,
                Some(l) => {
                    let run = traced_run_with(spec, None, l, span, 1)?;
                    *outcome.executed.get_or_insert(0) += run.executed;
                    outcome.results.push(run.results);
                    run.report.expect("an unsharded run completes every cell")
                }
            }
        };
        print!("{}", report.to_table());
        verdicts.push(timed(log, "sweep.verdict", span, || {
            check_and_print(entry, &report)
        }));
        if let (Some(l), Some(s)) = (log, span) {
            l.close(s);
        }
    }
    summarize_verdicts(&verdicts)?;
    Ok(outcome)
}

/// Runs `f`, inside a span named `name` when tracing.
fn timed<T>(log: Option<&SpanLog>, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
    let start = log.map(SpanLog::now);
    let out = f();
    if let (Some(log), Some(start)) = (log, start) {
        log.record(name, start, parent, 0, 0);
    }
    out
}

/// Cells held by every shard store of the workload: one line each, as
/// the coordinator counts them.
fn stored_cells(ctx: &PassCtx, specs: &Specs) -> usize {
    specs
        .iter()
        .flat_map(|(entry, _)| ctx.shard_paths(entry))
        .map(|path| {
            std::fs::read_to_string(path).map_or(0, |text| {
                text.lines().filter(|l| !l.trim().is_empty()).count()
            })
        })
        .sum()
}

/// FNV-1a over the canonical stores, in manifest order.
fn digest_stores(out: &Path, specs: &Specs) -> Result<u64, SbpError> {
    let mut bytes = Vec::new();
    for (entry, _) in specs {
        let path = out.join(entry.store);
        bytes.extend(
            std::fs::read(&path)
                .map_err(|e| SbpError::store(format!("cannot read {}: {e}", path.display())))?,
        );
    }
    Ok(fnv1a64(&bytes))
}

/// The store leg of a traced in-process pass: appends each entry's
/// results to a store in plan order, then merges it into the canonical
/// store.
fn write_stores(
    ctx: &PassCtx,
    specs: &Specs,
    results: &[Vec<RawResult>],
    log: &SpanLog,
    parent: usize,
) -> Result<(), SbpError> {
    for ((entry, spec), results) in specs.iter().zip(results) {
        let path = &ctx.shard_paths(entry)[0];
        let t = log.now();
        let mut store = SweepStore::open(path)?;
        log.record("sweep.store.open", t, Some(parent), 0, 0);
        let fps = plan_fingerprints(spec, &plan(spec));
        for (fp, result) in fps.iter().zip(results) {
            let t = log.now();
            store.append(*fp, result)?;
            log.record("sweep.store.append", t, Some(parent), 0, 1);
        }
        drop(store);
        let canonical = ctx.out().join(entry.store);
        traced_merge(
            spec,
            std::slice::from_ref(path),
            &canonical,
            log,
            Some(parent),
        )?;
    }
    Ok(())
}

/// Spawns one worker subprocess per shard, as the coordinator does, and
/// waits for all of them. Traced workers write their spans to a file,
/// adopted here under the entry's span.
fn run_workers(
    ctx: &PassCtx,
    entry: &CatalogEntry,
    shard_paths: &[PathBuf],
    trace: Option<(&SpanLog, usize)>,
    epoch: u128,
) -> Result<(), SbpError> {
    let exe = std::env::current_exe()
        .map_err(|e| SbpError::campaign(format!("cannot locate own binary: {e}")))?;
    let n = shard_paths.len();
    let spans_path = |k: usize| {
        ctx.dir
            .join(format!("spans.{}.shard{k}of{n}.jsonl", entry.name))
    };
    let mut children = Vec::with_capacity(n);
    for (i, store) in shard_paths.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--worker", entry.name])
            .args(["--shard", &format!("{}/{n}", i + 1)])
            .arg("--store")
            .arg(store)
            .args(["--workload", ctx.workload.name])
            .stdout(Stdio::null());
        if let Some(seed) = ctx.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if trace.is_some() {
            cmd.arg("--spans")
                .arg(spans_path(i + 1))
                .args(["--epoch-ns", &epoch.to_string()]);
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(SbpError::campaign(format!("cannot spawn worker: {e}")));
            }
        }
    }
    // Reap every worker before judging any, so none outlives the pass.
    let statuses: Vec<_> = children.iter_mut().map(|c| c.wait()).collect();
    for (i, status) in statuses.into_iter().enumerate() {
        let status = status.map_err(|e| SbpError::campaign(format!("cannot wait: {e}")))?;
        if !status.success() {
            return Err(SbpError::campaign(format!(
                "{} worker {}/{n} failed ({status})",
                entry.name,
                i + 1,
            )));
        }
        if let Some((log, parent)) = trace {
            log.adopt(spans::read(&spans_path(i + 1))?, parent);
        }
    }
    Ok(())
}

/// What [`traced_run_with`] did.
pub struct TracedRun {
    pub executed: usize,
    /// Every cell's result in plan order; empty while cells are pending.
    pub results: Vec<RawResult>,
    /// `None` while cells are pending (a shard whose siblings have not
    /// completed).
    pub report: Option<SweepReport>,
}

/// `SweepSpec::run_with` one layer down, with a span around each call:
/// plan, store open, every job, every store append, the report build.
/// Without a store it is `SweepSpec::run`.
pub fn traced_run_with(
    spec: &SweepSpec,
    store: Option<(&Path, Shard)>,
    log: &SpanLog,
    parent: Option<usize>,
    first_lane: u32,
) -> Result<TracedRun, SbpError> {
    spec.validate()?;
    let t = log.now();
    let job_plan = plan(spec);
    let fps = plan_fingerprints(spec, &job_plan);
    log.record("sweep.plan", t, parent, first_lane, fps.len() as u64);
    let (opened, shard) = match store {
        Some((path, shard)) => {
            let t = log.now();
            let opened = SweepStore::open(path)?;
            log.record(
                "sweep.store.open",
                t,
                parent,
                first_lane,
                opened.len() as u64,
            );
            (Some(opened), Some(shard))
        }
        None => (None, None),
    };
    let stored: Vec<bool> = fps
        .iter()
        .map(|fp| opened.as_ref().is_some_and(|s| s.get(*fp).is_some()))
        .collect();
    let todo: Vec<usize> = (0..job_plan.jobs.len())
        .filter(|&i| !stored[i] && shard.is_none_or(|sh| sh.owns(fps[i])))
        .collect();
    let opened = opened.map(Mutex::new);
    let next_lane = AtomicU32::new(first_lane);
    let fresh: Vec<Result<RawResult, SbpError>> = sbp_sweep::parallel_map_with(
        todo.len(),
        || (JobArena::new(), next_lane.fetch_add(1, Ordering::Relaxed)),
        |(arena, lane), k| {
            let i = todo[k];
            let t = log.now();
            let result = run_job_indexed(arena, spec, &job_plan, i)?;
            let (name, trials) = match &job_plan.jobs[i] {
                Job::Attack(a) => ("job.attack", a.trials),
                Job::Sim { .. } if spec.sampling.is_some() => ("job.sampled", 0),
                Job::Sim { .. } => ("job.sim", 0),
            };
            log.record(name, t, parent, *lane, trials);
            if let Some(store) = &opened {
                let mut store = store
                    .lock()
                    .expect("store lock poisoned by a panicking job");
                let t = log.now();
                store.append(fps[i], &result)?;
                log.record("sweep.store.append", t, parent, *lane, 1);
            }
            Ok(result)
        },
    );
    let opened = opened.map(|s| {
        s.into_inner()
            .expect("store lock poisoned by a panicking job")
    });
    let mut results: Vec<Option<RawResult>> = vec![None; job_plan.jobs.len()];
    for (k, i) in todo.iter().enumerate() {
        results[*i] = Some(fresh[k].clone()?);
    }
    if let Some(store) = &opened {
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = store.get(fps[i]).cloned();
            }
        }
    }
    let (results, report) = if results.iter().all(Option::is_some) {
        let results: Vec<RawResult> = results.into_iter().flatten().collect();
        let t = log.now();
        let report = build_report(spec, &job_plan, &results);
        log.record("sweep.build_report", t, parent, first_lane, 0);
        (results, Some(report))
    } else {
        (Vec::new(), None)
    };
    Ok(TracedRun {
        executed: todo.len(),
        results,
        report,
    })
}

/// `merge_stores` one layer down: the merge proper (read the shard stores,
/// write the canonical store) and the report build get a span each.
fn traced_merge(
    spec: &SweepSpec,
    shards: &[PathBuf],
    out: &Path,
    log: &SpanLog,
    parent: Option<usize>,
) -> Result<SweepReport, SbpError> {
    spec.validate()?;
    let t = log.now();
    let job_plan = plan(spec);
    let fps = plan_fingerprints(spec, &job_plan);
    let mut merged = HashMap::new();
    for path in shards {
        merged.extend(SweepStore::open(path)?.into_map());
    }
    let mut results = Vec::with_capacity(fps.len());
    for fp in &fps {
        results.push(
            merged.get(fp).cloned().ok_or_else(|| {
                SbpError::store(format!("merge incomplete: cell {fp:016x} missing"))
            })?,
        );
    }
    let mut seen = HashSet::new();
    let entries: Vec<(u64, RawResult)> = fps
        .iter()
        .zip(&results)
        .filter(|(fp, _)| seen.insert(**fp))
        .map(|(fp, r)| (*fp, r.clone()))
        .collect();
    SweepStore::write_canonical(out, entries)?;
    log.record("sweep.run.merge", t, parent, 0, shards.len() as u64);
    let t = log.now();
    let report = build_report(spec, &job_plan, &results);
    log.record("sweep.build_report", t, parent, 0, 0);
    Ok(report)
}

/// Per-layer figures of a traced pass, as a JSON object.
fn layer_json(spans: &[Span], root: usize) -> String {
    // The top-level phase ("setup", "run", "stores", "resume") each span
    // belongs to.
    let phase = |mut i: usize| -> &str {
        while let Some(p) = spans[i].parent {
            if p == root {
                return &spans[i].name;
            }
            i = p;
        }
        ""
    };
    let sum = |name: &str, in_phase: &str| -> f64 {
        (0..spans.len())
            .filter(|&i| spans[i].name == name && phase(i) == in_phase)
            .map(|i| spans[i].secs())
            .sum()
    };
    let run: Vec<&Span> = (0..spans.len())
        .filter(|&i| phase(i) == "run")
        .map(|i| &spans[i])
        .collect();
    let jobs: Vec<&Span> = run
        .iter()
        .copied()
        .filter(|s| s.name.starts_with("job."))
        .collect();
    let job_s: Vec<f64> = jobs.iter().map(|s| s.secs()).collect();
    // The store layers run in the run on sharded workloads, and in the
    // store leg after it on in-process ones.
    let store_phase = if sum("sweep.run.merge", "run") > 0.0 {
        "run"
    } else {
        "stores"
    };
    let appends: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "sweep.store.append" && phase(i) == store_phase)
        .map(|i| spans[i].secs())
        .collect();
    let run_appends = if store_phase == "run" {
        appends.len()
    } else {
        0
    };
    // Busy time per executor: a job thread in-process, a worker process
    // when sharded.
    let mut busy: HashMap<u32, f64> = HashMap::new();
    for s in &jobs {
        let executor = if s.lane >= WORKER_LANES {
            s.lane / WORKER_LANES
        } else {
            s.lane
        };
        *busy.entry(executor).or_default() += s.secs();
    }
    let busy_max = busy.values().copied().fold(0.0, f64::max);
    let busy_mean = busy.values().sum::<f64>() / busy.len().max(1) as f64;
    let of_kind = |name: &str| -> (usize, f64, u64) {
        jobs.iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0, 0), |(n, t, c), s| {
                (n + 1, t + s.secs(), c + s.count)
            })
    };
    let (sampled_n, sampled_s, _) = of_kind("job.sampled");
    let (attack_n, attack_s, trials) = of_kind("job.attack");
    format!(
        "{{\"plan_s\":{},\"open_s\":{},\"job_s_sum\":{},\"job_s_p50\":{},\"job_s_max\":{},\
         \"append_us\":{},\"appends\":{run_appends},\"merge_s\":{},\"build_report_s\":{},\
         \"verdict_s\":{},\"run_serial_s\":{},\"executors\":{},\"busy_max_over_mean\":{},\
         \"sampled_jobs\":{sampled_n},\"sampled_s\":{sampled_s},\"attack_jobs\":{attack_n},\
         \"attack_s\":{attack_s},\"attack_trials\":{trials}}}",
        sum("sweep.plan", "setup") / SETUP_REPS as f64,
        sum("sweep.store.open", "resume"),
        job_s.iter().sum::<f64>(),
        median(&job_s),
        job_s.iter().copied().fold(0.0, f64::max),
        median(&appends) * 1e6,
        sum("sweep.run.merge", store_phase),
        sum("sweep.build_report", "run"),
        sum("sweep.verdict", "run"),
        [
            "sweep.run.merge",
            "sweep.build_report",
            "sweep.verdict",
            "sweep.gc"
        ]
        .iter()
        .map(|name| sum(name, "run"))
        .sum::<f64>(),
        busy.len(),
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            1.0
        },
    )
}

/// Median of the samples (the mean of the middle two for an even count);
/// 0 for none.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 0 => (sorted[mid - 1] + sorted[mid]) / 2.0,
        _ => sorted[mid],
    }
}
