//! Per-layer probes: each times one crate's public functions from
//! outside, on inputs drawn from the workload's own cases, and reports a
//! unit cost. A last probe re-runs a sample of the workload's cells one at
//! a time, so the traced run can check how much of its wall time the
//! per-cell costs account for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sbp_attack::AttackKind;
use sbp_campaign::recorder::trace_jobs;
use sbp_campaign::{record_spec, TraceOptions};
use sbp_core::{FrontendConfig, Mechanism, SecureFrontend};
use sbp_predictors::{DirectionEngine, PredictorKind};
use sbp_sim::{
    execute_branch, train_branch, train_branch_clocked, CoreConfig, SamplingPlan, SingleCoreSim,
    SmtSim, SwitchInterval,
};
use sbp_sweep::{plan, run_job_in, Job, JobArena, SweepMode, SweepSpec};
use sbp_trace::{
    cluster_trace, parse_replay, replay_trace_path, EventBuffer, TraceEvent, TraceGenerator,
    TraceReplayer, TraceSource, TraceWriter, WorkloadProfile,
};
use sbp_types::rng::SplitMix64;
use sbp_types::{
    BranchInfo, BranchKind, BranchRecord, CoreEvent, DirectionPredictor, KeyCtx, PredictionStats,
    SbpError, ThreadId,
};

use crate::pass::PassCtx;

/// Events captured per sampled case for the stream probes.
const EVENTS_PER_CASE: usize = 150_000;
/// Cases the stream probes draw from.
const STREAM_CASES: usize = 3;
/// Branches each front-end configuration is timed over.
const FRONTEND_BRANCHES: usize = 150_000;
/// Context switches timed per mechanism.
const SWITCHES: usize = 100;
/// One cell family (or attack cell) in this many is re-run for the
/// attribution estimate.
const SAMPLE_EVERY: usize = 3;

const HW0: ThreadId = ThreadId::new(0);

/// Front-end configurations of the `core` layer.
const CORE_PREDICTORS: [PredictorKind; 2] = [PredictorKind::Gshare, PredictorKind::TageScL];

const CORE_MECHANISMS: [(&str, Mechanism); 6] = [
    ("Baseline", Mechanism::Baseline),
    ("CF", Mechanism::CompleteFlush),
    ("PF", Mechanism::PreciseFlush),
    ("XOR-BP", Mechanism::xor_bp()),
    ("Noisy-XOR-BP", Mechanism::noisy_xor_bp()),
    ("Noisy-XOR-PHT", Mechanism::noisy_xor_pht()),
];

/// Named probe results, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{k:?}:{}", if v.is_finite() { *v } else { 0.0 }))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

pub fn probe(ctx: &PassCtx) -> Result<String, SbpError> {
    let specs = ctx.workload.specs(&ctx.dir.join("out"), ctx.seed)?;
    // The passes leave their traces behind; record them only if absent.
    for (entry, spec) in &specs {
        if ctx.workload.replay && !spec.is_attack() {
            let recorded = trace_jobs(spec, None)?.iter().all(|job| job.path.exists());
            if !recorded {
                record_spec(spec, entry.name, &TraceOptions::default())?;
            }
        }
    }
    let sim_spec = &specs
        .iter()
        .find(|(_, s)| !s.is_attack())
        .ok_or_else(|| SbpError::config("workload has no simulation entry"))?
        .1;
    let mut m = Metrics::default();
    let events = capture(sim_spec)?;
    let branches: Vec<BranchRecord> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Branch(rec) => Some(*rec),
            TraceEvent::PrivilegeSwitch(_) => None,
        })
        .collect();
    trace_layer(&mut m, sim_spec, &events, &ctx.dir)?;
    predictor_layer(&mut m, &branches);
    core_layer(&mut m, &branches);
    sim_layer(&mut m, sim_spec, &branches)?;
    attack_layer(&mut m, ctx.seed.unwrap_or(0x5eed));
    let cells = cell_sample(&specs)?;
    Ok(format!("{{\"metrics\":{},\"cells\":{cells}}}", m.json()))
}

/// The generator workload behind a (possibly `replay:`) workload name.
fn generator_name(name: &str) -> &str {
    parse_replay(name).map_or(name, |(workload, _)| workload)
}

/// Up to [`STREAM_CASES`] cases spread over the spec's case list.
fn sample_cases(spec: &SweepSpec) -> Vec<usize> {
    let n = spec.cases.len();
    let k = STREAM_CASES.min(n);
    (0..k).map(|i| i * n / k).collect()
}

/// A fresh generator for context 0 of case `case`, seeded as the planner
/// seeds replica 0 of that case.
fn case_generator(spec: &SweepSpec, case: usize) -> Result<TraceGenerator, SbpError> {
    let target = generator_name(&spec.cases[case].workloads[0]);
    let mut profile = WorkloadProfile::by_name(target)?;
    if spec.mode == SweepMode::Smt {
        profile.syscalls_per_minstr = 0.0;
    }
    let group_seed = SplitMix64::derive(spec.master_seed, (case * spec.seeds as usize) as u64);
    Ok(TraceGenerator::new(
        &profile,
        0x1000_0000,
        SplitMix64::derive(group_seed, 0),
    ))
}

/// The target streams of a few of the workload's cases, concatenated.
fn capture(spec: &SweepSpec) -> Result<Vec<TraceEvent>, SbpError> {
    let mut events = Vec::new();
    for case in sample_cases(spec) {
        let mut gen = case_generator(spec, case)?;
        events.extend((0..EVENTS_PER_CASE).map(|_| gen.next_event()));
    }
    Ok(events)
}

fn trace_layer(
    m: &mut Metrics,
    spec: &SweepSpec,
    events: &[TraceEvent],
    dir: &Path,
) -> Result<(), SbpError> {
    // Generation: batched fills, as the simulators draw events.
    let mut buf = EventBuffer::new(EventBuffer::DEFAULT_CAPACITY);
    let fills = EVENTS_PER_CASE / EventBuffer::DEFAULT_CAPACITY;
    let mut generated = 0;
    let start = Instant::now();
    for case in sample_cases(spec) {
        let mut gen = case_generator(spec, case)?;
        for _ in 0..fills {
            gen.fill(&mut buf);
            generated += buf.len();
            black_box(buf.peek());
        }
    }
    m.put(
        "trace.gen_ns_per_event",
        secs(start) * 1e9 / generated.max(1) as f64,
    );

    // Encode: stream the captured events into a v2 trace file.
    let path = dir.join("probe.sbpt");
    let start = Instant::now();
    let mut writer = TraceWriter::create(&path, "probe")?;
    for ev in events {
        writer.write_event(ev)?;
    }
    writer.finish()?;
    m.put(
        "trace.encode_ns_per_event",
        secs(start) * 1e9 / events.len().max(1) as f64,
    );

    // Decode: replay the file in simulator-sized batches.
    let fills = events.len() / EventBuffer::DEFAULT_CAPACITY;
    let start = Instant::now();
    let mut replayer = TraceReplayer::open(&path)?;
    for _ in 0..fills {
        replayer.fill(&mut buf);
        black_box(buf.peek());
    }
    m.put(
        "trace.decode_ns_per_event",
        secs(start) * 1e9 / (fills * EventBuffer::DEFAULT_CAPACITY).max(1) as f64,
    );

    // Phase clustering: the replay entry's own call on its own trace when
    // it has one, else the captured stream with a uniform 4-phase plan.
    let start = Instant::now();
    match (&spec.sampling, parse_replay(&spec.cases[0].workloads[0])) {
        (Some(plan), Some((workload, trace_dir))) if plan.phase_windows > 0 => {
            let group_seed = SplitMix64::derive(spec.master_seed, 0);
            let trace = replay_trace_path(
                Path::new(trace_dir),
                workload,
                0x1000_0000,
                SplitMix64::derive(group_seed, 0),
            );
            let reserve = plan.event_windows as u64 * (plan.gap + plan.rewarm + plan.event_window)
                + 2 * EventBuffer::DEFAULT_CAPACITY as u64;
            cluster_trace(
                &trace,
                spec.budget.warmup,
                plan.window,
                plan.phase_windows as usize,
                reserve,
            )?;
        }
        _ => {
            cluster_trace(&path, 0, (events.len() / 32) as u64, 4, 0)?;
        }
    }
    m.put("trace.cluster_s", secs(start));
    std::fs::remove_file(&path)
        .map_err(|e| SbpError::trace(format!("cannot remove {}: {e}", path.display())))?;
    Ok(())
}

/// Bare predict + update of every conditional branch, after one untimed
/// warming pass over the same stream.
fn predictor_layer(m: &mut Metrics, branches: &[BranchRecord]) {
    let cond: Vec<&BranchRecord> = branches
        .iter()
        .filter(|r| r.kind == BranchKind::Conditional)
        .collect();
    let ctx = KeyCtx::disabled(HW0);
    for kind in PredictorKind::ALL {
        let mut engine = DirectionEngine::build(kind, 1);
        let run = |engine: &mut DirectionEngine| {
            for rec in &cond {
                let info = BranchInfo::new(HW0, rec.pc, rec.kind);
                let predicted = engine.predict(info, &ctx);
                engine.update(info, rec.taken, predicted, &ctx);
            }
        };
        run(&mut engine);
        let start = Instant::now();
        run(&mut engine);
        black_box(&engine);
        m.put(
            format!("predictors.{}.ns_per_branch", kind.label()),
            secs(start) * 1e9 / cond.len().max(1) as f64,
        );
    }
}

/// One branch through the front-end: direction for conditionals, target
/// lookup and update for taken branches.
fn frontend_step(fe: &mut SecureFrontend, rec: &BranchRecord) {
    let info = BranchInfo::new(HW0, rec.pc, rec.kind);
    if rec.kind == BranchKind::Conditional {
        fe.train_direction(info, rec.taken);
    }
    if rec.taken {
        black_box(fe.predict_target(info));
        fe.update_target(info, rec.target);
    }
}

fn core_layer(m: &mut Metrics, branches: &[BranchRecord]) {
    let stream = &branches[..FRONTEND_BRANCHES.min(branches.len())];
    for predictor in CORE_PREDICTORS {
        for (label, mechanism) in CORE_MECHANISMS {
            let mut fe = SecureFrontend::new(FrontendConfig::paper_fpga(predictor, mechanism));
            let start = Instant::now();
            for rec in stream {
                frontend_step(&mut fe, rec);
            }
            m.put(
                format!("core.{}.{label}.ns_per_branch", predictor.label()),
                secs(start) * 1e9 / stream.len().max(1) as f64,
            );
            if !matches!(label, "CF" | "PF" | "Noisy-XOR-BP") {
                continue;
            }
            // Each switch follows a slice of branches that refills the
            // tables; only the switch itself is timed.
            let slice = (stream.len() / SWITCHES).max(1);
            let mut switch_s = 0.0;
            for chunk in stream.chunks(slice).take(SWITCHES) {
                for rec in chunk {
                    frontend_step(&mut fe, rec);
                }
                let start = Instant::now();
                fe.handle_event(CoreEvent::ContextSwitch { hw_thread: HW0 });
                switch_s += secs(start);
            }
            m.put(
                format!("core.{}.{label}.switch_us", predictor.label()),
                switch_s * 1e6 / SWITCHES as f64,
            );
        }
    }
}

/// The predictor and mechanism a workload spends most on: its costliest
/// predictor and its last mechanism series.
fn dominant(spec: &SweepSpec) -> (PredictorKind, Mechanism) {
    let predictor = *spec
        .predictors
        .last()
        .expect("validated spec has a predictor");
    let mechanism = spec
        .series_mechanisms()
        .last()
        .copied()
        .unwrap_or(Mechanism::Baseline);
    (predictor, mechanism)
}

fn sim_layer(m: &mut Metrics, spec: &SweepSpec, branches: &[BranchRecord]) -> Result<(), SbpError> {
    let (predictor, mechanism) = dominant(spec);
    let stream = &branches[..FRONTEND_BRANCHES.min(branches.len())];
    let fe_cfg = FrontendConfig {
        predictor,
        btb: spec.core.btb,
        ras_depth: spec.core.ras_depth,
        threads: 1,
        mechanism,
        key_seed: 0x5eed_5eed,
    };
    let per_branch = |step: &mut dyn FnMut(&mut SecureFrontend, &BranchRecord)| {
        let mut fe = SecureFrontend::new(fe_cfg);
        let start = Instant::now();
        for rec in stream {
            step(&mut fe, rec);
        }
        black_box(&fe);
        secs(start) * 1e9 / stream.len().max(1) as f64
    };
    let cfg = spec.core;
    let mut stats = PredictionStats::new();
    m.put(
        "sim.timing.execute_branch_ns",
        per_branch(&mut |fe, rec| {
            black_box(execute_branch(fe, &cfg, HW0, rec, &mut stats));
        }),
    );
    m.put(
        "sim.timing.train_branch_ns",
        per_branch(&mut |fe, rec| train_branch(fe, &cfg, HW0, rec)),
    );
    m.put(
        "sim.timing.train_branch_clocked_ns",
        per_branch(&mut |fe, rec| {
            black_box(train_branch_clocked(fe, &cfg, HW0, rec));
        }),
    );

    // Whole simulators on the first case's workloads.
    let workloads: Vec<&str> = spec.cases[0]
        .workloads
        .iter()
        .map(|w| generator_name(w))
        .collect();
    let single_cfg = if spec.mode == SweepMode::Smt {
        CoreConfig::fpga()
    } else {
        spec.core
    };
    let mut single = SingleCoreSim::new(
        single_cfg,
        predictor,
        mechanism,
        SwitchInterval::M8,
        &workloads,
        spec.master_seed,
    )?;
    let (warmup, measure) = (50_000, 450_000);
    let start = Instant::now();
    black_box(single.run_target(warmup, measure));
    m.put(
        "sim.core.run_target_branches_per_s",
        (warmup + measure) as f64 / secs(start),
    );
    let smt_cfg = if spec.mode == SweepMode::Smt {
        spec.core
    } else {
        CoreConfig::gem5()
    };
    let mut smt = SmtSim::new(
        smt_cfg,
        predictor,
        mechanism,
        SwitchInterval::M8,
        &workloads,
        spec.master_seed,
    )?;
    let (warmup, measure) = (300_000, 3_000_000);
    let start = Instant::now();
    black_box(smt.run(warmup, measure));
    m.put(
        "sim.smt.run_minstr_per_s",
        (warmup + measure) as f64 / 1e6 / secs(start),
    );

    // Checkpoint clones of the warm state, in the workload's own mode.
    const CLONES: u32 = 20;
    let start = Instant::now();
    for _ in 0..CLONES {
        if spec.mode == SweepMode::Smt {
            black_box(smt.try_clone());
        } else {
            black_box(single.try_clone());
        }
    }
    m.put("sim.clone_us", secs(start) * 1e6 / f64::from(CLONES));

    // One sampled cell from a cold simulator, with the workload's plan or
    // its mode's hybrid plan.
    let sampling = spec
        .sampling
        .filter(|p| p.phase_windows == 0)
        .unwrap_or_else(|| {
            if spec.mode == SweepMode::Smt {
                SamplingPlan::smt_hybrid()
            } else {
                SamplingPlan::single_hybrid()
            }
        });
    let start = Instant::now();
    if spec.mode == SweepMode::Smt {
        let mut sim = SmtSim::new(
            spec.core,
            predictor,
            mechanism,
            SwitchInterval::M8,
            &workloads,
            spec.master_seed,
        )?;
        sim.warm(spec.budget.warmup);
        black_box(sim.run_sampled(&sampling));
    } else {
        let mut sim = SingleCoreSim::new(
            spec.core,
            predictor,
            mechanism,
            SwitchInterval::M8,
            &workloads,
            spec.master_seed,
        )?;
        sim.warm(spec.budget.warmup);
        black_box(sim.run_sampled(&sampling));
    }
    m.put("sim.sampling.run_sampled_s", secs(start));
    Ok(())
}

/// Attack trials per second on one Table 1 cell.
fn attack_layer(m: &mut Metrics, seed: u64) {
    const TRIALS: u64 = 300;
    let start = Instant::now();
    black_box(AttackKind::BranchScope.run(
        Mechanism::noisy_xor_pht(),
        PredictorKind::Gshare,
        false,
        TRIALS,
        seed,
    ));
    m.put("attack.trials_per_s", TRIALS as f64 / secs(start));
}

/// Cost class of a job: jobs of one class run the same code on the same
/// budget.
fn class_of(spec: &SweepSpec, job_plan: &sbp_sweep::SweepPlan, job: &Job) -> String {
    match job {
        Job::Attack(a) => format!(
            "{}|attack|{}|{}|{}",
            spec.name,
            a.attack.label(),
            a.mechanism.label(),
            a.smt
        ),
        Job::Sim { group, mechanism } => {
            let g = &job_plan.groups[*group];
            format!(
                "{}|sim|{}|{}|{}",
                spec.name,
                g.predictor.label(),
                mechanism.label(),
                g.interval.label()
            )
        }
    }
}

/// Runs a sample of every entry's cells one at a time, in plan order, and
/// extrapolates per class to the whole plan. Simulation cells are sampled
/// by whole warm-up families (every interval and mechanism of one
/// predictor × case × replica), one family in [`SAMPLE_EVERY`] per
/// predictor, evenly spaced, so the warm state they share is shared in
/// the sample too; attack cells one in [`SAMPLE_EVERY`].
fn cell_sample(
    specs: &[(&'static sbp_campaign::CatalogEntry, SweepSpec)],
) -> Result<String, SbpError> {
    let mut planned = 0;
    let mut sampled = 0;
    let mut estimate = 0.0;
    let mut unsampled = 0;
    for (_, spec) in specs {
        let job_plan = plan(spec);
        let family = |job: &Job| {
            job.sim().map(|(g, _)| {
                let g = &job_plan.groups[g];
                (g.predictor.label(), g.case_index, g.seed_index)
            })
        };
        let mut families: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
        for job in &job_plan.jobs {
            if let Some((p, c, s)) = family(job) {
                let list = families.entry(p).or_default();
                if !list.contains(&(c, s)) {
                    list.push((c, s));
                }
            }
        }
        let chosen: Vec<(&str, usize, u32)> = families
            .iter()
            .flat_map(|(p, list)| {
                let k = list.len().div_ceil(SAMPLE_EVERY);
                (0..k).map(move |i| {
                    let (c, s) = list[i * list.len() / k];
                    (*p, c, s)
                })
            })
            .collect();
        let mut costs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut arena = JobArena::new();
        let mut attacks = 0usize;
        for job in &job_plan.jobs {
            let take = match family(job) {
                Some(f) => chosen.contains(&f),
                None => {
                    attacks += 1;
                    (attacks - 1).is_multiple_of(SAMPLE_EVERY)
                }
            };
            if !take {
                continue;
            }
            let start = Instant::now();
            black_box(run_job_in(&mut arena, spec, &job_plan, job)?);
            costs
                .entry(class_of(spec, &job_plan, job))
                .or_default()
                .push(secs(start));
            sampled += 1;
        }
        let all: Vec<f64> = costs.values().flatten().copied().collect();
        let overall = all.iter().sum::<f64>() / all.len().max(1) as f64;
        for job in &job_plan.jobs {
            planned += 1;
            estimate += match costs.get(&class_of(spec, &job_plan, job)) {
                Some(c) => c.iter().sum::<f64>() / c.len() as f64,
                None => {
                    unsampled += 1;
                    overall
                }
            };
        }
    }
    Ok(format!(
        "{{\"planned\":{planned},\"sampled\":{sampled},\"estimate_s\":{estimate},\
         \"unsampled\":{unsampled}}}"
    ))
}
