//! The worker handler: what a campaign worker process of this binary
//! runs. `sbp_campaign::run_campaign` spawns it as the `campaign` binary's
//! worker (`perfbench --worker ENTRY --shard K/N --store PATH --seeds N`;
//! the sharded workload's manifest sets no flag beyond these), and it
//! calls `sbp_campaign::run_worker`. The pass's own coordinator adds
//! `--workload W [--seed N] [--spans FILE --epoch-ns T]`, and the worker
//! then runs that workload's (re-seeded) spec, traced when asked.
//!
//! A worker of a multi-shard run first pins itself to one CPU, so that no
//! more job threads run than the machine has cores.

use std::path::{Path, PathBuf};

use sbp_campaign::{run_worker, WorkerArgs};
use sbp_sim::GapMode;
use sbp_sweep::{RunOptions, Shard};
use sbp_types::SbpError;

use crate::pass::{traced_run_with, WORKER_LANES};
use crate::spans::{self, SpanLog};
use crate::workload::Workload;

pub fn worker(args: &[String]) -> Result<(), SbpError> {
    let (entry, rest) = args
        .split_first()
        .ok_or_else(|| SbpError::campaign("--worker needs a catalog entry name"))?;
    let (mut shard, mut store, mut seeds) = (None, None, None);
    let (mut workload, mut seed, mut spans_path, mut epoch_ns) = (None, None, None, None);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| SbpError::campaign(format!("{arg} needs a value")))
        };
        let number = |raw: &String| {
            raw.parse::<u128>()
                .map_err(|e| SbpError::campaign(format!("{arg} {raw:?}: {e}")))
        };
        match arg.as_str() {
            "--shard" => shard = Some(Shard::parse(value()?)?),
            "--store" => store = Some(PathBuf::from(value()?)),
            "--seeds" => seeds = Some(number(value()?)? as u32),
            "--workload" => workload = Some(Workload::by_name(value()?)?),
            "--seed" => seed = Some(number(value()?)? as u64),
            "--spans" => spans_path = Some(PathBuf::from(value()?)),
            "--epoch-ns" => epoch_ns = Some(number(value()?)?),
            other => {
                return Err(SbpError::campaign(format!(
                    "unknown worker argument {other:?}"
                )))
            }
        }
    }
    let shard = shard.ok_or_else(|| SbpError::campaign("--worker needs --shard K/N"))?;
    let store = store.ok_or_else(|| SbpError::campaign("--worker needs --store PATH"))?;
    if shard.count > 1 {
        if let Err(e) = crate::pin::pin_to_nth_cpu(shard.index) {
            eprintln!("perfbench worker: running unpinned: {e}");
        }
    }
    let Some(workload) = workload else {
        return run_worker(&WorkerArgs {
            entry: entry.clone(),
            shard,
            store,
            seeds,
            sampled: false,
            gap_mode: GapMode::FastForward,
            window_threads: None,
            profile: false,
            telemetry: None,
        });
    };
    let specs = workload.specs(Path::new("out"), seed)?;
    let (_, spec) = specs
        .iter()
        .find(|(e, _)| e.name == entry)
        .ok_or_else(|| SbpError::campaign(format!("{entry:?} is not in {}", workload.name)))?;
    match (spans_path, epoch_ns) {
        (None, None) => spec
            .run_with(&RunOptions {
                store: Some(store),
                shard: Some(shard),
            })
            .map(drop),
        (Some(path), Some(epoch)) => {
            let log = SpanLog::aligned(epoch);
            let lanes = (shard.index as u32 + 1) * WORKER_LANES;
            traced_run_with(spec, Some((&store, shard)), &log, None, lanes)?;
            spans::write(&log.into_spans(), &path)
        }
        _ => Err(SbpError::campaign("--spans and --epoch-ns go together")),
    }
}
