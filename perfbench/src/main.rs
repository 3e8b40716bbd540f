//! The benchmark's measuring binary; `run.py` beside this package drives
//! it and prints the metrics.
//!
//! ```console
//! $ perfbench pass  --workload W --dir D [--seed N] [--traced]
//! $ perfbench probe --workload W --dir D [--seed N]
//! $ perfbench --worker ENTRY --shard K/N --store P [...]
//! ```
//!
//! `pass` runs one workload end to end and prints one JSON line; `probe`
//! times each layer's public functions on the workload's inputs and
//! prints one JSON line; `--worker` executes one shard of a sharded pass
//! (see `worker.rs`).

mod host;
mod pass;
mod pin;
mod probe;
mod spans;
mod worker;
mod workload;

use std::path::PathBuf;

use sbp_types::SbpError;

use crate::pass::PassCtx;
use crate::workload::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// Command-line flags, parsed once for every subcommand.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    dir: Option<PathBuf>,
    seed: Option<u64>,
    traced: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, SbpError> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| SbpError::config(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--dir" => flags.dir = Some(PathBuf::from(value()?)),
            "--seed" => {
                let raw = value()?;
                let seed = raw
                    .parse()
                    .map_err(|e| SbpError::config(format!("{arg} {raw:?}: {e}")))?;
                flags.seed = Some(seed);
            }
            "--traced" => flags.traced = true,
            other => return Err(SbpError::config(format!("unknown argument {other:?}"))),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> Result<(), SbpError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(SbpError::config("usage: perfbench pass|probe|--worker ..."));
    };
    if command == "--worker" {
        return worker::worker(rest);
    }
    let flags = parse_flags(rest)?;
    let workload = Workload::by_name(
        flags
            .workload
            .as_deref()
            .ok_or_else(|| SbpError::config("--workload is required"))?,
    )?;
    let dir = flags
        .dir
        .clone()
        .ok_or_else(|| SbpError::config("--dir is required"))?;
    let dir = std::path::absolute(&dir)
        .map_err(|e| SbpError::config(format!("--dir {}: {e}", dir.display())))?;
    workload.enter(&dir)?;
    let ctx = PassCtx {
        workload,
        seed: flags.seed,
        dir,
    };
    match command.as_str() {
        "pass" => {
            println!("{}", pass::pass(&ctx, flags.traced)?);
            Ok(())
        }
        "probe" => {
            println!("{}", probe::probe(&ctx)?);
            Ok(())
        }
        other => Err(SbpError::config(format!("unknown command {other:?}"))),
    }
}
