//! The campaign CLI: catalog listing, coordinator fan-out, in-process
//! reference runs, the paper-conformance check and the (internal) worker
//! mode.
//!
//! ```console
//! $ campaign --list                      # the spec catalog
//! $ campaign manifest.json               # N-worker fan-out + merge + report
//! $ campaign --check manifest.json       # ... + per-entry verdict tables
//! $ campaign --in-process manifest.json  # unsharded run, byte-identical stdout
//! ```
//!
//! Reports (and, with `--check`, the verdict tables and the conformance
//! rollup) go to stdout; all status, progress and worker chatter goes to
//! stderr, so a coordinator run's stdout is byte-comparable with an
//! in-process run's. A `--check` run exits nonzero when any paper
//! expectation misses. `--stall-timeout SECS` arms the coordinator's
//! worker heartbeat: a worker whose shard store stops growing for that
//! long is killed and retried. The worker mode (`--worker ENTRY --shard
//! K/N --store PATH [--seeds S]`) is spawned by the coordinator and not
//! meant for direct use.

use std::path::{Path, PathBuf};
use std::time::Duration;

use sbp_campaign::coordinator::{check_and_print, summarize_verdicts};
use sbp_campaign::{
    finalize_telemetry, parse_gap_mode, run_campaign, run_report, run_worker, telemetry_enabled,
    CampaignOptions, Catalog, Manifest, WorkerArgs,
};
use sbp_sim::GapMode;
use sbp_sweep::Shard;
use sbp_types::SbpError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("campaign: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), SbpError> {
    if args.first().map(String::as_str) == Some("--worker") {
        return run_worker(&parse_worker_args(&args[1..])?);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("report") {
        let [out_dir] = &args[1..] else {
            return Err(SbpError::campaign("usage: campaign report OUT_DIR"));
        };
        return run_report(Path::new(out_dir));
    }
    let (mut list, mut in_process, mut options) = (false, false, CampaignOptions::default());
    let mut sampled = false;
    let mut gap_mode: Option<GapMode> = None;
    let mut window_threads: Option<usize> = None;
    let mut manifest_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" => {
                print_usage();
                return Ok(());
            }
            "--list" => list = true,
            "--in-process" => in_process = true,
            "--check" => options.check = true,
            "--sampled" => sampled = true,
            "--profile" => options.profile = true,
            "--telemetry" => options.telemetry = true,
            "--trace-out" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SbpError::campaign("--trace-out needs a file path"))?;
                options.trace_out = Some(PathBuf::from(raw));
            }
            "--gap-mode" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SbpError::campaign("--gap-mode needs a mode name"))?;
                gap_mode = Some(parse_gap_mode(raw)?);
            }
            "--window-threads" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SbpError::campaign("--window-threads needs a count"))?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|e| SbpError::campaign(format!("--window-threads {raw:?}: {e}")))?;
                if parsed == 0 {
                    return Err(SbpError::campaign("--window-threads must be >= 1"));
                }
                window_threads = Some(parsed);
            }
            "--stall-timeout" => {
                let raw = it
                    .next()
                    .ok_or_else(|| SbpError::campaign("--stall-timeout needs seconds"))?;
                let secs: f64 = raw
                    .parse()
                    .map_err(|e| SbpError::campaign(format!("--stall-timeout {raw:?}: {e}")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(SbpError::campaign("--stall-timeout must be > 0 seconds"));
                }
                options.stall_timeout =
                    Some(Duration::try_from_secs_f64(secs).map_err(|e| {
                        SbpError::campaign(format!("--stall-timeout {raw:?}: {e}"))
                    })?);
            }
            other if other.starts_with("--") => {
                return Err(SbpError::campaign(format!(
                    "unknown option {other:?} (see --help)"
                )))
            }
            path => {
                if manifest_path.replace(path.to_string()).is_some() {
                    return Err(SbpError::campaign("more than one manifest path given"));
                }
            }
        }
    }
    if list {
        // Silently discarding a manifest or mode flag would be the quiet
        // failure the strict parsers elsewhere exist to prevent.
        if in_process
            || sampled
            || gap_mode.is_some()
            || window_threads.is_some()
            || options != CampaignOptions::default()
            || manifest_path.is_some()
        {
            return Err(SbpError::campaign(
                "--list takes no other options or manifest",
            ));
        }
        println!(
            "{:<18} {:<42} {:<14} {:>6} axes",
            "name", "artifact", "default store", "checks"
        );
        for entry in Catalog::entries() {
            println!(
                "{:<18} {:<42} {:<14} {:>6} {}",
                entry.name,
                entry.artifact,
                entry.store,
                entry.expectations().len(),
                entry.axes
            );
        }
        return Ok(());
    }
    if in_process && options.stall_timeout.is_some() {
        return Err(SbpError::campaign(
            "--stall-timeout needs the coordinator: an in-process run has no workers to watch",
        ));
    }
    if args.is_empty() {
        print_usage();
        return Ok(());
    }
    let usage = if in_process {
        "--in-process [--check] MANIFEST.json"
    } else {
        "[--check] MANIFEST.json"
    };
    let mut manifest = load_manifest(manifest_path.as_ref(), usage)?;
    if sampled {
        manifest.sampling = true;
    }
    if let Some(mode) = gap_mode {
        if !manifest.sampling {
            return Err(SbpError::campaign(
                "--gap-mode needs sampling (--sampled or the manifest's \"sampling\": true)",
            ));
        }
        manifest.gap_mode = mode;
    }
    if let Some(threads) = window_threads {
        manifest.window_threads = Some(threads);
    }
    if in_process {
        if let Some(threads) = manifest.window_threads {
            sbp_sweep::set_window_threads(threads);
        }
        // The in-process runner is lane 0 with no sidecar file: its
        // events collect in the sink and merge at the end, exactly like
        // the coordinator's control lane. `--profile` reads its phase
        // spans from the same sink.
        let telemetry_on = telemetry_enabled(&manifest, &options);
        if telemetry_on {
            std::fs::create_dir_all(&manifest.out_dir).map_err(|e| {
                SbpError::campaign(format!(
                    "cannot create out_dir {}: {e}",
                    manifest.out_dir.display()
                ))
            })?;
        }
        if telemetry_on || options.profile {
            sbp_telemetry::enable("", 0, None);
        }
        let mut verdicts = Vec::new();
        for (entry, spec) in manifest.specs()? {
            eprintln!(
                "campaign[{}]: {} — in-process reference run",
                entry.name, entry.artifact
            );
            sbp_telemetry::set_entry(entry.name);
            let entry_span = sbp_telemetry::control_span("entry", entry.name);
            let report = spec.run()?;
            drop(entry_span);
            if options.profile {
                eprintln!(
                    "campaign[{}] profile: {}",
                    entry.name,
                    sbp_campaign::profile_line(&sbp_telemetry::events(), entry.name)
                );
            }
            print!("{}", report.to_table());
            if options.check {
                verdicts.push(check_and_print(entry, &report));
            }
        }
        if telemetry_on {
            finalize_telemetry(&manifest, options.trace_out.as_deref(), false)?;
        }
        sbp_telemetry::disable();
        summarize_verdicts(&verdicts)
    } else {
        let exe = std::env::current_exe()
            .map_err(|e| SbpError::campaign(format!("cannot locate own binary: {e}")))?;
        run_campaign(&manifest, &exe, &options)
    }
}

/// Loads the manifest and, when it pins a scale, exports `SBP_SCALE`
/// before anything reads it — the coordinator's fingerprints, the
/// tolerance-widening rule and every spawned worker must agree on the
/// work multiplier.
fn load_manifest(path: Option<&String>, usage: &str) -> Result<Manifest, SbpError> {
    let path = path.ok_or_else(|| SbpError::campaign(format!("usage: campaign {usage}")))?;
    let manifest = Manifest::load(Path::new(path))?;
    if let Some(scale) = manifest.scale {
        std::env::set_var("SBP_SCALE", format!("{scale}"));
    }
    Ok(manifest)
}

/// `campaign trace ENTRY [--dir DIR] [--branches N] [--verify]`: record
/// every `SBPT` file the entry's replay streams will open (see
/// `sbp_campaign::recorder`), optionally proving the capture round-trips
/// by running the replay spec and its generator twin and byte-comparing
/// the reports.
fn run_trace(args: &[String]) -> Result<(), SbpError> {
    let mut entry_name: Option<String> = None;
    let mut opts = sbp_campaign::TraceOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| SbpError::campaign(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--dir" => opts.dir = Some(PathBuf::from(value("a directory")?)),
            "--branches" => {
                let raw = value("a count")?;
                let parsed: u64 = raw
                    .parse()
                    .map_err(|e| SbpError::campaign(format!("--branches {raw:?}: {e}")))?;
                if parsed == 0 {
                    return Err(SbpError::campaign("--branches must be >= 1"));
                }
                opts.branches = Some(parsed);
            }
            "--verify" => opts.verify = true,
            other if other.starts_with("--") => {
                return Err(SbpError::campaign(format!(
                    "unknown trace option {other:?}"
                )))
            }
            name => {
                if entry_name.replace(name.to_string()).is_some() {
                    return Err(SbpError::campaign("more than one entry name given"));
                }
            }
        }
    }
    let name = entry_name.ok_or_else(|| {
        SbpError::campaign("usage: campaign trace ENTRY [--dir DIR] [--branches N] [--verify]")
    })?;
    let entry = Catalog::get(&name).ok_or_else(|| {
        SbpError::campaign(format!(
            "unknown catalog entry {name:?} (run `campaign --list` for the registry)"
        ))
    })?;
    let recorded = sbp_campaign::record_entry(entry, &opts)?;
    eprintln!(
        "campaign trace[{}]: {} file(s) recorded",
        entry.name,
        recorded.len()
    );
    if opts.verify {
        sbp_campaign::verify_entry(entry, &opts)?;
    }
    Ok(())
}

fn parse_worker_args(args: &[String]) -> Result<WorkerArgs, SbpError> {
    let entry = args
        .first()
        .ok_or_else(|| SbpError::campaign("--worker needs a catalog entry name"))?
        .clone();
    let (mut shard, mut store, mut seeds, mut sampled) = (None, None, None, false);
    let (mut gap_mode, mut window_threads, mut profile) = (GapMode::FastForward, None, false);
    let mut telemetry = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| SbpError::campaign(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--shard" => shard = Some(Shard::parse(value("a k/n spec")?)?),
            "--store" => store = Some(PathBuf::from(value("a path")?)),
            "--seeds" => {
                let raw = value("a count")?;
                let parsed: u32 = raw
                    .parse()
                    .map_err(|e| SbpError::campaign(format!("--seeds {raw:?}: {e}")))?;
                seeds = Some(parsed);
            }
            "--sampled" => sampled = true,
            "--gap-mode" => gap_mode = parse_gap_mode(value("a mode name")?)?,
            "--window-threads" => {
                let raw = value("a count")?;
                let parsed: usize = raw
                    .parse()
                    .map_err(|e| SbpError::campaign(format!("--window-threads {raw:?}: {e}")))?;
                if parsed == 0 {
                    return Err(SbpError::campaign("--window-threads must be >= 1"));
                }
                window_threads = Some(parsed);
            }
            "--profile" => profile = true,
            "--telemetry" => telemetry = Some(PathBuf::from(value("a sidecar path")?)),
            other => {
                return Err(SbpError::campaign(format!(
                    "unknown worker argument {other:?}"
                )))
            }
        }
    }
    Ok(WorkerArgs {
        entry,
        shard: shard.ok_or_else(|| SbpError::campaign("--worker needs --shard K/N"))?,
        store: store.ok_or_else(|| SbpError::campaign("--worker needs --store PATH"))?,
        seeds,
        sampled,
        gap_mode,
        window_threads,
        profile,
        telemetry,
    })
}

fn print_usage() {
    println!(
        "usage: campaign [OPTIONS] MANIFEST.json        run the campaign (N workers, merge, report)"
    );
    println!("       campaign --in-process MANIFEST.json   unsharded reference run (same stdout)");
    println!("       campaign --list                   print the spec catalog");
    println!("       campaign report OUT_DIR           summarize a recorded telemetry timeline");
    println!("       campaign trace ENTRY [--dir DIR] [--branches N] [--verify]");
    println!("                                         record the entry's replay trace files");
    println!(
        "                                         (--verify: byte-compare replay vs generator)"
    );
    println!();
    println!("options:");
    println!("  --check               end every entry with its paper-expectation verdict");
    println!("                        table; exit nonzero when out of tolerance");
    println!("  --sampled             run simulation entries with their mode's default");
    println!("                        sampling plan (warm checkpoints + window estimation)");
    println!("  --gap-mode MODE       gap strategy for sampled runs: \"fast-forward\" (skip +");
    println!("                        rewarm, the default) or \"functional\" (state-exact");
    println!("                        executed gaps — the hybrid plans); needs --sampled");
    println!("  --window-threads N    fan each sampled cell's measurement windows out across");
    println!("                        N threads per worker (results are bit-identical)");
    println!("  --profile             print a per-entry wall-time phase breakdown (warm /");
    println!("                        gaps / steady / event / exact measure) to stderr");
    println!("  --stall-timeout SECS  kill + retry a worker whose shard store stops");
    println!("                        growing for SECS (must exceed the slowest job)");
    println!("  --telemetry           record structured spans/counters/gauges per worker and");
    println!("                        merge them into OUT_DIR/telemetry.jsonl (observation-");
    println!("                        only: reports and stores are byte-identical either way)");
    println!("  --trace-out FILE      also export the merged timeline as Chrome trace_event");
    println!("                        JSON for chrome://tracing (implies --telemetry)");
    println!();
    println!(
        "manifest keys: entries (required), workers, scale, seeds, out_dir, retries, sampling, \
         gap_mode, window_threads, telemetry"
    );
}
