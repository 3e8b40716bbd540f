//! `campaign report <out_dir>` — the offline summary over a merged
//! telemetry timeline.
//!
//! Reads `<out_dir>/telemetry.jsonl` (written by a `--telemetry`
//! campaign run), validates it, and prints one aligned row per catalog
//! entry: job count, wall time, the per-phase breakdown (warm / gap /
//! steady / event / measure — the same buckets `--profile` prints live,
//! recovered here from the recorded spans), checkpoint-cache hit rates
//! and the worker imbalance ratio, followed by the slowest measurement
//! windows across the whole campaign. Everything it prints is derived
//! from the timeline file alone, so a report can be (re)generated long
//! after the run.

use std::collections::HashMap;
use std::path::Path;

use sbp_telemetry::{Event, Kind};
use sbp_types::SbpError;

/// The wall-clock phase spans recovered from the timeline, in the same
/// order `--profile` prints them.
const PHASES: [&str; 5] = ["warm", "gap", "steady_window", "event_window", "measure"];

/// Per-entry aggregates accumulated from the timeline.
#[derive(Default)]
struct EntryStats {
    jobs: usize,
    /// Entry control-span duration (seconds), when the span closed.
    wall_secs: Option<f64>,
    /// Timestamp range fallback for crashed/unfinished entries.
    ts_min: Option<u64>,
    ts_max: Option<u64>,
    /// Wall seconds per phase span name.
    phase_secs: HashMap<&'static str, f64>,
    warm_hits: u64,
    warm_misses: u64,
    window_hits: u64,
    window_misses: u64,
    /// Summed job-span wall seconds per shard lane.
    shard_secs: HashMap<u32, f64>,
}

impl EntryStats {
    fn wall(&self) -> Option<f64> {
        self.wall_secs.or_else(|| match (self.ts_min, self.ts_max) {
            (Some(lo), Some(hi)) => Some((hi - lo) as f64 / 1e6),
            _ => None,
        })
    }

    /// Max-over-mean of the per-shard job seconds — 1.00x is a perfectly
    /// balanced fan-out. `None` below two active shards.
    fn imbalance(&self) -> Option<f64> {
        if self.shard_secs.len() < 2 {
            return None;
        }
        let max = self.shard_secs.values().cloned().fold(0.0, f64::max);
        let mean = self.shard_secs.values().sum::<f64>() / self.shard_secs.len() as f64;
        if mean > 0.0 {
            Some(max / mean)
        } else {
            None
        }
    }
}

/// The `--profile` line for `entry`: wall seconds per phase, summed
/// from the advisory phase spans the simulators emit into the telemetry
/// sink (warm / gaps / steady windows / event windows / exact measure).
pub fn profile_line(events: &[Event], entry: &str) -> String {
    let secs = PHASES.map(|phase| {
        let ends = events.iter().filter(|e| {
            e.kind == Kind::End && e.job.is_some() && e.entry == entry && e.name == phase
        });
        ends.fold(0.0, |total, e| total + e.value / 1e6)
    });
    let [warm, gap, steady, event, measure] = secs;
    format!(
        "warm {warm:.2}s, gaps {gap:.2}s, steady windows {steady:.2}s, event windows {event:.2}s, \
         exact measure {measure:.2}s (phases total {:.2}s)",
        warm + gap + steady + event + measure,
    )
}

/// Hit rate as `" 87%"`, `"   -"` when the cache saw no lookups.
fn rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        return format!("{:>4}", "-");
    }
    format!("{:>3.0}%", 100.0 * hits as f64 / total as f64)
}

/// Runs the report over `<out_dir>/telemetry.jsonl` and prints it to
/// stdout.
///
/// # Errors
///
/// Returns a campaign error when the timeline file is missing or
/// unreadable (pointing at `--telemetry`), or when it fails validation.
pub fn run_report(out_dir: &Path) -> Result<(), SbpError> {
    let path = out_dir.join("telemetry.jsonl");
    let events = sbp_telemetry::read_events(&path).map_err(|e| {
        SbpError::campaign(format!(
            "{e}; run the campaign with --telemetry (or \"telemetry\": true \
             in the manifest) to record a timeline first"
        ))
    })?;
    let stats = sbp_telemetry::validate(&events)
        .map_err(|e| SbpError::campaign(format!("{}: invalid timeline: {e}", path.display())))?;
    println!(
        "telemetry: {} events validated ({} spans, {} counters, {} gauges, {} marks)",
        stats.events, stats.spans, stats.counters, stats.gauges, stats.marks
    );
    println!();

    // First-seen entry order — the merge wrote entries in manifest order.
    let mut order: Vec<String> = Vec::new();
    let mut per_entry: HashMap<String, EntryStats> = HashMap::new();
    // (duration secs, span name, entry, shard, job) for the slow-window list.
    let mut windows: Vec<(f64, String, String, u32, u64)> = Vec::new();
    for e in &events {
        if e.entry.is_empty() {
            continue;
        }
        if !per_entry.contains_key(&e.entry) {
            order.push(e.entry.clone());
        }
        let s = per_entry.entry(e.entry.clone()).or_default();
        s.ts_min = Some(s.ts_min.map_or(e.ts_us, |t| t.min(e.ts_us)));
        s.ts_max = Some(s.ts_max.map_or(e.ts_us, |t| t.max(e.ts_us)));
        match (e.kind, e.job) {
            (Kind::Begin, Some(_)) if e.name == "job" => s.jobs += 1,
            (Kind::End, Some(job)) => {
                let secs = e.value / 1e6;
                if e.name == "job" {
                    *s.shard_secs.entry(e.shard).or_default() += secs;
                } else if let Some(phase) = PHASES.iter().find(|p| **p == e.name) {
                    *s.phase_secs.entry(phase).or_default() += secs;
                    if e.name.ends_with("_window") {
                        windows.push((secs, e.name.clone(), e.entry.clone(), e.shard, job));
                    }
                }
            }
            (Kind::End, None) if e.name == "entry" => s.wall_secs = Some(e.value / 1e6),
            (Kind::Counter, _) => match e.name.as_str() {
                "warm_cache_hit" => s.warm_hits += e.value as u64,
                "warm_cache_miss" => s.warm_misses += e.value as u64,
                "window_cache_hit" => s.window_hits += e.value as u64,
                "window_cache_miss" => s.window_misses += e.value as u64,
                _ => {}
            },
            _ => {}
        }
    }

    println!(
        "{:<18} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5} {:>7}",
        "entry",
        "jobs",
        "wall s",
        "warm s",
        "gap s",
        "steady s",
        "event s",
        "meas s",
        "warm$",
        "win$",
        "imbal",
    );
    for name in &order {
        let s = &per_entry[name];
        let wall = s
            .wall()
            .map_or_else(|| format!("{:>8}", "-"), |w| format!("{w:>8.2}"));
        let phase = |p: &str| {
            s.phase_secs
                .get(p)
                .map_or_else(|| format!("{:>8}", "-"), |v| format!("{v:>8.2}"))
        };
        let imbal = s
            .imbalance()
            .map_or_else(|| format!("{:>7}", "-"), |r| format!("{r:>6.2}x"));
        println!(
            "{:<18} {:>5} {wall} {} {} {} {} {} {} {} {imbal}",
            name,
            s.jobs,
            phase("warm"),
            phase("gap"),
            phase("steady_window"),
            phase("event_window"),
            phase("measure"),
            rate(s.warm_hits, s.warm_misses),
            rate(s.window_hits, s.window_misses),
        );
    }

    if !windows.is_empty() {
        windows.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!();
        println!("slowest measurement windows:");
        for (secs, name, entry, shard, job) in windows.iter().take(5) {
            println!(
                "  {:>9.1} ms  {name:<13} entry {entry} shard {shard} job {job}",
                secs * 1e3
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_demands_a_timeline() {
        let err = run_report(Path::new("/no/such/out_dir")).expect_err("missing timeline");
        assert!(err.to_string().contains("--telemetry"), "{err}");
    }

    #[test]
    fn rates_handle_empty_caches() {
        assert_eq!(rate(0, 0).trim(), "-");
        assert_eq!(rate(3, 1).trim(), "75%");
    }

    #[test]
    fn report_summarizes_a_synthetic_timeline() {
        let dir = std::env::temp_dir().join(format!("sbp_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mk = |job, seq, kind, id, name: &str, value: f64| Event {
            entry: "fig01".into(),
            shard: 1,
            job,
            seq,
            id,
            det: false,
            ts_us: 10 * seq as u64,
            kind,
            name: name.into(),
            value,
            detail: String::new(),
        };
        let id = sbp_telemetry::span_id(1, Some(0), 0);
        let events = vec![
            mk(Some(0), 0, Kind::Begin, id, "job", 0.0),
            mk(Some(0), 1, Kind::Counter, 0, "warm_cache_hit", 1.0),
            mk(Some(0), 2, Kind::End, id, "job", 2_000_000.0),
        ];
        sbp_telemetry::write_events(&dir.join("telemetry.jsonl"), &events).expect("write");
        run_report(&dir).expect("report runs");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
