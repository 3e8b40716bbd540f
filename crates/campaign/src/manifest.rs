//! The campaign manifest: which catalog entries to run, at what scale,
//! across how many worker processes.
//!
//! A manifest is a single JSON object parsed with the sweep store's
//! self-contained [`sbp_sweep::json`] reader (the workspace builds
//! offline — no external JSON dependency exists):
//!
//! ```json
//! {
//!   "entries": ["fig01", "fig07", "tab01_btb"],
//!   "workers": 4,
//!   "scale": 0.5,
//!   "seeds": 5,
//!   "out_dir": "stores",
//!   "retries": 1,
//!   "sampling": false
//! }
//! ```
//!
//! Only `entries` is required. Unknown keys are rejected rather than
//! ignored — a typo'd `worker` silently running single-process would be
//! the quiet failure this workspace's parsers exist to prevent.

use std::path::{Path, PathBuf};

use sbp_sim::GapMode;
use sbp_sweep::json;
use sbp_sweep::SweepSpec;
use sbp_types::SbpError;

use crate::catalog::{Catalog, CatalogEntry};

/// Parses a gap-mode name as it appears in manifests and on the CLI.
///
/// # Errors
///
/// Returns a campaign error naming the accepted spellings.
pub fn parse_gap_mode(raw: &str) -> Result<GapMode, SbpError> {
    match raw {
        "fast-forward" => Ok(GapMode::FastForward),
        "functional" => Ok(GapMode::Functional),
        other => Err(SbpError::campaign(format!(
            "unknown gap mode {other:?} (expected \"fast-forward\" or \"functional\")"
        ))),
    }
}

/// A parsed campaign manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Catalog entry names to run, manifest order.
    pub entries: Vec<String>,
    /// Worker subprocesses per entry (≥ 1).
    pub workers: usize,
    /// Optional seed-replica override applied to every entry's spec.
    pub seeds: Option<u32>,
    /// Optional `SBP_SCALE` the whole campaign (coordinator and workers)
    /// runs under; `None` inherits the environment.
    pub scale: Option<f64>,
    /// Directory holding the shard stores and merged canonical stores.
    pub out_dir: PathBuf,
    /// How many times a crashed worker's shard is retried before the
    /// campaign gives up (the shard store stays resumable either way).
    pub retries: u32,
    /// Run every simulation entry with its mode's default
    /// [`sbp_sim::SamplingPlan`] (warm-checkpoint + stratified-window
    /// estimation) instead of exact full-budget measurement. Attack
    /// entries are unaffected, and entries whose catalog spec already
    /// bakes a sampling plan (the replay twins) keep their own plan. Sampled and exact results live under
    /// different store fingerprints, so flipping this never corrupts an
    /// existing store.
    pub sampling: bool,
    /// Gap strategy for sampled runs (`"gap_mode"`, only meaningful with
    /// `sampling`): fast-forward selects the classic skip-and-rewarm
    /// default plans, functional the hybrid plans with state-exact
    /// executed gaps. The two live under different store fingerprints.
    pub gap_mode: GapMode,
    /// Intra-worker window-parallelism width (`"window_threads"`): with
    /// `n > 1`, each sampled cell's measurement windows fan out across
    /// `n` threads per worker. Results are bit-identical at any width;
    /// `None` leaves the process's width (serial unless set).
    pub window_threads: Option<usize>,
    /// Record a structured telemetry timeline (`"telemetry"`): workers
    /// write sidecar `<entry>.telemetry.shard<k>of<n>.jsonl` streams and
    /// the coordinator merges them into `<out_dir>/telemetry.jsonl`.
    /// Observation-only: reports, stores and verdicts are byte-identical
    /// with or without it. Also switched on by `--telemetry` or
    /// `--trace-out`.
    pub telemetry: bool,
}

const KNOWN_KEYS: [&str; 10] = [
    "entries",
    "workers",
    "seeds",
    "scale",
    "out_dir",
    "retries",
    "sampling",
    "gap_mode",
    "window_threads",
    "telemetry",
];

impl Manifest {
    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a campaign error naming the offending field for malformed
    /// JSON, unknown keys, missing/empty `entries`, or out-of-range
    /// values.
    pub fn parse(text: &str) -> Result<Self, SbpError> {
        let bad = |e: String| SbpError::campaign(format!("manifest: {e}"));
        let value = json::parse(text).map_err(bad)?;
        let obj = value
            .as_object()
            .ok_or_else(|| SbpError::campaign("manifest: not a JSON object"))?;
        let mut seen = std::collections::BTreeSet::new();
        for (key, _) in obj {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                return Err(SbpError::campaign(format!(
                    "manifest: unknown key {key:?} (known: {})",
                    KNOWN_KEYS.join(", ")
                )));
            }
            if !seen.insert(key.as_str()) {
                return Err(SbpError::campaign(format!(
                    "manifest: duplicate key {key:?}"
                )));
            }
        }
        let entries = json::get(obj, "entries")
            .map_err(bad)?
            .as_array()
            .ok_or_else(|| SbpError::campaign("manifest: \"entries\" is not an array"))?
            .iter()
            .map(|v| match v {
                json::Value::Str(s) => Ok(s.clone()),
                other => Err(SbpError::campaign(format!(
                    "manifest: entry {other:?} is not a string"
                ))),
            })
            .collect::<Result<Vec<String>, SbpError>>()?;
        if entries.is_empty() {
            return Err(SbpError::campaign("manifest: \"entries\" is empty"));
        }
        let workers = json::opt_u64(obj, "workers").map_err(bad)?.unwrap_or(1);
        if workers == 0 {
            return Err(SbpError::campaign("manifest: \"workers\" must be >= 1"));
        }
        let workers = usize::try_from(workers).map_err(|_| {
            SbpError::campaign(format!("manifest: \"workers\" {workers} is out of range"))
        })?;
        let seeds = match json::opt_u64(obj, "seeds").map_err(bad)? {
            None => None,
            Some(0) => return Err(SbpError::campaign("manifest: \"seeds\" must be >= 1")),
            Some(s) => Some(u32::try_from(s).map_err(|_| {
                SbpError::campaign(format!("manifest: \"seeds\" {s} is out of range"))
            })?),
        };
        let scale = json::opt_f64(obj, "scale").map_err(bad)?;
        if scale.is_some_and(|s| !s.is_finite() || s <= 0.0) {
            return Err(SbpError::campaign("manifest: \"scale\" must be > 0"));
        }
        let out_dir = PathBuf::from(
            json::opt_str(obj, "out_dir")
                .map_err(bad)?
                .unwrap_or("stores"),
        );
        let retries = match json::opt_u64(obj, "retries").map_err(bad)? {
            None => 1,
            Some(r) => u32::try_from(r).map_err(|_| {
                SbpError::campaign(format!("manifest: \"retries\" {r} is out of range"))
            })?,
        };
        let sampling = json::opt_bool(obj, "sampling")
            .map_err(bad)?
            .unwrap_or(false);
        let gap_mode = match json::opt_str(obj, "gap_mode").map_err(bad)? {
            None => GapMode::FastForward,
            Some(raw) => {
                if !sampling {
                    return Err(SbpError::campaign(
                        "manifest: \"gap_mode\" needs \"sampling\": true",
                    ));
                }
                parse_gap_mode(raw).map_err(|e| SbpError::campaign(format!("manifest: {e}")))?
            }
        };
        let window_threads = match json::opt_u64(obj, "window_threads").map_err(bad)? {
            None => None,
            Some(0) => {
                return Err(SbpError::campaign(
                    "manifest: \"window_threads\" must be >= 1",
                ))
            }
            Some(n) => Some(usize::try_from(n).map_err(|_| {
                SbpError::campaign(format!("manifest: \"window_threads\" {n} is out of range"))
            })?),
        };
        let telemetry = json::opt_bool(obj, "telemetry")
            .map_err(bad)?
            .unwrap_or(false);
        Ok(Manifest {
            entries,
            workers,
            seeds,
            scale,
            out_dir,
            retries,
            sampling,
            gap_mode,
            window_threads,
            telemetry,
        })
    }

    /// Loads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a campaign error when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, SbpError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SbpError::campaign(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Resolves every entry against the catalog and materializes its spec
    /// with the manifest's overrides applied — the single source both the
    /// coordinator/worker fan-out and the in-process reference run build
    /// their grids from.
    ///
    /// # Errors
    ///
    /// Returns a campaign error naming the first unregistered entry.
    pub fn specs(&self) -> Result<Vec<(&'static CatalogEntry, SweepSpec)>, SbpError> {
        self.entries
            .iter()
            .map(|name| {
                let entry = Catalog::get(name).ok_or_else(|| {
                    SbpError::campaign(format!(
                        "unknown catalog entry {name:?} (run `campaign --list` for the registry)"
                    ))
                })?;
                let mut spec = entry.spec();
                if let Some(seeds) = self.seeds {
                    spec = spec.with_seeds(seeds);
                }
                // Entries that bake their own plan (the replay twins'
                // phase-clustered schedules) keep it — the knob only
                // fills in a default where the catalog left none.
                if self.sampling && spec.sampling.is_none() {
                    spec = spec.with_default_sampling_mode(self.gap_mode);
                }
                Ok((entry, spec))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_parses() {
        let m = Manifest::parse(
            r#"{"entries":["fig01","tab01_btb"],"workers":4,"scale":0.5,
                "seeds":5,"out_dir":"/tmp/c","retries":2,"sampling":true}"#,
        )
        .expect("parse");
        assert_eq!(m.entries, vec!["fig01", "tab01_btb"]);
        assert_eq!(m.workers, 4);
        assert_eq!(m.seeds, Some(5));
        assert_eq!(m.scale, Some(0.5));
        assert_eq!(m.out_dir, PathBuf::from("/tmp/c"));
        assert_eq!(m.retries, 2);
        assert!(m.sampling);
        assert_eq!(m.gap_mode, GapMode::FastForward);
        assert_eq!(m.window_threads, None);
        assert!(!m.telemetry, "telemetry defaults off");
    }

    #[test]
    fn telemetry_key_parses_and_validates() {
        let m = Manifest::parse(r#"{"entries":["fig01"],"telemetry":true}"#).expect("parse");
        assert!(m.telemetry);
        assert!(
            Manifest::parse(r#"{"entries":["fig01"],"telemetry":"on"}"#).is_err(),
            "non-boolean telemetry is rejected"
        );
    }

    #[test]
    fn gap_mode_and_window_threads_parse_and_validate() {
        let m = Manifest::parse(
            r#"{"entries":["fig01"],"sampling":true,"gap_mode":"functional",
                "window_threads":3}"#,
        )
        .expect("parse");
        assert_eq!(m.gap_mode, GapMode::Functional);
        assert_eq!(m.window_threads, Some(3));
        let ff =
            Manifest::parse(r#"{"entries":["fig01"],"sampling":true,"gap_mode":"fast-forward"}"#)
                .expect("parse");
        assert_eq!(ff.gap_mode, GapMode::FastForward);
        assert!(
            Manifest::parse(r#"{"entries":["fig01"],"sampling":true,"gap_mode":"warp"}"#).is_err(),
            "unknown gap mode rejected"
        );
        assert!(
            Manifest::parse(r#"{"entries":["fig01"],"gap_mode":"functional"}"#).is_err(),
            "gap_mode without sampling rejected"
        );
        assert!(
            Manifest::parse(r#"{"entries":["fig01"],"window_threads":0}"#).is_err(),
            "zero window_threads rejected"
        );
    }

    #[test]
    fn defaults_apply_when_only_entries_is_given() {
        let m = Manifest::parse(r#"{"entries":["smoke_single"]}"#).expect("parse");
        assert_eq!(m.workers, 1);
        assert_eq!(m.seeds, None);
        assert_eq!(m.scale, None);
        assert_eq!(m.out_dir, PathBuf::from("stores"));
        assert_eq!(m.retries, 1);
        assert!(!m.sampling);
    }

    #[test]
    fn malformed_manifests_fail_loudly() {
        assert!(Manifest::parse("not json").is_err());
        assert!(Manifest::parse("[]").is_err(), "not an object");
        assert!(Manifest::parse("{}").is_err(), "entries missing");
        assert!(Manifest::parse(r#"{"entries":[]}"#).is_err(), "empty");
        assert!(Manifest::parse(r#"{"entries":"fig01"}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":[1]}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"workers":0}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"seeds":0}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"scale":0}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"scale":-1}"#).is_err());
        assert!(
            Manifest::parse(r#"{"entries":["fig01"],"sampling":"yes"}"#).is_err(),
            "non-boolean sampling is rejected"
        );
        let unknown = Manifest::parse(r#"{"entries":["fig01"],"worker":2}"#);
        assert!(
            unknown
                .as_ref()
                .is_err_and(|e| e.to_string().contains("worker")),
            "typo'd keys are rejected, got {unknown:?}"
        );
        // Out-of-range values must error, not silently truncate (a u64
        // that wraps to 0 would defeat the >= 1 guards above).
        assert!(Manifest::parse(r#"{"entries":["fig01"],"seeds":4294967296}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"seeds":4294967297}"#).is_err());
        assert!(Manifest::parse(r#"{"entries":["fig01"],"retries":4294967296}"#).is_err());
        // Duplicate keys are ambiguous: fail loudly instead of silently
        // taking the first occurrence.
        let dup = Manifest::parse(r#"{"entries":["fig01"],"workers":1,"workers":8}"#);
        assert!(
            dup.as_ref()
                .is_err_and(|e| e.to_string().contains("duplicate")),
            "duplicate keys are rejected, got {dup:?}"
        );
    }

    #[test]
    fn specs_resolve_against_the_catalog_with_overrides() {
        let m = Manifest::parse(r#"{"entries":["fig01","smoke_attack"],"seeds":7}"#).expect("ok");
        let specs = m.specs().expect("resolve");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].0.name, "fig01");
        assert_eq!(specs[0].1.seeds, 7, "seed override applied");
        assert_eq!(specs[1].1.seeds, 7);
        let bad = Manifest::parse(r#"{"entries":["fig99"]}"#).expect("parses");
        assert!(bad.specs().is_err(), "unknown entry rejected at resolve");
    }

    #[test]
    fn sampling_attaches_default_plans_to_sim_entries_only() {
        let m = Manifest::parse(r#"{"entries":["fig01","fig10","smoke_attack"],"sampling":true}"#)
            .expect("parse");
        let specs = m.specs().expect("resolve");
        assert_eq!(
            specs[0].1.sampling,
            Some(sbp_sim::SamplingPlan::single_default()),
            "single-core entries get the single-core plan"
        );
        assert_eq!(
            specs[1].1.sampling,
            Some(sbp_sim::SamplingPlan::smt_default()),
            "SMT entries get the SMT plan"
        );
        assert!(specs[2].1.is_attack(), "attack entries pass through");
        let exact = Manifest::parse(r#"{"entries":["fig01"]}"#).expect("parse");
        assert_eq!(exact.specs().expect("resolve")[0].1.sampling, None);
    }

    #[test]
    fn sampling_never_clobbers_a_baked_in_plan() {
        // fig08_replay carries its own phase-clustered plan; the
        // campaign-wide sampling knob must not replace it with the
        // (phase-free) mode default.
        let m = Manifest::parse(r#"{"entries":["fig08_replay"],"sampling":true}"#).expect("parse");
        let specs = m.specs().expect("resolve");
        let plan = specs[0].1.sampling.expect("plan survives");
        assert!(plan.phase_windows > 0, "baked-in phase plan kept");
    }

    #[test]
    fn functional_gap_mode_attaches_hybrid_plans() {
        let m = Manifest::parse(
            r#"{"entries":["fig01","fig10"],"sampling":true,"gap_mode":"functional"}"#,
        )
        .expect("parse");
        let specs = m.specs().expect("resolve");
        assert_eq!(
            specs[0].1.sampling,
            Some(sbp_sim::SamplingPlan::single_hybrid()),
            "single-core entries get the hybrid single-core plan"
        );
        assert_eq!(
            specs[1].1.sampling,
            Some(sbp_sim::SamplingPlan::smt_hybrid()),
            "SMT entries get the hybrid SMT plan"
        );
    }
}
