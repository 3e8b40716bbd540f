//! The persistent sweep store: completed job results as JSON-lines on
//! disk, keyed by a stable cell fingerprint.
//!
//! Each line holds one executed job's raw outcome together with the
//! fingerprint of the cell that produced it. A fingerprint hashes the
//! job's *identity* — the full payload (mechanism/predictor/workloads/
//! budget or attack/trials), the derived seed, and for simulation jobs
//! the `SBP_SCALE` work multiplier (attack jobs never read the scale) —
//! so a re-run of the same spec recognizes its completed cells and
//! skips them (resume), shard runs of one spec write compatible stores,
//! and a changed axis value, seed or scale never aliases a stale
//! result.
//!
//! Results are appended and flushed as each job finishes, so a killed run
//! loses at most the jobs in flight. Lines are parsed back with the
//! self-contained [`crate::json`] reader (the workspace builds offline; no
//! external JSON dependency exists), and unknown lines are rejected rather
//! than ignored — a corrupt store should fail loudly, not resume quietly.
//! The one recoverable wound is a final line without its newline (a
//! crash mid-append): its record is kept if it parses and dropped with a
//! warning otherwise, and the file is healed by a rewrite either way.
//! Stores only grow; [`SweepStore::compact`] is the garbage collector,
//! dropping lines whose fingerprint no known spec produces any more.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};

use sbp_core::Mechanism;
use sbp_types::report::stats_json;
use sbp_types::{PredictionStats, SbpError};

use crate::exec::{RawResult, RawRun};
use crate::json;
use crate::plan::{Job, JobGroup, SweepPlan};
use crate::spec::SweepSpec;

/// FNV-1a 64-bit hash (stable across platforms and processes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of one planned job: a hash of the job payload, its
/// derived seed and the process's `SBP_SCALE` multiplier.
///
/// The canonical identity string spells out every input that changes the
/// cell's result; anything display-only (the spec name, case ids) is
/// deliberately excluded so renames don't invalidate a store.
pub fn job_fingerprint(spec: &SweepSpec, plan: &SweepPlan, job: &Job) -> u64 {
    let identity = match job {
        Job::Sim { group, mechanism } => {
            return sim_fingerprint(spec, &plan.groups[*group], *mechanism, Omit::Nothing)
        }
        // No scale term: attack campaigns never read SBP_SCALE — their
        // work is fully described by the explicit trial count — and
        // including it would invalidate stores across scale changes for
        // results that are bit-identical.
        Job::Attack(a) => format!(
            "attack|attack={}|mechanism={:?}|predictor={}|smt={}|trials={}|seed={}",
            a.attack.label(),
            a.mechanism,
            a.predictor.label(),
            a.smt,
            a.trials,
            a.seed,
        ),
    };
    fnv1a64(identity.as_bytes())
}

/// Axes of a simulation cell's identity that an executor cache key
/// leaves out, because the cached value does not depend on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Omit {
    /// None: the store fingerprint.
    Nothing,
    /// Warm checkpoints and window measurements.
    Interval,
    /// Phase schedules, which depend only on the trace they cluster.
    IntervalPredictorMechanism,
}

/// Fingerprint of one simulation cell with the `omit` axes written as
/// `*`: one identity string for the store key and every cache key.
pub(crate) fn sim_fingerprint(
    spec: &SweepSpec,
    group: &JobGroup,
    mechanism: Mechanism,
    omit: Omit,
) -> u64 {
    let case = &spec.cases[group.case_index];
    let interval = match omit {
        Omit::Nothing => group.interval.label(),
        _ => "*",
    };
    let (predictor, mechanism) = match omit {
        Omit::IntervalPredictorMechanism => ("*", "*".to_string()),
        _ => (group.predictor.label(), format!("{mechanism:?}")),
    };
    // The full core config, not just its name: every timing parameter
    // and the BTB geometry change the cell's result, and `with_core`
    // accepts arbitrary field overrides.
    //
    // The sampling term keeps sampled and exact cells apart: an exact run
    // contributes no term at all (so existing exact stores stay valid),
    // while every distinct window layout fingerprints separately — a
    // sampled estimate must never resume as, or be resumed by, an exact
    // measurement.
    let sampling = match &spec.sampling {
        None => String::new(),
        Some(plan) => format!("|sampling={}", plan.fingerprint()),
    };
    let identity = format!(
        "sim|core={:?}|mode={}|predictor={predictor}|interval={interval}|workloads={}|\
         budget={}/{}|mechanism={mechanism}|seed={}|scale={}{sampling}",
        spec.core,
        spec.mode.label(),
        case.workloads.join("+"),
        spec.budget.warmup,
        spec.budget.measure,
        group.seed,
        sbp_sim::scale(),
    );
    fnv1a64(identity.as_bytes())
}

/// Fingerprints of every job in plan order.
pub fn plan_fingerprints(spec: &SweepSpec, plan: &SweepPlan) -> Vec<u64> {
    plan.jobs
        .iter()
        .map(|j| job_fingerprint(spec, plan, j))
        .collect()
}

/// A JSONL-backed store of completed job results, keyed by fingerprint.
#[derive(Debug)]
pub struct SweepStore {
    path: PathBuf,
    map: HashMap<u64, RawResult>,
    /// Fingerprints in first-sighting file order, so a rewrite (compaction)
    /// preserves the backing file's line order byte-for-byte.
    order: Vec<u64>,
}

impl SweepStore {
    /// Opens (and loads) the store at `path`; a missing file is an empty
    /// store, created on the first append.
    ///
    /// A final line lacking its trailing newline is the expected wreckage
    /// of a run killed mid-append. If it parses, its record is kept; if
    /// not, it is skipped with a warning (the in-flight job re-executes on
    /// resume). Either way the file is healed by a canonical rewrite, so
    /// the next append starts on a clean line boundary instead of gluing
    /// onto the tail. Every *interior* malformed line fails loudly, as
    /// does a duplicated fingerprint whose payload disagrees with the
    /// first sighting (byte-identical duplicates are collapsed silently;
    /// shard merges legitimately produce them).
    ///
    /// # Errors
    ///
    /// Returns a store error when the file exists but cannot be read, an
    /// interior line cannot be parsed, or a duplicate fingerprint carries
    /// a conflicting result.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SbpError> {
        let path = path.into();
        let mut map: HashMap<u64, RawResult> = HashMap::new();
        let mut order = Vec::new();
        let mut heal = false;
        match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(SbpError::store(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
            Ok(text) => {
                let lines: Vec<&str> = text.lines().collect();
                // Any non-empty file without a final newline was cut off
                // mid-append and needs a rewrite, even when the tail
                // happens to parse (an append would glue onto it).
                heal = !text.is_empty() && !text.ends_with('\n');
                for (n, line) in lines.iter().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let (fp, result) = match parse_line(line) {
                        Ok(parsed) => parsed,
                        Err(e) if n + 1 == lines.len() && heal => {
                            eprintln!(
                                "warning: {} line {}: {e} — dropping truncated final \
                                 line (crash mid-append); the cell will re-execute",
                                path.display(),
                                n + 1,
                            );
                            break;
                        }
                        Err(e) => {
                            return Err(SbpError::store(format!(
                                "{} line {}: {e}",
                                path.display(),
                                n + 1
                            )))
                        }
                    };
                    match map.insert(fp, result) {
                        None => order.push(fp),
                        Some(previous) if previous == map[&fp] => {}
                        Some(_) => {
                            return Err(SbpError::store(format!(
                                "{} line {}: duplicate fingerprint {fp:016x} with a \
                                 conflicting result — the store is corrupt",
                                path.display(),
                                n + 1,
                            )))
                        }
                    }
                }
            }
        }
        let store = SweepStore { path, map, order };
        if heal {
            let entries: Vec<(u64, RawResult)> = store
                .order
                .iter()
                .map(|fp| (*fp, store.map[fp].clone()))
                .collect();
            Self::write_canonical(&store.path, entries)?;
        }
        Ok(store)
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The stored result for a fingerprint, if any.
    pub fn get(&self, fp: u64) -> Option<&RawResult> {
        self.map.get(&fp)
    }

    /// Inserts one result and appends its line to the backing file,
    /// flushed before returning — a killed run keeps everything appended
    /// so far.
    ///
    /// # Errors
    ///
    /// Returns a store error when the file cannot be written.
    pub fn append(&mut self, fp: u64, result: &RawResult) -> Result<(), SbpError> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| SbpError::store(format!("cannot open {}: {e}", self.path.display())))?;
        file.write_all(line_of(fp, result).as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| SbpError::store(format!("cannot write {}: {e}", self.path.display())))?;
        if self.map.insert(fp, result.clone()).is_none() {
            self.order.push(fp);
        }
        Ok(())
    }

    /// Consumes the store, returning the fingerprint → result map.
    pub fn into_map(self) -> HashMap<u64, RawResult> {
        self.map
    }

    /// Garbage-collects the store: drops every stored result whose
    /// fingerprint is not in `known` (the union of fingerprints some set
    /// of live specs still plans) and rewrites the backing file in its
    /// original line order. Returns the number of results dropped; a
    /// collection that drops nothing leaves the file bytes untouched.
    ///
    /// # Errors
    ///
    /// Returns a store error when the rewritten file cannot be written.
    pub fn compact(&mut self, known: &HashSet<u64>) -> Result<usize, SbpError> {
        let before = self.order.len();
        self.order.retain(|fp| known.contains(fp));
        let dropped = before - self.order.len();
        if dropped == 0 {
            return Ok(0);
        }
        self.map.retain(|fp, _| known.contains(fp));
        let entries: Vec<(u64, RawResult)> = self
            .order
            .iter()
            .map(|fp| (*fp, self.map[fp].clone()))
            .collect();
        Self::write_canonical(&self.path, entries)?;
        Ok(dropped)
    }

    /// Writes a store file holding `entries` in the given (canonical)
    /// order, replacing any existing file — the merge entry point uses
    /// plan order so merged stores are deterministic.
    ///
    /// # Errors
    ///
    /// Returns a store error when the file cannot be written.
    pub fn write_canonical(
        path: &Path,
        entries: impl IntoIterator<Item = (u64, RawResult)>,
    ) -> Result<(), SbpError> {
        let mut text = String::new();
        for (fp, result) in entries {
            text.push_str(&line_of(fp, &result));
        }
        std::fs::write(path, text)
            .map_err(|e| SbpError::store(format!("cannot write {}: {e}", path.display())))
    }
}

/// Serializes one (fingerprint, result) pair as a store JSONL line.
fn line_of(fp: u64, result: &RawResult) -> String {
    match result {
        RawResult::Sim(run) => {
            let per_thread: Vec<String> = run.per_thread.iter().map(stats_json).collect();
            // The stderr field appears only on sampled results, so exact
            // stores keep their historical bytes.
            let stderr = match run.stderr {
                None => String::new(),
                Some(se) => format!(",\"stderr\":{}", fmt_f64(se)),
            };
            format!(
                "{{\"fp\":\"{fp:016x}\",\"kind\":\"sim\",\"cycles\":{},\"stats\":{},\
                 \"per_thread\":[{}]{stderr}}}\n",
                fmt_f64(run.cycles),
                stats_json(&run.stats),
                per_thread.join(","),
            )
        }
        RawResult::Attack(out) => format!(
            "{{\"fp\":\"{fp:016x}\",\"kind\":\"attack\",\"success_rate\":{},\
             \"chance\":{},\"trials\":{}}}\n",
            fmt_f64(out.success_rate),
            fmt_f64(out.chance),
            out.trials,
        ),
    }
}

/// Shortest-roundtrip float formatting (Rust's `{}` for `f64` guarantees
/// exact value recovery on parse — the property merged-store reports rely
/// on to be byte-identical with unsharded runs).
fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

fn parse_line(line: &str) -> Result<(u64, RawResult), String> {
    let value = json::parse(line)?;
    let obj = value.as_object().ok_or("line is not a JSON object")?;
    let fp_hex = json::get_str(obj, "fp")?;
    let fp = u64::from_str_radix(fp_hex, 16).map_err(|e| format!("bad fingerprint: {e}"))?;
    let result = match json::get_str(obj, "kind")? {
        "sim" => {
            let stats = stats_from(json::get(obj, "stats")?)?;
            let per_thread = json::get(obj, "per_thread")?
                .as_array()
                .ok_or("per_thread is not an array")?
                .iter()
                .map(stats_from)
                .collect::<Result<Vec<_>, _>>()?;
            RawResult::Sim(RawRun {
                cycles: json::get_f64(obj, "cycles")?,
                stats,
                per_thread,
                stderr: json::opt_f64(obj, "stderr")?,
            })
        }
        "attack" => RawResult::Attack(sbp_attack::AttackOutcome {
            success_rate: json::get_f64(obj, "success_rate")?,
            chance: json::get_f64(obj, "chance")?,
            trials: json::get_u64(obj, "trials")?,
        }),
        other => return Err(format!("unknown result kind {other:?}")),
    };
    Ok((fp, result))
}

fn stats_from(value: &json::Value) -> Result<PredictionStats, String> {
    let obj = value.as_object().ok_or("stats is not a JSON object")?;
    Ok(PredictionStats {
        instructions: json::get_u64(obj, "instructions")?,
        cond_branches: json::get_u64(obj, "cond_branches")?,
        cond_mispredicts: json::get_u64(obj, "cond_mispredicts")?,
        btb_lookups: json::get_u64(obj, "btb_lookups")?,
        btb_misses: json::get_u64(obj, "btb_misses")?,
        btb_wrong_target: json::get_u64(obj, "btb_wrong_target")?,
        indirect_branches: json::get_u64(obj, "indirect_branches")?,
        indirect_mispredicts: json::get_u64(obj, "indirect_mispredicts")?,
        returns: json::get_u64(obj, "returns")?,
        ras_mispredicts: json::get_u64(obj, "ras_mispredicts")?,
        context_switches: json::get_u64(obj, "context_switches")?,
        privilege_switches: json::get_u64(obj, "privilege_switches")?,
        cycles: json::get_u64(obj, "cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_attack::AttackOutcome;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sbp_store_test_{}_{name}.jsonl",
            std::process::id()
        ))
    }

    fn sample_sim() -> RawResult {
        let stats = PredictionStats {
            instructions: 123_456,
            cond_mispredicts: 789,
            cycles: 654_321,
            ..Default::default()
        };
        let mut t1 = stats;
        t1.instructions = 23_456;
        RawResult::Sim(RawRun {
            // A value exercising the shortest-roundtrip formatter.
            cycles: 123_456.789_012_345_6,
            stats,
            per_thread: vec![stats, t1],
            stderr: None,
        })
    }

    fn sample_sampled() -> RawResult {
        let RawResult::Sim(mut run) = sample_sim() else {
            unreachable!()
        };
        run.stderr = Some(431.062_5);
        RawResult::Sim(run)
    }

    fn sample_attack() -> RawResult {
        RawResult::Attack(AttackOutcome {
            success_rate: 0.9653333333333334,
            chance: 0.005,
            trials: 1500,
        })
    }

    #[test]
    fn roundtrips_sim_and_attack_results_exactly() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        assert!(store.is_empty());
        store
            .append(0x0123_4567_89ab_cdef, &sample_sim())
            .expect("append");
        store
            .append(0xffff_0000_ffff_0000, &sample_attack())
            .expect("append");
        let reloaded = SweepStore::open(&path).expect("reload");
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(0x0123_4567_89ab_cdef), Some(&sample_sim()));
        assert_eq!(reloaded.get(0xffff_0000_ffff_0000), Some(&sample_attack()));
        assert_eq!(reloaded.get(1), None);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn canonical_write_is_deterministic_and_reloadable() {
        let (a, b) = (tmp("canon_a"), tmp("canon_b"));
        let entries = vec![(7u64, sample_attack()), (9u64, sample_sim())];
        SweepStore::write_canonical(&a, entries.clone()).expect("write a");
        SweepStore::write_canonical(&b, entries).expect("write b");
        assert_eq!(
            std::fs::read(&a).expect("read a"),
            std::fs::read(&b).expect("read b")
        );
        let reloaded = SweepStore::open(&a).expect("reload");
        assert_eq!(reloaded.get(9), Some(&sample_sim()));
        std::fs::remove_file(&a).expect("cleanup");
        std::fs::remove_file(&b).expect("cleanup");
    }

    #[test]
    fn truncated_final_line_is_dropped_and_recoverable() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(1, &sample_sim()).expect("append");
        store.append(2, &sample_attack()).expect("append");
        let intact = std::fs::read_to_string(&path).expect("read");
        // Simulate a crash mid-append: half of a third line, no newline.
        std::fs::write(&path, format!("{intact}{{\"fp\":\"3\",\"kind\":\"at")).expect("write");
        let reloaded = SweepStore::open(&path).expect("truncated tail is recoverable");
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(1), Some(&sample_sim()));
        // The rewrite healed the file: clean bytes, appends work again.
        assert_eq!(std::fs::read_to_string(&path).expect("read"), intact);
        let mut reloaded = reloaded;
        reloaded
            .append(3, &sample_sim())
            .expect("append after heal");
        assert_eq!(SweepStore::open(&path).expect("reopen").len(), 3);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn parseable_tail_without_newline_is_kept_and_healed() {
        let path = tmp("newline_lost");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(1, &sample_sim()).expect("append");
        store.append(2, &sample_attack()).expect("append");
        let intact = std::fs::read_to_string(&path).expect("read");
        // The record's bytes landed but the newline did not: the line
        // parses, yet an append would glue onto it. open() must heal.
        std::fs::write(&path, intact.trim_end_matches('\n')).expect("write");
        let mut reloaded = SweepStore::open(&path).expect("open heals");
        assert_eq!(reloaded.len(), 2, "the complete record is kept");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            intact,
            "the trailing newline is restored"
        );
        reloaded
            .append(3, &sample_sim())
            .expect("append after heal");
        assert_eq!(SweepStore::open(&path).expect("reopen").len(), 3);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn truncated_interior_line_still_fails() {
        let path = tmp("interior");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(1, &sample_sim()).expect("append");
        let intact = std::fs::read_to_string(&path).expect("read");
        // The garbage line is followed by a valid complete line: that is
        // not crash wreckage, it is corruption.
        std::fs::write(&path, format!("{{\"fp\":\"3\",\"kind\":\"at\n{intact}")).expect("write");
        assert!(matches!(
            SweepStore::open(&path),
            Err(SbpError::Store(msg)) if msg.contains("line 1")
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn duplicate_fingerprints_collapse_or_conflict() {
        let path = tmp("dupes");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(9, &sample_attack()).expect("append");
        let line = std::fs::read_to_string(&path).expect("read");
        // A byte-identical duplicate (e.g. from overlapping shard stores
        // concatenated together) is collapsed silently.
        std::fs::write(&path, format!("{line}{line}")).expect("write");
        let reloaded = SweepStore::open(&path).expect("identical duplicate ok");
        assert_eq!(reloaded.len(), 1);
        // The same fingerprint with a different payload is corruption.
        let conflicting = line.replace("\"trials\":1500", "\"trials\":7");
        assert_ne!(line, conflicting, "replacement must hit");
        std::fs::write(&path, format!("{line}{conflicting}")).expect("write");
        assert!(matches!(
            SweepStore::open(&path),
            Err(SbpError::Store(msg)) if msg.contains("conflicting")
        ));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn corrupt_lines_fail_loudly() {
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"fp\":\"zz\"}\n").expect("write");
        assert!(matches!(
            SweepStore::open(&path),
            Err(SbpError::Store(msg)) if msg.contains("line 1")
        ));
        std::fs::write(&path, "{\"fp\":\"10\",\"kind\":\"warp\"}\n").expect("write");
        assert!(SweepStore::open(&path).is_err());
        std::fs::write(&path, "not json\n").expect("write");
        assert!(SweepStore::open(&path).is_err());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn fingerprints_separate_payload_seed_and_identity() {
        use sbp_core::Mechanism;
        let spec = SweepSpec::single("fp")
            .with_cases(vec![crate::spec::CaseSpec::pair("c1", "gcc", "calculix")])
            .with_intervals(vec![sbp_sim::SwitchInterval::M8])
            .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()]);
        let plan = crate::plan::plan(&spec);
        let fps = plan_fingerprints(&spec, &plan);
        let distinct: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len(), "per-job fingerprints distinct");
        // A different master seed re-fingerprints every cell.
        let reseeded = spec.clone().with_master_seed(99);
        let fps2 = plan_fingerprints(&reseeded, &crate::plan::plan(&reseeded));
        assert!(fps.iter().zip(&fps2).all(|(a, b)| a != b));
        // The fingerprint ignores display-only strings: renaming the spec
        // or a case id keeps the store valid.
        let mut renamed = spec.clone();
        renamed.name = "renamed".to_string();
        renamed.cases[0].id = "other-id".to_string();
        assert_eq!(
            fps,
            plan_fingerprints(&renamed, &crate::plan::plan(&renamed))
        );
    }

    #[test]
    fn stderr_roundtrips_and_exact_lines_keep_their_bytes() {
        let path = tmp("stderr");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(1, &sample_sim()).expect("append");
        let exact_line = std::fs::read_to_string(&path).expect("read");
        assert!(
            !exact_line.contains("stderr"),
            "exact results serialize without a stderr field"
        );
        store.append(2, &sample_sampled()).expect("append");
        let reloaded = SweepStore::open(&path).expect("reload");
        assert_eq!(reloaded.get(1), Some(&sample_sim()));
        assert_eq!(reloaded.get(2), Some(&sample_sampled()));
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn sampled_and_exact_cells_never_share_a_fingerprint() {
        use sbp_core::Mechanism;
        use sbp_sim::SamplingPlan;
        let exact = SweepSpec::single("fp")
            .with_cases(vec![crate::spec::CaseSpec::pair("c1", "gcc", "calculix")])
            .with_intervals(vec![sbp_sim::SwitchInterval::M8])
            .with_mechanisms(vec![Mechanism::CompleteFlush, Mechanism::noisy_xor_bp()]);
        let sampled = exact
            .clone()
            .with_sampling(Some(SamplingPlan::single_default()));
        let exact_fps: std::collections::BTreeSet<u64> =
            plan_fingerprints(&exact, &crate::plan::plan(&exact))
                .into_iter()
                .collect();
        let sampled_fps = plan_fingerprints(&sampled, &crate::plan::plan(&sampled));
        for fp in &sampled_fps {
            assert!(
                !exact_fps.contains(fp),
                "a sampled cell must never resume from an exact store (or vice versa)"
            );
        }
        // Distinct window layouts are distinct estimators: resuming one
        // plan's estimate into another would silently mix error models.
        let quick = exact.clone().with_sampling(Some(SamplingPlan::quick()));
        let quick_fps = plan_fingerprints(&quick, &crate::plan::plan(&quick));
        for (a, b) in sampled_fps.iter().zip(&quick_fps) {
            assert_ne!(a, b, "different sampling plans fingerprint separately");
        }
    }

    /// An edit to one field of a simulation job: the spec, its group
    /// point, or its mechanism.
    type Edit = fn(&mut SweepSpec, &mut JobGroup, &mut Mechanism);

    /// Every field a simulation job's result can depend on, edited, plus
    /// the display-only fields, tagged with the identity axis they sit
    /// on (`""` for axes no cache key omits, `"display"` for fields no
    /// identity reads).
    fn job_field_edits() -> Vec<(&'static str, Edit)> {
        use sbp_predictors::PredictorKind;
        use sbp_sim::{SamplingPlan, SwitchInterval};
        vec![
            ("", |s, _, _| s.core.mispredict_penalty += 1),
            ("", |s, _, _| s.core.ras_depth += 1),
            ("", |s, _, _| s.mode = crate::spec::SweepMode::Smt),
            ("", |s, _, _| s.cases[0].workloads[1] = "mcf".to_string()),
            ("", |s, _, _| s.budget.warmup += 1),
            ("", |s, _, _| s.budget.measure += 1),
            ("", |s, _, _| s.sampling = Some(SamplingPlan::quick())),
            ("", |s, _, _| {
                s.sampling = Some(SamplingPlan::quick_functional())
            }),
            ("", |_, g, _| g.seed ^= 1),
            ("predictor", |_, g, _| g.predictor = PredictorKind::TageScL),
            ("interval", |_, g, _| g.interval = SwitchInterval::Off),
            ("mechanism", |_, _, m| *m = Mechanism::noisy_xor_bp()),
            ("mechanism", |_, _, m| *m = Mechanism::Baseline),
            // The group's seed is already derived from these.
            ("display", |s, _, _| s.name = "renamed".to_string()),
            ("display", |s, _, _| s.cases[0].id = "other-id".to_string()),
            ("display", |_, g, _| g.seed_index += 1),
            ("display", |s, _, _| s.master_seed ^= 1),
        ]
    }

    /// The property behind every executor cache key: over every single
    /// and pairwise edit of a job's fields, the key changes exactly when
    /// the store fingerprint does, except that an edit confined to
    /// omitted axes changes the fingerprint and leaves the key.
    #[test]
    fn cache_keys_move_with_the_store_fingerprint_off_their_omitted_axes() {
        let spec = SweepSpec::single("fp")
            .with_cases(vec![crate::spec::CaseSpec::pair("c1", "gcc", "calculix")]);
        let plan = crate::plan::plan(&spec);
        let (group, mechanism) = (plan.groups[0], Mechanism::CompleteFlush);
        let fp = |s: &SweepSpec, g: &JobGroup, m: Mechanism, omit| sim_fingerprint(s, g, m, omit);
        let omits: [(Omit, &[&str]); 3] = [
            (Omit::Nothing, &[]),
            (Omit::Interval, &["interval"]),
            (
                Omit::IntervalPredictorMechanism,
                &["interval", "predictor", "mechanism"],
            ),
        ];
        let edits = job_field_edits();
        let mut combos: Vec<Vec<usize>> = (0..edits.len()).map(|i| vec![i]).collect();
        for i in 0..edits.len() {
            combos.extend((i + 1..edits.len()).map(|j| vec![i, j]));
        }
        for combo in combos {
            let (mut s, mut g, mut m) = (spec.clone(), group, mechanism);
            for &i in &combo {
                (edits[i].1)(&mut s, &mut g, &mut m);
            }
            let store_moved =
                fp(&s, &g, m, Omit::Nothing) != fp(&spec, &group, mechanism, Omit::Nothing);
            if let [i] = combo[..] {
                assert_eq!(store_moved, edits[i].0 != "display", "edit {i} is vacuous");
            }
            for (omit, omitted) in omits {
                let key_moved = fp(&s, &g, m, omit) != fp(&spec, &group, mechanism, omit);
                let only_omitted = combo
                    .iter()
                    .all(|&i| edits[i].0 == "display" || omitted.contains(&edits[i].0));
                let want = store_moved && !only_omitted;
                assert_eq!(key_moved, want, "{omit:?} key under edits {combo:?}");
            }
        }
    }

    #[test]
    fn attack_fingerprints_are_stable_under_axis_edits() {
        use sbp_attack::AttackKind;
        use sbp_core::Mechanism;
        let full = SweepSpec::attack("fp")
            .with_attacks(vec![AttackKind::SpectreV2, AttackKind::Sbpa])
            .with_mechanisms(vec![Mechanism::Baseline, Mechanism::noisy_xor_bp()]);
        let narrowed = full
            .clone()
            .with_attacks(vec![AttackKind::Sbpa])
            .with_mechanisms(vec![Mechanism::noisy_xor_bp()]);
        let full_plan = crate::plan::plan(&full);
        let full_fps: std::collections::BTreeSet<u64> =
            plan_fingerprints(&full, &full_plan).into_iter().collect();
        let narrow_plan = crate::plan::plan(&narrowed);
        for fp in plan_fingerprints(&narrowed, &narrow_plan) {
            assert!(full_fps.contains(&fp), "narrowed grid reuses stored cells");
        }
    }

    #[test]
    fn compact_drops_unknown_cells_in_file_order() {
        let path = tmp("compact");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(1, &sample_sim()).expect("append");
        store.append(2, &sample_attack()).expect("append");
        store.append(3, &sample_sim()).expect("append");
        let known: HashSet<u64> = [1, 3].into_iter().collect();
        assert_eq!(store.compact(&known).expect("compact"), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(2), None);
        // The rewrite kept the surviving lines in original order, and a
        // reload agrees.
        let reloaded = SweepStore::open(&path).expect("reload");
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get(1), Some(&sample_sim()));
        assert_eq!(reloaded.get(3), Some(&sample_sim()));
        // Compacting again drops nothing and leaves the bytes untouched.
        let before = std::fs::read(&path).expect("read");
        let mut reloaded = reloaded;
        assert_eq!(reloaded.compact(&known).expect("compact"), 0);
        assert_eq!(std::fs::read(&path).expect("read"), before);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compact_on_a_fresh_store_is_a_byte_level_noop() {
        let path = tmp("compact_noop");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(7, &sample_attack()).expect("append");
        store.append(9, &sample_sim()).expect("append");
        let before = std::fs::read(&path).expect("read");
        let known: HashSet<u64> = [7, 9, 11].into_iter().collect();
        assert_eq!(store.compact(&known).expect("compact"), 0);
        assert_eq!(std::fs::read(&path).expect("read"), before);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn compact_can_empty_a_store() {
        let path = tmp("compact_all");
        let _ = std::fs::remove_file(&path);
        let mut store = SweepStore::open(&path).expect("open");
        store.append(5, &sample_sim()).expect("append");
        assert_eq!(store.compact(&HashSet::new()).expect("compact"), 1);
        assert!(store.is_empty());
        assert_eq!(std::fs::read(&path).expect("read"), b"");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
