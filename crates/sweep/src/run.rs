//! Store-backed sweep orchestration: resume, sharding and merge.
//!
//! [`SweepSpec::run_with`] is the persistent, distributable variant of
//! [`SweepSpec::run`]: completed cells are looked up in a
//! [`SweepStore`] by fingerprint and skipped
//! (resume), a [`Shard`] filter restricts execution to a deterministic
//! slice of the flat job list so one spec fans out across processes or
//! machines, and [`merge_stores`] recombines shard stores into the full
//! report — byte-identical (records, JSONL, CSV, table) to a
//! single-process run of the same spec, because the report is a pure
//! function of the plan-ordered results and stored floats round-trip
//! exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use sbp_types::{SbpError, SweepReport};

use crate::exec::{parallel_map_with, run_job_indexed, JobArena, RawResult};
use crate::spec::SweepSpec;
use crate::store::{plan_fingerprints, SweepStore};

/// A `k/n` slice of the flat job list (`k` is 1-based on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 0-based shard index.
    pub index: usize,
    /// Total shard count (≥ 1).
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `k/n` with `1 ≤ k ≤ n` (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for malformed or out-of-range specs.
    pub fn parse(s: &str) -> Result<Self, SbpError> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| SbpError::config(format!("shard spec {s:?} is not of the form k/n")))?;
        let (k, n) = (
            k.trim()
                .parse::<usize>()
                .map_err(|e| SbpError::config(format!("shard index {k:?}: {e}")))?,
            n.trim()
                .parse::<usize>()
                .map_err(|e| SbpError::config(format!("shard count {n:?}: {e}")))?,
        );
        if n == 0 || k == 0 || k > n {
            return Err(SbpError::config(format!(
                "shard {k}/{n} out of range (need 1 ≤ k ≤ n)"
            )));
        }
        Ok(Shard {
            index: k - 1,
            count: n,
        })
    }

    /// Whether this shard owns the job with fingerprint `fp`. The `n`
    /// shards partition the job list — every fingerprint belongs to
    /// exactly one shard — and keying on the (FNV-mixed) fingerprint
    /// rather than the plan index decorrelates shard membership from the
    /// plan's fixed job stride: an `index % n` rule would hand one shard
    /// all the Baseline jobs whenever `n` equals the per-group job count,
    /// maximally unbalancing the fan-out when one mechanism is
    /// systematically slower.
    pub fn owns(&self, fp: u64) -> bool {
        fp % self.count as u64 == self.index as u64
    }
}

/// Options for a store-backed sweep run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// JSONL store to resume from / append completed cells to.
    pub store: Option<PathBuf>,
    /// Restrict execution to one shard of the job list.
    pub shard: Option<Shard>,
}

impl RunOptions {
    /// Parses `--store PATH` and `--shard K/N` out of a CLI argument
    /// list, returning the options and the remaining arguments.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for missing values or malformed
    /// shard specs.
    pub fn from_args(args: &[String]) -> Result<(Self, Vec<String>), SbpError> {
        let mut opts = RunOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--store" => {
                    let path = it
                        .next()
                        .ok_or_else(|| SbpError::config("--store needs a path"))?;
                    opts.store = Some(PathBuf::from(path));
                }
                "--shard" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| SbpError::config("--shard needs a k/n spec"))?;
                    opts.shard = Some(Shard::parse(spec)?);
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok((opts, rest))
    }
}

/// What a store-backed run did, and — when every cell has a result — the
/// built report.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The full report; `None` while cells are still pending (a shard run
    /// whose siblings have not completed yet).
    pub report: Option<SweepReport>,
    /// Jobs executed by this run.
    pub executed: usize,
    /// Jobs skipped because the store already held their result.
    pub skipped: usize,
    /// Jobs still missing a result (outside this shard and not stored).
    pub pending: usize,
}

impl SweepSpec {
    /// Plans the sweep, skips every job whose fingerprint is already in
    /// the store, executes the rest (restricted to `opts.shard` if set)
    /// appending the results to the store in plan order, and builds the
    /// report once all cells have results.
    ///
    /// # Errors
    ///
    /// Returns validation, execution and store I/O errors. Sharding
    /// without a store is rejected: the off-shard cells would stay
    /// pending, so no report could be built and the executed results
    /// would be discarded.
    pub fn run_with(&self, opts: &RunOptions) -> Result<SweepOutcome, SbpError> {
        self.validate()?;
        if opts.shard.is_some() && opts.store.is_none() {
            return Err(SbpError::config(
                "a sharded run needs a store (--store), or its results are thrown away",
            ));
        }
        let plan = crate::plan::plan(self);
        let fps = plan_fingerprints(self, &plan);
        let store = match &opts.store {
            Some(path) => Some(SweepStore::open(path)?),
            None => None,
        };
        let stored: Vec<bool> = fps
            .iter()
            .map(|fp| store.as_ref().is_some_and(|s| s.get(*fp).is_some()))
            .collect();
        let todo: Vec<usize> = (0..plan.jobs.len())
            .filter(|&i| !stored[i] && opts.shard.is_none_or(|sh| sh.owns(fps[i])))
            .collect();
        let skipped = stored.iter().filter(|s| **s).count();

        // Fresh results are appended in plan order: a finished job is held
        // until every earlier todo job has been written (or has failed),
        // so two runs of one spec write byte-identical stores. A killed
        // run still leaves only complete lines; held jobs simply re-run
        // on resume.
        let writer = store.map(|s| Mutex::new((s, 0usize, BTreeMap::new())));
        let fresh: Vec<Result<RawResult, SbpError>> =
            parallel_map_with(todo.len(), JobArena::new, |arena, k| {
                let result = run_job_indexed(arena, self, &plan, todo[k]);
                if let Some(w) = &writer {
                    let mut guard = w.lock();
                    let (store, next, held) = &mut *guard;
                    held.insert(k, result.as_ref().ok().cloned());
                    while let Some(done) = held.remove(next) {
                        if let Some(r) = done {
                            store.append(fps[todo[*next]], &r)?;
                        }
                        *next += 1;
                    }
                }
                result
            });
        let store = writer.map(|w| w.into_inner().0);

        let mut results: Vec<Option<RawResult>> = vec![None; plan.jobs.len()];
        for (k, i) in todo.iter().enumerate() {
            results[*i] = Some(fresh[k].clone()?);
        }
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(s) = &store {
                    *slot = s.get(fps[i]).cloned();
                }
            }
        }
        let pending = results.iter().filter(|r| r.is_none()).count();
        let report = if pending == 0 {
            let complete: Vec<RawResult> = results.into_iter().map(Option::unwrap).collect();
            Some(crate::build::build_report(self, &plan, &complete))
        } else {
            None
        };
        Ok(SweepOutcome {
            report,
            executed: todo.len(),
            skipped,
            pending,
        })
    }
}

/// Recombines shard stores of one spec into the full report, optionally
/// writing the merged store (in canonical plan order) to `out`.
///
/// # Errors
///
/// Returns store I/O errors, and a store error naming the number of
/// missing cells when the shards do not cover the whole plan.
pub fn merge_stores(
    spec: &SweepSpec,
    shards: &[PathBuf],
    out: Option<&Path>,
) -> Result<SweepReport, SbpError> {
    spec.validate()?;
    let plan = crate::plan::plan(spec);
    let fps = plan_fingerprints(spec, &plan);
    let mut merged = std::collections::HashMap::new();
    for path in shards {
        merged.extend(SweepStore::open(path)?.into_map());
    }
    let mut results = Vec::with_capacity(plan.jobs.len());
    for (i, fp) in fps.iter().enumerate() {
        match merged.get(fp) {
            Some(r) => results.push(r.clone()),
            None => {
                let missing = fps.iter().filter(|f| !merged.contains_key(f)).count();
                return Err(SbpError::store(format!(
                    "merge incomplete: {missing} of {} cells missing (first: job {i}); \
                     note: sim fingerprints include SBP_SCALE (currently {}) — stores \
                     written under a different scale will not match",
                    plan.jobs.len(),
                    sbp_sim::scale(),
                )));
            }
        }
    }
    if let Some(path) = out {
        // Canonical plan order, duplicates collapsed to first sighting.
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(u64, RawResult)> = fps
            .iter()
            .zip(&results)
            .filter(|(fp, _)| seen.insert(**fp))
            .map(|(fp, r)| (*fp, r.clone()))
            .collect();
        SweepStore::write_canonical(path, entries)?;
    }
    Ok(crate::build::build_report(spec, &plan, &results))
}

/// Garbage-collects the store at `path` against a set of live specs:
/// every line whose fingerprint appears in no spec's plan is dropped (see
/// [`SweepStore::compact`]). Returns the number of cells dropped; a
/// missing store file is an empty store and drops nothing.
///
/// This is the `--gc` entry point of the sweep binaries and the automatic
/// post-merge pass of the campaign orchestrator. Note that simulation
/// fingerprints include `SBP_SCALE`, so a GC run under a different scale
/// than the one that produced the store collects everything — exactly the
/// cells no present-scale run can resume from.
///
/// # Errors
///
/// Returns validation errors for malformed specs and store I/O errors.
pub fn gc_store(path: &Path, specs: &[SweepSpec]) -> Result<usize, SbpError> {
    let mut known = std::collections::HashSet::new();
    for spec in specs {
        spec.validate()?;
        let plan = crate::plan::plan(spec);
        known.extend(plan_fingerprints(spec, &plan));
    }
    let mut store = SweepStore::open(path)?;
    store.compact(&known)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing_and_membership() {
        let s = Shard::parse("2/4").expect("parse");
        assert_eq!(s, Shard { index: 1, count: 4 });
        assert!(s.owns(1) && s.owns(5));
        assert!(!s.owns(0) && !s.owns(2));
        assert!(Shard::parse("0/4").is_err());
        assert!(Shard::parse("5/4").is_err());
        assert!(Shard::parse("1-4").is_err());
        assert!(Shard::parse("a/4").is_err());
        assert!(Shard::parse("1/0").is_err());
    }

    #[test]
    fn shards_partition_any_fingerprint_set() {
        for n in 1..=5 {
            let shards: Vec<Shard> = (1..=n)
                .map(|k| Shard::parse(&format!("{k}/{n}")).expect("parse"))
                .collect();
            for fp in (0u64..50).chain([u64::MAX, u64::MAX - 1, 0xdead_beef_0bad_5eed]) {
                assert_eq!(shards.iter().filter(|s| s.owns(fp)).count(), 1);
            }
        }
    }

    #[test]
    fn sharding_without_a_store_is_rejected() {
        let spec = SweepSpec::single("no store");
        let err = spec
            .run_with(&RunOptions {
                store: None,
                shard: Some(Shard { index: 0, count: 2 }),
            })
            .expect_err("shard without store must not execute");
        assert!(err.to_string().contains("store"), "{err}");
    }

    #[test]
    fn cli_args_are_extracted_and_rest_preserved() {
        let args: Vec<String> = ["--store", "/tmp/s.jsonl", "keep", "--shard", "1/2", "me"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = RunOptions::from_args(&args).expect("parse");
        assert_eq!(opts.store.as_deref(), Some(Path::new("/tmp/s.jsonl")));
        assert_eq!(opts.shard, Some(Shard { index: 0, count: 2 }));
        assert_eq!(rest, vec!["keep".to_string(), "me".to_string()]);
        assert!(RunOptions::from_args(&["--store".to_string()]).is_err());
        assert!(RunOptions::from_args(&["--shard".to_string(), "x".to_string()]).is_err());
    }
}
