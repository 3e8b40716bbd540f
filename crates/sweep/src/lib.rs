//! # sbp-sweep
//!
//! The declarative sweep engine: every figure and table of the paper is a
//! grid sweep, and this crate turns such a grid — a [`SweepSpec`] — into
//! a deterministic job plan, executes it on a work-stealing thread pool
//! and aggregates the results into a serializable
//! [`SweepReport`](sbp_types::SweepReport). Two job payloads run under
//! the same spine: **simulation** grids (mechanism × predictor × switch
//! interval × benchmark case × seed; figures 1–3/7–10, tables 4/5) and
//! **attack-PoC** grids (attack × mechanism × predictor × core mode ×
//! seed; Table 1, §5.5).
//!
//! The pipeline has four stages, each usable on its own:
//!
//! 1. **spec** ([`SweepSpec`]) — the declarative grid plus core config,
//!    mode and work budget; [`SweepSpec::attack`] selects the attack
//!    payload;
//! 2. **plan** ([`plan::plan`]) — the flat polymorphic [`Job`] list. Sim
//!    grids are deduplicated: exactly one baseline simulation per
//!    (predictor, interval, case, seed) group is shared by every
//!    mechanism series, so `M` mechanisms cost `M + 1` simulations per
//!    group instead of the `2·M` the old per-series helpers paid;
//!    per-group seeds come from
//!    [`SplitMix64::derive`](sbp_types::rng::SplitMix64::derive);
//! 3. **exec** ([`exec::execute`], [`exec::parallel_map`]) — parallel
//!    execution in plan order;
//! 4. **build** ([`build::build_report`]) — normalized overheads (or
//!    attack success rates), seed-aggregated mean/stddev per cell,
//!    per-series averages and the `sbp-hwcost` storage/area/timing join,
//!    with JSON-lines, CSV and aligned-table emitters on the report.
//!
//! On top of the plan sits the persistence layer: [`SweepSpec::run_with`]
//! records every completed cell in a [`store::SweepStore`] (JSONL keyed by
//! a stable job fingerprint) and skips stored cells on re-runs (resume), a
//! [`run::Shard`] filter splits one spec across processes/machines, and
//! [`run::merge_stores`] recombines shard stores into a report that is
//! byte-identical to a single-process run.
//!
//! Finally the **verdict** layer ([`verdict::check_report`]) joins a
//! report against a list of paper [`verdict::Expectation`]s — means
//! within (scale-widened) tolerance, one-sided bounds, direction
//! constraints, Table 1 security verdicts — into a
//! [`verdict::VerdictTable`] with the same aligned-table/JSONL/CSV
//! emitters as the report, turning "reproduces the paper" into a
//! machine-checked property.
//!
//! ```
//! use sbp_core::Mechanism;
//! use sbp_sim::{SwitchInterval, WorkBudget};
//! use sbp_sweep::{CaseSpec, SweepSpec};
//!
//! # fn main() -> Result<(), sbp_types::SbpError> {
//! let report = SweepSpec::single("quick demo")
//!     .with_cases(vec![CaseSpec::pair("c1", "gcc", "calculix")])
//!     .with_intervals(vec![SwitchInterval::M8])
//!     .with_mechanisms(vec![Mechanism::CompleteFlush])
//!     .with_budget(WorkBudget::quick())
//!     .run()?;
//! assert_eq!(report.records.len(), 2); // one baseline + one mechanism
//! assert!(report.series_mean("CF", "Gshare", "8M").is_some());
//!
//! // The same engine drives the security matrix:
//! let matrix = SweepSpec::attack("spectre check")
//!     .with_attacks(vec![sbp_attack::AttackKind::SpectreV2])
//!     .with_attack_modes(vec![sbp_sweep::SweepMode::SingleCore])
//!     .with_mechanisms(vec![Mechanism::Baseline, Mechanism::noisy_xor_bp()])
//!     .with_trials(300)
//!     .run()?;
//! let verdicts: Vec<&str> = matrix
//!     .records
//!     .iter()
//!     .map(|r| r.attack.as_ref().unwrap().verdict.as_str())
//!     .collect();
//! assert_eq!(verdicts, ["No Protection", "Defend"]);
//! # Ok(())
//! # }
//! ```

pub mod build;
pub mod exec;
pub mod json;
pub mod plan;
pub mod run;
pub mod spec;
pub mod store;
pub mod verdict;

pub use build::{attack_cell_outcome, build_report};
pub use exec::{
    execute, job_label, parallel_map, parallel_map_with, run_job_in, run_job_indexed,
    set_window_threads, window_threads, JobArena, RawResult, RawRun,
};
pub use plan::{plan, AttackJob, Job, JobGroup, SweepPlan};
pub use run::{gc_store, merge_stores, RunOptions, Shard, SweepOutcome};
pub use sbp_attack::AttackKind;
pub use spec::{cases_from, AttackGridSpec, CaseSpec, PayloadSpec, SweepMode, SweepSpec};
pub use store::{job_fingerprint, plan_fingerprints, SweepStore};
pub use verdict::{
    check_report, check_report_at, widen_factor, CheckRow, CheckStatus, Expectation, SeriesKey,
    VerdictTable,
};
