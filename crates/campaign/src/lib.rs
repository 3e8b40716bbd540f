//! # sbp-campaign
//!
//! Campaign orchestration on top of the sweep engine: reproduce *every*
//! figure and table of the paper — or any subset — with one command,
//! fanned out across worker subprocesses, resumable after any crash.
//!
//! Three parts:
//!
//! * **[`Catalog`]** — the named spec registry. Each figure/table grid
//!   that used to be hand-built inside a bench harness is a
//!   [`CatalogEntry`]: `Catalog::get("fig01")` yields the `SweepSpec`
//!   plus metadata (paper artifact, axes, default store file) and its
//!   paper expectations. Benches, examples and the orchestrator all
//!   build grids from this one source of truth.
//! * **[`expect`]** — the paper-expectation oracle: every entry carries
//!   the paper's reported values (means, direction constraints, Table 1
//!   security verdicts) as machine-checkable [`Expectation`]s, and
//!   `campaign --check` ends every run with the joined
//!   [`VerdictTable`], exiting nonzero when the reproduction drifts out
//!   of tolerance.
//! * **The orchestrator** — a coordinator ([`run_campaign`]) that reads a
//!   [`Manifest`] (catalog entries × scale × seeds × worker count),
//!   spawns N worker subprocesses (the same binary with `--worker`), each
//!   owning a `--shard k/n` slice writing its own store, streams
//!   per-shard progress/ETA to stderr, retries crashed shards (the shard
//!   store is resumable, so the second pass executes only the missing
//!   jobs), then merges + compacts the stores and prints the report —
//!   byte-identical to an in-process unsharded run of the same manifest.
//!
//! The `campaign` binary is the CLI over both halves:
//!
//! ```console
//! $ campaign --list                      # print the catalog
//! $ campaign manifest.json               # coordinator: fan out, merge, report
//! $ campaign --in-process manifest.json  # unsharded reference run (same stdout)
//! ```

pub mod catalog;
pub mod coordinator;
pub mod expect;
pub mod manifest;
pub mod recorder;
pub mod report;
pub mod worker;

pub use catalog::{Catalog, CatalogEntry};
pub use coordinator::{
    finalize_telemetry, run_campaign, shard_store_path, telemetry_enabled, telemetry_sidecar_path,
    CampaignOptions,
};
pub use expect::{check_entry, maybe_perturbed, Expectation, VerdictTable, PERTURB_ENV};
pub use manifest::{parse_gap_mode, Manifest};
pub use recorder::{record_entry, record_spec, verify_entry, verify_spec, TraceOptions};
pub use report::{profile_line, run_report};
pub use worker::{run_worker, WorkerArgs, DIE_AFTER_ENV, DIE_EXIT_CODE, STALL_AFTER_ENV};
