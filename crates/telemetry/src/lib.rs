//! Structured, dependency-free telemetry for the secure-bp workspace.
//!
//! The campaign machinery runs paper-scale sweeps across sharded worker
//! subprocesses, but until this crate the only windows into a run were
//! unstructured stderr lines and the one-off `--profile` table. This
//! crate provides **spans**, **counters**, **gauges**, and **marks**
//! that serialize to an append-only JSONL event stream — hand-rolled
//! like `sbp_sweep::json`, no `tracing`, no `tokio` — plus the tooling
//! to merge per-worker sidecar streams into one deterministic campaign
//! timeline and export it as Chrome `trace_event` JSON for
//! chrome://tracing.
//!
//! # Hard invariant: observation only
//!
//! Telemetry never changes what the simulators compute. Reports,
//! stores, fingerprints, and verdicts are byte-identical with telemetry
//! on, off, or at any verbosity; the equivalence tests in the root
//! crate pin this. Span IDs are derived from `(shard, job, sequence)`
//! — never from wall-clock time or randomness — so the *deterministic
//! projection* of a timeline ([`Event::is_deterministic`],
//! [`canonical_projection`]) is byte-identical across runs and across
//! `--window-threads` settings. Wall-clock data (timestamps, span
//! durations, cache hit counters) rides along as advisory payload and
//! is zeroed out of the canonical projection.
//!
//! # Event lanes
//!
//! Every event belongs to one of two lanes:
//!
//! - the **job lane** (`job: Some(i)`): events emitted inside a
//!   [`job_scope`] while a worker executes plan job `i`. Buffered in a
//!   thread-local and flushed atomically when the scope ends, so
//!   concurrent jobs never interleave lines.
//! - the **control lane** (`job: None`): coordinator/worker lifecycle
//!   events (entry spans, stall kills, retries, GC stats) written
//!   straight through.
//!
//! See `docs/OBSERVABILITY.md` for the schema reference and the span
//! taxonomy.

#![deny(missing_docs)]

mod chrome;
mod event;
mod sink;
mod timeline;

pub use chrome::to_chrome_trace;
pub use event::{canonical_projection, span_id, validate, Event, Kind, TimelineStats, SCHEMA_V};
pub use sink::{
    adopt, control_gauge, control_mark, control_span, counter, disable, enable, enabled, events,
    gauge, job_scope, mark, set_entry, span, take_events, ControlSpan, JobScope, Span,
};
pub use timeline::{merge, read_events, read_events_lenient, write_events};
