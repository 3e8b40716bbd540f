//! # sbp-sim
//!
//! Trace-driven, cycle-approximate simulation substrate: the Table 2 core
//! configurations, the penalty-based timing model, a single-threaded core
//! with timer-scheduled software contexts (the FPGA experiments) and an
//! SMT core (the gem5 experiments), plus the experiment runners used by
//! every benchmark harness.
//!
//! ```
//! use sbp_core::Mechanism;
//! use sbp_predictors::PredictorKind;
//! use sbp_sim::{CoreConfig, SingleCoreSim, SwitchInterval};
//!
//! # fn main() -> Result<(), sbp_types::SbpError> {
//! let mut sim = SingleCoreSim::new(
//!     CoreConfig::fpga(),
//!     PredictorKind::Gshare,
//!     Mechanism::noisy_xor_bp(),
//!     SwitchInterval::M8,
//!     &["gcc", "calculix"],
//!     42,
//! )?;
//! let stats = sim.run_target(1_000, 10_000);
//! assert!(stats.cond_accuracy() > 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! ## Units
//!
//! Unless a doc comment says otherwise: **time** is in core clock cycles
//! (`f64` accumulators, integer penalties from [`CoreConfig`]), **work**
//! is in dynamic branches (single-core budgets) or instructions (SMT
//! budgets), and **flushes** are whole-table — Complete Flush clears
//! every predictor structure, Precise Flush only the departing thread's
//! entries.

#![deny(missing_docs)]

pub mod config;
pub mod core;
pub mod experiment;
pub mod sampling;
pub mod smt;
pub mod timing;

pub use config::{CoreConfig, SwitchInterval};
pub use core::SingleCoreSim;
pub use experiment::{run_single_case, run_smt, scale, single_overhead, smt_overhead, WorkBudget};
pub use sampling::{
    estimate_cycles, GapMode, SampledEstimate, SampledMeasurement, SampledSim, SamplingPlan,
    WindowSchedule,
};
pub use smt::{SmtResult, SmtSim};
pub use timing::{execute_branch, execute_branch_scalar, train_branch, train_branch_clocked};
