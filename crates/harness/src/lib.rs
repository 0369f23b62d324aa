//! # pushpull-harness
//!
//! Execution infrastructure for the Push/Pull reproduction:
//!
//! * [`scheduler`] — round-robin and seeded-random schedulers; in the
//!   PUSH/PULL model a scheduler *is* the interleaving;
//! * [`model_check`] — an exhaustive interleaving explorer for small
//!   configurations, used to check §6's per-algorithm claims over *all*
//!   interleavings rather than sampled ones;
//! * [`workload`] and [`patterns`] — seeded workload generators (key
//!   skew, read ratio, transaction length) and structured program
//!   families, so the tests and examples that compare algorithms run
//!   identical transaction mixes;
//! * [`runner`] — drives a system to completion and bundles statistics
//!   with the serializability and opacity verdicts;
//! * [`faults`] — deterministic seeded fault plans implementing the core
//!   machine's [`FaultHook`](pushpull_core::faults::FaultHook) seam, for
//!   the chaos-matrix tests;
//! * [`parallel`] — the OS-thread runner, with panic propagation and a
//!   tick-budget watchdog.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod model_check;
pub mod parallel;
pub mod patterns;
pub mod runner;
pub mod scheduler;
pub mod sweep;
pub mod testutil;
pub mod workload;

pub use faults::{FaultPlan, FaultSpec};
pub use model_check::{explore, ExploreLimits, ExploreReport};
pub use parallel::{run_parallel, ParallelError, ParallelOutcome, ThreadDump, WatchdogReport};
pub use runner::{run_reported, RunReport};
pub use scheduler::{run, RandomSched, RoundRobin, RunOutcome, Scheduler};
pub use sweep::{sweep, Aggregate, SweepResult};
pub use workload::WorkloadSpec;
