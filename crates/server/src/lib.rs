//! # pushpull-server
//!
//! A transactional service front-end over the Push/Pull machine
//! (Koskinen & Parkinson, PLDI 2015): many logical client *sessions* —
//! each a begin/op/commit-or-abort transaction — multiplexed onto a
//! bounded pool of workers, each worker owning a fixed set of
//! transaction handles.
//!
//! * [`session`] — [`SessionId`], [`SessionScript`] (a straight-line
//!   transaction body plus its close) and the deterministic seeded
//!   admission assignment;
//! * [`server`] — [`TxnServer`]: admission, APPly, and a commit stage
//!   that batches commit-ready transactions *per destination shard* so
//!   one shard-lock acquisition and one contiguous stamp reservation
//!   cover a whole batch ([`pushpull_core::commit_group`]).
//!
//! The server is itself a [`TmSystem`](pushpull_tm::driver::TmSystem)
//! and a [`ParallelSystem`](pushpull_tm::driver::ParallelSystem), so the
//! whole harness — seeded schedulers, the OS-thread runner with its
//! watchdog, fault plans, parameter sweeps — drives it unchanged.
//! Batching is observationally invisible: with the same scripts, seed,
//! and shard count, group commit on and off produce bit-identical
//! committed-transaction records and traces (the equivalence suite holds
//! this at shard counts 1, 4, and 16).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod server;
pub mod session;

pub use server::{ServerConfig, SessionOutcome, TxnServer};
pub use session::{assign_sessions, SessionEnd, SessionId, SessionScript};
