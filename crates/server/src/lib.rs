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
//!   that commits each commit-ready transaction as one held section —
//!   its PUSHes and its CMT under one acquisition of its own shards'
//!   locks and one contiguous stamp reservation
//!   ([`pushpull_core::commit_held`]).
//!
//! The server is itself a [`TmSystem`](pushpull_tm::driver::TmSystem)
//! and a [`ParallelSystem`](pushpull_tm::driver::ParallelSystem), so the
//! whole harness — seeded schedulers, the OS-thread runner with its
//! watchdog, fault plans, parameter sweeps — drives it unchanged. The
//! server records no rule trace unless asked to, and recording changes
//! nothing else: traced and untraced runs produce identical outcomes,
//! committed-transaction records, audits and statistics (the
//! equivalence suite holds this at shard counts 1, 4, and 16).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod server;
pub mod session;

pub use server::{ServerConfig, SessionOutcome, TxnServer};
pub use session::{assign_sessions, SessionEnd, SessionId, SessionScript};
