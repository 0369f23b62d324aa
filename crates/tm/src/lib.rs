//! # pushpull-tm
//!
//! The transactional-memory algorithm classes of §6 and §7 of
//! “The Push/Pull Model of Transactions” (PLDI 2015), each expressed as
//! a *pattern of PUSH/PULL rule invocations* against the checked machine
//! of `pushpull-core` — exactly the decomposition the paper performs on
//! paper, made executable:
//!
//! | paper § | system | rule pattern |
//! |---|---|---|
//! | 6.2 | [`optimistic::OptimisticSystem`] | PULL committed at begin; APP during run; PUSH*;CMT at commit; UNAPP* on abort |
//! | 6.2 | [`tl2::Tl2System`] | the concrete TL2 algorithm with its real metadata (clock, versions, read sets) |
//! | 6.2 | [`checkpoint::CheckpointOptimistic`] | checkpoints/partial abort: UNAPP only the invalidated suffix |
//! | 6.3 | [`pessimistic::MatveevShavitSystem`] | writes delayed; PUSH*;CMT under a commit token; reads PULL committed only |
//! | 6.3 | [`boosting::BoostingSystem`] | abstract locks on the spec's footprint; APP;PUSH per op; UNPUSH;UNAPP on abort |
//! | 6.3 | [`twophase::TwoPhaseLocking`] | strict 2PL with shared read locks (the lock-inference family \[4\]) |
//! | 6.4 | [`irrevocable::IrrevocableSystem`] | one eager-PUSH never-aborting thread among optimists |
//! | 6.5 | [`dependent::DependentSystem`] | PULL of uncommitted effects, commit gating, cascaded detangling |
//! | 7 | [`htm::HtmSystem`] | simulated word-granularity eager-conflict HTM |
//! | 7 | [`mixed::MixedSystem`] | boosted objects + HTM words in one transaction, partial HTM rewind |
//!
//! Each row is an [`driver::Algorithm`] — shared metadata, per-thread
//! state, one `step` that reports what its tick did as a
//! [`driver::Outcome`] and one `abort` that is the class's own rollback —
//! and each system name is an alias of [`driver::Driver`], the one
//! skeleton that hosts an algorithm on the machine, runs every
//! transaction's lifecycle (the commit/abort/blocked counters and the
//! contention governor's calls) and implements [`driver::TmSystem`];
//! schedulers and the
//! model checker live in `pushpull-harness`. Because the machine checks
//! every rule criterion, each system is serializable by construction on
//! every run — the serializability oracle re-verifies this in the tests.
//! The rule-pattern column is what the systems *do*, not something they
//! declare: `tests/audit_patterns.rs` and the golden rule traces pin it
//! on real runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod boosting;
pub mod checkpoint;
pub mod contention;
pub mod dependent;
pub mod driver;
pub mod htm;
pub mod irrevocable;
pub mod mixed;
pub mod optimistic;
pub mod pessimistic;
pub mod tl2;
pub mod twophase;
pub mod util;

pub use boosting::BoostingSystem;
pub use checkpoint::CheckpointOptimistic;
pub use contention::ContentionPolicy;
pub use dependent::DependentSystem;
pub use driver::{Algorithm, Driver, ParallelSystem, SystemStats, Tick, TmSystem, Worker};
pub use htm::HtmSystem;
pub use irrevocable::IrrevocableSystem;
pub use mixed::MixedSystem;
pub use optimistic::{OptimisticSystem, ReadPolicy};
pub use pessimistic::MatveevShavitSystem;
pub use tl2::Tl2System;
pub use twophase::TwoPhaseLocking;
