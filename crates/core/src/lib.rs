//! # pushpull-core
//!
//! An executable rendering of **“The Push/Pull Model of Transactions”**
//! (Koskinen & Parkinson, PLDI 2015).
//!
//! The Push/Pull model unifies a wide range of transactional-memory
//! algorithms under seven rules over *logs of operations*: transactions
//! [`app`](machine::Machine::app)ly effects locally,
//! [`push`](machine::Machine::push) them to a shared log (or
//! [`unpush`](machine::Machine::unpush) to recall them),
//! [`pull`](machine::Machine::pull) the effects of other — possibly
//! uncommitted — transactions (or [`unpull`](machine::Machine::unpull) to
//! detangle), and [`commit`](machine::Machine::commit). Each rule carries
//! *criteria* phrased with a sequential specification
//! ([`spec::SeqSpec`]) and Lipton movers ([`spec::SeqSpec::mover`],
//! Definition 4.1); the paper proves that criteria-respecting runs are
//! serializable (Theorem 5.17).
//!
//! This crate makes all of that executable:
//!
//! * [`lang`] — the generic transaction language with `step`/`fin` (§3);
//! * [`spec`] — sequential specifications: `allowed` induced by a
//!   denotational semantics, plus mover oracles (§3, §4);
//! * [`precongruence`] — decidable checkers for the coinductive `≼`
//!   (Definition 3.1) and the executable content of Lemmas 5.1–5.3;
//! * [`atomic`] — the atomic-semantics oracle (§3, Figure 3);
//! * [`log`], [`op`] — local/global logs with `npshd/pshd/pld` and
//!   `gUCmt/gCmt` flags (§4);
//! * [`machine`] — the PUSH/PULL machine with every criterion checked at
//!   runtime (§4, Figure 5);
//! * [`serializability`] — the independent oracle re-verifying
//!   Theorem 5.17 on concrete runs;
//! * [`opacity`] — the opaque fragments of §6.1;
//! * [`invariants`] — the §5 invariants (`I_LG`, `I_slideR`, …,
//!   `cmtpres`) as checkable predicates;
//! * [`trace`] — rule-level traces, rendered like Figure 7;
//! * [`toy`] — a tiny counter specification for examples and tests.
//!
//! ## Quick start
//!
//! ```
//! use pushpull_core::machine::Machine;
//! use pushpull_core::lang::Code;
//! use pushpull_core::toy::{ToyCounter, CounterMethod};
//! use pushpull_core::serializability::check_machine;
//!
//! // Two threads increment a shared counter transactionally.
//! let mut m = Machine::new(ToyCounter::with_bound(16));
//! let a = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
//! let b = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
//!
//! // Interleaved execution: both apply locally, then push and commit.
//! m.app_auto(a)?;
//! m.app_auto(b)?;               // interleaving!
//! m.push_all_and_commit(a)?;    // optimistic commit sequence
//! m.push_all_and_commit(b)?;
//!
//! assert!(check_machine(&m).is_serializable());
//! assert_eq!(m.global().committed_ops().len(), 2);
//! # Ok::<(), pushpull_core::error::MachineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod atomic;
pub mod audit;
pub mod certificate;
mod criteria;
pub mod error;
pub mod faults;
pub mod global;
pub mod group;
pub mod handle;
pub mod invariants;
pub mod lang;
pub mod log;
pub mod machine;
pub mod op;
pub mod opacity;
pub mod precongruence;
pub mod rng;
pub mod scope;
pub mod serializability;
// The workspace's only exception to the `unsafe_code` lint.
#[allow(unsafe_code)]
pub mod smallvec;
pub mod spec;
pub mod structural;
pub mod toy;
pub mod trace;

pub use certificate::SpecCertificate;
pub use error::{Clause, CriterionViolation, MachineError, MachineResult, Rule};
pub use faults::{BoundaryFault, FaultHook, FaultKind, HtmFault};
pub use global::{CommittedTxn, GlobalState, GroupStats, TxnKind};
pub use group::{commit_group, commit_held, GroupOutcome, GroupTxnResult};
pub use handle::TxnHandle;
pub use lang::Code;
pub use log::{GlobalFlag, GlobalLog, LocalFlag, LocalLog};
pub use machine::{CheckMode, Machine};
pub use op::{Op, OpId, ThreadId, TxnId};
pub use scope::{NestingStats, ScopeKind};
pub use smallvec::SmallVec;
pub use spec::{KeySet, OpInverse, SeqSpec};
pub use trace::{Event, Trace};
