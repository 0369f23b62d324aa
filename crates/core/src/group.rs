//! **Held commits**: a transaction's PUSHes and its CMT as *one
//! uninterleaved section* over the transaction's own shards (every shard
//! once it is coarse) — the paper's optimistic pattern, "PUSH everything
//! and CMT at an uninterleaved moment" (§6.2).
//!
//! ## The held section
//!
//! [`TxnHandle::push_all_and_commit`] publishes a multi-operation
//! transaction one lock at a time: between its first PUSH and its CMT an
//! *uncommitted* operation is visible in `G`, and every peer touching that
//! key is denied by PUSH (ii) for as long as the committer happens to be
//! descheduled — an abort caused by preemption, not by a conflict with a
//! transaction that makes progress. A held section instead locks the
//! shards the transaction's own operations (and the operations it pulled
//! while still uncommitted) route to, ascending, reserves one stamp block
//! under them, and runs the ordinary rule bodies inside — every body takes
//! an optional caller-held section. No other thread can observe the
//! transaction's uncommitted operations: a preempted committer makes its
//! peers wait on a mutex, and the only denials left are genuine conflicts
//! with *committed* work. Transactions over disjoint shards still commit
//! in parallel; nothing is process-wide.
//!
//! Inside the section each PUSH/UNPUSH *focuses* the view on its own
//! route's shard (`LogView::focused`), so the criteria kernel reads
//! exactly what it would under that shard's own lock — the same
//! cache-backed denotation, the same mover scan, the same audit tallies.
//! A *coarse* transaction (an operation with no single-key footprint, or
//! the sticky coarse flag set, before or after locking) holds every shard,
//! and each PUSH/UNPUSH is focused exactly when its unheld rule would lock
//! one shard; a coarse route sets the flag first, as `acquire_route` does.
//! A transaction denied in the section is aborted *inside
//! it* with the same tail-first rewind the unheld path performs (it is the
//! same code), so its partial appends never leak. Stamps it consumed are
//! simply skipped — stamp gaps are already routine (UNPUSH leaves them)
//! and only relative stamp order matters for replay.
//!
//! ## Why one section is sound (the stamp-block argument)
//!
//! The section acquires its shards' locks, then reserves a contiguous
//! stamp block of the transaction's unpushed op count
//! (`GlobalState::reserve_stamps` — *after* acquiring the locks, so every
//! stamp already in those shards is strictly below the block's base, and
//! no other thread can append to them while the view is held). It then
//! runs the full PUSH criteria per op, appending with the next stamp from
//! the block, followed by the full CMT criteria and effect. Every
//! criterion sees exactly the global log the unheld rule sequence would
//! have shown it with no peer scheduled in between — the section is
//! observationally identical to `push_all_and_commit` run without
//! interruption, which `tests/lock_discipline.rs` pins down trace for
//! trace. Serializability is therefore inherited from the per-rule
//! argument of Theorem 5.17 unchanged; holding only removes lock
//! round-trips and interleavings, never reorders criteria against
//! effects.
//!
//! ## Who is refused
//!
//! Two kinds of transaction are refused (`TxnHandle::held_shards` says
//! which), each because its commit takes shard locks of its own, which
//! under a held view would self-deadlock (DESIGN.md §13.3): *nested* ones
//! (an open scope commits to `G` as a transaction of its own) and
//! *compensating* ones (an abort replays compensations as fresh top-level
//! transactions). So is a finished thread. An empty transaction is not:
//! its section holds no shard, and its CMT runs the ordinary criteria.

use std::sync::Arc;

use crate::error::MachineError;
use crate::handle::{Held, TxnHandle};
use crate::op::{ThreadId, TxnId};
use crate::spec::SeqSpec;

/// Per-transaction outcome of a held commit ([`commit_held`], or
/// [`commit_group`] in input order).
#[derive(Debug)]
pub enum GroupTxnResult {
    /// Committed inside a held section.
    Committed(TxnId),
    /// A criterion (or injected fault) denied a held PUSH/CMT. The
    /// transaction was aborted and restarted in place — same code, fresh
    /// transaction id, exactly as
    /// [`TxnHandle::abort_and_retry`] — before the section closed. The
    /// caller re-drives its operations.
    Aborted {
        /// The denial that failed the held attempt.
        denied: MachineError,
        /// The fresh transaction id of the restarted attempt.
        restarted: TxnId,
    },
    /// The inline abort itself failed — structural misuse, not reachable
    /// from well-formed drives. The handle is left mid-rewind.
    Wedged(MachineError),
    /// Not eligible for a held commit: the thread is finished, or its
    /// transaction has a live nested scope or a registered compensation.
    /// Nothing ran; the handle is untouched.
    Ineligible,
}

impl GroupTxnResult {
    /// Did this transaction commit inside the held section?
    pub fn is_committed(&self) -> bool {
        matches!(self, GroupTxnResult::Committed(_))
    }
}

/// What one [`commit_group`] call did.
#[derive(Debug)]
pub struct GroupOutcome {
    /// One entry per input handle, in input order.
    pub results: Vec<(ThreadId, GroupTxnResult)>,
}

/// Commits the current transaction of `h` as one uninterleaved section
/// over its own shards, or every shard once coarse (see the module docs):
/// the held counterpart of [`TxnHandle::push_all_and_commit`], with the
/// abort of a denied attempt inside the section too. Tallies nothing in
/// [`GroupStats`](crate::global::GroupStats), so a commit writes no
/// shared counter word beyond the shard locks it takes.
pub fn commit_held<S: SeqSpec>(h: &mut TxnHandle<S>) -> GroupTxnResult {
    let Some(shards) = h.held_shards() else {
        return GroupTxnResult::Ineligible;
    };
    let global = Arc::clone(h.global_state());
    let ids = h.unpushed_ids();
    // Fields evaluate in order: the block is reserved under the locks.
    let mut held = Held {
        view: global.acquire_held(shards),
        stamp: global.reserve_stamps(ids.len() as u64),
    };
    let committed = ids
        .into_iter()
        .try_for_each(|id| h.push_in(id, Some(&mut held)))
        .and_then(|()| h.commit_in(Some(&mut held)));
    match committed {
        Ok(txn) => GroupTxnResult::Committed(txn),
        Err(denied) => match h.abort_in(Some(&mut held)) {
            Ok(restarted) => GroupTxnResult::Aborted { denied, restarted },
            Err(abort_err) => GroupTxnResult::Wedged(abort_err),
        },
    }
}

/// Commits each handle through [`commit_held`], in input order, and
/// counts every committed section in its machine's
/// [`GroupStats`](crate::global::GroupStats) as a batch of one.
/// Ineligible handles are reported back untouched.
pub fn commit_group<S: SeqSpec>(handles: &mut [&mut TxnHandle<S>]) -> GroupOutcome {
    let results = handles
        .iter_mut()
        .map(|h| {
            let result = commit_held(h);
            if result.is_committed() {
                h.global_state().note_held_commit();
            }
            (h.tid(), result)
        })
        .collect();
    GroupOutcome { results }
}
