//! **Held commits**: a transaction's PUSHes and its CMT as *one
//! uninterleaved section* over the transaction's own shards — the paper's
//! optimistic pattern, "PUSH everything and CMT at an uninterleaved
//! moment" (§6.2) — and, on top of it, per-shard **group commit**: many
//! commit-ready transactions destined for the same footprint shard under
//! **one** lock acquisition and one contiguous commit-stamp range.
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
//! A transaction denied in the section is aborted *inside
//! it* with the same tail-first rewind the unheld path performs (it is the
//! same code), so its partial appends never leak. Stamps it consumed are
//! simply skipped — stamp gaps are already routine (UNPUSH leaves them)
//! and only relative stamp order matters for replay.
//!
//! ## Why batching is sound (the stamp-range argument)
//!
//! A batch acquires the destination shard's lock once, reserves a
//! contiguous stamp block of the batch's total op count
//! (`GlobalState::reserve_stamps` — *after* acquiring the lock, so
//! every stamp already in the shard is strictly below the block's base),
//! and then replays the transactions **one at a time, in batch order**,
//! inside the held view: each transaction runs its full PUSH criteria
//! per op (appending with the next stamp from the block) followed by its
//! full CMT criteria and effect. Because each transaction fully commits
//! (or fully rolls back) before the next one's criteria are evaluated,
//! every criterion sees exactly the global log the per-transaction path
//! would have shown it — the batch is observationally identical to
//! running the same transactions back to back, which is what the golden
//! equivalence suite pins down bit-for-bit. Serializability is therefore
//! inherited from the per-rule argument of Theorem 5.17 unchanged;
//! holding only removes lock round-trips and interleavings, never
//! reorders criteria against effects.
//!
//! ## Who is refused
//!
//! Three kinds of transaction stay on the unheld per-transaction path
//! (`TxnHandle::held_shards` says which), each because its commit takes
//! shard locks of its own, which under a held view would self-deadlock
//! (DESIGN.md §13.3): *coarse-routed* ones (an operation with no
//! single-key footprint, or sticky coarse mode — their section is every
//! shard), *nested* ones (an open scope commits to `G` as a transaction
//! of its own) and *compensating* ones (an abort replays compensations as
//! fresh top-level transactions).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::MachineError;
use crate::handle::{Held, TxnHandle};
use crate::op::{OpId, ThreadId, TxnId};
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
    /// [`TxnHandle::abort_and_retry`] — before the section went on. The
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
    /// Not eligible for a held commit (coarse route or coarse mode, a
    /// live nested scope or registered compensation, or nothing to
    /// commit) — the caller falls back to the per-transaction path.
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
    /// Batches sealed (held sections that committed at least one
    /// transaction; a multi-shard transaction's section is a batch of
    /// one).
    pub batches: u64,
    /// Transactions committed through those batches.
    pub batched_txns: u64,
}

impl GroupOutcome {
    fn empty() -> Self {
        Self {
            results: Vec::new(),
            batches: 0,
            batched_txns: 0,
        }
    }
}

/// One held section: locks `shards`, reserves one stamp block for every
/// unpushed operation of `members` (indices into `handles`), then runs
/// each member's PUSHes and CMT — on a denial, its abort — to completion
/// before the next member's, all by the ordinary rule bodies. Returns,
/// per member, the result and the operations it appended; `None` when
/// the sticky coarse flag won the race for the locks (nothing ran).
fn held_section<S: SeqSpec>(
    handles: &mut [&mut TxnHandle<S>],
    members: &[usize],
    shards: Vec<usize>,
) -> Option<Vec<(GroupTxnResult, u64)>> {
    let global = Arc::clone(handles[*members.first()?].global_state());
    let view = global.acquire_held(shards)?;
    // Reserved under the locks: everything already in these shards is
    // stamped strictly below the block's base, and no other thread can
    // append to them while the view is held, so handing the block out in
    // order preserves each shard's strict stamp monotonicity.
    let unpushed: Vec<Vec<OpId>> = members.iter().map(|&i| handles[i].unpushed_ids()).collect();
    let total_ops: usize = unpushed.iter().map(Vec::len).sum();
    let mut held = Held {
        view,
        stamp: global.reserve_stamps(total_ops as u64),
    };
    let commit = |(&i, ids): (&usize, Vec<OpId>)| {
        let h = &mut *handles[i];
        let appended = ids.len() as u64;
        let committed = ids
            .into_iter()
            .try_for_each(|id| h.push_in(id, Some(&mut held)))
            .and_then(|()| h.commit_in(Some(&mut held)));
        let result = match committed {
            Ok(txn) => GroupTxnResult::Committed(txn),
            Err(denied) => match h.abort_in(Some(&mut held)) {
                Ok(restarted) => GroupTxnResult::Aborted { denied, restarted },
                Err(abort_err) => GroupTxnResult::Wedged(abort_err),
            },
        };
        (result, appended)
    };
    Some(members.iter().zip(unpushed).map(commit).collect())
}

/// Commits the current transaction of `h` as one uninterleaved section
/// over its own shards (see the module docs): the held counterpart of
/// [`TxnHandle::push_all_and_commit`], with the abort of a denied attempt
/// inside the section too. Tallies nothing in
/// [`GroupStats`](crate::global::GroupStats) — it is [`commit_group`]
/// that counts batches.
pub fn commit_held<S: SeqSpec>(h: &mut TxnHandle<S>) -> GroupTxnResult {
    let section = h
        .held_shards()
        .and_then(|shards| held_section(&mut [h], &[0], shards));
    match section.and_then(|mut results| results.pop()) {
        Some((result, _appended)) => result,
        None => GroupTxnResult::Ineligible,
    }
}

/// Commits the given commit-ready transactions through held sections:
/// transactions whose every operation routes to one common shard
/// ([`TxnHandle::group_route`]) are grouped by that shard and each group
/// commits under one lock acquisition and one contiguous reserved stamp
/// range; every other eligible transaction follows with a section of its
/// own over its shard set; ineligible handles are reported back untouched
/// for the caller's per-transaction fallback.
///
/// Every handle must be bound to the same machine. Shard groups run in
/// ascending shard order and preserve input order within a group, then
/// the one-transaction sections run in input order, so a deterministic
/// drive produces a deterministic trace.
pub fn commit_group<S: SeqSpec>(handles: &mut [&mut TxnHandle<S>]) -> GroupOutcome {
    let mut out = GroupOutcome::empty();
    let first = match handles.first() {
        Some(h) => Arc::clone(h.global_state()),
        None => return out,
    };
    out.results = handles
        .iter()
        .map(|h| (h.tid(), GroupTxnResult::Ineligible))
        .collect();
    let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut alone: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (idx, h) in handles.iter().enumerate() {
        assert!(
            Arc::ptr_eq(h.global_state(), &first),
            "commit_group handles must share one machine"
        );
        if let Some(shard) = h.group_route() {
            by_shard.entry(shard).or_default().push(idx);
        } else if let Some(shards) = h.held_shards() {
            alone.push((shards, vec![idx]));
        }
    }
    let batches = by_shard.into_iter().map(|(shard, ms)| (vec![shard], ms));
    for (shards, members) in batches.chain(alone) {
        // Coarse mode raced in between eligibility and acquisition: the
        // members stay Ineligible for the per-txn fallback.
        let Some(results) = held_section(handles, &members, shards) else {
            continue;
        };
        let (mut txns, mut ops) = (0, 0);
        for (&i, (result, appended)) in members.iter().zip(results) {
            if result.is_committed() {
                txns += 1;
                ops += appended;
            }
            out.results[i].1 = result;
        }
        if txns > 0 {
            first.note_group_batch(txns, ops);
            out.batches += 1;
            out.batched_txns += txns;
        }
    }
    out
}
