//! The counters part of [`GlobalState`]: the generators every thread
//! writes, the criteria audit, and the observability tallies — each a
//! lock-free atomic, so counting never takes a lock. Besides the audit,
//! every tally is one [`Tally`]; the public snapshots
//! ([`GroupStats`], [`NestingStats`], the lock statistics) are built from
//! it on read.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::audit::{AtomicAudit, CachePadded, CriteriaAudit};
use crate::op::{OpIdGen, TxnId};
use crate::scope::NestingStats;
use crate::spec::SeqSpec;

use super::GlobalState;

/// A fixed-length array of relaxed atomic counters: the storage of every
/// tally the counters part keeps besides the audit.
#[derive(Debug)]
pub(super) struct Tally(Box<[AtomicU64]>);

impl Tally {
    fn zeroed(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0)).collect())
    }

    /// Adds `n` to counter `i`.
    pub(super) fn add(&self, i: usize, n: u64) {
        self.0[i].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of counter `i`.
    pub(super) fn load(&self, i: usize) -> u64 {
        self.0[i].load(Ordering::Relaxed)
    }

    /// A copy carrying the current values over (deep clones and
    /// resharding preserve counters).
    fn copy(&self) -> Self {
        Self(self.values().map(AtomicU64::new).collect())
    }

    /// Every counter's current value, in index order.
    fn values(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.0.len()).map(|i| self.load(i))
    }
}

/// Counters of [`commit_group`](crate::group::commit_group): the held
/// sections it committed and the transactions in them. Each section
/// holds one transaction, so both read the one count; `pushpull-server`
/// commits through [`commit_held`](crate::group::commit_held), which
/// counts nothing, so a server's machine reads zero in both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Held sections that committed.
    pub batches: u64,
    /// Transactions committed through them.
    pub batched_txns: u64,
}

/// One counter of [`NestingStats`], named by the event it counts; the
/// discriminant is its slot in the nesting tally.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Nesting {
    Opened,
    Merged,
    Aborted,
    OpenCommit,
    Compensation,
    UndoInverses,
}

/// The counters part: the three generators of ids and trace order, the
/// audit, and the tallies.
#[derive(Debug)]
pub(crate) struct Counters {
    /// Op ids, transaction ids and trace sequence numbers — three of the
    /// four generators every thread writes (the log part mints stamps),
    /// each on a cache line of its own ([`CachePadded`]), so no write to
    /// them evicts the read-mostly fields every rule reads.
    pub(crate) ids: CachePadded<OpIdGen>,
    pub(super) next_txn: CachePadded<AtomicU64>,
    /// Global trace-event sequence: one `fetch_add` per recorded event
    /// gives a real-time-consistent total order across threads.
    pub(super) seq: CachePadded<AtomicU64>,
    pub(crate) audit: AtomicAudit,
    /// Per-shard lock acquisitions (observability, not audit).
    pub(super) lock_acquires: Tally,
    /// Per-shard contended acquisitions: those that found the lock
    /// already held and had to wait.
    pub(super) lock_contended: Tally,
    /// Held sections [`commit_group`](crate::group::commit_group)
    /// committed (see [`GroupStats`]).
    group: Tally,
    /// Nested-scope traffic counters (see [`NestingStats`]).
    nesting: Tally,
}

impl Counters {
    /// Zeroed counters for a log of `shards` shards.
    pub(super) fn new(shards: usize) -> Self {
        Self {
            ids: CachePadded(OpIdGen::new()),
            next_txn: CachePadded(AtomicU64::new(0)),
            seq: CachePadded(AtomicU64::new(0)),
            audit: AtomicAudit::new(),
            lock_acquires: Tally::zeroed(shards),
            lock_contended: Tally::zeroed(shards),
            group: Tally::zeroed(1),
            nesting: Tally::zeroed(Nesting::UndoInverses as usize + 1),
        }
    }

    /// A copy carrying every value over (a deep clone).
    pub(super) fn copy(&self) -> Self {
        Self {
            ids: self.ids.clone(),
            next_txn: CachePadded(AtomicU64::new(self.next_txn.load(Ordering::Relaxed))),
            seq: CachePadded(AtomicU64::new(self.seq.load(Ordering::Relaxed))),
            audit: self.audit.clone(),
            lock_acquires: self.lock_acquires.copy(),
            lock_contended: self.lock_contended.copy(),
            group: self.group.copy(),
            nesting: self.nesting.copy(),
        }
    }

    /// A copy for a layout of `shards` shards: the lock tallies count per
    /// shard, so they start afresh; everything else carries over.
    pub(super) fn resharded(&self, shards: usize) -> Self {
        Self {
            lock_acquires: Tally::zeroed(shards),
            lock_contended: Tally::zeroed(shards),
            ..self.copy()
        }
    }
}

impl<S: SeqSpec> GlobalState<S> {
    /// A snapshot of the criteria audit.
    pub fn audit_snapshot(&self) -> CriteriaAudit {
        self.counters.audit.snapshot()
    }

    /// Total `(lock acquisitions, contended acquisitions)` across all
    /// shard locks.
    pub fn lock_stats(&self) -> (u64, u64) {
        let c = &self.counters;
        (
            c.lock_acquires.values().sum(),
            c.lock_contended.values().sum(),
        )
    }

    /// Per-shard `(lock acquisitions, contended acquisitions)`.
    pub fn lock_stats_per_shard(&self) -> Vec<(u64, u64)> {
        let c = &self.counters;
        c.lock_acquires
            .values()
            .zip(c.lock_contended.values())
            .collect()
    }

    /// Mints the next trace-event sequence number.
    pub(crate) fn next_seq(&self) -> u64 {
        self.counters.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// How many trace events this machine has recorded — sequence numbers
    /// minted. Always 0 on an untraced machine
    /// ([`Machine::set_trace`](crate::machine::Machine::set_trace)).
    pub fn events_recorded(&self) -> u64 {
        self.counters.seq.load(Ordering::Relaxed)
    }

    /// Mints a fresh transaction id.
    pub(crate) fn fresh_txn(&self) -> TxnId {
        TxnId(self.counters.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// A snapshot of the held-commit counters.
    pub fn group_stats(&self) -> GroupStats {
        let sections = self.counters.group.load(0);
        GroupStats {
            batches: sections,
            batched_txns: sections,
        }
    }

    /// Records one transaction committed by
    /// [`commit_group`](crate::group::commit_group) in a held section of
    /// its own.
    pub(crate) fn note_held_commit(&self) {
        self.counters.group.add(0, 1);
    }

    /// A snapshot of the nested-scope traffic counters.
    pub fn nesting_stats(&self) -> NestingStats {
        let n = &self.counters.nesting;
        NestingStats {
            scopes_opened: n.load(Nesting::Opened as usize),
            scopes_merged: n.load(Nesting::Merged as usize),
            scopes_aborted: n.load(Nesting::Aborted as usize),
            open_commits: n.load(Nesting::OpenCommit as usize),
            compensations_replayed: n.load(Nesting::Compensation as usize),
            undo_inverses: n.load(Nesting::UndoInverses as usize),
        }
    }

    /// Counts `n` nested-scope events of one kind.
    pub(crate) fn note_nesting(&self, what: Nesting, n: u64) {
        self.counters.nesting.add(what as usize, n);
    }
}
