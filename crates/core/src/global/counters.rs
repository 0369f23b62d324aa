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

/// Counters of [`commit_group`](crate::group::commit_group): how many
/// batches — held sections with at least one commit; a multi-shard
/// transaction's section is a batch of one — were sealed, how many
/// transactions rode them, how the batch sizes distribute, and how many
/// shard-lock acquisitions the held sections amortized away compared to
/// the per-transaction path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Batches executed as one held section.
    pub batches: u64,
    /// Transactions committed through a batch.
    pub batched_txns: u64,
    /// Operations appended through a batch (each would have been its own
    /// lock acquisition on the per-transaction path).
    pub batched_ops: u64,
    /// Lock acquisitions the batch path saved: for a one-shard batch of
    /// `n` transactions and `k` appended operations the per-transaction
    /// path pays `k` PUSH acquisitions plus `n` CMT acquisitions where the
    /// batch pays one (for a transaction over `s` shards, `k + s` against
    /// `s` — the same `k + n − 1` with `n = 1`).
    pub locks_saved: u64,
    /// Batch-size histogram in power-of-two buckets: sizes 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64, 65+ committed transactions. Bucket
    /// order is fixed ascending, so any dump of it is deterministic.
    pub size_hist: [u64; 8],
}

impl GroupStats {
    /// The histogram bucket a batch of `n` transactions lands in.
    pub fn bucket(n: u64) -> usize {
        match n {
            0 | 1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            17..=32 => 5,
            33..=64 => 6,
            _ => 7,
        }
    }

    /// Upper bound (inclusive) of histogram bucket `i`, for rendering.
    pub fn bucket_label(i: usize) -> &'static str {
        ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"][i.min(7)]
    }
}

/// The group tally's layout: the four scalar counters of [`GroupStats`]
/// in field order, then the eight histogram buckets.
const GROUP_SLOTS: usize = 4 + 8;

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
    /// Group-commit batch counters (see [`GroupStats`]).
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
            group: Tally::zeroed(GROUP_SLOTS),
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

    /// A snapshot of the group-commit batch counters.
    pub fn group_stats(&self) -> GroupStats {
        let g = &self.counters.group;
        GroupStats {
            batches: g.load(0),
            batched_txns: g.load(1),
            batched_ops: g.load(2),
            locks_saved: g.load(3),
            size_hist: std::array::from_fn(|i| g.load(4 + i)),
        }
    }

    /// Records one sealed group-commit batch of `txns` committed
    /// transactions and `ops` appended operations under a single lock
    /// acquisition.
    pub(crate) fn note_group_batch(&self, txns: u64, ops: u64) {
        let g = &self.counters.group;
        g.add(0, 1);
        g.add(1, txns);
        g.add(2, ops);
        // Per-transaction cost of the same work: one acquisition per
        // appended op (PUSH) plus one per transaction (CMT); the batch
        // paid exactly one.
        g.add(3, (ops + txns).saturating_sub(1));
        g.add(4 + GroupStats::bucket(txns), 1);
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
