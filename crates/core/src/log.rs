//! Local and global operation logs with their status flags (paper §4).
//!
//! The local log `L : list (op × l)` tags each operation with
//!
//! ```text
//! l ::= npshd c | pshd c | pld
//! ```
//!
//! where `npshd`/`pshd` additionally *save the code and stack that were
//! active when the entry was created*, so that `UNAPP` can rewind. The
//! global log `G : list (op × g)` tags operations with
//! `g ::= gUCmt | gCmt`.
//!
//! This module also provides the projections `⌊L⌋ₗ` and `⌊G⌋_gCmt` and
//! id-based membership. [`GlobalLog`] is a read-only merged snapshot of
//! `G`; the log the rules mutate (PUSH's append, UNPUSH's removal, the
//! `cmt(G₁, L, G₂)` flip) is the per-shard log of [`crate::global`].

use crate::lang::Code;
use crate::op::{Op, OpId};
use crate::smallvec::SmallVec;

/// Status flag of a local-log entry.
///
/// `NotPushed`/`Pushed` store what UNAPP needs to restore the thread as
/// it was *before* the operation was applied: the code, exactly like the
/// paper's `npshd c`/`pshd c` annotations (moved here, not copied — its
/// subtrees are shared with the continuation), and the *length* of the
/// observation stack, which the paper keeps in the rule premises. The
/// stack is append-only between an entry's APP and its UNAPP (PULL and
/// UNPULL never touch it), so truncating to the saved length restores it
/// without a copy per entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalFlag<M> {
    /// `npshd c`: applied locally, not yet in the global log.
    NotPushed {
        /// Code active before the APP that created this entry.
        saved_code: Code<M>,
        /// Length of the stack (observation history) before the APP.
        stack_len: usize,
    },
    /// `pshd c`: applied locally and present in the global log.
    Pushed {
        /// Code active before the APP that created this entry.
        saved_code: Code<M>,
        /// Length of the stack (observation history) before the APP.
        stack_len: usize,
    },
    /// `pld`: pulled from the global log (someone else's effect).
    Pulled,
}

impl<M> LocalFlag<M> {
    /// Is this entry `npshd`?
    pub fn is_not_pushed(&self) -> bool {
        matches!(self, LocalFlag::NotPushed { .. })
    }

    /// Is this entry `pshd`?
    pub fn is_pushed(&self) -> bool {
        matches!(self, LocalFlag::Pushed { .. })
    }

    /// Is this entry `pld`?
    pub fn is_pulled(&self) -> bool {
        matches!(self, LocalFlag::Pulled)
    }

    /// Is this entry an *own* operation (`npshd` or `pshd`, but not `pld`)?
    /// The paper writes this side condition as `pshd | npshd`.
    pub fn is_own(&self) -> bool {
        !self.is_pulled()
    }
}

/// One entry of a local log: an operation together with its flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalEntry<M, R> {
    /// The operation record.
    pub op: Op<M, R>,
    /// Its `npshd`/`pshd`/`pld` status.
    pub flag: LocalFlag<M>,
}

/// A thread-local operation log `L`.
///
/// Entries live inline (no heap allocation) until a transaction exceeds
/// [`LOCAL_INLINE`] operations — most transactions in the workloads
/// never spill, so APP/UNAPP stay allocation-free on the hot path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LocalLog<M, R> {
    entries: SmallVec<LocalEntry<M, R>, LOCAL_INLINE>,
}

/// Operations a local log holds before spilling to the heap.
pub const LOCAL_INLINE: usize = 8;

impl<M: Clone, R: Clone> LocalLog<M, R> {
    /// Creates an empty local log.
    pub fn new() -> Self {
        Self {
            entries: SmallVec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in log order.
    pub fn iter(&self) -> std::slice::Iter<'_, LocalEntry<M, R>> {
        self.entries.iter()
    }

    /// The entries as a slice.
    pub fn entries(&self) -> &[LocalEntry<M, R>] {
        &self.entries
    }

    /// Appends an entry.
    pub fn push_entry(&mut self, entry: LocalEntry<M, R>) {
        self.entries.push(entry);
    }

    /// Removes every entry, keeping a spilled log's heap capacity for the
    /// next transaction.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes and returns the last entry.
    pub fn pop_entry(&mut self) -> Option<LocalEntry<M, R>> {
        self.entries.pop()
    }

    /// Removes the entry with the given op id, returning it.
    pub fn remove_by_id(&mut self, id: OpId) -> Option<LocalEntry<M, R>> {
        let idx = self.entries.iter().position(|e| e.op.id == id)?;
        Some(self.entries.remove(idx))
    }

    /// Id-based membership (`op ∈ L` in the paper, equality lifted by id).
    pub fn contains_id(&self, id: OpId) -> bool {
        self.entries.iter().any(|e| e.op.id == id)
    }

    /// Finds an entry by op id.
    pub fn entry(&self, id: OpId) -> Option<&LocalEntry<M, R>> {
        self.entries.iter().find(|e| e.op.id == id)
    }

    /// Finds an entry mutably by op id.
    pub fn entry_mut(&mut self, id: OpId) -> Option<&mut LocalEntry<M, R>> {
        self.entries.iter_mut().find(|e| e.op.id == id)
    }

    /// The entry at index `pos`, mutably.
    pub(crate) fn entry_at_mut(&mut self, pos: usize) -> &mut LocalEntry<M, R> {
        &mut self.entries[pos]
    }

    /// Index of an entry by op id.
    pub fn position(&self, id: OpId) -> Option<usize> {
        self.entries.iter().position(|e| e.op.id == id)
    }

    /// The projection of *all* operations, in log order (`map fst L`).
    pub fn ops(&self) -> Vec<Op<M, R>> {
        self.entries.iter().map(|e| e.op.clone()).collect()
    }

    /// `⌊L⌋_npshd`: operations with flag `npshd`, in log order.
    pub fn not_pushed_ops(&self) -> Vec<Op<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag.is_not_pushed())
            .map(|e| e.op.clone())
            .collect()
    }

    /// `⌊L⌋_pshd`: operations with flag `pshd`, in log order.
    pub fn pushed_ops(&self) -> Vec<Op<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag.is_pushed())
            .map(|e| e.op.clone())
            .collect()
    }

    /// `⌊L⌋_pld`: operations with flag `pld`, in log order.
    pub fn pulled_ops(&self) -> Vec<Op<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag.is_pulled())
            .map(|e| e.op.clone())
            .collect()
    }

    /// Own operations (`pshd | npshd`), in log order.
    pub fn own_ops(&self) -> Vec<Op<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag.is_own())
            .map(|e| e.op.clone())
            .collect()
    }

    /// Are all own operations pushed (CMT criterion (ii), `L ⊆ G`)?
    pub fn fully_pushed(&self) -> bool {
        self.entries.iter().all(|e| !e.flag.is_not_pushed())
    }
}

impl<'a, M, R> IntoIterator for &'a LocalLog<M, R> {
    type Item = &'a LocalEntry<M, R>;
    type IntoIter = std::slice::Iter<'a, LocalEntry<M, R>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Commit status of a global-log entry: `g ::= gUCmt | gCmt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlobalFlag {
    /// `gUCmt`: pushed by a transaction that has not committed.
    Uncommitted,
    /// `gCmt`: the owning transaction has committed.
    Committed,
}

/// One entry of the global log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalEntry<M, R> {
    /// The operation record (carries its owning [`TxnId`](crate::op::TxnId)).
    pub op: Op<M, R>,
    /// Commit status.
    pub flag: GlobalFlag,
}

/// The shared operation log `G`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GlobalLog<M, R> {
    entries: Vec<GlobalEntry<M, R>>,
}

impl<M: Clone, R: Clone> GlobalLog<M, R> {
    /// Builds a log from entries already in order — how the sharded
    /// global state materializes a merged (commit-stamp-sorted) snapshot
    /// of `G`, and how shard rebuilds re-seed their segments.
    pub fn from_entries(entries: Vec<GlobalEntry<M, R>>) -> Self {
        Self { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in log order.
    pub fn iter(&self) -> std::slice::Iter<'_, GlobalEntry<M, R>> {
        self.entries.iter()
    }

    /// The entries as a slice.
    pub fn entries(&self) -> &[GlobalEntry<M, R>] {
        &self.entries
    }

    /// Id-based membership (`op ∈ G`).
    pub fn contains_id(&self, id: OpId) -> bool {
        self.entries.iter().any(|e| e.op.id == id)
    }

    /// Finds an entry by op id.
    pub fn entry(&self, id: OpId) -> Option<&GlobalEntry<M, R>> {
        self.entries.iter().find(|e| e.op.id == id)
    }

    /// Index of an entry by op id.
    pub fn position(&self, id: OpId) -> Option<usize> {
        self.entries.iter().position(|e| e.op.id == id)
    }

    /// `⌊G⌋_gCmt`: committed operations, in log order.
    pub fn committed_ops(&self) -> Vec<Op<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag == GlobalFlag::Committed)
            .map(|e| e.op.clone())
            .collect()
    }

    /// Drops every *uncommitted* entry not owned by ops in `keep` (id set),
    /// the shared-log partial rewind `G ↺_L ``G` of Definition 5.2's
    /// premise. Committed entries are always retained.
    pub fn drop_uncommitted_except(&self, keep: &[OpId]) -> Vec<GlobalEntry<M, R>> {
        self.entries
            .iter()
            .filter(|e| e.flag == GlobalFlag::Committed || keep.contains(&e.op.id))
            .cloned()
            .collect()
    }
}

impl<'a, M, R> IntoIterator for &'a GlobalLog<M, R> {
    type Item = &'a GlobalEntry<M, R>;
    type IntoIter = std::slice::Iter<'a, GlobalEntry<M, R>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpId, TxnId};
    use crate::toy::{CounterMethod, CounterOp};

    fn op(id: u64, txn: u64) -> CounterOp {
        Op::new(OpId(id), TxnId(txn), CounterMethod::Inc, 0)
    }

    fn npshd(id: u64, txn: u64) -> LocalEntry<CounterMethod, i64> {
        LocalEntry {
            op: op(id, txn),
            flag: LocalFlag::NotPushed {
                saved_code: Code::Skip,
                stack_len: 0,
            },
        }
    }

    fn pshd(id: u64, txn: u64) -> LocalEntry<CounterMethod, i64> {
        LocalEntry {
            op: op(id, txn),
            flag: LocalFlag::Pushed {
                saved_code: Code::Skip,
                stack_len: 0,
            },
        }
    }

    fn pld(id: u64, txn: u64) -> LocalEntry<CounterMethod, i64> {
        LocalEntry {
            op: op(id, txn),
            flag: LocalFlag::Pulled,
        }
    }

    #[test]
    fn projections_preserve_order_and_filter() {
        let mut l = LocalLog::new();
        l.push_entry(npshd(0, 1));
        l.push_entry(pshd(1, 1));
        l.push_entry(pld(2, 9));
        l.push_entry(npshd(3, 1));
        let np: Vec<u64> = l.not_pushed_ops().iter().map(|o| o.id.0).collect();
        assert_eq!(np, vec![0, 3]);
        let ps: Vec<u64> = l.pushed_ops().iter().map(|o| o.id.0).collect();
        assert_eq!(ps, vec![1]);
        let pl: Vec<u64> = l.pulled_ops().iter().map(|o| o.id.0).collect();
        assert_eq!(pl, vec![2]);
        let own: Vec<u64> = l.own_ops().iter().map(|o| o.id.0).collect();
        assert_eq!(own, vec![0, 1, 3]);
        assert!(!l.fully_pushed());
    }

    #[test]
    fn drop_uncommitted_except_keeps_committed_and_listed() {
        let entry = |id, txn, flag| GlobalEntry {
            op: op(id, txn),
            flag,
        };
        let g = GlobalLog::from_entries(vec![
            entry(0, 1, GlobalFlag::Committed),
            entry(1, 2, GlobalFlag::Uncommitted),
            entry(2, 3, GlobalFlag::Uncommitted),
        ]);
        let kept = g.drop_uncommitted_except(&[OpId(2)]);
        let ids: Vec<u64> = kept.iter().map(|e| e.op.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn local_remove_and_pop() {
        let mut l = LocalLog::new();
        l.push_entry(npshd(0, 1));
        l.push_entry(npshd(1, 1));
        assert_eq!(l.remove_by_id(OpId(0)).unwrap().op.id, OpId(0));
        assert_eq!(l.pop_entry().unwrap().op.id, OpId(1));
        assert!(l.is_empty());
        assert!(l.fully_pushed(), "vacuously true on empty log");
    }
}
