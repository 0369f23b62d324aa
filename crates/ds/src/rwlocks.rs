//! The one ownership table of the §6/§7 algorithms: which transaction
//! holds which key, and in which mode, with waits-for deadlock detection.
//!
//! Every algorithm that claims keys records that fact here. Boosting
//! (Figure 2's `abstractLock(key).lock()`) and mixed's boosted half lock
//! a method's declared footprint: each key [`Mode::Exclusive`] and the
//! whole object (a key of its own, `None` in their tables)
//! [`Mode::Shared`], while a method that declares no footprint takes the
//! whole object exclusive — two granularities in one table. Strict
//! two-phase locking, the lock-inference style of pessimistic atomic
//! sections the paper cites as \[4\] (Cherem et al.), does the same with
//! a location's key shared for reads and exclusive for writes; the
//! simulated HTM of §7 records each word it reads or
//! writes the same way, its eager conflicts being the refused requests;
//! and TL2 takes its commit locks exclusive. Readers share, writers
//! exclude, and a sole reader may upgrade.
//!
//! A refused request records a waits-for edge from the requester to the
//! holder it names, unless waiting would close a cycle — the "boosted
//! transaction aborts (e.g. due to deadlock)" path of §4's UNPUSH
//! discussion. The edge lasts until the requester is granted a key or
//! releases everything.
//! A caller that makes several requests in one step makes them under one
//! hold of the table (see `pushpull-tm`'s `util::locked_step`): a grant
//! clears the requester's edge, and the refused request repeated in the
//! same hold records it again before anyone else looks.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use pushpull_core::op::TxnId;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Shared (read) access.
    Shared,
    /// Exclusive (write) access.
    Exclusive,
}

/// Result of an acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RwOutcome {
    /// Granted (or already held in a sufficient mode).
    Granted,
    /// Held incompatibly by others; a waits-for edge was recorded.
    Busy {
        /// The incompatible holder: a foreign writer if there is one,
        /// otherwise the smallest foreign reader.
        holder: TxnId,
    },
    /// Waiting would close a waits-for cycle; abort instead.
    WouldDeadlock,
}

#[derive(Debug, Clone, Default)]
struct Entry {
    readers: HashSet<TxnId>,
    writer: Option<TxnId>,
}

/// A reader–writer lock table keyed by `K`.
///
/// # Examples
///
/// ```
/// use pushpull_ds::rwlocks::{RwLockTable, Mode, RwOutcome};
/// use pushpull_core::op::TxnId;
///
/// let mut t = RwLockTable::new();
/// assert_eq!(t.try_lock(TxnId(1), "k", Mode::Shared), RwOutcome::Granted);
/// assert_eq!(t.try_lock(TxnId(2), "k", Mode::Shared), RwOutcome::Granted);
/// // A writer is refused while readers hold the key.
/// assert_eq!(
///     t.try_lock(TxnId(3), "k", Mode::Exclusive),
///     RwOutcome::Busy { holder: TxnId(1) }
/// );
/// t.release_all(TxnId(1));
/// t.release_all(TxnId(2));
/// assert_eq!(t.try_lock(TxnId(3), "k", Mode::Exclusive), RwOutcome::Granted);
/// assert_eq!(t.writer(&"k"), Some(TxnId(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RwLockTable<K> {
    entries: HashMap<K, Entry>,
    waiting: HashMap<TxnId, TxnId>,
}

impl<K: Eq + Hash> RwLockTable<K> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            waiting: HashMap::new(),
        }
    }

    /// Attempts to acquire `key` in `mode` for `txn`. A sole reader
    /// upgrades to exclusive in place; a grant clears `txn`'s waits-for
    /// edge, a refusal records one (see [`RwOutcome`]).
    pub fn try_lock(&mut self, txn: TxnId, key: K, mode: Mode) -> RwOutcome {
        let entry = self.entries.entry(key).or_default();
        let incompatible_holder = match mode {
            Mode::Shared => match entry.writer {
                Some(w) if w != txn => Some(w),
                _ => None,
            },
            Mode::Exclusive => {
                if let Some(w) = entry.writer.filter(|w| *w != txn) {
                    Some(w)
                } else {
                    // Smallest foreign reader: a deterministic pick
                    // (set iteration order is seeded per process).
                    entry.readers.iter().filter(|r| **r != txn).min().copied()
                }
            }
        };
        if let Some(holder) = incompatible_holder {
            if self.would_deadlock(txn, holder) {
                return RwOutcome::WouldDeadlock;
            }
            self.waiting.insert(txn, holder);
            return RwOutcome::Busy { holder };
        }
        match mode {
            Mode::Shared => {
                entry.readers.insert(txn);
            }
            Mode::Exclusive => {
                entry.readers.remove(&txn); // upgrade
                entry.writer = Some(txn);
            }
        }
        self.waiting.remove(&txn);
        RwOutcome::Granted
    }

    fn would_deadlock(&self, txn: TxnId, holder: TxnId) -> bool {
        let mut cur = holder;
        let mut steps = 0;
        loop {
            if cur == txn {
                return true;
            }
            match self.waiting.get(&cur) {
                Some(next) => cur = *next,
                None => return false,
            }
            steps += 1;
            if steps > self.waiting.len() {
                return false;
            }
        }
    }

    /// Releases everything `txn` holds and clears its wait edge.
    pub fn release_all(&mut self, txn: TxnId) {
        self.waiting.remove(&txn);
        self.entries.retain(|_, e| {
            e.readers.remove(&txn);
            if e.writer == Some(txn) {
                e.writer = None;
            }
            e.writer.is_some() || !e.readers.is_empty()
        });
    }

    /// The transaction holding `key` exclusively, if any.
    pub fn writer(&self, key: &K) -> Option<TxnId> {
        self.entries.get(key).and_then(|e| e.writer)
    }

    /// Number of keys with any holder.
    pub fn locked_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_share_writers_exclude() {
        let mut t = RwLockTable::new();
        assert_eq!(t.try_lock(TxnId(1), 0, Mode::Shared), RwOutcome::Granted);
        assert_eq!(t.try_lock(TxnId(2), 0, Mode::Shared), RwOutcome::Granted);
        assert!(matches!(
            t.try_lock(TxnId(3), 0, Mode::Exclusive),
            RwOutcome::Busy { .. }
        ));
        assert_eq!(t.writer(&0), None);
    }

    #[test]
    fn writer_blocks_readers() {
        let mut t = RwLockTable::new();
        assert_eq!(t.try_lock(TxnId(1), 0, Mode::Exclusive), RwOutcome::Granted);
        assert_eq!(
            t.try_lock(TxnId(2), 0, Mode::Shared),
            RwOutcome::Busy { holder: TxnId(1) }
        );
        // The writer itself may read.
        assert_eq!(t.try_lock(TxnId(1), 0, Mode::Shared), RwOutcome::Granted);
    }

    #[test]
    fn sole_reader_upgrades() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 0, Mode::Shared);
        assert_eq!(t.try_lock(TxnId(1), 0, Mode::Exclusive), RwOutcome::Granted);
        assert_eq!(t.writer(&0), Some(TxnId(1)));
    }

    #[test]
    fn contended_upgrade_is_refused() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 0, Mode::Shared);
        t.try_lock(TxnId(2), 0, Mode::Shared);
        assert!(matches!(
            t.try_lock(TxnId(1), 0, Mode::Exclusive),
            RwOutcome::Busy { .. }
        ));
    }

    #[test]
    fn upgrade_deadlock_detected() {
        // Both readers want to upgrade: classic conversion deadlock.
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 0, Mode::Shared);
        t.try_lock(TxnId(2), 0, Mode::Shared);
        assert!(matches!(
            t.try_lock(TxnId(1), 0, Mode::Exclusive),
            RwOutcome::Busy { .. }
        ));
        assert_eq!(
            t.try_lock(TxnId(2), 0, Mode::Exclusive),
            RwOutcome::WouldDeadlock
        );
    }

    #[test]
    fn release_clears_entries() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 0, Mode::Exclusive);
        t.try_lock(TxnId(1), 1, Mode::Shared);
        assert_eq!(t.locked_count(), 2);
        t.release_all(TxnId(1));
        assert_eq!(t.locked_count(), 0);
        assert_eq!(t.try_lock(TxnId(2), 0, Mode::Exclusive), RwOutcome::Granted);
    }

    #[test]
    fn two_key_deadlock_detected() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 0, Mode::Exclusive);
        t.try_lock(TxnId(2), 1, Mode::Exclusive);
        assert!(matches!(
            t.try_lock(TxnId(1), 1, Mode::Exclusive),
            RwOutcome::Busy { .. }
        ));
        assert_eq!(
            t.try_lock(TxnId(2), 0, Mode::Exclusive),
            RwOutcome::WouldDeadlock
        );
    }

    #[test]
    fn three_party_deadlock_detected() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), "a", Mode::Exclusive);
        t.try_lock(TxnId(2), "b", Mode::Exclusive);
        t.try_lock(TxnId(3), "c", Mode::Exclusive);
        assert_eq!(
            t.try_lock(TxnId(1), "b", Mode::Exclusive),
            RwOutcome::Busy { holder: TxnId(2) }
        );
        assert_eq!(
            t.try_lock(TxnId(2), "c", Mode::Exclusive),
            RwOutcome::Busy { holder: TxnId(3) }
        );
        assert_eq!(
            t.try_lock(TxnId(3), "a", Mode::Exclusive),
            RwOutcome::WouldDeadlock
        );
    }

    #[test]
    fn release_breaks_wait_chains() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), "a", Mode::Exclusive);
        assert!(matches!(
            t.try_lock(TxnId(2), "a", Mode::Exclusive),
            RwOutcome::Busy { .. }
        ));
        t.release_all(TxnId(1));
        assert_eq!(
            t.try_lock(TxnId(2), "a", Mode::Exclusive),
            RwOutcome::Granted
        );
        // No stale deadlock from the old edge.
        assert_eq!(
            t.try_lock(TxnId(1), "a", Mode::Exclusive),
            RwOutcome::Busy { holder: TxnId(2) }
        );
    }

    #[test]
    fn regrant_is_idempotent() {
        let mut t = RwLockTable::new();
        t.try_lock(TxnId(1), 1, Mode::Exclusive);
        assert_eq!(t.try_lock(TxnId(1), 1, Mode::Exclusive), RwOutcome::Granted);
        assert_eq!(t.try_lock(TxnId(1), 1, Mode::Shared), RwOutcome::Granted);
        assert_eq!(t.locked_count(), 1);
        assert_eq!(t.writer(&1), Some(TxnId(1)));
    }

    #[test]
    fn writer_names_the_exclusive_holder_only() {
        let mut t = RwLockTable::new();
        assert_eq!(t.writer(&0), None);
        t.try_lock(TxnId(1), 0, Mode::Shared);
        assert_eq!(t.writer(&0), None, "a reader is not a writer");
        t.try_lock(TxnId(1), 0, Mode::Exclusive);
        assert_eq!(t.writer(&0), Some(TxnId(1)));
        t.release_all(TxnId(1));
        assert_eq!(t.writer(&0), None);
    }

    #[test]
    fn busy_names_a_foreign_writer_first_then_the_smallest_foreign_reader() {
        let mut t = RwLockTable::new();
        for r in [3, 1, 2] {
            t.try_lock(TxnId(r), 0, Mode::Shared);
        }
        assert_eq!(
            t.try_lock(TxnId(1), 0, Mode::Exclusive),
            RwOutcome::Busy { holder: TxnId(2) }
        );
        t.release_all(TxnId(1));
        t.release_all(TxnId(2));
        t.release_all(TxnId(3));
        t.try_lock(TxnId(5), 0, Mode::Exclusive);
        t.try_lock(TxnId(5), 0, Mode::Shared);
        assert_eq!(
            t.try_lock(TxnId(4), 0, Mode::Shared),
            RwOutcome::Busy { holder: TxnId(5) }
        );
        assert_eq!(
            t.try_lock(TxnId(6), 0, Mode::Exclusive),
            RwOutcome::Busy { holder: TxnId(5) }
        );
    }
}
