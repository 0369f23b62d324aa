//! Abstract locks with deadlock detection — the synchronization substrate
//! of transactional boosting (Figure 2's `abstractLock(key).lock()`).
//!
//! Boosting associates a lock with each *abstract* key (not each memory
//! word); two transactions proceed in parallel iff their operations
//! commute, which the per-key discipline guarantees for key-local
//! specifications (see `pushpull-spec`'s mover tables). A transaction
//! that would block on a lock held by a transaction transitively waiting
//! on *it* must abort instead — detected here with an explicit waits-for
//! graph, as deadlock (and its resolution by abort) is exactly the
//! "boosted transaction aborts (e.g. due to deadlock)" path of §4's
//! UNPUSH discussion.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use pushpull_core::op::TxnId;

/// Result of a lock acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free (or freshly granted) and is now held.
    Acquired,
    /// The requesting transaction already holds it.
    AlreadyHeld,
    /// Held by another transaction; a waits-for edge was recorded. Retry
    /// later or abort.
    Busy {
        /// The current owner.
        owner: TxnId,
    },
    /// Waiting would close a cycle in the waits-for graph; the requester
    /// should abort (releasing its locks) instead of waiting.
    WouldDeadlock {
        /// The cycle, starting and ending at the requester.
        cycle: Vec<TxnId>,
    },
}

/// A table of abstract locks keyed by `K`, with waits-for deadlock
/// detection.
///
/// # Examples
///
/// ```
/// use pushpull_ds::locks::{AbstractLockManager, LockOutcome};
/// use pushpull_core::op::TxnId;
///
/// let mut locks = AbstractLockManager::new();
/// assert_eq!(locks.try_lock(TxnId(1), "k"), LockOutcome::Acquired);
/// assert_eq!(locks.try_lock(TxnId(1), "k"), LockOutcome::AlreadyHeld);
/// assert_eq!(locks.try_lock(TxnId(2), "k"), LockOutcome::Busy { owner: TxnId(1) });
/// locks.release_all(TxnId(1));
/// assert_eq!(locks.try_lock(TxnId(2), "k"), LockOutcome::Acquired);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AbstractLockManager<K> {
    owners: HashMap<K, TxnId>,
    held: HashMap<TxnId, HashSet<K>>,
    /// waiter → owner it waits on (single outstanding request per txn).
    waiting: HashMap<TxnId, TxnId>,
}

impl<K: Eq + Hash + Ord + Clone> AbstractLockManager<K> {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self {
            owners: HashMap::new(),
            held: HashMap::new(),
            waiting: HashMap::new(),
        }
    }

    /// Attempts to acquire `key` for `txn`.
    ///
    /// On contention, records a waits-for edge and reports
    /// [`LockOutcome::Busy`] — unless waiting would close a cycle, in
    /// which case no edge is recorded and
    /// [`LockOutcome::WouldDeadlock`] tells the caller to abort.
    pub fn try_lock(&mut self, txn: TxnId, key: K) -> LockOutcome {
        match self.owners.get(&key) {
            None => {
                self.owners.insert(key.clone(), txn);
                self.held.entry(txn).or_default().insert(key);
                self.waiting.remove(&txn);
                LockOutcome::Acquired
            }
            Some(owner) if *owner == txn => LockOutcome::AlreadyHeld,
            Some(owner) => {
                let owner = *owner;
                if let Some(cycle) = self.would_deadlock(txn, owner) {
                    LockOutcome::WouldDeadlock { cycle }
                } else {
                    self.waiting.insert(txn, owner);
                    LockOutcome::Busy { owner }
                }
            }
        }
    }

    /// Would `txn` waiting on `owner` close a waits-for cycle? Returns the
    /// cycle if so.
    fn would_deadlock(&self, txn: TxnId, owner: TxnId) -> Option<Vec<TxnId>> {
        let mut path = vec![txn, owner];
        let mut cur = owner;
        let mut steps = 0;
        while let Some(next) = self.waiting.get(&cur) {
            if *next == txn {
                path.push(txn);
                return Some(path);
            }
            path.push(*next);
            cur = *next;
            steps += 1;
            if steps > self.waiting.len() {
                break; // defensive: graph changed under us
            }
        }
        None
    }

    /// Releases every lock held by `txn` and clears its waits-for edge.
    /// Returns the released keys in ascending order (the hash set's own
    /// order is seeded per process; sorting keeps release order — and
    /// everything downstream of it — deterministic across runs).
    pub fn release_all(&mut self, txn: TxnId) -> Vec<K> {
        self.waiting.remove(&txn);
        let mut keys: Vec<K> = self
            .held
            .remove(&txn)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        keys.sort_unstable();
        for k in &keys {
            self.owners.remove(k);
        }
        keys
    }

    /// Does `txn` hold `key`?
    pub fn holds(&self, txn: TxnId, key: &K) -> bool {
        self.owners.get(key) == Some(&txn)
    }

    /// Current owner of `key`, if locked.
    pub fn owner(&self, key: &K) -> Option<TxnId> {
        self.owners.get(key).copied()
    }

    /// Number of currently held locks.
    pub fn locked_count(&self) -> usize {
        self.owners.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut l = AbstractLockManager::new();
        assert_eq!(l.try_lock(TxnId(1), 10), LockOutcome::Acquired);
        assert_eq!(l.try_lock(TxnId(1), 11), LockOutcome::Acquired);
        assert!(l.holds(TxnId(1), &10));
        let mut released = l.release_all(TxnId(1));
        released.sort();
        assert_eq!(released, vec![10, 11]);
        assert_eq!(l.locked_count(), 0);
    }

    #[test]
    fn contention_reports_owner() {
        let mut l = AbstractLockManager::new();
        l.try_lock(TxnId(1), "k");
        assert_eq!(
            l.try_lock(TxnId(2), "k"),
            LockOutcome::Busy { owner: TxnId(1) }
        );
        assert_eq!(l.owner(&"k"), Some(TxnId(1)));
    }

    #[test]
    fn two_party_deadlock_detected() {
        let mut l = AbstractLockManager::new();
        l.try_lock(TxnId(1), "a");
        l.try_lock(TxnId(2), "b");
        // 1 waits on b (held by 2).
        assert_eq!(
            l.try_lock(TxnId(1), "b"),
            LockOutcome::Busy { owner: TxnId(2) }
        );
        // 2 requesting a would close the cycle.
        match l.try_lock(TxnId(2), "a") {
            LockOutcome::WouldDeadlock { cycle } => {
                assert_eq!(cycle.first(), Some(&TxnId(2)));
                assert_eq!(cycle.last(), Some(&TxnId(2)));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn three_party_deadlock_detected() {
        let mut l = AbstractLockManager::new();
        l.try_lock(TxnId(1), "a");
        l.try_lock(TxnId(2), "b");
        l.try_lock(TxnId(3), "c");
        assert!(matches!(
            l.try_lock(TxnId(1), "b"),
            LockOutcome::Busy { .. }
        ));
        assert!(matches!(
            l.try_lock(TxnId(2), "c"),
            LockOutcome::Busy { .. }
        ));
        assert!(matches!(
            l.try_lock(TxnId(3), "a"),
            LockOutcome::WouldDeadlock { .. }
        ));
    }

    #[test]
    fn release_breaks_wait_chains() {
        let mut l = AbstractLockManager::new();
        l.try_lock(TxnId(1), "a");
        assert!(matches!(
            l.try_lock(TxnId(2), "a"),
            LockOutcome::Busy { .. }
        ));
        l.release_all(TxnId(1));
        assert_eq!(l.try_lock(TxnId(2), "a"), LockOutcome::Acquired);
        // No stale deadlock from the old edge.
        assert!(matches!(
            l.try_lock(TxnId(1), "a"),
            LockOutcome::Busy { .. }
        ));
    }

    #[test]
    fn already_held_is_idempotent() {
        let mut l = AbstractLockManager::new();
        l.try_lock(TxnId(1), 1);
        assert_eq!(l.try_lock(TxnId(1), 1), LockOutcome::AlreadyHeld);
        assert_eq!(l.locked_count(), 1);
    }
}
