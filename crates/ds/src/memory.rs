//! TL2's memory substrate: a global version clock and per-location
//! versions, with commit locks kept in the [`RwLockTable`].
//!
//! This simulates the runtime machinery of version-clock STMs (TL2 \[6\],
//! TinySTM \[8\], §6.2) at the granularity the PUSH/PULL model observes:
//! which location was last published when, and who holds it locked.
//! Values themselves live in the machine's logs (the model has no
//! concrete state), so the memory carries versions and ownership only.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use pushpull_core::op::TxnId;

use crate::rwlocks::{Mode, RwLockTable, RwOutcome};

/// A global version clock (TL2's `GV`).
#[derive(Debug, Default)]
pub struct GlobalClock {
    now: AtomicU64,
}

impl GlobalClock {
    /// Creates a clock at time 0.
    pub fn new() -> Self {
        Self {
            now: AtomicU64::new(0),
        }
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Advances the clock, returning the new time (a commit timestamp).
    pub fn tick(&self) -> u64 {
        self.now.fetch_add(1, Ordering::SeqCst) + 1
    }
}

impl Clone for GlobalClock {
    fn clone(&self) -> Self {
        Self {
            now: AtomicU64::new(self.now()),
        }
    }
}

/// Per-location version metadata for a TL2-style optimistic STM.
///
/// Tracks, per location, the version (commit timestamp of the last
/// writer); a commit-time lock is an exclusive grant in the memory's
/// [`RwLockTable`]. The TL2 driver uses it exactly as TL2 does: record
/// read versions during the run, lock the write set at commit, validate
/// the read set against the clock, then publish and bump versions.
///
/// # Examples
///
/// ```
/// use pushpull_ds::memory::{VersionedMemory, GlobalClock};
/// use pushpull_core::op::TxnId;
///
/// let clock = GlobalClock::new();
/// let mut vm: VersionedMemory<u32> = VersionedMemory::new();
/// let v0 = vm.version(&7);
/// assert_eq!(v0, 0);
/// assert!(vm.try_lock(TxnId(1), 7));
/// let t = clock.tick();
/// vm.publish(TxnId(1), &[7], t);
/// assert_eq!(vm.version(&7), t);
/// assert!(!vm.is_locked(&7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VersionedMemory<L> {
    versions: HashMap<L, u64>,
    locks: RwLockTable<L>,
}

impl<L: Eq + Hash + Ord + Clone> VersionedMemory<L> {
    /// Creates an empty versioned memory (all locations at version 0).
    pub fn new() -> Self {
        Self {
            versions: HashMap::new(),
            locks: RwLockTable::new(),
        }
    }

    /// The version of a location (0 if never written).
    pub fn version(&self, loc: &L) -> u64 {
        self.versions.get(loc).copied().unwrap_or(0)
    }

    /// Is the location commit-locked?
    pub fn is_locked(&self, loc: &L) -> bool {
        self.locks.writer(loc).is_some()
    }

    /// Is the location commit-locked by someone other than `txn`?
    pub fn locked_by_other(&self, loc: &L, txn: TxnId) -> bool {
        matches!(self.locks.writer(loc), Some(o) if o != txn)
    }

    /// Tries to take the commit lock on `loc` for `txn`. Idempotent for
    /// the holder. A refusal leaves a waits-for edge until
    /// [`unlock_all`](Self::unlock_all).
    pub fn try_lock(&mut self, txn: TxnId, loc: L) -> bool {
        self.locks.try_lock(txn, loc, Mode::Exclusive) == RwOutcome::Granted
    }

    /// Releases every commit lock held by `txn` (abort path).
    pub fn unlock_all(&mut self, txn: TxnId) {
        self.locks.release_all(txn);
    }

    /// TL2 read-set validation: every location still carries the version
    /// observed at read time and is not locked by another transaction.
    pub fn validate(&self, txn: TxnId, read_set: &[(L, u64)]) -> bool {
        read_set
            .iter()
            .all(|(l, ver)| self.version(l) == *ver && !self.locked_by_other(l, txn))
    }

    /// Publishes `txn`'s write set at commit timestamp `ts`: bumps the
    /// versions and releases its locks.
    pub fn publish(&mut self, txn: TxnId, write_set: &[L], ts: u64) {
        for l in write_set {
            debug_assert!(
                self.locks.writer(l) == Some(txn),
                "publishing unlocked location"
            );
            self.versions.insert(l.clone(), ts);
        }
        self.unlock_all(txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_monotonically() {
        let c = GlobalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.now(), b);
    }

    #[test]
    fn tl2_validate_detects_version_bumps() {
        let mut vm: VersionedMemory<u32> = VersionedMemory::new();
        let read_set = vec![(1u32, vm.version(&1))];
        // Another txn commits to loc 1.
        assert!(vm.try_lock(TxnId(9), 1));
        vm.publish(TxnId(9), &[1], 5);
        assert!(
            !vm.validate(TxnId(1), &read_set),
            "stale read must fail validation"
        );
        let fresh = vec![(1u32, vm.version(&1))];
        assert!(vm.validate(TxnId(1), &fresh));
    }

    #[test]
    fn tl2_validate_detects_foreign_locks() {
        let mut vm: VersionedMemory<u32> = VersionedMemory::new();
        let read_set = vec![(1u32, 0)];
        assert!(vm.try_lock(TxnId(2), 1));
        assert!(!vm.validate(TxnId(1), &read_set));
        assert!(
            vm.validate(TxnId(2), &read_set),
            "own lock does not invalidate"
        );
        vm.unlock_all(TxnId(2));
        assert!(vm.validate(TxnId(1), &read_set));
    }

    #[test]
    fn lock_is_exclusive_but_reentrant() {
        let mut vm: VersionedMemory<u32> = VersionedMemory::new();
        assert!(vm.try_lock(TxnId(1), 3));
        assert!(vm.try_lock(TxnId(1), 3));
        assert!(!vm.try_lock(TxnId(2), 3));
    }
}
