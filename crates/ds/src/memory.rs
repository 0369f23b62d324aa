//! Memory substrates: a TL2-style versioned memory with a global version
//! clock, and an HTM-style eager conflict tracker.
//!
//! These simulate the hardware/runtime machinery the paper's evaluated
//! systems rely on — Intel/IBM HTM (§1, §7) and version-clock STMs
//! (TL2 \[6\], TinySTM \[8\], §6.2) — at the granularity the PUSH/PULL model
//! observes: which location was touched by whom, and whether a conflict
//! arises. Values themselves live in the machine's logs (the model has no
//! concrete state), so these trackers carry versions and ownership only.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use pushpull_core::op::TxnId;

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
/// Tracks, per location: the version (commit timestamp of the last
/// writer) and an optional commit-time lock. The optimistic driver uses
/// it exactly as TL2 does: record read versions during the run, lock the
/// write set at commit, validate the read set against the clock, then
/// publish and bump versions.
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
    locks: HashMap<L, TxnId>,
}

impl<L: Eq + Hash + Ord + Clone> VersionedMemory<L> {
    /// Creates an empty versioned memory (all locations at version 0).
    pub fn new() -> Self {
        Self {
            versions: HashMap::new(),
            locks: HashMap::new(),
        }
    }

    /// The version of a location (0 if never written).
    pub fn version(&self, loc: &L) -> u64 {
        self.versions.get(loc).copied().unwrap_or(0)
    }

    /// Is the location commit-locked?
    pub fn is_locked(&self, loc: &L) -> bool {
        self.locks.contains_key(loc)
    }

    /// Is the location commit-locked by someone other than `txn`?
    pub fn locked_by_other(&self, loc: &L, txn: TxnId) -> bool {
        matches!(self.locks.get(loc), Some(o) if *o != txn)
    }

    /// Tries to take the commit lock on `loc` for `txn`. Idempotent for
    /// the holder.
    pub fn try_lock(&mut self, txn: TxnId, loc: L) -> bool {
        match self.locks.get(&loc) {
            None => {
                self.locks.insert(loc, txn);
                true
            }
            Some(o) => *o == txn,
        }
    }

    /// Releases every commit lock held by `txn` (abort path).
    pub fn unlock_all(&mut self, txn: TxnId) {
        self.locks.retain(|_, o| *o != txn);
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
                self.locks.get(l) == Some(&txn),
                "publishing unlocked location"
            );
            self.versions.insert(l.clone(), ts);
        }
        self.unlock_all(txn);
    }
}

/// An eagerly-conflicting access tracker — the observable behaviour of a
/// best-effort HTM (Intel Haswell-style, §7): the first conflicting
/// access between two live transactions aborts one of them.
#[derive(Debug, Clone, Default)]
pub struct HtmConflicts<L> {
    readers: HashMap<L, HashSet<TxnId>>,
    writers: HashMap<L, TxnId>,
}

/// A detected HTM conflict: `loc` is contended with `other`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtmConflict<L> {
    /// The contended location.
    pub loc: L,
    /// The transaction already holding a conflicting access.
    pub other: TxnId,
}

impl<L: Eq + Hash + Ord + Clone> HtmConflicts<L> {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            readers: HashMap::new(),
            writers: HashMap::new(),
        }
    }

    /// Records a transactional read. Conflicts with a foreign writer.
    pub fn record_read(&mut self, txn: TxnId, loc: L) -> Result<(), HtmConflict<L>> {
        if let Some(w) = self.writers.get(&loc) {
            if *w != txn {
                return Err(HtmConflict { loc, other: *w });
            }
        }
        self.readers.entry(loc).or_default().insert(txn);
        Ok(())
    }

    /// Records a transactional write. Conflicts with any foreign reader
    /// or writer.
    pub fn record_write(&mut self, txn: TxnId, loc: L) -> Result<(), HtmConflict<L>> {
        if let Some(w) = self.writers.get(&loc) {
            if *w != txn {
                return Err(HtmConflict { loc, other: *w });
            }
        }
        if let Some(rs) = self.readers.get(&loc) {
            // Smallest foreign reader: deterministic conflict report.
            if let Some(other) = rs.iter().filter(|r| **r != txn).min() {
                return Err(HtmConflict { loc, other: *other });
            }
        }
        self.writers.insert(loc.clone(), txn);
        self.readers.entry(loc).or_default().insert(txn);
        Ok(())
    }

    /// Forgets every access of `txn` (commit or abort).
    pub fn clear(&mut self, txn: TxnId) {
        self.writers.retain(|_, w| *w != txn);
        for rs in self.readers.values_mut() {
            rs.remove(&txn);
        }
        self.readers.retain(|_, rs| !rs.is_empty());
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

    #[test]
    fn htm_read_write_conflicts() {
        let mut h: HtmConflicts<u32> = HtmConflicts::new();
        assert!(h.record_read(TxnId(1), 7).is_ok());
        assert!(h.record_read(TxnId(2), 7).is_ok(), "readers share");
        let err = h.record_write(TxnId(1), 7).unwrap_err();
        assert_eq!(err.other, TxnId(2), "write conflicts with foreign reader");
        h.clear(TxnId(2));
        assert!(h.record_write(TxnId(1), 7).is_ok());
        let err = h.record_read(TxnId(2), 7).unwrap_err();
        assert_eq!(err.other, TxnId(1), "read conflicts with foreign writer");
    }

    #[test]
    fn htm_clear_releases_everything() {
        let mut h: HtmConflicts<u32> = HtmConflicts::new();
        h.record_write(TxnId(1), 1).unwrap();
        h.record_write(TxnId(1), 2).unwrap();
        assert!(h.record_read(TxnId(2), 2).is_err(), "held by the writer");
        h.clear(TxnId(1));
        assert!(h.record_write(TxnId(2), 1).is_ok());
        assert!(h.record_write(TxnId(2), 2).is_ok());
    }
}
