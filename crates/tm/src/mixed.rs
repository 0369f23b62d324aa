//! Mixed Boosting + HTM transactions — paper §7.
//!
//! One transaction touches *boosted* objects (a skip-list set and a hash
//! table, guarded by abstract locks, PUSHed at APP) and *HTM-managed*
//! integers (`size`, `x`, `y`: word-granularity eager conflict detection,
//! PUSHed at commit). The payoff of the PUSH/PULL model is that an HTM
//! abort can discard the cheap HTM effects while **leaving the expensive
//! boosted effects in the shared view**: UNPUSH the HTM words (possibly
//! out of the order they were pushed), UNAPP back past the aborted
//! access, and march forward again — Figure 7's rule sequence.
//!
//! [`MixedSpec`] is the product specification; [`MixedSystem`] is the
//! generic driver. The exact Figure 7 trace is reproduced by driving the
//! machine directly (see `examples/boosting_htm.rs` and
//! `tests/fig7_mixed.rs`).

use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::faults::HtmFault;
use pushpull_core::log::LocalFlag;
use pushpull_core::op::OpId;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::locks::{AbstractLockManager, LockOutcome};
use pushpull_ds::memory::HtmConflicts;
use pushpull_spec::composite::{Either, Product};
use pushpull_spec::counter::{Counter, CtrMethod, CtrRet};
use pushpull_spec::kvmap::{KvMap, MapMethod, MapRet};
use pushpull_spec::rwmem::{Loc, MemMethod, MemRet, RwMem};
use pushpull_spec::set::{SetMethod, SetRet, SetSpec};

use crate::conflict::ConflictKeyed;
use crate::contention::{default_manager, Governor, WaitVerdict};
use crate::driver::{Algorithm, Driver, Phase, Slot, Tick};
use crate::util::{fork_mutex, is_conflict, pull_committed_lenient};

/// The §7 composite specification: `((skiplist, hashT), (size, memory))`.
pub type MixedSpec = Product<Product<SetSpec, KvMap>, Product<Counter, RwMem>>;

/// Methods of [`MixedSpec`].
pub type MixedMethod = Either<Either<SetMethod, MapMethod>, Either<CtrMethod, MemMethod>>;

/// Return values of [`MixedSpec`].
pub type MixedRet = Either<Either<SetRet, MapRet>, Either<CtrRet, MemRet>>;

/// Builds the standard §7 specification instance.
pub fn mixed_spec() -> MixedSpec {
    Product::new(
        Product::new(SetSpec::new(), KvMap::new()),
        Product::new(Counter::new(), RwMem::new()),
    )
}

/// Method constructors mirroring §7's program text.
pub mod methods {
    use super::*;

    /// `skiplist.insert/remove/contains(x)`.
    pub fn skiplist(m: SetMethod) -> MixedMethod {
        Either::L(Either::L(m))
    }

    /// `hashT.put/get/…`.
    pub fn hash_table(m: MapMethod) -> MixedMethod {
        Either::L(Either::R(m))
    }

    /// `size++` / `size` reads (HTM-managed counter).
    pub fn size(m: CtrMethod) -> MixedMethod {
        Either::R(Either::L(m))
    }

    /// HTM-managed integer reads/writes (`x`, `y`, …).
    pub fn mem(m: MemMethod) -> MixedMethod {
        Either::R(Either::R(m))
    }
}

/// HTM access-tracking granules of the mixed system: the `size` word and
/// the memory words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HtmWord {
    /// The boosted-at-memory-level `size` integer.
    Size,
    /// An ordinary memory word.
    Mem(Loc),
}

/// Is this method HTM-managed (right component)?
pub fn is_htm(m: &MixedMethod) -> bool {
    matches!(m, Either::R(_))
}

fn htm_access(m: &MixedMethod) -> Option<(HtmWord, bool)> {
    // (word, is_write)
    match m {
        Either::R(Either::L(CtrMethod::Add(_))) => Some((HtmWord::Size, true)),
        Either::R(Either::L(CtrMethod::Get)) => Some((HtmWord::Size, false)),
        Either::R(Either::R(MemMethod::Read(l))) => Some((HtmWord::Mem(*l), false)),
        Either::R(Either::R(MemMethod::Write(l, _))) => Some((HtmWord::Mem(*l), true)),
        Either::L(_) => None,
    }
}

/// The mixed Boosting + HTM driver.
///
/// # Examples
///
/// ```
/// use pushpull_tm::mixed::{MixedSystem, methods, mixed_spec};
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::set::SetMethod;
/// use pushpull_spec::counter::CtrMethod;
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let prog = vec![Code::seq_all(vec![
///     Code::method(methods::skiplist(SetMethod::Add(1))),
///     Code::method(methods::size(CtrMethod::Add(1))),
/// ])];
/// let mut sys = MixedSystem::new(mixed_spec(), vec![prog]);
/// while !sys.is_done() {
///     sys.tick(ThreadId(0))?;
/// }
/// assert_eq!(sys.stats().commits, 1);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type MixedSystem = Driver<Mixed>;

/// The mixed algorithm's cross-thread state: abstract locks for the
/// boosted components, the simulated HTM tracker for the word components.
/// Each sits behind a short-held mutex.
#[derive(Debug)]
pub struct Mixed {
    locks: Mutex<AbstractLockManager<<MixedSpec as ConflictKeyed>::LockKey>>,
    tracker: Mutex<HtmConflicts<HtmWord>>,
}

impl Clone for Mixed {
    fn clone(&self) -> Self {
        Self {
            locks: fork_mutex(&self.locks),
            tracker: fork_mutex(&self.tracker),
        }
    }
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
pub struct MixedThread {
    phase: Phase,
    partial_htm_aborts: u64,
}

impl Mixed {
    /// The §7 move: discard trailing (necessarily HTM) unpushed effects
    /// while leaving the pushed boosted effects in the shared view, then
    /// resume forward execution. Re-records the surviving HTM accesses.
    fn partial_htm_abort(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
    ) -> Result<Tick, MachineError> {
        let txn = h.txn();
        // UNAPP the trailing npshd entries (HTM ops are npshd until
        // commit; boosted ops are pushed at APP, so a pshd entry is the
        // rewind boundary).
        loop {
            let last_is_npshd = h
                .local()
                .entries()
                .last()
                .map(|e| e.flag.is_not_pushed())
                .unwrap_or(false);
            if !last_is_npshd {
                break;
            }
            h.unapp()?;
        }
        // Rebuild the tracker from the surviving npshd entries (there are
        // none at the tail now, but earlier HTM ops may survive between
        // pushed boosted ops — they cannot, actually: npshd entries are
        // contiguous at the tail only when every boosted op pushed at
        // APP; re-scan to stay robust).
        self.tracker
            .lock()
            .expect("conflict tracker poisoned")
            .clear(txn);
        let survivors: Vec<MixedMethod> = h
            .local()
            .iter()
            .filter(|e| matches!(e.flag, LocalFlag::NotPushed { .. }))
            .map(|e| e.op.method)
            .collect();
        for m in survivors {
            if let Some((w, is_write)) = htm_access(&m) {
                let res = {
                    let mut tr = self.tracker.lock().expect("conflict tracker poisoned");
                    if is_write {
                        tr.record_write(txn, w)
                    } else {
                        tr.record_read(txn, w)
                    }
                };
                if res.is_err() {
                    // A surviving access still conflicts: give up fully.
                    return self.abort(h, t, gov);
                }
            }
        }
        t.local.partial_htm_aborts += 1;
        t.stats.aborts += 1;
        gov.on_abort();
        Ok(Tick::Aborted)
    }

    fn blocked(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
    ) -> Result<Tick, MachineError> {
        t.stats.blocked_ticks += 1;
        match gov.on_blocked() {
            WaitVerdict::GiveUp => self.abort(h, t, gov),
            WaitVerdict::Wait => Ok(Tick::Blocked),
        }
    }

    fn step_boosted(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
        method: MixedMethod,
    ) -> Result<Tick, MachineError> {
        let txn = h.txn();
        for key in h.spec().lock_keys(&method) {
            // Bind the outcome first: matching on the locked expression would
            // hold the guard across the abort path and self-deadlock.
            let outcome = self
                .locks
                .lock()
                .expect("lock manager poisoned")
                .try_lock(txn, key);
            match outcome {
                LockOutcome::Acquired | LockOutcome::AlreadyHeld => {}
                LockOutcome::Busy { .. } => return self.blocked(h, t, gov),
                LockOutcome::WouldDeadlock { .. } => return self.abort(h, t, gov),
            }
        }
        pull_committed_lenient(h)?;
        let op: OpId = match h.app_method(&method) {
            Ok(op) => op,
            Err(MachineError::NoAllowedResult(_)) => return self.abort(h, t, gov),
            Err(e) if is_conflict(&e) => return self.abort(h, t, gov),
            Err(e) => return Err(e),
        };
        match h.push(op) {
            Ok(()) => {
                gov.on_progress();
                Ok(Tick::Progress)
            }
            Err(e) if is_conflict(&e) => {
                h.unapp()?;
                self.blocked(h, t, gov)
            }
            Err(e) => Err(e),
        }
    }

    fn step_htm(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
        method: MixedMethod,
    ) -> Result<Tick, MachineError> {
        let txn = h.txn();
        // Injected hardware faults: a spurious coherence conflict takes the
        // §7 partial-rewind path; a capacity overflow discards the whole
        // transaction (overflow invalidates the entire HTM write buffer).
        match h.fault_at_htm_access() {
            Some(HtmFault::Conflict) => return self.partial_htm_abort(h, t, gov),
            Some(HtmFault::Capacity) => return self.abort(h, t, gov),
            None => {}
        }
        if let Some((w, is_write)) = htm_access(&method) {
            let res = {
                let mut tr = self.tracker.lock().expect("conflict tracker poisoned");
                if is_write {
                    tr.record_write(txn, w)
                } else {
                    tr.record_read(txn, w)
                }
            };
            if res.is_err() {
                // HTM signals abort: rewind only the HTM suffix (§7).
                return self.partial_htm_abort(h, t, gov);
            }
        }
        pull_committed_lenient(h)?;
        match h.app_method(&method) {
            Ok(_) => {
                gov.on_progress();
                Ok(Tick::Progress)
            }
            Err(MachineError::NoAllowedResult(_)) => self.abort(h, t, gov),
            Err(e) if is_conflict(&e) => self.abort(h, t, gov),
            Err(e) => Err(e),
        }
    }
}

impl Algorithm for Mixed {
    type Spec = MixedSpec;
    type Thread = MixedThread;

    fn name(&self) -> &'static str {
        "mixed-boosting-htm"
    }

    /// One mixed tick; dispatches each method to its boosted or HTM path.
    fn step(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
    ) -> Result<Tick, MachineError> {
        if t.local.phase == Phase::Begin {
            pull_committed_lenient(h)?;
            t.local.phase = Phase::Running;
            return Ok(Tick::Progress);
        }
        let options = h.step_options()?;
        if options.is_empty() {
            // Uninterleaved commit: PUSH the HTM suffix, then CMT.
            let txn = h.txn();
            return match h.push_all_and_commit() {
                Ok(committed) => {
                    self.locks
                        .lock()
                        .expect("lock manager poisoned")
                        .release_all(committed);
                    self.tracker
                        .lock()
                        .expect("conflict tracker poisoned")
                        .clear(txn);
                    t.local.phase = Phase::Begin;
                    t.stats.commits += 1;
                    gov.on_commit();
                    Ok(Tick::Committed)
                }
                Err(e) if is_conflict(&e) => self.abort(h, t, gov),
                Err(e) => Err(e),
            };
        }
        let method = options[0].0;
        if is_htm(&method) {
            self.step_htm(h, t, gov, method)
        } else {
            self.step_boosted(h, t, gov, method)
        }
    }

    /// The full abort: everything rewound, locks and tracker released.
    fn abort(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut Slot<MixedThread>,
        gov: &mut Governor,
    ) -> Result<Tick, MachineError> {
        let txn = h.txn();
        h.abort_and_retry()?;
        self.locks
            .lock()
            .expect("lock manager poisoned")
            .release_all(txn);
        self.tracker
            .lock()
            .expect("conflict tracker poisoned")
            .clear(txn);
        t.local.phase = Phase::Begin;
        t.stats.aborts += 1;
        gov.on_abort();
        Ok(Tick::Aborted)
    }
}

impl MixedSystem {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention manager.
    pub fn new(spec: MixedSpec, programs: Vec<Vec<Code<MixedMethod>>>) -> Self {
        let alg = Mixed {
            locks: Mutex::new(AbstractLockManager::new()),
            tracker: Mutex::new(HtmConflicts::new()),
        };
        Driver::host(alg, spec, programs, default_manager())
    }

    /// HTM aborts resolved by *partial* rewind (boosted effects kept).
    pub fn partial_htm_aborts(&self) -> u64 {
        self.locals().map(|t| t.partial_htm_aborts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::methods::*;
    use super::*;
    use crate::driver::TmSystem;
    use crate::util::run_round_robin;
    use pushpull_core::op::ThreadId;
    use pushpull_core::serializability::check_machine;

    /// The §7 transaction: skiplist.insert(k); size++; hashT.put(k,v); x++.
    fn section7_prog(k: u64, x_loc: u32) -> Vec<Code<MixedMethod>> {
        vec![Code::seq_all(vec![
            Code::method(skiplist(SetMethod::Add(k))),
            Code::method(size(CtrMethod::Add(1))),
            Code::method(hash_table(MapMethod::Put(k, k as i64))),
            Code::method(mem(MemMethod::Write(Loc(x_loc), 1))),
        ])]
    }

    #[test]
    fn solo_mixed_transaction_commits() {
        let mut sys = MixedSystem::new(mixed_spec(), vec![section7_prog(1, 0)]);
        run_round_robin(&mut sys, 200);
        assert_eq!(sys.stats().commits, 1);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
        // Boosted ops pushed at APP; HTM ops pushed in the commit burst.
        let names = sys.machine().trace().rule_names(ThreadId(0));
        let apps = names.iter().filter(|n| **n == "APP").count();
        let pushes = names.iter().filter(|n| **n == "PUSH").count();
        assert_eq!(apps, 4);
        assert_eq!(pushes, 4);
    }

    #[test]
    fn disjoint_mixed_transactions_run_concurrently() {
        let mut sys =
            MixedSystem::new(mixed_spec(), vec![section7_prog(1, 0), section7_prog(2, 1)]);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
    }

    #[test]
    fn htm_word_contention_causes_aborts_but_stays_serializable() {
        // Same x word: HTM conflict; same size word: size++ commutes at
        // the counter level BUT is HTM-tracked here, so it conflicts too.
        let mut sys =
            MixedSystem::new(mixed_spec(), vec![section7_prog(1, 0), section7_prog(2, 0)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(sys.stats().aborts >= 1);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn partial_htm_abort_preserves_boosted_pushes() {
        // T0 runs the §7 transaction up to (and including) size++ and
        // x-write applied; T1 then writes x via HTM, forcing T0's next
        // HTM access… instead, script T0 past its HTM ops, then have T1
        // conflict on the size word so T0's *surviving* access conflicts.
        let mut sys = MixedSystem::new(
            mixed_spec(),
            vec![
                section7_prog(1, 0),
                vec![Code::method(mem(MemMethod::Write(Loc(0), 7)))],
            ],
        );
        // T0: begin, insert(boosted), size++(HTM), put(boosted), x-write(HTM app only).
        for _ in 0..5 {
            sys.tick(ThreadId(0)).unwrap();
        }
        assert_eq!(sys.machine().global().len(), 2, "two boosted pushes in G");
        // T1 begins, then its write to word x conflicts with T0's tracked
        // write → T1 aborts itself (requester-loses).
        assert_eq!(sys.tick(ThreadId(1)).unwrap(), Tick::Progress);
        let t = sys.tick(ThreadId(1)).unwrap();
        assert_eq!(t, Tick::Aborted);
        // T0 commits: pushes size++ and x, CMT.
        let t = sys.tick(ThreadId(0)).unwrap();
        assert_eq!(t, Tick::Committed);
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        assert!(check_machine(sys.machine()).is_serializable());
    }
}
