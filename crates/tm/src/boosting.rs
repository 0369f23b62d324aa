//! Transactional boosting (Herlihy & Koskinen \[11\]) — the pessimistic,
//! abstract-conflict algorithm of Figure 2 and §6.3.
//!
//! Rule pattern (Figure 2's right column):
//!
//! * on each operation: acquire the method's abstract lock(s), implicitly
//!   PULL the committed shared state, then **APP; PUSH** — effects go to
//!   the shared view immediately ("modifications are made directly to the
//!   shared state");
//! * on abort (deadlock or forced): **UNPUSH; UNAPP** in reverse order —
//!   realized by real implementations as inverse operations;
//! * on completion: **CMT**, then release the abstract locks.
//!
//! The abstract locks make PUSH criterion (ii) hold by construction for
//! key-local methods (distinct keys ⇒ movers, per the spec's tables).
//! For methods whose conflicts exclusive locks cannot express (e.g.
//! lock-free commutative `Add` vs a `Get`), a failing PUSH criterion is
//! handled as a conflict: the driver waits briefly, then aborts — the
//! checked machine guarantees nothing unserializable ever slips through.

use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::op::{OpId, ThreadId};
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::locks::{AbstractLockManager, LockOutcome};

use crate::conflict::ConflictKeyed;
use crate::driver::{Algorithm, Driver, Outcome};
use crate::util::{fork_mutex, pull_committed_lenient};

/// A transactional-boosting system over any [`ConflictKeyed`]
/// specification.
///
/// # Examples
///
/// ```
/// use pushpull_tm::boosting::BoostingSystem;
/// use pushpull_tm::driver::{Tick, TmSystem};
/// use pushpull_spec::kvmap::{KvMap, MapMethod};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// // Two single-op transactions on distinct keys run without conflict.
/// let mut sys = BoostingSystem::new(
///     KvMap::new(),
///     vec![
///         vec![Code::method(MapMethod::Put(1, 10))],
///         vec![Code::method(MapMethod::Put(2, 20))],
///     ],
/// );
/// while !sys.is_done() {
///     for t in 0..sys.thread_count() {
///         sys.tick(ThreadId(t))?;
///     }
/// }
/// assert_eq!(sys.stats().commits, 2);
/// assert_eq!(sys.stats().aborts, 0);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type BoostingSystem<S> = Driver<Boosting<S>>;

/// The boosting algorithm's cross-thread state: the abstract lock
/// manager and the forced-abort test hook, each behind a short-held
/// mutex. There is no per-thread state.
#[derive(Debug)]
pub struct Boosting<S: ConflictKeyed> {
    locks: Mutex<AbstractLockManager<S::LockKey>>,
    /// Thread indices that must abort at their next tick (test hook for
    /// the Figure 2 abort path).
    forced_aborts: Mutex<Vec<ThreadId>>,
}

impl<S: ConflictKeyed> Clone for Boosting<S> {
    fn clone(&self) -> Self {
        Self {
            locks: fork_mutex(&self.locks),
            forced_aborts: fork_mutex(&self.forced_aborts),
        }
    }
}

impl<S: ConflictKeyed> Algorithm for Boosting<S> {
    type Spec = S;
    type Thread = ();

    fn name(&self) -> &'static str {
        "boosting"
    }

    /// One boosting tick: abstract locks are taken briefly per method;
    /// APP runs on the thread's own handle with no system-wide lock.
    fn step(&self, h: &mut TxnHandle<S>, _: &mut ()) -> Result<Outcome, MachineError> {
        {
            let mut forced = self
                .forced_aborts
                .lock()
                .expect("forced-abort list poisoned");
            if let Some(pos) = forced.iter().position(|f| *f == h.tid()) {
                forced.remove(pos);
                return Ok(Outcome::Abort);
            }
        }
        let txn = h.txn();
        // Commit once no method remains: boosting runs each transaction
        // to completion in program order.
        let options = h.step_options()?;
        if options.is_empty() {
            let committed = match h.commit() {
                Ok(c) => c,
                Err(e) if e.is_criterion() => return Ok(Outcome::Abort),
                Err(e) => return Err(e),
            };
            self.locks
                .lock()
                .expect("lock manager poisoned")
                .release_all(committed);
            return Ok(Outcome::Committed);
        }
        let (method, _) = &options[0];
        // Acquire this method's abstract locks (2PL: held to commit).
        for key in h.spec().lock_keys(method) {
            match self
                .locks
                .lock()
                .expect("lock manager poisoned")
                .try_lock(txn, key)
            {
                LockOutcome::Acquired | LockOutcome::AlreadyHeld => {}
                // The contention policy decides how long to tolerate
                // push-wait / lock-wait livelocks the waits-for graph
                // cannot see.
                LockOutcome::Busy { .. } => return Ok(Outcome::Wait),
                LockOutcome::WouldDeadlock { .. } => return Ok(Outcome::Abort),
            }
        }
        // Implicit PULL: refresh the committed shared view (the paper's
        // "the local view is the same as the shared view").
        pull_committed_lenient(h)?;
        // APP, then immediately PUSH.
        let method = method.clone();
        let op: OpId = match h.app_method(&method) {
            Ok(op) => op,
            Err(MachineError::NoAllowedResult(_)) => return Ok(Outcome::Abort),
            Err(e) if e.is_criterion() => return Ok(Outcome::Abort),
            Err(e) => return Err(e),
        };
        match h.push(op) {
            Ok(()) => Ok(Outcome::Progress),
            Err(e) if e.is_criterion() => {
                // Criterion (ii)/(iii) conflict the locks could not
                // express: undo the APP and wait for the conflicting
                // transaction to commit (abort if it takes too long).
                h.unapp()?;
                Ok(Outcome::Wait)
            }
            Err(e) => Err(e),
        }
    }

    fn abort(&self, h: &mut TxnHandle<S>, _: &mut ()) -> Result<(), MachineError> {
        let txn = h.txn();
        // §4's "UNPUSH is typically implemented via inverse operations":
        // derive the undo log — the spec-level inverse of each live
        // operation, in reverse order — before rewinding. The rollback
        // itself still runs through the back rules (traces are unchanged);
        // the derived program is what a boosted runtime would execute
        // against the shared object, and it feeds the nesting counters.
        // Specs without an inverse oracle fall back to plain rewind
        // accounting.
        let _undo = h.undo_program();
        // Figure 2's abort path: UNPUSH; UNAPP in reverse order
        // (rewind_all walks the local log from the tail), then unlock.
        h.abort_and_retry()?;
        self.locks
            .lock()
            .expect("lock manager poisoned")
            .release_all(txn);
        Ok(())
    }
}

impl<S: ConflictKeyed> BoostingSystem<S> {
    /// Creates a system running `programs[i]` (a list of transaction
    /// bodies) on thread `i`.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>) -> Self {
        let alg = Boosting {
            locks: Mutex::new(AbstractLockManager::new()),
            forced_aborts: Mutex::new(Vec::new()),
        };
        Driver::host(alg, spec, programs)
    }

    /// Forces the thread's current transaction to abort at its next tick
    /// — the Figure 2 "if aborting" path, exercised by tests and the
    /// examples.
    pub fn force_abort(&mut self, tid: ThreadId) {
        self.algorithm()
            .forced_aborts
            .lock()
            .expect("forced-abort list poisoned")
            .push(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Tick, TmSystem};
    use crate::util::run_round_robin;
    use pushpull_core::op::ThreadId;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::kvmap::{KvMap, MapMethod};
    use pushpull_spec::set::{SetMethod, SetSpec};

    #[test]
    fn disjoint_key_transactions_commit_without_aborts() {
        let mut sys = BoostingSystem::new(
            KvMap::new(),
            vec![
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(1, 10)),
                    Code::method(MapMethod::Get(1)),
                ])],
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(2, 20)),
                    Code::method(MapMethod::Get(2)),
                ])],
            ],
        );
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.stats().aborts, 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn same_key_transactions_serialize_via_lock() {
        let mut sys = BoostingSystem::new(
            KvMap::new(),
            vec![
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(1, 10)),
                    Code::method(MapMethod::Get(1)),
                ])],
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(1, 20)),
                    Code::method(MapMethod::Get(1)),
                ])],
            ],
        );
        run_round_robin(&mut sys, 2000);
        assert_eq!(sys.stats().commits, 2);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
        assert!(
            sys.stats().blocked_ticks > 0,
            "second thread must have waited"
        );
    }

    #[test]
    fn forced_abort_takes_the_unpush_unapp_path() {
        let mut sys = BoostingSystem::new(
            SetSpec::new(),
            vec![vec![Code::seq_all(vec![
                Code::method(SetMethod::Add(1)),
                Code::method(SetMethod::Add(2)),
            ])]],
        );
        // Apply+push the first op.
        assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Progress);
        sys.force_abort(ThreadId(0));
        assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Aborted);
        let names = sys.machine().trace().rule_names(ThreadId(0));
        // …, APP, PUSH, UNPUSH, UNAPP, abort, begin
        assert!(names.windows(2).any(|w| w == ["UNPUSH", "UNAPP"]));
        // Retry runs to completion.
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 1);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn deadlock_is_broken_by_abort() {
        // T0 locks key 1 then wants key 2; T1 locks key 2 then wants key 1.
        let prog = |a: u64, b: u64| {
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(a, 1)),
                Code::method(MapMethod::Put(b, 2)),
            ])]
        };
        let mut sys = BoostingSystem::new(KvMap::new(), vec![prog(1, 2), prog(2, 1)]);
        run_round_robin(&mut sys, 4000);
        assert_eq!(sys.stats().commits, 2);
        assert!(
            sys.stats().aborts >= 1,
            "deadlock must have aborted someone"
        );
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn boosted_reads_see_committed_state() {
        let mut sys = BoostingSystem::new(
            KvMap::new(),
            vec![
                vec![Code::method(MapMethod::Put(7, 42))],
                vec![Code::method(MapMethod::Get(7))],
            ],
        );
        // Run T0 to commit first.
        while sys.machine().thread(ThreadId(0)).unwrap().commits() == 0 {
            sys.tick(ThreadId(0)).unwrap();
        }
        run_round_robin(&mut sys, 1000);
        // T1's get observed Some(42).
        let committed = sys.machine().committed_txns();
        let get_txn = committed.iter().find(|t| t.thread == ThreadId(1)).unwrap();
        assert_eq!(
            get_txn.ops[0].ret,
            pushpull_spec::kvmap::MapRet::Val(Some(42)),
        );
    }
}
