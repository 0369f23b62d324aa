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
//! The abstract locks are the spec's footprint ([`SeqSpec::method_keys`]):
//! each key exclusive and the whole object shared, or the whole object
//! exclusive for a method with no footprint (a map's `Size`). Footprint
//! law 1, which `pushpull-analysis` certifies, is §6.3's lock law, so the
//! locks order every pair that does not commute and the machine's
//! criteria only confirm them. A counter's increments serialize.

use std::marker::PhantomData;
use std::sync::Mutex;

use pushpull_core::error::MachineError;
use pushpull_core::op::ThreadId;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::rwlocks::{Mode, RwLockTable};

use crate::driver::{Algorithm, Driver, Outcome};
use crate::util::{fork_mutex, locked_step, release_all};

/// A transactional-boosting system over any specification, locking each
/// method's declared footprint.
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

/// The boosting algorithm's cross-thread state: the abstract locks —
/// footprint keys and the whole object (`None`) — as grants in a
/// [`RwLockTable`] behind a short-held mutex.
/// The per-thread state is the number of aborts forced on the thread and
/// not yet taken (the test hook for the Figure 2 abort path,
/// [`BoostingSystem::force_abort`]).
#[derive(Debug)]
pub struct Boosting<S: SeqSpec> {
    locks: Mutex<RwLockTable<Option<u64>>>,
    spec: PhantomData<fn() -> S>,
}

impl<S: SeqSpec> Clone for Boosting<S> {
    fn clone(&self) -> Self {
        Self {
            locks: fork_mutex(&self.locks),
            spec: PhantomData,
        }
    }
}

impl<S: SeqSpec> Algorithm for Boosting<S> {
    type Spec = S;
    type Thread = u32;

    fn name(&self) -> &'static str {
        "boosting"
    }

    /// One boosting tick: abstract locks are taken briefly per method;
    /// APP runs on the thread's own handle with no system-wide lock.
    fn step(&self, h: &mut TxnHandle<S>, forced: &mut u32) -> Result<Outcome, MachineError> {
        if *forced > 0 {
            *forced -= 1;
            return Ok(Outcome::Abort);
        }
        // Commit once no method remains: boosting runs each transaction
        // to completion in program order.
        let options = h.step_options()?;
        let Some((method, _)) = options.first() else {
            let committed = h.commit()?;
            release_all(&self.locks, committed);
            return Ok(Outcome::Committed);
        };
        // This method's abstract locks (2PL: held to commit), then APP;
        // PUSH at once.
        locked_step(h, &self.locks, Mode::Exclusive, method)
    }

    fn abort(&self, h: &mut TxnHandle<S>, _: &mut u32) -> Result<(), MachineError> {
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
        release_all(&self.locks, txn);
        Ok(())
    }
}

impl<S: SeqSpec> BoostingSystem<S> {
    /// Creates a system running `programs[i]` (a list of transaction
    /// bodies) on thread `i`.
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>) -> Self {
        let alg = Boosting {
            locks: Mutex::new(RwLockTable::new()),
            spec: PhantomData,
        };
        Driver::host(alg, spec, programs)
    }

    /// Forces the thread's current transaction to abort at its next tick
    /// — the Figure 2 "if aborting" path, exercised by tests and the
    /// examples.
    pub fn force_abort(&mut self, tid: ThreadId) {
        *self.local_mut(tid) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Tick, TmSystem};
    use crate::util::{next_unblocked_tick, run_round_robin};
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
        assert_eq!(sys.machine().audit().push_cmt_violations(), 0);
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
    fn forced_aborts_are_counted_per_thread_and_forked_by_clone() {
        let mut sys = BoostingSystem::new(
            SetSpec::new(),
            vec![vec![Code::seq_all(vec![
                Code::method(SetMethod::Add(1)),
                Code::method(SetMethod::Add(2)),
            ])]],
        );
        assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Progress);
        sys.force_abort(ThreadId(0));
        sys.force_abort(ThreadId(0));
        let mut fork = sys.clone();
        for s in [&mut sys, &mut fork] {
            assert_eq!(next_unblocked_tick(s, ThreadId(0)), Tick::Aborted);
            assert_eq!(next_unblocked_tick(s, ThreadId(0)), Tick::Aborted);
            assert_eq!(next_unblocked_tick(s, ThreadId(0)), Tick::Progress);
            assert_eq!(s.stats().aborts, 2);
            run_round_robin(s, 1000);
            assert_eq!(s.stats().commits, 1);
        }
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
        assert_eq!(sys.machine().audit().push_cmt_violations(), 0);
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
