//! Mixed Boosting + HTM transactions — paper §7.
//!
//! One transaction touches *boosted* objects (a skip-list set and a hash
//! table, guarded by abstract locks on their footprint keys, PUSHed at
//! APP — a hash-table `Size`, which declares no footprint, would lock the
//! whole product) and *HTM-managed*
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
use pushpull_core::op::TxnId;
use pushpull_core::{Code, TxnHandle};
use pushpull_ds::rwlocks::{Mode, RwLockTable, RwOutcome};
use pushpull_spec::composite::{Either, Product};
use pushpull_spec::counter::{Counter, CtrMethod, CtrRet};
use pushpull_spec::kvmap::{KvMap, MapMethod, MapRet};
use pushpull_spec::rwmem::{Loc, MemMethod, MemRet, RwMem};
use pushpull_spec::set::{SetMethod, SetRet, SetSpec};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::{fork_mutex, locked_step, pull_committed_lenient, release_all};

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

/// The HTM word an HTM-managed method touches, shared for a read and
/// exclusive for a write.
fn htm_access(m: &MixedMethod) -> Option<(HtmWord, Mode)> {
    match m {
        Either::R(Either::L(CtrMethod::Add(_))) => Some((HtmWord::Size, Mode::Exclusive)),
        Either::R(Either::L(CtrMethod::Get)) => Some((HtmWord::Size, Mode::Shared)),
        Either::R(Either::R(MemMethod::Read(l))) => Some((HtmWord::Mem(*l), Mode::Shared)),
        Either::R(Either::R(MemMethod::Write(l, _))) => Some((HtmWord::Mem(*l), Mode::Exclusive)),
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

/// The mixed algorithm's cross-thread state: two [`RwLockTable`]s, one
/// holding the boosted components' abstract locks (their footprint keys
/// exclusive, as under [boosting](crate::boosting)), one the HTM words'
/// reads and writes (the simulated HTM's conflicts). Each sits
/// behind a short-held mutex, and a partial HTM rewind releases only the
/// second.
#[derive(Debug)]
pub struct Mixed {
    locks: Mutex<RwLockTable<Option<u64>>>,
    tracker: Mutex<RwLockTable<HtmWord>>,
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
    /// Records `txn`'s access to an HTM word; `false` is an HTM conflict
    /// (a busy word and a would-be deadlock alike).
    fn record(&self, txn: TxnId, word: HtmWord, mode: Mode) -> bool {
        self.tracker
            .lock()
            .expect("conflict tracker poisoned")
            .try_lock(txn, word, mode)
            == RwOutcome::Granted
    }

    /// The §7 move: discard trailing (necessarily HTM) unpushed effects
    /// while leaving the pushed boosted effects in the shared view, then
    /// resume forward execution. Re-records the surviving HTM accesses.
    fn partial_htm_abort(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut MixedThread,
    ) -> Result<Outcome, MachineError> {
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
        // Release the HTM words, then re-record the surviving npshd
        // entries. HTM entries that were applied before a later boosted
        // op was pushed survive the rewind: in §7's program `size++` is
        // applied before `hashT.put` is pushed, so a conflict on `x`
        // rewinds `x` alone and `size++` is recorded again here. The
        // release also clears the refused request's waits-for edge.
        release_all(&self.tracker, txn);
        let survivors: Vec<MixedMethod> = h
            .local()
            .iter()
            .filter(|e| matches!(e.flag, LocalFlag::NotPushed { .. }))
            .map(|e| e.op.method)
            .collect();
        for m in survivors {
            if let Some((word, mode)) = htm_access(&m) {
                if !self.record(txn, word, mode) {
                    // A surviving access still conflicts: give up fully.
                    return Ok(Outcome::Abort);
                }
            }
        }
        t.partial_htm_aborts += 1;
        Ok(Outcome::PartialAbort)
    }

    fn step_htm(
        &self,
        h: &mut TxnHandle<MixedSpec>,
        t: &mut MixedThread,
        method: MixedMethod,
    ) -> Result<Outcome, MachineError> {
        let txn = h.txn();
        // Injected hardware faults: a spurious coherence conflict takes the
        // §7 partial-rewind path; a capacity overflow discards the whole
        // transaction (overflow invalidates the entire HTM write buffer).
        match h.fault_at_htm_access() {
            Some(HtmFault::Conflict) => return self.partial_htm_abort(h, t),
            Some(HtmFault::Capacity) => return Ok(Outcome::Abort),
            None => {}
        }
        if let Some((word, mode)) = htm_access(&method) {
            if !self.record(txn, word, mode) {
                // HTM signals abort: rewind only the HTM suffix (§7).
                return self.partial_htm_abort(h, t);
            }
        }
        pull_committed_lenient(h)?;
        h.app_method(&method)?;
        Ok(Outcome::Progress)
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
        t: &mut MixedThread,
    ) -> Result<Outcome, MachineError> {
        if t.phase == Phase::Begin {
            pull_committed_lenient(h)?;
            t.phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        let options = h.step_options()?;
        if options.is_empty() {
            // Uninterleaved commit: PUSH the HTM suffix, then CMT.
            let txn = h.txn();
            let committed = h.push_all_and_commit()?;
            release_all(&self.locks, committed);
            release_all(&self.tracker, txn);
            t.phase = Phase::Begin;
            return Ok(Outcome::Committed);
        }
        let method = options[0].0;
        if is_htm(&method) {
            self.step_htm(h, t, method)
        } else {
            // A boosted method: its abstract locks, then APP;PUSH at once.
            locked_step(h, &self.locks, Mode::Exclusive, &method)
        }
    }

    /// The full abort: everything rewound, locks and tracker released.
    fn abort(&self, h: &mut TxnHandle<MixedSpec>, t: &mut MixedThread) -> Result<(), MachineError> {
        let txn = h.txn();
        h.abort_and_retry()?;
        release_all(&self.locks, txn);
        release_all(&self.tracker, txn);
        t.phase = Phase::Begin;
        Ok(())
    }
}

impl MixedSystem {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention policy.
    pub fn new(spec: MixedSpec, programs: Vec<Vec<Code<MixedMethod>>>) -> Self {
        let alg = Mixed {
            locks: Mutex::new(RwLockTable::new()),
            tracker: Mutex::new(RwLockTable::new()),
        };
        Driver::host(alg, spec, programs)
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
    use crate::driver::{Tick, TmSystem};
    use crate::util::{next_unblocked_tick, run_round_robin};
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
        assert_eq!(sys.machine().audit().push_cmt_violations(), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn partial_htm_abort_preserves_boosted_pushes() {
        // T0 runs §7's transaction on word x; T1 writes x first, so T0's
        // own x access conflicts after its boosted put is pushed. T0's
        // partial rewind keeps both boosted pushes and its `size++`,
        // which was applied before the put and so survives; T2 then
        // writes `size` and is refused until T0 commits.
        let mut sys = MixedSystem::new(
            mixed_spec(),
            vec![
                section7_prog(1, 0),
                vec![Code::method(mem(MemMethod::Write(Loc(0), 7)))],
                vec![Code::method(size(CtrMethod::Add(1)))],
            ],
        );
        // T0: begin, insert (boosted, pushed), size++ (HTM), put (boosted,
        // pushed).
        for _ in 0..4 {
            assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Progress);
        }
        // T1: begin, write x (HTM): T1 now holds word x.
        for _ in 0..2 {
            assert_eq!(sys.tick(ThreadId(1)).unwrap(), Tick::Progress);
        }
        // T0's x write conflicts: a partial rewind, not a full abort.
        assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Aborted);
        assert_eq!(sys.partial_htm_aborts(), 1);
        assert_eq!(sys.machine().global().len(), 2, "both boosted pushes in G");
        let local = sys.machine().thread(ThreadId(0)).unwrap().local();
        assert_eq!(local.len(), 3, "insert, size++ and put survive");
        assert!(local.entries()[1].flag.is_not_pushed(), "size++ is npshd");
        // The survivor is tracked again: T2's write to `size` is refused
        // while T0 is live (the policy may back either thread off after
        // an abort, so blocked ticks are skipped).
        assert_eq!(sys.tick(ThreadId(2)).unwrap(), Tick::Progress);
        assert_eq!(next_unblocked_tick(&mut sys, ThreadId(2)), Tick::Aborted);
        // T2 has no boosted op, so its refusal is an (empty) partial
        // rewind too.
        assert_eq!(sys.partial_htm_aborts(), 2);
        // T1 commits and releases x; T0 writes x and commits.
        assert_eq!(sys.tick(ThreadId(1)).unwrap(), Tick::Committed);
        assert_eq!(sys.machine().global().len(), 3);
        assert_eq!(next_unblocked_tick(&mut sys, ThreadId(0)), Tick::Progress);
        assert_eq!(next_unblocked_tick(&mut sys, ThreadId(0)), Tick::Committed);
        assert_eq!(sys.partial_htm_aborts(), 2, "T0 committed without another");
        // Now T2's write goes through.
        run_round_robin(&mut sys, 200);
        assert_eq!(sys.stats().commits, 3);
        assert_eq!(sys.machine().audit().push_cmt_violations(), 0);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
    }
}
