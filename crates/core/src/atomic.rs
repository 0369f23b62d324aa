//! The atomic (uninterleaved) semantics of paper §3, Figure 3.
//!
//! The atomic machine executes each transaction *instantly*: the big-step
//! relation `(c, σ), ℓ ⇓ σ′, ℓ′` scans through the nondeterminism of
//! `tx c` (rules BSSTEP and BSFIN) to produce a completed operation log.
//! PUSH/PULL is proved serializable by simulation against this machine
//! (Theorem 5.17), so this module is the *oracle*: the serializability
//! checker asks whether the observations of a concurrent run could have
//! been produced here.
//!
//! Three entry points:
//!
//! * [`replay_tx`] — decides whether a given observation sequence is one
//!   of the big-step runs of a transaction body from a given log (the
//!   workhorse of the oracle; deterministic, no enumeration);
//! * [`enumerate_runs`] — bounded enumeration of all big-step runs
//!   `(c, σ), ℓ ⇓ σ′, ℓ′` (used by the `cmtpres` invariant checks);
//! * [`exists_serialization`] — brute-force search for *some* serial order
//!   of a set of transactions (used by tests to diagnose failures and to
//!   validate the commit-order witness on small configurations).

use crate::lang::Code;
use crate::op::{Op, OpId, TxnId};
use crate::spec::SeqSpec;

/// One completed big-step run of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicRun<M, R> {
    /// Operations appended to the log, in order.
    pub ops: Vec<Op<M, R>>,
    /// The observation history (stack σ′) of the run.
    pub stack: Vec<(M, R)>,
}

/// Bounds for [`enumerate_runs`]; both default to small values suitable
/// for tests.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum operations per run (bounds `(c)*` unfolding).
    pub max_ops: usize,
    /// Maximum number of runs to collect.
    pub max_runs: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        Self {
            max_ops: 8,
            max_runs: 256,
        }
    }
}

/// Does `ops` describe a valid big-step run `(code, σ), log ⇓ σ′, log·ops`?
///
/// Checks, in order: each `ops[i]`'s method is a next reachable method of
/// the remaining code (BSSTEP premise `(m, c₂) ∈ step(c₁)`), its return is
/// allowed by the sequential specification extended with the preceding
/// operations, and after the last operation some method-free path reaches
/// `skip` (BSFIN). Branches over all matching continuations, so
/// duplicated method names in choices are handled.
///
/// # Examples
///
/// ```
/// use pushpull_core::atomic::replay_tx;
/// use pushpull_core::lang::Code;
/// use pushpull_core::toy::{ToyCounter, CounterMethod, counter_op};
///
/// let spec = ToyCounter::with_bound(4);
/// let code = Code::seq(Code::method(CounterMethod::Inc), Code::method(CounterMethod::Get));
/// let ops = vec![
///     counter_op(0, CounterMethod::Inc, 0),
///     counter_op(1, CounterMethod::Get, 1),
/// ];
/// assert!(replay_tx(&spec, &code, &[], &ops));
/// // Observing 2 from the get is not an atomic behaviour:
/// let bad = vec![
///     counter_op(0, CounterMethod::Inc, 0),
///     counter_op(1, CounterMethod::Get, 2),
/// ];
/// assert!(!replay_tx(&spec, &code, &[], &bad));
/// ```
pub fn replay_tx<S: SeqSpec>(
    spec: &S,
    code: &Code<S::Method>,
    prefix_log: &[Op<S::Method, S::Ret>],
    ops: &[Op<S::Method, S::Ret>],
) -> bool {
    let mut log: Vec<Op<S::Method, S::Ret>> = prefix_log.to_vec();
    replay_rec(spec, code, ops, &mut log)
}

fn replay_rec<S: SeqSpec>(
    spec: &S,
    code: &Code<S::Method>,
    ops: &[Op<S::Method, S::Ret>],
    log: &mut Vec<Op<S::Method, S::Ret>>,
) -> bool {
    match ops.split_first() {
        None => code.fin(),
        Some((op, rest)) => {
            if !spec.allows(log, op) {
                return false;
            }
            log.push(op.clone());
            for (m, cont) in code.step() {
                if m == op.method && replay_rec(spec, &cont, rest, log) {
                    log.pop();
                    return true;
                }
            }
            log.pop();
            false
        }
    }
}

/// Enumerates big-step runs `(code, σ), prefix_log ⇓ σ′, prefix_log·ops`
/// up to the given limits. Operation ids are minted from `id_base`
/// upwards; they are hypothetical and never enter a machine.
///
/// A *disallowed* `prefix_log` has no runs at all: under the denotational
/// reading of Parameter 3.1, `⟦ℓ⟧ = ∅` means no configuration exists to
/// take even the BSFIN step from. (This matters for the `cmtpres`
/// checks: a doomed transaction — one whose stale observations already
/// contradict the committed log — vacuously satisfies the invariant, as
/// it can never commit from that state.)
pub fn enumerate_runs<S: SeqSpec>(
    spec: &S,
    code: &Code<S::Method>,
    prefix_log: &[Op<S::Method, S::Ret>],
    txn: TxnId,
    id_base: u64,
    limits: RunLimits,
) -> Vec<AtomicRun<S::Method, S::Ret>> {
    let mut out = Vec::new();
    if !spec.allowed(prefix_log) {
        return out;
    }
    let mut log = prefix_log.to_vec();
    let mut ops = Vec::new();
    let mut stack = Vec::new();
    enumerate_rec(
        spec, code, txn, id_base, limits, &mut log, &mut ops, &mut stack, &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn enumerate_rec<S: SeqSpec>(
    spec: &S,
    code: &Code<S::Method>,
    txn: TxnId,
    next_id: u64,
    limits: RunLimits,
    log: &mut Vec<Op<S::Method, S::Ret>>,
    ops: &mut Vec<Op<S::Method, S::Ret>>,
    stack: &mut Vec<(S::Method, S::Ret)>,
    out: &mut Vec<AtomicRun<S::Method, S::Ret>>,
) {
    if out.len() >= limits.max_runs {
        return;
    }
    // BSFIN: a method-free path to skip completes the run.
    if code.fin() {
        out.push(AtomicRun {
            ops: ops.clone(),
            stack: stack.clone(),
        });
        if out.len() >= limits.max_runs {
            return;
        }
    }
    if ops.len() >= limits.max_ops {
        return;
    }
    // BSSTEP: pick a next method and an allowed return.
    for (m, cont) in code.step() {
        let states = spec.denote(log);
        if states.is_empty() {
            return;
        }
        let mut rets: Vec<S::Ret> = Vec::new();
        for s in &states {
            for r in spec.results(s, &m) {
                if !rets.contains(&r) {
                    rets.push(r);
                }
            }
        }
        // Every return some state offers is allowed by the check-first law.
        for ret in rets {
            let op = Op::new(OpId(next_id), txn, m.clone(), ret.clone());
            debug_assert!(states.admits(spec, &op));
            log.push(op.clone());
            ops.push(op);
            stack.push((m.clone(), ret));
            enumerate_rec(spec, &cont, txn, next_id + 1, limits, log, ops, stack, out);
            stack.pop();
            ops.pop();
            log.pop();
        }
    }
}

/// A transaction's body paired with its observed operations — the input
/// shape of [`exists_serialization`].
pub type TxnObservation<S> = (
    Code<<S as SeqSpec>::Method>,
    Vec<Op<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>>,
);

/// Searches for a serial order of `txns` (each a transaction body paired
/// with its observed operations) such that replaying them one at a time
/// against the accumulated log succeeds. Returns the witnessing
/// permutation of indices, if any.
///
/// Exponential in `txns.len()`; intended for small model-checking
/// configurations (≤ 8 transactions).
pub fn exists_serialization<S: SeqSpec>(
    spec: &S,
    txns: &[TxnObservation<S>],
) -> Option<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..txns.len()).collect();
    let mut order = Vec::new();
    let mut log = Vec::new();
    if search_serial(spec, txns, &mut remaining, &mut order, &mut log) {
        Some(order)
    } else {
        None
    }
}

fn search_serial<S: SeqSpec>(
    spec: &S,
    txns: &[TxnObservation<S>],
    remaining: &mut Vec<usize>,
    order: &mut Vec<usize>,
    log: &mut Vec<Op<S::Method, S::Ret>>,
) -> bool {
    if remaining.is_empty() {
        return true;
    }
    for i in 0..remaining.len() {
        let idx = remaining.remove(i);
        let (code, ops) = &txns[idx];
        if replay_tx(spec, code, log, ops) {
            let len_before = log.len();
            log.extend(ops.iter().cloned());
            order.push(idx);
            if search_serial(spec, txns, remaining, order, log) {
                return true;
            }
            order.pop();
            log.truncate(len_before);
        }
        remaining.insert(i, idx);
    }
    false
}

/// The atomic machine of Figure 3: a list of threads `A` (each a stack
/// and a queue of transaction bodies) and a shared log `ℓ`, reduced by
/// the AMS rules — AM_RUNTX executes one whole transaction instantly via
/// the big-step `⇓`.
///
/// This is the *specification machine* the PUSH/PULL machine is proved to
/// simulate. [`crate::serializability::check_machine`] uses its big-step
/// core ([`replay_tx`]) directly; this struct additionally realizes the
/// thread-list reduction rules (AMS_ONE/AMS_END), so small configurations
/// can be executed *atomically* and compared against concurrent runs.
///
/// # Examples
///
/// ```
/// use pushpull_core::atomic::AtomicMachine;
/// use pushpull_core::lang::Code;
/// use pushpull_core::toy::{ToyCounter, CounterMethod};
///
/// let mut am = AtomicMachine::new(ToyCounter::with_bound(8));
/// am.add_thread(vec![Code::method(CounterMethod::Inc)]);
/// am.add_thread(vec![Code::method(CounterMethod::Get)]);
/// am.run_txn(1).unwrap(); // AM_RUNTX: the get runs atomically, sees 0
/// am.run_txn(0).unwrap();
/// assert_eq!(am.log().len(), 2);
/// assert!(am.is_done());
/// ```
#[derive(Debug, Clone)]
pub struct AtomicMachine<S: SeqSpec> {
    spec: S,
    threads: Vec<std::collections::VecDeque<Code<S::Method>>>,
    log: Vec<Op<S::Method, S::Ret>>,
    next_id: u64,
    next_txn: u64,
}

impl<S: SeqSpec> AtomicMachine<S> {
    /// Creates an atomic machine with an empty shared log.
    pub fn new(spec: S) -> Self {
        Self {
            spec,
            threads: Vec::new(),
            log: Vec::new(),
            next_id: 0,
            next_txn: 0,
        }
    }

    /// Adds a thread with a queue of transaction bodies; returns its index.
    pub fn add_thread(&mut self, programs: Vec<Code<S::Method>>) -> usize {
        self.threads.push(programs.into());
        self.threads.len() - 1
    }

    /// The shared log `ℓ`.
    pub fn log(&self) -> &[Op<S::Method, S::Ret>] {
        &self.log
    }

    /// AMS_END for every thread: have all transactions run?
    pub fn is_done(&self) -> bool {
        self.threads.iter().all(|q| q.is_empty())
    }

    /// AM_RUNTX: runs thread `t`'s next transaction to completion,
    /// atomically, taking the first big-step run found (deterministic:
    /// first `step` option, first allowed result). Returns the appended
    /// operations.
    ///
    /// # Errors
    ///
    /// `Err(NoAtomicRun)` when the thread has no pending transaction or
    /// no big-step run exists within the default limits (e.g. every
    /// path's observations are disallowed by the current log).
    pub fn run_txn(&mut self, t: usize) -> Result<AppendedOps<S>, NoAtomicRun> {
        let code = self
            .threads
            .get_mut(t)
            .and_then(|q| q.pop_front())
            .ok_or(NoAtomicRun)?;
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let runs = enumerate_runs(
            &self.spec,
            &code,
            &self.log,
            txn,
            self.next_id,
            RunLimits {
                max_ops: 64,
                max_runs: 1,
            },
        );
        match runs.into_iter().next() {
            Some(run) => {
                self.next_id += run.ops.len() as u64 + 1;
                self.log.extend(run.ops.iter().cloned());
                Ok(run.ops)
            }
            None => {
                // Put the transaction back; the caller may try another
                // thread first (AMS allows any order).
                self.threads[t].push_front(code);
                self.next_txn -= 1;
                Err(NoAtomicRun)
            }
        }
    }

    /// Runs every pending transaction in round-robin thread order.
    ///
    /// # Errors
    ///
    /// Propagates [`NoAtomicRun`] if some transaction can never run.
    pub fn run_all(&mut self) -> Result<(), NoAtomicRun> {
        let mut stuck = 0;
        while !self.is_done() {
            let mut progressed = false;
            for t in 0..self.threads.len() {
                if !self.threads[t].is_empty() && self.run_txn(t).is_ok() {
                    progressed = true;
                }
            }
            if !progressed {
                stuck += 1;
                if stuck > 1 {
                    return Err(NoAtomicRun);
                }
            } else {
                stuck = 0;
            }
        }
        Ok(())
    }
}

/// Operations appended to the atomic log by one AM_RUNTX step.
pub type AppendedOps<S> = Vec<Op<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>>;

/// No atomic run of the requested transaction exists from the current log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoAtomicRun;

impl std::fmt::Display for NoAtomicRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no atomic big-step run exists for the transaction")
    }
}

impl std::error::Error for NoAtomicRun {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{counter_op, CounterMethod, ToyCounter};

    fn inc() -> Code<CounterMethod> {
        Code::method(CounterMethod::Inc)
    }
    fn get() -> Code<CounterMethod> {
        Code::method(CounterMethod::Get)
    }

    #[test]
    fn replay_accepts_valid_runs() {
        let spec = ToyCounter::with_bound(4);
        let code = Code::seq(inc(), get());
        let ops = vec![
            counter_op(0, CounterMethod::Inc, 0),
            counter_op(1, CounterMethod::Get, 1),
        ];
        assert!(replay_tx(&spec, &code, &[], &ops));
    }

    #[test]
    fn replay_rejects_wrong_ret() {
        let spec = ToyCounter::with_bound(4);
        let code = Code::seq(inc(), get());
        let ops = vec![
            counter_op(0, CounterMethod::Inc, 0),
            counter_op(1, CounterMethod::Get, 0),
        ];
        assert!(!replay_tx(&spec, &code, &[], &ops));
    }

    #[test]
    fn replay_rejects_wrong_method_order() {
        let spec = ToyCounter::with_bound(4);
        let code = Code::seq(inc(), get());
        let ops = vec![
            counter_op(0, CounterMethod::Get, 0),
            counter_op(1, CounterMethod::Inc, 0),
        ];
        assert!(!replay_tx(&spec, &code, &[], &ops));
    }

    #[test]
    fn replay_requires_fin_at_the_end() {
        let spec = ToyCounter::with_bound(4);
        let code = Code::seq(inc(), inc());
        let ops = vec![counter_op(0, CounterMethod::Inc, 0)];
        assert!(
            !replay_tx(&spec, &code, &[], &ops),
            "one inc of two is incomplete"
        );
    }

    #[test]
    fn replay_uses_prefix_log() {
        let spec = ToyCounter::with_bound(4);
        let prefix = vec![counter_op(0, CounterMethod::Inc, 0)];
        let ops = vec![counter_op(1, CounterMethod::Get, 1)];
        assert!(replay_tx(&spec, &get(), &prefix, &ops));
        let ops0 = vec![counter_op(1, CounterMethod::Get, 0)];
        assert!(!replay_tx(&spec, &get(), &prefix, &ops0));
    }

    #[test]
    fn replay_branches_over_duplicate_methods() {
        // (inc ; get) + (inc ; inc): the observation [inc, inc] must match
        // via the second branch even though the first `inc` also matches
        // branch one.
        let spec = ToyCounter::with_bound(4);
        let code = Code::choice(Code::seq(inc(), get()), Code::seq(inc(), inc()));
        let ops = vec![
            counter_op(0, CounterMethod::Inc, 0),
            counter_op(1, CounterMethod::Inc, 0),
        ];
        assert!(replay_tx(&spec, &code, &[], &ops));
    }

    #[test]
    fn enumerate_covers_choices() {
        let spec = ToyCounter::with_bound(4);
        let code = Code::choice(inc(), get());
        let runs = enumerate_runs(&spec, &code, &[], TxnId(0), 1000, RunLimits::default());
        // Two single-op runs: [inc] and [get=0].
        assert_eq!(runs.len(), 2);
        let methods: Vec<CounterMethod> = runs.iter().map(|r| r.ops[0].method).collect();
        assert!(methods.contains(&CounterMethod::Inc));
        assert!(methods.contains(&CounterMethod::Get));
    }

    #[test]
    fn enumerate_bounds_star() {
        let spec = ToyCounter::with_bound(100);
        let code = Code::star(inc());
        let runs = enumerate_runs(
            &spec,
            &code,
            &[],
            TxnId(0),
            1000,
            RunLimits {
                max_ops: 3,
                max_runs: 100,
            },
        );
        // Runs of length 0, 1, 2, 3.
        let mut lens: Vec<usize> = runs.iter().map(|r| r.ops.len()).collect();
        lens.sort();
        assert_eq!(lens, vec![0, 1, 2, 3]);
    }

    #[test]
    fn serialization_search_finds_order() {
        let spec = ToyCounter::with_bound(4);
        // T1: get()=1 — only valid AFTER T0's inc.
        let t0 = (
            inc(),
            vec![Op::new(OpId(0), TxnId(0), CounterMethod::Inc, 0)],
        );
        let t1 = (
            get(),
            vec![Op::new(OpId(1), TxnId(1), CounterMethod::Get, 1)],
        );
        let order = exists_serialization(&spec, &[t1.clone(), t0.clone()]).expect("serializable");
        assert_eq!(order, vec![1, 0], "must schedule the inc first");
    }

    #[test]
    fn serialization_search_rejects_impossible() {
        let spec = ToyCounter::with_bound(4);
        // Two transactions both claiming to read 1 with only... actually
        // get()=1 twice is fine after one inc; make an impossible pair:
        // T0 reads 0 AND T1 reads 1 with no inc anywhere.
        let t0 = (
            get(),
            vec![Op::new(OpId(0), TxnId(0), CounterMethod::Get, 0)],
        );
        let t1 = (
            get(),
            vec![Op::new(OpId(1), TxnId(1), CounterMethod::Get, 1)],
        );
        assert!(exists_serialization(&spec, &[t0, t1]).is_none());
    }

    #[test]
    fn empty_set_is_trivially_serializable() {
        let spec = ToyCounter::with_bound(4);
        assert_eq!(exists_serialization(&spec, &[]), Some(vec![]));
    }

    #[test]
    fn atomic_machine_runs_transactions_instantly() {
        let mut am = AtomicMachine::new(ToyCounter::with_bound(8));
        am.add_thread(vec![inc(), inc()]);
        am.add_thread(vec![get()]);
        // The get runs first atomically and must observe 0.
        let ops = am.run_txn(1).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].ret, 0);
        am.run_all().unwrap();
        assert!(am.is_done());
        assert_eq!(am.log().len(), 3);
        // The log is allowed by construction.
        assert!(am.spec_allowed());
    }

    impl AtomicMachine<ToyCounter> {
        fn spec_allowed(&self) -> bool {
            use crate::spec::SeqSpec as _;
            self.spec.allowed(&self.log)
        }
    }

    #[test]
    fn atomic_machine_ids_are_distinct() {
        let mut am = AtomicMachine::new(ToyCounter::with_bound(8));
        am.add_thread(vec![inc(), inc(), inc()]);
        am.run_all().unwrap();
        let mut ids: Vec<u64> = am.log().iter().map(|o| o.id.0).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn atomic_machine_reports_impossible_runs() {
        // A transaction whose only path exceeds the counter bound has no
        // atomic run.
        let mut am = AtomicMachine::new(ToyCounter::with_bound(1));
        am.add_thread(vec![Code::seq(inc(), inc())]);
        assert_eq!(am.run_txn(0), Err(NoAtomicRun));
        assert!(!am.is_done(), "the transaction is put back");
        assert_eq!(am.run_all(), Err(NoAtomicRun));
    }

    #[test]
    fn atomic_machine_matches_concurrent_committed_log() {
        // The simulation, concretely: a committed PUSH/PULL run's
        // transactions, re-run on the atomic machine in commit order,
        // produce a log with the same denotation.
        use crate::machine::Machine;
        use crate::spec::SeqSpec as _;
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::seq(inc(), inc())]);
        let b = m.add_thread(vec![inc()]);
        m.app_auto(a).unwrap();
        m.app_auto(b).unwrap();
        m.app_auto(a).unwrap();
        m.push_all_and_commit(b).unwrap();
        m.push_all_and_commit(a).unwrap();

        let mut am = AtomicMachine::new(ToyCounter::with_bound(8));
        for txn in m.committed_txns() {
            let t = am.add_thread(vec![txn.code.clone()]);
            am.run_txn(t).unwrap();
        }
        let spec = ToyCounter::with_bound(8);
        assert_eq!(
            spec.denote(&m.global().committed_ops()),
            spec.denote(am.log()),
        );
    }
}
