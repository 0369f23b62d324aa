//! The serializability oracle (Theorem 5.17, checked independently).
//!
//! The simulation proof of §5 shows that every criteria-respecting
//! PUSH/PULL run is simulated by the atomic machine, with the *commit
//! order* as the serial witness: `⌊G⌋_gCmt ≼ ℓ` for the atomic log `ℓ`
//! obtained by running each committed transaction, in commit order,
//! through the big-step semantics.
//!
//! [`check_machine`] re-verifies this claim on a finished (or any
//! intermediate) machine state, *without trusting the machine's criteria
//! checks*:
//!
//! 1. the committed projection of `G` is `allowed`;
//! 2. the commit-order serial witness (each transaction's own operations,
//!    concatenated in commit order) is `allowed`;
//! 3. each committed transaction's operations **replay atomically**
//!    against its original `tx c` body from the serial prefix — i.e. the
//!    observations really are big-step behaviours (AM_RUNTX);
//! 4. `⌊G⌋_gCmt ≼ serial witness` via the state-inclusion witness.
//!
//! For diagnosing failures (or validating runs of an *unchecked* machine)
//! [`find_any_serialization`] falls back to brute-force permutation
//! search.

use crate::atomic::{exists_serialization, replay_tx};
use crate::global::TxnKind;
use crate::machine::{CommittedTxn, Machine};
use crate::op::{Op, TxnId};
use crate::precongruence::precongruent_by_states;
use crate::spec::SeqSpec;

/// The outcome of the four oracle checks for one machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityReport {
    /// Check 1: `allowed ⌊G⌋_gCmt`.
    pub committed_projection_allowed: bool,
    /// Check 2: the commit-order witness is `allowed`.
    pub serial_witness_allowed: bool,
    /// Check 3: every committed transaction replays atomically in commit
    /// order. Transactions that failed are listed.
    pub atomic_replay_failures: Vec<TxnId>,
    /// Check 4: `⌊G⌋_gCmt ≼ witness` (state-inclusion witness).
    pub precongruent_to_witness: bool,
    /// The commit order used as serial witness.
    pub commit_order: Vec<TxnId>,
}

impl SerializabilityReport {
    /// Did every check pass?
    pub fn is_serializable(&self) -> bool {
        self.committed_projection_allowed
            && self.serial_witness_allowed
            && self.atomic_replay_failures.is_empty()
            && self.precongruent_to_witness
    }
}

impl std::fmt::Display for SerializabilityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_serializable() {
            write!(f, "serializable in commit order {:?}", self.commit_order)
        } else {
            write!(
                f,
                "NOT serializable: projection allowed={}, witness allowed={}, replay failures={:?}, precongruent={}",
                self.committed_projection_allowed,
                self.serial_witness_allowed,
                self.atomic_replay_failures,
                self.precongruent_to_witness
            )
        }
    }
}

/// Runs all four oracle checks against a machine state.
///
/// # Examples
///
/// ```
/// use pushpull_core::machine::Machine;
/// use pushpull_core::lang::Code;
/// use pushpull_core::toy::{ToyCounter, CounterMethod};
/// use pushpull_core::serializability::check_machine;
///
/// let mut m = Machine::new(ToyCounter::with_bound(8));
/// let t = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
/// let op = m.app_auto(t)?;
/// m.push(t, op)?;
/// m.commit(t)?;
/// assert!(check_machine(&m).is_serializable());
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub fn check_machine<S: SeqSpec>(m: &Machine<S>) -> SerializabilityReport {
    check_committed(m, &m.committed_txns())
}

/// The four checks of [`check_machine`] over `txns`, `m`'s committed
/// transactions in commit order — taken once by the caller, since each
/// [`Machine::committed_txns`] copies the whole list under its lock.
fn check_committed<S: SeqSpec>(
    m: &Machine<S>,
    txns: &[CommittedTxn<S::Method, S::Ret>],
) -> SerializabilityReport {
    let spec = m.spec();
    let committed_projection = m.global().committed_ops();
    let committed_projection_allowed = spec.allowed(&committed_projection);

    let witness = serial_witness(txns);
    let serial_witness_allowed = spec.allowed(&witness);

    let mut atomic_replay_failures = Vec::new();
    let mut prefix: Vec<Op<S::Method, S::Ret>> = Vec::new();
    for txn in txns {
        if !replay_tx(spec, &txn.code, &prefix, &txn.ops) {
            atomic_replay_failures.push(txn.txn);
        }
        prefix.extend(txn.ops.iter().cloned());
    }

    let precongruent_to_witness = precongruent_by_states(spec, &committed_projection, &witness);

    SerializabilityReport {
        committed_projection_allowed,
        serial_witness_allowed,
        atomic_replay_failures,
        precongruent_to_witness,
        commit_order: txns.iter().map(|t| t.txn).collect(),
    }
}

/// The commit-order serial witness: each committed transaction's own
/// operations, concatenated in commit order.
pub fn serial_witness<M: Clone, R: Clone>(txns: &[CommittedTxn<M, R>]) -> Vec<Op<M, R>> {
    txns.iter().flat_map(|t| t.ops.iter().cloned()).collect()
}

// ----------------------------------------------------------------------
// The per-level oracle for nested runs.
// ----------------------------------------------------------------------

/// The outcome of the nested-scope oracle: the flat Theorem 5.17 checks
/// (which already cover every level, since open-nested children and
/// compensations commit as first-class transactions) plus the
/// obligations specific to open nesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedReport {
    /// The four flat checks over **all** committed transactions in commit
    /// order — top-level, open-nested children, and compensations alike.
    /// This is what makes every nesting level serializable: each level-k
    /// transaction replays atomically against the full commit prefix.
    pub base: SerializabilityReport,
    /// Open-nested children whose parent never committed and that no
    /// committed compensation undoes: their effect leaked past an abort.
    pub unresolved_children: Vec<TxnId>,
    /// Open-nested children recorded as committing **after** their
    /// committed parent — impossible in a well-formed run (the child
    /// commits while the parent is still live).
    pub misordered_children: Vec<TxnId>,
    /// Compensations that undo an unknown transaction or committed
    /// before the child they undo.
    pub misordered_compensations: Vec<TxnId>,
    /// Compensations whose operations do **not** restore the abstract
    /// state their child changed (the spec-level inverse law fails on
    /// the recorded observations).
    pub non_restoring_compensations: Vec<TxnId>,
    /// Committed-transaction count per nesting level: index 0 holds the
    /// top-level transactions and compensations, index `k ≥ 1` the open
    /// children committed from scope depth `k`.
    pub txns_per_level: Vec<usize>,
}

impl NestedReport {
    /// Did the flat checks and every nesting obligation pass?
    pub fn is_serializable(&self) -> bool {
        self.base.is_serializable()
            && self.unresolved_children.is_empty()
            && self.misordered_children.is_empty()
            && self.misordered_compensations.is_empty()
            && self.non_restoring_compensations.is_empty()
    }
}

impl std::fmt::Display for NestedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_serializable() {
            write!(
                f,
                "serializable at every level (txns per level: {:?})",
                self.txns_per_level
            )
        } else {
            write!(
                f,
                "NOT serializable: base=[{}], unresolved children={:?}, \
                 misordered children={:?}, misordered compensations={:?}, \
                 non-restoring compensations={:?}",
                self.base,
                self.unresolved_children,
                self.misordered_children,
                self.misordered_compensations,
                self.non_restoring_compensations
            )
        }
    }
}

/// Runs the flat oracle plus the open-nesting obligations: children are
/// contained in (commit before) their parents, every orphaned child —
/// one whose parent aborted — is undone by a committed compensation, and
/// each compensation provably restores the abstract state its child
/// changed.
pub fn check_machine_nested<S: SeqSpec>(m: &Machine<S>) -> NestedReport {
    let txns = m.committed_txns();
    let base = check_committed(m, &txns);
    let spec = m.spec();
    let commit_pos: std::collections::HashMap<TxnId, usize> =
        txns.iter().enumerate().map(|(i, t)| (t.txn, i)).collect();
    let compensated: std::collections::HashMap<TxnId, usize> = txns
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t.kind {
            TxnKind::Compensation { undoes } => Some((undoes, i)),
            _ => None,
        })
        .collect();

    let mut unresolved_children = Vec::new();
    let mut misordered_children = Vec::new();
    let mut misordered_compensations = Vec::new();
    let mut non_restoring_compensations = Vec::new();
    let mut txns_per_level = Vec::new();

    for (i, t) in txns.iter().enumerate() {
        let level = match t.kind {
            TxnKind::Top | TxnKind::Compensation { .. } => 0,
            TxnKind::OpenChild { level, .. } => level,
        };
        if txns_per_level.len() <= level {
            txns_per_level.resize(level + 1, 0);
        }
        txns_per_level[level] += 1;

        match t.kind {
            TxnKind::Top => {}
            TxnKind::OpenChild { parent, .. } => match commit_pos.get(&parent) {
                // Containment: the child commits while the parent is
                // still live, so strictly before the parent's commit.
                Some(&p) if p < i => misordered_children.push(t.txn),
                Some(_) => {}
                // Orphan: the parent aborted — a compensation must have
                // undone this child.
                None if !compensated.contains_key(&t.txn) => unresolved_children.push(t.txn),
                None => {}
            },
            TxnKind::Compensation { undoes } => match commit_pos.get(&undoes) {
                Some(&c) if c < i => {
                    if !compensation_restores(spec, &txns[c].ops, &t.ops) {
                        non_restoring_compensations.push(t.txn);
                    }
                }
                // Undoing an uncommitted or later transaction is
                // structurally wrong.
                _ => misordered_compensations.push(t.txn),
            },
        }
    }

    NestedReport {
        base,
        unresolved_children,
        misordered_children,
        misordered_compensations,
        non_restoring_compensations,
        txns_per_level,
    }
}

/// The spec-level restoration law: from every abstract state where
/// `child` can run with its recorded observations, running `child` then
/// `comp` can return to that exact state. States come from the spec's
/// finite universe when declared, else from its initial states; states
/// where `child`'s observations are not enabled are vacuously fine (the
/// run never passed through them).
pub fn compensation_restores<S: SeqSpec>(
    spec: &S,
    child: &[Op<S::Method, S::Ret>],
    comp: &[Op<S::Method, S::Ret>],
) -> bool {
    let states = spec
        .state_universe()
        .unwrap_or_else(|| spec.initial_states());
    for s in states {
        let after_child = run_ops(spec, vec![s.clone()], child);
        if after_child.is_empty() {
            continue;
        }
        if !run_ops(spec, after_child, comp).contains(&s) {
            return false;
        }
    }
    true
}

/// Image of an operation sequence over a set of states: each state is
/// stepped in place, and those an operation refuses drop out.
fn run_ops<S: SeqSpec>(
    spec: &S,
    mut states: Vec<S::State>,
    ops: &[Op<S::Method, S::Ret>],
) -> Vec<S::State> {
    for op in ops {
        let mut next = Vec::new();
        for mut s in states {
            if spec.apply(&mut s, &op.method, &op.ret) && !next.contains(&s) {
                next.push(s);
            }
        }
        states = next;
        if states.is_empty() {
            break;
        }
    }
    states
}

/// **Strict** serializability: the serial witness must also respect
/// real-time order — if transaction `a` committed before transaction `b`
/// *began*, then `a` precedes `b` in the witness. The commit-order
/// witness satisfies this by construction (a transaction commits after
/// it begins, so begin(b) > commit(a) implies commit(b) > commit(a));
/// this function re-verifies it from the recorded trace rather than
/// trusting the construction.
///
/// Returns the violating pairs `(earlier-committed, later-begun)` that
/// the witness orders the other way; empty means strictly serializable.
pub fn real_time_violations<S: SeqSpec>(m: &Machine<S>) -> Vec<(TxnId, TxnId)> {
    use crate::trace::Event;
    // Event index of each txn's begin and commit.
    let mut begin_at = std::collections::HashMap::new();
    let mut commit_at = std::collections::HashMap::new();
    for (i, e) in m.trace().iter().enumerate() {
        match e {
            Event::Begin { txn, .. } => {
                begin_at.insert(*txn, i);
            }
            Event::Commit { txn, .. } => {
                commit_at.insert(*txn, i);
            }
            _ => {}
        }
    }
    let order: Vec<TxnId> = m.committed_txns().iter().map(|t| t.txn).collect();
    let pos: std::collections::HashMap<TxnId, usize> =
        order.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    let mut violations = Vec::new();
    for a in &order {
        for b in &order {
            if a == b {
                continue;
            }
            let (Some(&ca), Some(&bb)) = (commit_at.get(a), begin_at.get(b)) else {
                continue;
            };
            if ca < bb && pos[a] > pos[b] {
                violations.push((*a, *b));
            }
        }
    }
    violations
}

/// Brute-force fallback: searches for *any* serial order of the committed
/// transactions (not necessarily commit order) under which all replay
/// atomically. Exponential; use on small configurations only.
pub fn find_any_serialization<S: SeqSpec>(m: &Machine<S>) -> Option<Vec<TxnId>> {
    let txns: Vec<_> = m
        .committed_txns()
        .iter()
        .map(|t| (t.code.clone(), t.ops.clone()))
        .collect();
    let order = exists_serialization(m.spec(), &txns)?;
    Some(
        order
            .into_iter()
            .map(|i| m.committed_txns()[i].txn)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Code;
    use crate::machine::CheckMode;
    use crate::toy::{CounterMethod, ToyCounter};

    fn inc() -> Code<CounterMethod> {
        Code::method(CounterMethod::Inc)
    }
    fn get() -> Code<CounterMethod> {
        Code::method(CounterMethod::Get)
    }

    #[test]
    fn interleaved_checked_run_is_serializable() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![Code::seq(inc(), inc())]);
        let b = m.add_thread(vec![inc()]);
        // Interleave: a.app, b.app, a.app, b pushes+commits first, then a.
        m.app_auto(a).unwrap();
        m.app_auto(b).unwrap();
        m.app_auto(a).unwrap();
        m.push_all_and_commit(b).unwrap();
        m.push_all_and_commit(a).unwrap();
        let report = check_machine(&m);
        assert!(report.is_serializable(), "{report}");
        assert_eq!(report.commit_order.len(), 2);
        assert!(find_any_serialization(&m).is_some());
    }

    #[test]
    fn dependency_run_serializes_in_commit_order() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![inc()]);
        let b = m.add_thread(vec![get()]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap(); // dependent read of uncommitted inc
        m.app_method(b, &CounterMethod::Get).unwrap();
        m.commit(a).unwrap();
        m.push_all_and_commit(b).unwrap();
        let report = check_machine(&m);
        assert!(report.is_serializable(), "{report}");
        // Commit order must be a then b (b read a's effect).
        assert_eq!(report.commit_order[0], m.committed_txns()[0].txn);
    }

    #[test]
    fn unchecked_machine_can_go_wrong_and_oracle_notices() {
        // Lost update: both threads read 0, both "increment" by pushing a
        // get(=0) then inc unchecked — forge a non-serializable outcome by
        // letting both gets observe 0 with two incs committed.
        let mut m = Machine::with_mode(ToyCounter::with_bound(8), CheckMode::Unchecked);
        let a = m.add_thread(vec![Code::seq(get(), inc())]);
        let b = m.add_thread(vec![Code::seq(get(), inc())]);
        // Both observe get()=0 against their empty local logs.
        m.app_auto(a).unwrap();
        m.app_auto(b).unwrap();
        m.app_auto(a).unwrap();
        m.app_auto(b).unwrap();
        m.push_all_and_commit(a).unwrap();
        m.push_all_and_commit(b).unwrap();
        let report = check_machine(&m);
        assert!(
            !report.is_serializable(),
            "lost update must be caught: {report}"
        );
        assert!(find_any_serialization(&m).is_none());
    }

    #[test]
    fn empty_machine_is_serializable() {
        let m: Machine<ToyCounter> = Machine::new(ToyCounter::with_bound(2));
        assert!(check_machine(&m).is_serializable());
    }

    #[test]
    fn commit_order_witness_is_strictly_serializable() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![inc()]);
        let b = m.add_thread(vec![inc()]);
        // a commits fully before b even begins its work.
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let ib = m.app_auto(b).unwrap();
        m.push(b, ib).unwrap();
        m.commit(b).unwrap();
        assert!(real_time_violations(&m).is_empty());
        assert!(check_machine(&m).is_serializable());
    }

    #[test]
    fn witness_concatenates_in_commit_order() {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let a = m.add_thread(vec![inc()]);
        let b = m.add_thread(vec![inc()]);
        let ia = m.app_auto(a).unwrap();
        let ib = m.app_auto(b).unwrap();
        m.push(b, ib).unwrap();
        m.commit(b).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let w = serial_witness(&m.committed_txns());
        assert_eq!(w[0].id, ib, "b committed first");
        assert_eq!(w[1].id, ia);
    }
}
