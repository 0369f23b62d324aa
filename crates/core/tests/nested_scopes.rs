//! First-class nested scopes: closed merge/abort, checkpoints, open
//! nesting with compensations, and the per-level oracle.

use pushpull_core::error::MachineError;
use pushpull_core::lang::Code;
use pushpull_core::machine::Machine;
use pushpull_core::serializability::{check_machine, check_machine_nested, compensation_restores};
use pushpull_core::toy::{counter_op, CounterMethod, StrictCounter, ToyCounter};
use pushpull_core::trace::Event;
use pushpull_core::ScopeKind;

fn inc() -> Code<CounterMethod> {
    Code::method(CounterMethod::Inc)
}

fn dec() -> Code<CounterMethod> {
    Code::method(CounterMethod::Dec)
}

fn get() -> Code<CounterMethod> {
    Code::method(CounterMethod::Get)
}

// ---------------------------------------------------------------------
// Closed nesting.
// ---------------------------------------------------------------------

#[test]
fn closed_scope_merges_into_parent() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), Code::seq(inc(), inc()))]);
    m.app_auto(t).unwrap();
    let base = m.begin_nested(t, ScopeKind::Closed).unwrap();
    assert_eq!(base, 1);
    assert_eq!(m.scope_depth(t).unwrap(), 1);
    m.app_auto(t).unwrap();
    m.commit_nested(t).unwrap();
    assert_eq!(m.scope_depth(t).unwrap(), 0);
    m.app_auto(t).unwrap();
    m.push_all_and_commit(t).unwrap();
    assert_eq!(m.committed_txns().len(), 1);
    assert_eq!(m.committed_txns()[0].ops.len(), 3);
    assert!(check_machine_nested(&m).is_serializable());
    let stats = m.nesting_stats();
    assert_eq!(stats.scopes_opened, 1);
    assert_eq!(stats.scopes_merged, 1);
}

/// A scope owns a suffix of `L` by position, so UNPULLing an entry *below*
/// its base must slide the base down with the scope's entries: the scope
/// abort then rewinds exactly the scope's own operation, and nothing
/// slices `L` past its end.
#[test]
fn unpull_below_a_scope_base_keeps_the_frame_on_its_suffix() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let a = m.add_thread(vec![inc()]);
    let t = m.add_thread(vec![Code::seq(inc(), Code::choice(Code::Skip, inc()))]);
    let pulled = m.app_auto(a).unwrap();
    m.push_all_and_commit(a).unwrap();
    m.pull(t, pulled).unwrap();
    let own = m.app_auto(t).unwrap();
    assert_eq!(m.begin_nested(t, ScopeKind::Closed).unwrap(), 2);
    m.app_method(t, &CounterMethod::Inc).unwrap();
    m.unpull(t, pulled).unwrap();
    m.abort_nested(t).unwrap();
    let local = m.thread(t).unwrap().local();
    assert_eq!(local.len(), 1, "the scope's inc, and only it, is rewound");
    assert_eq!(local.entries()[0].op.id, own);
    m.push_all_and_commit(t).unwrap();
    assert!(check_machine_nested(&m).is_serializable());
}

#[test]
fn closed_scope_abort_rewinds_only_its_suffix() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), Code::choice(Code::Skip, inc()))]);
    m.app_auto(t).unwrap();
    m.begin_nested(t, ScopeKind::Closed).unwrap();
    m.app_method(t, &CounterMethod::Inc).unwrap();
    m.abort_nested(t).unwrap();
    // The first inc survives; the scoped inc is gone.
    assert_eq!(m.thread(t).unwrap().local().len(), 1);
    assert_eq!(m.scope_depth(t).unwrap(), 0);
    // The choice's skip branch still allows a commit.
    m.push_all_and_commit(t).unwrap();
    assert_eq!(m.committed_txns()[0].ops.len(), 1);
    assert!(check_machine_nested(&m).is_serializable());
    assert_eq!(m.nesting_stats().scopes_aborted, 1);
}

#[test]
fn scope_floor_blocks_unapp_below_base() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), inc())]);
    m.app_auto(t).unwrap();
    m.begin_nested(t, ScopeKind::Closed).unwrap();
    // Nothing applied inside the scope yet: UNAPP may not eat the
    // parent's entry.
    assert!(matches!(m.unapp(t), Err(MachineError::NothingToUnapply(_))));
    m.app_auto(t).unwrap();
    m.unapp(t).unwrap(); // the scoped entry itself is fine
    m.commit_nested(t).unwrap();
    m.app_auto(t).unwrap();
    m.push_all_and_commit(t).unwrap();
}

#[test]
fn commit_exits_remaining_closed_scopes() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), inc())]);
    m.app_auto(t).unwrap();
    m.begin_nested(t, ScopeKind::Closed).unwrap();
    m.app_auto(t).unwrap();
    // No explicit commit_nested: the top-level commit merges the frame.
    m.push_all_and_commit(t).unwrap();
    assert_eq!(m.committed_txns()[0].ops.len(), 2);
    assert!(check_machine_nested(&m).is_serializable());
}

#[test]
fn nested_scope_errors_without_a_scope() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![inc()]);
    assert!(matches!(m.commit_nested(t), Err(MachineError::NoScope(_))));
    assert!(matches!(m.abort_nested(t), Err(MachineError::NoScope(_))));
    assert!(matches!(
        m.abort_to_checkpoint(t, 0),
        Err(MachineError::NoScope(_))
    ));
}

// ---------------------------------------------------------------------
// Checkpoints (explicit closed markers).
// ---------------------------------------------------------------------

#[test]
fn checkpoint_partial_abort_salvages_prefix() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(
        inc(),
        Code::choice(Code::Skip, Code::seq(inc(), inc())),
    )]);
    m.app_auto(t).unwrap();
    let cp = m.begin_checkpoint(t).unwrap();
    m.app_method(t, &CounterMethod::Inc).unwrap();
    m.app_method(t, &CounterMethod::Inc).unwrap();
    m.abort_to_checkpoint(t, cp).unwrap();
    assert_eq!(m.thread(t).unwrap().local().len(), 1);
    assert_eq!(m.scope_depth(t).unwrap(), 0);
    m.push_all_and_commit(t).unwrap();
    assert_eq!(m.committed_txns()[0].ops.len(), 1);
}

#[test]
fn checkpoint_requires_matching_base() {
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), inc())]);
    m.app_auto(t).unwrap();
    let cp = m.begin_checkpoint(t).unwrap();
    assert_eq!(cp, 1);
    assert!(matches!(
        m.abort_to_checkpoint(t, 0),
        Err(MachineError::NoScope(_))
    ));
    m.abort_to_checkpoint(t, cp).unwrap();
}

// ---------------------------------------------------------------------
// Syntax-driven scopes: tx/otx redexes peel into frames.
// ---------------------------------------------------------------------

#[test]
fn flat_and_closed_nested_syntax_commit_identically() {
    // Same methods, one body flat, one wrapped in tx: commits, traces
    // and audits must be bit-identical.
    let flat_body = Code::seq(inc(), inc());
    let nested_body = Code::seq(inc(), Code::tx(inc()));

    let run = |body: Code<CounterMethod>| {
        let mut m = Machine::new(ToyCounter::with_bound(8));
        let t = m.add_thread(vec![body]);
        m.app_auto(t).unwrap();
        m.app_auto(t).unwrap();
        m.push_all_and_commit(t).unwrap();
        m
    };
    let a = run(flat_body);
    let b = run(nested_body);
    assert_eq!(a.trace().render(), b.trace().render());
    assert_eq!(a.committed_txns()[0].ops.len(), 2);
    assert_eq!(b.committed_txns()[0].ops.len(), 2);
    assert_eq!(a.audit().render(), b.audit().render());
    assert!(check_machine(&b).is_serializable());
}

// ---------------------------------------------------------------------
// Open nesting.
// ---------------------------------------------------------------------

#[test]
fn open_scope_commits_as_its_own_transaction() {
    let mut m = Machine::new(StrictCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), Code::seq(Code::otx(inc()), inc()))]);
    m.app_auto(t).unwrap(); // parent inc
    m.app_auto(t).unwrap(); // peels the otx, applies the child inc
    assert_eq!(m.scope_depth(t).unwrap(), 1);
    m.app_auto(t).unwrap(); // settles: open child commits, then parent inc
    assert_eq!(m.scope_depth(t).unwrap(), 0);
    // The child is already in the committed log; the parent is not.
    assert_eq!(m.committed_txns().len(), 1);
    assert_eq!(m.pending_compensations(t).unwrap(), 1);
    m.push_all_and_commit(t).unwrap();
    let txns = m.committed_txns();
    assert_eq!(txns.len(), 2);
    assert_eq!(txns[1].ops.len(), 2, "parent owns the two outer incs");
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    assert_eq!(report.txns_per_level, vec![1, 1]);
    assert_eq!(m.nesting_stats().open_commits, 1);
    assert_eq!(m.nesting_stats().compensations_replayed, 0);
}

#[test]
fn parent_abort_replays_compensation() {
    let mut m = Machine::new(StrictCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(Code::otx(inc()), inc())]);
    m.app_auto(t).unwrap(); // child inc inside the peeled otx
    m.app_auto(t).unwrap(); // open child commits; parent inc applies
    assert_eq!(m.committed_txns().len(), 1);
    m.abort_and_retry(t).unwrap();
    // The compensation (dec) committed as its own transaction.
    let txns = m.committed_txns();
    assert_eq!(txns.len(), 2);
    assert_eq!(txns[1].ops[0].method, CounterMethod::Dec);
    // Abstract state is back to 0: retry and complete.
    m.app_auto(t).unwrap();
    m.app_auto(t).unwrap();
    m.push_all_and_commit(t).unwrap();
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    assert_eq!(m.nesting_stats().compensations_replayed, 1);
    // Final committed projection: inc, dec, inc, inc — ends at 2.
    let final_states = m.global().committed_ops();
    assert_eq!(final_states.len(), 4);
}

#[test]
fn open_abort_before_commit_needs_no_compensation() {
    let mut m = Machine::new(StrictCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(Code::otx(inc()), inc())]);
    m.app_auto(t).unwrap(); // child inc applied, child not yet committed
    assert_eq!(m.scope_depth(t).unwrap(), 1);
    m.abort_and_retry(t).unwrap();
    assert_eq!(
        m.committed_txns().len(),
        0,
        "nothing committed, nothing to undo"
    );
    // The child's Begin is matched by an Abort in the trace.
    let aborts = m
        .trace()
        .iter()
        .filter(|e| matches!(e, Event::Abort { .. }))
        .count();
    assert_eq!(aborts, 2, "child and parent instances both abort");
    m.app_auto(t).unwrap();
    m.app_auto(t).unwrap();
    m.push_all_and_commit(t).unwrap();
    assert!(check_machine_nested(&m).is_serializable());
}

#[test]
fn non_invertible_open_scope_refuses_commit() {
    // ToyCounter's dec saturates, so it has no inverse: the open commit
    // must fail cleanly with NotInvertible.
    let mut m = Machine::new(ToyCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(Code::otx(dec()), inc())]);
    m.app_auto(t).unwrap(); // child dec applied
    let err = m.commit_nested(t).unwrap_err();
    assert!(matches!(err, MachineError::NotInvertible { .. }), "{err}");
    // The scope can still abort; the parent survives.
    m.abort_nested(t).unwrap();
    assert_eq!(m.scope_depth(t).unwrap(), 0);
}

#[test]
fn explicit_open_scope_round_trip() {
    let mut m = Machine::new(StrictCounter::with_bound(8));
    let t = m.add_thread(vec![Code::seq(inc(), Code::seq(inc(), get()))]);
    m.app_auto(t).unwrap();
    m.begin_nested(t, ScopeKind::Open).unwrap();
    m.app_method(t, &CounterMethod::Inc).unwrap();
    m.commit_nested(t).unwrap();
    assert_eq!(m.committed_txns().len(), 1);
    assert_eq!(m.pending_compensations(t).unwrap(), 1);
    // Parent reads 2: its own inc plus the committed child's.
    let op = m.app_method(t, &CounterMethod::Get).unwrap();
    let ops = m.thread(t).unwrap().local().ops();
    assert_eq!(ops.iter().find(|o| o.id == op).unwrap().ret, 2);
    m.push_all_and_commit(t).unwrap();
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
}

// ---------------------------------------------------------------------
// The per-level oracle's restoration law.
// ---------------------------------------------------------------------

#[test]
fn restoration_law_accepts_exact_inverses() {
    let spec = StrictCounter::with_bound(8);
    let child = vec![counter_op(0, CounterMethod::Inc, 0)];
    let comp = vec![counter_op(1, CounterMethod::Dec, 0)];
    assert!(compensation_restores(&spec, &child, &comp));
}

#[test]
fn restoration_law_rejects_saturating_undo() {
    // ToyCounter: dec saturates at 0, so inc does not undo it.
    let spec = ToyCounter::with_bound(8);
    let child = vec![counter_op(0, CounterMethod::Dec, 0)];
    let comp = vec![counter_op(1, CounterMethod::Inc, 0)];
    assert!(!compensation_restores(&spec, &child, &comp));
}
