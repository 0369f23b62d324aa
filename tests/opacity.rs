//! E3 / §6.1: opacity as a fragment of PUSH/PULL.
//!
//! * Algorithms that never PULL uncommitted effects (optimistic,
//!   pessimistic, boosting, HTM) produce opaque runs — checked over all
//!   interleavings of small configurations.
//! * Dependent transactions with early release are NOT opaque — and the
//!   checker pinpoints the offending pull.
//! * The commutativity refinement admits uncommitted pulls whose puller
//!   can only perform commuting methods.

use pushpull::core::lang::Code;
use pushpull::core::opacity::{check_trace, check_trace_refined, OpacityVerdict};
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::commute;
use pushpull::core::{Machine, Op, OpId, TxnId};
use pushpull::harness::{explore, run, ExploreLimits, RandomSched};
use pushpull::spec::counter::{Counter, CtrMethod, CtrRet};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::dependent::DependentSystem;
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::{BoostingSystem, TmSystem};

#[test]
fn optimistic_is_opaque_over_all_interleavings() {
    let prog = || {
        vec![Code::seq_all(vec![
            Code::method(CtrMethod::Get),
            Code::method(CtrMethod::Add(1)),
        ])]
    };
    let sys = OptimisticSystem::new(Counter::new(), vec![prog(), prog()], ReadPolicy::Snapshot);
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 40,
            max_terminals: 4_000,
        },
        &mut |s| {
            check_trace(&s.machine().trace()).is_opaque()
                && check_machine(s.machine()).is_serializable()
        },
    )
    .unwrap();
    assert!(report.terminals > 1);
    assert!(report.all_ok(), "{report:?}");
}

#[test]
fn boosting_is_opaque_over_all_interleavings() {
    let sys = BoostingSystem::new(
        KvMap::new(),
        vec![
            vec![Code::method(MapMethod::Put(1, 1))],
            vec![Code::method(MapMethod::Get(1))],
        ],
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 40,
            max_terminals: 4_000,
        },
        &mut |s| check_trace(&s.machine().trace()).is_opaque(),
    )
    .unwrap();
    assert!(report.all_ok(), "{report:?}");
}

#[test]
fn dependent_with_early_release_is_not_opaque() {
    let mut sys = DependentSystem::new(
        Counter::new(),
        vec![
            vec![Code::method(CtrMethod::Add(1))],
            vec![Code::method(CtrMethod::Get)],
        ],
        true,
    );
    // Steer into the dependency: T0 releases early, T1 pulls.
    use pushpull::core::op::ThreadId;
    sys.tick(ThreadId(0)).unwrap();
    sys.tick(ThreadId(0)).unwrap();
    sys.tick(ThreadId(1)).unwrap();
    run(&mut sys, &mut RandomSched::new(5), 100_000).unwrap();
    match check_trace(&sys.machine().trace()) {
        OpacityVerdict::NotOpaque { violations } => assert!(!violations.is_empty()),
        other => panic!("expected NotOpaque, got {other:?}"),
    }
    // …and yet serializable: the whole point of the §6.5 fragment.
    assert!(check_machine(sys.machine()).is_serializable());
}

/// §6.1's refinement: "an active transaction T may PULL an operation m′
/// of an uncommitted T′ provided T will never execute a method that does
/// not commute with m′."
#[test]
fn commutativity_refinement_classifies_pullers() {
    let spec = Counter::with_universe(8);

    // Build a trace where the puller's remainder is add-only (commutes).
    let mut m = Machine::new(spec);
    let a = m.add_thread(vec![Code::method(CtrMethod::Add(1))]);
    let b = m.add_thread(vec![Code::method(CtrMethod::Add(2))]);
    let ia = m.app_auto(a).unwrap();
    m.push(a, ia).unwrap();
    m.pull(b, ia).unwrap();

    // Oracle for "an invocation of `method` commutes with the pulled op":
    // quantify over the rets the method could produce.
    let commutes = |method: &CtrMethod, _id: OpId, _pulled: &CtrMethod| -> bool {
        let spec = Counter::with_universe(8);
        let pulled_op = Op::new(OpId(900), TxnId(0), CtrMethod::Add(1), CtrRet::Ack);
        let rets: Vec<CtrRet> = match method {
            CtrMethod::Add(_) => vec![CtrRet::Ack],
            CtrMethod::Get => (-8..=8).map(CtrRet::Val).collect(),
        };
        rets.iter().all(|r| {
            let op = Op::new(OpId(901), TxnId(1), *method, *r);
            commute(&spec, &op, &pulled_op)
        })
    };
    assert_eq!(
        check_trace_refined(&m.trace(), commutes),
        OpacityVerdict::OpaqueByCommutativity
    );

    // Now a puller whose remainder contains a Get: refinement refuses.
    let mut m = Machine::new(Counter::with_universe(8));
    let a = m.add_thread(vec![Code::method(CtrMethod::Add(1))]);
    let b = m.add_thread(vec![Code::method(CtrMethod::Get)]);
    let ia = m.app_auto(a).unwrap();
    m.push(a, ia).unwrap();
    m.pull(b, ia).unwrap();
    assert!(!check_trace_refined(&m.trace(), commutes).is_opaque());
}

/// The same refinement, driven by the generic judgement of
/// `pushpull_spec::refinement` instead of a hand-written closure.
#[test]
fn refinement_oracle_classifies_pullers_generically() {
    use pushpull::spec::refinement::method_commutes_with_op;

    let spec = Counter::with_universe(8);
    let mut m = Machine::new(spec);
    let a = m.add_thread(vec![Code::method(CtrMethod::Add(1))]);
    let b = m.add_thread(vec![Code::method(CtrMethod::Add(2))]);
    let ia = m.app_auto(a).unwrap();
    m.push(a, ia).unwrap();
    m.pull(b, ia).unwrap();

    let pulled_op = m.global().entry(ia).unwrap().op.clone();
    let spec2 = Counter::with_universe(8);
    let verdict = check_trace_refined(&m.trace(), |method, _, _| {
        method_commutes_with_op(&spec2, method, &pulled_op)
    });
    assert_eq!(verdict, OpacityVerdict::OpaqueByCommutativity);

    // A Get-remainder puller is rejected by the same oracle.
    let mut m = Machine::new(Counter::with_universe(8));
    let a = m.add_thread(vec![Code::method(CtrMethod::Add(1))]);
    let b = m.add_thread(vec![Code::method(CtrMethod::Get)]);
    let ia = m.app_auto(a).unwrap();
    m.push(a, ia).unwrap();
    m.pull(b, ia).unwrap();
    let pulled_op = m.global().entry(ia).unwrap().op.clone();
    let verdict = check_trace_refined(&m.trace(), |method, _, _| {
        method_commutes_with_op(&spec2, method, &pulled_op)
    });
    assert!(!verdict.is_opaque());
}

/// Opacity is about *observations*: the machine's APP/PULL criteria force
/// every local log prefix to be allowed, so no checked run ever contains
/// an inconsistent observer.
#[test]
fn checked_runs_never_observe_inconsistent_state() {
    for seed in 1..10u64 {
        let prog = || {
            vec![Code::seq_all(vec![
                Code::method(CtrMethod::Get),
                Code::method(CtrMethod::Add(1)),
                Code::method(CtrMethod::Get),
            ])]
        };
        let mut sys = OptimisticSystem::new(
            Counter::new(),
            vec![prog(), prog(), prog()],
            ReadPolicy::Refresh,
        );
        run(&mut sys, &mut RandomSched::new(seed), 200_000).unwrap();
        let bad = pushpull::core::opacity::inconsistent_observers(
            sys.machine().spec(),
            &sys.machine().trace(),
        );
        assert!(
            bad.is_empty(),
            "seed {seed}: inconsistent observers {bad:?}"
        );
    }
}
