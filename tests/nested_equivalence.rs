//! Flat-vs-closed-nested golden equivalence: wrapping part of a
//! transaction body in a closed `tx` marker changes the *scope
//! structure*, never the observable run.
//!
//! Every §6/§7 driver runs the same workload twice under the
//! deterministic round-robin scheduler — once with flat bodies, once
//! with the tail of each body wrapped in `Code::tx` — at shard counts
//! 1, 4 and 16. Closed nesting shares the parent's flat log and
//! transaction identity and its merge is event-free, so both runs must
//! produce **bit-identical traces**, identical commit counts, identical
//! audit ledgers and the same serializability verdict. The only
//! permitted difference is the nesting counters: the nested run opens
//! and merges scopes, the flat run never does.
//!
//! An open-nested abort test rides along: a parent abort after an `otx`
//! child commit must replay the compensating transaction, leaving the
//! committed projection's *abstract state* exactly where it would be
//! had the child never run — checked by denotation, not by op count.

use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine_nested;
use pushpull::core::spec::SeqSpec;
use pushpull::harness::testutil::assert_ledger_matches;
use pushpull::harness::{run, RoundRobin};
use pushpull::spec::bank::{Bank, BankMethod, BankState};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{
    BoostingSystem, CheckpointOptimistic, DependentSystem, HtmSystem, IrrevocableSystem,
    MatveevShavitSystem, MixedSystem, OptimisticSystem, Tl2System, TmSystem, TwoPhaseLocking,
};

const BUDGET: usize = 2_000_000;

/// All shard counts the equivalence is quantified over.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// The flat rendering of a body: plain sequencing.
fn flat<M: Clone>(steps: Vec<Code<M>>) -> Code<M> {
    Code::seq_all(steps)
}

/// The closed-nested rendering of the same body: the tail after the
/// first step runs inside a `tx` marker (`a ; b ; c` ⇒ `a ; tx(b ; c)`;
/// a single step is wrapped whole). Same methods in the same order —
/// only the scope structure differs.
fn nested<M: Clone>(mut steps: Vec<Code<M>>) -> Code<M> {
    if steps.len() <= 1 {
        return Code::tx(Code::seq_all(steps));
    }
    let head = steps.remove(0);
    Code::seq(head, Code::tx(Code::seq_all(steps)))
}

/// The method type of the specification a system's machine runs over.
type Method<T> = <<T as TmSystem>::MachineSpec as SeqSpec>::Method;

/// One run: reshard, drive to completion, snapshot everything the
/// equivalence quantifies over, plus how many scopes were opened.
fn golden<T>(
    label: &str,
    mut sys: T,
    shards: usize,
) -> (u64, String, pushpull::core::audit::CriteriaAudit, u64)
where
    T: TmSystem,
    Method<T>: std::fmt::Display,
{
    sys.set_log_shards(shards);
    let out = run(&mut sys, &mut RoundRobin, BUDGET)
        .unwrap_or_else(|e| panic!("{label}@{shards}: machine error: {e}"));
    assert!(out.completed, "{label}@{shards}: wedged");
    let m = sys.machine();
    let report = check_machine_nested(m);
    assert!(report.is_serializable(), "{label}@{shards}: {report}");
    let commits = m.committed_txns().len() as u64;
    let opened = m.nesting_stats().scopes_opened;
    (commits, m.trace().render(), m.audit(), opened)
}

/// Drives the flat and nested renderings of one workload at every shard
/// count and asserts they are bit-identical, modulo the scope counters.
fn assert_nested_equivalence<T>(
    label: &str,
    make: impl Fn(fn(Vec<Code<Method<T>>>) -> Code<Method<T>>) -> T,
) where
    T: TmSystem,
    Method<T>: std::fmt::Display,
{
    for shards in SHARD_COUNTS {
        let (fc, ft, fa, fo) = golden(label, make(flat), shards);
        let (nc, nt, na, no) = golden(label, make(nested), shards);
        // Drivers may open scopes of their own (checkpointing), so the
        // baseline need not be zero — but the tx markers must add some.
        assert!(no > fo, "{label}@{shards}: nested run never entered its tx");
        assert_eq!(nc, fc, "{label}@{shards}: commits diverge");
        assert_eq!(
            nt, ft,
            "{label}@{shards}: traces diverge — closed nesting leaked an event"
        );
        assert_ledger_matches(&na, &fa);
    }
}

#[test]
fn boosting_nesting_is_verdict_equivalent() {
    let body = |t: u64| {
        vec![
            Code::method(MapMethod::Put(t % 4, t as i64)),
            Code::method(MapMethod::Get((t + 1) % 4)),
        ]
    };
    assert_nested_equivalence("boosting/kvmap", move |wrap| {
        let programs = (0..8u64).map(|t| vec![wrap(body(t))]).collect();
        BoostingSystem::new(KvMap::new(), programs)
    });
}

#[test]
fn optimistic_nesting_is_verdict_equivalent() {
    let body = |t: u32| {
        vec![
            Code::method(MemMethod::Read(Loc(t % 2))),
            Code::method(MemMethod::Write(Loc(t % 2), i64::from(t))),
        ]
    };
    assert_nested_equivalence("optimistic/rwmem", move |wrap| {
        let programs = (0..6u32).map(|t| vec![wrap(body(t))]).collect();
        OptimisticSystem::new(RwMem::new(), programs, ReadPolicy::Snapshot)
    });
}

#[test]
fn pessimistic_nesting_is_verdict_equivalent() {
    assert_nested_equivalence("pessimistic/rwmem", |wrap| {
        let programs = (1..=4i64)
            .map(|v| vec![wrap(vec![Code::method(MemMethod::Write(Loc(0), v))])])
            .collect();
        MatveevShavitSystem::new(RwMem::new(), programs)
    });
}

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ]
}

#[test]
fn tl2_nesting_is_verdict_equivalent() {
    assert_nested_equivalence("tl2/rwmem", |wrap| {
        let programs = [(0, 1), (1, 2), (0, 3), (1, 4)]
            .into_iter()
            .map(|(l, v)| vec![wrap(rmw(l, v))])
            .collect();
        Tl2System::new(programs)
    });
}

#[test]
fn twophase_nesting_is_verdict_equivalent() {
    assert_nested_equivalence("2pl/rwmem", |wrap| {
        let read0 = vec![Code::method(MemMethod::Read(Loc(0)))];
        TwoPhaseLocking::new(vec![
            vec![wrap(read0.clone())],
            vec![wrap(read0)],
            vec![wrap(rmw(1, 7))],
            vec![wrap(rmw(1, 8))],
        ])
    });
}

#[test]
fn htm_nesting_is_verdict_equivalent() {
    assert_nested_equivalence("htm/rwmem", |wrap| {
        let programs = [(0, 1), (1, 2), (0, 3), (2, 4)]
            .into_iter()
            .map(|(l, v)| vec![wrap(rmw(l, v))])
            .collect();
        HtmSystem::new(programs)
    });
}

#[test]
fn irrevocable_nesting_is_verdict_equivalent() {
    assert_nested_equivalence("irrevocable/rwmem", |wrap| {
        let programs = [(0, 10), (0, 20), (1, 30), (0, 40)]
            .into_iter()
            .map(|(l, v)| vec![wrap(rmw(l, v))])
            .collect();
        IrrevocableSystem::new(RwMem::new(), programs, ThreadId(0))
    });
}

#[test]
fn checkpoint_nesting_is_verdict_equivalent() {
    // The driver already runs on checkpoint scopes; an explicit tx
    // marker nests a closed scope inside them.
    let body = |l: u32, v: i64| {
        vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Read(Loc(l + 1))),
            Code::method(MemMethod::Write(Loc(l), v)),
        ]
    };
    assert_nested_equivalence("checkpoint/rwmem", move |wrap| {
        let programs = [(0, 1), (0, 2), (1, 3), (1, 4)]
            .into_iter()
            .map(|(l, v)| vec![wrap(body(l, v))])
            .collect();
        CheckpointOptimistic::new(RwMem::new(), programs)
    });
}

#[test]
fn dependent_nesting_is_verdict_equivalent() {
    let body = |t: i64| {
        vec![
            Code::method(CtrMethod::Add(t + 1)),
            Code::method(CtrMethod::Get),
        ]
    };
    assert_nested_equivalence("dependent/counter", move |wrap| {
        let programs = (0..4i64).map(|t| vec![wrap(body(t))]).collect();
        DependentSystem::new(Counter::new(), programs, true)
    });
}

#[test]
fn mixed_nesting_is_verdict_equivalent() {
    let body = |t: u64| {
        vec![
            Code::method(methods::skiplist(SetMethod::Add(t))),
            Code::method(methods::size(CtrMethod::Add(1))),
            Code::method(methods::hash_table(MapMethod::Put(t, t as i64))),
            Code::method(methods::mem(MemMethod::Write(Loc((t % 2) as u32), 1))),
        ]
    };
    assert_nested_equivalence("mixed/product", move |wrap| {
        let programs = (0..4u64).map(|t| vec![wrap(body(t))]).collect();
        MixedSystem::new(mixed_spec(), programs)
    });
}

// ---------------------------------------------------------------------
// Open nesting: the compensation must restore the abstract state
// exactly (checked by denotation, not by op count).
// ---------------------------------------------------------------------

#[test]
fn open_abort_compensation_restores_exact_state() {
    let spec = Bank::new();
    let mut m = Machine::new(Bank::new());
    let t = m.add_thread(vec![Code::seq(
        Code::otx(Code::method(BankMethod::Deposit(0, 5))),
        Code::method(BankMethod::Deposit(1, 3)),
    )]);
    m.app_auto(t).unwrap(); // child deposit applies inside the peeled otx
    m.app_auto(t).unwrap(); // open child commits; parent deposit applies
    assert_eq!(m.committed_txns().len(), 1, "child committed on its own");

    // Parent aborts: the registered compensation (a withdraw) must
    // commit, leaving the committed projection's denotation exactly at
    // the initial state — as if the child had never run.
    m.abort_and_retry(t).unwrap();
    assert_eq!(m.committed_txns().len(), 2, "compensation committed");
    assert_eq!(m.nesting_stats().compensations_replayed, 1);
    let committed = m.global().committed_ops();
    let mut states = spec.denote(&committed).into_iter();
    let state = states.next().expect("committed projection denotes");
    assert!(states.next().is_none(), "bank is deterministic");
    // The withdraw leaves an explicit zero balance where the initial
    // state had no entry; observably they are the same state.
    assert!(
        state.values().all(|&bal| bal == 0),
        "deposit ∘ withdraw must restore every balance: {state:?}"
    );

    // The retry completes: final state holds exactly both deposits.
    m.app_auto(t).unwrap();
    m.app_auto(t).unwrap();
    m.push_all_and_commit(t).unwrap();
    let report = check_machine_nested(&m);
    assert!(report.is_serializable(), "{report}");
    let committed = m.global().committed_ops();
    let states = spec.denote(&committed);
    let expected: BankState = [(0u32, 5i64), (1u32, 3i64)].into_iter().collect();
    assert_eq!(states.into_iter().collect::<Vec<_>>(), vec![expected]);
}
