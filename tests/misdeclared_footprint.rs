//! The lenient refresh filters by declared keys *without* asking for a
//! certificate, where fine-grained routing does ask (strict mode demotes
//! it, `tests/certificate_gate.rs`). The argument: routing decides which
//! entries of `G` a criterion *reads*; the refresh decides which operations a transaction PULLs, and PULL is
//! optional per operation — every PUSH and CMT criterion still runs
//! against `G`. So a footprint that lies can leave a view stale, which
//! costs retries, and can never let a stale view commit.
//!
//! Here the argument is a check: a memory whose `Read(l)` declares a key
//! no `Write(l)` declares, on a single-shard machine (where routing does
//! not look at footprints at all), through a §6 driver and through the
//! service front-end under the round-robin scheduler.
//!
//! Boosting, 2PL and §7's boosted half do trust a footprint: it is
//! their abstract locks. A `Size` declared on a key of its own claims to
//! commute with every put; the certifier refutes that, and boosting over
//! it meets the PUSH (ii) denials the whole-object lock would have
//! ordered away — each one an abort, the run still serializable.
//!
//! The refresh's other filter — committed operations the spec declares
//! `ReadOnly` stay in `G` — trusts the inverse oracle the same way, with
//! no certificate either, and for the same reason: a memory whose every
//! `Write` claims to be read-only is never refreshed past a write, and
//! the same two runs show it costs retries, or a session its budget, and
//! no verdict.

use pushpull::analysis::{certify, UNSOUND_FOOTPRINT};
use pushpull::core::error::{Clause, Rule};
use pushpull::core::lang::Code;
use pushpull::core::op::{Op, ThreadId};
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::{KeySet, OpInverse, Rets, SeqSpec};
use pushpull::harness::testutil::Redeclared;
use pushpull::harness::{run, RoundRobin};
use pushpull::server::{ServerConfig, SessionOutcome, SessionScript, TxnServer};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, MemRet, MemState, RwMem};
use pushpull::tm::optimistic::ReadPolicy;
use pushpull::tm::{BoostingSystem, OptimisticSystem};

const BUDGET: usize = 100_000;

/// `RwMem` as it declares itself, or with every `Read` lying: a reader
/// that touches nothing else never refreshes the location it reads.
fn memory(lying: bool) -> Redeclared<RwMem> {
    let honest = |m: &MemMethod| RwMem::new().method_keys(m);
    let lie = |m: &MemMethod| match m {
        MemMethod::Read(l) => Some(KeySet::one(1_000 + u64::from(l.0))),
        write => RwMem::new().method_keys(write),
    };
    Redeclared {
        inner: RwMem::new(),
        keys: if lying { lie } else { honest },
    }
}

/// `RwMem` with every operation declared [`OpInverse::ReadOnly`] —
/// uncertified, and false for a `Write`: the lenient refresh (`RwMem` has
/// one initial state) then leaves every committed write in `G`.
#[derive(Debug, Clone, Default)]
struct WritesReadOnly(RwMem);

impl SeqSpec for WritesReadOnly {
    type Method = MemMethod;
    type Ret = MemRet;
    type State = MemState;

    fn initial_states(&self) -> Vec<MemState> {
        self.0.initial_states()
    }

    fn apply(&self, state: &mut MemState, method: &MemMethod, ret: &MemRet) -> bool {
        self.0.apply(state, method, ret)
    }

    fn results(&self, state: &MemState, method: &MemMethod) -> Rets<MemRet> {
        self.0.results(state, method)
    }

    fn mover(&self, op1: &Op<MemMethod, MemRet>, op2: &Op<MemMethod, MemRet>) -> bool {
        self.0.mover(op1, op2)
    }

    fn method_mover(&self, m1: &MemMethod, m2: &MemMethod) -> Option<bool> {
        self.0.method_mover(m1, m2)
    }

    fn method_keys(&self, m: &MemMethod) -> Option<KeySet> {
        self.0.method_keys(m)
    }

    fn inverse(&self, _op: &Op<MemMethod, MemRet>) -> OpInverse<MemMethod, MemRet> {
        OpInverse::ReadOnly
    }
}

/// A writer sets location 0, then writes its initial value back two
/// transactions later; a reader gets to `Read(0)` in between, through the
/// optimistic driver. Returns the aborts and what the reader's `Read(0)`
/// returned.
fn through_the_driver<S: SeqSpec<Method = MemMethod, Ret = MemRet>>(spec: S) -> (u64, MemRet) {
    let write = |l, v| Code::method(MemMethod::Write(Loc(l), v));
    let writer = vec![write(0, 1), write(1, 5), write(0, 0)];
    let reader = vec![write(2, 1), Code::method(MemMethod::Read(Loc(0)))];
    let mut sys = OptimisticSystem::new(spec, vec![writer, reader], ReadPolicy::Snapshot);
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("no machine error");
    assert!(out.completed, "the run must terminate");
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
    let stats = sys.stats();
    assert_eq!(stats.commits, 5);
    let read = sys.machine().committed_txns().pop().expect("five commits");
    (stats.aborts, read.ops[0].ret)
}

/// Refreshed, the reader of [`through_the_driver`] reads the 1 and commits
/// at once. Lied to, it keeps observing the initial 0, which PUSH (iii)
/// keeps denying — until 0 is the committed value again, and it commits:
/// late, and serializably.
#[test]
fn a_lying_footprint_costs_the_driver_retries_and_no_verdict() {
    let (honest_aborts, honest_read) = through_the_driver(memory(false));
    let (lying_aborts, lying_read) = through_the_driver(memory(true));
    assert_eq!(honest_aborts, 0, "a refreshed reader is never denied");
    assert!(lying_aborts > 0, "the stale reader must have been denied");
    assert_ne!(
        honest_read, lying_read,
        "1 when refreshed, 0 once it is 0 again"
    );
}

/// The same through a write declared read-only: the reader's refresh
/// leaves the committed `Write(0, 1)` in `G`.
#[test]
fn a_write_declared_read_only_costs_the_driver_retries_and_no_verdict() {
    let (honest_aborts, honest_read) = through_the_driver(RwMem::new());
    let (lying_aborts, lying_read) = through_the_driver(WritesReadOnly::default());
    assert_eq!(honest_aborts, 0, "a refreshed reader is never denied");
    assert!(lying_aborts > 0, "the stale reader must have been denied");
    assert_ne!(
        honest_read, lying_read,
        "1 when refreshed, 0 once it is 0 again"
    );
}

/// Readers and writers of location 0 through the server, one slot, so
/// sessions run one after another in the order the server's seeded deal
/// gives them. Asserts that nothing is left behind, that what committed is
/// serializable and that only readers fail, each cleanly with its last
/// criterion denial; returns how many failed.
fn through_the_server<S: SeqSpec<Method = MemMethod>>(spec: S) -> usize {
    let read = || SessionScript::commit(vec![MemMethod::Read(Loc(0))]);
    let write = |v| SessionScript::commit(vec![MemMethod::Write(Loc(0), v)]);
    let config = ServerConfig {
        workers: 1,
        slots_per_worker: 1,
        max_retries: 3,
        ..ServerConfig::default()
    };
    let scripts = vec![write(1), read(), write(0), read(), write(1)];
    let mut sys = TxnServer::new(spec, scripts, config);
    let out = run(&mut sys, &mut RoundRobin, BUDGET).expect("a spent budget is not raised");
    assert!(out.completed, "the server must drain");
    let m = sys.machine();
    let report = check_machine(m);
    assert!(report.is_serializable(), "{report}");
    assert!(m.thread(ThreadId(0)).unwrap().local().is_empty());
    let outcomes = sys.outcomes();
    assert_eq!(outcomes.len(), 5, "sessions lost");
    let failed = outcomes.iter().filter(|(session, o)| match o {
        SessionOutcome::Committed { .. } => false,
        SessionOutcome::Failed { error } => {
            assert!(error.is_criterion(), "failed with {error}");
            assert!(session.0 % 2 == 1, "a writer is never stale");
            true
        }
        SessionOutcome::Aborted { .. } => panic!("no script aborts"),
    });
    let failures = failed.count();
    assert_eq!(m.committed_txns().len(), 5 - failures);
    failures
}

/// The lying footprint through the server: a reader admitted while
/// location 0 holds 1 can never be refreshed, spends its retry budget and
/// fails cleanly with its last criterion denial; every other session
/// commits.
#[test]
fn a_lying_footprint_fails_a_session_on_its_budget_and_no_verdict() {
    assert_eq!(
        through_the_server(memory(false)),
        0,
        "refreshed, every session commits"
    );
    assert!(
        through_the_server(memory(true)) > 0,
        "a reader that found 1 committed must fail"
    );
}

/// The write declared read-only through the server, as the lying
/// footprint.
#[test]
fn a_write_declared_read_only_fails_a_session_on_its_budget_and_no_verdict() {
    assert_eq!(
        through_the_server(RwMem::new()),
        0,
        "refreshed, every session commits"
    );
    assert!(
        through_the_server(WritesReadOnly::default()) > 0,
        "a reader that found 1 committed must fail"
    );
}

/// `map` with `Size` declared on a key of its own (no map key is
/// `u64::MAX` here) where it declares none: as a lock, the key orders
/// `Size` against no put.
fn size_on_its_own_key(map: KvMap) -> Redeclared<KvMap> {
    Redeclared {
        inner: map,
        keys: |m| Some(KeySet::one(m.key().unwrap_or(u64::MAX))),
    }
}

#[test]
fn a_size_on_its_own_key_is_refuted_by_the_certifier() {
    let spec = size_on_its_own_key(KvMap::bounded(vec![1, 2], vec![7]));
    let cert = certify(&spec, "kvmap-size-keyed").expect("bounded");
    assert!(!cert.is_valid());
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.lint == UNSOUND_FOOTPRINT && d.message.contains("Size")),
        "{:?}",
        cert.diagnostics
    );
}

/// Four transactions each put a key of their own, then read `Size`.
/// Honestly declared, `Size` locks the whole map exclusive and waits for
/// the other puts to commit. Keyed on its own, it is granted beside
/// uncommitted foreign puts, and the machine denies its PUSH (ii). The
/// lie also narrows the refresh, which pulls the committed operations on
/// the transaction's declared keys only: a `Size` that follows a
/// committed foreign put stays stale and is denied on every retry, so
/// that run is bounded rather than driven to the end.
#[test]
fn a_size_on_its_own_key_makes_boosting_meet_push_denials() {
    let programs = || {
        (0..4u64)
            .map(|t| {
                vec![Code::seq_all(vec![
                    Code::method(MapMethod::Put(t, t as i64)),
                    Code::method(MapMethod::Size),
                ])]
            })
            .collect::<Vec<_>>()
    };
    let honest = Redeclared {
        inner: KvMap::new(),
        keys: |m: &MapMethod| KvMap::new().method_keys(m),
    };
    let mut sys = BoostingSystem::new(honest, programs());
    assert!(run(&mut sys, &mut RoundRobin, BUDGET).unwrap().completed);
    assert_eq!(sys.stats().commits, 4);
    assert_eq!(sys.machine().audit().push_cmt_violations(), 0);

    let mut sys = BoostingSystem::new(size_on_its_own_key(KvMap::new()), programs());
    run(&mut sys, &mut RoundRobin, 2_000).unwrap();
    let audit = sys.machine().audit();
    assert!(
        audit.violated_count(Rule::Push, Clause::Ii) > 0,
        "{}",
        audit.render()
    );
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}
