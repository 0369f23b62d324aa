//! Lock discipline: the per-shard lock counters must *prove* the "Lock
//! discipline" list of `crates/core/src/global.rs`'s module docs — every
//! shared rule is "evaluate, then effect" under exactly the shard locks
//! it names, and nothing else takes one. The fallback ladder must stay
//! honest too: sticky-coarse mode (an op with no declared footprint at
//! shard count > 1) widens the section without changing any verdict.
//!
//! The counting tests are single-threaded and deterministic, so the lock
//! counters have exact expected values rather than bounds; the last test
//! runs the one critical section against itself on OS threads. Beside
//! the lock counts, a metered spec counts what a critical section
//! *evaluates*: the denotation steps of a transaction on a fresh key, and
//! the sizes of the states they run over, must not depend on its shard's
//! history.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::{OpId, ThreadId};
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::{KeySet, Rets, SeqSpec};
use pushpull::core::toy::{CounterMethod, StrictCounter};
use pushpull::core::{commit_held, GroupTxnResult};
use pushpull::spec::kvmap::{KvMap, MapMethod, MapOp, MapRet, MapState};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};

const TB: ThreadId = ThreadId(1);

/// A 4-shard memory machine with one committed write on `Loc(0)`
/// (shard 0) by thread A; thread B is about to write `Loc(1)` (shard 1)
/// and then `Loc(2)` (shard 2) — disjoint footprints throughout.
fn disjoint_setup() -> Machine<RwMem> {
    let mut m = Machine::new(RwMem::new());
    let ta = m.add_thread(vec![Code::method(MemMethod::Write(Loc(0), 7))]);
    m.add_thread(vec![Code::seq(
        Code::method(MemMethod::Write(Loc(1), 9)),
        Code::method(MemMethod::Write(Loc(2), 4)),
    )]);
    m.set_log_shards(4);
    let w = m.app_auto(ta).expect("app A");
    m.push(ta, w).expect("push A");
    m.commit(ta).expect("commit A");
    m
}

#[test]
fn each_rule_takes_exactly_the_locks_its_discipline_names() {
    type Step = fn(&mut Machine<RwMem>, &mut OpId);
    // (rule, step on thread B, expected lock acquisitions per shard)
    let table: [(&str, Step, [u64; 4]); 11] = [
        ("APP", |m, op| *op = m.app_auto(TB).unwrap(), [0, 0, 0, 0]),
        ("PUSH", |m, op| m.push(TB, *op).unwrap(), [0, 1, 0, 0]),
        ("UNPUSH", |m, op| m.unpush(TB, *op).unwrap(), [0, 1, 0, 0]),
        ("UNAPP", |m, op| *op = m.unapp(TB).unwrap(), [0, 0, 0, 0]),
        (
            "APP + PUSH, shard 1",
            |m, op| {
                *op = m.app_auto(TB).unwrap();
                m.push(TB, *op).unwrap();
            },
            [0, 1, 0, 0],
        ),
        (
            "APP + PUSH, shard 2",
            |m, op| {
                *op = m.app_auto(TB).unwrap();
                m.push(TB, *op).unwrap();
            },
            [0, 0, 1, 0],
        ),
        // CMT: exactly the shards its operations touch.
        ("CMT", |m, _| assert!(m.commit(TB).is_ok()), [0, 1, 1, 0]),
        // PULL by id: probes the shards ascending, one lock at a time,
        // until it finds the entry — B's own committed write on shard 2.
        (
            "PULL by id",
            |m, op| {
                let next = [MemMethod::Write(Loc(1), 5), MemMethod::Write(Loc(3), 6)];
                m.enqueue_txn(TB, Code::seq_all(next.map(Code::method)))
                    .unwrap();
                m.pull(TB, *op).unwrap();
            },
            [1, 1, 1, 0],
        ),
        ("UNPULL", |m, op| m.unpull(TB, *op).unwrap(), [0, 0, 0, 0]),
        // The refresh: one snapshot under every shard lock, each taken
        // exactly once, however many operations it then pulls.
        (
            "refresh",
            |m, _| assert_eq!(m.pull_all_committed(TB).unwrap(), 3),
            [1, 1, 1, 1],
        ),
        // Held commit: both PUSHes and the CMT under one acquisition of
        // each *own* shard (1 and 3). The operations pulled from shards 0
        // and 2 were committed when pulled, so CMT (iii) was settled then
        // and their shards are not locked at all.
        (
            "held multi-shard commit",
            |m, _| {
                m.app_auto(TB).unwrap();
                m.app_auto(TB).unwrap();
                let result = commit_held(m.handle_mut(TB).unwrap());
                assert!(result.is_committed(), "{result:?}");
            },
            [0, 1, 0, 1],
        ),
    ];
    let mut m = disjoint_setup();
    let mut op = OpId(0);
    for (rule, step, delta) in table {
        let before = m.lock_stats_per_shard();
        step(&mut m, &mut op);
        let after = m.lock_stats_per_shard();
        let got: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a.0 - b.0).collect();
        assert_eq!(got, delta, "{rule}: per-shard lock acquisitions");
    }
}

#[test]
fn sticky_coarse_disables_the_fast_path_without_changing_verdicts() {
    // `Size` declares no footprint; pushing it at shard count 4 trips the
    // sticky-coarse rung of the fallback ladder. From then on criteria
    // checks take every shard lock while the verdicts stay exactly what
    // the coarse whole-log evaluation gives.
    let mut m = Machine::new(KvMap::new());
    let ta = m.add_thread(vec![Code::method(MapMethod::Size)]);
    let tb = m.add_thread(vec![Code::method(MapMethod::Put(3, 30))]);
    m.set_log_shards(4);

    let size = m.app_auto(ta).expect("app size");
    m.push(ta, size).expect("push size");
    m.commit(ta).expect("commit size");

    let put = m.app_auto(tb).expect("app put");
    let before = m.lock_stats_per_shard();
    m.push(tb, put).expect("push put");
    let after = m.lock_stats_per_shard();
    let locks: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a.0 - b.0).collect();
    assert_eq!(
        locks,
        [1, 1, 1, 1],
        "coarse mode must evaluate a single-key PUSH under every shard lock"
    );
    m.commit(tb).expect("commit put");
}

/// A two-shard transaction (`Put(1)` on shard 1, `Put(2)` on shard 2 of
/// four) whose peer may hold an uncommitted `Put(2)`; `held` commits it
/// through `commit_held`, the reference through the unheld rules.
fn two_shard_commit(peer_in_flight: bool, held: bool) -> (Machine<KvMap>, Vec<u64>) {
    let mut m = Machine::new(KvMap::new());
    let t = m.add_thread(vec![Code::seq(
        Code::method(MapMethod::Put(1, 10)),
        Code::method(MapMethod::Put(2, 20)),
    )]);
    let peer = m.add_thread(vec![Code::method(MapMethod::Put(2, 99))]);
    m.set_log_shards(4);
    if peer_in_flight {
        let p = m.app_auto(peer).unwrap();
        m.push(peer, p).unwrap();
    }
    m.app_auto(t).unwrap();
    m.app_auto(t).unwrap();
    let before = m.lock_stats_per_shard();
    if held {
        match commit_held(m.handle_mut(t).unwrap()) {
            GroupTxnResult::Committed(_) => assert!(!peer_in_flight),
            GroupTxnResult::Aborted { denied, .. } => {
                assert!(peer_in_flight && denied.is_criterion(), "{denied}");
            }
            other => panic!("unexpected held result {other:?}"),
        }
    } else if m.push_all_and_commit(t).is_err() {
        assert!(peer_in_flight);
        m.abort_and_retry(t).unwrap();
    }
    let after = m.lock_stats_per_shard();
    let locks = after.iter().zip(&before).map(|(a, b)| a.0 - b.0).collect();
    (m, locks)
}

/// The held commit is the unheld rule sequence minus the interleavings: a
/// multi-shard transaction through `commit_held` records the same trace,
/// the same audit and the same `G` as `push_all_and_commit`, under exactly
/// one acquisition of each shard it touches; denied by a peer's
/// uncommitted operation on its second shard it aborts inside the section
/// — the same rewind as the unheld abort — and leaves nothing in `G`.
#[test]
fn held_commit_equals_the_unheld_rules_under_one_acquisition_per_shard() {
    for peer_in_flight in [false, true] {
        let (held, held_locks) = two_shard_commit(peer_in_flight, true);
        let (unheld, unheld_locks) = two_shard_commit(peer_in_flight, false);
        assert_eq!(held_locks, [0, 1, 1, 0], "peer in flight: {peer_in_flight}");
        // Unheld: one lock per PUSH, the CMT's two — or, denied at the
        // second PUSH, that attempt and the first one's UNPUSH.
        let expected_unheld = if peer_in_flight {
            [0, 2, 1, 0]
        } else {
            [0, 2, 2, 0]
        };
        assert_eq!(unheld_locks, expected_unheld);
        assert_eq!(held.trace().render(), unheld.trace().render());
        assert_eq!(held.audit(), unheld.audit());
        assert_eq!(held.global(), unheld.global());
        assert_eq!(held.committed_txns(), unheld.committed_txns());
        let t = held.thread(ThreadId(0)).unwrap();
        if peer_in_flight {
            let rules = held.trace().rule_names(ThreadId(0));
            let rewind = &rules[rules.len() - 5..];
            assert_eq!(rewind, ["UNAPP", "UNPUSH", "UNAPP", "ABORT", "BEGIN"]);
            let own = |txn| held.global().iter().any(|e| e.op.txn == txn);
            assert!(!own(t.txn()) && held.global().len() == 1, "residue in G");
            assert!(t.local().is_empty());
        } else {
            assert!(t.is_done());
            assert_eq!(held.global().committed_ops().len(), 2);
        }
    }
}

/// `KvMap` with its denotation metered: how often `apply` ran, and over
/// how many bindings in all (the sizes of the states it was handed).
#[derive(Debug, Default)]
struct MeteredKvMap {
    map: KvMap,
    calls: AtomicU64,
    bindings: AtomicU64,
}

impl SeqSpec for MeteredKvMap {
    type Method = MapMethod;
    type Ret = MapRet;
    type State = MapState;

    fn initial_states(&self) -> Vec<MapState> {
        self.map.initial_states()
    }

    fn apply(&self, state: &mut MapState, method: &MapMethod, ret: &MapRet) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bindings
            .fetch_add(state.len() as u64, Ordering::Relaxed);
        self.map.apply(state, method, ret)
    }

    fn results(&self, state: &MapState, method: &MapMethod) -> Rets<MapRet> {
        self.map.results(state, method)
    }

    fn mover(&self, op1: &MapOp, op2: &MapOp) -> bool {
        self.map.mover(op1, op2)
    }

    fn method_keys(&self, m: &MapMethod) -> Option<KeySet> {
        self.map.method_keys(m)
    }
}

/// What a `Put;Get;Put` transaction on the fresh key 0 costs after
/// `history` committed transactions on *other* keys of its shard (shard 0
/// of 4): `[apply calls, bindings in the states they were handed]`
/// and the shard-lock acquisitions.
fn fresh_key_cost(history: u64) -> ([u64; 2], Vec<u64>) {
    let mut m = Machine::new(MeteredKvMap::default());
    let others = (1..=history).map(|i| Code::method(MapMethod::Put(4 * i, 1)));
    let filler = m.add_thread(others.collect());
    let probe = [
        MapMethod::Put(0, 1),
        MapMethod::Get(0),
        MapMethod::Put(0, 2),
    ];
    let probe = m.add_thread(vec![Code::seq_all(probe.map(Code::method).to_vec())]);
    m.set_log_shards(4);
    for _ in 0..history {
        let op = m.app_auto(filler).unwrap();
        m.push(filler, op).unwrap();
        m.commit(filler).unwrap();
    }
    let meter = |m: &Machine<MeteredKvMap>| {
        let spec = m.spec();
        let steps = [&spec.calls, &spec.bindings].map(|c| c.load(Ordering::Relaxed));
        (steps, m.lock_stats_per_shard())
    };
    let (steps_before, locks_before) = meter(&m);
    for _ in 0..3 {
        let op = m.app_auto(probe).unwrap();
        m.push(probe, op).unwrap();
    }
    m.commit(probe).unwrap();
    let (steps, locks) = meter(&m);
    let locks = locks.iter().zip(&locks_before).map(|(a, b)| a.0 - b.0);
    (
        [steps[0] - steps_before[0], steps[1] - steps_before[1]],
        locks.collect(),
    )
}

/// History-flat as a count, not a timing: what the criteria evaluate for
/// a transaction depends on its own key's history, not on how many other
/// keys hash to its shard or how much was committed on them. With the
/// committed-prefix cache kept per shard (the parent of PR 20) the same 15
/// calls were handed 585 bindings after 64 transactions and 9 225 after
/// 1 024 — nine of them over a state of the whole shard's size; per class
/// it is 9 bindings either way, the transaction's own.
#[test]
fn a_fresh_key_costs_the_same_after_any_history_on_its_shard() {
    let short = fresh_key_cost(64);
    assert_eq!(short, fresh_key_cost(1024));
    assert_eq!(short.1, [4, 0, 0, 0], "three PUSHes and the CMT, shard 0");
}

/// One lenient refresh of a transaction about to run `probe`, on a
/// 4-shard map where keys 1 and 2 (shards 1 and 2) each hold one committed
/// `Put` and `history` more transactions committed on *other* keys of those
/// two shards — after a committed `Size` (a coarse append: no footprint)
/// if `coarse`. Returns how many operations it pulled and the shard-lock
/// acquisitions it made.
fn refresh_cost(history: u64, probe: &[MapMethod], coarse: bool) -> (usize, Vec<u64>) {
    let first = coarse.then_some(MapMethod::Size);
    let own_keys = [MapMethod::Put(1, 7), MapMethod::Put(2, 8)];
    let others = (0..history).map(|i| MapMethod::Put(4 * (i / 2 + 1) + 1 + i % 2, 1));
    lenient_refresh(first.into_iter().chain(own_keys).chain(others), probe)
}

/// One lenient refresh of a transaction about to run `probe`, on a
/// 4-shard map after `committed` ran as one transaction each, each begun
/// by a refresh of its own (so a read observes what `G` holds). Returns
/// how many operations it pulled and the shard-lock acquisitions it made.
fn lenient_refresh(
    committed: impl Iterator<Item = MapMethod>,
    probe: &[MapMethod],
) -> (usize, Vec<u64>) {
    let mut m = Machine::new(KvMap::new());
    let writer = m.add_thread(committed.map(Code::method).collect());
    let reader = m.add_thread(vec![Code::seq_all(probe.iter().cloned().map(Code::method))]);
    m.set_log_shards(4);
    while !m.thread(writer).unwrap().is_done() {
        m.handle_mut(writer)
            .unwrap()
            .pull_committed_lenient()
            .unwrap();
        let op = m.app_auto(writer).unwrap();
        m.push(writer, op).unwrap();
        m.commit(writer).unwrap();
    }
    let before = m.lock_stats_per_shard();
    let pulled = m.handle_mut(reader).unwrap().pull_committed_lenient();
    let after = m.lock_stats_per_shard();
    let locks = after.iter().zip(&before).map(|(a, b)| a.0 - b.0);
    (pulled.unwrap(), locks.collect())
}

/// The lenient refresh pulls what the transaction can touch, under the
/// locks of the shards that can hold it: the committed operations on the
/// keys its code reaches, whatever else was committed on their shards.
/// Reaching a method without a footprint it is the whole log under every
/// lock. Past a coarse append it is every lock — an operation without a
/// footprint lives on shard 0 — for the same operations: that append, a
/// committed `Size`, is a read, and committed reads stay in `G`.
#[test]
fn a_lenient_refresh_locks_and_pulls_by_the_footprint() {
    let keyed = [MapMethod::Get(1), MapMethod::Put(2, 9)];
    let short = refresh_cost(64, &keyed, false);
    assert_eq!(short, (2, vec![0, 1, 1, 0]), "keys 1 and 2, their shards");
    assert_eq!(short, refresh_cost(1024, &keyed, false), "history-flat");

    let sized = [MapMethod::Get(1), MapMethod::Size];
    assert_eq!(refresh_cost(64, &sized, false), (66, vec![1, 1, 1, 1]));

    // The committed `Size -> 0` is read-only, so it stays in `G`: past it,
    // the refresh still takes every lock, and pulls what it did before.
    assert_eq!(refresh_cost(64, &keyed, true), (2, vec![1, 1, 1, 1]));
    assert_eq!(refresh_cost(64, &sized, true), (66, vec![1, 1, 1, 1]));
}

/// Committed reads on the transaction's own key stay in `G` (a map has one
/// initial state): after one `Put` and 1 or 64 `Get`s on key 1, the
/// refresh pulls the `Put` alone, under key 1's shard lock alone.
#[test]
fn a_lenient_refresh_leaves_committed_reads_in_g() {
    let reads = |gets| {
        let committed = [MapMethod::Put(1, 7)].into_iter();
        lenient_refresh(
            committed.chain(std::iter::repeat_n(MapMethod::Get(1), gets)),
            &[MapMethod::Get(1)],
        )
    };
    assert_eq!(reads(1), (1, vec![0, 1, 0, 0]));
    assert_eq!(reads(64), reads(1), "read-flat");
}

/// Evaluate-and-append is one step under the shard lock: four OS threads
/// race `Inc`s at a counter that admits only `BOUND` of them. Were the
/// criteria evaluated outside the appending critical section, two threads
/// could both see room for the last `Inc` and both append.
#[test]
fn concurrent_pushes_never_exceed_what_allowed_admits() {
    const BOUND: i64 = 5;
    const THREADS: usize = 4;
    const TXNS: usize = 8;
    let mut m = Machine::new(StrictCounter::with_bound(BOUND));
    for _ in 0..THREADS {
        m.add_thread(vec![Code::method(CounterMethod::Inc); TXNS]);
    }
    let start = Barrier::new(THREADS);
    let accepted: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = m
            .handles_mut()
            .iter_mut()
            .map(|h| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut accepted = 0;
                    while !h.is_done() {
                        let op = h.app_auto().expect("Inc is locally allowed");
                        match h.push(op) {
                            Ok(()) => {
                                h.commit().expect("nothing pulled: CMT holds");
                                accepted += 1;
                            }
                            Err(e) => {
                                assert!(e.is_criterion(), "denial must be a criterion: {e}");
                                h.abandon().expect("rewind of an unpushed op");
                            }
                        }
                    }
                    accepted
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    // A PUSH (ii) denial while another thread's `Inc` is in flight can
    // waste an attempt, so fewer than `BOUND` may land — never more.
    assert!((1..=BOUND as usize).contains(&accepted), "{accepted}");
    assert_eq!(m.global().committed_ops().len(), accepted);
    assert!(check_machine(&m).is_serializable());
}
