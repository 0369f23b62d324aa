//! E1 / Figure 2: the transactional-boosting hashtable, its rule
//! decomposition, its abort path, and exhaustive serializability over all
//! interleavings of a small configuration.

use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::harness::{explore, run, ExploreLimits, RandomSched, RoundRobin};
use pushpull::spec::kvmap::{KvMap, MapMethod, MapRet};
use pushpull::tm::{BoostingSystem, Tick, TmSystem};

fn put(k: u64, v: i64) -> Code<MapMethod> {
    Code::method(MapMethod::Put(k, v))
}

fn get(k: u64) -> Code<MapMethod> {
    Code::method(MapMethod::Get(k))
}

/// Figure 2's happy path decomposes as [PULL*] APP PUSH … CMT.
#[test]
fn put_decomposes_as_app_push_cmt() {
    let mut sys = BoostingSystem::new(KvMap::new(), vec![vec![put(1, 100)]]);
    run(&mut sys, &mut RoundRobin, 100).unwrap();
    let names = sys.machine().trace().rule_names(ThreadId(0));
    assert_eq!(names, vec!["BEGIN", "APP", "PUSH", "CMT"]);
    assert!(check_machine(sys.machine()).is_serializable());
}

/// Figure 2's abort path: UNPUSH then UNAPP (the inverse operation), then
/// a clean retry.
#[test]
fn abort_decomposes_as_unpush_unapp() {
    let mut sys = BoostingSystem::new(
        KvMap::new(),
        vec![vec![Code::seq_all(vec![put(1, 100), put(2, 200)])]],
    );
    assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Progress); // put(1): APP;PUSH
    sys.force_abort(ThreadId(0));
    assert_eq!(sys.tick(ThreadId(0)).unwrap(), Tick::Aborted);
    let names = sys.machine().trace().rule_names(ThreadId(0));
    assert_eq!(
        names,
        vec!["BEGIN", "APP", "PUSH", "UNPUSH", "UNAPP", "ABORT", "BEGIN"]
    );
    // After the abort nothing of the transaction remains in the shared log.
    assert!(sys.machine().global().is_empty());
    run(&mut sys, &mut RoundRobin, 1000).unwrap();
    assert_eq!(sys.stats().commits, 1);
    assert!(check_machine(sys.machine()).is_serializable());
}

/// "No two transactions conflict because if they try to access the same
/// key one will block": same-key transactions serialize, distinct-key
/// transactions do not block each other.
#[test]
fn abstract_locks_enforce_key_commutativity() {
    // Distinct keys: no blocking, no aborts.
    let mut sys = BoostingSystem::new(
        KvMap::new(),
        vec![vec![put(1, 1)], vec![put(2, 2)], vec![put(3, 3)]],
    );
    run(&mut sys, &mut RoundRobin, 1000).unwrap();
    assert_eq!(sys.stats().commits, 3);
    assert_eq!(sys.stats().aborts, 0);
    assert_eq!(sys.stats().blocked_ticks, 0);

    // Same key: the second blocks until the first commits.
    let mut sys = BoostingSystem::new(
        KvMap::new(),
        vec![
            vec![Code::seq_all(vec![put(1, 1), get(1)])],
            vec![Code::seq_all(vec![put(1, 2), get(1)])],
        ],
    );
    run(&mut sys, &mut RoundRobin, 4000).unwrap();
    assert_eq!(sys.stats().commits, 2);
    assert!(sys.stats().blocked_ticks > 0);
    assert!(check_machine(sys.machine()).is_serializable());
}

/// Exhaustive model check of the Figure 2 configuration: every
/// interleaving of two boosted put/get transactions is serializable and
/// the committed gets always observe a value some serial order explains.
#[test]
fn all_interleavings_serializable() {
    let sys = BoostingSystem::new(
        KvMap::new(),
        vec![
            vec![Code::seq_all(vec![put(1, 10), get(2)])],
            vec![Code::seq_all(vec![put(2, 20), get(1)])],
        ],
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 40,
            max_terminals: 4_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert!(
        report.terminals > 5,
        "too few interleavings explored: {report:?}"
    );
    assert!(report.all_ok(), "{report:?}");
}

/// The model-level committed log replays into the *real* substrate
/// (an ordered map) with every observation agreeing — Figure 2's two
/// views of one execution.
#[test]
fn committed_log_mirrors_into_substrate() {
    use pushpull::ds::mirror::MapMirror;
    for seed in 1..=10u64 {
        let mut sys = BoostingSystem::new(
            KvMap::new(),
            vec![
                vec![Code::seq_all(vec![put(1, 10), get(2), put(3, 30)])],
                vec![Code::seq_all(vec![put(2, 20), get(1)])],
                vec![Code::seq_all(vec![get(3), put(1, 11)])],
            ],
        );
        run(&mut sys, &mut RandomSched::new(seed), 200_000).unwrap();
        assert!(sys.is_done(), "seed {seed}");
        let mut mirror = MapMirror::new();
        let committed = sys.machine().global().committed_ops();
        let n = mirror
            .replay(committed.iter())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(n, committed.len());
    }
}

/// The boosted get in a same-key pair observes exactly the committed
/// predecessor's value (reads see the shared state, Figure 2's implicit
/// PULL).
#[test]
fn reads_observe_predecessors_value() {
    for seed in 1..20u64 {
        let mut sys = BoostingSystem::new(KvMap::new(), vec![vec![put(7, 42)], vec![get(7)]]);
        run(&mut sys, &mut RandomSched::new(seed), 100_000).unwrap();
        assert_eq!(sys.stats().commits, 2);
        let committed = sys.machine().committed_txns();
        let put_pos = committed
            .iter()
            .position(|t| t.thread == ThreadId(0))
            .unwrap();
        let get_txn = committed.iter().find(|t| t.thread == ThreadId(1)).unwrap();
        let get_pos = committed
            .iter()
            .position(|t| t.thread == ThreadId(1))
            .unwrap();
        let expected = if put_pos < get_pos { Some(42) } else { None };
        assert_eq!(get_txn.ops[0].ret, MapRet::Val(expected), "seed {seed}");
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "seed {seed}"
        );
    }
}
