//! E4–E6: per-algorithm serializability, §6.2 (optimistic), §6.3
//! (pessimistic + boosting), §6.4 (irrevocable) — exhaustively on small
//! configurations, and under many random interleavings on larger ones.

use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::opacity::check_trace;
use pushpull::core::serializability::{check_machine, find_any_serialization};
use pushpull::harness::{explore, run, ExploreLimits, ExploreReport, RandomSched, WorkloadSpec};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::spec::set::SetMethod;
use pushpull::tm::mixed::{methods, mixed_spec};
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::pessimistic::MatveevShavitSystem;
use pushpull::tm::{
    BoostingSystem, HtmSystem, IrrevocableSystem, MixedSystem, Tl2System, TmSystem, TwoPhaseLocking,
};

fn rmw(l: u32, v: i64) -> Vec<Code<MemMethod>> {
    vec![Code::seq_all(vec![
        Code::method(MemMethod::Read(Loc(l))),
        Code::method(MemMethod::Write(Loc(l), v)),
    ])]
}

/// E4: every interleaving of two optimistic RMW transactions on the same
/// location is serializable — the lost-update anomaly is impossible.
#[test]
fn optimistic_no_lost_updates_exhaustive() {
    let sys = OptimisticSystem::new(
        RwMem::new(),
        vec![rmw(0, 1), rmw(0, 2)],
        ReadPolicy::Snapshot,
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 48,
            max_terminals: 4_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert!(report.terminals > 1);
    assert!(report.all_ok(), "{report:?}");
}

/// E4: abort path is UNAPP-only (§6.2: "needn't UNPUSH").
#[test]
fn optimistic_abort_path_never_unpushes() {
    let mut sys = OptimisticSystem::new(
        Counter::new(),
        vec![
            vec![Code::method(CtrMethod::Add(1))],
            vec![Code::method(CtrMethod::Get)],
        ],
        ReadPolicy::Snapshot,
    );
    // Run with a seed and check the global property on the trace.
    run(&mut sys, &mut RandomSched::new(3), 100_000).unwrap();
    assert_eq!(sys.machine().trace().count_rule("UNPUSH"), 0);
    assert!(check_machine(sys.machine()).is_serializable());
}

/// E5: Matveev–Shavit writers never abort, even with full write-write
/// contention, across random interleavings.
#[test]
fn pessimistic_writers_never_abort() {
    for seed in 1..=15u64 {
        let prog = |v: i64| vec![Code::method(MemMethod::Write(Loc(0), v))];
        let mut sys = MatveevShavitSystem::new(RwMem::new(), vec![prog(1), prog(2), prog(3)]);
        run(&mut sys, &mut RandomSched::new(seed), 100_000).unwrap();
        assert_eq!(sys.stats().commits, 3, "seed {seed}");
        assert_eq!(sys.stats().aborts, 0, "seed {seed}");
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "seed {seed}"
        );
    }
}

/// E5: exhaustive check of the pessimistic system.
#[test]
fn pessimistic_exhaustive() {
    let sys = MatveevShavitSystem::new(RwMem::new(), vec![rmw(0, 1), rmw(1, 2)]);
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 40,
            max_terminals: 4_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert!(report.all_ok(), "{report:?}");
}

/// E6: the irrevocable thread never aborts while optimists yield.
#[test]
fn irrevocable_thread_always_wins() {
    for seed in 1..=15u64 {
        let mut sys = IrrevocableSystem::new(
            RwMem::new(),
            vec![rmw(0, 1), rmw(0, 2), rmw(0, 3)],
            ThreadId(0),
        );
        run(&mut sys, &mut RandomSched::new(seed), 200_000).unwrap();
        assert!(sys.is_done(), "seed {seed}");
        assert_eq!(sys.stats().commits, 3, "seed {seed}");
        assert_eq!(sys.irrevocable_aborts(), 0, "seed {seed}");
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "seed {seed}"
        );
    }
}

/// Larger randomized sweep: every algorithm on a shared workload, many
/// seeds, all serializable (the Theorem 5.17 experiment).
#[test]
fn randomized_sweep_all_algorithms_serializable() {
    let spec = WorkloadSpec {
        threads: 3,
        txns_per_thread: 4,
        ops_per_txn: 3,
        key_range: 4,
        read_ratio: 0.5,
        seed: 7,
    };
    for seed in 1..=8u64 {
        let mut sys = BoostingSystem::new(KvMap::new(), spec.kvmap_programs());
        run(&mut sys, &mut RandomSched::new(seed), 2_000_000).unwrap();
        assert!(sys.is_done(), "boosting seed {seed}");
        assert!(decided(&sys), "boosting seed {seed}");
        let r = check_machine(sys.machine());
        assert!(r.is_serializable(), "boosting seed {seed}: {r}");

        let mut sys =
            OptimisticSystem::new(RwMem::new(), spec.rwmem_programs(), ReadPolicy::Snapshot);
        run(&mut sys, &mut RandomSched::new(seed), 2_000_000).unwrap();
        assert!(sys.is_done(), "optimistic seed {seed}");
        let r = check_machine(sys.machine());
        assert!(r.is_serializable(), "optimistic seed {seed}: {r}");

        let mut sys = MatveevShavitSystem::new(RwMem::new(), spec.rwmem_programs());
        run(&mut sys, &mut RandomSched::new(seed), 2_000_000).unwrap();
        assert!(sys.is_done(), "pessimistic seed {seed}");
        let r = check_machine(sys.machine());
        assert!(r.is_serializable(), "pessimistic seed {seed}: {r}");

        let mut sys = HtmSystem::new(spec.rwmem_programs());
        run(&mut sys, &mut RandomSched::new(seed), 2_000_000).unwrap();
        assert!(sys.is_done(), "htm seed {seed}");
        assert!(decided(&sys), "htm seed {seed}");
        let r = check_machine(sys.machine());
        assert!(r.is_serializable(), "htm seed {seed}: {r}");
    }
}

/// The simulated HTM's tracker decides every conflict on a contended
/// workload of four read-modify-writes over two words: no seed meets a
/// PUSH or CMT denial. (While each access read the committed state as of
/// its transaction's begin, 17 of these 30 seeds met one or two.)
#[test]
fn htm_tracker_decides_every_conflict() {
    for seed in 1..=30u64 {
        let mut sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2), rmw(1, 3), rmw(1, 4)]);
        run(&mut sys, &mut RandomSched::new(seed), 500_000).unwrap();
        assert!(sys.is_done(), "seed {seed}");
        assert!(decided(&sys), "seed {seed}");
        let r = check_machine(sys.machine());
        assert!(r.is_serializable(), "seed {seed}: {r}");
    }
}

/// The brute-force serialization search agrees with the commit-order
/// witness on small runs.
#[test]
fn permutation_search_agrees_with_commit_order() {
    for seed in 1..=10u64 {
        let spec = WorkloadSpec {
            threads: 2,
            txns_per_thread: 2,
            ops_per_txn: 2,
            key_range: 3,
            read_ratio: 0.5,
            seed,
        };
        let mut sys =
            OptimisticSystem::new(RwMem::new(), spec.rwmem_programs(), ReadPolicy::Snapshot);
        run(&mut sys, &mut RandomSched::new(seed * 31), 1_000_000).unwrap();
        assert!(
            check_machine(sys.machine()).is_serializable(),
            "seed {seed}"
        );
        assert!(
            find_any_serialization(sys.machine()).is_some(),
            "seed {seed}"
        );
    }
}

/// Explores `sys` to `max_depth` ticks, checking `check` on every
/// terminal state.
fn explore_to<T: TmSystem + Clone>(
    sys: &T,
    max_depth: usize,
    check: &mut impl FnMut(&T) -> bool,
) -> ExploreReport {
    let limits = ExploreLimits {
        max_depth,
        max_terminals: 200_000,
    };
    explore(sys, limits, check).unwrap()
}

/// Did the driver's own metadata decide every conflict — no PUSH or CMT
/// denied after it said yes? (No fault hook is armed here.)
fn decided<T: TmSystem>(sys: &T) -> bool {
    sys.machine().audit().push_cmt_violations() == 0
}

fn report(terminals: usize, depth_pruned: usize) -> ExploreReport {
    ExploreReport {
        terminals,
        depth_pruned,
        stuck: 0,
        failures: 0,
    }
}

/// TL2 over every interleaving of two read-modify-writes of one shared
/// location: commit locks and version validation abort the loser, every
/// terminal run is serializable and opaque, and TL2's validation is never
/// contradicted by the machine's criteria. Complete: no path reaches the
/// depth bound. The exact report pins the commit-lock table's tick
/// sequence.
#[test]
fn tl2_shared_location_exhaustive() {
    let sys = Tl2System::new(vec![rmw(0, 1), rmw(0, 2)]);
    let r = explore_to(&sys, 64, &mut |s| {
        decided(s)
            && check_machine(s.machine()).is_serializable()
            && check_trace(&s.machine().trace()).is_opaque()
    });
    assert_eq!(r, report(70, 0));
}

/// The simulated HTM over the same program: eager word conflicts abort
/// the requester, which may retry and lose again indefinitely, so the
/// exploration is bounded by depth. Every run it finishes is
/// serializable and opaque, and the tracker decided every conflict; the
/// exact report pins the conflict table's tick sequence (each access
/// reads the committed state as of that access).
#[test]
fn htm_shared_word_exhaustive() {
    let sys = HtmSystem::new(vec![rmw(0, 1), rmw(0, 2)]);
    let r = explore_to(&sys, 20, &mut |s| {
        decided(s)
            && check_machine(s.machine()).is_serializable()
            && check_trace(&s.machine().trace()).is_opaque()
    });
    assert_eq!(r, report(1318, 2936));
}

/// Strict 2PL over the same program: both readers share the location,
/// the second upgrade closes a waits-for cycle and aborts, and the
/// aborted thread may close it again on retry — bounded by depth. Every
/// finished run is serializable.
#[test]
fn two_phase_shared_location_exhaustive() {
    let sys = TwoPhaseLocking::new(vec![rmw(0, 1), rmw(0, 2)]);
    let r = explore_to(&sys, 24, &mut |s| {
        decided(s) && check_machine(s.machine()).is_serializable()
    });
    assert_eq!(r, report(380, 1152));
}

/// §7's mixed transaction on two threads with distinct boosted keys and
/// shared HTM words (`size` and `x`): abstract locks never conflict,
/// the HTM words do, and the loser takes a partial rewind or a full
/// abort. Bounded by depth; every finished run is serializable.
#[test]
fn mixed_section7_shared_words_exhaustive() {
    let section7 = |k: u64| {
        vec![Code::seq_all(vec![
            Code::method(methods::skiplist(SetMethod::Add(k))),
            Code::method(methods::size(CtrMethod::Add(1))),
            Code::method(methods::hash_table(MapMethod::Put(k, k as i64))),
            Code::method(methods::mem(MemMethod::Write(Loc(0), 1))),
        ])]
    };
    let sys = MixedSystem::new(mixed_spec(), vec![section7(1), section7(2)]);
    let r = explore_to(&sys, 18, &mut |s| {
        decided(s) && check_machine(s.machine()).is_serializable()
    });
    assert_eq!(r, report(2058, 6450));
}
