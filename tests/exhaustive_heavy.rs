//! Heavier exhaustive model-checking configurations, ignored by default
//! (`cargo test --release --test exhaustive_heavy -- --ignored` to run;
//! about three minutes in release, nearly all of it the capped optimistic
//! exploration). These push the interleaving explorer to three threads
//! and longer transactions; the quick variants in the other test files
//! cover the same claims on smaller configurations.
//!
//! Each complete exploration asserts its exact report, so a change to any
//! driver's tick sequence shows up here as a changed count.

use pushpull::core::lang::Code;
use pushpull::core::opacity::check_trace;
use pushpull::core::serializability::check_machine;
use pushpull::harness::{explore, ExploreLimits, ExploreReport};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::BoostingSystem;

#[test]
#[ignore = "heavy: about three minutes of exhaustive exploration in release"]
fn three_thread_optimistic_counter_exhaustive() {
    let prog = || {
        vec![Code::seq_all(vec![
            Code::method(CtrMethod::Get),
            Code::method(CtrMethod::Add(1)),
        ])]
    };
    let sys = OptimisticSystem::new(
        Counter::new(),
        vec![prog(), prog(), prog()],
        ReadPolicy::Snapshot,
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 60,
            max_terminals: 2_000_000,
        },
        &mut |s| {
            check_machine(s.machine()).is_serializable()
                && check_trace(&s.machine().trace()).is_opaque()
        },
    )
    .unwrap();
    // The schedule space is larger than the cap: the exploration stops
    // at it, every terminal up to it checked.
    assert_eq!(
        report,
        ExploreReport {
            terminals: 2_000_000,
            depth_pruned: 0,
            stuck: 0,
            failures: 0
        }
    );
}

#[test]
#[ignore = "heavy: exhaustive exploration, seconds in release"]
fn three_thread_boosting_map_exhaustive() {
    let sys = BoostingSystem::new(
        KvMap::new(),
        vec![
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(1, 10)),
                Code::method(MapMethod::Get(2)),
            ])],
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(2, 20)),
                Code::method(MapMethod::Get(3)),
            ])],
            vec![Code::method(MapMethod::Put(1, 30))],
        ],
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 64,
            max_terminals: 2_000_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    // Complete, with no path pruned: threads of 3, 3 and 2 ticks admit
    // 8!/(3!·3!·2!) = 560 schedules, and lock waits (a blocked tick is a
    // branch of its own) make it 564 terminals, not the thousands an
    // earlier floor expected.
    assert_eq!(
        report,
        ExploreReport {
            terminals: 564,
            depth_pruned: 0,
            stuck: 0,
            failures: 0
        }
    );
}

#[test]
#[ignore = "heavy: exhaustive exploration, seconds in release"]
fn rmw_pair_longer_transactions_exhaustive() {
    let prog = |l: u32, v: i64| {
        vec![Code::seq_all(vec![
            Code::method(MemMethod::Read(Loc(l))),
            Code::method(MemMethod::Write(Loc(l), v)),
            Code::method(MemMethod::Read(Loc(1 - l))),
            Code::method(MemMethod::Write(Loc(1 - l), v + 1)),
        ])]
    };
    let sys = OptimisticSystem::new(
        RwMem::new(),
        vec![prog(0, 1), prog(1, 10)],
        ReadPolicy::Snapshot,
    );
    let report = explore(
        &sys,
        ExploreLimits {
            max_depth: 72,
            max_terminals: 2_000_000,
        },
        &mut |s| check_machine(s.machine()).is_serializable(),
    )
    .unwrap();
    assert_eq!(
        report,
        ExploreReport {
            terminals: 924,
            depth_pruned: 0,
            stuck: 0,
            failures: 0
        }
    );
}
