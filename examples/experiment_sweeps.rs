//! Multi-seed experiment sweeps: the aggregated (mean ± σ) tables
//! recorded in EXPERIMENTS.md. Every individual run is validated by the
//! serializability oracle before its statistics are counted.
//!
//! Run with: `cargo run --release --example experiment_sweeps`

use pushpull::core::serializability::check_machine;
use pushpull::harness::{run, sweep, RandomSched, WorkloadSpec};
use pushpull::spec::kvmap::KvMap;
use pushpull::spec::rwmem::RwMem;
use pushpull::tm::checkpoint::CheckpointOptimistic;
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::pessimistic::MatveevShavitSystem;
use pushpull::tm::tl2::Tl2System;
use pushpull::tm::{BoostingSystem, HtmSystem, TmSystem};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
const BUDGET: usize = 5_000_000;

/// A driver whose own metadata decides every conflict (boosting, TL2,
/// the simulated HTM) is never denied a PUSH or CMT.
fn assert_decided<T: TmSystem>(sys: &T) {
    assert_eq!(
        sys.machine().audit().push_cmt_violations(),
        0,
        "{}",
        sys.name()
    );
}

fn main() {
    let contended = WorkloadSpec {
        threads: 4,
        txns_per_thread: 10,
        ops_per_txn: 3,
        key_range: 6,
        read_ratio: 0.5,
        seed: 11,
    };
    let read_mostly = WorkloadSpec {
        read_ratio: 0.9,
        key_range: 16,
        ..contended
    };

    println!("== contended map workload (6 keys, 50% reads), 10 seeds ==");
    println!(
        "{}",
        sweep("boosting", SEEDS, |seed| {
            let mut sys = BoostingSystem::new(KvMap::new(), contended.kvmap_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert_decided(&sys);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("optimistic-snapshot", SEEDS, |seed| {
            let mut sys = OptimisticSystem::new(
                KvMap::new(),
                contended.kvmap_programs(),
                ReadPolicy::Snapshot,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("optimistic-refresh", SEEDS, |seed| {
            let mut sys = OptimisticSystem::new(
                KvMap::new(),
                contended.kvmap_programs(),
                ReadPolicy::Refresh,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("checkpoint-optimistic", SEEDS, |seed| {
            let mut sys = CheckpointOptimistic::new(KvMap::new(), contended.kvmap_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );

    println!("\n== read-mostly memory workload (16 locs, 90% reads), 10 seeds ==");
    println!(
        "{}",
        sweep("optimistic-snapshot", SEEDS, |seed| {
            let mut sys = OptimisticSystem::new(
                RwMem::new(),
                read_mostly.rwmem_programs(),
                ReadPolicy::Snapshot,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("tl2", SEEDS, |seed| {
            let mut sys = Tl2System::new(read_mostly.rwmem_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert_decided(&sys);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("pessimistic-ms", SEEDS, |seed| {
            let mut sys = MatveevShavitSystem::new(RwMem::new(), read_mostly.rwmem_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("htm-sim", SEEDS, |seed| {
            let mut sys = HtmSystem::new(read_mostly.rwmem_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert_decided(&sys);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );

    println!("\n== write-heavy memory workload (4 locs, 10% reads), 10 seeds ==");
    let write_heavy = WorkloadSpec {
        read_ratio: 0.1,
        key_range: 4,
        ..contended
    };
    println!(
        "{}",
        sweep("optimistic-snapshot", SEEDS, |seed| {
            let mut sys = OptimisticSystem::new(
                RwMem::new(),
                write_heavy.rwmem_programs(),
                ReadPolicy::Snapshot,
            );
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert!(check_machine(sys.machine()).is_serializable());
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("tl2", SEEDS, |seed| {
            let mut sys = Tl2System::new(write_heavy.rwmem_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert_decided(&sys);
            (sys.stats(), out.ticks)
        })
    );
    println!(
        "{}",
        sweep("htm-sim", SEEDS, |seed| {
            let mut sys = HtmSystem::new(write_heavy.rwmem_programs());
            let out = run(&mut sys, &mut RandomSched::new(seed), BUDGET).unwrap();
            assert!(out.completed);
            assert_decided(&sys);
            (sys.stats(), out.ticks)
        })
    );

    println!("\nall sweeps complete; every run passed the serializability oracle.");
}
