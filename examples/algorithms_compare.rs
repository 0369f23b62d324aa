//! Run every §6 algorithm class on identical workloads and print the
//! comparison table the paper's introduction motivates: pessimistic
//! (boosting) wins under commutative contention; optimistic wins
//! read-mostly; everything stays serializable.
//!
//! Run with: `cargo run --release --example algorithms_compare`

use pushpull::harness::{run_reported, RunReport, WorkloadSpec};
use pushpull::spec::kvmap::KvMap;
use pushpull::spec::rwmem::RwMem;
use pushpull::tm::checkpoint::CheckpointOptimistic;
use pushpull::tm::optimistic::{OptimisticSystem, ReadPolicy};
use pushpull::tm::pessimistic::MatveevShavitSystem;
use pushpull::tm::tl2::Tl2System;
use pushpull::tm::twophase::TwoPhaseLocking;
use pushpull::tm::{BoostingSystem, HtmSystem, TmSystem};

fn banner(s: &str) {
    println!("\n==== {s} ====");
}

fn show(r: &RunReport) {
    println!("{r}");
    assert!(
        r.serializability.is_serializable(),
        "oracle failure: {}",
        r.serializability
    );
    assert!(r.outcome.completed, "{} did not complete", r.algorithm);
}

/// A driver whose own metadata decides every conflict — boosting's
/// abstract locks, 2PL's read/write locks, TL2's versions, the HTM's word
/// tracker — is never denied a PUSH or CMT: the machine's criteria only
/// confirm.
fn assert_decided<T: TmSystem>(sys: &T) {
    let audit = sys.machine().audit();
    assert_eq!(
        audit.push_cmt_violations(),
        0,
        "{}'s metadata granted a PUSH or CMT the criteria denied\n{}",
        sys.name(),
        audit.render()
    );
}

fn main() {
    let base = WorkloadSpec {
        threads: 4,
        txns_per_thread: 16,
        ops_per_txn: 3,
        key_range: 8,
        read_ratio: 0.5,
        seed: 2026,
    };

    banner("map workload, contended (8 keys, 50% reads)");
    {
        let mut sys = BoostingSystem::new(KvMap::new(), base.kvmap_programs());
        show(&run_reported(&mut sys, 1, 2_000_000).unwrap());
        assert_decided(&sys);
        let mut sys =
            OptimisticSystem::new(KvMap::new(), base.kvmap_programs(), ReadPolicy::Snapshot);
        show(&run_reported(&mut sys, 1, 2_000_000).unwrap());
        let mut sys =
            OptimisticSystem::new(KvMap::new(), base.kvmap_programs(), ReadPolicy::Refresh);
        show(&run_reported(&mut sys, 1, 2_000_000).unwrap());
        let mut sys = CheckpointOptimistic::new(KvMap::new(), base.kvmap_programs());
        show(&run_reported(&mut sys, 1, 2_000_000).unwrap());
    }

    banner("map workload, disjoint keys per thread (boosting's home turf)");
    {
        let mut sys = BoostingSystem::new(KvMap::new(), base.kvmap_disjoint_programs());
        let r = run_reported(&mut sys, 2, 2_000_000).unwrap();
        show(&r);
        assert_eq!(
            r.stats.aborts, 0,
            "disjoint keys must never abort under boosting"
        );
        assert_decided(&sys);
        let mut sys = OptimisticSystem::new(
            KvMap::new(),
            base.kvmap_disjoint_programs(),
            ReadPolicy::Snapshot,
        );
        show(&run_reported(&mut sys, 2, 2_000_000).unwrap());
    }

    banner("read-mostly memory workload (90% reads — optimism's home turf)");
    {
        let read_mostly = WorkloadSpec {
            read_ratio: 0.9,
            key_range: 16,
            ..base
        };
        let mut sys = OptimisticSystem::new(
            RwMem::new(),
            read_mostly.rwmem_programs(),
            ReadPolicy::Snapshot,
        );
        show(&run_reported(&mut sys, 3, 2_000_000).unwrap());
        let mut sys = MatveevShavitSystem::new(RwMem::new(), read_mostly.rwmem_programs());
        show(&run_reported(&mut sys, 3, 2_000_000).unwrap());
        let mut sys = HtmSystem::new(read_mostly.rwmem_programs());
        show(&run_reported(&mut sys, 3, 2_000_000).unwrap());
        assert_decided(&sys);
        let mut sys = Tl2System::new(read_mostly.rwmem_programs());
        let r = run_reported(&mut sys, 3, 2_000_000).unwrap();
        assert_decided(&sys);
        show(&r);
        let mut sys = TwoPhaseLocking::new(read_mostly.rwmem_programs());
        show(&run_reported(&mut sys, 3, 2_000_000).unwrap());
        assert_decided(&sys);
    }

    banner("write-heavy memory workload (10% reads)");
    {
        let write_heavy = WorkloadSpec {
            read_ratio: 0.1,
            key_range: 4,
            ..base
        };
        let mut sys = OptimisticSystem::new(
            RwMem::new(),
            write_heavy.rwmem_programs(),
            ReadPolicy::Snapshot,
        );
        show(&run_reported(&mut sys, 4, 2_000_000).unwrap());
        let mut sys = MatveevShavitSystem::new(RwMem::new(), write_heavy.rwmem_programs());
        let r = run_reported(&mut sys, 4, 2_000_000).unwrap();
        show(&r);
        let mut sys = HtmSystem::new(write_heavy.rwmem_programs());
        show(&run_reported(&mut sys, 4, 2_000_000).unwrap());
        assert_decided(&sys);
    }

    println!("\nall runs complete; every run passed the serializability oracle.");
}
