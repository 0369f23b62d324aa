//! Figure 2: the transactional-boosting hashtable.
//!
//! The paper's Figure 2 shows a `HashTable<K,V>` whose `put`/`get`
//! acquire an abstract lock on the key, mutate a linearizable base map
//! in place, and decompose into PUSH/PULL rules:
//!
//! ```text
//! put:   [PULL*] ; APP ; PUSH          (modify shared state in place)
//! abort: UNPUSH ; UNAPP                (inverse operation)
//! commit: CMT ; unlock
//! ```
//!
//! This example (a) runs concurrent boosted transactions and prints their
//! rule decomposition, (b) exercises the abort path, and (c) mirrors the
//! committed machine state into the real substrate data structure (`std`'s
//! `BTreeMap` behind a lock — our stand-in for Java's
//! `ConcurrentSkipListMap`; boosting only needs a linearizable base
//! object) to show the implementation-level view agrees with the
//! model-level view.
//!
//! Run with: `cargo run --example boosting_hashtable`

use std::collections::BTreeMap;

use pushpull::core::lang::Code;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::ds::sync::Linearized;
use pushpull::harness::{run, RandomSched};
use pushpull::spec::kvmap::{KvMap, MapMethod, MapRet};
use pushpull::tm::{BoostingSystem, TmSystem};

fn main() {
    // Figure 2's scenario: concurrent put/get transactions on a shared
    // hashtable, one per thread, keys partially overlapping.
    let programs = vec![
        // T0: put(1, 100); get(2)
        vec![Code::seq_all(vec![
            Code::method(MapMethod::Put(1, 100)),
            Code::method(MapMethod::Get(2)),
        ])],
        // T1: put(2, 200); get(1)
        vec![Code::seq_all(vec![
            Code::method(MapMethod::Put(2, 200)),
            Code::method(MapMethod::Get(1)),
        ])],
        // T2: put(1, 111) — same key as T0: must serialize behind the lock
        vec![Code::method(MapMethod::Put(1, 111))],
    ];

    let mut sys = BoostingSystem::new(KvMap::new(), programs);

    // Exercise the abort path of Figure 2: force T2 to abort once after
    // it has applied+pushed, so the trace shows UNPUSH ; UNAPP (the
    // "inverse operation" of the paper).
    // First let T2 make one step (APP+PUSH)…
    while sys
        .machine()
        .trace()
        .rule_names(ThreadId(2))
        .iter()
        .filter(|n| **n == "PUSH")
        .count()
        == 0
    {
        sys.tick(ThreadId(2)).expect("tick");
    }
    sys.force_abort(ThreadId(2));
    sys.tick(ThreadId(2)).expect("abort tick");

    // Now run everything to completion under a random interleaving.
    run(&mut sys, &mut RandomSched::new(0xF162), 100_000).expect("run");

    println!("=== Figure 2 rule decomposition, per thread ===");
    for t in 0..sys.thread_count() {
        println!(
            "T{t}: {}",
            sys.machine().trace().rule_names(ThreadId(t)).join(" -> ")
        );
    }
    println!("\n=== full trace ===");
    print!("{}", sys.machine().trace().render());

    // T2's trace must contain the Figure 2 abort path: … PUSH … UNPUSH UNAPP …
    let t2 = sys.machine().trace().rule_names(ThreadId(2));
    assert!(
        t2.windows(2).any(|w| w == ["UNPUSH", "UNAPP"]),
        "abort path must UNPUSH then UNAPP (got {t2:?})"
    );

    // Every transaction committed, serializably.
    let report = check_machine(sys.machine());
    println!(
        "\ncommits={} aborts={} blocked-ticks={}",
        sys.stats().commits,
        sys.stats().aborts,
        sys.stats().blocked_ticks
    );
    println!("serializability oracle: {report}");
    assert!(report.is_serializable());
    assert_eq!(sys.stats().commits, 3);

    // Implementation-level view: replay the committed log into the real
    // substrate (an ordered map behind a lock, standing in for the
    // paper's ConcurrentSkipListMap) and compare.
    let base: Linearized<BTreeMap<u64, i64>> = Linearized::new(BTreeMap::new());
    for op in sys.machine().global().committed_ops() {
        match op.method {
            MapMethod::Put(k, v) => {
                let prev = base.with(|m| m.insert(k, v));
                // The model recorded exactly this previous binding.
                assert_eq!(
                    MapRet::Prev(prev),
                    op.ret,
                    "model/substrate divergence at {op:?}"
                );
            }
            MapMethod::Remove(k) => {
                let prev = base.with(|m| m.remove(&k));
                assert_eq!(MapRet::Prev(prev), op.ret);
            }
            MapMethod::Get(k) => {
                let val = base.with(|m| m.get(&k).copied());
                assert_eq!(MapRet::Val(val), op.ret, "a committed get diverged");
            }
            MapMethod::ContainsKey(k) => {
                let b = base.with(|m| m.contains_key(&k));
                assert_eq!(MapRet::Bool(b), op.ret);
            }
            MapMethod::Size => {
                let n = base.with(|m| m.len());
                assert_eq!(MapRet::Count(n), op.ret);
            }
        }
    }
    println!("\nsubstrate BTreeMap agrees with the committed log:");
    base.with(|m| {
        for (k, v) in m.iter() {
            println!("  {k} -> {v}");
        }
    });
}
