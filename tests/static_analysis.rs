//! A certified workload on a wrapped driver: the shard count set through
//! the wrapper reaches the wrapped machine, and a four-shard log over
//! the certified footprints stays on fine-grained routing.

use pushpull::analysis::analyze_certified;
use pushpull::core::error::MachineError;
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::harness::run_parallel;
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::{BoostingSystem, ParallelSystem, SystemStats, Tick, TmSystem};

const BUDGET: usize = 2_000_000;

/// A wrapper that forwards every hook to a real boosting system and
/// renames it.
struct Wrapped(BoostingSystem<KvMap>);

impl TmSystem for Wrapped {
    type MachineSpec = KvMap;

    fn tick(&mut self, tid: ThreadId) -> Result<Tick, MachineError> {
        self.0.tick(tid)
    }
    fn thread_count(&self) -> usize {
        self.0.thread_count()
    }
    fn is_done(&self) -> bool {
        self.0.is_done()
    }
    fn name(&self) -> &'static str {
        "wrapped-boosting"
    }
    fn stats(&self) -> SystemStats {
        self.0.stats()
    }
    fn machine(&self) -> &Machine<KvMap> {
        self.0.machine()
    }
    fn machine_mut(&mut self) -> &mut Machine<KvMap> {
        self.0.machine_mut()
    }
}

impl ParallelSystem for Wrapped {
    fn workers(&mut self) -> Vec<pushpull::tm::Worker<'_>> {
        self.0.workers()
    }
}

/// A wrapper system overrides only what it means to: the shard count set
/// through it still reaches the wrapped machine, because
/// `TmSystem::set_log_shards` goes through `machine_mut()` rather than
/// per-hook forwarding a wrapper could forget. The plan is the
/// certifier's verdict on the workload's spec; the runner takes it and
/// reads nothing from it.
#[test]
fn wrapper_system_still_receives_plan_and_shards() {
    // Own keys only, inside the bounded universe the certifier checks.
    let spec = || KvMap::bounded((0..4).collect(), vec![1]);
    let programs: Vec<Vec<Code<MapMethod>>> = (0..4)
        .map(|t| {
            vec![Code::seq(
                Code::method(MapMethod::Put(t, 1)),
                Code::method(MapMethod::Get(t)),
            )]
        })
        .collect();
    let plan = analyze_certified(&spec(), &programs, "kvmap");
    assert!(plan.certificate.is_some(), "{plan}");

    let mut sys = Wrapped(BoostingSystem::new(spec(), programs));
    sys.set_log_shards(4);
    let (sys, out) = run_parallel(sys, BUDGET, Some(&plan)).unwrap();
    assert!(out.completed);
    assert_eq!(sys.machine().log_shards(), 4);
    assert!(
        !sys.machine().global_state().coarse_mode(),
        "every certified footprint routes fine-grained"
    );
    assert!(check_machine(sys.machine()).is_serializable());
}
