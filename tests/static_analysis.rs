//! An analysis plan's route into a running system: a plan handed to the
//! parallel runner reaches a wrapped driver's machine, and its spec
//! certificate is what keeps a strict-mode, four-shard log on
//! fine-grained routing.

use pushpull::analysis::analyze_certified;
use pushpull::core::error::MachineError;
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::harness::run_parallel_sharded;
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::{BoostingSystem, ParallelSystem, StarvationReport, SystemStats, Tick, TmSystem};

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
    fn starvation(&self) -> Option<StarvationReport> {
        self.0.starvation()
    }
}

impl ParallelSystem for Wrapped {
    fn workers(&mut self) -> Vec<pushpull::tm::Worker<'_>> {
        self.0.workers()
    }
}

/// A wrapper system overrides only what it means to: a plan handed to
/// `run_parallel_sharded`, and the shard count with it, still reach the
/// wrapped machine, because both go through `machine()`/`machine_mut()`
/// rather than per-hook forwarding a wrapper could forget. Under strict
/// mode the plan's certificate is what keeps the four shards fine-grained:
/// a plan that never arrived would leave the log demoted to coarse.
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

    let sys = Wrapped(BoostingSystem::new(spec(), programs));
    sys.machine().set_require_certificate(true);
    let (sys, out) = run_parallel_sharded(sys, BUDGET, Some(&plan), 4).unwrap();
    assert!(out.completed);
    let global = sys.machine().global_state();
    assert!(global.certified(), "the plan's certificate was installed");
    assert_eq!(sys.machine().log_shards(), 4);
    assert!(
        !global.coarse_mode(),
        "a certified log keeps fine-grained routing: {:?}",
        global.arming_diagnostics()
    );
    assert!(check_machine(sys.machine()).is_serializable());
}
