//! The §6 linter end to end, and an analysis plan's route into a
//! running system:
//!
//! 1. a driver that mis-declares its §6 rule pattern is caught by the
//!    `pattern-divergence` lint (the negative test);
//! 2. a plan handed to the parallel runner reaches a wrapped driver's
//!    machine: its spec certificate is what keeps a strict-mode,
//!    four-shard log on fine-grained routing.

use pushpull::analysis::{
    analyze, analyze_certified, check_declaration, Severity, PATTERN_DIVERGENCE,
};
use pushpull::core::error::{MachineError, Rule};
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::RulePattern;
use pushpull::harness::run_parallel_sharded;
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::{
    full_rule_pattern, BoostingSystem, ParallelSystem, StarvationReport, SystemStats, Tick,
    TmSystem,
};

const BUDGET: usize = 2_000_000;

/// Disjoint-key workload: every thread writes its own keys and reads a
/// key nobody writes, so every ordered method pair in the union
/// footprint is a proven mover (distinct keys, or read/read).
fn disjoint_key_programs(threads: u64) -> Vec<Vec<Code<MapMethod>>> {
    (0..threads)
        .map(|t| {
            vec![
                Code::seq_all(vec![
                    Code::method(MapMethod::Put(t, t as i64)),
                    Code::method(MapMethod::Get(1000 + t)),
                ]),
                Code::method(MapMethod::Put(t + 100, 1)),
            ]
        })
        .collect()
}

/// A wrapper that forwards a real boosting system but lies about its §6
/// rule pattern: it claims to run without PUSH (or CMT), which no
/// committing Push/Pull driver can.
struct Misdeclared(BoostingSystem<KvMap>);

impl TmSystem for Misdeclared {
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
        "misdeclared-boosting"
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
    fn declared_pattern(&self) -> Option<RulePattern> {
        Some(RulePattern::from_iter([Rule::App, Rule::Pull]))
    }
}

impl ParallelSystem for Misdeclared {
    fn workers(&mut self) -> Vec<pushpull::tm::Worker<'_>> {
        self.0.workers()
    }
}

#[test]
fn mis_declared_driver_is_caught() {
    let programs = disjoint_key_programs(2);
    let spec = KvMap::new();

    // The genuine driver declares all seven rules: no error (at most a
    // note that its abort path is conflict-dead on this workload).
    let real = BoostingSystem::new(KvMap::new(), programs.clone());
    let mut plan = analyze(&spec, &programs);
    let diag = check_declaration(
        &mut plan,
        &spec,
        &programs,
        real.name(),
        real.declared_pattern(),
    );
    assert!(
        diag.as_ref().is_none_or(|d| d.severity < Severity::Error),
        "genuine declaration must not error: {diag:?}"
    );
    assert_eq!(real.declared_pattern(), Some(full_rule_pattern()));

    // The liar is caught: the workload requires PUSH and CMT, which the
    // declaration omits.
    let liar = Misdeclared(BoostingSystem::new(KvMap::new(), programs.clone()));
    let mut plan = analyze(&spec, &programs);
    let diag = check_declaration(
        &mut plan,
        &spec,
        &programs,
        liar.name(),
        liar.declared_pattern(),
    )
    .expect("mis-declaration must produce a diagnostic");
    assert_eq!(diag.severity, Severity::Error);
    assert_eq!(diag.lint, PATTERN_DIVERGENCE);
    assert!(diag.message.contains("misdeclared-boosting"), "{diag}");
    assert_eq!(plan.errors(), 1);
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

    let sys = Misdeclared(BoostingSystem::new(spec(), programs));
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
