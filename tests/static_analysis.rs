//! The static criteria prover end to end: analyze a workload, install
//! the plan through [`run_parallel`], and check that
//!
//! 1. proven mover clauses are *elided* at runtime (the audit's
//!    `statically_discharged` column fills, `mover_queries` drops) while
//!    the ledger still closes exactly — every criterion evaluation lands
//!    in `discharged`, `violated` or `statically_discharged`, and the
//!    per-obligation totals match a plan-free run of the same workload;
//! 2. results are unchanged: same commits, serializability oracle green
//!    (debug builds additionally re-run every elided predicate inside
//!    the machine and panic on disagreement);
//! 3. analysis-enabled runs survive fault injection;
//! 4. a driver that mis-declares its §6 rule pattern is caught by the
//!    `pattern-divergence` lint (the negative test).

use std::sync::Arc;

use pushpull::analysis::{analyze, check_declaration, Severity, PATTERN_DIVERGENCE};
use pushpull::core::error::{Clause, MachineError, Rule};
use pushpull::core::faults::{FaultHook, FaultKind};
use pushpull::core::lang::Code;
use pushpull::core::machine::Machine;
use pushpull::core::op::ThreadId;
use pushpull::core::serializability::check_machine;
use pushpull::core::RulePattern;
use pushpull::harness::testutil::assert_ledger_closes;
use pushpull::harness::{run, run_parallel, run_parallel_sharded, FaultPlan, RoundRobin};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::tm::{
    full_rule_pattern, BoostingSystem, ParallelSystem, StarvationReport, SystemStats, Tick,
    TmSystem,
};

const BUDGET: usize = 2_000_000;

/// Disjoint-key workload: every thread writes its own keys and reads a
/// key nobody writes, so every ordered method pair in the union
/// footprint is a proven mover (distinct keys, or read/read) and all
/// four mover clauses discharge statically.
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

/// Obligations whose loops the prover can elide on this workload.
const MOVER_OBLIGATIONS: [(Rule, Clause); 4] = [
    (Rule::Push, Clause::I),
    (Rule::Push, Clause::Ii),
    (Rule::UnPush, Clause::I),
    (Rule::Pull, Clause::Iii),
];

#[test]
fn static_plan_elides_checks_and_ledger_closes() {
    let programs = disjoint_key_programs(6);
    let plan = analyze(&KvMap::new(), &programs);
    let facts = plan
        .discharge
        .as_ref()
        .expect("disjoint keys: all four mover clauses must be provable");
    for (rule, clause) in MOVER_OBLIGATIONS {
        assert!(facts.discharges(rule, clause), "{rule} {clause} unproven");
    }
    assert_eq!(plan.errors(), 0, "{plan}");

    // Deterministic round-robin schedule so the armed and plan-free runs
    // reach every criterion the same number of times (pull timing — and
    // hence criterion counts — varies under OS-thread interleavings).
    let mut base = BoostingSystem::new(KvMap::new(), programs.clone());
    run(&mut base, &mut RoundRobin, BUDGET).unwrap();
    assert!(base.is_done());
    let base_audit = base.machine().audit();
    assert_eq!(base_audit.statically_discharged_total(), 0);

    // Same schedule, facts armed.
    let mut sys = BoostingSystem::new(KvMap::new(), programs);
    sys.machine().set_static_discharge(plan.discharge.clone());
    run(&mut sys, &mut RoundRobin, BUDGET).unwrap();
    assert!(sys.is_done());
    assert_eq!(sys.stats().commits, base.stats().commits);
    let audit = sys.machine().audit();

    // The proven clauses were reached, every reach was elided, the
    // static column exactly absorbs the baseline's dynamic discharges,
    // and the elision measurably cut mover queries.
    assert_ledger_closes(&audit, &base_audit, &MOVER_OBLIGATIONS);

    // And harmless: the oracle still passes (in debug builds the machine
    // also re-ran every elided predicate and would have panicked on any
    // disagreement).
    let report = check_machine(sys.machine());
    assert!(report.is_serializable(), "{report}");
}

#[test]
fn analysis_enabled_run_survives_fault_injection() {
    for seed in 1..=3u64 {
        let programs = disjoint_key_programs(4);
        let plan = analyze(&KvMap::new(), &programs);
        assert!(plan.discharge.is_some());
        let sys = BoostingSystem::new(KvMap::new(), programs);
        // Kills exercise the abort path, so the elided UNPUSH (i) loop
        // actually runs (statically) under the same chaos the dynamic
        // check would face.
        let faults = Arc::new(FaultPlan::seeded(seed, sys.thread_count(), FaultKind::Kill));
        sys.machine()
            .set_fault_hook(Some(faults.clone() as Arc<dyn FaultHook>));
        let (sys, out) = run_parallel(sys, BUDGET, Some(&plan)).unwrap();
        assert!(out.completed, "seed {seed}: faulted run wedged");
        let audit = sys.machine().audit();
        assert!(audit.statically_discharged_total() > 0, "seed {seed}");
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "seed {seed}: {report}");
    }
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
/// `run_parallel` and a shard count handed to `run_parallel_sharded`
/// still reach the wrapped machine, because both go through
/// `machine()`/`machine_mut()` rather than per-hook forwarding a wrapper
/// could forget.
#[test]
fn wrapper_system_still_receives_plan_and_shards() {
    let programs = disjoint_key_programs(4);
    let plan = analyze(&KvMap::new(), &programs);
    assert!(plan.discharge.is_some());

    let sys = Misdeclared(BoostingSystem::new(KvMap::new(), programs.clone()));
    let (sys, out) = run_parallel(sys, BUDGET, Some(&plan)).unwrap();
    assert!(out.completed);
    assert!(sys.machine().audit().statically_discharged_total() > 0);
    assert!(check_machine(sys.machine()).is_serializable());

    let sys = Misdeclared(BoostingSystem::new(KvMap::new(), programs));
    let (sys, out) = run_parallel_sharded(sys, BUDGET, Some(&plan), 4).unwrap();
    assert!(out.completed);
    assert_eq!(sys.machine().log_shards(), 4);
    assert!(sys.machine().audit().statically_discharged_total() > 0);
    assert!(check_machine(sys.machine()).is_serializable());
}

#[test]
fn conflicting_workload_gets_no_elision_but_same_results() {
    // All threads hammer one key: nothing is provable, the plan is
    // empty, and an installed empty plan changes nothing.
    let programs: Vec<Vec<Code<MapMethod>>> = (0..4)
        .map(|t| {
            vec![Code::seq_all(vec![
                Code::method(MapMethod::Put(0, t)),
                Code::method(MapMethod::Get(0)),
            ])]
        })
        .collect();
    let plan = analyze(&KvMap::new(), &programs);
    assert!(
        plan.discharge.is_none(),
        "single-key write contention proves nothing: {plan}"
    );
    let sys = BoostingSystem::new(KvMap::new(), programs);
    let (sys, out) = run_parallel(sys, BUDGET, Some(&plan)).unwrap();
    assert!(out.completed);
    let audit = sys.machine().audit();
    assert_eq!(audit.statically_discharged_total(), 0);
    assert_eq!(sys.stats().commits, 4);
    assert!(check_machine(sys.machine()).is_serializable());
}
