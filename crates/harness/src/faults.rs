//! Deterministic fault plans — the harness implementation of the core
//! [`FaultHook`] seam.
//!
//! A [`FaultPlan`] is a finite list of [`FaultSpec`]s, each saying "on
//! thread `t`'s `at`-th probe of this boundary, fire this fault once".
//! Probes are counted per thread and per boundary kind with atomic
//! counters, so a plan's behaviour depends only on what the faulted
//! thread itself does — never on wall-clock time or how the OS happens
//! to interleave the other workers. Running the same single-threaded
//! schedule twice against the same plan fires the same faults at the
//! same rules.
//!
//! Every fault that actually fires is tallied in [`FaultPlan::fired`];
//! chaos tests close the loop by asserting this tally equals the
//! machine's [`CriteriaAudit::injected`] counts, proving each injected
//! fault was both delivered and recorded.
//!
//! [`CriteriaAudit::injected`]: pushpull_core::audit::CriteriaAudit

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pushpull_core::error::{Clause, Rule};
use pushpull_core::faults::{deny_clause, BoundaryFault, FaultHook, FaultKind, HtmFault};
use pushpull_core::op::ThreadId;

/// One planned fault: on `thread`'s `at`-th probe of the boundary that
/// `kind` belongs to (rule entry for denials, tick start for
/// kill/stall, HTM access for the HTM kinds), fire once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The thread the fault targets.
    pub thread: ThreadId,
    /// Zero-based probe index at which the fault fires.
    pub at: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// Stall duration in ticks; only meaningful for [`FaultKind::Stall`].
    pub stall: u64,
}

const RULE_COUNT: usize = 7;

fn rule_index(rule: Rule) -> usize {
    match rule {
        Rule::App => 0,
        Rule::UnApp => 1,
        Rule::Push => 2,
        Rule::UnPush => 3,
        Rule::Pull => 4,
        Rule::UnPull => 5,
        Rule::Cmt => 6,
    }
}

/// Per-thread probe counters, interior-mutable because [`FaultHook`]
/// methods take `&self` from concurrent workers.
#[derive(Debug, Default)]
struct ThreadProbes {
    rules: [AtomicU64; RULE_COUNT],
    ticks: AtomicU64,
    htm: AtomicU64,
}

/// A deterministic, seeded-or-scripted fault plan.
///
/// Build one with [`FaultPlan::new`] plus the builder methods, or let
/// [`FaultPlan::seeded`] derive a small plan from a seed. Arm it with
/// [`Machine::set_fault_hook`](pushpull_core::machine::Machine::set_fault_hook)
/// (behind an `Arc`), run the system, then compare
/// [`fired`](FaultPlan::fired) against the machine audit's injected
/// tallies.
#[derive(Debug)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    probes: Vec<ThreadProbes>,
    fired: Mutex<BTreeMap<FaultKind, u64>>,
}

impl FaultPlan {
    /// An empty plan for `n_threads` threads (injects nothing until
    /// specs are added).
    pub fn new(n_threads: usize) -> Self {
        Self {
            specs: Vec::new(),
            probes: (0..n_threads).map(|_| ThreadProbes::default()).collect(),
            fired: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds an explicit spec.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Denies `thread`'s `at`-th entry into forward rule `rule`.
    pub fn deny(self, thread: usize, rule: Rule, at: u64) -> Self {
        self.with(FaultSpec {
            thread: ThreadId(thread),
            at,
            kind: FaultKind::Deny(rule),
            stall: 0,
        })
    }

    /// Kills `thread`'s transaction at its `at`-th tick boundary.
    pub fn kill(self, thread: usize, at: u64) -> Self {
        self.with(FaultSpec {
            thread: ThreadId(thread),
            at,
            kind: FaultKind::Kill,
            stall: 0,
        })
    }

    /// Stalls `thread` for `ticks` ticks at its `at`-th tick boundary.
    pub fn stall(self, thread: usize, at: u64, ticks: u64) -> Self {
        self.with(FaultSpec {
            thread: ThreadId(thread),
            at,
            kind: FaultKind::Stall,
            stall: ticks,
        })
    }

    /// Injects an HTM fault at `thread`'s `at`-th transactional access.
    pub fn htm(self, thread: usize, kind: HtmFault, at: u64) -> Self {
        self.with(FaultSpec {
            thread: ThreadId(thread),
            at,
            kind: match kind {
                HtmFault::Capacity => FaultKind::HtmCapacity,
                HtmFault::Conflict => FaultKind::HtmConflict,
            },
            stall: 0,
        })
    }

    /// Derives a small plan from `seed`: one spec of `kind` per thread,
    /// each at a low probe index so that any driver which reaches that
    /// boundary at all will trigger it.
    pub fn seeded(seed: u64, n_threads: usize, kind: FaultKind) -> Self {
        let mut plan = Self::new(n_threads);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for thread in 0..n_threads {
            plan = plan.with(FaultSpec {
                thread: ThreadId(thread),
                at: next() % 3,
                kind,
                stall: 1 + next() % 3,
            });
        }
        plan
    }

    /// The faults that actually fired, keyed like the machine audit's
    /// injected tallies.
    pub fn fired(&self) -> BTreeMap<FaultKind, u64> {
        self.fired.lock().expect("fired tally poisoned").clone()
    }

    /// Total faults fired.
    pub fn fired_total(&self) -> u64 {
        self.fired().values().sum()
    }

    fn record(&self, kind: FaultKind) {
        *self
            .fired
            .lock()
            .expect("fired tally poisoned")
            .entry(kind)
            .or_insert(0) += 1;
    }

    /// Does any spec match `(thread, kind, n)`?
    fn matches(&self, thread: ThreadId, kind: FaultKind, n: u64) -> Option<&FaultSpec> {
        self.specs
            .iter()
            .find(|s| s.thread == thread && s.kind == kind && s.at == n)
    }
}

impl FaultHook for FaultPlan {
    fn deny_rule(&self, tid: ThreadId, rule: Rule) -> Option<Clause> {
        let probes = self.probes.get(tid.0)?;
        let n = probes.rules[rule_index(rule)].fetch_add(1, Ordering::Relaxed);
        let kind = FaultKind::Deny(rule);
        self.matches(tid, kind, n).map(|_| {
            self.record(kind);
            deny_clause(rule)
        })
    }

    fn at_boundary(&self, tid: ThreadId) -> Option<BoundaryFault> {
        let probes = self.probes.get(tid.0)?;
        let n = probes.ticks.fetch_add(1, Ordering::Relaxed);
        if self.matches(tid, FaultKind::Kill, n).is_some() {
            self.record(FaultKind::Kill);
            return Some(BoundaryFault::Kill);
        }
        if let Some(spec) = self.matches(tid, FaultKind::Stall, n) {
            self.record(FaultKind::Stall);
            return Some(BoundaryFault::Stall(spec.stall));
        }
        None
    }

    fn htm_access(&self, tid: ThreadId) -> Option<HtmFault> {
        let probes = self.probes.get(tid.0)?;
        let n = probes.htm.fetch_add(1, Ordering::Relaxed);
        if self.matches(tid, FaultKind::HtmCapacity, n).is_some() {
            self.record(FaultKind::HtmCapacity);
            return Some(HtmFault::Capacity);
        }
        if self.matches(tid, FaultKind::HtmConflict, n).is_some() {
            self.record(FaultKind::HtmConflict);
            return Some(HtmFault::Conflict);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denies_exactly_the_planned_probe() {
        let plan = FaultPlan::new(2).deny(0, Rule::Push, 1);
        // Thread 0, probes 0..3: only probe 1 is denied.
        assert_eq!(plan.deny_rule(ThreadId(0), Rule::Push), None);
        assert_eq!(
            plan.deny_rule(ThreadId(0), Rule::Push),
            Some(deny_clause(Rule::Push))
        );
        assert_eq!(plan.deny_rule(ThreadId(0), Rule::Push), None);
        // Thread 1 is untouched; so are other rules on thread 0.
        assert_eq!(plan.deny_rule(ThreadId(1), Rule::Push), None);
        assert_eq!(plan.deny_rule(ThreadId(0), Rule::App), None);
        assert_eq!(plan.fired()[&FaultKind::Deny(Rule::Push)], 1);
        assert_eq!(plan.fired_total(), 1);
    }

    #[test]
    fn boundary_faults_fire_once_each() {
        let plan = FaultPlan::new(1).kill(0, 0).stall(0, 2, 5);
        assert_eq!(plan.at_boundary(ThreadId(0)), Some(BoundaryFault::Kill));
        assert_eq!(plan.at_boundary(ThreadId(0)), None);
        assert_eq!(plan.at_boundary(ThreadId(0)), Some(BoundaryFault::Stall(5)));
        assert_eq!(plan.at_boundary(ThreadId(0)), None);
        assert_eq!(plan.fired_total(), 2);
    }

    #[test]
    fn htm_faults_fire_at_the_planned_access() {
        let plan = FaultPlan::new(1).htm(0, HtmFault::Capacity, 1);
        assert_eq!(plan.htm_access(ThreadId(0)), None);
        assert_eq!(plan.htm_access(ThreadId(0)), Some(HtmFault::Capacity));
        assert_eq!(plan.fired()[&FaultKind::HtmCapacity], 1);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 3, FaultKind::Kill);
        let b = FaultPlan::seeded(42, 3, FaultKind::Kill);
        assert_eq!(a.specs, b.specs);
        let c = FaultPlan::seeded(43, 3, FaultKind::Kill);
        // Different seeds virtually always give a different plan.
        assert_eq!(a.specs.len(), c.specs.len());
        assert_eq!(a.specs.len(), 3);
    }

    #[test]
    fn out_of_range_thread_probes_are_ignored() {
        let plan = FaultPlan::new(1).deny(0, Rule::App, 0);
        assert_eq!(plan.deny_rule(ThreadId(7), Rule::App), None);
        assert_eq!(plan.at_boundary(ThreadId(7)), None);
        assert_eq!(plan.htm_access(ThreadId(7)), None);
    }
}
