//! Fault-injection hooks: the checked machine's seam for chaos testing.
//!
//! The paper's §6/§7 algorithm classes differ in *how they recover* from
//! a failed criterion — UNAPP-based abort, UNPUSH rollback, checkpoint
//! UNPULL, HTM fallback. To exercise those recovery rules on demand, the
//! machine exposes a [`FaultHook`]: an object consulted at the entry of
//! every *forward* rule (APP, PUSH, PULL, CMT) and at driver-defined
//! boundaries (tick start, HTM access). A hook can
//!
//! - **deny** a forward rule with a spurious criterion failure (the rule
//!   has no effect; the driver sees an ordinary
//!   [`MachineError::Criterion`](crate::error::MachineError) and takes
//!   its recovery path),
//! - **kill** a transaction at a rule boundary (the driver aborts and
//!   restarts it), or **stall** a thread for k ticks,
//! - force an **HTM capacity/conflict abort** in the simulated-HTM
//!   drivers.
//!
//! Injection is deliberately *not* wired into the reverse rules (UNAPP,
//! UNPUSH, UNPULL): drivers run those inside their recovery paths, where
//! a spurious failure would wedge recovery itself rather than exercise
//! it.
//!
//! Every injected fault is tallied in the audit (see
//! [`CriteriaAudit::injected`](crate::audit::CriteriaAudit)), so a test
//! can assert *exactly which* obligations a fault plan exercised. The
//! harness crate provides the deterministic seeded `FaultPlan`
//! implementation; core only defines the seam.

use crate::error::{Clause, Rule};
use crate::op::ThreadId;

/// The kinds of fault the machine (or a driver) can inject, used as the
/// audit key for injected-fault tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A spurious criterion failure denying one forward rule.
    Deny(Rule),
    /// A transaction killed (aborted and restarted) at a rule boundary.
    Kill,
    /// A thread stalled for a fixed number of ticks.
    Stall,
    /// A simulated-HTM capacity abort.
    HtmCapacity,
    /// A simulated-HTM conflict abort.
    HtmConflict,
}

/// Everything derived from a [`FaultKind`] variant: its display label
/// and (for non-deny kinds) its dense slot in the audit's fixed-size
/// injected-fault table.
///
/// [`FaultKind::descriptor`] is the **single exhaustive match** from
/// which `Display`, the audit plumbing and the `ALL_*` iteration lists
/// are all derived — adding a variant fails to compile until this
/// descriptor is extended, and the `fault_descriptor_is_exhaustive_*`
/// tests pin the derived tables to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDescriptor {
    /// Kebab-case display label ("deny" kinds append the rule name).
    pub label: &'static str,
    /// Dense index into the audit's non-deny injected table, `None` for
    /// `Deny` (which is audited per-rule instead).
    pub audit_slot: Option<usize>,
}

/// Number of non-`Deny` fault kinds — the size of the audit's dense
/// injected-fault table. Derived from [`FaultKind::descriptor`]'s slot
/// numbering and pinned by tests.
pub const NON_DENY_FAULT_COUNT: usize = 4;

/// Every non-`Deny` fault kind, ordered by audit slot. Pinned against
/// [`FaultKind::descriptor`] by tests: `NON_DENY_FAULT_KINDS[i]` has
/// `audit_slot == Some(i)`.
pub const NON_DENY_FAULT_KINDS: [FaultKind; NON_DENY_FAULT_COUNT] = [
    FaultKind::Kill,
    FaultKind::Stall,
    FaultKind::HtmCapacity,
    FaultKind::HtmConflict,
];

impl FaultKind {
    /// The single source of truth for per-kind plumbing. Exhaustive by
    /// construction: a new variant cannot compile without a descriptor,
    /// and the descriptor tests force its slot/label to be reviewed.
    pub const fn descriptor(self) -> FaultDescriptor {
        const fn d(label: &'static str, slot: usize) -> FaultDescriptor {
            FaultDescriptor {
                label,
                audit_slot: Some(slot),
            }
        }
        match self {
            FaultKind::Deny(_) => FaultDescriptor {
                label: "deny",
                audit_slot: None,
            },
            FaultKind::Kill => d("kill", 0),
            FaultKind::Stall => d("stall", 1),
            FaultKind::HtmCapacity => d("htm-capacity", 2),
            FaultKind::HtmConflict => d("htm-conflict", 3),
        }
    }

    /// Dense audit-table index for non-deny kinds (`None` for `Deny`).
    pub const fn audit_slot(self) -> Option<usize> {
        self.descriptor().audit_slot
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = self.descriptor().label;
        match self {
            FaultKind::Deny(rule) => write!(f, "{label}-{rule}"),
            _ => f.write_str(label),
        }
    }
}

/// Every fault kind, for iterating the chaos matrix.
pub const ALL_FAULT_KINDS: [FaultKind; 8] = [
    FaultKind::Deny(Rule::App),
    FaultKind::Deny(Rule::Push),
    FaultKind::Deny(Rule::Pull),
    FaultKind::Deny(Rule::Cmt),
    FaultKind::Kill,
    FaultKind::Stall,
    FaultKind::HtmCapacity,
    FaultKind::HtmConflict,
];

/// A fault fired at a tick boundary, before the driver runs any rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryFault {
    /// Abort and restart the thread's current transaction.
    Kill,
    /// Park the thread for this many ticks.
    Stall(u64),
}

/// A fault fired at a simulated-HTM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtmFault {
    /// The transaction overflowed the simulated read/write capacity.
    Capacity,
    /// The hardware detected a (possibly spurious) conflict.
    Conflict,
}

/// The clause an injected denial of `rule` reports. Chosen to be the
/// clause the rule most commonly fails under real contention, so a
/// driver cannot distinguish an injected denial from a genuine one.
pub fn deny_clause(rule: Rule) -> Clause {
    match rule {
        Rule::App => Clause::Ii,
        Rule::Push => Clause::Iii,
        Rule::Pull => Clause::Ii,
        Rule::Cmt => Clause::Iii,
        Rule::UnApp | Rule::UnPush | Rule::UnPull => Clause::I,
    }
}

/// A pluggable fault source, consulted by the machine at rule entry and
/// by drivers at tick/HTM boundaries. Implementations must be
/// deterministic given their own state (the harness `FaultPlan` keys
/// decisions on per-thread
/// attempt counters, never on wall-clock or OS scheduling), `Sync`
/// (hooks are consulted concurrently from worker threads), and cheap —
/// they sit on the hot path of every rule.
///
/// All methods default to "no fault", so an implementation overrides
/// only the boundaries it cares about.
pub trait FaultHook: std::fmt::Debug + Send + Sync {
    /// Consulted at the entry of a forward rule (APP, PUSH, PULL, CMT)
    /// on `tid`, *before* the rule checks criteria or has any effect.
    /// Returning `Some(clause)` denies the rule: the caller sees a
    /// criterion failure for `(rule, clause)` and the machine records an
    /// injected `Deny(rule)` fault.
    fn deny_rule(&self, tid: ThreadId, rule: Rule) -> Option<Clause> {
        let _ = (tid, rule);
        None
    }

    /// Consulted by drivers at the start of a tick, at a rule boundary
    /// (no rule mid-flight). A returned fault is always acted on and
    /// recorded.
    fn at_boundary(&self, tid: ThreadId) -> Option<BoundaryFault> {
        let _ = tid;
        None
    }

    /// Consulted by the simulated-HTM drivers once per transactional
    /// memory access, before the access is recorded in the conflict
    /// tables.
    fn htm_access(&self, tid: ThreadId) -> Option<HtmFault> {
        let _ = tid;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kinds_are_ordered_and_displayable() {
        let mut v = ALL_FAULT_KINDS.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), ALL_FAULT_KINDS.len());
        assert_eq!(FaultKind::Deny(Rule::Push).to_string(), "deny-PUSH");
        assert_eq!(FaultKind::HtmCapacity.to_string(), "htm-capacity");
    }

    /// The compile guard's runtime half: the descriptor match is
    /// exhaustive by construction (a new variant will not compile
    /// without a descriptor arm); this pins the *derived* tables —
    /// dense, bijective audit slots and unique labels — so extending
    /// the descriptor forces the slot table to be reviewed too.
    #[test]
    fn fault_descriptor_is_exhaustive_and_slots_are_dense() {
        for (i, kind) in NON_DENY_FAULT_KINDS.iter().enumerate() {
            assert_eq!(
                kind.audit_slot(),
                Some(i),
                "{kind}: NON_DENY_FAULT_KINDS order must match audit slots"
            );
        }
        let mut labels: Vec<&str> = NON_DENY_FAULT_KINDS
            .iter()
            .map(|k| k.descriptor().label)
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NON_DENY_FAULT_COUNT, "labels must be unique");
        // Deny kinds have no dense slot: they are audited per-rule.
        for rule in [Rule::App, Rule::Push, Rule::Pull, Rule::Cmt] {
            assert_eq!(FaultKind::Deny(rule).audit_slot(), None);
        }
    }

    #[test]
    fn deny_clause_covers_forward_rules() {
        assert_eq!(deny_clause(Rule::App), Clause::Ii);
        assert_eq!(deny_clause(Rule::Push), Clause::Iii);
        assert_eq!(deny_clause(Rule::Pull), Clause::Ii);
        assert_eq!(deny_clause(Rule::Cmt), Clause::Iii);
    }

    #[derive(Debug)]
    struct DenyAllPush;
    impl FaultHook for DenyAllPush {
        fn deny_rule(&self, _tid: ThreadId, rule: Rule) -> Option<Clause> {
            (rule == Rule::Push).then_some(deny_clause(rule))
        }
    }

    #[test]
    fn default_hook_methods_are_no_faults() {
        let h = DenyAllPush;
        assert_eq!(h.deny_rule(ThreadId(0), Rule::Push), Some(Clause::Iii));
        assert_eq!(h.deny_rule(ThreadId(0), Rule::App), None);
        assert_eq!(h.at_boundary(ThreadId(0)), None);
        assert_eq!(h.htm_access(ThreadId(0)), None);
    }
}
