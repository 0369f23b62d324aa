//! Criteria audit: *which proof obligations did a run discharge?*
//!
//! The paper's methodology (§2) is: demarcate the algorithm into rule
//! fragments, then prove each rule's criteria. The checked machine
//! discharges those criteria dynamically; this module counts them, so a
//! run can report the exact shape of its correctness argument — how many
//! PUSH criterion (ii) mover checks, how many `allowed` evaluations, and
//! so on. The audit explains where the cost of checking goes, and the
//! per-algorithm tests assert the *pattern* (e.g. an optimistic run
//! discharges no UNPUSH obligations at all).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::error::{Clause, Rule};
use crate::faults::{FaultKind, NON_DENY_FAULT_COUNT, NON_DENY_FAULT_KINDS};

/// Counter key: a rule criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Obligation {
    /// The rule.
    pub rule: Rule,
    /// The clause.
    pub clause: Clause,
}

impl std::fmt::Display for Obligation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} criterion {}", self.rule, self.clause)
    }
}

/// Tally of discharged (checked-and-passed) and violated criteria, plus
/// the primitive-check counters behind them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriteriaAudit {
    /// Criterion evaluations that passed, by obligation.
    pub discharged: BTreeMap<Obligation, u64>,
    /// Criterion evaluations that failed (and blocked the rule).
    pub violated: BTreeMap<Obligation, u64>,
    /// Individual mover-oracle consultations (Definition 4.1 queries).
    pub mover_queries: u64,
    /// Individual `allowed` evaluations.
    pub allowed_queries: u64,
    /// Faults injected by a [`FaultHook`](crate::faults::FaultHook), by
    /// kind. Injected rule denials are counted here and *only* here —
    /// they never inflate `violated`, so the per-algorithm
    /// never-violates invariants stay assertable under fault injection.
    pub injected: BTreeMap<FaultKind, u64>,
}

impl CriteriaAudit {
    /// Records a passed criterion.
    pub fn pass(&mut self, rule: Rule, clause: Clause) {
        *self
            .discharged
            .entry(Obligation { rule, clause })
            .or_default() += 1;
    }

    /// Records a failed criterion.
    pub fn fail(&mut self, rule: Rule, clause: Clause) {
        *self
            .violated
            .entry(Obligation { rule, clause })
            .or_default() += 1;
    }

    /// Total criterion evaluations (passes + failures).
    pub fn total(&self) -> u64 {
        self.discharged.values().sum::<u64>() + self.violated.values().sum::<u64>()
    }

    /// Passed evaluations of one obligation.
    pub fn discharged_count(&self, rule: Rule, clause: Clause) -> u64 {
        self.discharged
            .get(&Obligation { rule, clause })
            .copied()
            .unwrap_or(0)
    }

    /// Failed evaluations of one obligation.
    pub fn violated_count(&self, rule: Rule, clause: Clause) -> u64 {
        self.violated
            .get(&Obligation { rule, clause })
            .copied()
            .unwrap_or(0)
    }

    /// Failed evaluations of every PUSH and CMT criterion: the denials of
    /// the two rules that publish. A driver whose own metadata decides
    /// every conflict — boosting, 2PL, §7's mixed system, TL2, the
    /// simulated HTM — makes none, so this is its one measure of a
    /// decision the machine's criteria contradicted. Injected denials are
    /// not counted: they are tallied apart, in `injected`.
    pub fn push_cmt_violations(&self) -> u64 {
        self.violated
            .iter()
            .filter(|(o, _)| matches!(o.rule, Rule::Push | Rule::Cmt))
            .map(|(_, n)| n)
            .sum()
    }

    /// Records one injected fault.
    pub fn inject(&mut self, kind: FaultKind) {
        *self.injected.entry(kind).or_default() += 1;
    }

    /// Renders the audit as a small table.
    ///
    /// The output is deterministic: obligations appear in `(rule, clause)`
    /// order (the `Ord` on [`Obligation`]) and injected-fault kinds in
    /// their `BTreeMap` order, so two audits with equal tallies render
    /// byte-identically — golden tests and CI log diffs rely on this.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("obligation                 discharged   violated\n");
        let mut keys: Vec<Obligation> = self
            .discharged
            .keys()
            .chain(self.violated.keys())
            .copied()
            .collect();
        keys.sort();
        keys.dedup();
        for k in keys {
            out.push_str(&format!(
                "{:<26} {:>10} {:>10}\n",
                k.to_string(),
                self.discharged.get(&k).copied().unwrap_or(0),
                self.violated.get(&k).copied().unwrap_or(0)
            ));
        }
        out.push_str(&format!(
            "mover queries: {}   allowed queries: {}\n",
            self.mover_queries, self.allowed_queries
        ));
        for (kind, n) in &self.injected {
            out.push_str(&format!("injected {kind}: {n}\n"));
        }
        out
    }
}

const ALL_RULES: [Rule; 7] = [
    Rule::App,
    Rule::UnApp,
    Rule::Push,
    Rule::UnPush,
    Rule::Pull,
    Rule::UnPull,
    Rule::Cmt,
];
const ALL_CLAUSES: [Clause; 4] = [Clause::I, Clause::Ii, Clause::Iii, Clause::Iv];

/// Number of cache-line-padded stripes the hot query counters are sharded
/// over. Each OS thread counts into the stripe `stripe()` numbers it on its
/// first count, so concurrent APP-side `allowed` accounting on different
/// threads (up to this many) touches different cache lines.
pub const QUERY_SHARDS: usize = 8;

/// The calling OS thread's stripe: threads are numbered round-robin over
/// the stripes on their first count, and keep their stripe.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % QUERY_SHARDS;
    }
    STRIPE.with(|s| *s)
}

/// One cache line worth of `T`, for a word that threads write concurrently,
/// so it shares its line with no other word: the query stripes here, and
/// [`GlobalState`](crate::global::GlobalState)'s generators.
#[derive(Debug, Default, Clone)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The lock-free twin of [`CriteriaAudit`]: per-obligation pass/fail
/// counters as plain `AtomicU64`s plus *sharded*, cache-padded stripes for
/// the hot mover/`allowed` query tallies. This is what lets the machine's
/// shared state be `Sync` without a `RefCell` (or a lock) around the audit
/// — APP-side accounting on different threads never contends.
///
/// [`AtomicAudit::snapshot`] materializes the familiar [`CriteriaAudit`]
/// view, so existing `audit()` consumers are source-compatible.
#[derive(Debug, Default)]
pub struct AtomicAudit {
    discharged: [[AtomicU64; 4]; 7],
    violated: [[AtomicU64; 4]; 7],
    mover_queries: [CachePadded<AtomicU64>; QUERY_SHARDS],
    allowed_queries: [CachePadded<AtomicU64>; QUERY_SHARDS],
    /// Injected `Deny(rule)` faults, indexed by `rule as usize`.
    injected_deny: [AtomicU64; 7],
    /// Injected non-deny faults (kill, stall, HTM), indexed
    /// by [`FaultKind::audit_slot`] — the dense numbering derived from
    /// the single exhaustive descriptor match in `faults.rs`.
    injected_other: [AtomicU64; NON_DENY_FAULT_COUNT],
}

impl AtomicAudit {
    /// Creates a zeroed audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a passed criterion.
    pub fn pass(&self, rule: Rule, clause: Clause) {
        self.discharged[rule as usize][clause as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed criterion.
    pub fn fail(&self, rule: Rule, clause: Clause) {
        self.violated[rule as usize][clause as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one mover-oracle consultation in the calling thread's stripe.
    pub fn count_mover(&self) {
        self.mover_queries[stripe()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `allowed` evaluation in the calling thread's stripe.
    pub fn count_allowed(&self) {
        self.allowed_queries[stripe()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` mover-oracle consultations at once: the criteria
    /// kernel tallies while it evaluates and `Verdict::record` flushes
    /// here in one shot.
    pub fn count_mover_n(&self, n: u64) {
        if n > 0 {
            self.mover_queries[stripe()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one injected fault.
    pub fn inject(&self, kind: FaultKind) {
        match kind.audit_slot() {
            Some(i) => self.injected_other[i].fetch_add(1, Ordering::Relaxed),
            None => {
                let FaultKind::Deny(rule) = kind else {
                    unreachable!("only Deny lacks an audit slot")
                };
                self.injected_deny[rule as usize].fetch_add(1, Ordering::Relaxed)
            }
        };
    }

    /// Materializes a [`CriteriaAudit`] snapshot: obligations with zero
    /// counts are omitted, matching the map-based audit exactly.
    pub fn snapshot(&self) -> CriteriaAudit {
        let mut out = CriteriaAudit::default();
        for rule in ALL_RULES {
            for clause in ALL_CLAUSES {
                let d = self.discharged[rule as usize][clause as usize].load(Ordering::Relaxed);
                if d > 0 {
                    *out.discharged
                        .entry(Obligation { rule, clause })
                        .or_default() += d;
                }
                let v = self.violated[rule as usize][clause as usize].load(Ordering::Relaxed);
                if v > 0 {
                    *out.violated.entry(Obligation { rule, clause }).or_default() += v;
                }
            }
        }
        out.mover_queries = self
            .mover_queries
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum();
        out.allowed_queries = self
            .allowed_queries
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum();
        for rule in ALL_RULES {
            let n = self.injected_deny[rule as usize].load(Ordering::Relaxed);
            if n > 0 {
                *out.injected.entry(FaultKind::Deny(rule)).or_default() += n;
            }
        }
        for kind in NON_DENY_FAULT_KINDS {
            let n = self.injected_other[kind.audit_slot().expect("non-deny kind")]
                .load(Ordering::Relaxed);
            if n > 0 {
                *out.injected.entry(kind).or_default() += n;
            }
        }
        out
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for row in self.discharged.iter().chain(self.violated.iter()) {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        for s in self.mover_queries.iter().chain(self.allowed_queries.iter()) {
            s.store(0, Ordering::Relaxed);
        }
        for c in self.injected_deny.iter().chain(self.injected_other.iter()) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl Clone for AtomicAudit {
    fn clone(&self) -> Self {
        let out = Self::default();
        for (dst, src) in out.discharged.iter().zip(self.discharged.iter()) {
            for (d, s) in dst.iter().zip(src.iter()) {
                d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        for (dst, src) in out.violated.iter().zip(self.violated.iter()) {
            for (d, s) in dst.iter().zip(src.iter()) {
                d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        for (dst, src) in out.mover_queries.iter().zip(self.mover_queries.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (dst, src) in out.allowed_queries.iter().zip(self.allowed_queries.iter()) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (dst, src) in out
            .injected_deny
            .iter()
            .chain(out.injected_other.iter())
            .zip(self.injected_deny.iter().chain(self.injected_other.iter()))
        {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_and_render() {
        let mut a = CriteriaAudit::default();
        a.pass(Rule::Push, Clause::Ii);
        a.pass(Rule::Push, Clause::Ii);
        a.fail(Rule::Push, Clause::Iii);
        a.mover_queries += 5;
        assert_eq!(a.discharged_count(Rule::Push, Clause::Ii), 2);
        assert_eq!(a.violated_count(Rule::Push, Clause::Iii), 1);
        assert_eq!(a.total(), 3);
        let table = a.render();
        assert!(table.contains("PUSH criterion (ii)"));
        assert!(table.contains("mover queries: 5"));
    }

    #[test]
    fn render_is_deterministic_golden() {
        // Insert out of display order; the render must still come out in
        // (rule, clause) order, byte-for-byte.
        let mut a = CriteriaAudit::default();
        a.fail(Rule::Cmt, Clause::Iii);
        a.pass(Rule::Push, Clause::Ii);
        a.pass(Rule::App, Clause::Ii);
        a.mover_queries = 7;
        a.allowed_queries = 2;
        let expected = "\
obligation                 discharged   violated
APP criterion (ii)                  1          0
PUSH criterion (ii)                 1          0
CMT criterion (iii)                 0          1
mover queries: 7   allowed queries: 2
";
        assert_eq!(a.render(), expected);
        // A second audit built in a different insertion order renders
        // identically.
        let mut b = CriteriaAudit::default();
        b.pass(Rule::App, Clause::Ii);
        b.pass(Rule::Push, Clause::Ii);
        b.fail(Rule::Cmt, Clause::Iii);
        b.mover_queries = 7;
        b.allowed_queries = 2;
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn atomic_snapshot_matches_map_audit() {
        let a = AtomicAudit::new();
        let mut m = CriteriaAudit::default();
        for _ in 0..3 {
            a.pass(Rule::Push, Clause::Ii);
            m.pass(Rule::Push, Clause::Ii);
        }
        a.fail(Rule::Cmt, Clause::Iii);
        m.fail(Rule::Cmt, Clause::Iii);
        for _ in 0..10 {
            a.count_mover();
            m.mover_queries += 1;
        }
        a.count_allowed();
        m.allowed_queries += 1;
        assert_eq!(a.snapshot(), m);
    }

    #[test]
    fn atomic_audit_is_concurrency_safe() {
        let a = std::sync::Arc::new(AtomicAudit::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let a = std::sync::Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    a.pass(Rule::App, Clause::Ii);
                    a.count_allowed();
                    a.count_mover_n(t + 1);
                }
                stripe()
            }));
        }
        // Each thread's counts land in the one stripe it was numbered, so
        // the stripes hold exactly what their threads counted.
        let mut movers = [0u64; QUERY_SHARDS];
        for (t, h) in handles.into_iter().enumerate() {
            movers[h.join().unwrap()] += 1000 * (t as u64 + 1);
        }
        let per_stripe: Vec<u64> = a
            .mover_queries
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        assert_eq!(per_stripe, movers);
        let snap = a.snapshot();
        assert_eq!(snap.discharged_count(Rule::App, Clause::Ii), 4000);
        assert_eq!(snap.allowed_queries, 4000);
        assert_eq!(snap.mover_queries, 10_000);
    }

    #[test]
    fn atomic_reset_and_clone() {
        let a = AtomicAudit::new();
        a.pass(Rule::Pull, Clause::I);
        a.count_mover();
        let b = a.clone();
        assert_eq!(a.snapshot(), b.snapshot());
        a.reset();
        assert_eq!(a.snapshot(), CriteriaAudit::default());
        // The clone is independent of the original.
        assert_eq!(b.snapshot().discharged_count(Rule::Pull, Clause::I), 1);
    }

    #[test]
    fn injected_tallies_round_trip() {
        let a = AtomicAudit::new();
        a.inject(FaultKind::Deny(Rule::Push));
        a.inject(FaultKind::Deny(Rule::Push));
        a.inject(FaultKind::Kill);
        a.inject(FaultKind::HtmConflict);
        let snap = a.snapshot();
        let expected = [
            (FaultKind::Deny(Rule::Push), 2),
            (FaultKind::Kill, 1),
            (FaultKind::HtmConflict, 1),
        ];
        assert_eq!(snap.injected, BTreeMap::from(expected));
        // Injection never touches the violated tallies.
        assert_eq!(snap.violated_count(Rule::Push, Clause::Iii), 0);
        assert!(snap.render().contains("injected deny-PUSH: 2"));
        let b = a.clone();
        assert_eq!(b.snapshot(), snap);
        a.reset();
        assert!(a.snapshot().injected.is_empty());
    }

    #[test]
    fn every_non_deny_kind_round_trips_through_its_slot() {
        // Exercises the full descriptor-derived slot table: one inject
        // per kind must come back as exactly one tally per kind, in
        // deterministic BTreeMap order.
        let a = AtomicAudit::new();
        for kind in NON_DENY_FAULT_KINDS {
            a.inject(kind);
        }
        let snap = a.snapshot();
        let once = NON_DENY_FAULT_KINDS.map(|kind| (kind, 1));
        assert_eq!(snap.injected, BTreeMap::from(once));
        assert_eq!(snap.injected.len(), NON_DENY_FAULT_COUNT);
        assert!(snap.render().contains("injected kill: 1"));
        assert!(snap.render().contains("injected htm-conflict: 1"));
    }

    #[test]
    fn obligations_order_by_rule_then_clause() {
        let mut v = [
            Obligation {
                rule: Rule::Cmt,
                clause: Clause::I,
            },
            Obligation {
                rule: Rule::App,
                clause: Clause::Ii,
            },
            Obligation {
                rule: Rule::App,
                clause: Clause::I,
            },
        ];
        v.sort();
        assert_eq!(v[0].rule, Rule::App);
        assert_eq!(v[0].clause, Clause::I);
        assert_eq!(v[2].rule, Rule::Cmt);
    }
}
