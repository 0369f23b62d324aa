//! The arming part of [`GlobalState`]: what is armed on the machine from
//! outside — the fault-injection hook and event recording.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use crate::error::{Clause, Rule};
use crate::faults::{FaultHook, FaultKind};
use crate::op::ThreadId;
use crate::spec::SeqSpec;

use super::{unpoisoned, GlobalState};

/// The arming part.
#[derive(Debug)]
pub(crate) struct Arming {
    /// The fault-injection hook, if armed. The flag short-circuits the
    /// rule hot paths to a single relaxed load when no hook is set.
    faults: RwLock<Option<Arc<dyn FaultHook>>>,
    faults_armed: AtomicBool,
    /// Do the rules record trace events? Read by every rule, written only
    /// by [`Machine::set_trace`](crate::machine::Machine::set_trace)
    /// before any thread begins, so it shares the read-mostly line of
    /// `faults_armed` and no line with a generator or the audit.
    pub(super) traced: AtomicBool,
}

impl Arming {
    /// Nothing armed.
    pub(super) fn new() -> Self {
        Self {
            faults: RwLock::new(None),
            faults_armed: AtomicBool::new(false),
            traced: AtomicBool::new(true),
        }
    }

    /// A copy arming the same hook, with the same trace switch (deep
    /// clones and resharding).
    pub(super) fn copy(&self) -> Self {
        Self {
            faults: RwLock::new(self.fault_hook()),
            faults_armed: AtomicBool::new(self.faults_armed.load(Ordering::Acquire)),
            traced: AtomicBool::new(self.traced.load(Ordering::Relaxed)),
        }
    }

    fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        unpoisoned(self.faults.read()).clone()
    }
}

impl<S: SeqSpec> GlobalState<S> {
    /// Arms (or, with `None`, disarms) the fault-injection hook. The
    /// machine consults it at forward-rule entry; drivers consult it at
    /// tick and HTM boundaries.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        let arming = &self.arming;
        arming.faults_armed.store(hook.is_some(), Ordering::Release);
        *unpoisoned(arming.faults.write()) = hook;
    }

    /// The armed fault hook, if any.
    pub fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        self.arming.fault_hook()
    }

    /// Do the rules record trace events? On unless
    /// [`Machine::set_trace`](crate::machine::Machine::set_trace) turned
    /// it off before the machine's first transaction.
    pub fn traced(&self) -> bool {
        self.arming.traced.load(Ordering::Relaxed)
    }

    /// Turns event recording on or off; only
    /// [`Machine::set_trace`](crate::machine::Machine::set_trace) calls
    /// this, before any thread has begun.
    pub(crate) fn set_traced(&self, on: bool) {
        self.arming.traced.store(on, Ordering::Relaxed);
    }

    /// Records one injected fault in the audit. The machine calls this
    /// for rule denials; drivers call it when they act on a boundary or
    /// HTM fault, so the audit tallies faults that actually *fired*.
    pub fn note_injected(&self, kind: FaultKind) {
        self.counters.audit.inject(kind);
    }

    /// Consults the hook at the entry of forward rule `rule` on `tid`;
    /// on a denial, records the injected fault and returns the clause
    /// the rule must report.
    pub(crate) fn fault_deny(&self, tid: ThreadId, rule: Rule) -> Option<Clause> {
        let hook = self.fault_hook()?;
        let clause = hook.deny_rule(tid, rule)?;
        self.counters.audit.inject(FaultKind::Deny(rule));
        Some(clause)
    }
}
