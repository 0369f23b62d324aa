//! The arming part of [`GlobalState`]: what is armed on the machine from
//! outside — the fault-injection hook, the spec certificate, strict
//! certificate-gated arming and event recording — and the diagnostics of
//! every arming request the certificate gate refused or demoted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::certificate::SpecCertificate;
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
    /// The installed spec certificate, if the analysis certified this
    /// spec's footprint/mover declarations (see [`SpecCertificate`]).
    certificate: RwLock<Option<Arc<SpecCertificate>>>,
    /// Strict arming mode: when set, fine-grained shard routing demotes
    /// to the sound coarse path without a valid certificate, and an
    /// open-nested scope is refused without a proven inverse law, each
    /// recording a diagnostic. Off by default — bit-identical legacy
    /// behaviour.
    require_certificate: AtomicBool,
    /// Human-readable records of every arming request the certificate
    /// gate refused or demoted (drained by
    /// [`GlobalState::arming_diagnostics`]).
    arming_diags: Mutex<Vec<String>>,
}

impl Arming {
    /// Nothing armed.
    pub(super) fn new() -> Self {
        Self {
            faults: RwLock::new(None),
            faults_armed: AtomicBool::new(false),
            traced: AtomicBool::new(true),
            certificate: RwLock::new(None),
            require_certificate: AtomicBool::new(false),
            arming_diags: Mutex::new(Vec::new()),
        }
    }

    /// A copy arming the same hook and certificate, in the same modes,
    /// with the same diagnostics (deep clones and resharding).
    pub(super) fn copy(&self) -> Self {
        Self {
            faults: RwLock::new(self.fault_hook()),
            faults_armed: AtomicBool::new(self.faults_armed.load(Ordering::Acquire)),
            traced: AtomicBool::new(self.traced.load(Ordering::Relaxed)),
            certificate: RwLock::new(unpoisoned(self.certificate.read()).clone()),
            require_certificate: AtomicBool::new(self.require_certificate.load(Ordering::SeqCst)),
            arming_diags: Mutex::new(unpoisoned(self.arming_diags.lock()).clone()),
        }
    }

    fn fault_hook(&self) -> Option<Arc<dyn FaultHook>> {
        if !self.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        unpoisoned(self.faults.read()).clone()
    }

    /// Records one certificate-gate diagnostic.
    fn note(&self, msg: &str) {
        unpoisoned(self.arming_diags.lock()).push(msg.to_string());
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

    /// Installs (or, with `None`, removes) a spec certificate — the
    /// machine-checked verdict that this spec's `method_keys`/
    /// `method_mover` declarations agree with the exhaustively derived
    /// ground truth. Installing an *invalid* certificate (one with
    /// errors) is allowed but arms nothing: strict mode treats it
    /// exactly like no certificate.
    pub fn install_certificate(&self, cert: Option<Arc<SpecCertificate>>) {
        *unpoisoned(self.arming.certificate.write()) = cert;
    }

    /// The installed spec certificate, if any.
    pub fn certificate(&self) -> Option<Arc<SpecCertificate>> {
        unpoisoned(self.arming.certificate.read()).clone()
    }

    /// Is a *valid* certificate installed (present and error-free)?
    pub fn certified(&self) -> bool {
        unpoisoned(self.arming.certificate.read())
            .as_ref()
            .is_some_and(|c| c.is_valid())
    }

    /// May an open-nested scope be opened right now? Outside strict mode
    /// the answer is always yes (each operation's inverse is still
    /// checked at the open commit); under strict mode it additionally
    /// demands an installed certificate whose inverse law was proven —
    /// a refusal is recorded in [`Self::arming_diagnostics`].
    pub(crate) fn open_nesting_allowed(&self) -> bool {
        if !self.require_certificate() {
            return true;
        }
        let ok = unpoisoned(self.arming.certificate.read())
            .as_ref()
            .is_some_and(|c| c.open_nesting_certified());
        if !ok {
            self.arming.note(
                "refused to open an open-nested scope: strict mode requires a valid \
                 spec certificate with a proven inverse law, and none is installed",
            );
        }
        ok
    }

    /// Turns strict certificate-gated arming on or off. Off (the
    /// default) reproduces the historical trust-the-declarations
    /// behaviour bit-identically. On, the two paths that trust the spec's
    /// declarations demand a certificate:
    ///
    /// * fine-grained shard routing (a shard count above one) demotes to
    ///   the sticky coarse path unless a valid certificate is installed —
    ///   sound, never wrong, just slower;
    /// * entering an open-nested scope is refused unless the certificate
    ///   also proved the inverse law ([`SpecCertificate::open_nesting_certified`]);
    ///
    /// each refusal/demotion recording a diagnostic in
    /// [`Self::arming_diagnostics`]. Turning strict mode on while
    /// already sharded and uncertified demotes immediately.
    pub fn set_require_certificate(&self, on: bool) {
        self.arming.require_certificate.store(on, Ordering::SeqCst);
        if on && self.shard_count() > 1 && !self.certified() && !self.coarse_mode() {
            self.demote_to_coarse(
                "strict mode enabled on an uncertified sharded log: demoting to \
                 coarse routing (all-shard critical sections)",
            );
        }
    }

    /// Is strict certificate-gated arming on?
    pub fn require_certificate(&self) -> bool {
        self.arming.require_certificate.load(Ordering::SeqCst)
    }

    /// The diagnostics recorded by the certificate gate: one line per
    /// refused arming request or coarse demotion, in order.
    pub fn arming_diagnostics(&self) -> Vec<String> {
        unpoisoned(self.arming.arming_diags.lock()).clone()
    }

    /// Sets the sticky coarse flag (SeqCst, same protocol as routing's
    /// own demotion: every later `acquire_route` re-checks the flag
    /// under the lock) and records why. Sound by the same argument as footprint-less
    /// routing — coarse mode evaluates every criterion against the
    /// whole log.
    pub(crate) fn demote_to_coarse(&self, reason: &str) {
        self.log.coarse.store(true, Ordering::SeqCst);
        self.arming.note(reason);
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
