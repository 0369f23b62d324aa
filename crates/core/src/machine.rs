//! The PUSH/PULL machine (paper §4, Figures 4–6) — a facade over the
//! split state.
//!
//! A [`Machine`] owns one [`GlobalState`] (the shared log `G`, the
//! committed-transaction list, the criteria audit — see
//! [`crate::global`]) and one [`TxnHandle`] per thread (code, stack and
//! local log `L` — see [`crate::handle`]). The seven rules of Figure 5
//! are methods: [`Machine::app`], [`Machine::unapp`], [`Machine::push`],
//! [`Machine::unpush`], [`Machine::pull`], [`Machine::unpull`] and
//! [`Machine::commit`]; each delegates to the thread's handle, which is
//! where the rule logic and its lock discipline live. In
//! [`CheckMode::Checked`] every rule *criterion* is verified before the
//! step is taken; a failing criterion returns [`MachineError::Criterion`]
//! naming the rule and clause. Because Theorem 5.17 proves any
//! criteria-respecting run serializable, algorithms driven through a
//! checked machine are serializable **by construction** on every run they
//! take — the independent oracle in [`crate::serializability`] re-verifies
//! this in the test suites.
//!
//! Sequential drivers use the machine as a single object; the parallel
//! harness instead borrows the handles individually
//! ([`Machine::handles_mut`]) and hands one to each OS worker — that is
//! the point of the split: APP/UNAPP proceed with no global lock, and
//! only PUSH/UNPUSH/PULL/CMT serialize on the short [`GlobalState`]
//! critical section.
//!
//! Threads execute a *sequence of transactions* (each program in the list
//! passed to [`Machine::add_thread`] is one `tx c` body). A nested
//! `tx`/`otx` inside a body is a first-class scope (closed: merged into
//! its parent or partially aborted; open: committed on its own with a
//! compensation registered) — see [`crate::scope`] and
//! [`Machine::begin_nested`].

use std::sync::Arc;

use crate::audit::CriteriaAudit;
use crate::error::{MachineError, MachineResult};
use crate::global::GlobalState;
use crate::handle::TxnHandle;
use crate::lang::Code;
use crate::log::GlobalLog;
use crate::op::{OpId, ThreadId, TxnId};
use crate::scope::ScopeKind;
use crate::spec::SeqSpec;
use crate::trace::Trace;

pub use crate::global::CommittedTxn;

/// The `(method, continuation)` pairs `step(c)` offers a thread.
pub type StepOptions<M> = Vec<(M, Code<M>)>;

/// How strictly rule criteria are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Enforce every criterion of Figure 5, including the ones the paper
    /// grays out as "not strictly necessary" (PULL (iii), UNPUSH (i)).
    #[default]
    Checked,
    /// Enforce all black criteria but skip the grayed-out ones.
    RelaxedGray,
    /// Enforce only structural well-formedness (flags, membership), no
    /// commutativity or allowedness checks. Exists to build
    /// criteria-violating runs for the negative tests of the
    /// serializability and invariant oracles (`serializability.rs`,
    /// `tests/invariants.rs`, `tests/audit_patterns.rs`); never use for
    /// correctness arguments.
    Unchecked,
}

/// The PUSH/PULL machine: per-thread [`TxnHandle`]s sharing one
/// [`GlobalState`].
#[derive(Debug)]
pub struct Machine<S: SeqSpec> {
    global: Arc<GlobalState<S>>,
    handles: Vec<TxnHandle<S>>,
}

impl<S: SeqSpec + Clone> Clone for Machine<S> {
    /// Deep copy: the shared state is cloned (fresh generators, audit and
    /// log) and every handle is re-pointed at the copy, so clones share
    /// nothing — the property the model checker's branching relies on.
    fn clone(&self) -> Self {
        let global = Arc::new(self.global.deep_clone());
        let handles = self
            .handles
            .iter()
            .map(|h| h.clone_with(Arc::clone(&global)))
            .collect();
        Self { global, handles }
    }
}

impl<S: SeqSpec> Machine<S> {
    /// Creates a machine over the given sequential specification, in
    /// [`CheckMode::Checked`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pushpull_core::machine::Machine;
    /// use pushpull_core::lang::Code;
    /// use pushpull_core::toy::{ToyCounter, CounterMethod};
    ///
    /// let mut m = Machine::new(ToyCounter::with_bound(8));
    /// let t = m.add_thread(vec![Code::method(CounterMethod::Inc)]);
    /// let op = m.app_auto(t)?;
    /// m.push(t, op)?;
    /// m.commit(t)?;
    /// assert_eq!(m.global().committed_ops().len(), 1);
    /// # Ok::<(), pushpull_core::error::MachineError>(())
    /// ```
    pub fn new(spec: S) -> Self {
        Self::with_mode(spec, CheckMode::Checked)
    }

    /// Creates a machine with an explicit [`CheckMode`].
    pub fn with_mode(spec: S, mode: CheckMode) -> Self {
        Self {
            global: Arc::new(GlobalState::new(spec, mode)),
            handles: Vec::new(),
        }
    }

    /// A snapshot of the criteria audit: which proof obligations this
    /// run has discharged (checked-and-passed) or violated, and how many
    /// primitive mover/`allowed` queries they cost.
    pub fn audit(&self) -> CriteriaAudit {
        self.global.audit_snapshot()
    }

    /// Clears the criteria audit counters.
    pub fn reset_audit(&mut self) {
        self.global.counters.audit.reset();
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        self.global.spec()
    }

    /// The shared half of the machine.
    pub fn global_state(&self) -> &Arc<GlobalState<S>> {
        &self.global
    }

    /// Arms (or, with `None`, disarms) a fault-injection hook; see
    /// [`crate::faults::FaultHook`].
    pub fn set_fault_hook(&self, hook: Option<std::sync::Arc<dyn crate::faults::FaultHook>>) {
        self.global.set_fault_hook(hook);
    }

    /// Installs (or, with `None`, removes) a spec certificate — the
    /// machine-checked verdict that the spec's footprint/mover
    /// declarations agree with the exhaustive ground truth; see
    /// [`GlobalState::install_certificate`].
    pub fn install_certificate(
        &self,
        cert: Option<std::sync::Arc<crate::certificate::SpecCertificate>>,
    ) {
        self.global.install_certificate(cert);
    }

    /// Turns strict certificate-gated arming on or off; see
    /// [`GlobalState::set_require_certificate`]. When strict mode finds
    /// the log already sharded and uncertified it demotes to coarse
    /// routing immediately.
    pub fn set_require_certificate(&self, on: bool) {
        self.global.set_require_certificate(on);
    }

    /// The diagnostics recorded by the certificate gate (refused arming
    /// requests, coarse demotions), in order.
    pub fn arming_diagnostics(&self) -> Vec<String> {
        self.global.arming_diagnostics()
    }

    /// A snapshot of the held-commit counters (sections committed and
    /// the transactions in them). All-zero until
    /// [`crate::group::commit_group`] commits one of this machine's
    /// handles.
    pub fn group_stats(&self) -> crate::global::GroupStats {
        self.global.group_stats()
    }

    /// Switches between incremental (committed-prefix cached) and
    /// full-replay criteria evaluation; both produce identical verdicts
    /// and audit counts. See [`GlobalState::set_incremental`].
    pub fn set_incremental(&self, on: bool) {
        self.global.set_incremental(on);
    }

    /// A snapshot of the shared log `G`, merged across the footprint
    /// shards in commit-stamp order.
    pub fn global(&self) -> GlobalLog<S::Method, S::Ret> {
        self.global.global_snapshot()
    }

    /// Number of footprint shards the shared log is split into.
    pub fn log_shards(&self) -> usize {
        self.global.shard_count()
    }

    /// Total `(lock acquisitions, contended acquisitions)` across the
    /// shard locks — the observability counters behind B9.
    pub fn lock_stats(&self) -> (u64, u64) {
        self.global.lock_stats()
    }

    /// Per-shard `(lock acquisitions, contended acquisitions)`, indexed
    /// by shard — the deterministic per-shard breakdown the watchdog
    /// dumps.
    pub fn lock_stats_per_shard(&self) -> Vec<(u64, u64)> {
        self.global.lock_stats_per_shard()
    }

    /// Re-shards the global log into `shards` footprint shards (clamped
    /// to at least one), re-routing every existing entry by its method's
    /// declared footprint and re-pointing every handle at the rebuilt
    /// shared state. Commit-sequence stamps, the commit order, the audit
    /// and all generators are preserved, so resharding mid-run changes
    /// the cost of the criteria, never their verdicts — and `shards == 1`
    /// reproduces the historical single-lock machine bit-for-bit.
    ///
    /// Under strict certificate mode
    /// ([`Machine::set_require_certificate`]) a shard count above one
    /// without a valid [`SpecCertificate`](crate::certificate) still
    /// reshards, but the rebuilt log is demoted to the sticky coarse
    /// path (every critical section takes all shard locks — sound,
    /// never mis-routed, with a diagnostic recorded in
    /// [`Machine::arming_diagnostics`]) instead of trusting the
    /// uncertified footprint declarations for fine-grained routing.
    pub fn set_log_shards(&mut self, shards: usize) {
        let n = shards.max(1);
        let gate_demote = n > 1 && self.global.require_certificate() && !self.global.certified();
        if n == self.global.shard_count() {
            if gate_demote && !self.global.coarse_mode() {
                self.global.demote_to_coarse(
                    "strict mode: fine-grained shard routing requested without a valid \
                     spec certificate; demoting to coarse routing",
                );
            }
            return;
        }
        let global = Arc::new(self.global.rebuilt_with_shards(n));
        if gate_demote {
            global.demote_to_coarse(
                "strict mode: fine-grained shard routing requested without a valid \
                 spec certificate; demoting to coarse routing",
            );
        }
        for h in &mut self.handles {
            h.rebind(Arc::clone(&global));
        }
        self.global = global;
    }

    /// Turns event recording on or off (it is on by default). The trace
    /// is an input to the oracles and the golden suites, not to any rule:
    /// an untraced machine takes exactly the same steps and reaches the
    /// same logs, committed list, audit and counters, and only
    /// [`Self::trace`] can tell it apart — it refuses to answer. Untraced,
    /// a rule builds no event, mints no sequence number on the shared
    /// counter and stores nothing. Carried by `Clone` and by
    /// [`Self::set_log_shards`].
    ///
    /// # Panics
    ///
    /// Panics once a thread of this machine has begun a transaction: the
    /// trace would start, or stop, mid-run.
    pub fn set_trace(&mut self, on: bool) {
        assert!(
            !self.handles.iter().any(TxnHandle::has_begun),
            "Machine::set_trace({on}) after a thread began a transaction: \
             the trace would start or stop mid-run"
        );
        self.global.set_traced(on);
    }

    /// Does this machine record its trace (see [`Self::set_trace`])?
    pub fn traced(&self) -> bool {
        self.global.traced()
    }

    /// The recorded trace: every handle's sequence-stamped event buffer,
    /// merged into the real-time total order.
    ///
    /// # Panics
    ///
    /// Panics on a machine that records no trace
    /// ([`Self::set_trace`]`(false)`, as `TxnServer` sets it): an empty
    /// trace there would let every comparison and trace oracle pass on
    /// nothing.
    pub fn trace(&self) -> Trace<S::Method, S::Ret> {
        assert!(
            self.traced(),
            "Machine::trace on a machine that records no trace: \
             call Machine::set_trace(true) before its first transaction"
        );
        let mut stamped: Vec<&crate::handle::StampedEvent<S>> = self
            .handles
            .iter()
            .flat_map(|h| h.events().iter())
            .collect();
        stamped.sort_by_key(|(seq, _)| *seq);
        let mut trace = Trace::new();
        for (_, e) in stamped {
            trace.record(e.clone());
        }
        trace
    }

    /// The current check mode.
    pub fn mode(&self) -> CheckMode {
        self.global.mode()
    }

    /// Committed transactions in commit order (the serial witness).
    pub fn committed_txns(&self) -> Vec<CommittedTxn<S::Method, S::Ret>> {
        self.global.committed_txns()
    }

    /// Number of threads (live and done).
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Immutable access to a thread's handle.
    pub fn thread(&self, tid: ThreadId) -> MachineResult<&TxnHandle<S>> {
        self.handles
            .get(tid.0)
            .ok_or(MachineError::NoSuchThread(tid))
    }

    /// Mutable access to a thread's handle — how drivers and the parallel
    /// harness run rules directly on the per-thread half.
    pub fn handle_mut(&mut self, tid: ThreadId) -> MachineResult<&mut TxnHandle<S>> {
        self.handles
            .get_mut(tid.0)
            .ok_or(MachineError::NoSuchThread(tid))
    }

    /// Mutable access to every handle at once. The parallel harness uses
    /// this to give each OS worker its own handle; the handles all share
    /// the machine's [`GlobalState`].
    pub fn handles_mut(&mut self) -> &mut [TxnHandle<S>] {
        &mut self.handles
    }

    /// Adds a thread that will run `programs` as a sequence of
    /// transactions (each element is one `tx c` body). The first
    /// transaction begins immediately.
    pub fn add_thread(&mut self, programs: Vec<Code<S::Method>>) -> ThreadId {
        let tid = ThreadId(self.handles.len());
        self.handles
            .push(TxnHandle::new(Arc::clone(&self.global), tid, programs));
        tid
    }

    /// Enqueues another transaction body on an existing thread.
    pub fn enqueue_txn(&mut self, tid: ThreadId, program: Code<S::Method>) -> MachineResult<()> {
        self.handle_mut(tid)?.enqueue(program);
        Ok(())
    }

    /// `step(c)` for the thread's current code: every next reachable
    /// method with its continuation.
    pub fn step_options(&self, tid: ThreadId) -> MachineResult<StepOptions<S::Method>> {
        self.thread(tid)?.step_options()
    }

    /// Applies one structural reduction (NONDETL/NONDETR/LOOP/SEMISKIP,
    /// with the SEMI congruence locating the redex) to the thread's code.
    ///
    /// Drivers normally work through `step`/`fin` and never need this;
    /// it exists for fidelity with the paper's `→rt` relation and for
    /// testing. Structural steps change no logs, so they record no trace
    /// event (they are invisible to the serializability argument).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] when the step does not apply.
    pub fn struct_step(
        &mut self,
        tid: ThreadId,
        step: crate::structural::StructStep,
    ) -> MachineResult<()> {
        self.handle_mut(tid)?.struct_step(step)
    }

    // ------------------------------------------------------------------
    // The seven rules of Figure 5 (delegated to the thread's handle).
    // ------------------------------------------------------------------

    /// **APP** (Figure 5): applies `method` with continuation `cont` and
    /// return value `ret`, recording the operation `npshd` in `L`.
    /// Thread-local; see [`TxnHandle::app`] for the criteria.
    pub fn app(
        &mut self,
        tid: ThreadId,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
    ) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app(method, cont, ret)
    }

    /// **APP**, selecting the first `step(c)` option whose method equals
    /// `method` and the first allowed return value.
    pub fn app_method(&mut self, tid: ThreadId, method: &S::Method) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app_method(method)
    }

    /// **APP**, selecting the first `step(c)` option and the first
    /// allowed return value.
    pub fn app_auto(&mut self, tid: ThreadId) -> MachineResult<OpId> {
        self.handle_mut(tid)?.app_auto()
    }

    /// **UNAPP**: rewinds the most recent local entry (which must be
    /// `npshd`), restoring the saved code and stack.
    pub fn unapp(&mut self, tid: ThreadId) -> MachineResult<OpId> {
        self.handle_mut(tid)?.unapp()
    }

    /// **PUSH**: publishes a local operation to the shared log. See
    /// [`TxnHandle::push`] for the criteria and the critical section.
    pub fn push(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.push(op_id)
    }

    /// **UNPUSH**: recalls a pushed operation from the shared log. See
    /// [`TxnHandle::unpush`].
    pub fn unpush(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.unpush(op_id)
    }

    /// **PULL**: imports another transaction's published operation into
    /// the local view. See [`TxnHandle::pull`].
    pub fn pull(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.pull(op_id)
    }

    /// **UNPULL**: discards a pulled operation from the local view. See
    /// [`TxnHandle::unpull`].
    pub fn unpull(&mut self, tid: ThreadId, op_id: OpId) -> MachineResult<()> {
        self.handle_mut(tid)?.unpull(op_id)
    }

    /// **CMT**: commits the thread's current transaction. See
    /// [`TxnHandle::commit`] for the criteria; on success the thread's
    /// next pending transaction (if any) begins.
    pub fn commit(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.commit()
    }

    // ------------------------------------------------------------------
    // Derived operations (compositions of the rules).
    // ------------------------------------------------------------------

    /// Fully rewinds the current transaction (the composition of `⃗back`
    /// rules) and restarts it as a fresh transaction instance with the
    /// original code. Records an `Abort` plus a `Begin` event.
    pub fn abort_and_retry(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.abort_and_retry()
    }

    /// Rewinds the current transaction completely: walking the local log
    /// from the tail, pulled entries are UNPULLed, pushed entries are
    /// UNPUSHed then UNAPPed, unpushed entries are UNAPPed.
    pub fn rewind_all(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.rewind_all()
    }

    /// Pushes every unpushed own operation in local order, then commits —
    /// the optimistic commit sequence ("PUSH everything and CMT at an
    /// uninterleaved moment", §6.2).
    pub fn push_all_and_commit(&mut self, tid: ThreadId) -> MachineResult<TxnId> {
        self.handle_mut(tid)?.push_all_and_commit()
    }

    /// Ids of the current transaction's unpushed operations, in order.
    pub fn unpushed_ids(&self, tid: ThreadId) -> MachineResult<Vec<OpId>> {
        Ok(self.thread(tid)?.unpushed_ids())
    }

    /// Pulls every *committed* global operation not yet in the local log,
    /// in global-log order — how opaque transactions snapshot the shared
    /// state (§6.2: "transactions begin by PULLing all operations").
    pub fn pull_all_committed(&mut self, tid: ThreadId) -> MachineResult<usize> {
        self.handle_mut(tid)?.pull_all_committed()
    }

    // ------------------------------------------------------------------
    // Nested transaction scopes (§6.2 checkpoints, closed/open nesting).
    // ------------------------------------------------------------------

    /// Opens a nested scope on `tid` explicitly (no syntax involved):
    /// subsequent operations belong to the scope until
    /// [`commit_nested`](Machine::commit_nested) merges it or
    /// [`abort_nested`](Machine::abort_nested) rewinds it. Returns the
    /// local-log length at entry (the scope's base). See
    /// [`TxnHandle::begin_nested`].
    pub fn begin_nested(&mut self, tid: ThreadId, kind: ScopeKind) -> MachineResult<usize> {
        self.handle_mut(tid)?.begin_nested(kind)
    }

    /// Commits `tid`'s innermost scope: a closed scope merges into its
    /// parent (observationally free); an open scope commits straight to
    /// the shared log as its own transaction and registers a
    /// compensation with the parent. See [`TxnHandle::commit_nested`].
    pub fn commit_nested(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.commit_nested()
    }

    /// Aborts `tid`'s innermost scope, rewinding only its log suffix —
    /// the partial abort of §6.2. The enclosing transaction survives.
    /// See [`TxnHandle::abort_nested`].
    pub fn abort_nested(&mut self, tid: ThreadId) -> MachineResult<()> {
        self.handle_mut(tid)?.abort_nested()
    }

    /// Sets a checkpoint placemarker (a closed scope used purely as a
    /// rewind target) and returns its position for
    /// [`abort_to_checkpoint`](Machine::abort_to_checkpoint).
    pub fn begin_checkpoint(&mut self, tid: ThreadId) -> MachineResult<usize> {
        self.handle_mut(tid)?.begin_checkpoint()
    }

    /// Partially aborts back to the checkpoint whose base is
    /// `target_len`, consuming it and every scope above it. See
    /// [`TxnHandle::abort_to_checkpoint`].
    pub fn abort_to_checkpoint(&mut self, tid: ThreadId, target_len: usize) -> MachineResult<()> {
        self.handle_mut(tid)?.abort_to_checkpoint(target_len)
    }

    /// Number of scopes currently open on `tid` (0 = flat).
    pub fn scope_depth(&self, tid: ThreadId) -> MachineResult<usize> {
        Ok(self.thread(tid)?.scope_depth())
    }

    /// Compensations `tid`'s current transaction would replay if it
    /// aborted now (committed open-nested children awaiting the parent's
    /// fate).
    pub fn pending_compensations(&self, tid: ThreadId) -> MachineResult<usize> {
        Ok(self.thread(tid)?.pending_compensations())
    }

    /// Machine-wide nesting counters: scope traffic, open-nested commits,
    /// compensations replayed, undo inverses derived.
    pub fn nesting_stats(&self) -> crate::scope::NestingStats {
        self.global.nesting_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Clause, Rule};
    use crate::toy::{CounterMethod, ToyCounter};

    fn inc_code() -> Code<CounterMethod> {
        Code::method(CounterMethod::Inc)
    }

    fn machine() -> Machine<ToyCounter> {
        Machine::new(ToyCounter::with_bound(32))
    }

    #[test]
    fn app_push_commit_roundtrip() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let txn = m.commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 1);
        assert!(m.thread(t).unwrap().is_done());
        assert_eq!(m.committed_txns().len(), 1);
        assert_eq!(m.committed_txns()[0].txn, txn);
        assert_eq!(m.trace().rule_names(t), vec!["BEGIN", "APP", "PUSH", "CMT"]);
    }

    #[test]
    fn commit_requires_fin() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let err = m.commit(t).unwrap_err();
        assert!(matches!(err, MachineError::Criterion(v) if v.rule == Rule::Cmt));
    }

    #[test]
    fn commit_requires_all_pushed() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        m.app_auto(t).unwrap();
        let err = m.commit(t).unwrap_err();
        match err {
            MachineError::Criterion(v) => {
                assert_eq!(v.rule, Rule::Cmt);
                assert_eq!(v.clause, Clause::Ii);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unapp_restores_code_and_stack() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(
            inc_code(),
            Code::method(CounterMethod::Get),
        )]);
        let before = m.thread(t).unwrap().code().unwrap().clone();
        m.app_auto(t).unwrap();
        assert_ne!(m.thread(t).unwrap().code().unwrap(), &before);
        m.unapp(t).unwrap();
        assert_eq!(m.thread(t).unwrap().code().unwrap(), &before);
        assert!(m.thread(t).unwrap().stack().is_empty());
        assert!(m.thread(t).unwrap().local().is_empty());
    }

    #[test]
    fn unapp_requires_npshd_tail() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        assert!(matches!(m.unapp(t), Err(MachineError::NothingToUnapply(_))));
    }

    #[test]
    fn unpush_then_unapp_rewinds() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        assert_eq!(m.global().len(), 1);
        m.unpush(t, op).unwrap();
        assert_eq!(m.global().len(), 0);
        m.unapp(t).unwrap();
        assert!(m.thread(t).unwrap().local().is_empty());
    }

    #[test]
    fn push_criterion_ii_detects_conflict() {
        // Thread A pushes get(0); thread B then tries to push inc:
        // get(=0) cannot move right of inc (the read would change), so
        // PUSH criterion (ii) must fire.
        let mut m = machine();
        let a = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let b = m.add_thread(vec![inc_code()]);
        let ga = m.app_auto(a).unwrap();
        m.push(a, ga).unwrap();
        let ib = m.app_auto(b).unwrap();
        let err = m.push(b, ib).unwrap_err();
        match err {
            MachineError::Criterion(v) => {
                assert_eq!(v.rule, Rule::Push);
                assert_eq!(v.clause, Clause::Ii);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // After A commits, B's push succeeds.
        m.commit(a).unwrap();
        m.push(b, ib).unwrap();
        m.commit(b).unwrap();
    }

    #[test]
    fn pull_and_commit_dependency_gating() {
        // B pulls A's uncommitted op; B cannot commit until A commits.
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        // B observes the inc: get returns 1.
        let gb = m.app_method(b, &CounterMethod::Get).unwrap();
        let get_ret = m.thread(b).unwrap().stack().last().unwrap().1;
        assert_eq!(get_ret, 1, "pull made A's effect visible");
        m.push(b, gb).unwrap_err(); // get(=1) conflicts with A's uncommitted inc? No:
                                    // inc ◁ get(=1) must hold for push. inc·get1 ≼ get1·inc?
                                    // From 0: inc·get1 = {1}; get1·inc: get1 disallowed at 0 → ∅.
                                    // {1} ⊄ ∅ → criterion (ii) fires. B must wait for A.
        m.commit(a).unwrap();
        m.push(b, gb).unwrap();
        let err = m.commit(b);
        assert!(err.is_ok(), "pulled op now committed: {err:?}");
    }

    #[test]
    fn unpull_requires_independence() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.pull(b, ia).unwrap();
        let _gb = m.app_method(b, &CounterMethod::Get).unwrap();
        // B's get observed 1; dropping the pulled inc would make the local
        // log disallowed, so UNPULL criterion (i) fires.
        let err = m.unpull(b, ia).unwrap_err();
        assert!(matches!(err, MachineError::Criterion(v) if v.rule == Rule::UnPull));
        // Rewind the get, then the unpull goes through.
        m.unapp(b).unwrap();
        m.unpull(b, ia).unwrap();
        assert!(m.thread(b).unwrap().local().is_empty());
    }

    #[test]
    fn abort_and_retry_resets_everything() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.app_auto(t).unwrap();
        let txn0 = m.thread(t).unwrap().txn();
        let txn1 = m.abort_and_retry(t).unwrap();
        assert_ne!(txn0, txn1);
        assert!(m.thread(t).unwrap().local().is_empty());
        assert!(m.global().is_empty());
        assert_eq!(m.thread(t).unwrap().aborts(), 1);
        // Retry to completion.
        let a = m.app_auto(t).unwrap();
        let b = m.app_auto(t).unwrap();
        m.push(t, a).unwrap();
        m.push(t, b).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 2);
    }

    #[test]
    fn push_all_and_commit_is_the_optimistic_pattern() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        m.app_auto(t).unwrap();
        m.app_auto(t).unwrap();
        m.push_all_and_commit(t).unwrap();
        assert_eq!(m.global().committed_ops().len(), 2);
        assert_eq!(
            m.trace().rule_names(t),
            vec!["BEGIN", "APP", "APP", "PUSH", "PUSH", "CMT"]
        );
    }

    #[test]
    fn pull_all_committed_snapshots() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let ia = m.app_auto(a).unwrap();
        m.push(a, ia).unwrap();
        m.commit(a).unwrap();
        let n = m.pull_all_committed(b).unwrap();
        assert_eq!(n, 1);
        let gb = m.app_method(b, &CounterMethod::Get).unwrap();
        assert_eq!(m.thread(b).unwrap().stack().last().unwrap().1, 1);
        m.push(b, gb).unwrap();
        m.commit(b).unwrap();
    }

    #[test]
    fn sequences_of_transactions_get_fresh_ids() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code(), inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        let txn0 = m.commit(t).unwrap();
        assert!(!m.thread(t).unwrap().is_done());
        let op2 = m.app_auto(t).unwrap();
        m.push(t, op2).unwrap();
        let txn1 = m.commit(t).unwrap();
        assert_ne!(txn0, txn1);
        assert!(m.thread(t).unwrap().is_done());
        assert_eq!(m.thread(t).unwrap().commits(), 2);
    }

    #[test]
    fn unchecked_mode_skips_criteria() {
        let mut m = Machine::with_mode(ToyCounter::with_bound(32), CheckMode::Unchecked);
        let a = m.add_thread(vec![Code::method(CounterMethod::Get)]);
        let b = m.add_thread(vec![inc_code()]);
        let ga = m.app_auto(a).unwrap();
        m.push(a, ga).unwrap();
        let ib = m.app_auto(b).unwrap();
        // Would violate PUSH (ii) in checked mode; unchecked lets it through.
        m.push(b, ib).unwrap();
    }

    #[test]
    fn enqueue_txn_restarts_done_thread() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        assert!(m.thread(t).unwrap().is_done());
        m.enqueue_txn(t, inc_code()).unwrap();
        assert!(!m.thread(t).unwrap().is_done());
        let op2 = m.app_auto(t).unwrap();
        m.push(t, op2).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.thread(t).unwrap().commits(), 2);
    }

    #[test]
    fn structural_steps_resolve_choices_before_app() {
        use crate::structural::StructStep;
        let mut m = machine();
        let t = m.add_thread(vec![Code::choice(
            Code::method(CounterMethod::Inc),
            Code::method(CounterMethod::Dec),
        )]);
        assert_eq!(
            crate::structural::applicable(m.thread(t).unwrap().code().unwrap()),
            vec![StructStep::NondetL, StructStep::NondetR]
        );
        m.struct_step(t, StructStep::NondetR).unwrap();
        // Only Dec remains reachable.
        let opts = m.step_options(t).unwrap();
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].0, CounterMethod::Dec);
        let op = m.app_auto(t).unwrap();
        m.push(t, op).unwrap();
        m.commit(t).unwrap();
        // A structural step on finished code is refused.
        assert!(m.struct_step(t, StructStep::Loop).is_err());
    }

    #[test]
    fn app_rejects_methods_not_in_step() {
        let mut m = machine();
        let t = m.add_thread(vec![inc_code()]);
        let err = m.app_method(t, &CounterMethod::Get).unwrap_err();
        assert!(matches!(err, MachineError::NoSuchStep(_)));
    }

    /// The split halves stay consistent under direct handle use: rules run
    /// on a borrowed handle are visible through the machine facade.
    #[test]
    fn handles_and_facade_agree() {
        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![inc_code()]);
        {
            let h = m.handle_mut(a).unwrap();
            let op = h.app_auto().unwrap();
            h.push(op).unwrap();
            h.commit().unwrap();
        }
        {
            let h = m.handle_mut(b).unwrap();
            h.app_auto().unwrap();
            h.push_all_and_commit().unwrap();
        }
        assert_eq!(m.global().committed_ops().len(), 2);
        assert_eq!(m.committed_txns().len(), 2);
        assert_eq!(m.trace().rule_names(a), vec!["BEGIN", "APP", "PUSH", "CMT"]);
        assert_eq!(m.thread(b).unwrap().commits(), 1);
    }

    /// Clones deep-copy the shared state: divergent futures don't interact.
    #[test]
    fn clone_shares_nothing() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        m.app_auto(t).unwrap();
        let mut m2 = m.clone();
        m2.app_auto(t).unwrap();
        m2.push_all_and_commit(t).unwrap();
        assert_eq!(m2.global().committed_ops().len(), 2);
        assert!(m.global().is_empty(), "clone's commits must not leak back");
        assert_eq!(m.thread(t).unwrap().local().len(), 1);
    }

    /// Resharding and deep-cloning build the new shared state through
    /// one carry-over constructor: everything armed or counted on the
    /// original is still there after a mid-run `set_log_shards` and on
    /// a `clone`, and what either mints next continues the original's
    /// sequences. The lock tallies are per shard: a clone copies them, a
    /// reshard starts them afresh.
    #[test]
    fn reshard_and_clone_carry_armed_state_and_counters_over() {
        #[derive(Debug)]
        struct Quiet;
        impl crate::faults::FaultHook for Quiet {}

        let mut m = machine();
        let a = m.add_thread(vec![inc_code()]);
        let b = m.add_thread(vec![inc_code()]);
        let c = m.add_thread(vec![Code::seq(inc_code(), inc_code())]);
        m.set_fault_hook(Some(Arc::new(Quiet)));
        m.install_certificate(Some(Arc::new(Default::default())));
        m.set_require_certificate(true);
        m.set_incremental(false);
        // Mid-run: two held commits, one scope in flight, one
        // uncommitted push, one refused arming request.
        m.app_auto(a).unwrap();
        m.app_auto(b).unwrap();
        let [ha, hb, _] = m.handles_mut() else {
            unreachable!("three threads")
        };
        let out = crate::group::commit_group(&mut [ha, hb]);
        assert!(out.results.iter().all(|(_, r)| r.is_committed()));
        m.begin_nested(c, ScopeKind::Closed).unwrap();
        let op = m.app_auto(c).unwrap();
        m.push(c, op).unwrap();
        assert!(matches!(
            m.begin_nested(c, ScopeKind::Open),
            Err(MachineError::OpenNestingUncertified(_))
        ));

        // What a copy mints next: a transaction id, an op id, and a stamp
        // that sorts the op last in `G` — once more after a reshard, which
        // reorders by stamp. Each must be above everything minted before.
        let minted = |mut m: Machine<ToyCounter>| {
            let t = m.add_thread(vec![inc_code()]);
            let op = m.app_auto(t).unwrap();
            m.push(t, op).unwrap();
            m.set_log_shards(m.log_shards() + 1);
            let last = m.global().iter().last().map(|e| e.op.id);
            (m.thread(t).unwrap().txn(), op, last)
        };
        let carried = |m: &Machine<ToyCounter>| {
            let g = m.global_state();
            (
                (g.fault_hook().is_some(), g.certificate()),
                (g.require_certificate(), g.arming_diagnostics()),
                g.incremental(),
                m.audit(),
                (m.group_stats(), m.nesting_stats()),
                m.committed_txns(),
                minted(m.clone()),
            )
        };
        let before = carried(&m);
        assert!(before.0 .0 && before.0 .1.is_some(), "hook, certificate");
        assert!(before.1 .0, "strict mode");
        assert_eq!(before.1 .1.len(), 1, "the refused open scope");
        assert!(!before.2, "incremental off");
        assert!(before.3.discharged_count(Rule::Push, Clause::I) > 0);
        assert_eq!((before.4 .0.batches, before.4 .1.scopes_opened), (2, 1));
        assert_eq!(before.5.len(), 2);
        let (txn, op_id, last) = before.6;
        let seen = m.committed_txns().iter().map(|c| c.txn).max().unwrap();
        assert!(
            txn > seen.max(m.thread(c).unwrap().txn()),
            "txn ids continue"
        );
        assert!(
            op_id > op && last == Some(op_id),
            "op ids and stamps continue"
        );

        let locks = m.lock_stats_per_shard();
        assert!(locks[0].0 > 0);
        assert_eq!(m.clone().lock_stats_per_shard(), locks, "clone copies");
        assert_eq!(carried(&m.clone()), before, "Machine::clone");
        m.set_log_shards(4);
        assert_eq!(m.log_shards(), 4);
        assert_eq!(m.lock_stats_per_shard(), vec![(0, 0); 4], "fresh per shard");
        assert_eq!(carried(&m), before, "set_log_shards");
    }

    /// Incremental and full-replay criteria evaluation agree — verdicts
    /// and audit counts — on the same run.
    #[test]
    fn incremental_matches_full_replay() {
        let run = |incremental: bool| {
            let mut m = machine();
            m.set_incremental(incremental);
            let a = m.add_thread(vec![inc_code(), inc_code()]);
            let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
            let ia = m.app_auto(a).unwrap();
            m.push(a, ia).unwrap();
            m.commit(a).unwrap();
            m.pull_all_committed(b).unwrap();
            let gb = m.app_method(b, &CounterMethod::Get).unwrap();
            let ia2 = m.app_auto(a).unwrap();
            m.push(a, ia2).unwrap();
            m.commit(a).unwrap();
            // b's stale get now fails PUSH (iii)/(ii) the same way in
            // both modes.
            let push_res = m.push(b, gb).map_err(|e| match e {
                MachineError::Criterion(v) => Some(v.rule),
                _ => None,
            });
            (m.audit().render(), m.trace().render(), push_res)
        };
        assert_eq!(run(true), run(false));
    }

    /// Raw APP takes its pair from outside, so criterion (i) still looks
    /// it up in `step(c)`: the right method with a continuation `step(c)`
    /// does not offer is refused, and the refusal leaves no trace.
    #[test]
    fn raw_app_rejects_a_continuation_not_in_step() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq(
            inc_code(),
            Code::method(CounterMethod::Get),
        )]);
        let options = m.step_options(t).unwrap();
        assert_eq!(options.len(), 1);
        let (method, cont) = options.into_iter().next().unwrap();
        let err = m.app(t, method, Code::Skip, 0).unwrap_err();
        assert!(matches!(err, MachineError::NoSuchStep(_)));
        assert!(m.thread(t).unwrap().local().is_empty());
        assert_eq!(m.audit().allowed_queries, 0);
        m.app(t, method, cont, 0).unwrap();
    }

    /// UNAPP restores the observation stack by cutting it at the length
    /// saved by the entry's APP — no more and no less.
    #[test]
    fn unapp_cuts_the_stack_at_the_saved_length() {
        let mut m = machine();
        let t = m.add_thread(vec![Code::seq_all(vec![
            inc_code(),
            Code::method(CounterMethod::Get),
            inc_code(),
        ])]);
        for _ in 0..3 {
            m.app_auto(t).unwrap();
        }
        let full = m.thread(t).unwrap().stack().to_vec();
        assert_eq!(
            full,
            vec![
                (CounterMethod::Inc, 0),
                (CounterMethod::Get, 1),
                (CounterMethod::Inc, 0)
            ]
        );
        m.unapp(t).unwrap();
        assert_eq!(m.thread(t).unwrap().stack(), &full[..2]);
        m.unapp(t).unwrap();
        assert_eq!(m.thread(t).unwrap().stack(), &full[..1]);
        m.app_auto(t).unwrap();
        assert_eq!(m.thread(t).unwrap().stack(), &full[..2]);
        m.abort_and_retry(t).unwrap();
        assert!(m.thread(t).unwrap().stack().is_empty());
    }

    /// "A deterministic drive produces a deterministic trace" also when
    /// `⟦L⟧` is a genuine set: the first allowed return is picked by
    /// walking `⟦L⟧` in insertion order, not in the order of a per-instance
    /// hash seed. (With a `HashSet` the 32 drives below split between
    /// `get -> 5` and `get -> 2`.)
    #[test]
    fn first_allowed_return_is_reproducible_on_a_two_state_denotation() {
        use crate::toy::TwoStartCounter;
        let drive = || {
            let mut m = Machine::new(TwoStartCounter::new([5, 2], 8));
            let t = m.add_thread(vec![Code::seq_all(vec![
                Code::method(CounterMethod::Get),
                inc_code(),
                Code::method(CounterMethod::Get),
            ])]);
            let allowed = m
                .thread(t)
                .unwrap()
                .allowed_results(&CounterMethod::Get)
                .unwrap();
            for _ in 0..3 {
                m.app_auto(t).unwrap();
            }
            let observed = m.thread(t).unwrap().stack().to_vec();
            m.push_all_and_commit(t).unwrap();
            (allowed, observed, m.trace().render())
        };
        let (allowed, observed, first) = drive();
        assert_eq!(allowed, vec![5, 2], "candidates follow the initial states");
        // The first `get` pins the start it picked: the set carried on is
        // the one that proved *that* return, so the second reads 5 + 1.
        let returns: Vec<i64> = observed.iter().map(|(_, r)| *r).collect();
        assert_eq!(returns, vec![5, 0, 6]);
        for _ in 1..32 {
            assert_eq!(drive(), (allowed.clone(), observed.clone(), first.clone()));
        }
    }

    /// Untraced, the machine takes the same steps to the same logs,
    /// committed list and audit, and stores no event; the setting
    /// survives a reshard and a clone.
    #[test]
    fn an_untraced_machine_steps_alike_and_records_nothing() {
        let run = |traced: bool| {
            let mut m = machine();
            m.set_trace(traced);
            let a = m.add_thread(vec![inc_code(), inc_code()]);
            let b = m.add_thread(vec![Code::method(CounterMethod::Get)]);
            m.set_log_shards(2);
            for _ in 0..2 {
                m.app_auto(a).unwrap();
                m.push_all_and_commit(a).unwrap();
            }
            m.pull_all_committed(b).unwrap();
            m.app_auto(b).unwrap();
            m.push_all_and_commit(b).unwrap();
            assert_eq!(m.clone().traced(), traced);
            m
        };
        let (on, off) = (run(true), run(false));
        assert!(on.traced() && !off.traced());
        assert_eq!(on.committed_txns(), off.committed_txns());
        assert_eq!(on.global(), off.global());
        assert_eq!(on.audit(), off.audit());
        assert!(on.handles.iter().all(|h| !h.events().is_empty()));
        assert!(off.handles.iter().all(|h| h.events().is_empty()));
        assert_eq!(off.global_state().events_recorded(), 0);
    }

    #[test]
    #[should_panic(expected = "after a thread began a transaction")]
    fn tracing_cannot_be_turned_off_mid_run() {
        let mut m = machine();
        m.add_thread(vec![inc_code()]);
        m.set_trace(false);
    }
}
