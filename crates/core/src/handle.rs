//! The per-thread half of the split machine: [`TxnHandle`] owns one
//! thread's code, stack and local log `L`, and runs the seven rules of
//! Figure 5 against a shared [`GlobalState`].
//!
//! ## Lock discipline (the point of the split)
//!
//! * **APP / UNAPP** touch only this handle and the global *atomics*
//!   (fresh ids, audit counters, trace sequence numbers) — they never
//!   acquire the shared-log mutex, so thread-local steps run genuinely in
//!   parallel.
//! * **PUSH / UNPUSH** evaluate their criteria-over-`G` and apply their
//!   effect inside one short critical section on *their operation's
//!   footprint shard* (every shard, ascending, for coarse-routed
//!   operations) — criteria and effect are atomic, which is what
//!   Theorem 5.17's per-rule reasoning needs. **CMT** locks exactly the
//!   shards of its pushed operations and of the operations it pulled
//!   while they were still uncommitted, in canonical ascending order: an
//!   operation pulled `gCmt` settled CMT (iii) at PULL time (no rule
//!   un-commits), so its shard is not locked again.
//! * A **held commit** ([`crate::group`]) runs a transaction's PUSHes and
//!   its CMT — denied, its abort — inside *one* section over those same
//!   shards, each locked exactly once; every shared rule body below takes
//!   the caller's `Held` section in place of a lock of its own.
//! * **PULL** by id locks one shard at a time, ascending, only long
//!   enough to locate and snapshot the pulled entry; the strict refresh
//!   ([`TxnHandle::pull_all_committed`]) snapshots every committed entry
//!   `L` lacks under one acquisition of every shard, each exactly once,
//!   and the lenient one ([`TxnHandle::pull_committed_lenient`]) those the
//!   transaction can touch, under one acquisition of the shards its
//!   declared keys route to. Either way PULL's criteria and effect are
//!   local, and **UNPULL** is entirely local.
//!
//! ## The carried local denotation
//!
//! APP (ii), PULL (ii) and UNPULL (i) are `allowed` queries over the
//! *local* log. The handle keeps `⟦L⟧` beside `L` (`LocalDenot`, a
//! [`StateSet`] — one inline state for every deterministic spec), so each
//! is one step of that set rather than a replay of `L`: an append installs
//! the stepped set; removing the tail keeps only the fact that `L` was
//! allowed, which by prefix closure answers the next UNPULL at the tail;
//! anything else replays `L` once, lazily. [`TxnHandle::app_method`] and
//! [`TxnHandle::app_auto`] pick a return value by stepping `⟦L⟧` by each
//! candidate, so the `⟦L · op⟧` that proved the pick allowed *is* APP
//! (ii)'s evaluation: APP tallies its query and installs that set instead
//! of stepping a second time. Each rule firing is still exactly one
//! audited `allowed` query, and [`GlobalState::set_incremental`]`(false)`
//! switches the carried set off with the shards' prefix caches — the
//! full-replay reference, which evaluates the pick and the criterion
//! separately.
//!
//! Trace events are buffered per handle, stamped with a global atomic
//! sequence number; [`Machine::trace`](crate::machine::Machine::trace)
//! merges the buffers into one totally ordered trace.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use crate::criteria;
use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::faults::{BoundaryFault, FaultKind, HtmFault};
use crate::global::{CommittedTxn, GlobalState, LogView, Route, TxnKind};
use crate::lang::{dedup_in_place, Code};
use crate::log::{GlobalEntry, GlobalFlag, GlobalLog, LocalEntry, LocalFlag, LocalLog};
use crate::machine::{CheckMode, StepOptions};
use crate::op::{Op, OpId, ThreadId, TxnId};
use crate::scope::{Compensation, ScopeFrame, ScopeKind, ScopeOrigin};
use crate::spec::{OpInverse, SeqSpec, StateSet};
use crate::trace::Event;

/// A trace event stamped with its global sequence number.
pub(crate) type StampedEvent<S> = (u64, Event<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>);

/// What a refresh hands the PULL body: an entry it snapshotted, and the
/// methods the remaining code can reach (computed once per refresh).
type Refreshed<'r, S> = (
    GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
    &'r [<S as SeqSpec>::Method],
);

/// A return value with the `⟦L · op⟧` that proves `L` allows it.
type Allowed<S> = (<S as SeqSpec>::Ret, StateSet<<S as SeqSpec>::State>);

/// A critical section the *caller* already holds (see [`crate::group`]):
/// the shared rule bodies run inside it instead of acquiring their own, so
/// a transaction's PUSHes and its CMT — or a whole one-shard batch of
/// transactions — are one uninterleaved section.
pub(crate) struct Held<'a, S: SeqSpec> {
    /// The held shards: every shard the section's transactions route to.
    pub(crate) view: LogView<'a, S>,
    /// The next unused stamp of the block reserved under the locks.
    pub(crate) stamp: u64,
}

/// What a handle knows of `⟦L⟧` without replaying `L` — the carried local
/// denotation (DESIGN.md §10). Always *valid* for the current `L`; whether
/// the local criteria use it is [`GlobalState::incremental`]'s call.
#[derive(Debug, Clone)]
enum LocalDenot<St> {
    /// Nothing: the next local criterion replays `L` once.
    Unknown,
    /// `allowed L` holds — `L` is a prefix of a log that was allowed, and
    /// `allowed` is prefix-closed — but the states went with the removed
    /// tail.
    Allowed,
    /// `⟦L⟧` itself.
    States(StateSet<St>),
}

impl<St> LocalDenot<St> {
    /// Is `allowed L` known to hold?
    fn allowed(&self) -> bool {
        match self {
            LocalDenot::Unknown => false,
            LocalDenot::Allowed => true,
            LocalDenot::States(states) => !states.is_empty(),
        }
    }

    /// What is still known once the tail entry of `L` is removed: prefix
    /// closure keeps `allowed`, nothing keeps the states.
    fn without_tail(&self) -> Self {
        if self.allowed() {
            LocalDenot::Allowed
        } else {
            LocalDenot::Unknown
        }
    }
}

/// A thread `{c, σ, L}` plus its queue of future transactions, bound to
/// the machine's shared [`GlobalState`].
///
/// A handle is the unit of parallelism: give each OS worker `&mut` access
/// to its own handle and every APP/UNAPP proceeds without any global
/// lock, while the shared rules serialize only on the short
/// [`GlobalState`] critical section.
#[derive(Debug)]
pub struct TxnHandle<S: SeqSpec> {
    global: Arc<GlobalState<S>>,
    tid: ThreadId,
    /// Current transaction instance id.
    txn: TxnId,
    /// Remaining code of the current transaction (`None` once all
    /// transactions have completed — the paper's MS_END).
    code: Option<Code<S::Method>>,
    /// The original `tx c` body, for rewinds and the atomic oracle (`otx`).
    original: Code<S::Method>,
    /// Observation history of the current transaction (the stack σ).
    stack: Vec<(S::Method, S::Ret)>,
    /// The local log `L`.
    local: LocalLog<S::Method, S::Ret>,
    /// `⟦L⟧`, carried beside `L` so that APP (ii), PULL (ii) and UNPULL (i)
    /// at the tail cost one step instead of one replay.
    denot: LocalDenot<S::State>,
    /// Entries of `L` pulled while still `gUCmt`: the only ones CMT (iii)
    /// has left to look up — an operation pulled `gCmt` stays committed
    /// for ever, no rule un-commits.
    unsettled: Vec<OpId>,
    /// The stack of nested scopes in flight over `local` (innermost
    /// last): frame `k` owns the log suffix from its `base_len`.
    frames: Vec<ScopeFrame<S>>,
    /// Compensations registered by committed open-nested children,
    /// pending until their owning scope resolves (chronological order).
    comps: Vec<Compensation<S>>,
    /// Open-nested children committed by the *current* transaction —
    /// when non-zero the committed record's code strips `otx` bodies
    /// (they committed separately and are absent from the parent's own
    /// operations).
    open_children: u64,
    /// Did any of those children come from an *explicit* (non-syntactic)
    /// open scope? Then no `otx` marker exists to strip, and the
    /// committed record's code falls back to the straight-line sequence
    /// of the parent's own operations.
    explicit_open: bool,
    /// Transactions not yet started.
    pending: VecDeque<Code<S::Method>>,
    /// Commits performed by this thread.
    commits: u64,
    /// Aborts performed by this thread.
    aborts: u64,
    /// Sequence-stamped trace events recorded by this thread.
    events: Vec<StampedEvent<S>>,
}

impl<S: SeqSpec> TxnHandle<S> {
    /// Creates a handle running `programs` as a sequence of transactions.
    /// The first transaction begins immediately (recording a `Begin`).
    pub(crate) fn new(
        global: Arc<GlobalState<S>>,
        tid: ThreadId,
        programs: Vec<Code<S::Method>>,
    ) -> Self {
        let mut pending: VecDeque<Code<S::Method>> = programs.into();
        let (code, original) = match pending.pop_front() {
            Some(c) => (Some(c.clone()), c),
            None => (None, Code::Skip),
        };
        let txn = global.fresh_txn();
        let mut h = Self {
            global,
            tid,
            txn,
            code,
            original,
            stack: Vec::new(),
            local: LocalLog::new(),
            denot: LocalDenot::Unknown,
            unsettled: Vec::new(),
            frames: Vec::new(),
            comps: Vec::new(),
            open_children: 0,
            explicit_open: false,
            pending,
            commits: 0,
            aborts: 0,
            events: Vec::new(),
        };
        if h.code.is_some() {
            h.record(Event::Begin { thread: tid, txn });
        }
        h
    }

    /// A deep copy bound to `global` — used by
    /// [`Machine::clone`](crate::machine::Machine), which re-points every
    /// handle at the cloned shared state so clones share nothing.
    pub(crate) fn clone_with(&self, global: Arc<GlobalState<S>>) -> Self {
        Self {
            global,
            tid: self.tid,
            txn: self.txn,
            code: self.code.clone(),
            original: self.original.clone(),
            stack: self.stack.clone(),
            local: self.local.clone(),
            denot: self.denot.clone(),
            unsettled: self.unsettled.clone(),
            frames: self.frames.clone(),
            comps: self.comps.clone(),
            open_children: self.open_children,
            explicit_open: self.explicit_open,
            pending: self.pending.clone(),
            commits: self.commits,
            aborts: self.aborts,
            events: self.events.clone(),
        }
    }

    /// Re-points this handle at a rebuilt shared state — used by
    /// [`Machine::set_log_shards`](crate::machine::Machine::set_log_shards)
    /// after resharding the global log.
    pub(crate) fn rebind(&mut self, global: Arc<GlobalState<S>>) {
        self.global = global;
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The thread this handle drives.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The current transaction instance id (the root transaction of the
    /// scope stack).
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The transaction id new operations are applied under: the
    /// innermost *open* scope's child transaction, or the root
    /// transaction when no open scope is in flight.
    pub fn current_txn(&self) -> TxnId {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.txn)
            .unwrap_or(self.txn)
    }

    /// Nesting depth: how many scopes are currently open (0 = only the
    /// root transaction).
    pub fn scope_depth(&self) -> usize {
        self.frames.len()
    }

    /// Compensations currently registered with still-unresolved scopes
    /// (committed open-nested children whose enclosers have not yet
    /// committed or aborted).
    pub fn pending_compensations(&self) -> usize {
        self.comps.len()
    }

    /// The remaining code, if a transaction is active.
    pub fn code(&self) -> Option<&Code<S::Method>> {
        self.code.as_ref()
    }

    /// The original body of the current transaction (the paper's `otx`).
    pub fn original(&self) -> &Code<S::Method> {
        &self.original
    }

    /// The observation history (stack σ) of the current transaction.
    pub fn stack(&self) -> &[(S::Method, S::Ret)] {
        &self.stack
    }

    /// The local log `L`.
    pub fn local(&self) -> &LocalLog<S::Method, S::Ret> {
        &self.local
    }

    /// Has this thread completed all of its transactions?
    pub fn is_done(&self) -> bool {
        self.code.is_none() && self.pending.is_empty()
    }

    /// Number of committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Number of aborted transaction attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// The shared half this handle is bound to.
    pub fn global_state(&self) -> &Arc<GlobalState<S>> {
        &self.global
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        self.global.spec()
    }

    /// A snapshot of the shared log `G`, merged across the footprint
    /// shards in commit-stamp order (one short critical section over all
    /// shard locks).
    pub fn global_snapshot(&self) -> GlobalLog<S::Method, S::Ret> {
        self.global.global_snapshot()
    }

    /// This handle's buffered `(seq, event)` pairs.
    pub(crate) fn events(&self) -> &[StampedEvent<S>] {
        &self.events
    }

    fn record(&mut self, event: Event<S::Method, S::Ret>) {
        let seq = self.global.next_seq();
        self.events.push((seq, event));
    }

    fn mode(&self) -> CheckMode {
        self.global.mode()
    }

    /// Consults the armed fault hook at the entry of forward rule
    /// `rule`: an injected denial surfaces as an ordinary criterion
    /// failure (the rule has had no effect yet), recorded in the
    /// audit's `injected` tally rather than `violated`.
    fn fault_gate(&self, rule: Rule) -> MachineResult<()> {
        if let Some(clause) = self.global.fault_deny(self.tid, rule) {
            return Err(MachineError::criterion(
                rule,
                clause,
                format!("injected fault: {rule} denied"),
            ));
        }
        Ok(())
    }

    /// Consults the armed fault hook at a tick boundary. A returned
    /// fault is recorded as fired; the caller must act on it (abort the
    /// transaction for [`BoundaryFault::Kill`], park the thread for
    /// [`BoundaryFault::Stall`]).
    pub fn fault_at_boundary(&self) -> Option<BoundaryFault> {
        let fault = self.global.fault_hook()?.at_boundary(self.tid)?;
        self.global.note_injected(match fault {
            BoundaryFault::Kill => FaultKind::Kill,
            BoundaryFault::Stall(_) => FaultKind::Stall,
        });
        Some(fault)
    }

    /// Consults the armed fault hook at a simulated-HTM access. A
    /// returned fault is recorded as fired; the caller must abort the
    /// hardware transaction accordingly.
    pub fn fault_at_htm_access(&self) -> Option<HtmFault> {
        let fault = self.global.fault_hook()?.htm_access(self.tid)?;
        self.global.note_injected(match fault {
            HtmFault::Capacity => FaultKind::HtmCapacity,
            HtmFault::Conflict => FaultKind::HtmConflict,
        });
        Some(fault)
    }

    fn active_code(&self) -> MachineResult<&Code<S::Method>> {
        self.code
            .as_ref()
            .ok_or(MachineError::ThreadFinished(self.tid))
    }

    /// The local-log position of own entry `op_id`, which the calling
    /// rule requires to carry flag `expected` (`npshd`/`pshd`/`pld`).
    fn expect_flag(&self, op_id: OpId, expected: &'static str) -> MachineResult<usize> {
        let pos = self
            .local
            .position(op_id)
            .ok_or(MachineError::NoSuchOp(op_id))?;
        let found = match self.local.entries()[pos].flag {
            LocalFlag::NotPushed { .. } => "npshd",
            LocalFlag::Pushed { .. } => "pshd",
            LocalFlag::Pulled => "pld",
        };
        if found == expected {
            Ok(pos)
        } else {
            Err(MachineError::WrongFlag {
                op: op_id,
                expected,
                found,
            })
        }
    }

    /// Flips the own entry at local-log position `pos` — where
    /// `expect_flag` found it — between `npshd` and `pshd` (the local half
    /// of PUSH/UNPUSH), keeping its saved code and stack length. A `pld`
    /// entry has neither and stays as it is — `expect_flag` keeps those
    /// away from both callers.
    fn set_pushed(&mut self, pos: usize, pushed: bool) {
        let entry = self.local.entry_at_mut(pos);
        if let LocalFlag::NotPushed {
            saved_code,
            stack_len,
        }
        | LocalFlag::Pushed {
            saved_code,
            stack_len,
        } = std::mem::replace(&mut entry.flag, LocalFlag::Pulled)
        {
            entry.flag = if pushed {
                LocalFlag::Pushed {
                    saved_code,
                    stack_len,
                }
            } else {
                LocalFlag::NotPushed {
                    saved_code,
                    stack_len,
                }
            };
        }
    }

    /// Enqueues another transaction body; restarts the thread with a
    /// fresh transaction id if it had finished.
    pub fn enqueue(&mut self, program: Code<S::Method>) {
        if self.code.is_none() && self.pending.is_empty() {
            // Thread was done: restart it with this program.
            self.code = Some(program.clone());
            self.original = program;
            let txn = self.global.fresh_txn();
            self.txn = txn;
            let tid = self.tid;
            self.record(Event::Begin { thread: tid, txn });
        } else {
            self.pending.push_back(program);
        }
    }

    /// `step(c)` for the current code: every next reachable method with
    /// its continuation.
    pub fn step_options(&self) -> MachineResult<StepOptions<S::Method>> {
        Ok(self.active_code()?.step())
    }

    /// `fin(c)` for the current code.
    pub fn can_finish(&self) -> MachineResult<bool> {
        Ok(self.active_code()?.fin())
    }

    /// Return values `r` such that the local log allows `⟨m, r⟩`
    /// (APP criterion (ii) candidates), in the order the states of `⟦L⟧`
    /// first offer them — reproducible, since a [`StateSet`] iterates in
    /// insertion order.
    pub fn allowed_results(&self, method: &S::Method) -> MachineResult<Vec<S::Ret>> {
        let states = self.local_denotation();
        Ok(self.allowed_from(&states, method).map(|(r, _)| r).collect())
    }

    /// Every return value `r` that `method` can observe in some state of
    /// `states` (= `⟦L⟧`) and that the whole set allows, each with the
    /// `⟦L · ⟨method, r⟩⟧` that proves it — evaluated lazily, one candidate
    /// per `next()`.
    fn allowed_from<'s>(
        &'s self,
        states: &'s StateSet<S::State>,
        method: &'s S::Method,
    ) -> impl Iterator<Item = Allowed<S>> + 's {
        let spec = self.global.spec();
        // The first state's own `Vec` of results is the candidate list.
        let mut offered = states.iter().map(|s| spec.results(s, method));
        let mut candidates = offered.next().unwrap_or_default();
        dedup_in_place(&mut candidates);
        for r in offered.flatten() {
            if !candidates.contains(&r) {
                candidates.push(r);
            }
        }
        candidates.into_iter().filter_map(move |ret| {
            // The id never reaches the spec: denotations read method and
            // return only.
            let op = Op::new(OpId(u64::MAX), self.txn, method.clone(), ret);
            let next = spec.denote_from(states, std::slice::from_ref(&op));
            (!next.is_empty()).then_some((op.ret, next))
        })
    }

    /// The first return value `L` allows `method` to observe — what
    /// [`Self::app_method`] and [`Self::app_auto`] apply — with the
    /// `⟦L · ⟨method, r⟩⟧` that proved it allowed.
    fn first_allowed(&mut self, method: &S::Method) -> MachineResult<Allowed<S>> {
        self.carry();
        let states = self.local_denotation();
        let first = self.allowed_from(&states, method).next();
        first.ok_or(MachineError::NoAllowedResult(self.tid))
    }

    // ------------------------------------------------------------------
    // The carried local denotation: `⟦L⟧` kept beside `L`, so the local
    // criteria step it by one operation instead of replaying `L`. Every
    // change to `L` goes through `append_local` or leaves `denot` what
    // `without_tail` allows; `set_incremental(false)` ignores it and is
    // the full-replay reference.
    // ------------------------------------------------------------------

    /// The operations of `L`, in log order.
    fn local_ops(&self) -> impl Iterator<Item = &Op<S::Method, S::Ret>> {
        self.local.iter().map(|e| &e.op)
    }

    /// The carried `⟦L⟧`, if there is one and the incremental path is on.
    fn carried(&self) -> Option<&StateSet<S::State>> {
        match &self.denot {
            LocalDenot::States(states) if self.global.incremental() => Some(states),
            _ => None,
        }
    }

    /// `⟦L⟧`: the carried set, or else one replay of `L`.
    fn local_denotation(&self) -> Cow<'_, StateSet<S::State>> {
        match self.carried() {
            Some(states) => Cow::Borrowed(states),
            None => Cow::Owned(self.global.spec().denote_refs(self.local_ops())),
        }
    }

    /// With the incremental path on, makes sure `⟦L⟧` is carried: one
    /// replay of `L` if a removal (or a reset — `⟦ε⟧` is the initial
    /// states) dropped it.
    fn carry(&mut self) {
        let spec = self.global.spec();
        if self.global.incremental() && !matches!(self.denot, LocalDenot::States(_)) {
            self.denot = LocalDenot::States(spec.denote_refs(self.local_ops()));
        }
        debug_assert!(
            match &self.denot {
                LocalDenot::Unknown => true,
                LocalDenot::Allowed => spec.allowed(&self.local.ops()),
                LocalDenot::States(states) => *states == spec.denote(&self.local.ops()),
            },
            "the carried denotation is stale: {:?}",
            self.denot
        );
    }

    /// `L allows op` — the one audited query behind APP (ii) and PULL
    /// (ii): `⟦L · op⟧` if it is non-empty. `proved` is that set when the
    /// caller's choice of `op` already evaluated it over the carried `⟦L⟧`
    /// ([`Self::first_allowed`]); otherwise the carried `⟦L⟧` is stepped by
    /// `op` here, or `L · op` replayed in full with the incremental path
    /// off. The query is tallied the same either way.
    fn local_allows(
        &mut self,
        op: &Op<S::Method, S::Ret>,
        proved: Option<StateSet<S::State>>,
    ) -> Option<StateSet<S::State>> {
        self.global.audit.count_allowed();
        self.carry();
        let spec = self.global.spec();
        let step = |states| spec.denote_from(states, std::slice::from_ref(op));
        let next = match (proved, self.carried()) {
            (Some(next), carried) => {
                debug_assert!(carried.is_some_and(|states| next == step(states)));
                next
            }
            (None, Some(states)) => step(states),
            (None, None) => spec.denote_refs(self.local_ops().chain(std::iter::once(op))),
        };
        (!next.is_empty()).then_some(next)
    }

    /// Appends `entry` to `L`; `next` is `⟦L · entry⟧` if the rule
    /// evaluated it.
    fn append_local(
        &mut self,
        entry: LocalEntry<S::Method, S::Ret>,
        next: Option<StateSet<S::State>>,
    ) {
        self.local.push_entry(entry);
        self.denot = next.map_or(LocalDenot::Unknown, LocalDenot::States);
    }

    // ------------------------------------------------------------------
    // Nested transaction scopes (§6.2 checkpoints + open nesting).
    //
    // A scope is a frame over a *suffix* of the flat local log: entries
    // at index ≥ `base_len` belong to it. Closed scopes merge into the
    // parent on commit and rewind only their suffix on abort; open
    // scopes commit straight to `G` as their own transaction and leave
    // a compensating inverse program with the parent.
    // ------------------------------------------------------------------

    /// Opens a nested scope of the given kind over the current
    /// transaction. Returns the scope's base position in the local log.
    ///
    /// # Errors
    ///
    /// [`MachineError::ThreadFinished`] when no transaction is active.
    pub fn begin_nested(&mut self, kind: ScopeKind) -> MachineResult<usize> {
        self.enter_scope(kind, ScopeOrigin::Explicit)
    }

    /// Opens an explicit *checkpoint*: a closed marker scope at the
    /// current local-log position, for later
    /// [`Self::abort_to_checkpoint`]. Returns the checkpoint position.
    pub fn begin_checkpoint(&mut self) -> MachineResult<usize> {
        self.enter_scope(ScopeKind::Closed, ScopeOrigin::Explicit)
    }

    /// Makes the scope structure catch up with the program syntax:
    /// exits finished peeled scopes and enters peelable `tx`/`otx`
    /// redexes until the code settles. The settling executors
    /// ([`Self::app_method`], [`Self::app_auto`], [`Self::commit`]) do
    /// this implicitly; drivers that pick raw steps themselves via
    /// [`Self::step_options`] + [`Self::app`] call it once per tick to
    /// get the same scope-aware behavior (it is a no-op on code with no
    /// scope redex, and entering/exiting an empty closed scope emits no
    /// events, so flat traces are unchanged).
    pub fn settle(&mut self) -> MachineResult<()> {
        self.settle_scopes()
    }

    fn enter_scope(
        &mut self,
        kind: ScopeKind,
        origin: ScopeOrigin<S::Method>,
    ) -> MachineResult<usize> {
        self.active_code()?;
        // Strict certificate mode gates open nesting at *entry*: a
        // parent abort must be able to trust the registered
        // compensations, so the inverse law has to be machine-proven
        // before any open child runs (per-op verdicts at the open
        // commit remain in force either way).
        if kind == ScopeKind::Open && !self.global.open_nesting_allowed() {
            return Err(MachineError::OpenNestingUncertified(self.tid));
        }
        let base = self.local.len();
        let txn = match kind {
            ScopeKind::Open => {
                let child = self.global.fresh_txn();
                let tid = self.tid;
                self.record(Event::Begin {
                    thread: tid,
                    txn: child,
                });
                Some(child)
            }
            ScopeKind::Closed => None,
        };
        self.frames.push(ScopeFrame {
            kind,
            origin,
            base_len: base,
            stack_len: self.stack.len(),
            txn,
        });
        self.global.nesting_counters().note_opened();
        Ok(base)
    }

    /// Commits the innermost open scope: a closed scope *merges* its
    /// suffix into the parent (no shared-state effect at all); an open
    /// scope commits its suffix to `G` as an independent transaction and
    /// registers a compensating inverse program with the parent.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] with no scope open;
    /// [`MachineError::NotInvertible`] when an open scope's operation
    /// has no spec-defined inverse; criterion violations from the open
    /// commit's PUSH/CMT obligations.
    pub fn commit_nested(&mut self) -> MachineResult<()> {
        let Some(top) = self.frames.last() else {
            return Err(MachineError::NoScope(self.tid));
        };
        match top.kind {
            ScopeKind::Closed => self.merge_closed_top(),
            ScopeKind::Open => {
                self.fault_gate(Rule::Cmt)?;
                self.commit_open_frame()
            }
        }
    }

    /// Aborts the innermost scope: rewinds exactly its suffix of the
    /// local log (UNPULL / UNPUSH + UNAPP / UNAPP from the tail) and
    /// discards the frame — the parent transaction continues untouched.
    /// Compensations registered by the aborted scope's own committed
    /// open children are replayed (most recent first).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] with no scope open; criterion
    /// violations from the constituent back rules or compensations.
    pub fn abort_nested(&mut self) -> MachineResult<()> {
        let Some(top) = self.frames.last() else {
            return Err(MachineError::NoScope(self.tid));
        };
        let base = top.base_len;
        self.rewind_suffix(base, None)?;
        let frame = self.frames.pop().expect("checked above");
        self.drop_aborted_frame(frame);
        self.replay_compensations_above(self.frames.len())
    }

    /// Aborts every scope entered at or after local-log position
    /// `target_len` and rewinds the log to that length — the
    /// checkpoint/partial-abort mechanism of §6.2, now a plain scope
    /// abort (`CheckpointOptimistic` drives it).
    ///
    /// # Errors
    ///
    /// [`MachineError::NoScope`] when no checkpoint was taken at
    /// `target_len`; criterion violations from the back rules.
    pub fn abort_to_checkpoint(&mut self, target_len: usize) -> MachineResult<()> {
        if !self.frames.iter().any(|f| f.base_len == target_len) {
            return Err(MachineError::NoScope(self.tid));
        }
        self.rewind_suffix(target_len, None)?;
        self.pop_rewound_frames(target_len)
    }

    /// Exits finished peeled scopes and enters peelable `tx`/`otx`
    /// redexes until the code settles — the scope-aware step the
    /// settling executors ([`Self::app_method`], [`Self::app_auto`],
    /// [`Self::commit`]) run before acting. Raw [`Self::app`] skips
    /// this, keeping the legacy flattened semantics for drivers that
    /// pick steps themselves.
    fn settle_scopes(&mut self) -> MachineResult<()> {
        loop {
            // Exit: the innermost frame was peeled from syntax and its
            // body has fully finished (no steps remain, fin holds).
            if let Some(top) = self.frames.last() {
                if matches!(top.origin, ScopeOrigin::Peeled { .. }) {
                    let code = self.active_code()?;
                    if code.fin() && code.step().is_empty() {
                        self.commit_nested()?;
                        continue;
                    }
                }
            }
            // Enter: the leftmost redex is a tx/otx scope.
            if let Some((kind, body, cont)) = self.active_code()?.peel_scope() {
                self.enter_scope(
                    kind,
                    ScopeOrigin::Peeled {
                        body: body.clone(),
                        cont,
                    },
                )?;
                self.code = Some(body);
                continue;
            }
            return Ok(());
        }
    }

    /// Exits every remaining scope on the way into a top-level commit:
    /// closed frames merge (a peeled body must satisfy `fin`), open
    /// frames commit to `G` as their own transactions.
    fn exit_scopes_for_commit(&mut self) -> MachineResult<()> {
        while let Some(top) = self.frames.last() {
            match top.kind {
                ScopeKind::Closed => self.merge_closed_top()?,
                ScopeKind::Open => self.commit_open_frame()?,
            }
        }
        Ok(())
    }

    /// Pops the innermost (closed) frame, merging its suffix into the
    /// parent — after CMT criterion (i) at the scope level: a peeled
    /// body must satisfy `fin`. Entries stay exactly where they are in
    /// the flat log, the continuation code is restored for peeled
    /// scopes, and compensations owned by the merged scope transfer to
    /// its parent.
    fn merge_closed_top(&mut self) -> MachineResult<()> {
        let top = self.frames.last().expect("caller checked a frame exists");
        if self.mode() != CheckMode::Unchecked
            && matches!(top.origin, ScopeOrigin::Peeled { .. })
            && !self.active_code()?.fin()
        {
            self.global.audit.fail(Rule::Cmt, Clause::I);
            return Err(MachineError::criterion(
                Rule::Cmt,
                Clause::I,
                "no method-free path to skip remains in the nested scope".to_string(),
            ));
        }
        let frame = self.frames.pop().expect("checked above");
        if let ScopeOrigin::Peeled { cont, .. } = frame.origin {
            self.code = Some(cont);
        }
        let depth = self.frames.len();
        for c in &mut self.comps {
            if c.depth > depth {
                c.depth = depth;
            }
        }
        self.global.nesting_counters().note_merged();
        Ok(())
    }

    /// Commits the innermost (open) frame's suffix to `G` as an
    /// independent transaction under the child's own id: derive the
    /// compensating inverses (failing cleanly on a non-invertible
    /// operation), PUSH the unpushed suffix in order, run the CMT
    /// criteria over the suffix, flip it committed, record the child's
    /// [`CommittedTxn`] (kind [`TxnKind::OpenChild`]), re-flag the
    /// suffix as *pulled* in the parent's log (the parent now depends
    /// on its committed child), and register the compensation with the
    /// parent.
    fn commit_open_frame(&mut self) -> MachineResult<()> {
        let (base, child, peeled) = match self.frames.last() {
            Some(f) if f.kind == ScopeKind::Open => (
                f.base_len,
                f.txn.expect("open frames carry a child txn"),
                matches!(f.origin, ScopeOrigin::Peeled { .. }),
            ),
            _ => return Err(MachineError::NoScope(self.tid)),
        };
        let checked = self.mode() != CheckMode::Unchecked;
        let tid = self.tid;
        if checked {
            // CMT criterion (i) at the child level: a peeled body must
            // reach skip. (An explicit scope has no residual code of its
            // own — its program is exactly the suffix performed.)
            if peeled && !self.active_code()?.fin() {
                self.global.audit.fail(Rule::Cmt, Clause::I);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::I,
                    "no method-free path to skip remains in the open scope".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::I);
        }
        // Derive the compensating inverse program *before* committing
        // anything: a non-invertible operation must fail the open
        // commit while the scope can still abort cleanly.
        let inverses = self.inverse_program(&self.local.entries()[base..])?;
        // The child's optimistic commit sequence: PUSH the unpushed
        // suffix in local order, with the full criteria and audit.
        let unpushed: Vec<OpId> = self.local.entries()[base..]
            .iter()
            .filter(|e| e.flag.is_not_pushed())
            .map(|e| e.op.id)
            .collect();
        for id in unpushed {
            self.push(id)?;
        }
        if checked {
            // Criterion (ii): the suffix is now fully pushed (or pulled).
            self.global.audit.pass(Rule::Cmt, Clause::Ii);
        }
        let own_ops: Vec<Op<S::Method, S::Ret>> = self.local.entries()[base..]
            .iter()
            .filter(|e| !e.flag.is_pulled())
            .map(|e| e.op.clone())
            .collect();
        let pulled_from: Vec<(OpId, TxnId)> = self.local.entries()[base..]
            .iter()
            .filter(|e| e.flag.is_pulled())
            .map(|e| (e.op.id, e.op.txn))
            .collect();
        let parent = self.frames[..self.frames.len() - 1]
            .iter()
            .rev()
            .find_map(|f| f.txn)
            .unwrap_or(self.txn);
        let level = self.frames.len();
        let child_code = match &self.frames.last().expect("checked above").origin {
            ScopeOrigin::Peeled { body, .. } => body.strip_open(),
            ScopeOrigin::Explicit => methods_as_seq(own_ops.iter().map(|o| &o.method)),
        };
        let record = CommittedTxn {
            txn: child,
            thread: tid,
            code: child_code,
            ops: own_ops.clone(),
            pulled_from,
            kind: TxnKind::OpenChild { parent, level },
        };
        let flipped = self.cmt_section(base, record, None)?;
        self.record(Event::Commit {
            thread: tid,
            txn: child,
            ops: flipped,
        });
        self.commits += 1;
        // The parent now depends on the committed child exactly as on
        // any committed pull: its copies of the suffix flip to pld.
        for op in &own_ops {
            let entry = self.local.entry_mut(op.id).expect("own suffix entry");
            entry.flag = LocalFlag::Pulled;
        }
        let frame = self.frames.pop().expect("checked above");
        if let ScopeOrigin::Peeled { cont, .. } = frame.origin {
            self.code = Some(cont);
        }
        let depth = self.frames.len();
        for c in &mut self.comps {
            if c.depth > depth {
                c.depth = depth;
            }
        }
        self.global
            .nesting_counters()
            .note_undo_inverses(inverses.len() as u64);
        self.comps.push(Compensation {
            undoes: child,
            depth,
            ops: inverses,
        });
        self.open_children += 1;
        if !peeled {
            self.explicit_open = true;
        }
        self.global.nesting_counters().note_open_commit();
        Ok(())
    }

    /// Rewinds the local log down to `target_len`, tearing down frames
    /// entered strictly above the target as the walk passes their base
    /// (the unapp scope floor would otherwise block it). Frames based
    /// *at* `target_len` are left for the caller to resolve. Each UNPUSH
    /// of the walk runs inside `held` when the caller holds the section.
    fn rewind_suffix(
        &mut self,
        target_len: usize,
        mut held: Option<&mut Held<'_, S>>,
    ) -> MachineResult<()> {
        loop {
            if self.local.len() <= target_len {
                return Ok(());
            }
            if let Some(top) = self.frames.last() {
                if top.base_len > target_len && self.local.len() <= top.base_len {
                    let frame = self.frames.pop().expect("checked above");
                    self.drop_aborted_frame(frame);
                    continue;
                }
            }
            let Some(last) = self.local.entries().last() else {
                return Ok(());
            };
            let id = last.op.id;
            match last.flag {
                LocalFlag::Pulled => self.unpull(id)?,
                LocalFlag::Pushed { .. } => {
                    self.unpush_in(id, held.as_deref_mut())?;
                    self.unapp()?;
                }
                LocalFlag::NotPushed { .. } => {
                    self.unapp()?;
                }
            }
        }
    }

    /// Drops one frame on an abort path: records the `Abort` of an
    /// in-flight open child, reconstructs the unentered `tx`/`otx` redex
    /// for peeled scopes (so a retry re-runs the scope), and tallies the
    /// abort.
    fn drop_aborted_frame(&mut self, frame: ScopeFrame<S>) {
        if let Some(child) = frame.txn {
            let tid = self.tid;
            self.record(Event::Abort {
                thread: tid,
                txn: child,
            });
        }
        self.stack.truncate(frame.stack_len);
        if let ScopeOrigin::Peeled { body, cont } = frame.origin {
            let scoped = match frame.kind {
                ScopeKind::Closed => Code::tx(body),
                ScopeKind::Open => Code::otx(body),
            };
            self.code = Some(match cont {
                Code::Skip => scoped,
                c => Code::seq(scoped, c),
            });
        }
        self.global.nesting_counters().note_aborted();
    }

    /// Pops every remaining frame whose base position was rewound away
    /// (at or above `target_len`), then replays the compensations no
    /// longer owned by a live scope.
    fn pop_rewound_frames(&mut self, target_len: usize) -> MachineResult<()> {
        while let Some(top) = self.frames.last() {
            if top.base_len < target_len {
                break;
            }
            let frame = self.frames.pop().expect("checked above");
            self.drop_aborted_frame(frame);
        }
        self.replay_compensations_above(self.frames.len())
    }

    /// Replays (and removes) every compensation owned by a scope deeper
    /// than `depth`, most recently registered first.
    fn replay_compensations_above(&mut self, depth: usize) -> MachineResult<()> {
        let mut replay: Vec<Compensation<S>> = Vec::new();
        let mut i = 0;
        while i < self.comps.len() {
            if self.comps[i].depth > depth {
                replay.push(self.comps.remove(i));
            } else {
                i += 1;
            }
        }
        for comp in replay.into_iter().rev() {
            self.run_compensation(comp)?;
        }
        Ok(())
    }

    /// Replays (and removes) every registered compensation, most
    /// recently registered first — the root-transaction abort path.
    fn replay_all_compensations(&mut self) -> MachineResult<()> {
        let comps = std::mem::take(&mut self.comps);
        for comp in comps.into_iter().rev() {
            self.run_compensation(comp)?;
        }
        Ok(())
    }

    /// Runs one compensating transaction: the registered inverse
    /// program executes as a fresh top-level transaction (its own id,
    /// `Begin`/`Commit` events, a [`TxnKind::Compensation`] committed
    /// record), appended and committed against `G` in one coarse
    /// critical section so the abstract-state restoration is atomic.
    /// The PUSH criteria are checked per inverse operation exactly as a
    /// live push would.
    fn run_compensation(&mut self, comp: Compensation<S>) -> MachineResult<()> {
        let txn = self.global.fresh_txn();
        let tid = self.tid;
        self.record(Event::Begin { thread: tid, txn });
        let checked = self.mode() != CheckMode::Unchecked;
        let code = methods_as_seq(comp.ops.iter().map(|(m, _)| m));
        let mut ops: Vec<Op<S::Method, S::Ret>> = Vec::new();
        let flipped = {
            // Every shard either way; through the coarse route — which
            // sets the sticky flag before locking — when an inverse has no
            // single-key footprint, so no later shard-local section can
            // miss the entry it leaves on shard 0.
            let mut routes = comp.ops.iter().map(|(m, _)| self.global.route(m));
            let mut view = match routes.find(|r| *r == Route::Coarse) {
                Some(coarse) => self.global.acquire_route(coarse),
                None => self.global.acquire_all(),
            };
            let mut tmp = Vec::new();
            for (method, ret) in &comp.ops {
                let id = self.global.ids.fresh();
                let op = Op::new(id, txn, method.clone(), ret.clone());
                if checked {
                    criteria::push(&*self.global, &view, txn, &op).settle(&self.global.audit)?;
                }
                let target = self.global.route(method).target();
                let stamp = self.global.reserve_stamps(1);
                // A compensation append installs no end-of-log set: it
                // drops its class's (`global.rs`, invalidation rules).
                self.global
                    .append_push(&mut view, target, stamp, op.clone(), None);
                tmp.push(LocalEntry {
                    op: op.clone(),
                    flag: LocalFlag::Pushed {
                        saved_code: Code::Skip,
                        stack_len: 0,
                    },
                });
                ops.push(op);
            }
            let record = CommittedTxn {
                txn,
                thread: tid,
                code,
                ops,
                pulled_from: Vec::new(),
                kind: TxnKind::Compensation {
                    undoes: comp.undoes,
                },
            };
            self.global.seal_commit(&mut view, &tmp, record)
        };
        self.record(Event::Commit {
            thread: tid,
            txn,
            ops: flipped,
        });
        self.commits += 1;
        self.global.nesting_counters().note_compensation();
        Ok(())
    }

    /// The code stored in the committed record: when open-nested
    /// children committed separately, their `otx` bodies are stripped
    /// (the parent's own operations no longer include them); a child
    /// carved out by an *explicit* scope has no syntactic marker, so the
    /// record falls back to the straight-line program of the parent's
    /// own operations. Otherwise the original body verbatim.
    fn committed_code(&self) -> Code<S::Method> {
        if self.open_children == 0 {
            self.original.clone()
        } else if self.explicit_open {
            let own = self.local.own_ops();
            methods_as_seq(own.iter().map(|o| &o.method))
        } else {
            self.original.strip_open()
        }
    }

    // ------------------------------------------------------------------
    // Structural reductions (Figure 6) — thread-local.
    // ------------------------------------------------------------------

    /// The structural steps (Figure 6) applicable to the current code at
    /// its leftmost redex.
    pub fn struct_options(&self) -> MachineResult<Vec<crate::structural::StructStep>> {
        Ok(crate::structural::applicable(self.active_code()?))
    }

    /// Applies one structural reduction (NONDETL/NONDETR/LOOP/SEMISKIP,
    /// with the SEMI congruence locating the redex) to the code.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] when the step does not apply.
    pub fn struct_step(&mut self, step: crate::structural::StructStep) -> MachineResult<()> {
        let code = self.active_code()?;
        match crate::structural::apply(code, step) {
            Some(next) => {
                self.code = Some(next);
                Ok(())
            }
            None => Err(MachineError::NoSuchStep(self.tid)),
        }
    }

    // ------------------------------------------------------------------
    // The seven rules of Figure 5.
    // ------------------------------------------------------------------

    /// **APP**: applies `method` with continuation `cont` and return
    /// `ret`. Entirely thread-local — acquires no global lock.
    ///
    /// Criteria: (i) `(method, cont) ∈ step(c)`; (ii) the local log allows
    /// `⟨m, σ, σ′, id⟩`; (iii) `id` fresh (by construction).
    ///
    /// The pair comes from outside, so (i) derives `step(c)` to look it
    /// up; [`Self::app_method`] and [`Self::app_auto`] take theirs *from*
    /// `step(c)` and skip the second derivation.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchStep`] if (i) fails,
    /// [`MachineError::Criterion`] if (ii) fails.
    pub fn app(
        &mut self,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
    ) -> MachineResult<OpId> {
        self.fault_gate(Rule::App)?;
        // Criterion (i): (m, c') ∈ step(c).
        let code = self.active_code()?;
        if self.mode() != CheckMode::Unchecked && !in_step(code, &method, &cont) {
            return Err(MachineError::NoSuchStep(self.tid));
        }
        self.app_step(method, cont, ret, None)
    }

    /// The one APP body, past the fault gate and criterion (i): `(method,
    /// cont)` is in `step(c)` — looked up by [`Self::app`], or taken from
    /// it by [`Self::app_chosen`]. `proved` is `⟦L · ⟨method, ret⟩⟧` when
    /// choosing `ret` already evaluated it ([`Self::first_allowed`]);
    /// criterion (ii) is tallied and audited the same with or without.
    fn app_step(
        &mut self,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
        proved: Option<StateSet<S::State>>,
    ) -> MachineResult<OpId> {
        let checked = self.mode() != CheckMode::Unchecked;
        debug_assert!(!checked || in_step(self.active_code()?, &method, &cont));
        let id = self.global.ids.fresh();
        // Operations applied inside an open scope belong to the child
        // transaction; everywhere else `current_txn()` is the root.
        let op = Op::new(id, self.current_txn(), method.clone(), ret.clone());
        // Criterion (ii): L allows op.
        let mut next = None;
        if checked {
            next = self.local_allows(&op, proved);
            if next.is_none() {
                self.global.audit.fail(Rule::App, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::App,
                    Clause::Ii,
                    format!("local log does not allow {:?} -> {:?}", method, ret),
                ));
            }
            self.global.audit.pass(Rule::App, Clause::Ii);
        }
        let code = self
            .code
            .as_mut()
            .ok_or(MachineError::ThreadFinished(self.tid))?;
        let saved_code = std::mem::replace(code, cont);
        let stack_len = self.stack.len();
        self.stack.push((method.clone(), ret.clone()));
        let flag = LocalFlag::NotPushed {
            saved_code,
            stack_len,
        };
        self.append_local(LocalEntry { op, flag }, next);
        let tid = self.tid;
        self.record(Event::App {
            thread: tid,
            op: id,
            method,
            ret,
        });
        Ok(id)
    }

    /// **APP** of the first `step(c)` option `pick` accepts, with the
    /// first return value `L` allows — the body of [`Self::app_method`]
    /// and [`Self::app_auto`]. Criterion (i) holds by construction (the
    /// pair is an element of the `step(c)` derived here, once), and the
    /// set that proved the return allowed is handed to criterion (ii).
    fn app_chosen(&mut self, pick: impl Fn(&S::Method) -> bool) -> MachineResult<OpId> {
        self.settle_scopes()?;
        let options = self.step_options()?;
        let (m, cont) = options
            .into_iter()
            .find(|(m, _)| pick(m))
            .ok_or(MachineError::NoSuchStep(self.tid))?;
        let (ret, next) = self.first_allowed(&m)?;
        // The full-replay reference evaluates its criterion itself.
        let proved = self.global.incremental().then_some(next);
        self.fault_gate(Rule::App)?;
        self.app_step(m, cont, ret, proved)
    }

    /// **APP**, selecting the first `step(c)` option whose method equals
    /// `method` and the first allowed return value. Scope-aware: `tx`
    /// and `otx` redexes are entered as nested scopes first (and
    /// finished peeled scopes are exited).
    pub fn app_method(&mut self, method: &S::Method) -> MachineResult<OpId> {
        self.app_chosen(|m| m == method)
    }

    /// **APP**, selecting the first `step(c)` option and the first
    /// allowed return value. Scope-aware, like [`Self::app_method`].
    pub fn app_auto(&mut self) -> MachineResult<OpId> {
        self.app_chosen(|_| true)
    }

    /// **UNAPP**: rewinds the most recent local entry, which must be
    /// `npshd`; restores the saved code and stack. Entirely thread-local.
    ///
    /// # Errors
    ///
    /// [`MachineError::NothingToUnapply`] if the local log is empty or
    /// its last entry is not `npshd`.
    pub fn unapp(&mut self) -> MachineResult<OpId> {
        // A scope boundary is a floor: rewinding an entry *below* the
        // innermost frame's base would desynchronise the frame stack.
        if let Some(top) = self.frames.last() {
            if self.local.len() <= top.base_len {
                return Err(MachineError::NothingToUnapply(self.tid));
            }
        }
        let entry = match self.local.entries().last() {
            Some(e) if e.flag.is_not_pushed() => self.local.pop_entry().expect("non-empty"),
            _ => return Err(MachineError::NothingToUnapply(self.tid)),
        };
        self.denot = self.denot.without_tail();
        let LocalFlag::NotPushed {
            saved_code,
            stack_len,
        } = entry.flag
        else {
            unreachable!("checked above")
        };
        self.code = Some(saved_code);
        // The stack only grew since this entry's APP, whose observation
        // sits right at the saved length: cutting there restores exactly
        // the stack a saved copy would have held.
        debug_assert!(
            self.stack
                .get(stack_len)
                .is_some_and(|(m, r)| (m, r) == (&entry.op.method, &entry.op.ret)),
            "the observation stack was rewritten below an entry still in L"
        );
        self.stack.truncate(stack_len);
        let tid = self.tid;
        self.record(Event::UnApp {
            thread: tid,
            op: entry.op.id,
            method: entry.op.method,
        });
        Ok(entry.op.id)
    }

    /// **PUSH**: publishes a local `npshd` operation to the shared log.
    /// Criterion (i) is local; criteria (ii)/(iii) and the append to `G`
    /// run inside one [`GlobalState`] critical section.
    ///
    /// Criteria: (i) `op` moves across every *earlier* unpushed own
    /// operation (`op ◁ op′`, Def 4.1 — trivial when pushing in APP
    /// order); (ii) every uncommitted operation of *other* transactions
    /// in `G` moves right of `op` (`op_u ◁ op` fails ⇒ conflict),
    /// ensuring the pusher can still serialize before all concurrent
    /// uncommitted transactions; (iii) `G` allows `op`.
    ///
    /// # Errors
    ///
    /// [`MachineError::Criterion`] with the failing clause; `WrongFlag` /
    /// `NoSuchOp` on structural misuse.
    pub fn push(&mut self, op_id: OpId) -> MachineResult<()> {
        self.push_in(op_id, None)
    }

    /// The one PUSH body: [`Self::push`] when `held` is `None`; with a
    /// caller-held section the critical section is the caller's and the
    /// stamp comes from its reserved contiguous block.
    pub(crate) fn push_in(
        &mut self,
        op_id: OpId,
        held: Option<&mut Held<'_, S>>,
    ) -> MachineResult<()> {
        self.fault_gate(Rule::Push)?;
        let checked = self.mode() != CheckMode::Unchecked;
        let pos = self.expect_flag(op_id, "npshd")?;
        let op = self.local.entries()[pos].op.clone();
        if checked {
            // Criterion (i): op ◁ op' for every earlier npshd own op'.
            // Local-log only — evaluated outside the critical section.
            for e in &self.local.entries()[..pos] {
                if e.flag.is_not_pushed() && !self.global.mover_q(&op, &e.op) {
                    self.global.audit.fail(Rule::Push, Clause::I);
                    return Err(MachineError::criterion(
                        Rule::Push,
                        Clause::I,
                        format!(
                            "{} does not move across earlier unpushed {}",
                            op.id, e.op.id
                        ),
                    ));
                }
            }
            self.global.audit.pass(Rule::Push, Clause::I);
        }
        let route = self.global.route(&op.method);
        let method = op.method.clone();
        let global = &*self.global;
        // Criteria (ii)/(iii) and the append to `G`, one critical section;
        // the set that proved (iii) is installed with the entry.
        self.shared_section(route, held, |view, target, stamp| {
            let proved = if checked {
                criteria::push(global, view, op.txn, &op).settle(&global.audit)?
            } else {
                None
            };
            let stamp = match stamp {
                Some(cursor) => {
                    *cursor += 1;
                    *cursor - 1
                }
                None => global.reserve_stamps(1),
            };
            global.append_push(view, target, stamp, op, proved);
            Ok(())
        })?;
        // Effect on the local half (private to this thread): flip flag.
        self.set_pushed(pos, true);
        let tid = self.tid;
        self.record(Event::Push {
            thread: tid,
            op: op_id,
            method,
        });
        Ok(())
    }

    /// Runs `body` — the criteria over `G` and the effect of one PUSH or
    /// UNPUSH — as the paper's one atomic step: inside the caller-held
    /// section (its view *focused on the route's shard*, so the kernel
    /// reads exactly what it would under its own lock, and the cursor into
    /// its reserved stamp block), or else under the route's own lock — one
    /// footprint shard on the routed fast path, every shard (ascending)
    /// when coarse. `body` also receives the shard to append to.
    fn shared_section(
        &self,
        route: Route,
        held: Option<&mut Held<'_, S>>,
        body: impl FnOnce(&mut LogView<'_, S>, usize, Option<&mut u64>) -> MachineResult<()>,
    ) -> MachineResult<()> {
        let target = route.target();
        match held {
            Some(h) => {
                debug_assert!(route != Route::Coarse, "held_shards excludes coarse routes");
                let stamp = &mut h.stamp;
                h.view
                    .focused(target, |view| body(view, target, Some(stamp)))
            }
            None => body(&mut self.global.acquire_route(route), target, None),
        }
    }

    /// **UNPUSH**: recalls a pushed operation from the shared log
    /// (implemented by real systems as an inverse operation). Criteria
    /// over `G` and the removal run in one critical section.
    ///
    /// Criteria: (i, gray) `op` moves across everything after it in `G`
    /// (so the suffix does not depend on it); (ii) the remaining global
    /// log is still allowed.
    pub fn unpush(&mut self, op_id: OpId) -> MachineResult<()> {
        self.unpush_in(op_id, None)
    }

    /// The one UNPUSH body, optionally inside a caller-held section
    /// (see [`Self::push_in`]).
    fn unpush_in(&mut self, op_id: OpId, held: Option<&mut Held<'_, S>>) -> MachineResult<()> {
        let mode = self.mode();
        let pos = self.expect_flag(op_id, "pshd")?;
        // Route by the method recorded in the local (pshd) entry — the
        // global entry lives on that method's footprint shard, and is a
        // verbatim copy of this one (PUSH published it from here).
        let method = self.local.entries()[pos].op.method.clone();
        let global = &*self.global;
        self.shared_section(global.route(&method), held, |view, _, _| {
            let at = view.find(op_id).ok_or(MachineError::NoSuchOp(op_id))?;
            if mode != CheckMode::Unchecked {
                // The gray criterion (i) is checked in `Checked` mode only.
                criteria::unpush(global, view, at, mode == CheckMode::Checked)
                    .settle(&global.audit)?;
            }
            view.remove(at);
            Ok(())
        })?;
        self.set_pushed(pos, false);
        let tid = self.tid;
        self.record(Event::UnPush {
            thread: tid,
            op: op_id,
            method,
        });
        Ok(())
    }

    /// **PULL**: imports another transaction's published operation into
    /// the local view. Shard locks are held only to locate and snapshot
    /// the pulled entry — probing the shards in ascending order, one lock
    /// at a time, until it is found; criteria and effect are local.
    ///
    /// Criteria: (i) not already pulled (`op ∉ L`); (ii) the local log
    /// allows `op`; (iii, gray) everything the transaction has done
    /// locally moves right of `op` (so the pull can be seen as having
    /// preceded the transaction).
    pub fn pull(&mut self, op_id: OpId) -> MachineResult<()> {
        self.pull_in(op_id, None)
    }

    /// The one PULL body: [`Self::pull`] when `refreshed` is `None`. The
    /// refresh ([`Self::refresh`]) passes the entry it snapshotted with
    /// every other candidate — so nothing is searched for, and criterion
    /// (i) is known to hold: the snapshot left out what `L` has — and the
    /// methods the remaining code can reach, which one refresh computes
    /// once.
    fn pull_in(&mut self, op_id: OpId, refreshed: Option<Refreshed<'_, S>>) -> MachineResult<()> {
        self.fault_gate(Rule::Pull)?;
        let checked = self.mode() != CheckMode::Unchecked;
        let check_gray = self.mode() == CheckMode::Checked;
        let (gentry, reachable) = match refreshed {
            Some((entry, reachable)) => (entry, Some(reachable)),
            None => {
                let found = self.global.find_entry(op_id);
                (found.ok_or(MachineError::NoSuchOp(op_id))?, None)
            }
        };
        let own =
            gentry.op.txn == self.txn || self.frames.iter().any(|f| f.txn == Some(gentry.op.txn));
        if own {
            return Err(MachineError::WrongFlag {
                op: op_id,
                expected: "another transaction's op",
                found: "own op",
            });
        }
        // Criterion (i): op ∉ L. (Enforced in every mode — a duplicate
        // entry would corrupt the log structure — but only audited when
        // criteria checking is on, so Unchecked runs audit nothing.) A
        // refreshed entry was filtered through `L`'s ids already.
        let refreshed = reachable.is_some();
        debug_assert!(!refreshed || !self.local.contains_id(op_id));
        if !refreshed && self.local.contains_id(op_id) {
            if checked {
                self.global.audit.fail(Rule::Pull, Clause::I);
            }
            return Err(MachineError::criterion(
                Rule::Pull,
                Clause::I,
                format!("{op_id} already pulled"),
            ));
        }
        let mut next = None;
        if checked {
            self.global.audit.pass(Rule::Pull, Clause::I);
            // Criterion (ii): L allows op.
            next = self.local_allows(&gentry.op, None);
            if next.is_none() {
                self.global.audit.fail(Rule::Pull, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::Pull,
                    Clause::Ii,
                    format!("local log does not allow pulled {}", op_id),
                ));
            }
            self.global.audit.pass(Rule::Pull, Clause::Ii);
            // Criterion (iii), gray: own local ops move right of op.
            if check_gray {
                for own in self.local.iter().filter(|e| e.flag.is_own()) {
                    if !self.global.mover_q(&own.op, &gentry.op) {
                        self.global.audit.fail(Rule::Pull, Clause::Iii);
                        return Err(MachineError::criterion(
                            Rule::Pull,
                            Clause::Iii,
                            format!("own {} cannot move right of pulled {}", own.op.id, op_id),
                        ));
                    }
                }
                self.global.audit.pass(Rule::Pull, Clause::Iii);
            }
        }
        let reachable_after = match reachable {
            Some(reachable) => reachable.to_vec(),
            None => self.reachable_methods(),
        };
        if gentry.flag == GlobalFlag::Uncommitted {
            self.unsettled.push(op_id);
        }
        let entry = LocalEntry {
            op: gentry.op.clone(),
            flag: LocalFlag::Pulled,
        };
        self.append_local(entry, next);
        let tid = self.tid;
        self.record(Event::Pull {
            thread: tid,
            op: op_id,
            from: gentry.op.txn,
            status_at_pull: gentry.flag,
            method: gentry.op.method,
            ret: gentry.op.ret,
            reachable_after,
        });
        Ok(())
    }

    /// **UNPULL**: discards a pulled operation from the local view.
    /// Entirely thread-local.
    ///
    /// Criterion (i): the local log without `op` is still allowed (the
    /// transaction did nothing that depended on it). At the *tail* of an
    /// allowed `L` that is prefix closure — `SeqSpec`'s denotation makes
    /// `allowed` prefix-closed by construction — so an abort's tail-first
    /// rewind never replays; anywhere else the rest of `L` is replayed
    /// once.
    pub fn unpull(&mut self, op_id: OpId) -> MachineResult<()> {
        let checked = self.mode() != CheckMode::Unchecked;
        let pos = self.expect_flag(op_id, "pld")?;
        let tail = pos + 1 == self.local.len();
        let mut remaining = self.denot.without_tail();
        if checked {
            self.global.audit.count_allowed();
            let rest = || self.local_ops().filter(|op| op.id != op_id);
            if tail && self.global.incremental() && self.denot.allowed() {
                debug_assert!(!self.global.spec().denote_refs(rest()).is_empty());
            } else {
                let states = self.global.spec().denote_refs(rest());
                if states.is_empty() {
                    self.global.audit.fail(Rule::UnPull, Clause::I);
                    return Err(MachineError::criterion(
                        Rule::UnPull,
                        Clause::I,
                        format!("local log without {} is not allowed", op_id),
                    ));
                }
                remaining = LocalDenot::States(states);
            }
            self.global.audit.pass(Rule::UnPull, Clause::I);
        } else if !tail {
            remaining = LocalDenot::Unknown;
        }
        let entry = self.local.remove_by_id(op_id).expect("checked above");
        // Frames own suffixes of `L` by position: those based above the
        // removed entry slide down with their entries.
        for f in self.frames.iter_mut().filter(|f| f.base_len > pos) {
            f.base_len -= 1;
        }
        self.denot = remaining;
        self.unsettled.retain(|id| *id != op_id);
        let tid = self.tid;
        self.record(Event::UnPull {
            thread: tid,
            op: op_id,
            method: entry.op.method,
        });
        Ok(())
    }

    /// **CMT**: commits the current transaction. Criteria (i)/(ii) are
    /// local; criterion (iii) and the `cmt` effect (flag flips, the
    /// committed-transaction record, cache advance) are one critical
    /// section.
    ///
    /// Criteria: (i) `fin(c)` — some path reaches `skip`; (ii) `L ⊆ G` —
    /// every own operation has been pushed; (iii) every pulled operation
    /// belongs to a committed transaction; (iv) own entries in `G` flip
    /// to `gCmt` (the `cmt` predicate — this is the effect).
    ///
    /// On success the thread's next pending transaction (if any) begins.
    pub fn commit(&mut self) -> MachineResult<TxnId> {
        self.commit_in(None)
    }

    /// The one CMT body: [`Self::commit`] when `held` is `None`; with a
    /// caller-held section criterion (iii) and the `cmt` effect run inside
    /// it. The caller must hold [`Self::held_shards`], which also checks
    /// that the handle has no live scope or compensation — resolving
    /// those takes shard locks of its own.
    pub(crate) fn commit_in(&mut self, held: Option<&mut Held<'_, S>>) -> MachineResult<TxnId> {
        debug_assert!(
            held.is_none() || (self.frames.is_empty() && self.comps.is_empty()),
            "held commit on a handle with live scopes (held_shards must exclude it)"
        );
        self.fault_gate(Rule::Cmt)?;
        // Resolve every still-open scope first: closed frames merge
        // (observationally free), open frames commit to `G` as their
        // own transactions.
        self.exit_scopes_for_commit()?;
        let checked = self.mode() != CheckMode::Unchecked;
        let txn = self.txn;
        if checked {
            // Criterion (i): fin(c).
            if !self.active_code()?.fin() {
                self.global.audit.fail(Rule::Cmt, Clause::I);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::I,
                    "no method-free path to skip remains".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::I);
            // Criterion (ii): all own ops pushed.
            if !self.local.fully_pushed() {
                self.global.audit.fail(Rule::Cmt, Clause::Ii);
                return Err(MachineError::criterion(
                    Rule::Cmt,
                    Clause::Ii,
                    "local log contains npshd operations".to_string(),
                ));
            }
            self.global.audit.pass(Rule::Cmt, Clause::Ii);
        }
        let pulled_from = self
            .local
            .iter()
            .filter(|e| e.flag.is_pulled())
            .map(|e| (e.op.id, e.op.txn))
            .collect();
        let record = CommittedTxn {
            txn,
            thread: self.tid,
            code: self.committed_code(),
            ops: self.local.own_ops(),
            pulled_from,
            kind: TxnKind::Top,
        };
        let flipped = self.cmt_section(0, record, held)?;
        let tid = self.tid;
        self.record(Event::Commit {
            thread: tid,
            txn,
            ops: flipped,
        });
        self.commits += 1;
        self.reset_txn_state();
        self.begin_next_pending();
        Ok(txn)
    }

    /// The CMT critical section for the local-log suffix `[base..]` (the
    /// whole log for a top-level commit, an open child's own suffix
    /// otherwise): criterion (iii) plus the `cmt` effect
    /// ([`GlobalState::seal_commit`]), atomic over exactly the shards
    /// the suffix's pushed and still-unsettled pulled operations live on
    /// ([`Self::cmt_entries`]), locked in canonical ascending order — or
    /// over the caller's held section. Returns the flipped ids.
    fn cmt_section(
        &self,
        base: usize,
        record: CommittedTxn<S::Method, S::Ret>,
        held: Option<&mut Held<'_, S>>,
    ) -> MachineResult<Vec<OpId>> {
        let suffix = &self.local.entries()[base..];
        let section = |view: &mut LogView<'_, S>| {
            if self.mode() != CheckMode::Unchecked {
                let pulled = suffix.iter().map(|e| e.op.id);
                criteria::cmt(view, pulled.filter(|id| self.unsettled.contains(id)))
                    .settle(&self.global.audit)?;
            }
            // Newly committed entries may extend the fully committed
            // prefix of each held shard: the seal advances their caches.
            Ok(self.global.seal_commit(view, suffix, record))
        };
        if let Some(h) = held {
            return section(&mut h.view);
        }
        match self.routed_shards(self.cmt_entries(base)) {
            Some(shards) => section(&mut self.global.acquire_shards(shards)),
            None => section(&mut self.global.acquire_all()),
        }
    }

    /// The entries of `L[base..]` a CMT has business with in `G`: own
    /// pushed operations (the flips) and `unsettled` ones, pulled while
    /// still `gUCmt` (criterion (iii) must find them committed by now). An
    /// operation pulled `gCmt` settled (iii) at PULL time.
    fn cmt_entries(&self, base: usize) -> impl Iterator<Item = &LocalEntry<S::Method, S::Ret>> {
        let suffix = self.local.entries()[base..].iter();
        suffix.filter(|e| e.flag.is_pushed() || self.unsettled.contains(&e.op.id))
    }

    /// The shards `entries` route to, ascending and distinct — `None` if
    /// any of them routes coarse.
    fn routed_shards<'e>(
        &self,
        entries: impl Iterator<Item = &'e LocalEntry<S::Method, S::Ret>>,
    ) -> Option<Vec<usize>>
    where
        S: 'e,
    {
        let mut shards = Vec::new();
        for e in entries {
            match self.global.route(&e.op.method) {
                Route::Coarse => return None,
                Route::Single(i) => shards.push(i),
            }
        }
        shards.sort_unstable();
        shards.dedup();
        Some(shards)
    }

    /// Resets the per-transaction state after a commit: the local log,
    /// the observation stack, the scope stack, and the compensation set
    /// (a committed root makes its open children durable — their
    /// compensations are discarded, not replayed).
    fn reset_txn_state(&mut self) {
        self.local.clear();
        self.denot = LocalDenot::Unknown;
        self.unsettled.clear();
        self.stack.clear();
        self.frames.clear();
        self.comps.clear();
        self.open_children = 0;
        self.explicit_open = false;
    }

    /// Starts the next pending transaction (recording its `Begin`), or
    /// parks the thread (`code = None`, the paper's MS_END).
    fn begin_next_pending(&mut self) {
        let tid = self.tid;
        match self.pending.pop_front() {
            Some(c) => {
                let next_txn = self.global.fresh_txn();
                self.code = Some(c.clone());
                self.original = c;
                self.txn = next_txn;
                self.record(Event::Begin {
                    thread: tid,
                    txn: next_txn,
                });
            }
            None => {
                self.code = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Derived operations (compositions of back rules).
    // ------------------------------------------------------------------

    /// The spec-level inverse of every own (non-pulled) entry of
    /// `entries`, in reverse order, read-only observations elided.
    fn inverse_program(
        &self,
        entries: &[LocalEntry<S::Method, S::Ret>],
    ) -> MachineResult<Vec<(S::Method, S::Ret)>> {
        let mut inverses: Vec<(S::Method, S::Ret)> = Vec::new();
        for e in entries {
            if e.flag.is_pulled() {
                continue;
            }
            match self.global.spec().inverse(&e.op) {
                OpInverse::ReadOnly => {}
                OpInverse::Inverse(m, r) => inverses.push((m, r)),
                OpInverse::NotInvertible => {
                    return Err(MachineError::NotInvertible {
                        thread: self.tid,
                        op: e.op.id,
                    })
                }
            }
        }
        inverses.reverse();
        Ok(inverses)
    }

    /// Derives the compensating undo program for the transaction's live
    /// local log: the spec-level inverse of every own (non-pulled) entry,
    /// in reverse log order, read-only observations elided. This is the
    /// undo log a boosted implementation would execute on abort; callers
    /// that roll back via the back rules can use it for accounting or
    /// cross-checking without mutating the handle. Tallies the derived
    /// inverses in the global nesting counters.
    ///
    /// Errors with [`MachineError::NotInvertible`] if any live operation
    /// has no spec-level inverse.
    pub fn undo_program(&self) -> MachineResult<Vec<(S::Method, S::Ret)>> {
        let inverses = self.inverse_program(self.local.entries())?;
        self.global
            .nesting_counters()
            .note_undo_inverses(inverses.len() as u64);
        Ok(inverses)
    }

    /// Fully rewinds the current transaction (the composition of `⃗back`
    /// rules: UNPULL/UNPUSH/UNAPP from the tail) and restarts it as a
    /// fresh transaction instance with the original code. Compensations
    /// registered by committed open-nested children are replayed (most
    /// recent first) between the `Abort` and the retry's `Begin`.
    ///
    /// Records an `Abort` plus a `Begin` event.
    pub fn abort_and_retry(&mut self) -> MachineResult<TxnId> {
        self.abort_in(None)
    }

    /// The one abort-and-restart body: [`Self::abort_and_retry`] when
    /// `held` is `None`; inside a caller-held section the rewind's
    /// UNPUSHes run there, so a transaction denied mid-batch leaves `G`
    /// — and the recorded trace — exactly as an immediate abort would,
    /// before the next batched transaction's criteria run. Same
    /// no-scopes precondition as [`Self::commit_in`].
    pub(crate) fn abort_in(&mut self, held: Option<&mut Held<'_, S>>) -> MachineResult<TxnId> {
        debug_assert!(
            held.is_none() || (self.frames.is_empty() && self.comps.is_empty()),
            "held abort on a handle with live scopes (held_shards must exclude it)"
        );
        if self.code.is_none() {
            // A finished thread has nothing to abort; restarting its last
            // transaction here would resurrect committed work.
            return Err(MachineError::ThreadFinished(self.tid));
        }
        self.rewind_suffix(0, held)?;
        self.pop_rewound_frames(0)?;
        let old = self.txn;
        let tid = self.tid;
        self.record(Event::Abort {
            thread: tid,
            txn: old,
        });
        self.replay_all_compensations()?;
        let txn = self.global.fresh_txn();
        self.aborts += 1;
        self.code = Some(self.original.clone());
        self.stack = Vec::new();
        self.open_children = 0;
        self.explicit_open = false;
        self.txn = txn;
        self.record(Event::Begin { thread: tid, txn });
        Ok(txn)
    }

    /// Rewinds the current transaction completely: walking the local log
    /// from the tail, pulled entries are UNPULLed, pushed entries are
    /// UNPUSHed then UNAPPed, unpushed entries are UNAPPed. Every scope
    /// frame is popped (in-flight open children record their `Abort`);
    /// compensations owned by popped scopes are replayed, while those
    /// owned by the root stay registered for the caller's abort path.
    pub fn rewind_all(&mut self) -> MachineResult<()> {
        self.rewind_suffix(0, None)?;
        self.pop_rewound_frames(0)
    }

    /// Pushes every unpushed own operation in local order, then commits —
    /// the optimistic commit sequence ("PUSH everything and CMT at an
    /// uninterleaved moment", §6.2).
    pub fn push_all_and_commit(&mut self) -> MachineResult<TxnId> {
        for id in self.unpushed_ids() {
            self.push(id)?;
        }
        self.commit()
    }

    /// Ids of the current transaction's unpushed operations, in order.
    pub fn unpushed_ids(&self) -> Vec<OpId> {
        let unpushed = self.local.iter().filter(|e| e.flag.is_not_pushed());
        unpushed.map(|e| e.op.id).collect()
    }

    /// Abandons the current transaction without retrying it: fully
    /// rewinds (UNPULL/UNPUSH/UNAPP from the tail), records an `Abort`,
    /// and advances to the next pending transaction if one is queued —
    /// the service front-end's explicit `Abort` request (the client does
    /// not want the work redone, unlike [`Self::abort_and_retry`]).
    pub fn abandon(&mut self) -> MachineResult<()> {
        if self.code.is_none() {
            return Err(MachineError::ThreadFinished(self.tid));
        }
        self.rewind_all()?;
        let old = self.txn;
        self.aborts += 1;
        self.stack = Vec::new();
        let tid = self.tid;
        self.record(Event::Abort {
            thread: tid,
            txn: old,
        });
        self.replay_all_compensations()?;
        self.open_children = 0;
        self.explicit_open = false;
        self.begin_next_pending();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Held-commit eligibility (see [`crate::group`], which runs the
    // PUSH/CMT/abort bodies above inside one held section).
    // ------------------------------------------------------------------

    /// May the current transaction commit inside a held section at all?
    /// Not when the thread is finished, the local log is empty or coarse
    /// mode is on, and not with nested scopes or registered compensations:
    /// resolving those (open commits, compensation replay) acquires shard
    /// locks of its own, which would deadlock under the caller's held
    /// view.
    fn held_commit_allowed(&self) -> bool {
        self.code.is_some()
            && !self.local.is_empty()
            && !self.global.coarse_mode()
            && self.frames.is_empty()
            && self.comps.is_empty()
            && self.open_children == 0
    }

    /// The single shard *every* operation of the current transaction —
    /// own and pulled — routes to, if it is eligible for a held commit
    /// and there is such a shard: the transactions [`crate::group`]
    /// batches per shard, and the key callers schedule their commit stage
    /// by. `None` otherwise.
    pub fn group_route(&self) -> Option<usize> {
        if !self.held_commit_allowed() {
            return None;
        }
        let mut routes = self.local.iter().map(|e| self.global.route(&e.op.method));
        match routes.next()? {
            Route::Single(shard) if routes.all(|r| r == Route::Single(shard)) => Some(shard),
            _ => None,
        }
    }

    /// The shards a held commit of the current transaction must hold —
    /// those its own operations and its still-unsettled pulled operations
    /// route to ([`Self::cmt_entries`], before any PUSH) — or `None` when
    /// it is not eligible: see [`Self::held_commit_allowed`], or an
    /// operation routes coarse.
    pub(crate) fn held_shards(&self) -> Option<Vec<usize>> {
        if !self.held_commit_allowed() {
            return None;
        }
        let needed = self
            .local
            .iter()
            .filter(|e| e.flag.is_own() || self.unsettled.contains(&e.op.id));
        self.routed_shards(needed)
    }

    /// Pulls every *committed* global operation not yet in the local log,
    /// in global-log order — how opaque transactions snapshot the shared
    /// state (§6.2: "transactions begin by PULLing all operations"). The
    /// first PULL denial ends the refresh with that error.
    pub fn pull_all_committed(&mut self) -> MachineResult<usize> {
        self.refresh(false)
    }

    /// The lenient snapshot refresh drivers perform before applying an
    /// operation: pulls the committed operations the transaction can
    /// still *touch* — those whose declared keys
    /// ([`SeqSpec::method_keys`]) meet its footprint, and every one that
    /// declares none — skipping (rather than failing on) those whose PULL
    /// criteria do not hold. The footprint is the keys of every method
    /// the remaining code can reach and of every own operation already in
    /// `L` (an UNAPP hands its method back to the code); it is
    /// *everything*, as in [`Self::pull_all_committed`], when one of them
    /// declares no keys or no transaction is active. PULL is per
    /// operation (§4) and skipping one elides no criterion, so a footprint
    /// declared too small can cost a retry and never a verdict.
    ///
    /// # Errors
    ///
    /// Propagates only structural errors; criterion failures are skipped
    /// by design.
    pub fn pull_committed_lenient(&mut self) -> MachineResult<usize> {
        self.refresh(true)
    }

    /// The methods the remaining code can still invoke (none once the
    /// thread has finished) — what a PULL event records for the opacity
    /// check.
    fn reachable_methods(&self) -> Vec<S::Method> {
        self.code
            .as_ref()
            .map(|c| c.reachable_methods())
            .unwrap_or_default()
    }

    /// The keys the current transaction can still touch, ascending and
    /// distinct: those `reachable` (the remaining code's methods) and the
    /// own entries of `L` declare. `None` — everything — when any of them
    /// declares no keys, or when no transaction is active.
    fn footprint(&self, reachable: &[S::Method]) -> Option<Vec<u64>> {
        self.code.as_ref()?;
        let spec = self.global.spec();
        let own = self.local.iter().filter(|e| e.flag.is_own());
        let mut keys = Vec::new();
        for method in reachable.iter().chain(own.map(|e| &e.op.method)) {
            keys.extend(spec.method_keys(method)?.iter().copied());
        }
        keys.sort_unstable();
        keys.dedup();
        Some(keys)
    }

    /// The refresh, one pass: snapshot the committed entries `L` lacks
    /// under one acquisition of the shards concerned (gather once), then
    /// run the ordinary PULL body on each, in stamp order, with no lock at
    /// all. The strict refresh concerns every shard and stops at the first
    /// denial; the `lenient` one concerns the shards of the transaction's
    /// footprint and skips denials. Returns how many were pulled.
    fn refresh(&mut self, lenient: bool) -> MachineResult<usize> {
        let reachable = self.reachable_methods();
        let footprint = if lenient {
            self.footprint(&reachable)
        } else {
            None
        };
        if footprint.as_ref().is_some_and(|keys| keys.is_empty()) {
            // Nothing reachable and nothing done: no shard to lock, at any
            // shard count.
            return Ok(0);
        }
        let have: Option<HashSet<OpId>> =
            (!self.local.is_empty()).then(|| self.local_ops().map(|op| op.id).collect());
        let have = |id| have.as_ref().is_some_and(|ids| ids.contains(&id));
        let fresh = self.global.committed_except(footprint.as_deref(), have);
        let mut pulled = 0;
        for entry in fresh {
            match self.pull_in(entry.op.id, Some((entry, &reachable))) {
                Ok(()) => pulled += 1,
                Err(MachineError::Criterion(_)) if lenient => {}
                Err(e) => return Err(e),
            }
        }
        Ok(pulled)
    }
}

/// APP criterion (i): is `(method, cont)` an element of `step(code)`?
fn in_step<M: Clone + PartialEq>(code: &Code<M>, method: &M, cont: &Code<M>) -> bool {
    code.step().iter().any(|(m, k)| m == method && k == cont)
}

/// Folds a method sequence into `m₁ ; m₂ ; …` (or `skip` when empty) —
/// the committed-record code of explicit open scopes and compensating
/// transactions, whose "program" is exactly the operations performed.
fn methods_as_seq<'a, M, I>(methods: I) -> Code<M>
where
    M: Clone + 'a,
    I: DoubleEndedIterator<Item = &'a M>,
{
    let mut code = Code::Skip;
    for m in methods.rev() {
        code = match code {
            Code::Skip => Code::method(m.clone()),
            c => Code::seq(Code::method(m.clone()), c),
        };
    }
    code
}
