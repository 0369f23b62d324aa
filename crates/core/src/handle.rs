//! The per-thread half of the split machine: [`TxnHandle`] owns one
//! thread's code, stack and local log `L`, and runs the seven rules of
//! Figure 5 against a shared [`GlobalState`].
//!
//! APP and UNAPP touch only the handle and the shared atomics and take no
//! lock, so thread-local steps run genuinely in parallel; the shared rules
//! take the shard locks `global.rs`'s "Lock discipline" lists — or run
//! inside a caller's held section (`Held`, see [`crate::group`]).
//!
//! This file holds the handle's state, accessors and shared helpers; the
//! rules of Figure 5 are in `handle/rules.rs`, the carried `⟦L⟧` in
//! `handle/denot.rs`, the refresh in `handle/refresh.rs`, and nested
//! scopes with their compensations in `handle/scopes.rs`.
//!
//! Who records the trace, who reads it, and what it costs: every rule a
//! handle fires records one event, stamped with a global atomic sequence
//! number, into the handle's buffer, which only grows;
//! [`Machine::trace`](crate::machine::Machine::trace) merges the buffers
//! into one totally ordered trace for the oracles and the golden suites,
//! its only readers. On `KvMap` an event is 112 bytes, and a
//! conflict-free 3-operation transaction records eight (BEGIN, 3 × APP,
//! 3 × PUSH, CMT): eight `fetch_add`s on the one sequence counter every
//! thread writes, 896 bytes kept, and 1.6–1.9 kB requested from the
//! allocator once the buffer's doublings and the `Commit` event's id list
//! are counted (the ledger's `kv_fresh_short`; `tests/alloc_budget.rs`).
//! A machine records only while
//! [`Machine::set_trace`](crate::machine::Machine::set_trace) leaves it
//! on, the default; `pushpull-server`'s `TxnServer` turns it off.
//! Untraced, a rule builds no event, mints no sequence number and stores
//! nothing.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::faults::{BoundaryFault, FaultKind, HtmFault};
use crate::global::{GlobalState, LogView};
use crate::lang::Code;
use crate::log::{GlobalLog, LocalFlag, LocalLog};
use crate::machine::{CheckMode, StepOptions};
use crate::op::{OpId, ThreadId, TxnId};
use crate::scope::{Compensation, ScopeFrame};
use crate::spec::SeqSpec;
use crate::trace::Event;

mod denot;
mod refresh;
mod rules;
mod scopes;

use denot::LocalDenot;

/// A trace event stamped with its global sequence number.
pub(crate) type StampedEvent<S> = (u64, Event<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>);

/// A critical section the *caller* already holds (see [`crate::group`]):
/// the shared rule bodies run inside it instead of acquiring their own, so
/// a transaction's PUSHes and its CMT — and, denied, its abort — are one
/// uninterleaved section.
pub(crate) struct Held<'a, S: SeqSpec> {
    /// The held shards: every shard the section's transaction routes to,
    /// or every shard once it is coarse.
    pub(crate) view: LogView<'a, S>,
    /// The next unused stamp of the block reserved under the locks.
    pub(crate) stamp: u64,
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

    /// Has this thread begun a transaction — recorded a `Begin`, on a
    /// traced machine?
    pub(crate) fn has_begun(&self) -> bool {
        self.code.is_some() || self.commits > 0 || self.aborts > 0
    }

    /// Does this machine record trace events (see the module docs)?
    fn traced(&self) -> bool {
        self.global.traced()
    }

    /// Records `event` with a fresh sequence number — if the machine is
    /// traced; otherwise nothing, and no number is minted.
    fn record(&mut self, event: Event<S::Method, S::Ret>) {
        if self.traced() {
            let seq = self.global.next_seq();
            self.events.push((seq, event));
        }
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

    /// Audits a criterion `rule` evaluated on the handle's own state:
    /// passed when there is no `denial`, else failed, surfacing the
    /// violation with the denial's detail.
    fn local_criterion(
        &self,
        rule: Rule,
        clause: Clause,
        denial: Option<String>,
    ) -> MachineResult<()> {
        let audit = &self.global.counters.audit;
        match denial {
            None => {
                audit.pass(rule, clause);
                Ok(())
            }
            Some(detail) => {
                audit.fail(rule, clause);
                Err(MachineError::criterion(rule, clause, detail))
            }
        }
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

    /// Starts the next pending transaction (recording its `Begin`), or
    /// parks the thread (`code = None`, the paper's MS_END).
    fn begin_next_pending(&mut self) {
        self.code = self.pending.pop_front();
        if let Some(c) = &self.code {
            self.original = c.clone();
            self.txn = self.global.fresh_txn();
            let (thread, txn) = (self.tid, self.txn);
            self.record(Event::Begin { thread, txn });
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

    // ------------------------------------------------------------------
    // Structural reductions (Figure 6) — thread-local.
    // ------------------------------------------------------------------

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
}
