//! Nested transaction scopes of a [`TxnHandle`] (§6.2 checkpoints and
//! open nesting) and the compensations open-nested children leave behind.
//!
//! A scope is a frame over a *suffix* of the flat local log: entries at
//! index ≥ `base_len` belong to it. Closed scopes merge into the parent on
//! commit and rewind only their suffix on abort; open scopes commit
//! straight to `G` as their own transaction and leave a compensating
//! inverse program with the parent.

use crate::criteria;
use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::global::{CommittedTxn, Nesting, Route, TxnKind};
use crate::lang::Code;
use crate::log::{LocalEntry, LocalFlag};
use crate::machine::CheckMode;
use crate::op::{Op, OpId, TxnId};
use crate::scope::{Compensation, ScopeFrame, ScopeKind, ScopeOrigin};
use crate::spec::{OpInverse, SeqSpec};
use crate::trace::Event;

use super::{Held, TxnHandle};

impl<S: SeqSpec> TxnHandle<S> {
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
        self.global.note_nesting(Nesting::Opened, 1);
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
    pub(super) fn settle_scopes(&mut self) -> MachineResult<()> {
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
    pub(super) fn exit_scopes_for_commit(&mut self) -> MachineResult<()> {
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
            self.global.counters.audit.fail(Rule::Cmt, Clause::I);
            return Err(MachineError::criterion(
                Rule::Cmt,
                Clause::I,
                "no method-free path to skip remains in the nested scope".to_string(),
            ));
        }
        self.exit_top_frame();
        self.global.note_nesting(Nesting::Merged, 1);
        Ok(())
    }

    /// Pops the innermost frame on its way out into the parent: a peeled
    /// scope's continuation code is restored, and compensations owned by
    /// the scope pass to the parent. Returns the parent's depth.
    fn exit_top_frame(&mut self) -> usize {
        let frame = self.frames.pop().expect("caller checked a frame exists");
        if let ScopeOrigin::Peeled { cont, .. } = frame.origin {
            self.code = Some(cont);
        }
        let depth = self.frames.len();
        for c in self.comps.iter_mut().filter(|c| c.depth > depth) {
            c.depth = depth;
        }
        depth
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
            let stuck = peeled && !self.active_code()?.fin();
            let detail = || "no method-free path to skip remains in the open scope".to_string();
            self.local_criterion(Rule::Cmt, Clause::I, stuck.then(detail))?;
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
            self.global.counters.audit.pass(Rule::Cmt, Clause::Ii);
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
        let depth = self.exit_top_frame();
        self.global
            .note_nesting(Nesting::UndoInverses, inverses.len() as u64);
        self.comps.push(Compensation {
            undoes: child,
            depth,
            ops: inverses,
        });
        self.open_children += 1;
        if !peeled {
            self.explicit_open = true;
        }
        self.global.note_nesting(Nesting::OpenCommit, 1);
        Ok(())
    }

    /// Rewinds the local log down to `target_len`, tearing down frames
    /// entered strictly above the target as the walk passes their base
    /// (the unapp scope floor would otherwise block it). Frames based
    /// *at* `target_len` are left for the caller to resolve. Each UNPUSH
    /// of the walk runs inside `held` when the caller holds the section.
    pub(super) fn rewind_suffix(
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
        self.global.note_nesting(Nesting::Aborted, 1);
    }

    /// Pops every remaining frame whose base position was rewound away
    /// (at or above `target_len`), then replays the compensations no
    /// longer owned by a live scope.
    pub(super) fn pop_rewound_frames(&mut self, target_len: usize) -> MachineResult<()> {
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
    pub(super) fn replay_all_compensations(&mut self) -> MachineResult<()> {
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
                let id = self.global.counters.ids.fresh();
                let op = Op::new(id, txn, method.clone(), ret.clone());
                if checked {
                    criteria::push(&*self.global, &view, txn, &op)
                        .settle(&self.global.counters.audit)?;
                }
                let target = self.global.route(method).target();
                let stamp = self.global.reserve_stamps(1);
                // A compensation append steps no end-of-log set: it drops
                // its class's (`shared_log.rs`, invalidation rules).
                self.global
                    .append_push(&mut view, target, stamp, op.clone(), false);
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
        self.global.note_nesting(Nesting::Compensation, 1);
        Ok(())
    }

    /// The code stored in the committed record: when open-nested
    /// children committed separately, their `otx` bodies are stripped
    /// (the parent's own operations no longer include them); a child
    /// carved out by an *explicit* scope has no syntactic marker, so the
    /// record falls back to the straight-line program of the parent's
    /// own operations. Otherwise the original body verbatim.
    pub(super) fn committed_code(&self) -> Code<S::Method> {
        if self.open_children == 0 {
            self.original.clone()
        } else if self.explicit_open {
            let own = self.local.own_ops();
            methods_as_seq(own.iter().map(|o| &o.method))
        } else {
            self.original.strip_open()
        }
    }

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
            .note_nesting(Nesting::UndoInverses, inverses.len() as u64);
        Ok(inverses)
    }
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
