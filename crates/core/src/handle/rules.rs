//! The seven rules of Figure 5 on a [`TxnHandle`], the derived abort and
//! commit sequences, and held-commit eligibility (see [`crate::group`],
//! which runs the PUSH/CMT/abort bodies here inside one held section).

use crate::criteria;
use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::global::{CommittedTxn, LogView, Route, TxnKind};
use crate::lang::Code;
use crate::log::{GlobalEntry, GlobalFlag, LocalEntry, LocalFlag};
use crate::machine::CheckMode;
use crate::op::{Op, OpId, TxnId};
use crate::smallvec::SmallVec;
use crate::spec::SeqSpec;
use crate::trace::Event;

use super::denot::LocalDenot;
use super::{Held, TxnHandle};

/// What a refresh hands the PULL body: an entry it snapshotted, and the
/// methods the remaining code can reach (computed once per refresh).
type Refreshed<'r, S> = (
    GlobalEntry<<S as SeqSpec>::Method, <S as SeqSpec>::Ret>,
    &'r [<S as SeqSpec>::Method],
);

impl<S: SeqSpec> TxnHandle<S> {
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
        self.app_step(method, cont, ret)
    }

    /// The one APP body, past the fault gate and criterion (i): `(method,
    /// cont)` is in `step(c)` — looked up by [`Self::app`], or taken from
    /// it by [`Self::app_chosen`]. Criterion (ii) checks the carried `⟦L⟧`,
    /// and the append steps it in place.
    fn app_step(
        &mut self,
        method: S::Method,
        cont: Code<S::Method>,
        ret: S::Ret,
    ) -> MachineResult<OpId> {
        let checked = self.mode() != CheckMode::Unchecked;
        debug_assert!(!checked || in_step(self.active_code()?, &method, &cont));
        let id = self.global.counters.ids.fresh();
        // Operations applied inside an open scope belong to the child
        // transaction; everywhere else `current_txn()` is the root.
        let op = Op::new(id, self.current_txn(), method.clone(), ret.clone());
        // Criterion (ii): L allows op.
        let mut allowed = false;
        if checked {
            allowed = self.local_allows(&op);
            let denial = !allowed;
            let detail = || format!("local log does not allow {:?} -> {:?}", method, ret);
            self.local_criterion(Rule::App, Clause::Ii, denial.then(detail))?;
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
        self.append_local(LocalEntry { op, flag }, allowed);
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
    /// pair is the first element of `step(c)` that `pick` accepts, found by
    /// [`Code::first_step`] without building the rest of the set).
    fn app_chosen(&mut self, pick: impl Fn(&S::Method) -> bool) -> MachineResult<OpId> {
        self.settle_scopes()?;
        let (m, cont) = self
            .active_code()?
            .first_step(pick)
            .ok_or(MachineError::NoSuchStep(self.tid))?;
        let ret = self.first_allowed(&m)?;
        self.fault_gate(Rule::App)?;
        self.app_step(m, cont, ret)
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
    /// run inside one [`GlobalState`](crate::global::GlobalState) critical section.
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
            let mut earlier = self.local.entries()[..pos].iter();
            let blocker =
                earlier.find(|e| e.flag.is_not_pushed() && !self.global.mover_q(&op, &e.op));
            let detail = |e: &LocalEntry<_, _>| {
                format!(
                    "{} does not move across earlier unpushed {}",
                    op.id, e.op.id
                )
            };
            self.local_criterion(Rule::Push, Clause::I, blocker.map(detail))?;
        }
        let route = self.global.route(&op.method);
        let method = op.method.clone();
        let global = &*self.global;
        // Criteria (ii)/(iii) and the append to `G`, one critical section;
        // a class-local pass of (iii) steps its class's end-of-log set.
        self.shared_section(route, held, |view, target, stamp| {
            let step_end = checked
                && criteria::push(global, view, op.txn, &op).settle(&global.counters.audit)?;
            let stamp = match stamp {
                Some(cursor) => {
                    *cursor += 1;
                    *cursor - 1
                }
                None => global.reserve_stamps(1),
            };
            global.append_push(view, target, stamp, op, step_end);
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
    /// section (its view focused as the route's own locks would show it,
    /// see `GlobalState::in_held`, and the cursor into its reserved stamp
    /// block), or else under the route's own lock — one footprint shard on
    /// the routed fast path, every shard (ascending) when coarse. `body`
    /// also receives the shard to append to.
    fn shared_section(
        &self,
        route: Route,
        held: Option<&mut Held<'_, S>>,
        body: impl FnOnce(&mut LogView<'_, S>, usize, Option<&mut u64>) -> MachineResult<()>,
    ) -> MachineResult<()> {
        let target = route.target();
        match held {
            Some(h) => {
                let stamp = &mut h.stamp;
                (self.global).in_held(&mut h.view, route, |v| body(v, target, Some(stamp)))
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
    pub(super) fn unpush_in(
        &mut self,
        op_id: OpId,
        held: Option<&mut Held<'_, S>>,
    ) -> MachineResult<()> {
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
                    .settle(&global.counters.audit)?;
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
    pub(super) fn pull_in(
        &mut self,
        op_id: OpId,
        refreshed: Option<Refreshed<'_, S>>,
    ) -> MachineResult<()> {
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
                self.global.counters.audit.fail(Rule::Pull, Clause::I);
            }
            return Err(MachineError::criterion(
                Rule::Pull,
                Clause::I,
                format!("{op_id} already pulled"),
            ));
        }
        let mut allowed = false;
        if checked {
            self.global.counters.audit.pass(Rule::Pull, Clause::I);
            // Criterion (ii): L allows op.
            allowed = self.local_allows(&gentry.op);
            let detail = || format!("local log does not allow pulled {}", op_id);
            self.local_criterion(Rule::Pull, Clause::Ii, (!allowed).then(detail))?;
            // Criterion (iii), gray: own local ops move right of op.
            if check_gray {
                let mut own = self.local.iter().filter(|e| e.flag.is_own());
                let blocker = own.find(|own| !self.global.mover_q(&own.op, &gentry.op));
                let detail = |own: &LocalEntry<_, _>| {
                    format!("own {} cannot move right of pulled {}", own.op.id, op_id)
                };
                self.local_criterion(Rule::Pull, Clause::Iii, blocker.map(detail))?;
            }
        }
        if gentry.flag == GlobalFlag::Uncommitted {
            self.unsettled.push(op_id);
        }
        let event = self.traced().then(|| Event::Pull {
            thread: self.tid,
            op: op_id,
            from: gentry.op.txn,
            status_at_pull: gentry.flag,
            method: gentry.op.method.clone(),
            ret: gentry.op.ret.clone(),
            reachable_after: match reachable {
                Some(reachable) => reachable.to_vec(),
                None => self.reachable_methods(),
            },
        });
        let entry = LocalEntry {
            op: gentry.op,
            flag: LocalFlag::Pulled,
        };
        self.append_local(entry, allowed);
        if let Some(event) = event {
            self.record(event);
        }
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
            self.global.counters.audit.count_allowed();
            let rest = || self.local_ops().filter(|op| op.id != op_id);
            let denied = if tail && self.global.incremental() && self.denot.allowed() {
                debug_assert!(!self.global.denote_refs(rest()).is_empty());
                false
            } else {
                let states = self.global.denote_refs(rest());
                let denied = states.is_empty();
                remaining = LocalDenot::States(states);
                denied
            };
            let detail = || format!("local log without {} is not allowed", op_id);
            self.local_criterion(Rule::UnPull, Clause::I, denied.then(detail))?;
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
            let detail = || "no method-free path to skip remains".to_string();
            let stuck = !self.active_code()?.fin();
            self.local_criterion(Rule::Cmt, Clause::I, stuck.then(detail))?;
            // Criterion (ii): all own ops pushed.
            let detail = || "local log contains npshd operations".to_string();
            let unpushed = !self.local.fully_pushed();
            self.local_criterion(Rule::Cmt, Clause::Ii, unpushed.then(detail))?;
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
    /// ([`Self::cmt_entries`]) — every shard when one routes coarse —
    /// locked in canonical ascending order, or over the caller's held
    /// section. Returns the flipped ids.
    pub(super) fn cmt_section(
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
                    .settle(&self.global.counters.audit)?;
            }
            // Newly committed entries may extend the fully committed
            // prefix of each held shard: the seal advances their caches.
            Ok(self.global.seal_commit(view, suffix, record))
        };
        if let Some(h) = held {
            return section(&mut h.view);
        }
        section(
            &mut self
                .global
                .acquire_shards(self.routed_shards(self.cmt_entries(base))),
        )
    }

    /// The entries of `L[base..]` a CMT has business with in `G`: own
    /// pushed operations (the flips) and `unsettled` ones, pulled while
    /// still `gUCmt` (criterion (iii) must find them committed by now). An
    /// operation pulled `gCmt` settled (iii) at PULL time.
    fn cmt_entries(&self, base: usize) -> impl Iterator<Item = &LocalEntry<S::Method, S::Ret>> {
        let suffix = self.local.entries()[base..].iter();
        suffix.filter(|e| e.flag.is_pushed() || self.unsettled.contains(&e.op.id))
    }

    /// The shards `entries` route to, ascending and distinct — every
    /// shard if any of them routes coarse.
    fn routed_shards<'e>(
        &self,
        entries: impl Iterator<Item = &'e LocalEntry<S::Method, S::Ret>>,
    ) -> ShardSet
    where
        S: 'e,
    {
        let mut shards = ShardSet::new();
        for e in entries {
            match self.global.route(&e.op.method) {
                Route::Coarse => return (0..self.global.shard_count()).collect(),
                Route::Single(i) if !shards.contains(&i) => shards.push(i),
                Route::Single(_) => {}
            }
        }
        shards.sort_unstable();
        shards
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

    // ------------------------------------------------------------------
    // Derived operations (compositions of back rules).
    // ------------------------------------------------------------------

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
    /// UNPUSHes run there, so a transaction denied in its section leaves
    /// `G` — and the recorded trace — exactly as an immediate abort
    /// would, before any other thread's criteria see it. Same
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
    pub fn unpushed_ids(&self) -> SmallVec<OpId, 8> {
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
    /// Not when the thread is finished, and not with nested scopes or
    /// registered compensations: resolving those (open commits,
    /// compensation replay) acquires shard locks of its own, which would
    /// deadlock under the caller's held view.
    fn held_commit_allowed(&self) -> bool {
        self.code.is_some()
            && self.frames.is_empty()
            && self.comps.is_empty()
            && self.open_children == 0
    }

    /// The single shard *every* operation of the current transaction —
    /// own and pulled — routes to, if it is eligible for a held commit
    /// and there is such a shard — a key a caller may order its commit
    /// stage by (`ledger/`'s ladder does). `None` otherwise.
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
    /// route to ([`Self::cmt_entries`], before any PUSH), every shard when
    /// one routes coarse — or `None` when it is not eligible (see
    /// [`Self::held_commit_allowed`]).
    pub(crate) fn held_shards(&self) -> Option<ShardSet> {
        let needed = self
            .local
            .iter()
            .filter(|e| e.flag.is_own() || self.unsettled.contains(&e.op.id));
        self.held_commit_allowed()
            .then(|| self.routed_shards(needed))
    }
}

/// The shards a commit section holds, ascending — inline up to four, so a
/// transaction over a handful of keys collects them without allocating.
type ShardSet = SmallVec<usize, 4>;

/// APP criterion (i): is `(method, cont)` an element of `step(code)`?
fn in_step<M: Clone + PartialEq>(code: &Code<M>, method: &M, cont: &Code<M>) -> bool {
    code.step().iter().any(|(m, k)| m == method && k == cont)
}
