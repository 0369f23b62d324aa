//! The criteria kernel: the one evaluation of every criterion that reads
//! the shared log `G` — PUSH (ii)/(iii), UNPUSH (i)/(ii) and CMT (iii).
//!
//! The kernel is *pure*: it reads a held [`LogView`] of `G` and returns a
//! [`Verdict`], touching neither the log nor the audit. A rule uses it
//! under the shard lock (DESIGN.md §10): evaluate, then
//! [`Verdict::settle`] (record the tallies, surface the denial — or, for a
//! PUSH, say whether the append steps its class's end-of-log set), then
//! apply the effect in the same critical section.
//!
//! [`Verdict::record`] is the only place these clauses touch the audit.

use crate::audit::AtomicAudit;
use crate::error::{Clause, MachineError, MachineResult, Rule};
use crate::global::{GlobalState, LogView};
use crate::log::GlobalFlag;
use crate::op::{Op, OpId, TxnId};
use crate::spec::SeqSpec;

/// How one clause concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Pass,
    Fail,
}

/// The shared-log clauses of `rule`, in evaluation order.
fn clauses(rule: Rule) -> [Clause; 2] {
    match rule {
        Rule::Push => [Clause::Ii, Clause::Iii],
        Rule::UnPush => [Clause::I, Clause::Ii],
        _ => [Clause::Iii, Clause::Iv],
    }
}

/// The outcome of one kernel evaluation: how each clause concluded, the
/// oracle queries it took and, for a PUSH, whether (iii) passed
/// class-locally. The denial message is only rendered by
/// [`Verdict::result`], so a passing evaluation allocates nothing beyond
/// what its replays do.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Verdict {
    rule: Rule,
    /// One slot per entry of [`clauses`]; `None` = not reached (an
    /// earlier clause failed) or not checked (the gray UNPUSH (i)).
    marks: [Option<Mark>; 2],
    movers: u64,
    /// Did the evaluation reach its one `allowed` query?
    allowed: bool,
    /// The operation the rule is about.
    subject: OpId,
    /// On a failed mover/flag check, the entry of `G` that refuted it.
    witness: Option<(OpId, TxnId)>,
    /// Did PUSH (iii) pass class-locally ([`LogView::allows`])? Then
    /// [`Verdict::settle`] tells the append to step `op`'s class's
    /// end-of-log set to `⟦G|k · op⟧` in place.
    step_end: bool,
}

impl Verdict {
    fn new(rule: Rule, subject: OpId) -> Self {
        Self {
            rule,
            marks: [None; 2],
            movers: 0,
            allowed: false,
            subject,
            witness: None,
            step_end: false,
        }
    }

    fn deny(mut self, slot: usize, witness: Option<(OpId, TxnId)>) -> Self {
        self.marks[slot] = Some(Mark::Fail);
        self.witness = witness;
        self
    }

    /// Records exactly the queries and pass/fail marks of this
    /// evaluation in the audit.
    pub(crate) fn record(&self, audit: &AtomicAudit) {
        audit.count_mover_n(self.movers);
        if self.allowed {
            audit.count_allowed();
        }
        for (clause, mark) in clauses(self.rule).into_iter().zip(self.marks) {
            match mark {
                Some(Mark::Pass) => audit.pass(self.rule, clause),
                Some(Mark::Fail) => audit.fail(self.rule, clause),
                None => {}
            }
        }
    }

    /// `Ok` on a pass, the failing clause's criterion violation otherwise.
    pub(crate) fn result(&self) -> MachineResult<()> {
        let Some(slot) = self.marks.iter().position(|m| *m == Some(Mark::Fail)) else {
            return Ok(());
        };
        let op = self.subject;
        let detail = match (self.rule, slot, self.witness) {
            (Rule::Push, 0, Some((g, txn))) => {
                format!("uncommitted {g} of {txn} cannot move right of {op}")
            }
            (Rule::Push, ..) => format!("global log does not allow {op}"),
            (Rule::UnPush, 0, Some((g, _))) => format!("{op} cannot slide past later {g}"),
            (Rule::UnPush, ..) => format!("global log without {op} is not allowed"),
            (_, _, Some(_)) => format!("pulled {op} is still uncommitted"),
            _ => format!("pulled {op} vanished from the global log"),
        };
        Err(MachineError::criterion(
            self.rule,
            clauses(self.rule)[slot],
            detail,
        ))
    }

    /// The locked evaluation's epilogue: record, then surface the result —
    /// on a pass, whether the append steps its class's end-of-log set.
    pub(crate) fn settle(self, audit: &AtomicAudit) -> MachineResult<bool> {
        self.record(audit);
        self.result().map(|()| self.step_end)
    }
}

/// PUSH criteria (ii)/(iii) for `op`, pushed by transaction `txn`.
///
/// (ii): every uncommitted operation of *another* transaction moves
/// right of `op`. A single-shard view inspects only entries sharing
/// `op`'s footprint class — entries on other shards have disjoint
/// declared footprints and are both-movers by the validated footprint
/// law, so the verdict is identical. (iii): `G` allows `op`; the verdict
/// says whether that was answered class-locally, so the append steps the
/// class's end-of-log set.
pub(crate) fn push<S: SeqSpec>(
    global: &GlobalState<S>,
    view: &LogView<'_, S>,
    txn: TxnId,
    op: &Op<S::Method, S::Ret>,
) -> Verdict {
    let spec = global.spec();
    let mut v = Verdict::new(Rule::Push, op.id);
    for g in view.uncommitted(global).filter(|g| g.op.txn != txn) {
        v.movers += 1;
        if !spec.mover(&g.op, op) {
            return v.deny(0, Some((g.op.id, g.op.txn)));
        }
    }
    v.marks[0] = Some(Mark::Pass);
    v.allowed = true;
    let (allowed, class_local) = view.allows(global, op);
    if !allowed {
        return v.deny(1, None);
    }
    v.marks[1] = Some(Mark::Pass);
    v.step_end = class_local;
    v
}

/// UNPUSH criteria for the uncommitted entry at `(vidx, pos)` of the
/// viewed log, as located by [`LogView::find`].
///
/// (i), gray — checked only when `gray`: `op` slides right across
/// everything after it in the view (on other shards everything is a
/// both-mover by footprint). (ii): `G` without `op` is still allowed.
pub(crate) fn unpush<S: SeqSpec>(
    global: &GlobalState<S>,
    view: &LogView<'_, S>,
    (vidx, pos): (usize, usize),
    gray: bool,
) -> Verdict {
    let spec = global.spec();
    let op = &view.at(vidx, pos).op;
    let mut v = Verdict::new(Rule::UnPush, op.id);
    if gray {
        for g in view.after((vidx, pos)) {
            v.movers += 1;
            if !spec.mover(op, &g.op) {
                return v.deny(0, Some((g.op.id, g.op.txn)));
            }
        }
        v.marks[0] = Some(Mark::Pass);
    }
    v.allowed = true;
    if !view.allowed_without(global, (vidx, pos)) {
        return v.deny(1, None);
    }
    v.marks[1] = Some(Mark::Pass);
    v
}

/// CMT criterion (iii): every pulled operation belongs to a committed
/// transaction.
pub(crate) fn cmt<S: SeqSpec>(
    view: &LogView<'_, S>,
    pulled: impl Iterator<Item = OpId>,
) -> Verdict {
    let mut v = Verdict::new(Rule::Cmt, OpId(0));
    for id in pulled {
        let found = view.entry(id);
        if !found.is_some_and(|g| g.flag == GlobalFlag::Committed) {
            v.subject = id;
            return v.deny(0, found.map(|g| (g.op.id, g.op.txn)));
        }
    }
    v.marks[0] = Some(Mark::Pass);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::Route;
    use crate::lang::Code;
    use crate::log::LocalFlag;
    use crate::machine::Machine;
    use crate::rng::Xorshift64;
    use crate::toy::{CounterMethod, StrictCounter, ToyCounter};

    /// For every own operation of every thread, the kernel over the
    /// locked view must return the same [`Verdict`] — outcome, witness
    /// *and* tallies — with the incremental path on and off (full replay
    /// is the reference, and steps no end-of-log set). On one shard there
    /// is one class, so every cached PUSH that passes steps its end set.
    /// The switch is turned back on after each comparison, so the
    /// machine's own steps keep running — and stepping end-of-log sets —
    /// on the incremental path.
    /// Returns how many comparisons ended in a denial, and how many cached
    /// PUSH evaluations started from an end-of-log set.
    fn compare<S: SeqSpec<Method = CounterMethod>>(m: &Machine<S>) -> [usize; 2] {
        let global = m.global_state();
        let mut tally = [0; 2];
        for t in 0..m.thread_count() {
            let local = m.thread(crate::op::ThreadId(t)).unwrap().local();
            for e in local.entries().iter().filter(|e| e.flag.is_own()) {
                let op = &e.op;
                let pushed = matches!(e.flag, LocalFlag::Pushed { .. });
                let [(mut cached, from_end), (replayed, _)] = [true, false].map(|incremental| {
                    global.set_incremental(incremental);
                    let view = global.acquire_route(Route::Single(0));
                    let from_end = incremental && !pushed && view.end_sets() > 0;
                    let verdict = if pushed {
                        let at = view.find(op.id).expect("a pshd op is in G");
                        unpush(global, &view, at, true)
                    } else {
                        push(global, &view, op.txn, op)
                    };
                    (verdict, from_end)
                });
                global.set_incremental(true);
                assert!(!replayed.step_end, "the reference steps nothing");
                let passed = cached.result().is_ok();
                assert_eq!(std::mem::take(&mut cached.step_end), !pushed && passed);
                assert_eq!(cached, replayed);
                tally[0] += usize::from(cached.result().is_err());
                tally[1] += usize::from(from_end);
            }
        }
        tally
    }

    /// A few hundred seeded single-shard logs: three threads of one
    /// random transaction each take random APP / PUSH / UNPUSH / CMT
    /// steps (refused steps are part of the input space), leaving mixed
    /// committed and uncommitted entries of several transactions. One step
    /// in four runs on the full-replay path, so its PUSH appends with no
    /// proof — and must drop its class's end-of-log set.
    fn differential<S: SeqSpec<Method = CounterMethod>>(spec: impl Fn() -> S) {
        let methods = [CounterMethod::Inc, CounterMethod::Dec, CounterMethod::Get];
        let [mut denials, mut from_end] = [0; 2];
        for seed in 1..=300 {
            let mut rng = Xorshift64::new(seed);
            let mut m = Machine::new(spec());
            let tids: Vec<_> = (0..3)
                .map(|_| {
                    let body = (0..rng.gen_index(3)).fold(Code::method(methods[0]), |c, _| {
                        Code::seq(c, Code::method(methods[rng.gen_index(3)]))
                    });
                    m.add_thread(vec![body])
                })
                .collect();
            for _ in 0..20 {
                let t = tids[rng.gen_index(3)];
                let flagged = |m: &Machine<S>, pushed: bool| {
                    let local = m.thread(t).unwrap().local();
                    let mut own = local.entries().iter().filter(|e| e.flag.is_own());
                    own.find(|e| e.flag.is_pushed() == pushed).map(|e| e.op.id)
                };
                m.set_incremental(rng.gen_index(4) != 0);
                let _refusable = match rng.gen_index(4) {
                    0 => m.app_auto(t).map(|_| ()),
                    1 => flagged(&m, false).map_or(Ok(()), |id| m.push(t, id)),
                    2 => flagged(&m, true).map_or(Ok(()), |id| m.unpush(t, id)),
                    _ => m.commit(t).map(|_| ()),
                };
                let [denied, ended] = compare(&m);
                denials += denied;
                from_end += ended;
            }
        }
        assert!(denials > 100, "the sweep must exercise denials ({denials})");
        assert!(
            from_end > 1000,
            "the sweep must reach the end-of-log sets ({from_end})"
        );
    }

    /// No rule removes a committed entry, so only a test can reach below
    /// the committed boundary: the shard's cache must then forget what it
    /// memoized, or the next verdict replays a log that no longer exists.
    #[test]
    fn a_removal_below_the_committed_boundary_resets_the_cache() {
        let mut m = Machine::new(ToyCounter::with_bound(2));
        let inc = || vec![Code::method(CounterMethod::Inc)];
        let tids = [inc(), inc(), inc()].map(|body| m.add_thread(body));
        for t in &tids[..2] {
            let op = m.app_auto(*t).unwrap();
            m.push(*t, op).unwrap();
            m.commit(*t).unwrap();
        }
        m.app_auto(tids[2]).unwrap();
        assert_eq!(
            compare(&m)[0],
            1,
            "two committed incs: the bound is reached"
        );
        let first = m.global().iter().next().expect("two entries").op.id;
        {
            let mut view = m.global_state().acquire_route(Route::Single(0));
            let at = view.find(first).expect("committed entries are found too");
            view.remove(at);
        }
        assert_eq!(compare(&m)[0], 0, "one committed inc left: there is room");
    }

    /// The full-replay reference never reads an end-of-log set, and the
    /// cached PUSH (iii) starts from one: with the set emptied behind the
    /// cache's back, the reference still allows the second `Inc`, while the
    /// cached path denies it — in a debug build its cross-check against the
    /// suffix replay trips first, so only a release build asks.
    #[test]
    fn only_the_cached_push_reads_the_end_of_log_set() {
        let mut m = Machine::new(ToyCounter::with_bound(2));
        let inc = || Code::method(CounterMethod::Inc);
        let t = m.add_thread(vec![Code::seq(inc(), inc())]);
        let first = m.app_auto(t).unwrap();
        m.app_auto(t).unwrap();
        m.push(t, first).unwrap();
        let second = m.thread(t).unwrap().local().entries()[1].op.clone();
        let global = m.global_state();
        let allows = |incremental| {
            global.set_incremental(incremental);
            let mut view = global.acquire_route(Route::Single(0));
            assert_eq!(view.end_sets(), 1, "the first PUSH installed its proof");
            view.poison_end_sets();
            push(global, &view, second.txn, &second).result().is_ok()
        };
        assert!(allows(false), "the reference read the end-of-log set");
        #[cfg(not(debug_assertions))]
        assert!(!allows(true), "the cached path did not start from it");
    }

    #[test]
    fn incremental_and_full_replay_verdicts_agree_on_toy_counter() {
        differential(|| ToyCounter::with_bound(2));
    }

    #[test]
    fn incremental_and_full_replay_verdicts_agree_on_strict_counter() {
        differential(|| StrictCounter::with_bound(2));
    }
}
