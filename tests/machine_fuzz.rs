//! A rule-level fuzzer for the PUSH/PULL machine itself.
//!
//! Unlike the algorithm tests (which exercise the machine through §6's
//! disciplined drivers), this test applies *random admissible rules* —
//! any APP/UNAPP/PUSH/UNPUSH/PULL/UNPULL/CMT that the criteria admit —
//! and asserts that Theorem 5.17 still holds at the end: whatever wild
//! interleaving of rule applications the criteria let through, the
//! committed transactions are serializable and the §5 invariants hold at
//! every step. This is the strongest executable form of the paper's main
//! theorem this reproduction offers.

use pushpull::core::invariants::check_all;
use pushpull::core::lang::Code;
use pushpull::core::log::{GlobalFlag, LocalLog};
use pushpull::core::machine::CheckMode;
use pushpull::core::op::{OpId, ThreadId};
use pushpull::core::rng::Xorshift64;
use pushpull::core::serializability::check_machine;
use pushpull::core::spec::{OpInverse, SeqSpec};
use pushpull::core::toy::{CounterMethod, StrictCounter, ToyCounter, TwoStartCounter};
use pushpull::core::{Machine, MachineError, ScopeKind};
use pushpull::harness::testutil::Redeclared;
use pushpull::spec::bank::{Bank, BankMethod};
use pushpull::spec::counter::{Counter, CtrMethod};
use pushpull::spec::kvmap::{KvMap, MapMethod};
use pushpull::spec::rwmem::{Loc, MemMethod, RwMem};

/// One random rule attempt. Criterion violations are fine (the rule is
/// simply not taken); structural errors for targets we chose in-range
/// are fine too (wrong flag etc.); anything else would be a bug.
fn random_step<S>(m: &mut Machine<S>, rng: &mut Xorshift64) -> bool
where
    S: pushpull::core::spec::SeqSpec,
{
    let n = m.thread_count();
    let tid = ThreadId(rng.gen_index(n));
    if m.thread(tid).map(|t| t.is_done()).unwrap_or(true) {
        return false;
    }
    let kind = rng.gen_range(0..8);
    let result: Result<(), MachineError> = match kind {
        // APP
        0 | 1 => m.app_auto(tid).map(|_| ()),
        // UNAPP
        2 => m.unapp(tid).map(|_| ()),
        // PUSH a random unpushed own op
        3 => {
            let ids = m.unpushed_ids(tid).unwrap_or_default();
            if ids.is_empty() {
                return false;
            }
            let id = ids[rng.gen_index(ids.len())];
            m.push(tid, id)
        }
        // UNPUSH a random pushed own op
        4 => {
            let ids: Vec<OpId> = m
                .thread(tid)
                .map(|t| t.local().pushed_ops().iter().map(|o| o.id).collect())
                .unwrap_or_default();
            if ids.is_empty() {
                return false;
            }
            let id = ids[rng.gen_index(ids.len())];
            m.unpush(tid, id)
        }
        // PULL a random foreign global op
        5 => {
            let own = m.thread(tid).map(|t| t.txn()).unwrap();
            let ids: Vec<OpId> = m
                .global()
                .iter()
                .filter(|e| e.op.txn != own)
                .map(|e| e.op.id)
                .collect();
            if ids.is_empty() {
                return false;
            }
            let id = ids[rng.gen_index(ids.len())];
            m.pull(tid, id)
        }
        // UNPULL a random pulled op
        6 => {
            let ids: Vec<OpId> = m
                .thread(tid)
                .map(|t| t.local().pulled_ops().iter().map(|o| o.id).collect())
                .unwrap_or_default();
            if ids.is_empty() {
                return false;
            }
            let id = ids[rng.gen_index(ids.len())];
            m.unpull(tid, id)
        }
        // CMT
        _ => m.commit(tid).map(|_| ()),
    };
    match result {
        Ok(()) => true,
        Err(MachineError::Criterion(_)) => false,
        Err(MachineError::NoSuchStep(_))
        | Err(MachineError::NoAllowedResult(_))
        | Err(MachineError::NothingToUnapply(_))
        | Err(MachineError::WrongFlag { .. })
        | Err(MachineError::ThreadFinished(_)) => false,
        Err(e) => panic!("unexpected machine error: {e}"),
    }
}

/// After fuzzing, stuck transactions are force-finished: rewind them so
/// only committed work remains, then the oracle judges the result.
fn drain<S: pushpull::core::spec::SeqSpec>(m: &mut Machine<S>) {
    for t in 0..m.thread_count() {
        let tid = ThreadId(t);
        if !m.thread(tid).map(|t| t.is_done()).unwrap_or(true) {
            // A full rewind is always admissible (Lemma 5.15's I_⊆).
            m.rewind_all(tid).expect("rewind must be admissible");
        }
    }
}

#[test]
fn fuzz_counter_machine() {
    for seed in 0..30u64 {
        let mut rng = Xorshift64::new(seed + 1);
        let mut m = Machine::new(Counter::new());
        for _ in 0..3 {
            m.add_thread(vec![
                Code::seq_all(vec![
                    Code::method(CtrMethod::Add(1)),
                    Code::method(CtrMethod::Get),
                ]),
                Code::method(CtrMethod::Add(2)),
            ]);
        }
        for step in 0..400 {
            random_step(&mut m, &mut rng);
            if step % 50 == 0 {
                let v = check_all(&m);
                assert!(v.is_empty(), "seed {seed} step {step}: {v:?}");
            }
        }
        drain(&mut m);
        let v = check_all(&m);
        assert!(v.is_empty(), "seed {seed} post-drain: {v:?}");
        let report = check_machine(&m);
        assert!(report.is_serializable(), "seed {seed}: {report}");
    }
}

#[test]
fn fuzz_kvmap_machine() {
    for seed in 0..30u64 {
        let mut rng = Xorshift64::new(1000 + seed);
        let mut m = Machine::new(KvMap::new());
        for t in 0..3u64 {
            m.add_thread(vec![
                Code::seq_all(vec![
                    Code::method(MapMethod::Put(t % 2, t as i64)),
                    Code::method(MapMethod::Get((t + 1) % 2)),
                ]),
                Code::method(MapMethod::Remove(t % 3)),
            ]);
        }
        for _ in 0..400 {
            random_step(&mut m, &mut rng);
        }
        let mid = check_all(&m);
        assert!(mid.is_empty(), "seed {seed}: {mid:?}");
        drain(&mut m);
        let report = check_machine(&m);
        assert!(report.is_serializable(), "seed {seed}: {report}");
    }
}

/// The fuzzer must actually commit work sometimes — guard against a
/// vacuously-passing test.
#[test]
fn fuzz_commits_nontrivially() {
    let mut total_commits = 0u64;
    for seed in 0..20u64 {
        let mut rng = Xorshift64::new(500 + seed);
        let mut m = Machine::new(Counter::new());
        for _ in 0..2 {
            m.add_thread(vec![Code::method(CtrMethod::Add(1))]);
        }
        for _ in 0..200 {
            random_step(&mut m, &mut rng);
        }
        total_commits += m.committed_txns().len() as u64;
        // Sanity: the committed log denotes a consistent counter value.
        let committed = m.global().committed_ops();
        assert!(m.spec().allowed(&committed));
        let uncommitted = m
            .global()
            .iter()
            .filter(|e| e.flag == GlobalFlag::Uncommitted)
            .count();
        let _ = uncommitted;
    }
    assert!(
        total_commits >= 10,
        "fuzzer committed almost nothing: {total_commits}"
    );
}

/// Every kind of step [`seeded_step`] knows, once each: APP (three times
/// as likely), UNAPP, PULL of any foreign entry, UNPULL at the tail and
/// mid-log, the strict and the lenient refresh, PUSH, UNPUSH, CMT,
/// `abort_and_retry` and the nested-scope steps.
const ANY_STEP: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// [`ANY_STEP`] narrowed to the steps that read or change `G`, so that
/// most of a run is spent where the shared criteria differ: APP, the
/// strict refresh (what lets a later operation observe a committed
/// value), PUSH, UNPUSH, CMT and, rarely, `abort_and_retry`.
const SHARED_STEP: [usize; 12] = [0, 1, 2, 7, 7, 9, 9, 9, 10, 11, 11, 12];

/// One seeded attempt at a rule or derived operation drawn from `kinds`,
/// local criteria first. Every outcome — a criterion denial, a structural
/// refusal — is part of the input space.
fn seeded_step<S: SeqSpec>(
    m: &mut Machine<S>,
    rng: &mut Xorshift64,
    kinds: &[usize],
) -> Result<(), MachineError> {
    let tid = ThreadId(rng.gen_index(m.thread_count()));
    let local = m.thread(tid)?.local().clone();
    let kind = kinds[rng.gen_index(kinds.len())];
    step_on(m, rng, tid, kind, &local)
}

/// Step `kind` on thread `tid`, its targets drawn from `local` — the
/// thread's own log, or (for a pair of machines whose logs differ) the
/// log of the one the targets must come from.
fn step_on<S: SeqSpec>(
    m: &mut Machine<S>,
    rng: &mut Xorshift64,
    tid: ThreadId,
    kind: usize,
    local: &LocalLog<S::Method, S::Ret>,
) -> Result<(), MachineError> {
    let mut pick = |ids: Vec<OpId>| match ids.len() {
        0 => OpId(u64::MAX),
        n => ids[rng.gen_index(n)],
    };
    match kind {
        0..=2 => m.app_auto(tid).map(|_| ()),
        3 => m.unapp(tid).map(|_| ()),
        4 => {
            let (own, global) = (m.thread(tid)?.current_txn(), m.global());
            let foreign = global.iter().filter(|e| e.op.txn != own);
            m.pull(tid, pick(foreign.map(|e| e.op.id).collect()))
        }
        5 => m.unpull(
            tid,
            local.entries().last().map_or(OpId(u64::MAX), |e| e.op.id),
        ),
        6 => m.unpull(tid, pick(local.pulled_ops().iter().map(|o| o.id).collect())),
        7 => m.pull_all_committed(tid).map(|_| ()),
        8 => m.handle_mut(tid)?.pull_committed_lenient().map(|_| ()),
        9 => m.push(
            tid,
            pick(local.not_pushed_ops().iter().map(|o| o.id).collect()),
        ),
        10 => m.unpush(tid, pick(local.pushed_ops().iter().map(|o| o.id).collect())),
        11 => m.commit(tid).map(|_| ()),
        12 => m.abort_and_retry(tid).map(|_| ()),
        13 => {
            let kind = [ScopeKind::Closed, ScopeKind::Open][rng.gen_index(2)];
            m.begin_nested(tid, kind).map(|_| ())
        }
        14 => m.commit_nested(tid),
        _ => m.abort_nested(tid),
    }
}

/// Three threads of three seeded transactions each, one to three
/// operations drawn from `methods`.
fn add_seeded_threads<S: SeqSpec>(m: &mut Machine<S>, rng: &mut Xorshift64, methods: &[S::Method]) {
    for _ in 0..3 {
        let txn = |rng: &mut Xorshift64| {
            let ops = (0..=rng.gen_index(3)).map(|_| methods[rng.gen_index(methods.len())].clone());
            Code::seq_all(ops.map(Code::method))
        };
        let programs = (0..3).map(|_| txn(rng)).collect();
        m.add_thread(programs);
    }
}

/// The incremental paths — the handles' carried local denotation, the
/// shards' per-class committed-prefix caches and the scans that start at
/// the committed boundary — against the full-replay reference: a machine
/// and its clone, `set_incremental(true)` and `(false)`, take the same few
/// thousand seeded steps and must agree on every result and error, every
/// trace, every audit tally, `G` and the committed list after every step
/// (in debug builds the handle also asserts its carried set is `⟦L⟧` each
/// time it reads it). Returns how many steps a criterion denied.
fn carried_vs_replayed<S>(
    spec: impl Fn() -> S,
    shards: usize,
    methods: &[S::Method],
    kinds: &[usize],
) -> usize
where
    S: SeqSpec + Clone,
    S::Ret: PartialEq,
{
    let mut denials = 0;
    for seed in 1..=60 {
        let mut rng = Xorshift64::new(seed);
        let mut carried = Machine::new(spec());
        add_seeded_threads(&mut carried, &mut rng, methods);
        carried.set_log_shards(shards);
        let mut replayed = carried.clone();
        carried.set_incremental(true);
        replayed.set_incremental(false);
        for step in 0..120 {
            let got = seeded_step(&mut carried, &mut rng.clone(), kinds);
            let want = seeded_step(&mut replayed, &mut rng, kinds);
            assert_eq!(got, want, "seed {seed} step {step}");
            assert_eq!(carried.audit(), replayed.audit(), "seed {seed} step {step}");
            assert!(
                carried.trace() == replayed.trace(),
                "seed {seed} step {step}: traces"
            );
            assert!(
                carried.global() == replayed.global(),
                "seed {seed} step {step}: G"
            );
            assert!(
                carried.committed_txns() == replayed.committed_txns(),
                "seed {seed} step {step}: committed"
            );
            denials += usize::from(matches!(got, Err(MachineError::Criterion(_))));
        }
    }
    denials
}

#[test]
fn carried_and_replayed_local_criteria_agree_on_toy_counter() {
    let methods = [CounterMethod::Inc, CounterMethod::Dec, CounterMethod::Get];
    let denials = carried_vs_replayed(|| ToyCounter::with_bound(2), 1, &methods, &ANY_STEP);
    assert!(denials > 100, "the sweep must exercise denials ({denials})");
}

#[test]
fn carried_and_replayed_local_criteria_agree_on_strict_counter() {
    let methods = [CounterMethod::Inc, CounterMethod::Dec, CounterMethod::Get];
    let denials = carried_vs_replayed(|| StrictCounter::with_bound(2), 1, &methods, &ANY_STEP);
    assert!(denials > 100, "the sweep must exercise denials ({denials})");
}

#[test]
fn carried_and_replayed_local_criteria_agree_on_kvmap() {
    let methods = [
        MapMethod::Put(0, 1),
        MapMethod::Put(1, 2),
        MapMethod::Get(0),
        MapMethod::Get(1),
        MapMethod::Remove(0),
    ];
    // Four shards: the multi-shard CMT section rides along.
    let denials = carried_vs_replayed(KvMap::new, 4, &methods, &ANY_STEP);
    assert!(denials > 100, "the sweep must exercise denials ({denials})");
}

/// Class-local replay against whole-log replay where it can matter: at
/// 2 and at 4 shards over `3 × shards` keys, so every shard holds at least
/// three footprint classes (the KvMap case above puts each key on a shard
/// of its own, where class = shard). PUSH (iii) / UNPUSH (ii) then step
/// one class's cached set over the suffix entries of that class only, and
/// must say what the reference says with every other key's history
/// replayed too.
///
/// Mutation check, made in release (`cargo test --release --test
/// machine_fuzz`; EXPERIMENTS.md "PR 20" has the runs): with the class
/// filter on the suffix dropped from `LogView::replay`, all three tests
/// fail within the first 25 seeds — an operation that observed a
/// committed value is stepped over a set that never saw its key — and
/// with the cache advance folding entries into a wrong class they fail
/// within the first 5, while `carried_and_replayed_…_on_kvmap` above, one
/// key per shard, passes under both. That takes [`SHARED_STEP`]: under
/// [`ANY_STEP`] the first mutant survived 60 seeds on `Bank` and `RwMem`.
/// A PUSH (ii) scan started one entry past the committed boundary fails
/// every differential test in this file. The reset on a removal below the
/// boundary cannot be reached through the rules; `criteria.rs`'s
/// `a_removal_below_the_committed_boundary_resets_the_cache` covers it.
fn projected_vs_replayed<S, const K: usize>(
    spec: impl Fn() -> S,
    per_key: impl Fn(u64) -> [S::Method; K],
) where
    S: SeqSpec + Clone,
    S::Ret: PartialEq,
{
    for shards in [2, 4] {
        // Every key once, and two keys of shard 0 three times more: most
        // conflicts then involve two classes of one shard.
        let hot = [0, shards as u64];
        let keys = (0..3 * shards as u64).chain(hot.into_iter().cycle().take(6));
        let methods: Vec<S::Method> = keys.flat_map(&per_key).collect();
        let denials = carried_vs_replayed(&spec, shards, &methods, &SHARED_STEP);
        assert!(
            denials > 100,
            "the sweep must exercise denials ({denials} at {shards} shards)"
        );
    }
}

#[test]
fn projected_and_full_replay_criteria_agree_on_kvmap() {
    projected_vs_replayed(KvMap::new, |k| {
        [MapMethod::Put(k, k as i64), MapMethod::Get(k)]
    });
}

#[test]
fn projected_and_full_replay_criteria_agree_on_bank() {
    projected_vs_replayed(Bank::new, |a| {
        let a = a as u32;
        [
            BankMethod::Deposit(a, 2),
            BankMethod::Withdraw(a, 1),
            BankMethod::Balance(a),
        ]
    });
}

#[test]
fn projected_and_full_replay_criteria_agree_on_rwmem() {
    projected_vs_replayed(RwMem::new, |l| {
        let l = Loc(l as u32);
        [MemMethod::Write(l, i64::from(l.0) + 1), MemMethod::Read(l)]
    });
}

/// The lenient refresh by hand, the way it was before it had a footprint:
/// every committed entry of `G` that `L` lacks, PULLed by id in log order,
/// denials skipped. Returns how many were pulled.
fn pull_everything_leniently<S: SeqSpec>(m: &mut Machine<S>, tid: ThreadId) -> usize {
    let local = m.thread(tid).expect("thread").local().clone();
    let global = m.global();
    let committed = global.iter().filter(|e| e.flag == GlobalFlag::Committed);
    let fresh = committed.filter(|e| !local.contains_id(e.op.id));
    let pulled = fresh.filter(|e| match m.pull(tid, e.op.id) {
        Ok(()) => true,
        Err(MachineError::Criterion(_)) => false,
        Err(e) => panic!("lenient pull: {e}"),
    });
    pulled.count()
}

/// UNPULLs from the tail of thread `tid`'s log the pulled entries `other`
/// — the same thread's log on the other machine of a pair — does not hold:
/// they would stand between UNAPP and the entry it rewinds on one side
/// only. The full side holds operations the transaction cannot touch; the
/// filtered side may hold a key-less one (`Size -> n`) that only a log
/// without the other keys allows. UNPULL at the tail always holds (prefix
/// closure).
fn unpull_tail_beyond<S: SeqSpec>(
    m: &mut Machine<S>,
    tid: ThreadId,
    other: &LocalLog<S::Method, S::Ret>,
) {
    let beyond = |m: &Machine<S>| {
        let tail = m.thread(tid).unwrap().local().entries().last();
        tail.filter(|e| e.flag.is_pulled() && !other.contains_id(e.op.id))
            .map(|e| e.op.id)
    };
    while let Some(id) = beyond(m) {
        m.unpull(tid, id).expect("UNPULL at the tail");
    }
}

/// UNPULLs from thread `tid`'s log, wherever they sit, the committed reads
/// `other` — the filtered side's log — does not hold, when `⟦ε⟧` has one
/// state: the reads the filtered refresh left in `G`. A read pins the state
/// it observed, so on the full side it can deny an UNPULL of an earlier
/// operation that the filtered side takes. Removing it always holds: it
/// changed no state of `L`.
fn unpull_reads_beyond<S: SeqSpec>(
    m: &mut Machine<S>,
    tid: ThreadId,
    other: &LocalLog<S::Method, S::Ret>,
) {
    if m.spec().initial_states().len() != 1 {
        return;
    }
    let local = m.thread(tid).unwrap().local();
    let reads = local.entries().iter().filter(|e| {
        e.flag.is_pulled()
            && !other.contains_id(e.op.id)
            && m.spec().inverse(&e.op) == OpInverse::ReadOnly
    });
    for id in reads.map(|e| e.op.id).collect::<Vec<_>>() {
        m.unpull(tid, id).expect("UNPULL of a read");
    }
}

/// The steps of [`footprint_vs_full`], numbered like [`seeded_step`]'s:
/// APP (three times), UNAPP, UNPULL at the tail and mid-log, the lenient
/// refresh (four times), PUSH (twice), UNPUSH, CMT (twice),
/// `abort_and_retry` and the nested-scope steps. No PULL by id: an
/// *uncommitted* operation the transaction cannot touch, pulled on one side
/// and denied on the other, would be a CMT (iii) difference the refresh —
/// which pulls committed operations only — has no part in.
const REFRESH_STEP: [usize; 19] = [
    0, 1, 2, 3, 5, 6, 8, 8, 8, 8, 9, 9, 10, 11, 11, 12, 13, 14, 15,
];

/// The footprint-filtered lenient refresh against pulling everything: a
/// machine and its clone take the same seeded steps, one refreshing through
/// `pull_committed_lenient`, the other through
/// [`pull_everything_leniently`]. What the second pulls beyond the first
/// are operations its transaction cannot touch, and — under a one-state
/// `⟦ε⟧` — committed reads, which change no state `L` can hold; so after
/// every step both
/// must answer `allowed_results` alike for every method any thread can
/// still reach, give the same result for every APP, UNAPP, PUSH, UNPUSH,
/// CMT, abort and scope step, and hold the same `G` and the same committed
/// transactions (all but `pulled_from`, which is the difference under
/// test) — and every keyed operation only the full side holds must lie
/// outside the footprint as the test computes it, or be a read under a
/// one-state `⟦ε⟧`. Targets are drawn from
/// the footprint side's log, and UNPULL results are not compared: the other
/// side's copy may sit below later pulls of a key the transaction has since
/// left behind.
///
/// The same twelve keys at 1, 2 and 4 shards — three or more per shard —
/// so the `(seed, pulled)` sequence of the refreshes must also be the same
/// at every shard count: the filter is on declared keys. Returns that
/// sequence and how many refreshes left at least one operation out.
///
/// Mutation check, in release (EXPERIMENTS.md "PR 21" has the runs). With
/// the filter on `key % N`, one shard leaves something out twice in the
/// sweep instead of hundreds of times, and the `(seed, pulled)` sequences
/// disagree from seed 1. With key-less entries dropped the `KvMap` run —
/// whose `Remove` is re-declared key-less, a mutator with no footprint —
/// answers a `Put` differently at seed 19; with the coarse fallback
/// removed it does so at 2 shards, a key-less entry living on shard 0.
/// (That seed's `Remove` is a *compensation*, and the run found a bug older
/// than the refresh: a compensation whose inverse has no footprint left
/// its entry on shard 0 without setting the sticky coarse flag.) With the
/// own entries of `L` left out of the footprint every *answer* still
/// agrees, and must: UNAPP takes the tail of `L`, so whatever was pulled
/// after an own operation is UNPULLed before its method can return to the
/// code. The structural clause is what fails (seeds 1, 1 and 6 on `KvMap`,
/// `Bank`, `RwMem`).
fn footprint_vs_full<S>(
    spec: &impl Fn() -> S,
    shards: usize,
    methods: &[S::Method],
) -> (Vec<(u64, usize)>, usize)
where
    S: SeqSpec + Clone,
    S::Ret: PartialEq,
{
    let (mut counts, mut dropped) = (Vec::new(), 0);
    for seed in 1..=60 {
        let mut rng = Xorshift64::new(seed);
        // Every other seed without the gray criteria: PULL (iii) is what
        // keeps a transaction from pulling past an own operation whose
        // result the pulled one would change.
        let mode = [CheckMode::Checked, CheckMode::RelaxedGray][seed as usize % 2];
        let mut filtered = Machine::with_mode(spec(), mode);
        add_seeded_threads(&mut filtered, &mut rng, methods);
        filtered.set_log_shards(shards);
        let mut full = filtered.clone();
        for step in 0..160 {
            let at = format!("seed {seed} step {step} at {shards} shards");
            let tid = ThreadId(rng.gen_index(filtered.thread_count()));
            let kind = REFRESH_STEP[rng.gen_index(REFRESH_STEP.len())];
            let local = filtered.thread(tid).unwrap().local().clone();
            if kind == 8 {
                if filtered.thread(tid).unwrap().is_done() {
                    // Its last transaction's operations are in `G` under the
                    // id it still carries: "own op", either way.
                    continue;
                }
                let got = filtered.handle_mut(tid).unwrap().pull_committed_lenient();
                let got = got.unwrap_or_else(|e| panic!("{at}: {e}"));
                let all = pull_everything_leniently(&mut full, tid);
                counts.push((seed, got));
                dropped += usize::from(got < all);
            } else {
                if kind == 3 {
                    let other = full.thread(tid).unwrap().local().clone();
                    unpull_tail_beyond(&mut full, tid, &local);
                    unpull_tail_beyond(&mut filtered, tid, &other);
                }
                if matches!(kind, 5 | 6) {
                    unpull_reads_beyond(&mut full, tid, &local);
                }
                let got = step_on(&mut filtered, &mut rng.clone(), tid, kind, &local);
                let want = step_on(&mut full, &mut rng, tid, kind, &local);
                assert!(
                    matches!(kind, 5 | 6) || got == want,
                    "{at}: {got:?} / {want:?}"
                );
            }
            for t in 0..filtered.thread_count() {
                let (a, b) = (filtered.thread(ThreadId(t)), full.thread(ThreadId(t)));
                let (a, b) = (a.unwrap(), b.unwrap());
                assert_eq!(a.code(), b.code(), "{at}: thread {t} code");
                let reachable = a.code().map(|c| c.reachable_methods()).unwrap_or_default();
                for m in &reachable {
                    assert!(
                        a.allowed_results(m).unwrap() == b.allowed_results(m).unwrap(),
                        "{at}: thread {t} answers {m:?} differently"
                    );
                }
                // The definition itself: a keyed operation only the full
                // side holds is one the transaction cannot touch — its keys
                // are declared by no reachable method and no own entry — or
                // a read, which a one-state `⟦ε⟧` leaves in `G`.
                let reads_stay = a.spec().initial_states().len() == 1;
                let own = a.local().iter().filter(|e| e.flag.is_own());
                let touched = reachable.iter().chain(own.map(|e| &e.op.method));
                let footprint: Option<Vec<u64>> = touched
                    .map(|m| a.spec().method_keys(m).map(|keys| keys.to_vec()))
                    .collect::<Option<Vec<_>>>()
                    .map(|keys| keys.concat());
                let beyond = b.local().iter().filter(|e| !a.local().contains_id(e.op.id));
                for e in beyond {
                    if let Some(declared) = a.spec().method_keys(&e.op.method) {
                        let touchable = footprint
                            .as_ref()
                            .is_none_or(|f| declared.iter().any(|k| f.contains(k)));
                        let read = reads_stay && a.spec().inverse(&e.op) == OpInverse::ReadOnly;
                        assert!(
                            !touchable || read,
                            "{at}: thread {t} was not handed {}",
                            e.op.id
                        );
                    }
                }
            }
            assert!(filtered.global() == full.global(), "{at}: G");
            let committed = |m: &Machine<S>| {
                let txns = m.committed_txns().into_iter();
                let but_pulled_from = txns.map(|c| (c.txn, c.thread, c.code, c.ops, c.kind));
                but_pulled_from.collect::<Vec<_>>()
            };
            assert!(committed(&filtered) == committed(&full), "{at}: committed");
        }
    }
    (counts, dropped)
}

/// [`footprint_vs_full`] over twelve keys (0 and 5 — shards 0 and 1 at 2
/// and at 4 shards — three times more likely, so committed history and
/// conflicts meet on them) plus `extra` methods, at 1, 2 and 4 shards.
fn footprint_and_full_refresh_agree<S, const K: usize>(
    spec: impl Fn() -> S,
    per_key: impl Fn(u64) -> [S::Method; K],
    extra: &[S::Method],
) where
    S: SeqSpec + Clone,
    S::Ret: PartialEq,
{
    let keys = (0..12).chain([0, 5].into_iter().cycle().take(6));
    let mut methods: Vec<S::Method> = keys.flat_map(&per_key).collect();
    methods.extend_from_slice(extra);
    let (at_one, dropped) = footprint_vs_full(&spec, 1, &methods);
    assert!(
        dropped > 100,
        "the sweep must reach refreshes that leave operations out ({dropped})"
    );
    for shards in [2, 4] {
        let (counts, _) = footprint_vs_full(&spec, shards, &methods);
        let differ = counts.iter().zip(&at_one).find(|(here, one)| here != one);
        assert!(
            counts == at_one,
            "(seed, pulled) at {shards} shards and at 1: {differ:?}"
        );
    }
}

#[test]
fn footprint_and_full_refresh_agree_on_kvmap() {
    // `Remove` re-declared key-less: a mutator with no footprint, which
    // every refresh must pull whatever its own keys are (`Size`, the one
    // key-less method `KvMap` has, writes nothing).
    let spec = || Redeclared {
        inner: KvMap::new(),
        keys: |m| match m {
            MapMethod::Remove(_) => None,
            keyed => KvMap::new().method_keys(keyed),
        },
    };
    footprint_and_full_refresh_agree(
        spec,
        |k| [MapMethod::Put(k, k as i64), MapMethod::Get(k)],
        &[MapMethod::Remove(0), MapMethod::Remove(5), MapMethod::Size],
    );
}

#[test]
fn footprint_and_full_refresh_agree_on_bank() {
    footprint_and_full_refresh_agree(
        Bank::new,
        |a| {
            let a = a as u32;
            [
                BankMethod::Deposit(a, 2),
                BankMethod::Withdraw(a, 1),
                BankMethod::Balance(a),
            ]
        },
        &[],
    );
}

#[test]
fn footprint_and_full_refresh_agree_on_rwmem() {
    footprint_and_full_refresh_agree(
        RwMem::new,
        |l| {
            let l = Loc(l as u32);
            [MemMethod::Write(l, i64::from(l.0) + 1), MemMethod::Read(l)]
        },
        &[],
    );
}

/// A counter declares no keys, so every refresh concerns everything and
/// reads are the only thing it leaves out: with one initial state the
/// committed `Get`s stay in `G` and every answer still agrees; with two,
/// where a `Get` narrows `⟦L⟧`, the refresh leaves out nothing at all.
///
/// Mutation check, in release (EXPERIMENTS.md "PR 29" has the runs): with
/// the one-state guard dropped the two-start run answers a `Get`
/// differently from the full side, and with state-changing operations left
/// in `G` as well the one-start run does, and the three keyed families
/// above fail their structural clause.
#[test]
fn footprint_and_full_refresh_agree_on_counters_with_one_and_two_starts() {
    let methods = [
        CounterMethod::Inc,
        CounterMethod::Dec,
        CounterMethod::Get,
        CounterMethod::Get,
    ];
    let (_, one) = footprint_vs_full(&|| ToyCounter::with_bound(4), 1, &methods);
    assert!(one > 0, "one start: refreshes must leave reads out ({one})");
    let (_, two) = footprint_vs_full(&|| TwoStartCounter::new([1, 3], 4), 1, &methods);
    assert_eq!(two, 0, "two starts: every committed read is pulled");
}
