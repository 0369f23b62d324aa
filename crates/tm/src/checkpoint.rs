//! Checkpoints / partial abort (§6.2's extension: "Transactions that use
//! checkpoints \[19\] … are similar to the above optimistic models, except
//! that placemarkers are set so that, if an abort is detected, UNAPP only
//! needs to be performed for some operations").
//!
//! The placemarkers are first-class *checkpoint scopes*
//! ([`TxnHandle::begin_checkpoint`]): one closed marker frame before
//! every operation. On a commit-time conflict this driver does not throw
//! the whole transaction away: it locates the *first* operation the
//! shared log no longer admits and aborts the scope suffix from that
//! checkpoint ([`TxnHandle::abort_to_checkpoint`]), refreshes its view,
//! and re-executes only the invalidated suffix. Thanks to UNAPP's saved
//! code/stack snapshots, the machine restores the continuation for free —
//! the paper's point that the model "permits threads to roll backwards to
//! any execution point".

use std::marker::PhantomData;

use pushpull_core::error::MachineError;
use pushpull_core::spec::SeqSpec;
use pushpull_core::{Code, TxnHandle};

use crate::driver::{Algorithm, Driver, Outcome, Phase};
use crate::util::pull_committed_lenient;

/// An optimistic system with checkpoint-based partial aborts.
///
/// # Examples
///
/// ```
/// use pushpull_tm::checkpoint::CheckpointOptimistic;
/// use pushpull_tm::driver::TmSystem;
/// use pushpull_spec::counter::{Counter, CtrMethod};
/// use pushpull_core::lang::Code;
/// use pushpull_core::op::ThreadId;
///
/// let prog = vec![Code::seq_all(vec![
///     Code::method(CtrMethod::Add(1)),
///     Code::method(CtrMethod::Get),
/// ])];
/// let mut sys = CheckpointOptimistic::new(Counter::new(), vec![prog]);
/// while !sys.is_done() {
///     sys.tick(ThreadId(0))?;
/// }
/// assert_eq!(sys.stats().commits, 1);
/// # Ok::<(), pushpull_core::error::MachineError>(())
/// ```
pub type CheckpointOptimistic<S> = Driver<Checkpoint<S>>;

/// The checkpointing algorithm: no cross-thread driver state at all.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    spec: PhantomData<fn() -> S>,
}

/// Per-thread driver state, owned by exactly one worker.
#[derive(Debug, Clone, Default)]
pub struct CkptThread {
    phase: Phase,
    partial_rewinds: u64,
    ops_salvaged: u64,
}

/// Validates the thread's own operations against the current shared log,
/// returning the index (into the local log) of the first entry that is no
/// longer admissible, if any.
fn first_invalid<S: SeqSpec>(h: &TxnHandle<S>) -> Option<usize> {
    let mut prefix = h.global_snapshot().committed_ops();
    for (idx, e) in h.local().iter().enumerate() {
        if e.flag.is_pulled() {
            // Pulled entries either are still in G (fine) or belong
            // to the prefix already; skip membership bookkeeping —
            // the machine's CMT criteria re-check them anyway.
            continue;
        }
        if !h.spec().allows(&prefix, &e.op) {
            return Some(idx);
        }
        prefix.push(e.op.clone());
    }
    None
}

impl<S: SeqSpec> Algorithm for Checkpoint<S> {
    type Spec = S;
    type Thread = CkptThread;

    fn name(&self) -> &'static str {
        "checkpoint-optimistic"
    }

    /// One checkpointing tick: validation and partial rewinds run
    /// entirely on the thread's own handle against a consistent snapshot.
    fn step(&self, h: &mut TxnHandle<S>, t: &mut CkptThread) -> Result<Outcome, MachineError> {
        if t.phase == Phase::Begin {
            pull_committed_lenient(h)?;
            t.phase = Phase::Running;
            return Ok(Outcome::Progress);
        }
        let options = h.step_options()?;
        if !options.is_empty() {
            let method = options[0].0.clone();
            // The §6.2 placemarker: a checkpoint scope before every
            // operation, so any suffix is later abortable on its own.
            h.begin_checkpoint()?;
            return match h.app_method(&method) {
                Ok(_) => Ok(Outcome::Progress),
                Err(MachineError::NoAllowedResult(_)) | Err(MachineError::Criterion(_)) => {
                    // Local view wedged: partial-abort to the checkpoint
                    // before the first invalid entry instead of a full
                    // abort.
                    match first_invalid(h) {
                        Some(idx) => rewind_to(h, t, idx),
                        None => Ok(Outcome::Abort),
                    }
                }
                Err(e) => Err(e),
            };
        }
        // Commit phase.
        match first_invalid(h) {
            None => match h.push_all_and_commit() {
                Ok(_) => {
                    t.phase = Phase::Begin;
                    Ok(Outcome::Committed)
                }
                // Raced between validation and push: fall through to a
                // partial rewind on the next tick — but let the contention
                // policy bound the wait, since the conflict may be with
                // another thread's *uncommitted* pushed ops, which
                // validation cannot see: two threads whose uncommitted
                // pushed ops conflict would otherwise block each other
                // forever (`push_all_and_commit` does not unwind partial
                // pushes). A full abort UNPUSHes everything and breaks the
                // cycle.
                Err(e) if e.is_criterion() => Ok(Outcome::Wait),
                Err(e) => Err(e),
            },
            // The §6.2 move: abort the scope suffix, UNAPPing only the
            // invalidated operations.
            Some(idx) => rewind_to(h, t, idx),
        }
    }

    fn abort(&self, h: &mut TxnHandle<S>, t: &mut CkptThread) -> Result<(), MachineError> {
        h.abort_and_retry()?;
        t.phase = Phase::Begin;
        Ok(())
    }
}

/// Partially aborts to the checkpoint before local entry `idx` and
/// refreshes the view: the transaction goes on from there.
fn rewind_to<S: SeqSpec>(
    h: &mut TxnHandle<S>,
    t: &mut CkptThread,
    idx: usize,
) -> Result<Outcome, MachineError> {
    h.abort_to_checkpoint(idx)?;
    pull_committed_lenient(h)?;
    t.partial_rewinds += 1;
    t.ops_salvaged += idx as u64;
    Ok(Outcome::Progress)
}

impl<S: SeqSpec> CheckpointOptimistic<S> {
    /// Creates a system running `programs[i]` on thread `i` under the
    /// default contention policy. Its `stats().aborts` counts *full*
    /// aborts only; see [`CheckpointOptimistic::partial_rewinds`].
    pub fn new(spec: S, programs: Vec<Vec<Code<S::Method>>>) -> Self {
        Driver::host(Checkpoint { spec: PhantomData }, spec, programs)
    }

    /// Conflicts resolved by rewinding to a checkpoint rather than
    /// restarting the transaction.
    pub fn partial_rewinds(&self) -> u64 {
        self.locals().map(|t| t.partial_rewinds).sum()
    }

    /// Operations that survived partial rewinds (work saved vs a full
    /// abort).
    pub fn ops_salvaged(&self) -> u64 {
        self.locals().map(|t| t.ops_salvaged).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Tick, TmSystem};
    use crate::util::run_round_robin;
    use pushpull_core::op::ThreadId;
    use pushpull_core::serializability::check_machine;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

    #[test]
    fn clean_runs_commit_without_rewinds() {
        let mut sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Write(Loc(0), 1))],
                vec![Code::method(MemMethod::Write(Loc(1), 2))],
            ],
        );
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert_eq!(sys.partial_rewinds(), 0);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn conflict_in_suffix_is_rewound_partially() {
        // T1: write(5); write(7); get-of-0 — the first two ops touch
        // private locations, only the read of loc 0 is invalidated when
        // T0 commits a write to loc 0 in between.
        let mut sys = CheckpointOptimistic::new(
            RwMem::new(),
            vec![
                vec![Code::method(MemMethod::Write(Loc(0), 9))],
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Write(Loc(5), 1)),
                    Code::method(MemMethod::Write(Loc(7), 2)),
                    Code::method(MemMethod::Read(Loc(0))),
                ])],
            ],
        );
        let (a, b) = (ThreadId(0), ThreadId(1));
        // T1 applies everything against the empty snapshot (read -> 0).
        sys.tick(b).unwrap(); // begin
        sys.tick(b).unwrap();
        sys.tick(b).unwrap();
        sys.tick(b).unwrap(); // read loc0 = 0
                              // T0 commits its write to loc 0.
        while sys.machine().thread(a).unwrap().commits() == 0 {
            sys.tick(a).unwrap();
        }
        // T1's commit detects the stale read and rewinds ONLY it.
        let t = sys.tick(b).unwrap();
        assert_eq!(t, Tick::Progress);
        assert_eq!(sys.partial_rewinds(), 1);
        assert_eq!(sys.ops_salvaged(), 2, "the two private writes survive");
        assert_eq!(sys.stats().aborts, 0);
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        let report = check_machine(sys.machine());
        assert!(report.is_serializable(), "{report}");
        // The re-executed read observed 9.
        let committed = sys.machine().committed_txns();
        let txn = committed.iter().find(|t| t.thread == b).unwrap();
        assert_eq!(
            txn.ops.last().unwrap().ret,
            pushpull_spec::rwmem::MemRet::Val(9)
        );
    }

    #[test]
    fn conflict_at_head_degenerates_to_full_abort_semantics() {
        // Everything depends on the stale read at position 0: rewind to 0
        // (equivalent to an abort, but through the checkpoint path).
        let mut sys = CheckpointOptimistic::new(
            Counter::new(),
            vec![
                vec![Code::method(CtrMethod::Add(1))],
                vec![Code::seq_all(vec![
                    Code::method(CtrMethod::Get),
                    Code::method(CtrMethod::Add(1)),
                ])],
            ],
        );
        let (a, b) = (ThreadId(0), ThreadId(1));
        sys.tick(b).unwrap(); // begin
        sys.tick(b).unwrap(); // get -> 0
        sys.tick(b).unwrap(); // add
        while sys.machine().thread(a).unwrap().commits() == 0 {
            sys.tick(a).unwrap();
        }
        run_round_robin(&mut sys, 1000);
        assert_eq!(sys.stats().commits, 2);
        assert!(sys.partial_rewinds() >= 1);
        assert!(check_machine(sys.machine()).is_serializable());
    }

    #[test]
    fn randomized_checkpoint_runs_serializable() {
        use pushpull_spec::rwmem::RwMem;
        for seed in 1..=10u64 {
            let mut state = seed;
            let prog = |l0: u32, l1: u32| {
                vec![Code::seq_all(vec![
                    Code::method(MemMethod::Read(Loc(l0))),
                    Code::method(MemMethod::Write(Loc(l1), 1)),
                ])]
            };
            let mut sys =
                CheckpointOptimistic::new(RwMem::new(), vec![prog(0, 1), prog(1, 0), prog(0, 0)]);
            let mut ticks = 0;
            while !sys.is_done() {
                let mut x = state.max(1);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                state = x;
                let t = (x % 3) as usize;
                sys.tick(ThreadId(t)).unwrap();
                ticks += 1;
                assert!(ticks < 1_000_000, "seed {seed} diverged");
            }
            assert_eq!(sys.stats().commits, 3, "seed {seed}");
            assert!(
                check_machine(sys.machine()).is_serializable(),
                "seed {seed}"
            );
        }
    }
}
