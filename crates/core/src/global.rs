//! The shared half of the split machine: [`GlobalState`] owns everything
//! the PUSH/PULL rules may contend on — the shared log `G`, the
//! committed-transaction list and the criteria audit — while the
//! per-thread halves live in [`TxnHandle`](crate::handle::TxnHandle).
//!
//! Besides the spec and the check mode it is three owned parts: the log
//! (`global/shared_log.rs`: the shards of `G`, stamps, the committed list,
//! routing and the critical sections), the arming (`global/arming.rs`:
//! fault hook and trace switch) and the counters
//! (`global/counters.rs`: generators, audit and tallies). A deep clone
//! copies each part and a reshard rebuilds the log: one line per part.
//!
//! ## Lock discipline
//!
//! `GlobalState` is `Sync`. The counters part's generators and audit, and
//! the log part's `push_stamp` and flags, are lock-free atomics; each of
//! the log part's `shards` sits behind one short-held
//! [`Mutex`](std::sync::Mutex). The discipline, relied on by the parallel
//! harness:
//!
//! * **APP/UNAPP never lock.** They touch only the handle's local log and
//!   the atomics (fresh ids, audit counters, trace sequence numbers).
//! * **PUSH/UNPUSH** take *their operation's shard lock* for their
//!   criteria-over-`G` and their effect, as one atomic critical section.
//! * **CMT** takes the locks of exactly the shards its pushed operations
//!   and its *unsettled* pulled operations touch, ascending, then appends
//!   to the committed list. An operation pulled while already `gCmt`
//!   settled criterion (iii) at PULL time — no rule un-commits — so only
//!   operations pulled `gUCmt` are looked up, and only their shards held.
//! * A **held commit** (see [`crate::group`]) takes the same shard set
//!   once — `GlobalState::acquire_held` — for all of *one* transaction's
//!   PUSHes, its CMT and, denied, its abort; no section ever holds a
//!   second transaction. It is how `pushpull-server` commits every
//!   eligible session. Inside it each PUSH/UNPUSH
//!   *focuses* the view on its own route's shard, so the kernel reads
//!   (cache, mover scan, audit tallies) exactly what it would under that
//!   shard's own lock.
//! * **PULL** by id locks one shard at a time, ascending, only to locate
//!   and snapshot the pulled entry. The **refresh**
//!   (`GlobalState::committed_except`) snapshots the committed entries the
//!   caller lacks under one acquisition, each lock exactly once — a
//!   consistent cut — and holds nothing while the entries are pulled: of
//!   *every* shard for the strict refresh, of the shards the caller's
//!   footprint keys route to for the lenient one, which pulls only what
//!   those keys concern. PULL's criteria and effect are local; **UNPULL**
//!   is entirely local.
//! * Once the sticky **coarse** flag is set, every shared rule takes
//!   every shard lock.
//!
//! Multi-shard acquisitions always lock in ascending shard-index order,
//! and the log part's `committed` list's mutex is only ever taken while
//! already holding shard locks (never the reverse), so the lock order is
//! total.

use std::sync::{Arc, LockResult};

use crate::lang::Code;
use crate::machine::CheckMode;
use crate::op::{Op, OpId, ThreadId, TxnId};
use crate::spec::{SeqSpec, StateSet};

mod arming;
mod counters;
mod shared_log;

use arming::Arming;
use counters::Counters;
pub use counters::GroupStats;
pub(crate) use counters::Nesting;
use shared_log::SharedLog;
pub(crate) use shared_log::{LogView, Route};

/// How a committed transaction relates to the nesting structure of the
/// thread that ran it — the per-level tag the nested serializability
/// oracle groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// An ordinary top-level transaction (nesting level 0). All commits
    /// were this kind before scopes existed, so it is the default.
    Top,
    /// An open-nested child that committed to `G` from inside a still-
    /// running parent at the given nesting level (1 = direct child of a
    /// top-level transaction).
    OpenChild {
        /// The enclosing transaction at commit time. The parent may
        /// later commit (appearing after this child in commit order) or
        /// abort (in which case a [`TxnKind::Compensation`] undoing this
        /// child must appear instead).
        parent: TxnId,
        /// Nesting depth of the child (≥ 1).
        level: usize,
    },
    /// A compensating transaction replayed by an aborting parent to undo
    /// a previously committed open-nested child.
    Compensation {
        /// The open-nested child this compensation undoes.
        undoes: TxnId,
    },
}

/// A committed transaction: its id and its own operations in local-log
/// order. The sequence of these, in commit order, is the serial witness
/// used by the serializability oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn<M, R> {
    /// The committed transaction instance.
    pub txn: TxnId,
    /// The thread that ran it.
    pub thread: ThreadId,
    /// The original transaction body (the paper's `otx`), for atomic replay.
    pub code: Code<M>,
    /// Own operations (pushed), in local order.
    pub ops: Vec<Op<M, R>>,
    /// Ids of operations this transaction had pulled, with the owning
    /// transaction (its dependencies).
    pub pulled_from: Vec<(OpId, TxnId)>,
    /// Where this commit sits in the nesting structure (top-level,
    /// open-nested child, or compensation).
    pub kind: TxnKind,
}

/// Unwraps a lock acquisition. No critical section of this module is
/// written to leave its data valid if it unwinds half-way, so a lock
/// poisoned by a panicking holder is never recovered: the panic
/// propagates to every later acquirer.
fn unpoisoned<G>(acquired: LockResult<G>) -> G {
    acquired.expect("a thread panicked while holding a GlobalState lock")
}

/// The shared half of the machine: the spec and check mode, and the log,
/// arming and counters parts (see the module docs). `Sync`, shared by
/// every [`TxnHandle`](crate::handle::TxnHandle) through an `Arc`.
#[derive(Debug)]
pub struct GlobalState<S: SeqSpec> {
    /// The sequential specification, shared (it is immutable) so that
    /// resharding and deep-cloning need no `S: Clone` bound.
    pub(crate) spec: Arc<S>,
    pub(crate) mode: CheckMode,
    /// `⟦ε⟧`, the spec's initial states, collected once at construction:
    /// what every replay of a log and every shard cache starts from.
    init: StateSet<S::State>,
    log: SharedLog<S>,
    arming: Arming,
    pub(crate) counters: Counters,
}

impl<S: SeqSpec> GlobalState<S> {
    /// Creates the shared state for a fresh machine with a single shard —
    /// bit-identical behaviour to the historical single-lock log, routed
    /// before the spec's footprints are even consulted. Resharding goes
    /// through [`Machine::set_log_shards`](crate::machine::Machine::set_log_shards).
    pub fn new(spec: S, mode: CheckMode) -> Self {
        let init: StateSet<S::State> = spec.initial_states().into_iter().collect();
        Self {
            log: SharedLog::new(&init, 1),
            init,
            arming: Arming::new(),
            counters: Counters::new(1),
            spec: Arc::new(spec),
            mode,
        }
    }

    /// The sequential specification.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// The check mode.
    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// `⟦ε⟧`: the spec's initial states, as collected at construction.
    pub(crate) fn initial(&self) -> &StateSet<S::State> {
        &self.init
    }

    /// `⟦ops⟧`: `ops` replayed from [`Self::initial`] — what
    /// [`SeqSpec::denote_refs`] gives, without asking the spec for its
    /// initial states again.
    pub(crate) fn denote_refs<'a, I>(&self, ops: I) -> StateSet<S::State>
    where
        I: IntoIterator<Item = &'a Op<S::Method, S::Ret>>,
        S::Method: 'a,
        S::Ret: 'a,
    {
        self.spec.denote_from_refs(&self.init, ops)
    }

    /// Mover query with audit accounting. (The audit counts queries, not
    /// replays, so the incremental path is invisible to it by
    /// construction.)
    pub(crate) fn mover_q(&self, a: &Op<S::Method, S::Ret>, b: &Op<S::Method, S::Ret>) -> bool {
        self.counters.audit.count_mover();
        self.spec.mover(a, b)
    }

    /// Rebuilds this state under a layout of `n` shards: the log is
    /// re-routed entry by entry, everything else carries over, the
    /// per-shard lock tallies afresh. Used by
    /// [`Machine::set_log_shards`](crate::machine::Machine::set_log_shards).
    pub(crate) fn rebuilt_with_shards(&self, n: usize) -> Self {
        let n = n.max(1);
        Self {
            spec: Arc::clone(&self.spec),
            mode: self.mode,
            init: self.init.clone(),
            log: self.log.rebuilt(&self.spec, &self.init, n),
            arming: self.arming.copy(),
            counters: self.counters.resharded(n),
        }
    }

    /// A deep copy with its own generators, audit and log state — used by
    /// [`Machine::clone`](crate::machine::Machine), which re-points every
    /// handle at the copy so clones share nothing (the property the model
    /// checker's branching relies on).
    pub(crate) fn deep_clone(&self) -> Self {
        Self {
            spec: Arc::clone(&self.spec),
            mode: self.mode,
            init: self.init.clone(),
            log: self.log.copy(),
            arming: self.arming.copy(),
            counters: self.counters.copy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::mem::{offset_of, size_of};
    use std::ops::Range;

    use super::*;
    use crate::toy::ToyCounter;

    /// The 64-byte lines `size` bytes at `offset` in `GlobalState` touch.
    fn lines(offset: usize, size: usize) -> Range<usize> {
        offset / 64..(offset + size - 1) / 64 + 1
    }

    fn disjoint(a: &Range<usize>, b: &Range<usize>) -> bool {
        a.end <= b.start || b.end <= a.start
    }

    /// The four generators every thread writes each own a cache line:
    /// none shares one with another, nor with the spec or the shard vector
    /// that every rule reads. (With `spec` and `shards` on the line of `seq`
    /// and `push_stamp`, every workload ran 4–16 % slower.) Nor does the
    /// committed list's mutex, which every commit writes, share the shard
    /// vector's line. The trace switch, read by every rule, shares no
    /// line with a generator or the audit counters either.
    #[test]
    fn each_generator_owns_its_cache_line() {
        type G = GlobalState<ToyCounter>;
        assert_eq!(std::mem::align_of::<G>() % 64, 0, "lines start at the base");
        let padded = size_of::<crate::audit::CachePadded<std::sync::atomic::AtomicU64>>();
        let generators = [
            offset_of!(G, counters.ids),
            offset_of!(G, counters.next_txn),
            offset_of!(G, counters.seq),
            offset_of!(G, log.push_stamp),
        ]
        .map(|at| lines(at, padded));
        let shards = lines(offset_of!(G, log.shards), size_of::<Vec<()>>());
        let spec = lines(offset_of!(G, spec), size_of::<Arc<ToyCounter>>());
        for (i, line) in generators.iter().enumerate() {
            assert_eq!(line.len(), 1, "generator {i} spans one line");
            for other in generators.iter().skip(i + 1).chain([&spec, &shards]) {
                assert!(disjoint(line, other), "generator {i} shares {line:?}");
            }
        }
        assert!(disjoint(&lines(offset_of!(G, log.committed), 1), &shards));
        let traced = lines(offset_of!(G, arming.traced), 1);
        let audit = lines(
            offset_of!(G, counters.audit),
            size_of::<crate::audit::AtomicAudit>(),
        );
        for (i, line) in generators.iter().chain([&audit]).enumerate() {
            assert!(
                disjoint(&traced, line),
                "the trace switch shares {line:?} ({i})"
            );
        }
    }
}
