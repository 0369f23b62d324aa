//! Sequential specifications: the `allowed` predicate and its denotational
//! induction (paper §3, Parameter 3.1).
//!
//! The Push/Pull model is *parameterized* by a prefix-closed sequential
//! specification `allowed ℓ` over operation logs. The paper expects
//! `allowed` to be induced by a denotation `⟦op⟧ : P(State × State)` with
//! initial states `I`, via `allowed ℓ ⇔ ⟦ℓ⟧ ≠ ∅` where
//! `⟦ℓ·op⟧ = ⟦ℓ⟧;⟦op⟧` and `⟦ε⟧ = I`. [`SeqSpec`] captures exactly this:
//! implementors supply the denotation ([`SeqSpec::initial_states`] and one
//! in-place step, [`SeqSpec::apply`]) and receive `allowed` for free.
//!
//! The step is deterministic and mutates: every set the machine steps (a
//! handle's carried `⟦L⟧`, a shard's per-class caches) is owned and only
//! ever stepped forward, so `⟦ℓ · op⟧` is computed by applying `op` to the
//! states of `⟦ℓ⟧` where they lie. A state is copied only when a replay
//! starts from a borrowed seed — once per replay, not once per operation.
//! Where a denial must not cost the set it was asked about, the *check-first
//! law* — `apply(s, m, r)` accepts exactly when `r ∈ results(s, m)` — answers
//! without stepping ([`StateSet::admits`]).
//!
//! The trait also hosts the *mover* oracle of Definition 4.1 used by the
//! PUSH/PULL rule criteria; see [`SeqSpec::mover`].

use crate::op::{Op, OpId, TxnId};
use crate::smallvec::SmallVec;
use std::fmt::Debug;
use std::hash::Hash;

/// The verdict of the inverse oracle [`SeqSpec::inverse`] for one
/// operation: how (if at all) its state change can be undone by
/// appending another operation.
///
/// This is what makes open nesting and boosting-style undo sound: a
/// committed open-nested child is compensated by replaying the
/// [`OpInverse::Inverse`] of each of its state-changing operations in
/// reverse order.
///
/// The law `pushpull-analysis` certifies, exhaustively on bounded specs,
/// holds *per state*: a state that admits `op` is restored by `op` then
/// `op⁻¹` ([`OpInverse::Inverse`]), or is left unchanged by `op`
/// ([`OpInverse::ReadOnly`]). Over a denotation that gives
/// `⟦ℓ · op · op⁻¹⟧ ⊆ ⟦ℓ⟧` and `⟦ℓ · op⟧ ⊆ ⟦ℓ⟧` — each is the states of
/// `⟦ℓ⟧` that admit `op` — with equality only when every state of `⟦ℓ⟧`
/// admits `op`. That always holds for an allowed `op` over a one-state
/// `⟦ℓ⟧`; over several, a read can narrow the set (a `Get` pins which
/// start a counter had). The lenient refresh relies on exactly the
/// one-state case to leave committed reads in `G`
/// ([`TxnHandle::pull_committed_lenient`](crate::handle::TxnHandle::pull_committed_lenient)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpInverse<M, R> {
    /// The operation leaves every state that admits it unchanged; there is
    /// nothing to undo.
    ReadOnly,
    /// Appending this `(method, ret)` after the operation restores every
    /// pre-state exactly.
    Inverse(M, R),
    /// The operation destroys information (e.g. a saturating decrement
    /// at the floor) and has no context-free inverse. Open-nested scopes
    /// refuse to commit such operations.
    NotInvertible,
}

/// A declared footprint: the abstract keys a method touches.
///
/// Nearly every routed method declares exactly one key (and the product
/// spec's pairs declare one per side), so the key list lives inline —
/// [`SeqSpec::method_keys`] is called on the hot path of every routed
/// rule and must not heap-allocate.
pub type KeySet = SmallVec<u64, 2>;

/// A denotation `⟦ℓ⟧`: a small set of abstract states in insertion order.
///
/// Every shipped spec has one initial state and a deterministic
/// [`SeqSpec::apply`], so a denotation is almost always a *single* state: it
/// lives inline and spills to the heap only past one element. Membership
/// is by linear scan ([`StateSet::insert`] de-duplicates), equality and
/// [`StateSet::is_subset`] ignore order, and iteration — borrowed or owned
/// — follows insertion order, so a choice made by walking a denotation
/// (the "first allowed return" of APP) is reproducible, which a hashed set
/// with a per-instance seed is not.
///
/// # Examples
///
/// ```
/// use pushpull_core::spec::StateSet;
///
/// let mut a: StateSet<u8> = [2, 1, 2].into_iter().collect();
/// assert_eq!(a.len(), 2);
/// assert!(!a.insert(1));
/// let b: StateSet<u8> = [1, 2].into_iter().collect();
/// assert_eq!(a, b);
/// assert_eq!(a.into_iter().collect::<Vec<_>>(), vec![2, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct StateSet<St> {
    /// Pairwise distinct, in insertion order.
    states: SmallVec<St, 1>,
}

impl<St> StateSet<St> {
    /// The empty set (`⟦ℓ⟧` of a log that is not allowed).
    pub fn new() -> Self {
        Self {
            states: SmallVec::new(),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the set empty — i.e. is the log it denotes *not* allowed?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states, in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, St> {
        self.states.iter()
    }
}

impl<St: PartialEq> StateSet<St> {
    /// Is `state` a member?
    pub fn contains(&self, state: &St) -> bool {
        self.states.contains(state)
    }

    /// Adds `state` unless it is already a member; returns whether it was
    /// added.
    pub fn insert(&mut self, state: St) -> bool {
        let fresh = !self.contains(&state);
        if fresh {
            self.states.push(state);
        }
        fresh
    }

    /// Is every state of `self` a member of `other`?
    pub fn is_subset(&self, other: &Self) -> bool {
        self.iter().all(|s| other.contains(s))
    }

    /// Steps every member in place by `apply`, which reports whether it
    /// accepted and leaves a state it refuses unchanged: refused members
    /// are dropped, and a member stepped onto one already kept is merged
    /// into it, so the set stays in first-produced order without repeats.
    ///
    /// If *every* member refuses, nothing changed: the set is kept as it
    /// was and `false` is returned — a denial never loses the set it was
    /// asked about. Otherwise the set is the image and `true` is returned.
    fn step_by(&mut self, mut apply: impl FnMut(&mut St) -> bool) -> bool {
        let Some(first) = self.states.iter_mut().position(&mut apply) else {
            return false;
        };
        // Every member before the first that accepted refused.
        for _ in 0..first {
            self.states.remove(0);
        }
        let mut i = 1;
        while i < self.states.len() {
            let (kept, rest) = self.states.split_at_mut(i);
            if apply(&mut rest[0]) && !kept.contains(&rest[0]) {
                i += 1;
            } else {
                self.states.remove(i);
            }
        }
        true
    }

    /// Steps the set in place by `op`: [`SeqSpec::apply`] on each member,
    /// dropping those that refuse and merging a member stepped onto one
    /// already kept. `true` with the set now `⟦ℓ · op⟧`; or, when every
    /// member refuses, `false` with the set untouched — a denial never
    /// loses the set it was asked about.
    pub fn step<S>(&mut self, spec: &S, op: &Op<S::Method, S::Ret>) -> bool
    where
        S: SeqSpec<State = St> + ?Sized,
    {
        self.step_by(|s| spec.apply(s, &op.method, &op.ret))
    }

    /// Does some member allow `op` — is `⟦ℓ · op⟧` non-empty? Answered by
    /// the check-first law, `apply(s, m, r)` accepts exactly when
    /// `r ∈ results(s, m)` (certified by `pushpull-analysis`), so nothing
    /// is stepped or copied: what a caller that may not mutate the set
    /// asks before it is stepped.
    pub fn admits<S>(&self, spec: &S, op: &Op<S::Method, S::Ret>) -> bool
    where
        S: SeqSpec<State = St> + ?Sized,
    {
        self.iter()
            .any(|s| spec.results(s, &op.method).contains(&op.ret))
    }
}

impl<St> Default for StateSet<St> {
    fn default() -> Self {
        Self::new()
    }
}

/// Set equality: the same members, in any order.
impl<St: PartialEq> PartialEq for StateSet<St> {
    fn eq(&self, other: &Self) -> bool {
        // Members are pairwise distinct, so equal sizes and one inclusion
        // give the other.
        self.len() == other.len() && self.is_subset(other)
    }
}

impl<St: Eq> Eq for StateSet<St> {}

impl<St: PartialEq> Extend<St> for StateSet<St> {
    fn extend<I: IntoIterator<Item = St>>(&mut self, iter: I) {
        for state in iter {
            self.insert(state);
        }
    }
}

impl<St: PartialEq> FromIterator<St> for StateSet<St> {
    fn from_iter<I: IntoIterator<Item = St>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl<'a, St> IntoIterator for &'a StateSet<St> {
    type Item = &'a St;
    type IntoIter = std::slice::Iter<'a, St>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Owned iteration over a [`StateSet`], in insertion order.
pub type StateSetIntoIter<St> = crate::smallvec::IntoIter<St, 1>;

impl<St> IntoIterator for StateSet<St> {
    type Item = St;
    type IntoIter = StateSetIntoIter<St>;

    fn into_iter(self) -> Self::IntoIter {
        self.states.into_iter()
    }
}

/// The return values [`SeqSpec::results`] offers: inline, since a method
/// observes one return in nearly every state of every shipped spec.
pub type Rets<R> = SmallVec<R, 2>;

/// A sequential specification over operation logs.
///
/// Implementors provide a *denotational* semantics: a set of initial
/// abstract states and, for each `(state, method, ret)` triple, at most one
/// post-state, computed in place by [`SeqSpec::apply`]. A log is `allowed`
/// iff its denotation (the set of states reachable by threading every
/// operation through) is non-empty — precisely the induction proposed in
/// §3 of the paper.
///
/// `allowed` is prefix-closed by construction (removing a suffix can only
/// grow the denotation from non-empty to non-empty).
///
/// # Examples
///
/// ```
/// use pushpull_core::toy::ToyCounter;
/// use pushpull_core::spec::SeqSpec;
/// use pushpull_core::toy::{CounterMethod, counter_op};
///
/// let spec = ToyCounter::with_bound(4);
/// let inc = counter_op(0, CounterMethod::Inc, 0);
/// let get = counter_op(1, CounterMethod::Get, 1);
/// assert!(spec.allowed(&[inc.clone(), get.clone()]));
/// // `get` observing 1 before any `inc` is not allowed:
/// assert!(!spec.allowed(&[get, inc]));
/// ```
pub trait SeqSpec {
    /// Method name plus arguments (the observable part of the pre-stack σ₁).
    type Method: Clone + Eq + Hash + Debug;
    /// Observable return value (the observable part of the post-stack σ₂).
    type Ret: Clone + Eq + Hash + Debug;
    /// Abstract state of the denotational semantics.
    type State: Clone + Eq + Hash + Debug;

    /// The set `I` of initial states. Must be non-empty.
    fn initial_states(&self) -> Vec<Self::State>;

    /// One step of the denotation `⟦⟨m, ret⟩⟧`, in place: runs `method` in
    /// `state` while observing return value `ret`, and reports whether the
    /// observation is allowed there. Returning `false` must leave `state`
    /// unchanged — refuse before writing. This law and the check-first law
    /// of [`SeqSpec::results`] are certified exhaustively by
    /// `pushpull-analysis` on bounded specs.
    ///
    /// The step is a function, not a relation: each state has at most one
    /// post-state. A spec whose operation could land in several states
    /// keeps that choice inside its state type (DESIGN.md §4), and one whose
    /// *start* is uncertain lists several [`SeqSpec::initial_states`].
    fn apply(&self, state: &mut Self::State, method: &Self::Method, ret: &Self::Ret) -> bool;

    /// Enumerates the return values `method` may produce in `state`.
    ///
    /// Used by the machine's `APP` rule to resolve the post-stack σ₂ and by
    /// the atomic oracle. The *check-first law*: `r` is offered exactly when
    /// [`SeqSpec::apply`] accepts it in `state` — which is what lets
    /// [`StateSet::admits`] answer `ℓ allows op` without stepping.
    fn results(&self, state: &Self::State, method: &Self::Method) -> Rets<Self::Ret>;

    /// A finite universe of states, if one exists, enabling exhaustive
    /// mover checking. `None` (the default) for unbounded specs, which
    /// should instead override [`SeqSpec::mover`] with an algebraic oracle.
    fn state_universe(&self) -> Option<Vec<Self::State>> {
        None
    }

    /// The denotation `⟦ℓ⟧`: the set of states reachable by running `ops`
    /// from an initial state, as a [`StateSet`] (inline for the single
    /// state every deterministic spec denotes).
    fn denote(&self, ops: &[Op<Self::Method, Self::Ret>]) -> StateSet<Self::State> {
        self.denote_refs(ops)
    }

    /// Extends a denotation by further operations: `⟦states · ops⟧`.
    fn denote_from(
        &self,
        states: &StateSet<Self::State>,
        ops: &[Op<Self::Method, Self::Ret>],
    ) -> StateSet<Self::State> {
        self.denote_from_refs(states, ops)
    }

    /// [`SeqSpec::denote`] over any iterator of operation references,
    /// so hot-path callers (shard views, suffix caches) can thread their
    /// cursors straight through without collecting a `Vec` first.
    fn denote_refs<'a, I>(&self, ops: I) -> StateSet<Self::State>
    where
        I: IntoIterator<Item = &'a Op<Self::Method, Self::Ret>>,
        Self::Method: 'a,
        Self::Ret: 'a,
    {
        let init: StateSet<Self::State> = self.initial_states().into_iter().collect();
        self.denote_from_refs(&init, ops)
    }

    /// [`SeqSpec::denote_from`] over any iterator of operation
    /// references (the workhorse behind both `denote` variants). The
    /// first operation is *checked* against the borrowed seed, so a log
    /// refused at once costs no copy; otherwise the seed is cloned once
    /// and stepped in place ([`StateSet::step`]) by every operation, so
    /// the result lists states in the order the steps first produced them.
    fn denote_from_refs<'a, I>(
        &self,
        states: &StateSet<Self::State>,
        ops: I,
    ) -> StateSet<Self::State>
    where
        I: IntoIterator<Item = &'a Op<Self::Method, Self::Ret>>,
        Self::Method: 'a,
        Self::Ret: 'a,
    {
        let mut ops = ops.into_iter();
        let Some(first) = ops.next() else {
            return states.clone();
        };
        if !states.admits(self, first) {
            return StateSet::new();
        }
        let mut cur = states.clone();
        for op in std::iter::once(first).chain(ops) {
            if !cur.step(self, op) {
                return StateSet::new();
            }
        }
        cur
    }

    /// Parameter 3.1: `allowed ℓ ⇔ ⟦ℓ⟧ ≠ ∅`.
    fn allowed(&self, ops: &[Op<Self::Method, Self::Ret>]) -> bool {
        !self.denote(ops).is_empty()
    }

    /// `ℓ allows op` ≡ `allowed (ℓ · op)` (paper §3 shorthand).
    fn allows(
        &self,
        ops: &[Op<Self::Method, Self::Ret>],
        op: &Op<Self::Method, Self::Ret>,
    ) -> bool {
        self.denote(ops).admits(self, op)
    }

    /// The mover relation of **Definition 4.1**:
    /// `op1 ◁ op2 ≡ ∀ℓ. ℓ·op1·op2 ≼ ℓ·op2·op1`.
    ///
    /// Reading: whenever the *actual* log order is `op1` then `op2`, the
    /// behaviour is included in that of the *hypothetical* order `op2` then
    /// `op1`. In Lipton's terminology `op1` moves right across `op2`
    /// (equivalently, `op2` moves left across `op1`). Criteria of the
    /// PUSH/PULL rules are stated with the actual order as first argument.
    ///
    /// The default implementation checks the definition exhaustively over
    /// [`SeqSpec::state_universe`]; for every state `s` in the universe it
    /// requires the denotation of `op1·op2` from `s` to be included in that
    /// of `op2·op1`. If no universe is available it conservatively returns
    /// `false`; unbounded specs must override with an algebraic oracle
    /// (e.g. "operations on distinct keys commute").
    fn mover(&self, op1: &Op<Self::Method, Self::Ret>, op2: &Op<Self::Method, Self::Ret>) -> bool {
        match self.state_universe() {
            Some(universe) => mover_exhaustive(self, &universe, op1, op2),
            None => false,
        }
    }

    /// The *method-level* (return-universal) mover relation used by the
    /// `pushpull-analysis` certifier:
    ///
    /// * `Some(true)` — `m1 ◁ m2` holds for **every** pair of return
    ///   observations the two methods can produce, so any runtime mover
    ///   check between an `m1`-op and an `m2`-op is guaranteed to pass;
    /// * `Some(false)` — some observable return pair is not a mover (the
    ///   runtime outcome depends on the returns);
    /// * `None` — unknown (no finite universe and no algebraic override);
    ///   a caller must treat the pair as a potential conflict.
    ///
    /// The default derives the answer exhaustively from
    /// [`SeqSpec::state_universe`] via [`method_mover_exhaustive`];
    /// unbounded specs should override with a return-independent
    /// algebraic oracle (e.g. "operations on distinct keys always
    /// commute"). Overrides must be *sound*: `Some(true)` may only be
    /// returned when [`SeqSpec::mover`] holds for every return pair
    /// observable at runtime — the `pushpull-analysis` property tests
    /// cross-check this against the exhaustive derivation on every
    /// enumerable spec.
    fn method_mover(&self, m1: &Self::Method, m2: &Self::Method) -> Option<bool> {
        let universe = self.state_universe()?;
        Some(method_mover_exhaustive(self, &universe, m1, m2))
    }

    /// The *footprint* of a method: the abstract key(s) it touches, used
    /// by the sharded global log to route operations to footprint-local
    /// shards (disjoint-access parallelism). `None` (the default) means
    /// "unknown/whole-state" and soundly degrades the operation to the
    /// coarse single-shard path.
    ///
    /// Overrides must satisfy two laws, enumerated by
    /// [`disjoint_commute_violations`] and [`factorization_violations`]
    /// (what the `pushpull-analysis` certifier reports) on every
    /// enumerable spec:
    ///
    /// 1. **Disjointness implies both-mover**: if `method_keys(m1)` and
    ///    `method_keys(m2)` are both `Some` and share no key, then
    ///    `m1 ◁ m2` and `m2 ◁ m1` hold for every observable return pair
    ///    (i.e. [`SeqSpec::method_mover`] would answer `Some(true)` both
    ///    ways). This is what lets a shard evaluate mover criteria
    ///    against only its own entries, and what makes the footprint the
    ///    abstract locks of boosting, 2PL and §7's boosted half: methods
    ///    whose locks are disjoint commute.
    /// 2. **`allowed` factorizes over key classes**: for any log whose
    ///    operations each declare exactly one key,
    ///    `allowed(ℓ) ⇔ ∀k. allowed(ℓ|k)` where `ℓ|k` keeps the ops with
    ///    key `k` in order. This is what lets each shard keep its
    ///    committed-prefix cache per key class and answer `G allows op`
    ///    from `op`'s own class alone.
    ///
    /// Returns an inline [`KeySet`] (not a `Vec`): footprints are
    /// consulted on every routed rule, so declaring one must not
    /// allocate.
    fn method_keys(&self, _m: &Self::Method) -> Option<KeySet> {
        None
    }

    /// A finite, representative alphabet of methods, if one exists — the
    /// companion of [`SeqSpec::state_universe`] on the method side, and
    /// what the whole-spec certifier (`pushpull-analysis`) quantifies
    /// over when it derives the ground-truth mover matrix and footprint
    /// cover. `None` (the default) means the spec cannot be certified
    /// exhaustively; bounded spec variants should override with an
    /// alphabet that exercises every `method_mover`/`method_keys` arm
    /// (every constructor, including the degenerate parameters the
    /// algebraic oracles special-case, e.g. zero amounts).
    fn method_universe(&self) -> Option<Vec<Self::Method>> {
        None
    }

    /// The inverse oracle: how `op`'s state change can be undone — the
    /// basis of open-nested compensations and boosting's undo-logging
    /// (§4's "UNPUSH is typically implemented via inverse operations").
    ///
    /// Overrides must satisfy the inverse law (see [`OpInverse`]);
    /// `pushpull-analysis` certifies it exhaustively on bounded specs.
    /// The default declares every operation [`OpInverse::NotInvertible`],
    /// which soundly disables open nesting.
    fn inverse(&self, _op: &Op<Self::Method, Self::Ret>) -> OpInverse<Self::Method, Self::Ret> {
        OpInverse::NotInvertible
    }

    /// Does this spec support open nesting — i.e. is every operation an
    /// [`OpInverse::Inverse`] or [`OpInverse::ReadOnly`] under
    /// [`SeqSpec::inverse`]? The machine never reads the claim: it checks
    /// each operation's verdict at the open commit. `pushpull-analysis`
    /// proves the claim's round-trip law on bounded specs. The default
    /// (`false`) matches the default `inverse`.
    fn has_inverses(&self) -> bool {
        false
    }
}

/// All return values `m` can observe anywhere in `universe`, via
/// [`SeqSpec::results`] (the same enumeration the machine's APP rule
/// draws from, so it covers every op that can exist at runtime).
pub fn observable_rets<S: SeqSpec + ?Sized>(
    spec: &S,
    universe: &[S::State],
    m: &S::Method,
) -> Vec<S::Ret> {
    let mut out: Vec<S::Ret> = Vec::new();
    for s in universe {
        for r in spec.results(s, m) {
            if !out.contains(&r) {
                out.push(r);
            }
        }
    }
    out
}

/// Checks the method-level mover `m1 ◁ m2` exhaustively: Definition 4.1
/// must hold over `universe` for every pair of observable return values.
/// This is the reference implementation the algebraic
/// [`SeqSpec::method_mover`] overrides are tested against.
pub fn method_mover_exhaustive<S: SeqSpec + ?Sized>(
    spec: &S,
    universe: &[S::State],
    m1: &S::Method,
    m2: &S::Method,
) -> bool {
    // The ids/txns below never reach the spec: denotations (and hence
    // `mover_exhaustive`) look only at methods and returns.
    let rets1 = observable_rets(spec, universe, m1);
    let rets2 = observable_rets(spec, universe, m2);
    for r1 in &rets1 {
        for r2 in &rets2 {
            let op1 = Op::new(OpId(u64::MAX), TxnId(u64::MAX), m1.clone(), r1.clone());
            let op2 = Op::new(OpId(u64::MAX - 1), TxnId(u64::MAX), m2.clone(), r2.clone());
            if !mover_exhaustive(spec, universe, &op1, &op2) {
                return false;
            }
        }
    }
    true
}

/// Checks Definition 4.1 over an explicit state universe: from each state,
/// wherever `op1·op2` runs, `op2·op1` must run too and land in the same
/// state (the step is a function, so inclusion of the post-state sets is
/// equality of the one post-state each).
///
/// This witnesses `∀ℓ. ℓ·op1·op2 ≼ ℓ·op2·op1` soundly because the
/// denotation of any `ℓ` is a subset of the universe, denotations
/// distribute over unions of start states, and state-set inclusion implies
/// log precongruence (see [`crate::precongruence`]).
pub fn mover_exhaustive<S: SeqSpec + ?Sized>(
    spec: &S,
    universe: &[S::State],
    op1: &Op<S::Method, S::Ret>,
    op2: &Op<S::Method, S::Ret>,
) -> bool {
    let run = |s: &S::State, a: &Op<S::Method, S::Ret>, b: &Op<S::Method, S::Ret>| {
        let mut t = s.clone();
        let ran = spec.apply(&mut t, &a.method, &a.ret) && spec.apply(&mut t, &b.method, &b.ret);
        ran.then_some(t)
    };
    universe.iter().all(|s| match run(s, op1, op2) {
        Some(fwd) => run(s, op2, op1).as_ref() == Some(&fwd),
        None => true,
    })
}

/// Both-ways mover: `op1 ◁ op2 ∧ op2 ◁ op1`, i.e. full commutativity of the
/// pair (the condition abstract locking enforces in transactional boosting).
pub fn commute<S: SeqSpec + ?Sized>(
    spec: &S,
    op1: &Op<S::Method, S::Ret>,
    op2: &Op<S::Method, S::Ret>,
) -> bool {
    spec.mover(op1, op2) && spec.mover(op2, op1)
}

/// A counterexample to footprint law 1 (disjointness ⇒ both-mover): a
/// method pair with declared, disjoint footprints that is *not* an
/// exhaustive mover. Produced by [`disjoint_commute_violations`], the
/// one implementation behind the spec test suites and the
/// `pushpull-analysis` certifier's `unsound-footprint` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjointnessViolation<M> {
    /// The method whose op fails to move right across `m2`'s.
    pub m1: M,
    /// The method it was declared disjoint from.
    pub m2: M,
    /// `m1`'s declared footprint.
    pub keys1: KeySet,
    /// `m2`'s declared footprint.
    pub keys2: KeySet,
}

impl<M: Debug> std::fmt::Display for DisjointnessViolation<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "disjoint declared footprints ({:?} vs {:?}) but {:?} does not move across {:?}",
            self.keys1, self.keys2, self.m1, self.m2
        )
    }
}

/// Finds every violation of footprint law 1 (see
/// [`SeqSpec::method_keys`]): an ordered method pair with declared,
/// disjoint footprints that fails the exhaustive Definition 4.1 oracle
/// over `universe`. An empty result means the declared footprints are
/// sound to shard on (law 1). The shared ground-truth check behind the
/// spec test suites and the whole-spec certifier.
pub fn disjoint_commute_violations<S: SeqSpec + ?Sized>(
    spec: &S,
    universe: &[S::State],
    methods: &[S::Method],
) -> Vec<DisjointnessViolation<S::Method>> {
    let mut out = Vec::new();
    for m1 in methods {
        for m2 in methods {
            let (Some(k1), Some(k2)) = (spec.method_keys(m1), spec.method_keys(m2)) else {
                continue;
            };
            if k1.iter().any(|k| k2.contains(k)) {
                continue;
            }
            if !method_mover_exhaustive(spec, universe, m1, m2) {
                out.push(DisjointnessViolation {
                    m1: m1.clone(),
                    m2: m2.clone(),
                    keys1: k1,
                    keys2: k2,
                });
            }
        }
    }
    out
}

/// A counterexample to footprint law 2 (`allowed` factorizes over key
/// classes): a log of single-key operations on which the whole-log
/// verdict disagrees with the conjunction of its per-key projections.
/// Produced by [`factorization_violations`], the one implementation
/// behind the spec test suites and the `pushpull-analysis` certifier's
/// `unsound-factorization` diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorizationViolation<M, R> {
    /// The counterexample log.
    pub log: Vec<Op<M, R>>,
    /// `allowed` over the whole log.
    pub whole: bool,
    /// Conjunction of `allowed` over the per-key projections.
    pub factored: bool,
}

impl<M: Debug, R: Debug> std::fmt::Display for FactorizationViolation<M, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "allowed does not factorize over key classes: whole={} factored={} on {:?}",
            self.whole,
            self.factored,
            self.log
                .iter()
                .map(|o| (&o.method, &o.ret))
                .collect::<Vec<_>>()
        )
    }
}

/// Finds every violation of footprint law 2 (see
/// [`SeqSpec::method_keys`]) over sequences of up to `max_len`
/// operations drawn (with repetition) from `sample`: the `allowed`
/// predicate must equal the conjunction of `allowed` over the per-key
/// projections. Only operations declaring exactly one key participate —
/// those are the ones the sharded log routes; multi-key and
/// `None`-footprint methods take the coarse path and never rely on this
/// law. An empty result means the law holds on the sampled space. The
/// shared ground-truth check behind the spec test suites and the
/// whole-spec certifier.
pub fn factorization_violations<S: SeqSpec + ?Sized>(
    spec: &S,
    sample: &[Op<S::Method, S::Ret>],
    max_len: usize,
) -> Vec<FactorizationViolation<S::Method, S::Ret>> {
    let routed: Vec<&Op<S::Method, S::Ret>> = sample
        .iter()
        .filter(|op| spec.method_keys(&op.method).is_some_and(|ks| ks.len() == 1))
        .collect();
    let key_of = |op: &Op<S::Method, S::Ret>| -> u64 {
        spec.method_keys(&op.method).expect("filtered above")[0]
    };
    let mut out = Vec::new();
    // Enumerate index sequences of length 1..=max_len over `routed`.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if prefix.len() < max_len {
            for i in 0..routed.len() {
                let mut next = prefix.clone();
                next.push(i);
                stack.push(next);
            }
        }
        if prefix.is_empty() {
            continue;
        }
        let seq: Vec<Op<S::Method, S::Ret>> = prefix.iter().map(|&i| routed[i].clone()).collect();
        let whole = spec.allowed(&seq);
        let mut keys: Vec<u64> = seq.iter().map(&key_of).collect();
        keys.sort_unstable();
        keys.dedup();
        let factored = keys.iter().all(|k| {
            let class: Vec<Op<S::Method, S::Ret>> =
                seq.iter().filter(|op| key_of(op) == *k).cloned().collect();
            spec.allowed(&class)
        });
        if whole != factored {
            out.push(FactorizationViolation {
                log: seq,
                whole,
                factored,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{counter_op, CounterMethod, ToyCounter};

    #[test]
    fn allowed_is_prefix_closed() {
        let spec = ToyCounter::with_bound(3);
        let ops = vec![
            counter_op(0, CounterMethod::Inc, 0),
            counter_op(1, CounterMethod::Inc, 0),
            counter_op(2, CounterMethod::Get, 2),
        ];
        assert!(spec.allowed(&ops));
        for k in 0..ops.len() {
            assert!(spec.allowed(&ops[..k]), "prefix of length {k} not allowed");
        }
    }

    #[test]
    fn get_result_must_match_state() {
        let spec = ToyCounter::with_bound(3);
        let bad = vec![counter_op(0, CounterMethod::Get, 5)];
        assert!(!spec.allowed(&bad));
        let good = vec![counter_op(0, CounterMethod::Get, 0)];
        assert!(spec.allowed(&good));
    }

    #[test]
    fn allows_matches_allowed_append() {
        let spec = ToyCounter::with_bound(3);
        let l = vec![counter_op(0, CounterMethod::Inc, 0)];
        let op = counter_op(1, CounterMethod::Get, 1);
        assert_eq!(spec.allows(&l, &op), {
            let mut l2 = l.clone();
            l2.push(op.clone());
            spec.allowed(&l2)
        });
    }

    #[test]
    fn incs_commute_with_each_other() {
        let spec = ToyCounter::with_bound(5);
        let a = counter_op(0, CounterMethod::Inc, 0);
        let b = counter_op(1, CounterMethod::Inc, 0);
        assert!(commute(&spec, &a, &b));
    }

    #[test]
    fn inc_does_not_move_across_get() {
        let spec = ToyCounter::with_bound(5);
        let inc = counter_op(0, CounterMethod::Inc, 0);
        let get0 = counter_op(1, CounterMethod::Get, 0);
        // Actual order get(=0) then inc is fine; hypothetical inc then get(=0)
        // is not: get would observe 1. So get0 ◁ inc must fail.
        assert!(!spec.mover(&get0, &inc));
        // And inc ◁ get0 also fails: inc·get0 is already disallowed... it is
        // allowed-empty, so inclusion holds vacuously.
        assert!(spec.mover(&inc, &get0));
    }

    #[test]
    fn results_agree_with_apply() {
        let spec = ToyCounter::with_bound(3);
        let universe = spec.state_universe().unwrap();
        for s in &universe {
            for m in [CounterMethod::Inc, CounterMethod::Dec, CounterMethod::Get] {
                let offered = spec.results(s, &m);
                for r in observable_rets(&spec, &universe, &m) {
                    let mut t = *s;
                    let accepted = spec.apply(&mut t, &m, &r);
                    assert_eq!(
                        accepted,
                        offered.contains(&r),
                        "the check-first law fails for {m:?} -> {r:?} in {s:?}"
                    );
                    assert!(accepted || t == *s, "a refused {m:?} wrote to {s:?}");
                }
            }
        }
    }

    #[test]
    fn method_mover_derives_from_universe() {
        let spec = ToyCounter::with_bound(5);
        // Inc ◁ Inc: increments commute for every ret pair.
        assert_eq!(
            spec.method_mover(&CounterMethod::Inc, &CounterMethod::Inc),
            Some(true)
        );
        // Get ◁ Inc fails for some observable ret (get pins the count).
        assert_eq!(
            spec.method_mover(&CounterMethod::Get, &CounterMethod::Inc),
            Some(false)
        );
        // Get ◁ Get holds (both pin the same state).
        assert_eq!(
            spec.method_mover(&CounterMethod::Get, &CounterMethod::Get),
            Some(true)
        );
    }

    #[test]
    fn state_set_insert_deduplicates_and_keeps_insertion_order() {
        let mut set = StateSet::new();
        assert!(set.is_empty());
        assert!(set.insert(3));
        assert!(set.insert(1));
        assert!(!set.insert(3), "a member is not added twice");
        assert!(set.insert(2));
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().copied().collect::<Vec<_>>(), vec![3, 1, 2]);
        assert!(set.contains(&1) && !set.contains(&4));
        let collected: StateSet<i64> = [3, 3, 1, 2, 1].into_iter().collect();
        assert_eq!(collected.iter().copied().collect::<Vec<_>>(), vec![3, 1, 2]);
    }

    #[test]
    fn state_set_equality_and_subset_ignore_order() {
        let a: StateSet<i64> = [1, 2, 3].into_iter().collect();
        let b: StateSet<i64> = [3, 1, 2].into_iter().collect();
        let c: StateSet<i64> = [1, 2].into_iter().collect();
        let d: StateSet<i64> = [1, 2, 4].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "same size, different members");
        assert!(c.is_subset(&a) && c.is_subset(&b));
        assert!(!a.is_subset(&c));
        assert!(!d.is_subset(&a));
        let empty = StateSet::<i64>::new();
        assert!(empty.is_subset(&c));
        assert_eq!(empty, StateSet::default());
        assert_ne!(empty, c);
    }

    #[test]
    fn state_set_spills_past_one_element_and_owned_iteration_yields_each_once() {
        // `Rc` counts observe every drop: a state lost or dropped twice
        // by the inline slot, the spill or the owned iterator shows.
        use std::rc::Rc;
        let tokens: Vec<Rc<i64>> = (0..4).map(Rc::new).collect();
        let mut set = StateSet::new();
        set.insert(Rc::clone(&tokens[0]));
        assert_eq!(set.len(), 1, "one state lives inline");
        for t in &tokens {
            set.insert(Rc::clone(t));
        }
        assert_eq!(set.len(), 4);
        assert!(tokens.iter().all(|t| Rc::strong_count(t) == 2));
        let copy = set.clone();
        assert_eq!(copy, set);
        let mut owned = set.into_iter();
        assert_eq!(owned.size_hint(), (4, Some(4)));
        assert_eq!(owned.next().as_deref(), Some(&0));
        assert_eq!(owned.next().as_deref(), Some(&1));
        drop(owned); // the unyielded rest is dropped with the iterator
        drop(copy);
        assert!(tokens.iter().all(|t| Rc::strong_count(t) == 1));
        let single: StateSet<i64> = std::iter::once(7).collect();
        assert_eq!(single.into_iter().collect::<Vec<_>>(), vec![7]);
    }

    /// A state that records its value in a shared tally when dropped.
    #[derive(Debug)]
    struct Tallied<'t> {
        value: i64,
        drops: &'t std::cell::RefCell<Vec<i64>>,
    }

    impl PartialEq for Tallied<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.value == other.value
        }
    }

    impl Drop for Tallied<'_> {
        fn drop(&mut self) {
            self.drops.borrow_mut().push(self.value);
        }
    }

    #[test]
    fn stepping_in_place_drops_each_refused_or_merged_state_exactly_once() {
        let drops = std::cell::RefCell::new(Vec::new());
        let set_of = |values: &[i64]| -> StateSet<Tallied<'_>> {
            let states = values.iter().map(|&value| Tallied {
                value,
                drops: &drops,
            });
            states.collect()
        };
        // Odd states refuse; even ones step onto 10, where they merge.
        let even_to_ten = |s: &mut Tallied<'_>| {
            let accept = s.value % 2 == 0;
            if accept {
                s.value = 10;
            }
            accept
        };
        let values = |set: &StateSet<Tallied<'_>>| set.iter().map(|s| s.value).collect::<Vec<_>>();

        // Inline: a refusal keeps the one state, an acceptance steps it.
        let mut inline = set_of(&[3]);
        assert!(!inline.step_by(even_to_ten));
        assert_eq!(values(&inline), [3]);
        let mut inline = set_of(&[4]);
        assert!(inline.step_by(even_to_ten));
        assert_eq!(values(&inline), [10]);
        assert!(drops.borrow().is_empty(), "nothing refused or merged yet");
        drop(inline);
        drops.borrow_mut().clear();

        // Spilled: when every member refuses, the set is kept whole.
        let mut spilled = set_of(&[1, 3, 5]);
        assert!(!spilled.step_by(even_to_ten));
        assert_eq!(values(&spilled), [1, 3, 5]);
        assert!(drops.borrow().is_empty());
        drop(spilled);
        drops.borrow_mut().clear();

        // Refused members before and after the first acceptance go, and the
        // second state stepped onto 10 is merged into the first.
        let mut spilled = set_of(&[1, 3, 2, 5, 4]);
        assert!(spilled.step_by(even_to_ten));
        assert_eq!(values(&spilled), [10]);
        assert_eq!(*drops.borrow(), [1, 3, 5, 10], "each dropped once");
        drop(spilled);
        assert_eq!(*drops.borrow(), [1, 3, 5, 10, 10], "the kept one last");
    }

    #[test]
    fn denote_lists_states_in_post_state_order_without_repeats() {
        use crate::toy::TwoStartCounter;
        let spec = TwoStartCounter::new([1, 0], 4);
        assert_eq!(
            spec.denote(&[]).into_iter().collect::<Vec<_>>(),
            vec![1, 0],
            "⟦ε⟧ is the initial states, in order"
        );
        // A saturating Dec sends both starts to 0: one state, listed once.
        let merged = spec.denote(&[counter_op(0, CounterMethod::Dec, 0)]);
        assert_eq!(merged.into_iter().collect::<Vec<_>>(), vec![0]);
        let inc = spec.denote(&[counter_op(0, CounterMethod::Inc, 0)]);
        assert_eq!(inc.into_iter().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn denote_from_empty_stays_empty() {
        let spec = ToyCounter::with_bound(3);
        let empty: StateSet<i64> = StateSet::new();
        let out = spec.denote_from(&empty, &[counter_op(0, CounterMethod::Inc, 0)]);
        assert!(out.is_empty());
    }
}
