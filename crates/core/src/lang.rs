//! The generic transaction language of paper §3 (Example 1) and its
//! `step`/`fin` functions.
//!
//! ```text
//! c ::= c₁ + c₂ | c₁ ; c₂ | (c)* | skip | tx c | m
//! ```
//!
//! The paper abstracts the thread language behind two functions:
//!
//! * `step(c)`: the set of pairs `(m, c′)` such that `m` is a next
//!   reachable method in the reduction of `c`, with remaining code `c′`;
//! * `fin(c)`: true if `c` can reduce to `skip` without encountering a
//!   method call.
//!
//! [`Code::step`] and [`Code::fin`] implement exactly the equations of
//! Example 1. In `step`/`fin` nested transactions are flattened
//! (`step(tx c) = step(c)`), matching the paper's small-step semantics —
//! but the boundary is *not* lost: [`Code::peel_scope`] recovers the
//! leftmost `tx`/`otx` redex so [`crate::handle::TxnHandle`] can enter a
//! first-class nested scope (closed or open) before stepping into the
//! body. Drivers that never consult scopes keep the historical flattened
//! behaviour bit-for-bit.

use std::fmt;
use std::sync::Arc;

use crate::scope::ScopeKind;
use crate::smallvec::SmallVec;

/// Code of the generic transaction language.
///
/// `M` is the method type of the sequential specification in use.
///
/// Subtrees are shared (`Arc`), never mutated: cloning a code, and taking
/// the continuation `k ; c₂` of a step, copy one node and bump reference
/// counts instead of copying `c₂` — which is what keeps an APP's cost
/// independent of how much program is left.
///
/// # Examples
///
/// ```
/// use pushpull_core::lang::Code;
/// // tx (skip ; (a + (m + n)) ; b) — one path reaches `n` with continuation `b`.
/// let c = Code::tx(Code::seq(
///     Code::Skip,
///     Code::seq(
///         Code::choice(Code::method("a"), Code::choice(Code::method("m"), Code::method("n"))),
///         Code::method("b"),
///     ),
/// ));
/// let steps = c.step();
/// assert!(steps.iter().any(|(m, k)| *m == "n" && k.step().iter().any(|(m2, _)| *m2 == "b")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Code<M> {
    /// The finished program.
    Skip,
    /// A method invocation `m`.
    Method(M),
    /// Sequential composition `c₁ ; c₂`.
    Seq(Arc<Code<M>>, Arc<Code<M>>),
    /// Nondeterministic choice `c₁ + c₂`.
    Choice(Arc<Code<M>>, Arc<Code<M>>),
    /// Nondeterministic looping `(c)*`.
    Star(Arc<Code<M>>),
    /// A transaction `tx c`.
    Tx(Arc<Code<M>>),
    /// An *open-nested* transaction `otx c` (§6.2 "open nesting"): its
    /// body commits to the shared log as an independent transaction the
    /// moment the scope finishes, registering compensating inverses in
    /// the enclosing transaction's compensation set. In `step`/`fin` it
    /// flattens exactly like [`Code::Tx`]; the open semantics engage
    /// only through [`Code::peel_scope`]-aware executors.
    OpenTx(Arc<Code<M>>),
}

impl<M: Clone> Code<M> {
    /// Convenience constructor for [`Code::Method`].
    pub fn method(m: M) -> Self {
        Code::Method(m)
    }

    /// Convenience constructor for [`Code::Seq`].
    pub fn seq(a: Code<M>, b: Code<M>) -> Self {
        Code::Seq(Arc::new(a), Arc::new(b))
    }

    /// Convenience constructor for [`Code::Choice`].
    pub fn choice(a: Code<M>, b: Code<M>) -> Self {
        Code::Choice(Arc::new(a), Arc::new(b))
    }

    /// Convenience constructor for [`Code::Star`].
    pub fn star(a: Code<M>) -> Self {
        Code::Star(Arc::new(a))
    }

    /// Convenience constructor for [`Code::Tx`].
    pub fn tx(a: Code<M>) -> Self {
        Code::Tx(Arc::new(a))
    }

    /// Convenience constructor for [`Code::OpenTx`].
    pub fn otx(a: Code<M>) -> Self {
        Code::OpenTx(Arc::new(a))
    }

    /// Sequences a list of codes: `seq_all([a, b, c]) = a ; (b ; c)`.
    /// An empty list yields `skip`.
    pub fn seq_all<I: IntoIterator<Item = Code<M>>>(parts: I) -> Self {
        let mut parts: SmallVec<Code<M>, 8> = parts.into_iter().collect();
        match parts.pop() {
            None => Code::Skip,
            Some(mut acc) => {
                while let Some(prev) = parts.pop() {
                    acc = Code::seq(prev, acc);
                }
                acc
            }
        }
    }

    /// The `step` function of Example 1: every next reachable method `m`
    /// paired with its continuation.
    ///
    /// ```text
    /// step(skip)     = ∅
    /// step(c₁ ; c₂)  = (step(c₁) ; c₂) ∪ (fin(c₁) ; step(c₂))
    /// step(c₁ + c₂)  = step(c₁) ∪ step(c₂)
    /// step((c)*)     = step(c) ; (c)*
    /// step(tx c)     = step(c)
    /// step(m)        = {(m, skip)}
    /// ```
    ///
    /// Continuations are built with SEMISKIP (Figure 6) applied: where
    /// `k ; c₂` would begin with `skip`, the continuation is `c₂` itself —
    /// no continuation begins with `skip ;`, and taking the step that
    /// finishes `c₁` shares `c₂` without building a node.
    ///
    /// The equations denote *sets*; nested `Choice`/`Star` can produce the
    /// same `(m, c′)` pair along several syntactic paths, so the result is
    /// deduplicated (first occurrence kept, order otherwise preserved).
    pub fn step(&self) -> Vec<(M, Code<M>)>
    where
        M: PartialEq,
    {
        let mut out = self.step_raw();
        dedup_in_place(&mut out);
        out
    }

    /// The first option of [`Self::step`], in its order, whose method
    /// `pick` accepts — found without building the others: only the
    /// chosen continuation is constructed. (Deduplication keeps first
    /// occurrences, so the first match is the same with or without it.)
    ///
    /// ```
    /// use pushpull_core::lang::Code;
    /// let c = Code::seq(Code::choice(Code::method("a"), Code::method("b")), Code::method("c"));
    /// let (m, k) = c.first_step(|m| *m == "b").expect("b is a next method");
    /// assert_eq!((m, k), ("b", Code::method("c")));
    /// assert!(c.first_step(|m| *m == "c").is_none());
    /// ```
    pub fn first_step(&self, pick: impl Fn(&M) -> bool) -> Option<(M, Code<M>)> {
        self.first_step_by(&pick)
    }

    fn first_step_by(&self, pick: &impl Fn(&M) -> bool) -> Option<(M, Code<M>)> {
        match self {
            Code::Skip => None,
            Code::Method(m) => pick(m).then(|| (m.clone(), Code::Skip)),
            Code::Seq(c1, c2) => match c1.first_step_by(pick) {
                Some((m, k)) => Some((m, Self::then(k, c2))),
                None if c1.fin() => c2.first_step_by(pick),
                None => None,
            },
            Code::Choice(c1, c2) => c1.first_step_by(pick).or_else(|| c2.first_step_by(pick)),
            Code::Star(c) => {
                let (m, k) = c.first_step_by(pick)?;
                Some((m, Self::then(k, &Arc::new(Code::Star(Arc::clone(c))))))
            }
            Code::Tx(c) | Code::OpenTx(c) => c.first_step_by(pick),
        }
    }

    fn step_raw(&self) -> Vec<(M, Code<M>)> {
        match self {
            Code::Skip => Vec::new(),
            Code::Method(m) => vec![(m.clone(), Code::Skip)],
            Code::Seq(c1, c2) => {
                let mut out = c1.step_raw();
                Self::then_all(&mut out, c2);
                if c1.fin() {
                    // Nothing of c₁'s to extend (a finished `skip`, say):
                    // take c₂'s options as they are.
                    if out.is_empty() {
                        return c2.step_raw();
                    }
                    out.extend(c2.step_raw());
                }
                out
            }
            Code::Choice(c1, c2) => {
                let mut out = c1.step_raw();
                out.extend(c2.step_raw());
                out
            }
            Code::Star(c) => {
                let mut out = c.step_raw();
                if !out.is_empty() {
                    Self::then_all(&mut out, &Arc::new(Code::Star(Arc::clone(c))));
                }
                out
            }
            Code::Tx(c) | Code::OpenTx(c) => c.step_raw(),
        }
    }

    /// Sequences `rest` after every continuation: `(m, k) ↦ (m, k ; rest)`,
    /// all of them sharing the one `rest`.
    fn then_all(options: &mut [(M, Code<M>)], rest: &Arc<Code<M>>) {
        for (_, k) in options {
            *k = Self::then(std::mem::replace(k, Code::Skip), rest);
        }
    }

    /// The continuation `k ; rest`, with SEMISKIP applied: `skip ; rest`
    /// is `rest` (past any `skip ;` it begins with), a copy of its root
    /// node sharing its subtrees.
    fn then(k: Code<M>, rest: &Arc<Code<M>>) -> Code<M> {
        if !matches!(k, Code::Skip) {
            return Code::Seq(Arc::new(k), Arc::clone(rest));
        }
        let mut rest = rest;
        while let Code::Seq(a, b) = &**rest {
            if !matches!(**a, Code::Skip) {
                break;
            }
            rest = b;
        }
        (**rest).clone()
    }

    /// The `fin` predicate of Example 1: can `self` reduce to `skip`
    /// without encountering a method call?
    pub fn fin(&self) -> bool {
        match self {
            Code::Skip => true,
            Code::Method(_) => false,
            Code::Seq(c1, c2) => c1.fin() && c2.fin(),
            Code::Choice(c1, c2) => c1.fin() || c2.fin(),
            Code::Star(_) => true,
            Code::Tx(c) | Code::OpenTx(c) => c.fin(),
        }
    }

    /// Locates the leftmost nested-transaction redex along the `Seq`
    /// spine: the scope an executor should *enter* before stepping into
    /// its body. Returns `(kind, body, cont)` where `cont` is everything
    /// sequenced after the scope (`skip` when nothing is).
    ///
    /// Descent mirrors the `SEMI` congruence: through the left of `Seq`,
    /// and past a finished, step-free prefix into the right — so the
    /// peeled body's `step` options coincide with the flattened `step`
    /// options of the whole code whenever the body can still step.
    pub fn peel_scope(&self) -> Option<(ScopeKind, Code<M>, Code<M>)>
    where
        M: PartialEq,
    {
        match self {
            Code::Tx(b) => Some((ScopeKind::Closed, (**b).clone(), Code::Skip)),
            Code::OpenTx(b) => Some((ScopeKind::Open, (**b).clone(), Code::Skip)),
            Code::Seq(a, rest) => {
                if let Some((kind, body, cont)) = a.peel_scope() {
                    let cont = match cont {
                        Code::Skip => (**rest).clone(),
                        c => Code::Seq(Arc::new(c), Arc::clone(rest)),
                    };
                    Some((kind, body, cont))
                } else if a.fin() && a.first_step(|_| true).is_none() {
                    // `a` is semantically skip: the scope (if any) in
                    // `rest` is the leftmost redex.
                    rest.peel_scope()
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Does any `otx` scope occur in `self`?
    pub fn has_open(&self) -> bool {
        match self {
            Code::Skip | Code::Method(_) => false,
            Code::Seq(a, b) | Code::Choice(a, b) => a.has_open() || b.has_open(),
            Code::Star(a) | Code::Tx(a) => a.has_open(),
            Code::OpenTx(_) => true,
        }
    }

    /// `self` with every `otx` subtree replaced by `skip`.
    ///
    /// An open-nested child commits as its *own* transaction, so the
    /// parent's committed record — the code the serializability oracle
    /// replays against the parent's own operations — must not demand the
    /// child's methods. For open-free code this is the identity.
    pub fn strip_open(&self) -> Code<M> {
        if !self.has_open() {
            return self.clone();
        }
        match self {
            Code::Skip => Code::Skip,
            Code::Method(m) => Code::Method(m.clone()),
            Code::Seq(a, b) => Code::seq(a.strip_open(), b.strip_open()),
            Code::Choice(a, b) => Code::choice(a.strip_open(), b.strip_open()),
            Code::Star(a) => Code::star(a.strip_open()),
            Code::Tx(a) => Code::tx(a.strip_open()),
            Code::OpenTx(_) => Code::Skip,
        }
    }

    /// All method names syntactically reachable in `self`, in first
    /// occurrence order.
    ///
    /// Used by the opacity refinement of §6.1: a transaction may safely
    /// PULL an uncommitted operation if every method it may still perform
    /// commutes with that operation.
    pub fn reachable_methods(&self) -> Vec<M>
    where
        M: PartialEq,
    {
        let mut out = Vec::new();
        self.collect_methods(&mut out);
        out
    }

    fn collect_methods(&self, out: &mut Vec<M>)
    where
        M: PartialEq,
    {
        match self {
            Code::Skip => {}
            Code::Method(m) => {
                if !out.contains(m) {
                    out.push(m.clone());
                }
            }
            Code::Seq(a, b) | Code::Choice(a, b) => {
                a.collect_methods(out);
                b.collect_methods(out);
            }
            Code::Star(a) | Code::Tx(a) | Code::OpenTx(a) => a.collect_methods(out),
        }
    }

    /// Number of grammar nodes, a convenient size measure for tests and
    /// random program generators.
    pub fn size(&self) -> usize {
        match self {
            Code::Skip | Code::Method(_) => 1,
            Code::Seq(a, b) | Code::Choice(a, b) => 1 + a.size() + b.size(),
            Code::Star(a) | Code::Tx(a) | Code::OpenTx(a) => 1 + a.size(),
        }
    }
}

/// Removes every element equal to an earlier one, keeping first
/// occurrences in order — in place, without cloning an element.
pub(crate) fn dedup_in_place<T: PartialEq>(items: &mut Vec<T>) {
    // Slots `[..kept]` hold the distinct elements seen so far.
    let mut kept = 0;
    for i in 0..items.len() {
        if !items[..kept].contains(&items[i]) {
            items.swap(kept, i);
            kept += 1;
        }
    }
    items.truncate(kept);
}

impl<M: fmt::Display> fmt::Display for Code<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Code::Skip => write!(f, "skip"),
            Code::Method(m) => write!(f, "{m}"),
            Code::Seq(a, b) => write!(f, "({a} ; {b})"),
            Code::Choice(a, b) => write!(f, "({a} + {b})"),
            Code::Star(a) => write!(f, "({a})*"),
            Code::Tx(a) => write!(f, "tx {a}"),
            Code::OpenTx(a) => write!(f, "otx {a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift64;

    fn m(s: &str) -> Code<&str> {
        Code::method(s)
    }

    #[test]
    fn step_of_skip_is_empty() {
        assert!(Code::<&str>::Skip.step().is_empty());
    }

    #[test]
    fn step_of_method_is_singleton() {
        let steps = m("a").step();
        assert_eq!(steps, vec![("a", Code::Skip)]);
    }

    #[test]
    fn seq_steps_through_fin_prefix() {
        // (skip ; a): skip is fin, so `a` is a next step.
        let c = Code::seq(Code::Skip, m("a"));
        let names: Vec<&str> = c.step().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a"]);
    }

    #[test]
    fn choice_collects_both_branches() {
        let c = Code::choice(m("a"), m("b"));
        let mut names: Vec<&str> = c.step().into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn star_is_fin_and_loops() {
        let c = Code::star(m("a"));
        assert!(c.fin());
        let steps = c.step();
        assert_eq!(steps.len(), 1);
        let (name, k) = &steps[0];
        assert_eq!(*name, "a");
        // Continuation is skip ; (a)*, which can step to `a` again.
        assert!(k.step().iter().any(|(n, _)| *n == "a"));
    }

    #[test]
    fn example_1_from_paper() {
        // c = tx (skip ; (c1 + (m + n)) ; c2) — (n, c2) ∈ step(c).
        let c = Code::tx(Code::seq(
            Code::seq(
                Code::Skip,
                Code::choice(m("c1"), Code::choice(m("m"), m("n"))),
            ),
            m("c2"),
        ));
        let steps = c.step();
        let n_step = steps
            .iter()
            .find(|(name, _)| *name == "n")
            .expect("n reachable");
        // Continuation reduces to c2 (modulo skip-sequencing).
        let next: Vec<&str> = n_step.1.step().into_iter().map(|(n, _)| n).collect();
        assert_eq!(next, vec!["c2"]);
    }

    #[test]
    fn step_deduplicates_across_choice_and_star() {
        // (a + a): both branches reduce to the same (a, skip) pair.
        let c = Code::choice(m("a"), m("a"));
        assert_eq!(c.step(), vec![("a", Code::Skip)]);
        // ((a + a))*: the duplicate survives the Star continuation map
        // without dedup, since both copies get the same continuation.
        let c = Code::star(Code::choice(m("a"), m("a")));
        assert_eq!(c.step().len(), 1);
        // Nested: ((a ; b) + (a ; b)) + (a ; b) — one pair, not three.
        let ab = || Code::seq(m("a"), m("b"));
        let c = Code::choice(Code::choice(ab(), ab()), ab());
        assert_eq!(c.step().len(), 1);
        // Distinct continuations for the same method are NOT merged.
        let c = Code::choice(Code::seq(m("a"), m("b")), Code::seq(m("a"), m("c")));
        assert_eq!(c.step().len(), 2);
    }

    #[test]
    fn fin_equations() {
        assert!(Code::<&str>::Skip.fin());
        assert!(!m("a").fin());
        assert!(!Code::seq(Code::Skip, m("a")).fin());
        assert!(Code::<&str>::seq(Code::Skip, Code::Skip).fin());
        assert!(Code::choice(m("a"), Code::Skip).fin());
        assert!(Code::star(m("a")).fin());
        assert!(!Code::tx(m("a")).fin());
    }

    #[test]
    fn reachable_methods_dedups_in_order() {
        let c = Code::seq(m("a"), Code::choice(m("b"), Code::seq(m("a"), m("c"))));
        assert_eq!(c.reachable_methods(), vec!["a", "b", "c"]);
    }

    #[test]
    fn seq_all_builds_right_nested_seq() {
        let c = Code::seq_all(vec![m("a"), m("b"), m("c")]);
        assert_eq!(c.to_string(), "(a ; (b ; c))");
        assert_eq!(Code::<&str>::seq_all(vec![]), Code::Skip);
    }

    #[test]
    fn size_counts_nodes() {
        let c = Code::seq(m("a"), Code::star(m("b")));
        assert_eq!(c.size(), 4);
    }

    #[test]
    fn open_tx_flattens_like_tx_in_step_and_fin() {
        let c = Code::otx(Code::seq(m("a"), m("b")));
        let names: Vec<&str> = c.step().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a"]);
        assert!(!c.fin());
        assert!(Code::<&str>::otx(Code::Skip).fin());
        assert_eq!(c.to_string(), "otx (a ; b)");
    }

    #[test]
    fn peel_scope_finds_leftmost_redex_with_continuation() {
        // tx a ; b — peels to (Closed, a, b).
        let c = Code::seq(Code::tx(m("a")), m("b"));
        let (kind, body, cont) = c.peel_scope().expect("peelable");
        assert_eq!(kind, ScopeKind::Closed);
        assert_eq!(body, m("a"));
        assert_eq!(cont, m("b"));
        // otx inside a seq-spine with a skip prefix.
        let c = Code::seq(Code::Skip, Code::seq(Code::otx(m("x")), m("y")));
        let (kind, body, cont) = c.peel_scope().expect("peelable");
        assert_eq!(kind, ScopeKind::Open);
        assert_eq!(body, m("x"));
        assert_eq!(cont, m("y"));
        // A method prefix blocks peeling (the scope is not the redex yet).
        assert!(Code::seq(m("a"), Code::tx(m("b"))).peel_scope().is_none());
        // No scope at all.
        assert!(m("a").peel_scope().is_none());
    }

    #[test]
    fn peel_scope_nested_tx_peels_outermost_first() {
        let c = Code::tx(Code::seq(Code::tx(m("a")), m("b")));
        let (kind, body, cont) = c.peel_scope().expect("peelable");
        assert_eq!(kind, ScopeKind::Closed);
        assert_eq!(cont, Code::Skip);
        // The body itself peels again (the inner scope).
        let (k2, b2, c2) = body.peel_scope().expect("inner peels");
        assert_eq!(k2, ScopeKind::Closed);
        assert_eq!(b2, m("a"));
        assert_eq!(c2, m("b"));
    }

    /// A random code of at most `depth` levels using every constructor of
    /// the grammar, over three methods (so choices and loops repeat them).
    fn gen(rng: &mut Xorshift64, depth: u32) -> Code<&'static str> {
        if depth == 0 || rng.gen_index(4) == 0 {
            return match rng.gen_index(4) {
                0 => Code::Skip,
                i => m(["a", "b", "c"][i - 1]),
            };
        }
        let a = gen(rng, depth - 1);
        match rng.gen_index(6) {
            0 | 1 => Code::seq(a, gen(rng, depth - 1)),
            2 => Code::choice(a, gen(rng, depth - 1)),
            3 => Code::star(a),
            4 => Code::tx(a),
            _ => Code::otx(a),
        }
    }

    /// Generated codes and the codes a random walk of `step` options
    /// reaches from them.
    fn walked_codes() -> Vec<Code<&'static str>> {
        let mut rng = Xorshift64::new(0x5e9_5c1b);
        let mut codes = Vec::new();
        for _ in 0..400 {
            let mut c = gen(&mut rng, 5);
            for _ in 0..6 {
                codes.push(c.clone());
                let steps = c.step();
                if steps.is_empty() {
                    break;
                }
                c = steps[rng.gen_index(steps.len())].1.clone();
            }
        }
        codes
    }

    #[test]
    fn first_step_is_the_first_step_option_pick_accepts() {
        let picks: [&dyn Fn(&&str) -> bool; 6] = [
            &|_| true,
            &|m| *m == "a",
            &|m| *m == "b",
            &|m| *m == "c",
            &|m| *m != "a",
            &|_| false,
        ];
        for c in walked_codes() {
            for pick in picks {
                let expected = c.step().into_iter().find(|(m, _)| pick(m));
                assert_eq!(c.first_step(pick), expected, "{c}");
            }
        }
    }

    #[test]
    fn no_step_continuation_begins_with_skip() {
        for c in walked_codes() {
            for (method, k) in c.step() {
                if let Code::Seq(first, _) = &k {
                    assert_ne!(**first, Code::Skip, "{c} steps {method} to {k}");
                }
            }
        }
    }

    #[test]
    fn a_straight_line_program_shrinks_with_every_app_until_skip() {
        use crate::machine::Machine;
        use crate::toy::{CounterMethod, ToyCounter};
        let mut rng = Xorshift64::new(7);
        // A random `Seq` tree over `n` methods, nested either way.
        fn tree(rng: &mut Xorshift64, n: usize) -> Code<CounterMethod> {
            if n == 1 {
                return Code::method(CounterMethod::Inc);
            }
            let left = 1 + rng.gen_index(n - 1);
            Code::seq(tree(rng, left), tree(rng, n - left))
        }
        for n in 1..=12 {
            let program = if n % 2 == 0 {
                Code::seq_all((0..n).map(|_| Code::method(CounterMethod::Inc)))
            } else {
                tree(&mut rng, n)
            };
            let mut machine = Machine::new(ToyCounter::with_bound(16));
            let t = machine.add_thread(vec![program.clone()]);
            let mut size = program.size();
            for _ in 0..n {
                machine.app_method(t, &CounterMethod::Inc).expect("APP");
                let code = machine.thread(t).unwrap().code().expect("active");
                let shrank = code.size() < size || *code == Code::Skip;
                assert!(shrank, "{program}: {code} after an APP");
                size = code.size();
            }
            assert_eq!(size, 1, "{program} ends in skip");
        }
    }

    #[test]
    fn strip_open_replaces_otx_with_skip() {
        let c = Code::seq(m("a"), Code::seq(Code::otx(m("x")), m("b")));
        assert!(c.has_open());
        let stripped = c.strip_open();
        assert!(!stripped.has_open());
        assert_eq!(stripped.reachable_methods(), vec!["a", "b"]);
        // Open-free code round-trips identically.
        let flat = Code::tx(Code::seq(m("a"), m("b")));
        assert_eq!(flat.strip_open(), flat);
    }
}
