//! Negative tests for the spec certifier: each wrapper spec seeds one
//! specific mis-declaration over a sound base spec (`SetSpec::bounded`)
//! and asserts the certifier reports exactly the expected diagnostic.
//! A final property test pins the inferred matrix to the exhaustive
//! method-level oracle on every shipped bounded spec.

use pushpull_analysis::{
    certify, infer, COARSE_FORCING, NEEDLESSLY_COARSE, UNSOUND_FOOTPRINT, UNSOUND_MOVER,
    UNSOUND_RESULTS, UNSOUND_STEP,
};
use pushpull_analysis::{Diagnostic, Severity};
use pushpull_core::op::Op;
use pushpull_core::spec::{method_mover_exhaustive, KeySet, Rets, SeqSpec};
use pushpull_spec::bank::Bank;
use pushpull_spec::composite::Product;
use pushpull_spec::counter::Counter;
use pushpull_spec::kvmap::KvMap;
use pushpull_spec::queue::QueueSpec;
use pushpull_spec::register::CasRegister;
use pushpull_spec::rwmem::{Loc, RwMem};
use pushpull_spec::set::{SetMethod, SetRet, SetSpec, SetState};

/// Delegates the whole sequential semantics to an inner [`SetSpec`];
/// each test wrapper overrides exactly one declaration on top.
macro_rules! delegate_set_semantics {
    () => {
        delegate_set_universe!();

        fn apply(&self, s: &mut SetState, m: &SetMethod, r: &SetRet) -> bool {
            self.inner.apply(s, m, r)
        }
        fn results(&self, s: &SetState, m: &SetMethod) -> Rets<SetRet> {
            self.inner.results(s, m)
        }
    };
}

/// [`delegate_set_semantics`] without the step and its returns, for the
/// wrappers that seed a defect in one of those.
macro_rules! delegate_set_universe {
    () => {
        type Method = SetMethod;
        type Ret = SetRet;
        type State = SetState;

        fn initial_states(&self) -> Vec<SetState> {
            self.inner.initial_states()
        }
        fn state_universe(&self) -> Option<Vec<SetState>> {
            self.inner.state_universe()
        }
        fn mover(&self, op1: &Op<SetMethod, SetRet>, op2: &Op<SetMethod, SetRet>) -> bool {
            self.inner.mover(op1, op2)
        }
        fn method_universe(&self) -> Option<Vec<SetMethod>> {
            self.inner.method_universe()
        }
    };
}

fn base() -> SetSpec {
    SetSpec::bounded(vec![1, 2])
}

fn findings<'a>(diags: &'a [Diagnostic], lint: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

/// Mis-declares `Add`'s footprint one key off, so `add(x)` is declared
/// disjoint from `contains(x)`/`remove(x)` — which it conflicts with.
struct WrongKey {
    inner: SetSpec,
}

impl SeqSpec for WrongKey {
    delegate_set_semantics!();

    fn method_mover(&self, m1: &SetMethod, m2: &SetMethod) -> Option<bool> {
        self.inner.method_mover(m1, m2)
    }

    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        match m {
            SetMethod::Add(x) => Some(KeySet::one(x + 100)),
            _ => self.inner.method_keys(m),
        }
    }
}

#[test]
fn wrong_key_is_an_unsound_footprint_error() {
    let cert = certify(&WrongKey { inner: base() }, "wrong-key").unwrap();
    assert!(!cert.is_valid());
    let hits = findings(&cert.diagnostics, UNSOUND_FOOTPRINT);
    assert!(
        !hits.is_empty(),
        "law 1 must be refuted:\n{:?}",
        cert.diagnostics
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("disjoint"), "{}", d.message);
    }
    // The seeded defect is on `Add`: every violation names an add pair.
    assert!(hits.iter().any(|d| d.message.contains("Add")));
}

/// Drops `Contains`'s footprint entirely: sound but coarse-forcing.
struct MissingKey {
    inner: SetSpec,
}

impl SeqSpec for MissingKey {
    delegate_set_semantics!();

    fn method_mover(&self, m1: &SetMethod, m2: &SetMethod) -> Option<bool> {
        self.inner.method_mover(m1, m2)
    }

    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        match m {
            SetMethod::Contains(_) => None,
            _ => self.inner.method_keys(m),
        }
    }
}

#[test]
fn missing_key_is_a_coarse_forcing_warning_not_an_error() {
    let cert = certify(&MissingKey { inner: base() }, "missing-key").unwrap();
    // Sound — the certificate is still valid — but the cover is coarse.
    assert!(cert.is_valid());
    let hits = findings(&cert.diagnostics, COARSE_FORCING);
    assert_eq!(
        hits.len(),
        2,
        "one warning per bounded element:\n{:?}",
        cert.diagnostics
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("contains"), "{}", d.message);
    }
    // A single undeclared method poisons the shard count.
    assert_eq!(cert.certificate.shard_keys, 0);
}

/// Claims `add(x) ◁ contains(x)` — refuted by the denotation (the
/// membership answer flips across the add).
struct UnsoundMover {
    inner: SetSpec,
}

impl SeqSpec for UnsoundMover {
    delegate_set_semantics!();

    fn method_mover(&self, m1: &SetMethod, m2: &SetMethod) -> Option<bool> {
        match (m1, m2) {
            (SetMethod::Add(x), SetMethod::Contains(y)) if x == y => Some(true),
            _ => self.inner.method_mover(m1, m2),
        }
    }

    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        self.inner.method_keys(m)
    }
}

#[test]
fn unsound_mover_override_is_an_error() {
    let cert = certify(&UnsoundMover { inner: base() }, "unsound-mover").unwrap();
    assert!(!cert.is_valid());
    let hits = findings(&cert.diagnostics, UNSOUND_MOVER);
    assert_eq!(
        hits.len(),
        2,
        "one error per bounded element:\n{:?}",
        cert.diagnostics
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.message.contains("add") && d.message.contains("contains"),
            "{}",
            d.message
        );
    }
}

/// Funnels every element into one key class: sound, but the inferred
/// conflict components show elements 1 and 2 never interfere.
struct OneClass {
    inner: SetSpec,
}

impl SeqSpec for OneClass {
    delegate_set_semantics!();

    fn method_mover(&self, m1: &SetMethod, m2: &SetMethod) -> Option<bool> {
        self.inner.method_mover(m1, m2)
    }

    fn method_keys(&self, _m: &SetMethod) -> Option<KeySet> {
        Some(KeySet::one(0))
    }
}

#[test]
fn one_class_cover_is_needlessly_coarse() {
    let cert = certify(&OneClass { inner: base() }, "one-class").unwrap();
    assert!(
        cert.is_valid(),
        "coarseness is sound:\n{:?}",
        cert.diagnostics
    );
    let hits = findings(&cert.diagnostics, NEEDLESSLY_COARSE);
    assert!(!hits.is_empty(), "{:?}", cert.diagnostics);
    for d in &hits {
        assert_eq!(d.severity, Severity::Note);
    }
    // The base spec's per-element cover draws no such note.
    let clean = certify(&base(), "set").unwrap();
    assert!(findings(&clean.diagnostics, NEEDLESSLY_COARSE).is_empty());
}

/// `Remove(x)` takes `x` out before it compares the observed presence, so
/// a refused removal has already written.
struct WritesBeforeRefusing {
    inner: SetSpec,
}

impl SeqSpec for WritesBeforeRefusing {
    delegate_set_universe!();

    fn apply(&self, s: &mut SetState, m: &SetMethod, r: &SetRet) -> bool {
        match m {
            SetMethod::Remove(x) => s.remove(x) == r.0,
            _ => self.inner.apply(s, m, r),
        }
    }

    fn results(&self, s: &SetState, m: &SetMethod) -> Rets<SetRet> {
        self.inner.results(s, m)
    }

    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        self.inner.method_keys(m)
    }
}

#[test]
fn a_step_that_writes_before_refusing_is_an_error() {
    let cert = certify(&WritesBeforeRefusing { inner: base() }, "writes-first").unwrap();
    assert!(!cert.is_valid());
    let hits = findings(&cert.diagnostics, UNSOUND_STEP);
    assert_eq!(
        hits.len(),
        2,
        "one error per bounded element:\n{:?}",
        cert.diagnostics
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("remove"), "{}", d.message);
    }
    // It accepts exactly what `results` offers: only the write is wrong.
    assert!(findings(&cert.diagnostics, UNSOUND_RESULTS).is_empty());
}

/// `Contains(x)` offers both answers, though every state pins one: a
/// return `results` offers that `apply` refuses.
struct OffersBoth {
    inner: SetSpec,
}

impl SeqSpec for OffersBoth {
    delegate_set_universe!();

    fn apply(&self, s: &mut SetState, m: &SetMethod, r: &SetRet) -> bool {
        self.inner.apply(s, m, r)
    }

    fn results(&self, s: &SetState, m: &SetMethod) -> Rets<SetRet> {
        match m {
            SetMethod::Contains(_) => [SetRet(true), SetRet(false)].into_iter().collect(),
            _ => self.inner.results(s, m),
        }
    }

    fn method_keys(&self, m: &SetMethod) -> Option<KeySet> {
        self.inner.method_keys(m)
    }
}

#[test]
fn results_offering_a_refused_return_break_the_check_first_law() {
    let cert = certify(&OffersBoth { inner: base() }, "offers-both").unwrap();
    assert!(!cert.is_valid());
    let hits = findings(&cert.diagnostics, UNSOUND_RESULTS);
    assert_eq!(
        hits.len(),
        2,
        "one error per bounded element:\n{:?}",
        cert.diagnostics
    );
    for d in &hits {
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.message.contains("contains") && d.message.contains("refuses"),
            "{}",
            d.message
        );
    }
    assert!(findings(&cert.diagnostics, UNSOUND_STEP).is_empty());
}

/// The inferred matrix is definitionally the exhaustive method-level
/// oracle; pin that equality on every shipped bounded spec's universe.
fn assert_inferred_matches_exhaustive<S: SeqSpec>(spec: &S, label: &str) {
    let inf = infer(spec).unwrap_or_else(|| panic!("{label}: must be finitely certifiable"));
    let universe = spec.state_universe().unwrap();
    for m1 in &inf.methods {
        for m2 in &inf.methods {
            assert_eq!(
                inf.matrix.query(m1, m2),
                Some(method_mover_exhaustive(spec, &universe, m1, m2)),
                "{label}: inferred cell {m1:?} ◁ {m2:?} diverges from the exhaustive oracle"
            );
        }
    }
}

#[test]
fn inferred_matrix_matches_exhaustive_oracle_on_every_spec() {
    assert_inferred_matches_exhaustive(&Counter::with_universe(2), "counter");
    assert_inferred_matches_exhaustive(&CasRegister::with_universe(2), "register");
    assert_inferred_matches_exhaustive(&QueueSpec::bounded(vec![1, 2], 2), "queue");
    assert_inferred_matches_exhaustive(&Bank::bounded(vec![1], 2), "bank");
    assert_inferred_matches_exhaustive(&KvMap::bounded(vec![0, 1], vec![1]), "kvmap");
    assert_inferred_matches_exhaustive(&RwMem::bounded(vec![Loc(0)], vec![0, 1]), "rwmem");
    assert_inferred_matches_exhaustive(&SetSpec::bounded(vec![1, 2]), "set");
    assert_inferred_matches_exhaustive(
        &Product::new(SetSpec::bounded(vec![1]), Counter::with_universe(2)),
        "product",
    );
}

#[test]
fn every_shipped_spec_certifies_without_errors() {
    // The acceptance bar for the whole suite: zero error-severity
    // findings on any shipped bounded spec.
    assert_eq!(
        certify(&Counter::with_universe(2), "counter")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(&CasRegister::with_universe(2), "register")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(&QueueSpec::bounded(vec![1, 2], 2), "queue")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(&Bank::bounded(vec![1, 2], 2), "bank")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(&KvMap::bounded(vec![0, 1], vec![1]), "kvmap")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(
            &RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1, 2]),
            "rwmem"
        )
        .unwrap()
        .errors(),
        0
    );
    assert_eq!(
        certify(&SetSpec::bounded(vec![1, 2]), "set")
            .unwrap()
            .errors(),
        0
    );
    assert_eq!(
        certify(
            &Product::new(SetSpec::bounded(vec![1]), Counter::with_universe(2)),
            "product"
        )
        .unwrap()
        .errors(),
        0
    );
}
