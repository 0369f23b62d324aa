//! Property test for the static mover matrix: on every spec with an
//! enumerable state universe, a `Some(true)` cell must be confirmed by
//! the exhaustive method-level oracle
//! ([`method_mover_exhaustive`]), which itself quantifies the dynamic
//! op-level `mover` over all observable return pairs. A proven cell reads
//! as "these methods never conflict"; the spec certifier compares every
//! declared cell with the exhaustive one, and a `Some(true)` the
//! exhaustive oracle refutes is its one error-severity mover finding.
//!
//! `Some(false)` cells are allowed to be conservative (the hand-written
//! oracles decline some return-dependent movers the exhaustive check
//! would admit, e.g. zero-amount withdraw self-pairs), so only the
//! `Some(true)` direction is asserted.

use pushpull_analysis::MoverMatrix;
use pushpull_core::spec::{method_mover_exhaustive, SeqSpec};
use pushpull_spec::bank::{Bank, BankMethod};
use pushpull_spec::counter::{Counter, CtrMethod};
use pushpull_spec::kvmap::{KvMap, MapMethod};
use pushpull_spec::queue::{QueueMethod, QueueSpec};
use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};
use pushpull_spec::set::{SetMethod, SetSpec};

/// Builds the matrix over `alphabet` and checks every proven cell against
/// the exhaustive oracle; returns (proven, refuted) cell counts so each
/// caller can assert its alphabet exercises both verdicts.
fn assert_sound<S: SeqSpec>(spec: &S, alphabet: &[S::Method], label: &str) -> (usize, usize) {
    let universe = spec
        .state_universe()
        .unwrap_or_else(|| panic!("{label}: bounded spec must enumerate states"));
    let matrix = MoverMatrix::build(spec, alphabet);
    let (mut proven, mut refuted) = (0, 0);
    for m1 in matrix.alphabet() {
        for m2 in matrix.alphabet() {
            match matrix.query(m1, m2) {
                Some(true) => {
                    proven += 1;
                    assert!(
                        method_mover_exhaustive(spec, &universe, m1, m2),
                        "{label}: static matrix proved {m1:?} ◁ {m2:?}, \
                         but the exhaustive oracle refutes it"
                    );
                }
                Some(false) => refuted += 1,
                None => {}
            }
        }
    }
    (proven, refuted)
}

#[test]
fn counter_matrix_is_sound() {
    let spec = Counter::with_universe(3);
    let alphabet = vec![
        CtrMethod::Add(0),
        CtrMethod::Add(1),
        CtrMethod::Add(-2),
        CtrMethod::Get,
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "counter");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn bank_matrix_is_sound() {
    let spec = Bank::bounded(vec![0, 1], 3);
    let alphabet = vec![
        BankMethod::Deposit(0, 1),
        BankMethod::Deposit(0, 0),
        BankMethod::Deposit(1, 2),
        BankMethod::Withdraw(0, 1),
        BankMethod::Withdraw(1, 0),
        BankMethod::Balance(0),
        BankMethod::Balance(1),
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "bank");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn kvmap_matrix_is_sound() {
    let spec = KvMap::bounded(vec![0, 1], vec![1, 2]);
    let alphabet = vec![
        MapMethod::Put(0, 1),
        MapMethod::Put(1, 2),
        MapMethod::Get(0),
        MapMethod::Get(1),
        MapMethod::Remove(0),
        MapMethod::ContainsKey(1),
        MapMethod::Size,
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "kvmap");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn rwmem_matrix_is_sound() {
    let spec = RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1]);
    let alphabet = vec![
        MemMethod::Read(Loc(0)),
        MemMethod::Read(Loc(1)),
        MemMethod::Write(Loc(0), 0),
        MemMethod::Write(Loc(0), 1),
        MemMethod::Write(Loc(1), 1),
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "rwmem");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn set_matrix_is_sound() {
    let spec = SetSpec::bounded(vec![0, 1]);
    let alphabet = vec![
        SetMethod::Add(0),
        SetMethod::Add(1),
        SetMethod::Remove(0),
        SetMethod::Contains(0),
        SetMethod::Contains(1),
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "set");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn queue_matrix_is_sound() {
    let spec = QueueSpec::bounded(vec![1, 2], 2);
    let alphabet = vec![
        QueueMethod::Enq(1),
        QueueMethod::Enq(2),
        QueueMethod::Deq,
        QueueMethod::Peek,
    ];
    let (proven, refuted) = assert_sound(&spec, &alphabet, "queue");
    assert!(proven > 0 && refuted > 0);
}

#[test]
fn default_method_mover_agrees_with_override_on_proven_cells() {
    // The trait's default derivation (exhaustive over the universe) and
    // the hand-written overrides must agree wherever the override claims
    // `Some(true)` — i.e. the override never over-approximates.
    let spec = RwMem::bounded(vec![Loc(0)], vec![0, 1]);
    let universe = spec.state_universe().unwrap();
    let pairs = [
        (MemMethod::Read(Loc(0)), MemMethod::Read(Loc(0))),
        (MemMethod::Write(Loc(0), 1), MemMethod::Write(Loc(0), 1)),
        (MemMethod::Read(Loc(0)), MemMethod::Write(Loc(0), 1)),
    ];
    for (m1, m2) in &pairs {
        if spec.method_mover(m1, m2) == Some(true) {
            assert!(method_mover_exhaustive(&spec, &universe, m1, m2));
        }
    }
}
