//! Algebraic validation of the `method_keys` footprint declarations.
//!
//! A footprint declaration is only sound to use for log sharding if two
//! laws hold (documented on [`SeqSpec::method_keys`]):
//!
//! 1. **Disjointness ⇒ both-mover:** methods with disjoint declared
//!    footprints must commute in every state
//!    ([`disjoint_commute_violations`] cross-checks against the
//!    exhaustive Definition 4.1 oracle on a bounded state universe).
//! 2. **Factorization:** `allowed` over a mixed-key log must equal the
//!    conjunction of `allowed` over its per-key-class projections
//!    ([`factorization_violations`] enumerates short logs).
//!
//! These are the *shared* law checkers: the `pushpull-analysis` spec
//! certifier calls the same two functions to produce its
//! `unsound-footprint`/`unsound-factorization` diagnostics, so each test
//! asserts on the very lists the certifier reads. Law 1 is also the lock
//! law of boosting, 2PL and §7's boosted half, which lock the declared
//! footprint.
//!
//! Counter, register, and queue declare a single key class for every
//! method, so both laws are vacuous there; the interesting cases are the
//! keyed specs (rwmem, kvmap, set, bank) and the product encoding.

use pushpull_core::spec::{disjoint_commute_violations, factorization_violations, KeySet, SeqSpec};
use pushpull_spec::bank::{self, Bank, BankMethod};
use pushpull_spec::composite::{Either, Product};
use pushpull_spec::counter::{self, Counter, CtrMethod};
use pushpull_spec::kvmap::{self, KvMap, MapMethod};
use pushpull_spec::queue::{QueueMethod, QueueSpec};
use pushpull_spec::register::{CasRegister, RegMethod};
use pushpull_spec::rwmem::{self, Loc, MemMethod, RwMem};
use pushpull_spec::set::{self, SetMethod, SetSpec};

#[test]
fn rwmem_footprints_satisfy_both_laws() {
    let spec = RwMem::bounded(vec![Loc(0), Loc(1)], vec![0, 1]);
    let universe = spec.state_universe().unwrap();
    let methods = vec![
        MemMethod::Read(Loc(0)),
        MemMethod::Read(Loc(1)),
        MemMethod::Write(Loc(0), 1),
        MemMethod::Write(Loc(1), 1),
    ];
    assert!(disjoint_commute_violations(&spec, &universe, &methods).is_empty());
    let sample = vec![
        rwmem::ops::write(0, 0, 0, 1),
        rwmem::ops::read(1, 0, 0, 1),
        rwmem::ops::write(2, 1, 1, 1),
        rwmem::ops::read(3, 1, 1, 0),
    ];
    assert!(factorization_violations(&spec, &sample, 3).is_empty());
}

#[test]
fn kvmap_footprints_satisfy_both_laws() {
    let spec = KvMap::bounded(vec![1, 2], vec![7]);
    let universe = spec.state_universe().unwrap();
    let methods = vec![
        MapMethod::Get(1),
        MapMethod::Put(1, 7),
        MapMethod::Remove(2),
        MapMethod::ContainsKey(2),
        MapMethod::Size, // no footprint: exempt from both laws
    ];
    assert!(disjoint_commute_violations(&spec, &universe, &methods).is_empty());
    let sample = vec![
        kvmap::ops::put(0, 0, 1, 7, None),
        kvmap::ops::get(1, 0, 1, Some(7)),
        kvmap::ops::remove(2, 1, 2, None),
        kvmap::ops::contains(3, 1, 2, false),
    ];
    assert!(factorization_violations(&spec, &sample, 3).is_empty());
}

#[test]
fn set_footprints_satisfy_both_laws() {
    let spec = SetSpec::bounded(vec![1, 2]);
    let universe = spec.state_universe().unwrap();
    let methods = vec![
        SetMethod::Add(1),
        SetMethod::Remove(1),
        SetMethod::Contains(2),
        SetMethod::Add(2),
    ];
    assert!(disjoint_commute_violations(&spec, &universe, &methods).is_empty());
    let sample = vec![
        set::ops::add(0, 0, 1, true),
        set::ops::contains(1, 0, 1, true),
        set::ops::add(2, 1, 2, true),
        set::ops::remove(3, 1, 2, true),
    ];
    assert!(factorization_violations(&spec, &sample, 3).is_empty());
}

#[test]
fn bank_footprints_satisfy_both_laws() {
    let spec = Bank::bounded(vec![1, 2], 4);
    let universe = spec.state_universe().unwrap();
    let methods = vec![
        BankMethod::Deposit(1, 2),
        BankMethod::Withdraw(1, 1),
        BankMethod::Balance(2),
        BankMethod::Deposit(2, 1),
    ];
    assert!(disjoint_commute_violations(&spec, &universe, &methods).is_empty());
    let sample = vec![
        bank::ops::deposit(0, 0, 1, 2),
        bank::ops::withdraw(1, 0, 1, 1, true),
        bank::ops::deposit(2, 1, 2, 1),
        bank::ops::balance(3, 1, 2, 0),
    ];
    assert!(factorization_violations(&spec, &sample, 3).is_empty());
}

#[test]
fn product_footprints_satisfy_both_laws() {
    // Left keys map to even classes, right keys to odd — cross-component
    // methods therefore always declare disjoint footprints, and the
    // disjointness law reduces to "components act on disjoint state".
    let spec = Product::new(SetSpec::bounded(vec![1, 2]), Counter::with_universe(2));
    let universe = spec.state_universe().unwrap();
    let methods = vec![
        Either::L(SetMethod::Add(1)),
        Either::L(SetMethod::Contains(2)),
        Either::R(CtrMethod::Add(1)),
        Either::R(CtrMethod::Get),
    ];
    assert!(disjoint_commute_violations(&spec, &universe, &methods).is_empty());
    let lift_set = |op: pushpull_spec::set::SetOp| {
        pushpull_core::op::Op::new(op.id, op.txn, Either::L(op.method), Either::L(op.ret))
    };
    let lift_ctr = |op: pushpull_spec::counter::CtrOp| {
        pushpull_core::op::Op::new(op.id, op.txn, Either::R(op.method), Either::R(op.ret))
    };
    let sample = vec![
        lift_set(set::ops::add(0, 0, 1, true)),
        lift_set(set::ops::contains(1, 0, 2, false)),
        lift_ctr(counter::ops::add(2, 1, 1)),
        lift_ctr(counter::ops::get(3, 1, 0)),
    ];
    assert!(factorization_violations(&spec, &sample, 3).is_empty());
}

#[test]
fn product_key_encoding_separates_components() {
    let spec = Product::new(SetSpec::new(), Counter::new());
    let l = spec.method_keys(&Either::L(SetMethod::Add(3))).unwrap();
    let r = spec.method_keys(&Either::R(CtrMethod::Get)).unwrap();
    assert_eq!(l.as_slice(), &[6]); // 3 * 2
    assert_eq!(r.as_slice(), &[1]); // 0 * 2 + 1
    assert!(l.iter().all(|k| k % 2 == 0));
    assert!(r.iter().all(|k| k % 2 == 1));
}

#[test]
fn single_class_specs_declare_one_key() {
    // Counter, register, and queue funnel everything into one class —
    // sharding them is a sound no-op (all traffic on one shard).
    assert_eq!(
        Counter::new().method_keys(&CtrMethod::Get),
        Some(KeySet::one(0))
    );
    assert_eq!(
        CasRegister::new().method_keys(&RegMethod::Read),
        Some(KeySet::one(0))
    );
    assert_eq!(
        QueueSpec::new().method_keys(&QueueMethod::Deq),
        Some(KeySet::one(0))
    );
}
