//! The whole-spec certifier: machine-checked soundness certificates for
//! spec declarations.
//!
//! [`certify`] derives, from nothing but a spec's denotational semantics
//! (via [`mod@crate::infer`]), the ground-truth method-level mover matrix and
//! the minimal sound footprint assignment, then cross-checks every
//! hand-written [`method_mover`](SeqSpec::method_mover) and
//! [`method_keys`](SeqSpec::method_keys) override — plus the two
//! footprint laws (disjointness ⇒ both-mover, single-key factorization
//! of `allowed`) — against that ground truth, and checks the two laws of
//! the in-place step [`apply`](SeqSpec::apply) that the machine's checks
//! rely on (a refusal writes nothing; `apply` accepts exactly what
//! [`results`](SeqSpec::results) offers). Each unsound, incomplete,
//! or needlessly-coarse declaration becomes a rustc-style
//! [`Diagnostic`]; the checked facts are packaged as a
//! [`SpecCertificate`].
//!
//! Severity ladder for mover findings:
//!
//! * a `Some(true)` override the exhaustive derivation *refutes* is an
//!   **error** ([`UNSOUND_MOVER`]) — any reasoning from the matrix
//!   would trust a pair that can fail;
//! * a refused pair (`Some(false)`/`None`) the derivation *proves* is
//!   **incomplete** ([`INCOMPLETE_MOVER`]): a **warning** when the
//!   proof is structurally certain (a method self-pair with a single
//!   observable return denotes identically in both orders, so no
//!   universe bound can explain the refusal), otherwise a **note**
//!   (exhaustiveness over a bounded universe can be *more* permissive
//!   than a sound algebraic oracle — a larger universe might refute
//!   the pair).
//!
//! Step findings ([`UNSOUND_STEP`], [`UNSOUND_RESULTS`]) are **errors**.
//!
//! Footprint findings: law violations are **errors**
//! ([`UNSOUND_FOOTPRINT`], [`UNSOUND_FACTORIZATION`]); a method
//! declaring no footprint is a **warning** ([`COARSE_FORCING`] — it
//! degrades every sharded log it touches to the coarse path); a shared
//! key class joining methods that provably never conflict is a **note**
//! ([`NEEDLESSLY_COARSE`]).

use std::fmt;
use std::sync::Arc;

use pushpull_core::lang::Code;
use pushpull_core::op::{Op, OpId, TxnId};
use pushpull_core::spec::{
    disjoint_commute_violations, factorization_violations, observable_rets, SeqSpec,
};

use crate::certificate::SpecCertificate;
use crate::diagnostics::{find_method, Diagnostic, Severity, Span};
use crate::infer::{infer, InferredSpec};
use crate::matrix::MoverMatrix;

/// A `method_mover` override claims `Some(true)` on a pair the
/// exhaustive Definition 4.1 derivation refutes.
pub const UNSOUND_MOVER: &str = "unsound-mover-override";
/// A `method_mover` override refuses a pair the exhaustive derivation
/// proves for every observable return pair.
pub const INCOMPLETE_MOVER: &str = "incomplete-mover-override";
/// Disjoint declared footprints on a pair that is not an exhaustive
/// both-mover (footprint law 1).
pub const UNSOUND_FOOTPRINT: &str = "unsound-footprint";
/// `allowed` fails to factorize over the declared single-key classes
/// (footprint law 2).
pub const UNSOUND_FACTORIZATION: &str = "unsound-factorization";
/// A method declares no footprint (`method_keys` → `None`), forcing
/// every sharded log it touches onto the coarse whole-log path.
pub const COARSE_FORCING: &str = "coarse-forcing";
/// A declared key class joins methods that provably never conflict.
pub const NEEDLESSLY_COARSE: &str = "needlessly-coarse";
/// `apply` refused an operation after writing to the state: a denial
/// would corrupt the set it was asked about.
pub const UNSOUND_STEP: &str = "unsound-step";
/// `results` and `apply` disagree (the check-first law): a return offered
/// but refused, or accepted but not offered.
pub const UNSOUND_RESULTS: &str = "unsound-results";
/// The spec exposes no finite state/method universe to certify against.
pub const UNCERTIFIABLE: &str = "uncertifiable-spec";
/// An `inverse` verdict the exhaustive law check refutes: an
/// `Inverse(m, r)` whose round-trip `⟦ℓ · op · op⁻¹⟧ = ⟦ℓ⟧` fails, or a
/// `ReadOnly` operation that changes state.
pub const UNSOUND_INVERSE: &str = "unsound-inverse";
/// `has_inverses()` claims every operation invertible, but some
/// observable operation is `NotInvertible`.
pub const UNSOUND_INVERSE_CLAIM: &str = "unsound-inverse-claim";
/// A program opens an `otx` scope over a method with `NotInvertible`
/// operations: the open commit is guaranteed to be refused at runtime.
pub const OPEN_NESTING_REFUSED: &str = "open-nesting-refused";
/// The spec has non-invertible operations (and does not claim
/// otherwise), so open-nested scopes cannot commit methods built on
/// them.
pub const OPEN_NESTING_UNAVAILABLE: &str = "open-nesting-unavailable";

/// Longest factored log the factorization law is checked on. Dropped to
/// 2 for large samples so the sequence enumeration stays test-sized.
const FACTOR_LEN: usize = 3;
const FACTOR_LEN_LARGE_SAMPLE: usize = 2;
const FACTOR_SAMPLE_CAP: usize = 18;

/// The certifier's output: the checked certificate plus every finding
/// that went into its error/warning/note tallies.
#[derive(Debug, Clone)]
pub struct Certification {
    /// The machine-checked facts.
    pub certificate: Arc<SpecCertificate>,
    /// Every finding, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Certification {
    /// Did the spec certify without errors? (Warnings and notes — e.g. a
    /// deliberately coarse `Size` footprint — do not invalidate.)
    pub fn is_valid(&self) -> bool {
        self.certificate.is_valid()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.certificate.errors
    }
}

/// Certifies `spec` with no program context (all diagnostics global).
pub fn certify<S: SeqSpec>(spec: &S, name: &str) -> Result<Certification, Box<Diagnostic>>
where
    S::Method: fmt::Display,
{
    certify_in(spec, name, &[])
}

/// Certifies `spec`, anchoring each finding at the first syntactic
/// occurrence of its method in `programs` (when it occurs at all) so the
/// report reads like compiler output over the workload's source.
pub fn certify_in<S: SeqSpec>(
    spec: &S,
    name: &str,
    programs: &[Vec<Code<S::Method>>],
) -> Result<Certification, Box<Diagnostic>>
where
    S::Method: fmt::Display,
{
    let Some(inf) = infer(spec) else {
        return Err(Box::new(
            Diagnostic::global(
                Severity::Note,
                UNCERTIFIABLE,
                format!(
                    "spec `{name}` cannot be certified: it exposes no finite \
                 state/method universe (`state_universe`/`method_universe`)"
                ),
            )
            .with_note(
                "bounded spec variants certify; unbounded overrides stay trusted-but-unchecked",
            ),
        ));
    };
    let states = spec
        .state_universe()
        .expect("infer() succeeded, so the state universe exists");
    let declared = MoverMatrix::build(spec, &inf.methods);
    let mut diags = Vec::new();

    check_mover_matrix::<S>(&inf, &declared, programs, &mut diags);
    check_step_laws(spec, &states, &inf, programs, &mut diags);
    check_footprints(spec, &states, &inf, programs, &mut diags);
    let inverse_law = check_inverses(spec, &states, &inf, programs, &mut diags);

    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let errors = count(&diags, Severity::Error);
    let warnings = count(&diags, Severity::Warning);
    let notes = count(&diags, Severity::Note);

    let footprints: Vec<Option<Vec<u64>>> = inf
        .methods
        .iter()
        .map(|m| spec.method_keys(m).map(|ks| ks.iter().copied().collect()))
        .collect();
    let shard_keys = if footprints.iter().any(Option::is_none) {
        0
    } else {
        let mut keys: Vec<u64> = footprints.iter().flatten().flatten().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };

    let certificate = SpecCertificate {
        spec_name: name.to_string(),
        methods: inf.methods.iter().map(ToString::to_string).collect(),
        matrix: inf.matrix.cells().to_vec(),
        footprints,
        components: inf.components.clone(),
        inverse_law,
        shard_keys,
        errors,
        warnings,
        notes,
    };
    Ok(Certification {
        certificate: Arc::new(certificate),
        diagnostics: diags,
    })
}

fn count(diags: &[Diagnostic], sev: Severity) -> usize {
    diags.iter().filter(|d| d.severity == sev).count()
}

/// Anchors a finding at `m`'s first occurrence in `programs`, else
/// leaves it global.
fn at_method<M: Clone + Eq + fmt::Display>(
    diag: Diagnostic,
    programs: &[Vec<Code<M>>],
    m: &M,
) -> Diagnostic {
    for (thread, txns) in programs.iter().enumerate() {
        for (txn, code) in txns.iter().enumerate() {
            if let Some(path) = find_method(code, m) {
                return Diagnostic {
                    span: Some(Span { thread, txn, path }),
                    snippet: Some(m.to_string()),
                    ..diag
                };
            }
        }
    }
    diag
}

/// Cross-checks every declared matrix cell against the exhaustive one.
fn check_mover_matrix<S: SeqSpec>(
    inf: &InferredSpec<S::Method>,
    declared: &MoverMatrix<S::Method>,
    programs: &[Vec<Code<S::Method>>],
    diags: &mut Vec<Diagnostic>,
) where
    S::Method: fmt::Display,
{
    for (i, m1) in inf.methods.iter().enumerate() {
        for (j, m2) in inf.methods.iter().enumerate() {
            let truth = inf
                .matrix
                .query(m1, m2)
                .expect("exhaustive matrix decides every cell");
            let claim = declared.query(m1, m2);
            if claim == Some(true) && !truth {
                let d = Diagnostic::global(
                    Severity::Error,
                    UNSOUND_MOVER,
                    format!(
                        "`{m1} ◁ {m2}` is declared a universal mover, but the exhaustive \
                         Definition 4.1 derivation over the spec's universe refutes it"
                    ),
                )
                .with_note(
                    "a `Some(true)` override promises mover checks that can fail; weaken \
                     the override (or fix the denotation)",
                );
                diags.push(at_method(d, programs, m1));
            } else if claim != Some(true) && truth {
                let structurally_certain = i == j && inf.single_ret[i];
                let (severity, why) = if structurally_certain {
                    (
                        Severity::Warning,
                        "a self-pair of a single-return method denotes identically in both \
                         orders; no universe bound can explain the refusal",
                    )
                } else {
                    (
                        Severity::Note,
                        "this may be a universe-bound artifact: a larger universe could \
                         refute the pair, so verify algebraically before promoting the \
                         override to `Some(true)`",
                    )
                };
                let d = Diagnostic::global(
                    severity,
                    INCOMPLETE_MOVER,
                    format!(
                        "`{m1} ◁ {m2}` is declared {} but holds for every observable \
                         return pair over the spec's universe",
                        match claim {
                            Some(false) => "`Some(false)`",
                            _ => "undecided (`None`)",
                        },
                    ),
                )
                .with_note(why);
                diags.push(at_method(d, programs, m1));
            }
        }
    }
}

/// Certifies the inverse oracle against the round-trip law, exhaustively
/// over every observable operation of the finite alphabet and every
/// universe state:
///
/// * `Inverse(m, r)`: every state that admits `op` is restored by `op`
///   then `⟨m, r⟩`;
/// * `ReadOnly`: every state that admits `op` is left unchanged by it;
/// * `NotInvertible` is always sound — unless
///   [`has_inverses`](SeqSpec::has_inverses) claims otherwise, which is
///   an **error** ([`UNSOUND_INVERSE_CLAIM`]).
///
/// Returns the certificate's verdict: `Some(true)` when the spec claims
/// invertibility and the law held everywhere (strict mode may arm open
/// nesting on it), `Some(false)` when the claim was refuted, `None`
/// when the spec makes no claim — then any `otx` in `programs` whose
/// body reaches a non-invertible method draws an
/// [`OPEN_NESTING_REFUSED`] **warning** (the runtime commit *will*
/// fail), and the non-invertible alphabet is surfaced as a **note**
/// ([`OPEN_NESTING_UNAVAILABLE`]).
fn check_inverses<S: SeqSpec>(
    spec: &S,
    states: &[S::State],
    inf: &InferredSpec<S::Method>,
    programs: &[Vec<Code<S::Method>>],
    diags: &mut Vec<Diagnostic>,
) -> Option<bool>
where
    S::Method: fmt::Display,
{
    use pushpull_core::spec::OpInverse;

    let claims = spec.has_inverses();
    let mut refuted = false;
    let mut not_invertible: Vec<S::Method> = Vec::new();
    let mut next_id = 0u64;
    for m in &inf.methods {
        for r in observable_rets(spec, states, m) {
            let op = Op::new(OpId(next_id), TxnId(0), m.clone(), r);
            next_id += 1;
            match spec.inverse(&op) {
                OpInverse::NotInvertible => {
                    if claims {
                        refuted = true;
                        let d = Diagnostic::global(
                            Severity::Error,
                            UNSOUND_INVERSE_CLAIM,
                            format!(
                                "`has_inverses()` claims every operation invertible, but \
                                 `{m}` (ret {:?}) is `NotInvertible`",
                                op.ret
                            ),
                        )
                        .with_note(
                            "an open-nested commit over this operation is refused at run \
                             time; drop the claim or complete the oracle",
                        );
                        diags.push(at_method(d, programs, m));
                    } else if !not_invertible.contains(m) {
                        not_invertible.push(m.clone());
                    }
                }
                OpInverse::ReadOnly => {
                    for s in states {
                        let mut t = s.clone();
                        if spec.apply(&mut t, m, &op.ret) && t != *s {
                            refuted = true;
                            let d = Diagnostic::global(
                                Severity::Error,
                                UNSOUND_INVERSE,
                                format!(
                                    "`{m}` (ret {:?}) is declared `ReadOnly` but changes \
                                     state: a compensation would silently skip its undo",
                                    op.ret
                                ),
                            )
                            .with_note(
                                "`ReadOnly` asserts every state admitting it is left unchanged; return \
                                 an `Inverse` (or `NotInvertible`) for state-changing operations",
                            );
                            diags.push(at_method(d, programs, m));
                            break;
                        }
                    }
                }
                OpInverse::Inverse(im, ir) => {
                    for s in states {
                        let mut t = s.clone();
                        if !spec.apply(&mut t, m, &op.ret) {
                            continue; // op not allowed here
                        }
                        if !(spec.apply(&mut t, &im, &ir) && t == *s) {
                            refuted = true;
                            let d = Diagnostic::global(
                                Severity::Error,
                                UNSOUND_INVERSE,
                                format!(
                                    "inverse law fails for `{m}` (ret {:?}): applying the \
                                     declared inverse `{im}` does not restore every pre-state",
                                    op.ret
                                ),
                            )
                            .with_note(
                                "a parent abort replays this inverse as a compensation; an \
                                 unfaithful one corrupts the abstract state",
                            );
                            diags.push(at_method(d, programs, m));
                            break;
                        }
                    }
                }
            }
        }
    }
    if claims {
        return Some(!refuted);
    }
    if !not_invertible.is_empty() {
        // Lint: an `otx` body that reaches a non-invertible method is
        // statically doomed — its open commit must be refused.
        for m in &not_invertible {
            if programs
                .iter()
                .flatten()
                .any(|code| open_bodies_reach(code, false, m))
            {
                let d = Diagnostic::global(
                    Severity::Warning,
                    OPEN_NESTING_REFUSED,
                    format!(
                        "an open-nested (`otx`) scope invokes `{m}`, whose operations \
                         are `NotInvertible`: the open commit will be refused at runtime"
                    ),
                )
                .with_note(
                    "move the method outside the otx body, or give its operations a \
                     spec-level inverse",
                );
                diags.push(at_method(d, programs, m));
            }
        }
        let names: Vec<String> = not_invertible.iter().map(ToString::to_string).collect();
        diags.push(Diagnostic::global(
            Severity::Note,
            OPEN_NESTING_UNAVAILABLE,
            format!(
                "open nesting is unavailable over {} of {} certified method(s) \
                 ({}): their operations have no spec-level inverse",
                names.len(),
                inf.methods.len(),
                names.join(", ")
            ),
        ));
    }
    None
}

/// Does some `otx` body in `code` reach method `m`? (`inside` tracks
/// whether the walk is currently under an `otx` node.)
fn open_bodies_reach<M: PartialEq>(code: &Code<M>, inside: bool, m: &M) -> bool {
    match code {
        Code::Skip => false,
        Code::Method(n) => inside && n == m,
        Code::Seq(a, b) | Code::Choice(a, b) => {
            open_bodies_reach(a, inside, m) || open_bodies_reach(b, inside, m)
        }
        Code::Star(a) | Code::Tx(a) => open_bodies_reach(a, inside, m),
        Code::OpenTx(a) => open_bodies_reach(a, true, m),
    }
}

/// Certifies the two laws of the in-place step, exhaustively over every
/// universe state, every method of the alphabet and every return it can
/// observe anywhere in the universe:
///
/// * a refused [`apply`](SeqSpec::apply) leaves its state bit-identical
///   ([`UNSOUND_STEP`]) — a denied step must not corrupt the set stepped;
/// * the check-first law: `apply(s, m, r)` accepts exactly when
///   `r ∈ results(s, m)` ([`UNSOUND_RESULTS`]) — what the machine asks
///   instead of stepping, for APP (ii), PULL (ii) and PUSH (iii).
///
/// At most one finding per method and law, at its first counterexample.
fn check_step_laws<S: SeqSpec>(
    spec: &S,
    states: &[S::State],
    inf: &InferredSpec<S::Method>,
    programs: &[Vec<Code<S::Method>>],
    diags: &mut Vec<Diagnostic>,
) where
    S::Method: fmt::Display,
{
    for m in &inf.methods {
        let rets = observable_rets(spec, states, m);
        let (mut wrote, mut disagreed) = (None, None);
        for s in states {
            let offered = spec.results(s, m);
            for r in &rets {
                let mut t = s.clone();
                let accepted = spec.apply(&mut t, m, r);
                if !accepted && t != *s {
                    wrote.get_or_insert_with(|| format!("{r:?} in {s:?}"));
                }
                if accepted != offered.contains(r) {
                    let how = if accepted { "accepts" } else { "refuses" };
                    let case =
                        || format!("{r:?} in {s:?}: `apply` {how} it, `results` does not agree");
                    disagreed.get_or_insert_with(case);
                }
            }
        }
        if let Some(case) = wrote {
            let d = Diagnostic::global(
                Severity::Error,
                UNSOUND_STEP,
                format!("`{m}` writes to the state before refusing: ret {case}"),
            )
            .with_note(
                "`apply` must refuse before it writes; a denied step would corrupt the \
                 denotation the machine keeps",
            );
            diags.push(at_method(d, programs, m));
        }
        if let Some(case) = disagreed {
            let d = Diagnostic::global(
                Severity::Error,
                UNSOUND_RESULTS,
                format!("the check-first law fails for `{m}`: ret {case}"),
            )
            .with_note(
                "the machine checks `r ∈ results(s, m)` instead of stepping; `results` must \
                 offer exactly the returns `apply` accepts",
            );
            diags.push(at_method(d, programs, m));
        }
    }
}

/// Checks the two footprint laws plus the coverage lints
/// (coarse-forcing `None` footprints, needlessly-coarse shared classes).
fn check_footprints<S: SeqSpec>(
    spec: &S,
    states: &[S::State],
    inf: &InferredSpec<S::Method>,
    programs: &[Vec<Code<S::Method>>],
    diags: &mut Vec<Diagnostic>,
) where
    S::Method: fmt::Display,
{
    // Law 1: disjoint declared footprints must commute exhaustively.
    for v in disjoint_commute_violations(spec, states, &inf.methods) {
        let d = Diagnostic::global(Severity::Error, UNSOUND_FOOTPRINT, v.to_string()).with_note(
            "disjoint footprints license shard-local mover checks; a non-commuting pair \
             routed to different shards would be reordered unsoundly",
        );
        diags.push(at_method(d, programs, &v.m1));
    }

    // Law 2: `allowed` must factorize over single-key classes. The
    // sample is every op a routed method can produce anywhere in the
    // universe (the same enumeration the machine's APP rule draws from).
    let mut sample: Vec<Op<S::Method, S::Ret>> = Vec::new();
    for m in &inf.methods {
        if spec.method_keys(m).is_some_and(|ks| ks.len() == 1) {
            for r in observable_rets(spec, states, m) {
                let id = sample.len() as u64;
                sample.push(Op::new(OpId(id), TxnId(0), m.clone(), r));
            }
        }
    }
    let max_len = if sample.len() > FACTOR_SAMPLE_CAP {
        FACTOR_LEN_LARGE_SAMPLE
    } else {
        FACTOR_LEN
    };
    for v in factorization_violations(spec, &sample, max_len) {
        let m = v.log.first().map(|op| op.method.clone());
        let d = Diagnostic::global(Severity::Error, UNSOUND_FACTORIZATION, v.to_string())
            .with_note(
                "sharded logs answer `G allows op` from per-shard committed prefixes; a \
                 log that is allowed per key class but refused whole (or vice versa) \
                 breaks that locality",
            );
        diags.push(match m {
            Some(m) => at_method(d, programs, &m),
            None => d,
        });
    }

    // Coverage: `None` footprints force the coarse path.
    for m in &inf.methods {
        if spec.method_keys(m).is_none() {
            let d = Diagnostic::global(
                Severity::Warning,
                COARSE_FORCING,
                format!(
                    "`{m}` declares no footprint (`method_keys` → `None`): every \
                     transaction invoking it degrades a sharded log to the coarse \
                     whole-log path"
                ),
            )
            .with_note("declare a key class if the method's footprint is expressible");
            diags.push(at_method(d, programs, m));
        }
    }

    // Coverage: a shared key class joining methods that provably never
    // conflict (different components of the inferred conflict graph).
    // Conflict-free methods are skipped — they commute with everything,
    // so any routing for them is sound and equally parallel.
    for (i, m1) in inf.methods.iter().enumerate() {
        for (j, m2) in inf.methods.iter().enumerate().skip(i + 1) {
            if inf.components[i] == inf.components[j]
                || inf.conflict_free[i]
                || inf.conflict_free[j]
            {
                continue;
            }
            let (Some(k1), Some(k2)) = (spec.method_keys(m1), spec.method_keys(m2)) else {
                continue;
            };
            let Some(shared) = k1.iter().find(|k| k2.contains(k)) else {
                continue;
            };
            let d = Diagnostic::global(
                Severity::Note,
                NEEDLESSLY_COARSE,
                format!(
                    "`{m1}` and `{m2}` share declared key class {shared} but provably \
                     never conflict (distinct components of the inferred conflict graph)"
                ),
            )
            .with_note("splitting their key classes would unlock disjoint-access parallelism");
            diags.push(at_method(d, programs, m1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::counter::Counter;
    use pushpull_spec::kvmap::KvMap;
    use pushpull_spec::queue::QueueSpec;

    #[test]
    fn unbounded_spec_is_uncertifiable() {
        let err = certify(&Counter::new(), "counter").unwrap_err();
        assert_eq!(err.lint, UNCERTIFIABLE);
        assert_eq!(err.severity, Severity::Note);
    }

    #[test]
    fn bounded_counter_certifies_cleanly() {
        let cert = certify(&Counter::with_universe(2), "counter").unwrap();
        assert!(cert.is_valid(), "{:?}", cert.diagnostics);
        assert_eq!(cert.errors(), 0);
        assert_eq!(cert.certificate.shard_keys, 1);
    }

    #[test]
    fn kvmap_size_is_coarse_forcing_but_valid() {
        let cert = certify(&KvMap::bounded(vec![0, 1], vec![1]), "kvmap").unwrap();
        assert!(cert.is_valid(), "{:?}", cert.diagnostics);
        assert!(
            cert.diagnostics
                .iter()
                .any(|d| d.lint == COARSE_FORCING && d.severity == Severity::Warning),
            "Size must be flagged coarse-forcing: {:?}",
            cert.diagnostics
        );
        // Size poisons the declared cover: coarse (0 shard keys).
        assert_eq!(cert.certificate.shard_keys, 0);
    }

    #[test]
    fn queue_certifies_with_single_class() {
        let cert = certify(&QueueSpec::bounded(vec![1, 2], 2), "queue").unwrap();
        assert!(cert.is_valid(), "{:?}", cert.diagnostics);
        assert_eq!(cert.certificate.shard_keys, 1);
    }

    #[test]
    fn counter_inverse_law_certifies() {
        let cert = certify(&Counter::with_universe(2), "counter").unwrap();
        assert_eq!(cert.certificate.inverse_law, Some(true));
        assert!(cert.certificate.is_valid());
    }

    #[test]
    fn unsound_inverse_claim_is_refuted() {
        use pushpull_core::op::Op;
        use pushpull_core::spec::{KeySet, OpInverse, Rets, SeqSpec};
        use pushpull_spec::counter::{CtrMethod, CtrRet};

        /// Claims `has_inverses` but "undoes" `Add(k)` with another
        /// `Add(k)` — the round trip lands at `s + 2k`, not `s`.
        struct DoubleDown {
            inner: Counter,
        }
        impl SeqSpec for DoubleDown {
            type Method = CtrMethod;
            type Ret = CtrRet;
            type State = i64;
            fn initial_states(&self) -> Vec<i64> {
                self.inner.initial_states()
            }
            fn apply(&self, s: &mut i64, m: &CtrMethod, r: &CtrRet) -> bool {
                self.inner.apply(s, m, r)
            }
            fn results(&self, s: &i64, m: &CtrMethod) -> Rets<CtrRet> {
                self.inner.results(s, m)
            }
            fn state_universe(&self) -> Option<Vec<i64>> {
                self.inner.state_universe()
            }
            fn method_universe(&self) -> Option<Vec<CtrMethod>> {
                self.inner.method_universe()
            }
            fn method_keys(&self, m: &CtrMethod) -> Option<KeySet> {
                self.inner.method_keys(m)
            }
            fn inverse(&self, op: &Op<CtrMethod, CtrRet>) -> OpInverse<CtrMethod, CtrRet> {
                match op.method {
                    CtrMethod::Add(0) | CtrMethod::Get => OpInverse::ReadOnly,
                    CtrMethod::Add(k) => OpInverse::Inverse(CtrMethod::Add(k), CtrRet::Ack),
                }
            }
            fn has_inverses(&self) -> bool {
                true
            }
        }

        let inner = Counter::with_universe(2);
        let cert = certify(&DoubleDown { inner }, "double-down").unwrap();
        assert_eq!(cert.certificate.inverse_law, Some(false));
        assert!(!cert.is_valid());
        assert!(
            cert.diagnostics
                .iter()
                .any(|d| d.lint == UNSOUND_INVERSE && d.severity == Severity::Error),
            "{:?}",
            cert.diagnostics
        );
    }

    #[test]
    fn otx_over_non_invertible_method_is_linted() {
        use pushpull_core::lang::Code;
        use pushpull_spec::rwmem::{Loc, MemMethod, RwMem};

        let spec = RwMem::bounded(vec![Loc(0)], vec![0, 1]);
        let programs = vec![vec![Code::tx(Code::seq(
            Code::method(MemMethod::Read(Loc(0))),
            Code::otx(Code::method(MemMethod::Write(Loc(0), 1))),
        ))]];
        let cert = certify_in(&spec, "rwmem", &programs).unwrap();
        // RwMem makes no invertibility claim: verdict unchecked, but the
        // doomed otx body draws a warning and the alphabet gap a note.
        assert_eq!(cert.certificate.inverse_law, None);
        assert!(
            cert.diagnostics
                .iter()
                .any(|d| d.lint == OPEN_NESTING_REFUSED && d.severity == Severity::Warning),
            "{:?}",
            cert.diagnostics
        );
        assert!(
            cert.diagnostics
                .iter()
                .any(|d| d.lint == OPEN_NESTING_UNAVAILABLE),
            "{:?}",
            cert.diagnostics
        );
        // The same body under a *closed* marker is fine: no warning.
        let closed = vec![vec![Code::tx(Code::seq(
            Code::method(MemMethod::Read(Loc(0))),
            Code::tx(Code::method(MemMethod::Write(Loc(0), 1))),
        ))]];
        let cert = certify_in(&spec, "rwmem", &closed).unwrap();
        assert!(
            !cert
                .diagnostics
                .iter()
                .any(|d| d.lint == OPEN_NESTING_REFUSED),
            "{:?}",
            cert.diagnostics
        );
    }
}
