//! # pushpull-analysis
//!
//! Static analysis for the Push/Pull reproduction: a linter for
//! transaction programs, and a certifier for the spec declarations the
//! runtime trusts. Neither skips a runtime check: the machine evaluates
//! every criterion when its rule fires. Nothing here checks which §6
//! rules a driver fires; those patterns are observed on real runs, by
//! the criteria audit and the golden rule traces.
//!
//! The pipeline ([`analyze`]):
//!
//! 1. [`summary`] walks each `Code<M>` body with the paper's `step`/`fin`
//!    equations into conservative per-transaction *method footprints*;
//! 2. [`matrix`] resolves every ordered method pair of the union
//!    footprint through the spec's return-universal
//!    [`method_mover`](pushpull_core::spec::SeqSpec::method_mover)
//!    oracle, cached as a [`MoverMatrix`];
//! 3. [`lint`] runs bounded semantic exploration for never-commits and
//!    unreachable-method findings and a conflict-graph scan for
//!    potential PULL cycles;
//! 4. [`diagnostics`] renders it all rustc-style.
//!
//! Independently of the per-workload pipeline, [`mod@certify`] infers the
//! ground-truth mover matrix and minimal sound footprint cover for any
//! spec with finite universes ([`mod@infer`]), cross-checks every
//! hand-written `method_mover`/`method_keys` declaration, the two
//! footprint laws and the two laws of the in-place step against it, and
//! packages the result as a [`SpecCertificate`] ([`analyze_certified`]
//! threads it through the plan). The runtime reads no certificate: a
//! spec's declarations are certified once, not at every run, and the
//! `pushpull_lint` example certifies every shipped spec.
//!
//! The result is an [`AnalysisPlan`]: the workload's diagnostics, its
//! report, the certificate and a recommended shard count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod certificate;
pub mod certify;
pub mod diagnostics;
pub mod infer;
pub mod lint;
pub mod matrix;
pub mod plan;
pub mod summary;

pub use certificate::SpecCertificate;
pub use certify::{
    certify, certify_in, Certification, COARSE_FORCING, INCOMPLETE_MOVER, NEEDLESSLY_COARSE,
    UNCERTIFIABLE, UNSOUND_FACTORIZATION, UNSOUND_FOOTPRINT, UNSOUND_MOVER, UNSOUND_RESULTS,
    UNSOUND_STEP,
};
pub use diagnostics::{render_report, Diagnostic, PathStep, Severity, Span};
pub use infer::{infer, InferredSpec};
pub use lint::{
    explore_txn, lint_programs, Exploration, LintConfig, Tri, NEVER_COMMITS, PULL_CYCLE,
    UNREACHABLE_METHOD,
};
pub use matrix::MoverMatrix;
pub use plan::{analyze, analyze_certified, AnalysisPlan};
pub use summary::{summarize, summarize_txn, ProgramSummary, TxnSummary};
