//! # pushpull-analysis
//!
//! The spec certifier for the Push/Pull reproduction: it decides, once per
//! spec, whether the declarations the runtime trusts are sound. It skips
//! no runtime check: the machine evaluates every criterion when its rule
//! fires. Nothing here checks which §6 rules a driver fires; those
//! patterns are observed on real runs, by the criteria audit and the
//! golden rule traces.
//!
//! The pipeline ([`certify()`], or [`certify_in`] to anchor findings in a
//! workload's programs):
//!
//! 1. [`mod@infer`] enumerates a spec's finite universes and derives the
//!    ground-truth mover matrix and minimal sound footprint cover;
//! 2. [`matrix`] resolves every ordered method pair of the alphabet, both
//!    through the spec's declared return-universal
//!    [`method_mover`](pushpull_core::spec::SeqSpec::method_mover) and
//!    exhaustively, as a [`MoverMatrix`];
//! 3. [`mod@certify`] cross-checks every hand-written
//!    `method_mover`/`method_keys` declaration, the two footprint laws and
//!    the two laws of the in-place step against the ground truth, and
//!    packages the result as a [`SpecCertificate`];
//! 4. [`diagnostics`] renders the findings rustc-style.
//!
//! The runtime reads no certificate: a spec's declarations are certified
//! once, not at every run, and the `pushpull_lint` example certifies
//! every shipped spec.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod certificate;
pub mod certify;
pub mod diagnostics;
pub mod infer;
pub mod matrix;

pub use certificate::SpecCertificate;
pub use certify::{
    certify, certify_in, Certification, COARSE_FORCING, INCOMPLETE_MOVER, NEEDLESSLY_COARSE,
    UNCERTIFIABLE, UNSOUND_FACTORIZATION, UNSOUND_FOOTPRINT, UNSOUND_MOVER, UNSOUND_RESULTS,
    UNSOUND_STEP,
};
pub use diagnostics::{render_report, Diagnostic, PathStep, Severity, Span};
pub use infer::{infer, InferredSpec};
pub use matrix::MoverMatrix;
