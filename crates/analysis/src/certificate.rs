//! Machine-checked soundness certificates for sequential specifications.
//!
//! The sharded global log trusts hand-written
//! [`SeqSpec`](pushpull_core::spec::SeqSpec) declarations — `method_keys`
//! footprints and `method_mover` overrides — and open nesting trusts its
//! `inverse` verdicts. A [`SpecCertificate`] is the output of
//! cross-checking every such declaration against the ground truth derived
//! exhaustively from the denotational semantics ([`mod@crate::certify`] does
//! the deriving). The runtime reads no certificate: whether a spec's
//! declarations are sound is a fact about the spec, decided once per spec
//! (the `pushpull_lint` example certifies every shipped one), while the
//! machine checks every criterion when its rule fires.
//!
//! A certificate records, over a finite method alphabet:
//!
//! * the **checked mover matrix** — the exhaustive Definition 4.1
//!   method-level relation every surviving declaration agrees with;
//! * the **footprint cover** — each method's declared key set (or its
//!   absence, which forces the coarse path) plus the inferred conflict
//!   component it belongs to;
//! * the **inverse-law verdict** open-nested compensations rely on;
//! * the finding counts of the certification run. A certificate with a
//!   nonzero error count is *invalid*: some declaration is unsound.
//!
//! A certificate lives for one process: the certifier builds it and its
//! caller reads it. Its one rendering is the `Display` summary line.

use std::fmt;

/// A machine-checked certificate that a spec's footprint and mover
/// declarations agree with the exhaustively derived ground truth.
///
/// Non-generic on purpose: the certifier works over a concrete spec, but
/// the *verdict* is plain data, which a caller can keep or print without
/// becoming generic over the spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecCertificate {
    /// Name of the certified specification (e.g. `"bank"`).
    pub spec_name: String,
    /// Display names of the certified method alphabet, in matrix order.
    pub methods: Vec<String>,
    /// Row-major checked method-level mover matrix over `methods`:
    /// `matrix[i * methods.len() + j]` answers `methods[i] ◁ methods[j]`.
    /// `None` marks a pair the certifier could not decide (never emitted
    /// for fully enumerable specs).
    pub matrix: Vec<Option<bool>>,
    /// Declared footprint per method (`None` = undeclared: the method is
    /// routed coarse).
    pub footprints: Vec<Option<Vec<u64>>>,
    /// Inferred conflict component per method — the minimal sound
    /// footprint assignment: methods in distinct components commute
    /// exhaustively and may live on distinct shards.
    pub components: Vec<usize>,
    /// The inverse-law verdict over the certified alphabet:
    /// `Some(true)` — the spec claims [`has_inverses`] and the round-trip
    /// law (per state: `op · op⁻¹` restores every state admitting `op`,
    /// and a `ReadOnly` operation leaves it unchanged) was proven
    /// exhaustively, so a parent abort can trust that replaying the
    /// registered compensations restores the abstract state;
    /// `Some(false)` — the claim was *refuted* (also counted in `errors`);
    /// `None` — the spec does not claim invertibility. Either way the
    /// machine checks each operation's verdict at the open commit.
    ///
    /// [`has_inverses`]: pushpull_core::spec::SeqSpec::has_inverses
    pub inverse_law: Option<bool>,
    /// Distinct declared footprint keys (the shard-count recommendation
    /// input).
    pub shard_keys: usize,
    /// Error-severity findings of the certification run. Nonzero ⇒ the
    /// certificate is invalid.
    pub errors: usize,
    /// Warning-severity findings (e.g. coarse-forcing `None` footprints).
    pub warnings: usize,
    /// Note-severity findings (e.g. conservative mover declarations).
    pub notes: usize,
}

impl SpecCertificate {
    /// Are the spec's declarations sound? (No error-severity finding
    /// survived certification.)
    pub fn is_valid(&self) -> bool {
        self.errors == 0
    }

    /// The checked mover verdict for `methods[i] ◁ methods[j]`.
    pub fn mover(&self, i: usize, j: usize) -> Option<bool> {
        self.matrix
            .get(i * self.methods.len() + j)
            .copied()
            .flatten()
    }

    /// Count of `Some(true)` cells in the checked matrix.
    pub fn proven_pairs(&self) -> usize {
        self.matrix.iter().filter(|c| **c == Some(true)).count()
    }

    /// Number of distinct inferred conflict components.
    pub fn component_count(&self) -> usize {
        let mut seen: Vec<usize> = self.components.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }
}

impl fmt::Display for SpecCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate[{}]: {} methods, {}/{} mover pairs proven, {} component(s), \
             {} shard key(s), inverse law {} — {}",
            self.spec_name,
            self.methods.len(),
            self.proven_pairs(),
            self.matrix.len(),
            self.component_count(),
            self.shard_keys,
            match self.inverse_law {
                Some(true) => "certified",
                Some(false) => "refuted",
                None => "unchecked",
            },
            if self.is_valid() {
                "VALID".to_string()
            } else {
                format!("INVALID ({} error(s))", self.errors)
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpecCertificate {
        SpecCertificate {
            spec_name: "set".into(),
            methods: vec!["add(1)".into(), "remove(1)".into(), "contains(2)".into()],
            matrix: vec![
                Some(true),
                Some(false),
                Some(true),
                Some(false),
                Some(true),
                Some(true),
                Some(true),
                Some(true),
                Some(true),
            ],
            footprints: vec![Some(vec![1]), Some(vec![1]), Some(vec![2])],
            components: vec![0, 0, 1],
            inverse_law: Some(true),
            shard_keys: 2,
            errors: 0,
            warnings: 1,
            notes: 2,
        }
    }

    /// Only a proven law renders as certified; `validity_tracks_error_count`
    /// covers an invalid certificate.
    #[test]
    fn only_a_proven_inverse_law_gates_open_nesting() {
        let mut cert = sample();
        for (law, shown) in [
            (Some(true), "certified — VALID"),
            (Some(false), "refuted"),
            (None, "unchecked"),
        ] {
            cert.inverse_law = law;
            assert!(cert.to_string().contains(&format!("inverse law {shown}")));
        }
    }

    #[test]
    fn validity_tracks_error_count() {
        let mut cert = sample();
        assert!(cert.is_valid());
        cert.errors = 1;
        assert!(!cert.is_valid());
        assert!(cert.to_string().contains("INVALID"));
    }

    #[test]
    fn mover_indexes_row_major() {
        let cert = sample();
        assert_eq!(cert.mover(0, 0), Some(true));
        assert_eq!(cert.mover(0, 1), Some(false));
        assert_eq!(cert.mover(1, 0), Some(false));
        assert_eq!(cert.mover(2, 2), Some(true));
        assert_eq!(cert.proven_pairs(), 7);
        assert_eq!(cert.component_count(), 2);
    }
}
