//! The analyzer entry point: one call that summarizes the programs,
//! builds the mover matrix, runs the lints, and packages everything as an
//! [`AnalysisPlan`]; [`analyze_certified`] adds the spec certificate.

use std::fmt;
use std::sync::Arc;

use pushpull_core::lang::Code;
use pushpull_core::spec::SeqSpec;

use crate::certificate::SpecCertificate;
use crate::certify::certify_in;
use crate::diagnostics::{render_report, Diagnostic, Severity};
use crate::lint::{lint_programs, LintConfig};
use crate::matrix::MoverMatrix;
use crate::summary::{summarize, ProgramSummary};

/// Everything the static analysis learned about a workload, type-erased
/// enough for the harness to carry: the spec certificate, diagnostics,
/// and a rendered report.
#[derive(Debug, Clone)]
pub struct AnalysisPlan {
    /// The spec's soundness certificate, `Some` only when
    /// [`analyze_certified`] ran and the spec certified without errors.
    pub certificate: Option<Arc<SpecCertificate>>,
    /// Linter findings (program lints and, after [`analyze_certified`],
    /// the certifier's).
    pub diagnostics: Vec<Diagnostic>,
    /// Distinct key classes declared (via `SeqSpec::method_keys`) across
    /// the footprint, or `0` when any method declares no footprint — the
    /// workload then degrades a sharded log to its coarse path anyway.
    pub shard_keys: usize,
    /// Human-readable report: mover matrix (when small) and rendered
    /// diagnostics.
    pub report: String,
}

impl AnalysisPlan {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// A log shard count matched to the workload's declared key classes:
    /// one shard per key class, capped at 16. Workloads whose footprint
    /// is partly undeclared (`shard_keys == 0`) get `1` — every append
    /// would take the coarse path, so extra shards only add lock hops.
    pub fn recommended_shards(&self) -> usize {
        self.shard_keys.clamp(1, 16)
    }
}

impl fmt::Display for AnalysisPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report)
    }
}

/// Analyzes a thread set: summary → mover matrix → lints → plan.
pub fn analyze<S: SeqSpec>(spec: &S, programs: &[Vec<Code<S::Method>>]) -> AnalysisPlan
where
    S::Method: fmt::Display,
{
    let summary = summarize(programs);
    let matrix = MoverMatrix::build(spec, &summary.footprint);
    let diagnostics = lint_programs(spec, programs, &summary, &matrix, &LintConfig::default());
    let shard_keys = count_shard_keys(spec, &summary);
    let report = render(&summary, &matrix, &diagnostics, shard_keys);
    AnalysisPlan {
        certificate: None,
        diagnostics,
        shard_keys,
        report,
    }
}

/// [`analyze`], then the whole-spec certifier: runs [`certify_in`] over
/// the spec's finite universes, folds its findings into the plan's
/// diagnostics and report, and attaches the resulting certificate when
/// it carries no errors (an invalid certificate is withheld, and the
/// diagnostics say why). Uncertifiable specs (no finite universes) get a
/// note and no certificate.
pub fn analyze_certified<S: SeqSpec>(
    spec: &S,
    programs: &[Vec<Code<S::Method>>],
    spec_name: &str,
) -> AnalysisPlan
where
    S::Method: fmt::Display,
{
    let mut plan = analyze(spec, programs);
    match certify_in(spec, spec_name, programs) {
        Ok(cert) => {
            if !cert.diagnostics.is_empty() {
                plan.report
                    .push_str(&format!("spec certifier (`{spec_name}`):\n"));
                plan.report.push_str(&render_report(&cert.diagnostics));
            }
            plan.report.push_str(&format!("{}\n", cert.certificate));
            plan.diagnostics.extend(cert.diagnostics);
            if cert.certificate.is_valid() {
                plan.certificate = Some(cert.certificate);
            }
        }
        Err(diag) => {
            plan.report.push_str(&diag.to_string());
            plan.diagnostics.push(*diag);
        }
    }
    plan
}

/// Distinct declared key classes across the footprint; `0` when any
/// method declares `None` (the whole workload routes coarse).
fn count_shard_keys<S: SeqSpec>(spec: &S, summary: &ProgramSummary<S::Method>) -> usize {
    let mut keys = std::collections::BTreeSet::new();
    for m in &summary.footprint {
        match spec.method_keys(m) {
            Some(ks) => keys.extend(ks.iter().copied()),
            None => return 0,
        }
    }
    keys.len()
}

fn render<M: Clone + Eq + fmt::Display>(
    summary: &ProgramSummary<M>,
    matrix: &MoverMatrix<M>,
    diagnostics: &[Diagnostic],
    shard_keys: usize,
) -> String {
    const MATRIX_RENDER_CAP: usize = 12;
    let mut out = String::new();
    out.push_str(&format!(
        "analyzed {} txns on {} threads, footprint {} methods\n",
        summary.txns.len(),
        summary.threads,
        summary.footprint.len(),
    ));
    if shard_keys == 0 {
        out.push_str("footprint partly undeclared: sharded logs degrade to coarse (1 shard)\n");
    } else {
        out.push_str(&format!(
            "declared key classes: {} (recommended log shards: {})\n",
            shard_keys,
            shard_keys.clamp(1, 16),
        ));
    }
    if matrix.len() <= MATRIX_RENDER_CAP && !matrix.is_empty() {
        out.push_str(&matrix.render());
    } else if !matrix.is_empty() {
        out.push_str(&format!(
            "mover matrix: {} of {} ordered pairs proven (alphabet too large to render)\n",
            matrix.proven_pairs(),
            matrix.len() * matrix.len(),
        ));
    }
    if !diagnostics.is_empty() {
        out.push_str(&render_report(diagnostics));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::queue::{QueueMethod, QueueSpec};

    #[test]
    fn conflicting_plan_has_no_discharge_but_diagnoses() {
        let programs = vec![
            vec![Code::seq(
                Code::method(QueueMethod::Enq(1)),
                Code::method(QueueMethod::Deq),
            )],
            vec![Code::method(QueueMethod::Deq)],
        ];
        let plan = analyze(&QueueSpec::new(), &programs);
        assert!(plan.warnings() > 0, "pull-cycle expected: {plan}");
        assert!(plan.report.contains("pull-cycle"), "{plan}");
    }

    #[test]
    fn shard_keys_count_distinct_declared_classes() {
        use pushpull_spec::kvmap::{KvMap, MapMethod};
        // Four distinct counter txns still share one tally: one class.
        let programs: Vec<Vec<Code<CtrMethod>>> = (0..4)
            .map(|t| vec![Code::method(CtrMethod::Add(t))])
            .collect();
        let plan = analyze(&Counter::new(), &programs);
        assert_eq!(plan.shard_keys, 1);
        assert_eq!(plan.recommended_shards(), 1);
        // Disjoint map keys: one class per key.
        let programs: Vec<Vec<Code<MapMethod>>> = (0..3)
            .map(|t| vec![Code::method(MapMethod::Put(t, 1))])
            .collect();
        let plan = analyze(&KvMap::new(), &programs);
        assert_eq!(plan.shard_keys, 3);
        assert_eq!(plan.recommended_shards(), 3);
        assert!(plan.report.contains("declared key classes: 3"), "{plan}");
        // A footprint-less method (Size) poisons the whole workload.
        let programs = vec![
            vec![Code::method(MapMethod::Put(0, 1))],
            vec![Code::method(MapMethod::Size)],
        ];
        let plan = analyze(&KvMap::new(), &programs);
        assert_eq!(plan.shard_keys, 0);
        assert_eq!(plan.recommended_shards(), 1);
        assert!(plan.report.contains("coarse"), "{plan}");
    }
}
