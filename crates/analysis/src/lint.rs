//! The semantic program lints.
//!
//! Three program lints run a *bounded semantic exploration* of each
//! transaction body — configurations are `(code, possible-state-set)`
//! pairs evolved with `step`/`fin` and the spec's denotation:
//!
//! * [`NEVER_COMMITS`] (error): no execution of the transaction reaches
//!   a `fin` configuration — every path gets stuck on a method that has
//!   no allowed result (e.g. a bounded spec refusing the value);
//! * [`UNREACHABLE_METHOD`] (warning): a method occurs syntactically but
//!   no execution can reach it;
//! * [`PULL_CYCLE`] (warning): transactions on different threads whose
//!   footprints mutually conflict — under a driver that PULLs
//!   uncommitted effects (§6.5) they may form a PULL dependency cycle
//!   and deadlock or cascade-abort.
//!
//! The exploration is capped (configurations and state-set size); a
//! capped transaction yields [`Tri::Unknown`] and the semantic lints
//! stay silent rather than guessing.

use std::collections::VecDeque;
use std::fmt;

use pushpull_core::lang::Code;
use pushpull_core::spec::SeqSpec;

use crate::diagnostics::{find_method, Diagnostic, Severity, Span};
use crate::matrix::MoverMatrix;
use crate::summary::ProgramSummary;

/// Lint name: a transaction that can never commit.
pub const NEVER_COMMITS: &str = "never-commits";
/// Lint name: a syntactically present but semantically unreachable method.
pub const UNREACHABLE_METHOD: &str = "unreachable-method";
/// Lint name: a potential PULL dependency cycle between transactions.
pub const PULL_CYCLE: &str = "pull-cycle";

/// Caps for the bounded semantic exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LintConfig {
    /// Maximum `(code, state-set)` configurations explored per
    /// transaction before giving up with [`Tri::Unknown`].
    pub max_configs: usize,
    /// Maximum size of one configuration's possible-state set.
    pub max_states: usize,
    /// Maximum transactions considered by the PULL-cycle graph.
    pub max_cycle_nodes: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_configs: 2048,
            max_states: 256,
            max_cycle_nodes: 128,
        }
    }
}

/// Three-valued verdict of a bounded exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Proven to hold.
    Yes,
    /// Proven not to hold (the exploration was exhaustive).
    No,
    /// The exploration hit a cap; no verdict.
    Unknown,
}

/// What a bounded exploration of one transaction found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration<M> {
    /// Can the transaction commit (reach a `fin` configuration)?
    pub commits: Tri,
    /// Methods some execution actually reaches (complete only when the
    /// exploration was exhaustive).
    pub reached: Vec<M>,
    /// Did the exploration hit a cap?
    pub capped: bool,
}

fn state_set_eq<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().all(|x| b.contains(x))
}

/// Bounded breadth-first exploration of one transaction body against the
/// spec's denotational semantics.
pub fn explore_txn<S: SeqSpec>(
    spec: &S,
    code: &Code<S::Method>,
    cfg: &LintConfig,
) -> Exploration<S::Method> {
    let footprint = code.reachable_methods();
    let mut init: Vec<S::State> = Vec::new();
    for s in spec.initial_states() {
        if !init.contains(&s) {
            init.push(s);
        }
    }
    // One BFS configuration: a residual program plus the set of spec
    // states consistent with some path to it.
    type Config<S> = (Code<<S as SeqSpec>::Method>, Vec<<S as SeqSpec>::State>);
    let mut visited: Vec<Config<S>> = vec![(code.clone(), init.clone())];
    let mut queue: VecDeque<Config<S>> = VecDeque::new();
    queue.push_back((code.clone(), init));
    let mut reached: Vec<S::Method> = Vec::new();
    let mut can_fin = false;
    let mut capped = false;

    while let Some((c, states)) = queue.pop_front() {
        if c.fin() {
            can_fin = true;
        }
        if can_fin && reached.len() == footprint.len() {
            // Nothing left to learn.
            break;
        }
        for (m, k) in c.step() {
            let mut next: Vec<S::State> = Vec::new();
            'post: for s in &states {
                for ret in spec.results(s, &m) {
                    let mut s2 = s.clone();
                    if spec.apply(&mut s2, &m, &ret) && !next.contains(&s2) {
                        next.push(s2);
                        if next.len() > cfg.max_states {
                            capped = true;
                            break 'post;
                        }
                    }
                }
            }
            if next.len() > cfg.max_states {
                // Too many possible states to track: drop the branch.
                continue;
            }
            if next.is_empty() {
                // The method has no allowed observation here: stuck.
                continue;
            }
            if !reached.contains(&m) {
                reached.push(m.clone());
            }
            let config = (k, next);
            if visited
                .iter()
                .any(|(vc, vs)| *vc == config.0 && state_set_eq(vs, &config.1))
            {
                continue;
            }
            if visited.len() >= cfg.max_configs {
                capped = true;
                continue;
            }
            visited.push(config.clone());
            queue.push_back(config);
        }
    }

    let commits = if can_fin {
        Tri::Yes
    } else if capped {
        Tri::Unknown
    } else {
        Tri::No
    };
    Exploration {
        commits,
        reached,
        capped,
    }
}

/// Runs the semantic program lints over every transaction and the
/// PULL-cycle lint over the thread set.
pub fn lint_programs<S: SeqSpec>(
    spec: &S,
    programs: &[Vec<Code<S::Method>>],
    summary: &ProgramSummary<S::Method>,
    matrix: &MoverMatrix<S::Method>,
    cfg: &LintConfig,
) -> Vec<Diagnostic>
where
    S::Method: fmt::Display,
{
    let mut diags = Vec::new();
    for (thread, progs) in programs.iter().enumerate() {
        for (index, code) in progs.iter().enumerate() {
            let exp = explore_txn(spec, code, cfg);
            let span = |path| Span {
                thread,
                txn: index,
                path,
            };
            if exp.commits == Tri::No {
                diags.push(
                    Diagnostic::spanned(
                        Severity::Error,
                        NEVER_COMMITS,
                        "transaction can never commit",
                        span(Vec::new()),
                        code.to_string(),
                    )
                    .with_note(
                        "exhaustive exploration: every execution gets stuck on a \
                         method with no allowed result",
                    ),
                );
                // Every method past the stuck point is unreachable too;
                // reporting them individually would only repeat the error.
                continue;
            }
            if !exp.capped {
                for m in code.reachable_methods() {
                    if !exp.reached.contains(&m) {
                        let path = find_method(code, &m).unwrap_or_default();
                        diags.push(
                            Diagnostic::spanned(
                                Severity::Warning,
                                UNREACHABLE_METHOD,
                                format!("method `{m}` is unreachable"),
                                span(path),
                                code.to_string(),
                            )
                            .with_note("every execution is stuck before this call"),
                        );
                    }
                }
            }
        }
    }
    if let Some(d) = pull_cycle(summary, matrix, cfg) {
        diags.push(d);
    }
    diags
}

/// Looks for a cross-thread conflict cycle: transactions on different
/// threads each holding a method the other's footprint does not provably
/// move over. Under a dependent-transaction driver (§6.5) such pairs can
/// PULL each other's uncommitted effects and form a commit-dependency
/// cycle.
fn pull_cycle<M: Clone + Eq + fmt::Display>(
    summary: &ProgramSummary<M>,
    matrix: &MoverMatrix<M>,
    cfg: &LintConfig,
) -> Option<Diagnostic> {
    let txns: Vec<_> = summary.txns.iter().take(cfg.max_cycle_nodes).collect();
    let conflicts = |a: &[M], b: &[M]| a.iter().any(|m1| b.iter().any(|m2| !matrix.proven(m1, m2)));
    for (i, u) in txns.iter().enumerate() {
        for v in txns.iter().skip(i + 1) {
            if u.thread == v.thread {
                continue;
            }
            if conflicts(&u.footprint, &v.footprint) && conflicts(&v.footprint, &u.footprint) {
                let truncated = summary.txns.len() > txns.len();
                let mut d = Diagnostic::global(
                    Severity::Warning,
                    PULL_CYCLE,
                    format!(
                        "transactions (thread {}, txn {}) and (thread {}, txn {}) may \
                         form a PULL dependency cycle",
                        u.thread, u.index, v.thread, v.index
                    ),
                )
                .with_note(
                    "each footprint holds a method the other's does not provably move \
                     over; a driver that PULLs uncommitted effects (§6.5) can \
                     deadlock or cascade-abort here",
                );
                if truncated {
                    d = d.with_note(format!(
                        "only the first {} of {} transactions were examined",
                        txns.len(),
                        summary.txns.len()
                    ));
                }
                return Some(d);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use pushpull_spec::counter::{Counter, CtrMethod};
    use pushpull_spec::queue::{QueueMethod, QueueSpec};

    #[test]
    fn bounded_queue_rejections_are_never_commits() {
        // Value 9 is outside the bound: Enq(9) has no allowed result.
        let spec = QueueSpec::bounded(vec![1, 2], 2);
        let code = Code::seq(
            Code::method(QueueMethod::Enq(9)),
            Code::method(QueueMethod::Deq),
        );
        let exp = explore_txn(&spec, &code, &LintConfig::default());
        assert_eq!(exp.commits, Tri::No);
        assert!(exp.reached.is_empty());
        let programs = vec![vec![code]];
        let summary = summarize(&programs);
        let matrix = MoverMatrix::build(&spec, &summary.footprint);
        let diags = lint_programs(&spec, &programs, &summary, &matrix, &LintConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.lint == NEVER_COMMITS && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_method_is_flagged_with_span() {
        // The first Enq exhausts nothing, but a second Enq over capacity 1
        // has no allowed result, so the Deq after it is unreachable —
        // while the overall txn still commits via the Choice's left arm.
        let spec = QueueSpec::bounded(vec![1], 1);
        let code = Code::choice(
            Code::method(QueueMethod::Enq(1)),
            Code::seq_all(vec![
                Code::method(QueueMethod::Enq(1)),
                Code::method(QueueMethod::Enq(1)),
                Code::method(QueueMethod::Deq),
            ]),
        );
        let programs = vec![vec![code]];
        let summary = summarize(&programs);
        let matrix = MoverMatrix::build(&spec, &summary.footprint);
        let diags = lint_programs(&spec, &programs, &summary, &matrix, &LintConfig::default());
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == UNREACHABLE_METHOD)
            .collect();
        assert_eq!(unreachable.len(), 1, "{diags:?}");
        assert!(
            unreachable[0].message.contains("deq()"),
            "{}",
            unreachable[0]
        );
        assert!(unreachable[0].span.is_some());
    }

    #[test]
    fn starred_counter_commits_and_reaches_everything() {
        let spec = Counter::new();
        let code = Code::star(Code::method(CtrMethod::Add(1)));
        let exp = explore_txn(&spec, &code, &LintConfig::default());
        assert_eq!(exp.commits, Tri::Yes);
        assert_eq!(exp.reached, vec![CtrMethod::Add(1)]);
    }

    #[test]
    fn mutual_conflicts_raise_pull_cycle() {
        let spec = QueueSpec::new();
        let programs = vec![
            vec![Code::method(QueueMethod::Enq(1))],
            vec![Code::method(QueueMethod::Deq)],
        ];
        let summary = summarize(&programs);
        let matrix = MoverMatrix::build(&spec, &summary.footprint);
        let diags = lint_programs(&spec, &programs, &summary, &matrix, &LintConfig::default());
        assert!(diags.iter().any(|d| d.lint == PULL_CYCLE), "{diags:?}");
    }

    #[test]
    fn mover_heavy_threads_have_no_pull_cycle() {
        let spec = Counter::new();
        let programs = vec![
            vec![Code::method(CtrMethod::Add(1))],
            vec![Code::method(CtrMethod::Add(2))],
        ];
        let summary = summarize(&programs);
        let matrix = MoverMatrix::build(&spec, &summary.footprint);
        let diags = lint_programs(&spec, &programs, &summary, &matrix, &LintConfig::default());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
