//! The structural reductions of Figure 6 (NONDETL, NONDETR, LOOP, SEMI,
//! SEMISKIP) as explicit small steps on [`Code`].
//!
//! The machine's APP/CMT rules work through `step`/`fin`, which *scan
//! through* this nondeterminism — so drivers never need these. They are
//! provided (and tested) for fidelity: the paper's `→rt` relation
//! includes them, and the equivalence `step(c) = { leftover method steps
//! after any sequence of structural steps }` is part of what Example 1's
//! equations mean. The `SEMI` rule of Figure 6 is the congruence that
//! lets a step fire on the left of a `;` — realized here by locating the
//! leftmost structural redex through `Seq`/`Tx` spines.

use crate::lang::Code;

/// A structural reduction applicable to the leftmost redex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructStep {
    /// NONDETL: `c₁ + c₂ → c₁`.
    NondetL,
    /// NONDETR: `c₁ + c₂ → c₂`.
    NondetR,
    /// LOOP: `(c)* → (c ; (c)*) + skip`.
    Loop,
    /// SEMISKIP: `skip ; c → c`.
    SemiSkip,
}

/// The structural steps applicable at the leftmost redex of `code`
/// (through `Seq`-left and `Tx` spines, the SEMI congruence).
pub fn applicable<M: Clone>(code: &Code<M>) -> Vec<StructStep> {
    match leftmost(code) {
        Some(Code::Choice(_, _)) => vec![StructStep::NondetL, StructStep::NondetR],
        Some(Code::Star(_)) => vec![StructStep::Loop],
        Some(Code::Seq(a, _)) if matches!(**a, Code::Skip) => vec![StructStep::SemiSkip],
        _ => vec![],
    }
}

/// Applies one structural step at the leftmost redex, returning the
/// reduced code, or `None` when the step does not apply there.
pub fn apply<M: Clone>(code: &Code<M>, step: StructStep) -> Option<Code<M>> {
    match code {
        // SEMI congruence: reduce inside the left of a `;` … unless the
        // redex is the `skip ; c` spine itself.
        Code::Seq(a, b) => {
            if matches!(**a, Code::Skip) && step == StructStep::SemiSkip {
                return Some((**b).clone());
            }
            let a2 = apply(a, step)?;
            Some(Code::seq(a2, (**b).clone()))
        }
        Code::Tx(a) => {
            let a2 = apply(a, step)?;
            Some(Code::tx(a2))
        }
        Code::OpenTx(a) => {
            let a2 = apply(a, step)?;
            Some(Code::otx(a2))
        }
        Code::Choice(a, b) => match step {
            StructStep::NondetL => Some((**a).clone()),
            StructStep::NondetR => Some((**b).clone()),
            _ => None,
        },
        Code::Star(a) => match step {
            StructStep::Loop => Some(Code::choice(
                Code::seq((**a).clone(), Code::star((**a).clone())),
                Code::Skip,
            )),
            _ => None,
        },
        Code::Skip | Code::Method(_) => None,
    }
}

fn leftmost<M: Clone>(code: &Code<M>) -> Option<&Code<M>> {
    match code {
        Code::Seq(a, _) => {
            if matches!(**a, Code::Skip) {
                Some(code)
            } else {
                leftmost(a)
            }
        }
        Code::Tx(a) | Code::OpenTx(a) => leftmost(a),
        Code::Choice(_, _) | Code::Star(_) => Some(code),
        Code::Skip | Code::Method(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &'static str) -> Code<&'static str> {
        Code::method(s)
    }

    /// The soundness statement connecting Figure 6 to `step`/`fin`: a
    /// structural step never invents behaviours — the `step` set of the
    /// reduct is a subset of the original's, and likewise for `fin`.
    /// (`NondetL`/`NondetR` genuinely shrink the set; `Loop` and `SemiSkip`
    /// preserve it.)
    fn preserves_step_inclusion<M: Clone + Eq>(code: &Code<M>, step: StructStep) -> bool {
        let Some(reduct) = apply(code, step) else {
            return true;
        };
        let before = code.step();
        let after = reduct.step();
        after
            .iter()
            .all(|(m, k)| before.iter().any(|(m2, k2)| m2 == m && k2 == k))
            && (!reduct.fin() || code.fin())
    }

    #[test]
    fn nondet_resolves_either_branch() {
        let c = Code::choice(m("a"), m("b"));
        assert_eq!(apply(&c, StructStep::NondetL), Some(m("a")));
        assert_eq!(apply(&c, StructStep::NondetR), Some(m("b")));
    }

    #[test]
    fn loop_unfolds_as_figure_6() {
        let c = Code::star(m("a"));
        let unfolded = apply(&c, StructStep::Loop).unwrap();
        assert_eq!(
            unfolded,
            Code::choice(Code::seq(m("a"), Code::star(m("a"))), Code::Skip)
        );
    }

    #[test]
    fn semiskip_eliminates_leading_skip() {
        let c = Code::seq(Code::Skip, m("a"));
        assert_eq!(apply(&c, StructStep::SemiSkip), Some(m("a")));
    }

    #[test]
    fn semi_congruence_reduces_on_the_left() {
        // (a + b) ; c — the choice resolves under the seq.
        let c = Code::seq(Code::choice(m("a"), m("b")), m("c"));
        let r = apply(&c, StructStep::NondetL).unwrap();
        assert_eq!(r, Code::seq(m("a"), m("c")));
    }

    #[test]
    fn tx_congruence() {
        let c = Code::tx(Code::choice(m("a"), m("b")));
        let r = apply(&c, StructStep::NondetR).unwrap();
        assert_eq!(r, Code::tx(m("b")));
    }

    #[test]
    fn applicable_finds_leftmost_redex() {
        let c = Code::seq(Code::Skip, Code::choice(m("a"), m("b")));
        assert_eq!(applicable(&c), vec![StructStep::SemiSkip]);
        let c2 = apply(&c, StructStep::SemiSkip).unwrap();
        assert_eq!(
            applicable(&c2),
            vec![StructStep::NondetL, StructStep::NondetR]
        );
        assert!(applicable(&m("a")).is_empty());
    }

    #[test]
    fn structural_steps_never_invent_behaviours() {
        let cases: Vec<Code<&'static str>> = vec![
            Code::choice(m("a"), m("b")),
            Code::star(m("a")),
            Code::seq(Code::Skip, m("a")),
            Code::seq(Code::choice(m("a"), Code::Skip), m("c")),
            Code::tx(Code::seq(Code::star(m("x")), m("y"))),
        ];
        for c in &cases {
            for s in [
                StructStep::NondetL,
                StructStep::NondetR,
                StructStep::Loop,
                StructStep::SemiSkip,
            ] {
                assert!(preserves_step_inclusion(c, s), "{c} under {s:?}");
            }
        }
    }

    #[test]
    fn fully_resolving_leaves_only_method_steps() {
        // Repeatedly apply structural steps (taking NondetL) until none
        // apply; the result's step set is a subset of the original's.
        let mut c = Code::tx(Code::seq(Code::choice(m("a"), m("b")), Code::star(m("c"))));
        let original_steps = c.step();
        loop {
            let apps = applicable(&c);
            let Some(&s) = apps.first() else { break };
            c = apply(&c, s).unwrap();
        }
        for (mm, _) in c.step() {
            assert!(original_steps.iter().any(|(m2, _)| *m2 == mm));
        }
    }
}
