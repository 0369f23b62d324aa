//! The §6 rule-usage pattern.
//!
//! The paper's §6 classifies each TM algorithm by *which* of the seven
//! rules it exercises — e.g. boosting is "APP;PUSH per operation,
//! UNPUSH;UNAPP on abort" and never PULLs uncommitted effects.
//! [`RulePattern`] makes that classification a value so drivers can
//! declare it and the `pushpull-analysis` linter can check the
//! declaration against a program's static summary.

use std::fmt;

use crate::error::Rule;

/// A set of the seven PUSH/PULL rules, encoded as a bitset — the §6
/// "rule pattern" of an algorithm class.
///
/// # Examples
///
/// ```
/// use pushpull_core::static_facts::RulePattern;
/// use pushpull_core::error::Rule;
///
/// // Boosting: APP;PUSH per op, UNPUSH;UNAPP on abort, CMT at the end.
/// let p = RulePattern::new()
///     .with(Rule::App)
///     .with(Rule::Push)
///     .with(Rule::UnPush)
///     .with(Rule::UnApp)
///     .with(Rule::Cmt);
/// assert!(p.contains(Rule::Push));
/// assert!(!p.contains(Rule::Pull));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RulePattern(u8);

impl RulePattern {
    /// The empty pattern.
    pub const fn new() -> Self {
        RulePattern(0)
    }

    /// Every rule.
    pub const fn all() -> Self {
        RulePattern(0x7f)
    }

    fn bit(rule: Rule) -> u8 {
        1 << match rule {
            Rule::App => 0,
            Rule::UnApp => 1,
            Rule::Push => 2,
            Rule::UnPush => 3,
            Rule::Pull => 4,
            Rule::UnPull => 5,
            Rule::Cmt => 6,
        }
    }

    /// This pattern with `rule` added (builder style).
    #[must_use]
    pub fn with(self, rule: Rule) -> Self {
        RulePattern(self.0 | Self::bit(rule))
    }

    /// This pattern with `rule` removed (builder style).
    #[must_use]
    pub fn without(self, rule: Rule) -> Self {
        RulePattern(self.0 & !Self::bit(rule))
    }

    /// Does the pattern contain `rule`?
    pub fn contains(self, rule: Rule) -> bool {
        self.0 & Self::bit(rule) != 0
    }

    /// Is the pattern empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Rules in `self` but not in `other` — the divergences the linter
    /// reports.
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        RulePattern(self.0 & !other.0)
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// The rules in this pattern, in the fixed APP..CMT order.
    pub fn rules(self) -> Vec<Rule> {
        [
            Rule::App,
            Rule::UnApp,
            Rule::Push,
            Rule::UnPush,
            Rule::Pull,
            Rule::UnPull,
            Rule::Cmt,
        ]
        .into_iter()
        .filter(|r| self.contains(*r))
        .collect()
    }
}

impl fmt::Display for RulePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for r in self.rules() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for RulePattern {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        iter.into_iter().fold(RulePattern::new(), RulePattern::with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_set_operations() {
        let boosting = RulePattern::new()
            .with(Rule::App)
            .with(Rule::Push)
            .with(Rule::UnPush)
            .with(Rule::UnApp)
            .with(Rule::Cmt);
        assert!(boosting.contains(Rule::UnPush));
        assert!(!boosting.contains(Rule::Pull));
        assert!(boosting.is_subset(RulePattern::all()));
        let opt = RulePattern::from_iter([Rule::App, Rule::UnApp, Rule::Push, Rule::Cmt])
            .with(Rule::Pull);
        let diff = boosting.difference(opt);
        assert_eq!(diff.rules(), vec![Rule::UnPush]);
        assert_eq!(boosting.without(Rule::App).rules().len(), 4);
    }

    #[test]
    fn pattern_renders_in_rule_order() {
        let p = RulePattern::from_iter([Rule::Cmt, Rule::App, Rule::Push]);
        assert_eq!(p.to_string(), "APP+PUSH+CMT");
        assert_eq!(RulePattern::new().to_string(), "∅");
    }
}
