//! Violation collection and rendering (human-readable and JSON).
//!
//! JSON emission is hand-rolled: the linter is deliberately
//! dependency-free so it can gate every other crate without being able to
//! break their builds.

use std::fmt::Write as _;

use crate::rules::RuleId;

/// One rule violation at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Kebab-case rule name.
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// What is wrong and what the sanctioned alternative is.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, ordered by (path, line, col, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count for one rule.
    pub fn count_for(&self, rule: RuleId) -> usize {
        self.violations
            .iter()
            .filter(|v| v.rule == rule.name())
            .count()
    }

    /// Sorts violations into the canonical deterministic order.
    pub fn finish(&mut self) {
        self.violations.sort_by(|a, b| {
            (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule))
        });
    }

    /// Human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}\n    {}",
                v.path, v.line, v.col, v.rule, v.message, v.snippet
            );
        }
        let _ = writeln!(
            out,
            "fei-lint: {} file(s) scanned, {} violation(s)",
            self.files_scanned,
            self.violations.len()
        );
        for rule in RuleId::ALL {
            let n = self.count_for(rule);
            if n > 0 {
                let _ = writeln!(out, "  {:>4}  {}", n, rule.name());
            }
        }
        out
    }

    /// Machine-readable report with per-rule counts.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"violations_total\": {},", self.violations.len());
        out.push_str("  \"rules\": {\n");
        for (i, rule) in RuleId::ALL.into_iter().enumerate() {
            let comma = if i + 1 < RuleId::ALL.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {}: {{\"violations\": {}}}{comma}",
                json_string(rule.name()),
                self.count_for(rule)
            );
        }
        out.push_str("  },\n");
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let comma = if i + 1 < self.violations.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
                 \"message\": {}, \"snippet\": {}}}{comma}",
                json_string(&v.rule),
                json_string(&v.path),
                v.line,
                v.col,
                json_string(&v.message),
                json_string(&v.snippet)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_orders_and_counts() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "no-panic".into(),
            path: "b.rs".into(),
            line: 2,
            col: 1,
            message: "m".into(),
            snippet: "s".into(),
        });
        r.violations.push(Violation {
            rule: "float-eq".into(),
            path: "a.rs".into(),
            line: 9,
            col: 4,
            message: "m".into(),
            snippet: "s".into(),
        });
        r.finish();
        assert_eq!(r.violations[0].path, "a.rs");
        assert_eq!(r.count_for(RuleId::NoPanic), 1);
        assert_eq!(r.count_for(RuleId::FloatEq), 1);
        assert_eq!(r.count_for(RuleId::LedgerDiscipline), 0);
        let json = r.render_json();
        assert!(json.contains("\"violations_total\": 2"));
        assert!(json.contains("\"no-panic\": {\"violations\": 1}"));
    }
}
