//! The invariant rule set.
//!
//! Each rule encodes one of the repo's domain contracts and names the
//! runtime test it protects (see DESIGN.md, "Statically-enforced
//! invariants"). Rules run over the masked view produced by
//! [`crate::lexer::LexedFile`], so comments and string contents never
//! trigger them, and test-gated code is exempt. The determinism and
//! narrowing-cast contracts are clippy's (per-crate `clippy.toml`
//! `disallowed-types`, `clippy::cast_possible_truncation`): it sees types.

use crate::config::LintConfig;
use crate::lexer::{find_idents, is_ident_byte, LexedFile};
use crate::report::Violation;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `unwrap()`/bare `expect()`/`panic!` in library code: fallible
    /// paths return typed errors (`AggregateError`, `CoreError`, …).
    /// `expect("invariant: …")` is sanctioned for genuinely unreachable
    /// states; anything else needs an allow directive.
    NoPanic,
    /// No exact `==`/`!=` against floating-point literals: compare within a
    /// tolerance, or justify an exact sentinel/zero-guard with an allow
    /// directive.
    FloatEq,
    /// Public energy-accounting entry points in `fei-core`/`fei-power`
    /// that accept raw joules must also accept an `EnergyUse`
    /// classification, so no joule can bypass the `EnergyLedger` buckets
    /// (`tests/energy_accounting.rs`).
    LedgerDiscipline,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 3] = [RuleId::NoPanic, RuleId::FloatEq, RuleId::LedgerDiscipline];

    /// The kebab-case name used in reports and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPanic => "no-panic",
            RuleId::FloatEq => "float-eq",
            RuleId::LedgerDiscipline => "ledger-discipline",
        }
    }

    /// One-line summary for `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::NoPanic => {
                "no unwrap()/bare expect()/panic! in library code (typed errors or expect(\"invariant: ...\"))"
            }
            RuleId::FloatEq => {
                "no ==/!= against float literals (compare within a tolerance or justify the sentinel)"
            }
            RuleId::LedgerDiscipline => {
                "public joule-taking fns in fei-core/fei-power must take an EnergyUse classification"
            }
        }
    }

    /// Parses a rule name as used in directives.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether this rule applies to `crate_name` / `rel_path`.
    pub fn applies(self, config: &LintConfig, crate_name: &str, rel_path: &str) -> bool {
        match self {
            RuleId::LedgerDiscipline => config.ledger_crates.iter().any(|c| c == crate_name),
            // Binary entry points (src/bin/, src/main.rs) may abort on
            // operational errors; the contract covers library code.
            RuleId::NoPanic => !(rel_path.contains("/bin/") || rel_path.ends_with("src/main.rs")),
            RuleId::FloatEq => true,
        }
    }

    /// Runs this rule over one lexed file.
    pub fn check(self, file: &LexedFile, path: &str) -> Vec<Violation> {
        match self {
            RuleId::NoPanic => check_no_panic(self, file, path),
            RuleId::FloatEq => check_float_eq(self, file, path),
            RuleId::LedgerDiscipline => check_ledger(self, file, path),
        }
    }
}

/// Emits a violation at `offset` unless the site is test code or allowed.
fn emit(
    rule: RuleId,
    file: &LexedFile,
    path: &str,
    offset: usize,
    message: String,
    out: &mut Vec<Violation>,
) {
    if file.is_test(offset) {
        return;
    }
    let line = file.line_of(offset);
    if file.allowed_rules_at(line).contains(&rule.name()) {
        return;
    }
    out.push(Violation {
        rule: rule.name().to_string(),
        path: path.to_string(),
        line,
        col: file.col_of(offset),
        message,
        snippet: file.raw_line(line).trim().to_string(),
    });
}

/// Macros whose expansion aborts the process.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_no_panic(rule: RuleId, file: &LexedFile, path: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let masked = &file.masked;
    let bytes = masked.as_bytes();

    for offset in find_idents(masked, "unwrap") {
        let preceded_by_dot = offset > 0 && bytes[offset - 1] == b'.';
        let followed_by_call = masked[offset + "unwrap".len()..]
            .trim_start()
            .starts_with('(');
        if preceded_by_dot && followed_by_call {
            emit(
                rule,
                file,
                path,
                offset,
                "`unwrap()` in library code: return a typed error, or use \
                 `expect(\"invariant: ...\")` for a provably unreachable state"
                    .to_string(),
                &mut out,
            );
        }
    }

    for offset in find_idents(masked, "expect") {
        let preceded_by_dot = offset > 0 && bytes[offset - 1] == b'.';
        let after = &masked[offset + "expect".len()..];
        if !preceded_by_dot || !after.trim_start().starts_with('(') {
            continue;
        }
        if expect_message_is_invariant(file, offset) {
            continue;
        }
        emit(
            rule,
            file,
            path,
            offset,
            "`expect()` whose message does not start with \"invariant: \": \
             either the state is reachable (return a typed error) or it is \
             not (say so: `expect(\"invariant: ...\")`)"
                .to_string(),
            &mut out,
        );
    }

    for mac in PANIC_MACROS {
        for offset in find_idents(masked, mac) {
            let rest = masked[offset + mac.len()..].trim_start();
            if rest.starts_with('!') {
                emit(
                    rule,
                    file,
                    path,
                    offset,
                    format!("`{mac}!` in library code: return a typed error instead"),
                    &mut out,
                );
            }
        }
    }
    out
}

/// Inspects the *raw* text after `.expect(` for a `"invariant: ..."` string.
fn expect_message_is_invariant(file: &LexedFile, expect_offset: usize) -> bool {
    let raw = file.raw.as_bytes();
    let Some(open) = file.masked[expect_offset..]
        .find('(')
        .map(|p| expect_offset + p)
    else {
        return false;
    };
    let mut i = open + 1;
    while i < raw.len() && (raw[i] as char).is_whitespace() {
        i += 1;
    }
    raw.get(i..)
        .is_some_and(|rest| rest.starts_with(b"\"invariant: "))
}

fn check_float_eq(rule: RuleId, file: &LexedFile, path: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let bytes = file.masked.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==";
        let is_ne = two == b"!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Not part of `<=`, `>=`, `=>`, `===`-like runs or compound ops.
        let prev = if i > 0 { bytes[i - 1] } else { b' ' };
        let next = bytes.get(i + 2).copied().unwrap_or(b' ');
        if is_eq && (b"=!<>+-*/%&|^".contains(&prev) || next == b'=') {
            i += 2;
            continue;
        }
        if is_ne && next == b'=' {
            i += 2;
            continue;
        }
        let left = token_left(bytes, i);
        let right = token_right(bytes, i + 2);
        if is_float_literal(&left) || is_float_literal(&right) {
            let op = if is_eq { "==" } else { "!=" };
            emit(
                rule,
                file,
                path,
                i,
                format!(
                    "exact `{op}` against float literal `{}`: compare within \
                     a tolerance, or justify the exact sentinel with an \
                     allow directive",
                    if is_float_literal(&left) {
                        &left
                    } else {
                        &right
                    }
                ),
                &mut out,
            );
        }
        i += 2;
    }
    out
}

/// The contiguous `[A-Za-z0-9_.]` token ending just before `op_start`.
fn token_left(bytes: &[u8], op_start: usize) -> String {
    let mut end = op_start;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && (is_ident_byte(bytes[start - 1]) || bytes[start - 1] == b'.') {
        start -= 1;
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

/// The contiguous `[A-Za-z0-9_.]` token starting just after the operator.
fn token_right(bytes: &[u8], mut start: usize) -> String {
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    // A leading unary minus still makes a float literal.
    if bytes.get(start) == Some(&b'-') {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len() && (is_ident_byte(bytes[end]) || bytes[end] == b'.') {
        end += 1;
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

/// `0.0`, `1.5e3`, `2f64`, … — but not `self.x`, `0xFF`, or plain ints.
fn is_float_literal(tok: &str) -> bool {
    let tok = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = tok.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    if tok.starts_with("0x") || tok.starts_with("0b") || tok.starts_with("0o") {
        return false;
    }
    tok.contains('.') || tok.contains(['e', 'E'])
}

fn check_ledger(rule: RuleId, file: &LexedFile, path: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let masked = &file.masked;
    for offset in find_idents(masked, "pub") {
        // `pub fn`, `pub(crate) fn`, …
        let mut rest = &masked[offset + 3..];
        let mut consumed = offset + 3;
        let trimmed = rest.trim_start();
        consumed += rest.len() - trimmed.len();
        rest = trimmed;
        if rest.starts_with('(') {
            let Some(close) = rest.find(')') else {
                continue;
            };
            consumed += close + 1;
            rest = &masked[consumed..];
            let trimmed = rest.trim_start();
            consumed += rest.len() - trimmed.len();
            rest = trimmed;
        }
        if !rest.starts_with("fn") || rest.as_bytes().get(2).copied().is_some_and(is_ident_byte) {
            continue;
        }
        // Capture the parameter list: first `(` after the fn name, to its
        // matching `)`.
        let Some(open_rel) = rest.find('(') else {
            continue;
        };
        let open = consumed + open_rel;
        let bytes = masked.as_bytes();
        let mut depth = 0usize;
        let mut close = open;
        for (k, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        if close == open {
            continue;
        }
        let params = &masked[open + 1..close];
        if !find_idents(params, "f64").is_empty()
            && has_joule_param(params)
            && find_idents(params, "EnergyUse").is_empty()
        {
            emit(
                rule,
                file,
                path,
                offset,
                "public fn takes raw joules (`f64`) without an `EnergyUse` \
                 classification: route the spend through EnergyLedger::charge, \
                 or justify why this spend is outside ledger accounting"
                    .to_string(),
                &mut out,
            );
        }
    }
    out
}

/// Whether a parameter list names a joule-carrying parameter
/// (`joules: f64`, `capacity_j: f64`, …).
fn has_joule_param(params: &str) -> bool {
    let mut depth = 0i32;
    let mut start = 0usize;
    let bytes = params.as_bytes();
    let mut found = false;
    let mut scan = |param: &str| {
        let Some(colon) = param.find(':') else { return };
        let name = param[..colon]
            .trim()
            .trim_start_matches("mut ")
            .trim_start_matches("ref ")
            .trim();
        if name == "joules" || name.ends_with("_j") || name.ends_with("_joules") {
            found = true;
        }
    };
    for (k, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'<' | b'[' => depth += 1,
            b')' | b'>' | b']' => depth -= 1,
            b',' if depth == 0 => {
                scan(&params[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    scan(&params[start..]);
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> LexedFile {
        LexedFile::lex(src)
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::from_name("nope"), None);
    }

    #[test]
    fn unwrap_and_bare_expect_flagged_invariant_expect_sanctioned() {
        let src = "fn f() {\n    let a = x.unwrap();\n    let b = y.expect(\"oops\");\n    let c = z.expect(\"invariant: checked above\");\n    let d = m.unwrap_or(0);\n}\n";
        let v = RuleId::NoPanic.check(&lex(src), "p.rs");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].snippet.contains("unwrap()"));
        assert!(v[1].snippet.contains("oops"));
    }

    #[test]
    fn float_eq_flags_literal_comparisons_only() {
        let src = "fn f(a: f64, n: usize) {\n    if a == 0.0 {}\n    if a != 1.5e3 {}\n    if n == 0 {}\n    if a <= 0.0 {}\n    let arrow = |x: usize| x;\n}\n";
        let v = RuleId::FloatEq.check(&lex(src), "p.rs");
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn ledger_rule_requires_energy_use_next_to_joules() {
        let src = "pub fn consume(&mut self, device: usize, joules: f64) {}\n\
                   pub fn charge(&mut self, usage: EnergyUse, joules: f64) {}\n\
                   pub fn energy_joules(&self) -> f64 { 0.0 }\n";
        let v = RuleId::LedgerDiscipline.check(&lex(src), "p.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn panicking_macros_flagged_outside_tests() {
        let src = "fn f() { panic!(\"x\") }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { unreachable!() }\n}\n";
        let v = RuleId::NoPanic.check(&lex(src), "p.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }
}
