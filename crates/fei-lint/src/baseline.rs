//! The ratcheting baseline: pin today's findings, fail only on new ones.
//!
//! A rule that fires on existing code would either block the tree on a
//! large burn-down or get disabled; the baseline is the third option.
//! Findings are keyed by `(rule, path, structural hash)` where the hash
//! covers the whitespace-normalized offending snippet — not the line
//! number — so unrelated edits that move a pinned finding do not churn
//! the file, while any *new* site (or a second copy of a pinned one)
//! fails immediately.
//!
//! The ratchet only turns one way: `--write-baseline` refuses to produce
//! a baseline with more findings than the committed one. Growing the
//! debt requires either fixing the code or an explicit
//! `// fei-lint: allow(rule, reason = "…")` at the site — both visible
//! in review — never a silent regeneration.
//!
//! The JSON reader/writer is hand-rolled like the rest of the crate
//! (dependency-free gate), and strict: it reads exactly the shape
//! `--write-baseline` emits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{json_string, Report, Violation};

/// Baseline file format version.
pub const BASELINE_VERSION: u64 = 1;

/// The identity of one pinned finding class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineKey {
    /// Kebab-case rule name.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// FNV-1a 64 hash (hex) of the normalized snippet.
    pub hash: String,
}

/// One pinned finding class with its allowed multiplicity.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Identity of the class.
    pub key: BaselineKey,
    /// How many identical findings are pinned.
    pub count: usize,
    /// The (trimmed) snippet, kept for human review of the file.
    pub snippet: String,
}

/// A committed set of pinned findings.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Pinned classes, keyed for lookup.
    pub entries: BTreeMap<BaselineKey, BaselineEntry>,
}

/// The result of filtering a report through a baseline.
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Findings not covered by the baseline — these fail the run.
    pub new: Vec<Violation>,
    /// Findings suppressed because the baseline pins them.
    pub baselined: usize,
    /// Pinned classes (with leftover counts) that no longer occur: the
    /// debt shrank; rewrite the baseline to lock the progress in.
    pub stale: Vec<BaselineEntry>,
}

/// The structural key of one violation.
pub fn key_of(v: &Violation) -> BaselineKey {
    BaselineKey {
        rule: v.rule.clone(),
        path: v.path.clone(),
        hash: format!("{:016x}", fnv1a64(&normalize(&v.snippet))),
    }
}

/// Collapses whitespace runs so formatting churn does not re-key findings.
fn normalize(snippet: &str) -> String {
    let mut out = String::with_capacity(snippet.len());
    let mut in_ws = false;
    for c in snippet.trim().chars() {
        if c.is_whitespace() {
            in_ws = true;
            continue;
        }
        if in_ws && !out.is_empty() {
            out.push(' ');
        }
        in_ws = false;
        out.push(c);
    }
    out
}

/// FNV-1a 64-bit — tiny, dependency-free, stable across platforms.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Baseline {
    /// Builds the baseline that would pin every finding in `report`.
    pub fn from_report(report: &Report) -> Baseline {
        let mut entries: BTreeMap<BaselineKey, BaselineEntry> = BTreeMap::new();
        for v in &report.violations {
            let key = key_of(v);
            entries
                .entry(key.clone())
                .or_insert_with(|| BaselineEntry {
                    key,
                    count: 0,
                    snippet: v.snippet.clone(),
                })
                .count += 1;
        }
        Baseline { entries }
    }

    /// Total pinned findings across all classes.
    pub fn total(&self) -> usize {
        self.entries.values().map(|e| e.count).sum()
    }

    /// Splits `report`'s violations into baselined and new, consuming pin
    /// counts in the report's deterministic order.
    pub fn filter(&self, report: &Report) -> BaselineOutcome {
        let mut remaining: BTreeMap<BaselineKey, usize> = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.count))
            .collect();
        let mut outcome = BaselineOutcome::default();
        for v in &report.violations {
            let key = key_of(v);
            match remaining.get_mut(&key).filter(|n| **n > 0) {
                Some(n) => {
                    *n -= 1;
                    outcome.baselined += 1;
                }
                None => outcome.new.push(v.clone()),
            }
        }
        for (key, left) in remaining {
            if left > 0 {
                let mut entry = self.entries[&key].clone();
                entry.count = left;
                outcome.stale.push(entry);
            }
        }
        outcome
    }

    /// The ratchet: whether replacing `old` with `self` would grow the
    /// debt anywhere. Returns the offending classes.
    pub fn grows_over(&self, old: &Baseline) -> Vec<&BaselineEntry> {
        self.entries
            .values()
            .filter(|e| {
                let pinned = old.entries.get(&e.key).map_or(0, |o| o.count);
                e.count > pinned
            })
            .collect()
    }

    /// Renders the committed JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {BASELINE_VERSION},");
        let _ = writeln!(out, "  \"total\": {},", self.total());
        out.push_str("  \"findings\": [\n");
        for (i, e) in self.entries.values().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"hash\": {}, \"count\": {}, \
                 \"snippet\": {}}}{comma}",
                json_string(&e.key.rule),
                json_string(&e.key.path),
                json_string(&e.key.hash),
                e.count,
                json_string(&e.snippet)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the committed JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem; a baseline
    /// that cannot be read must fail the run loudly, not pass it.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = JsonValue::parse(text)?;
        let obj = value.as_object("baseline root")?;
        let version = obj
            .get("version")
            .ok_or("baseline missing \"version\"")?
            .as_u64("version")?;
        if version != BASELINE_VERSION {
            return Err(format!(
                "baseline version {version} unsupported (this fei-lint reads {BASELINE_VERSION}); \
                 regenerate with --write-baseline"
            ));
        }
        let findings = obj
            .get("findings")
            .ok_or("baseline missing \"findings\"")?
            .as_array("findings")?;
        let mut baseline = Baseline::default();
        for (i, f) in findings.iter().enumerate() {
            let f = f.as_object("finding")?;
            let field = |name: &str| -> Result<&JsonValue, String> {
                f.get(name)
                    .ok_or_else(|| format!("finding #{i} missing \"{name}\""))
            };
            let key = BaselineKey {
                rule: field("rule")?.as_str("rule")?.to_string(),
                path: field("path")?.as_str("path")?.to_string(),
                hash: field("hash")?.as_str("hash")?.to_string(),
            };
            let count = field("count")?.as_u64("count")? as usize;
            let snippet = field("snippet")?.as_str("snippet")?.to_string();
            if baseline
                .entries
                .insert(
                    key.clone(),
                    BaselineEntry {
                        key,
                        count,
                        snippet,
                    },
                )
                .is_some()
            {
                return Err(format!("finding #{i} duplicates an earlier key"));
            }
        }
        Ok(baseline)
    }
}

/// A minimal JSON value — just enough to read the baseline format.
enum JsonValue {
    String(String),
    Number(u64),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes after JSON value at offset {at}"));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&BTreeMap<String, JsonValue>, String> {
        match self {
            JsonValue::Object(m) => Ok(m),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(v) => Ok(v),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(format!("{what}: expected a non-negative integer")),
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && bytes[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn parse_value(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{') => parse_object(bytes, at),
        Some(b'[') => parse_array(bytes, at),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, at)?)),
        Some(b'0'..=b'9') => parse_number(bytes, at),
        Some(other) => Err(format!(
            "unexpected byte {:?} at offset {at}",
            *other as char
        )),
        None => Err("unexpected end of baseline JSON".to_string()),
    }
}

fn expect_byte(bytes: &[u8], at: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b) {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {at}", b as char))
    }
}

fn parse_object(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, at, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(bytes, at)?;
        expect_byte(bytes, at, b':')?;
        let value = parse_value(bytes, at)?;
        map.insert(key, value);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {at}")),
        }
    }
}

fn parse_array(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    expect_byte(bytes, at, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {at}")),
        }
    }
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    expect_byte(bytes, at, b'"')?;
    let mut out = String::new();
    while *at < bytes.len() {
        match bytes[*at] {
            b'"' => {
                *at += 1;
                return Ok(out);
            }
            b'\\' => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*at + 1..*at + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ASCII \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?,
                        );
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at offset {at}")),
                }
                *at += 1;
            }
            _ => {
                // Copy one UTF-8 scalar, however many bytes it takes.
                let s = std::str::from_utf8(&bytes[*at..])
                    .map_err(|_| "baseline JSON is not valid UTF-8".to_string())?;
                let c = s
                    .chars()
                    .next()
                    .expect("invariant: non-empty by loop guard");
                out.push(c);
                *at += c.len_utf8();
            }
        }
    }
    Err("unterminated string in baseline JSON".to_string())
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<JsonValue, String> {
    let start = *at;
    while *at < bytes.len() && bytes[*at].is_ascii_digit() {
        *at += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*at]).expect("invariant: digits are ASCII");
    text.parse::<u64>()
        .map(JsonValue::Number)
        .map_err(|e| format!("bad number at offset {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: &str, path: &str, line: usize, snippet: &str) -> Violation {
        Violation {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    fn report(violations: Vec<Violation>) -> Report {
        let mut r = Report {
            violations,
            ..Report::default()
        };
        r.finish();
        r
    }

    #[test]
    fn keys_ignore_line_numbers_and_whitespace() {
        let a = violation("truncating-cast", "a.rs", 10, "let x = n as u32;");
        let b = violation("truncating-cast", "a.rs", 99, "let x  =  n as u32;");
        assert_eq!(key_of(&a), key_of(&b));
        let c = violation("truncating-cast", "a.rs", 10, "let y = n as u32;");
        assert_ne!(key_of(&a), key_of(&c));
    }

    #[test]
    fn round_trip_and_filter() {
        let r = report(vec![
            violation("enum-billing", "a.rs", 1, "Cancelled,"),
            violation("truncating-cast", "b.rs", 2, "n as u32"),
            violation("truncating-cast", "b.rs", 5, "n as u32"),
        ]);
        let baseline = Baseline::from_report(&r);
        assert_eq!(baseline.total(), 3);
        let reparsed = Baseline::parse(&baseline.to_json()).expect("own format parses");
        assert_eq!(reparsed.total(), 3);

        // Same findings: everything baselined, nothing new or stale.
        let outcome = reparsed.filter(&r);
        assert!(outcome.new.is_empty());
        assert_eq!(outcome.baselined, 3);
        assert!(outcome.stale.is_empty());

        // One fixed, one new: the new one fails, the fixed one is stale.
        let drifted = report(vec![
            violation("enum-billing", "a.rs", 1, "Cancelled,"),
            violation("truncating-cast", "b.rs", 2, "n as u32"),
            violation("enum-billing", "c.rs", 9, "Poisoned,"),
        ]);
        let outcome = reparsed.filter(&drifted);
        assert_eq!(outcome.new.len(), 1);
        assert_eq!(outcome.new[0].rule, "enum-billing");
        assert_eq!(outcome.baselined, 2);
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].count, 1);
    }

    #[test]
    fn extra_copies_of_a_pinned_finding_are_new() {
        let one = report(vec![violation("truncating-cast", "b.rs", 2, "n as u32")]);
        let baseline = Baseline::from_report(&one);
        let two = report(vec![
            violation("truncating-cast", "b.rs", 2, "n as u32"),
            violation("truncating-cast", "b.rs", 7, "n as u32"),
        ]);
        let outcome = baseline.filter(&two);
        assert_eq!(outcome.baselined, 1);
        assert_eq!(outcome.new.len(), 1);
    }

    #[test]
    fn ratchet_rejects_growth_and_accepts_shrink() {
        let old = Baseline::from_report(&report(vec![
            violation("enum-billing", "a.rs", 1, "Cancelled,"),
            violation("truncating-cast", "b.rs", 2, "n as u32"),
        ]));
        let shrunk = Baseline::from_report(&report(vec![violation(
            "truncating-cast",
            "b.rs",
            2,
            "n as u32",
        )]));
        assert!(shrunk.grows_over(&old).is_empty());
        let grown = Baseline::from_report(&report(vec![
            violation("enum-billing", "a.rs", 1, "Cancelled,"),
            violation("truncating-cast", "b.rs", 2, "n as u32"),
            violation("truncating-cast", "b.rs", 9, "m as u16"),
        ]));
        assert_eq!(grown.grows_over(&old).len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_baselines() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"version\": 9, \"findings\": []}").is_err());
        assert!(Baseline::parse("{\"version\": 1, \"findings\": [{}]}").is_err());
        assert!(Baseline::parse("{\"version\": 1, \"findings\": []} x").is_err());
        let empty = Baseline::parse("{\"version\": 1, \"findings\": []}").expect("empty ok");
        assert_eq!(empty.total(), 0);
    }
}
