//! Pass 1 of the two-pass engine: a lightweight workspace model.
//!
//! Per-file rules can only see one file's tokens; the drift modes that
//! actually bite the protocol stack are *cross-file*: an enum variant
//! that is defined but never billed anywhere, a truncating cast hiding in
//! a codec length path. This module extracts just enough structure from the existing lexer's masked
//! view — no external parser, staying dependency-free — for the
//! cross-file rules in [`crate::crossfile`] to reason about the workspace
//! as a whole:
//!
//! * enum definitions with their variants;
//! * `Enum::Variant` references, classified as match arms vs.
//!   constructions/uses;
//! * `expr as <int>` casts with the target width and the source token.
//!
//! Every fact carries its byte offset and an `is_test` flag (true inside
//! `#[cfg(test)]`/`#[test]` regions *or* anywhere in a `tests/`,
//! `examples/`, or `benches/` tree), so rules can distinguish production
//! reachability from test reachability.

use crate::lexer::{find_idents, ident_ending_at, ident_starting_at, LexedFile};

/// How a variant reference sits relative to a `match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefContext {
    /// The reference is a match pattern: `Enum::V => …` (including
    /// struct/tuple-variant patterns before the arrow).
    MatchArm,
    /// Any other expression or pattern position.
    Other,
}

/// One variant of a parsed enum definition.
#[derive(Debug, Clone)]
pub struct VariantDef {
    /// The variant's name.
    pub name: String,
    /// Byte offset of the variant name.
    pub offset: usize,
}

/// One `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// Byte offset of the enum name.
    pub offset: usize,
    /// Whether the definition sits in test code.
    pub is_test: bool,
    /// The variants, in declaration order.
    pub variants: Vec<VariantDef>,
}

/// One `Enum::Variant` path reference.
#[derive(Debug, Clone)]
pub struct VariantRef {
    /// The enum segment (`EnergyUse` in `EnergyUse::Wasted`).
    pub enum_name: String,
    /// The variant segment.
    pub variant: String,
    /// Byte offset of the enum segment.
    pub offset: usize,
    /// Whether the reference sits in test code.
    pub is_test: bool,
    /// Match-arm vs. construction/use classification.
    pub context: RefContext,
}

/// One `expr as <integer type>` cast site.
#[derive(Debug, Clone)]
pub struct CastSite {
    /// The target type token (`u8`, `i32`, …).
    pub target: String,
    /// Bit width of the target (8, 16, 32, 64, 128; `usize`/`isize` = 64).
    pub target_bits: u32,
    /// The source token immediately left of `as` (`len`, `0xFF`, `q`, or
    /// empty when the cast closes a parenthesized expression).
    pub source_token: String,
    /// Byte offset of the `as` keyword.
    pub offset: usize,
    /// Whether the cast sits in test code.
    pub is_test: bool,
    /// Whether the cast's line also names a checked conversion
    /// (`try_from`/`try_into`), marking the `as` as a documented rewrap.
    pub line_has_checked: bool,
}

/// Everything pass 1 extracted from one file.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The crate the file belongs to (see [`crate::LintConfig::crate_of`]).
    pub crate_name: String,
    /// True for files under `tests/`, `examples/`, or `benches/` trees —
    /// every fact in such a file is test-context regardless of regions.
    pub in_test_tree: bool,
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// `Enum::Variant` references.
    pub variant_refs: Vec<VariantRef>,
    /// Narrow-integer cast sites.
    pub casts: Vec<CastSite>,
}

/// The pass-1 model: one [`FileFacts`] per scanned file, in path order.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Per-file facts, sorted by path.
    pub files: Vec<FileFacts>,
}

impl FileFacts {
    /// Extracts every fact the cross-file rules need from one lexed file.
    pub fn extract(
        path: &str,
        crate_name: &str,
        in_test_tree: bool,
        lexed: &LexedFile,
    ) -> FileFacts {
        let mut facts = FileFacts {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            in_test_tree,
            enums: Vec::new(),
            variant_refs: Vec::new(),
            casts: Vec::new(),
        };
        facts.scan_enums(lexed);
        facts.scan_variant_refs(lexed);
        facts.scan_casts(lexed);
        facts
    }

    fn is_test_at(&self, lexed: &LexedFile, offset: usize) -> bool {
        self.in_test_tree || lexed.is_test(offset)
    }

    /// Collects enum definitions and their variants.
    fn scan_enums(&mut self, lexed: &LexedFile) {
        let masked = &lexed.masked;
        let bytes = masked.as_bytes();
        for kw in find_idents(masked, "enum") {
            let (name_at, name) = ident_starting_at(bytes, kw + "enum".len());
            if name.is_empty() {
                continue;
            }
            // Find the body's opening brace; a `;` or new item first means
            // this was not a definition we can read.
            let mut open = name_at + name.len();
            while open < bytes.len() && bytes[open] != b'{' && bytes[open] != b';' {
                open += 1;
            }
            if open >= bytes.len() || bytes[open] != b'{' {
                continue;
            }
            let close = match_brace(bytes, open);
            let mut def = EnumDef {
                name: String::from_utf8_lossy(name).into_owned(),
                offset: name_at,
                is_test: self.is_test_at(lexed, name_at),
                variants: Vec::new(),
            };
            // Variants: the first identifier of each depth-0 chunk between
            // commas (attributes and doc comments are already blanked).
            let mut at = open + 1;
            while at < close {
                // Skip `#[…]` attributes ahead of the variant name.
                while at < close {
                    let (next_at, tok) = ident_starting_at(bytes, at);
                    if tok.is_empty() {
                        if next_at < close && bytes[next_at] == b'#' {
                            let mut k = next_at;
                            while k < close && bytes[k] != b']' {
                                k += 1;
                            }
                            at = k + 1;
                            continue;
                        }
                        at = next_at + 1;
                        if at >= close {
                            break;
                        }
                        continue;
                    }
                    at = next_at;
                    break;
                }
                if at >= close {
                    break;
                }
                let (v_at, v_name) = ident_starting_at(bytes, at);
                if v_name.is_empty() {
                    break;
                }
                def.variants.push(VariantDef {
                    name: String::from_utf8_lossy(v_name).into_owned(),
                    offset: v_at,
                });
                // Skip to the next depth-0 comma (fields, discriminants).
                let mut depth = 0usize;
                let mut k = v_at + v_name.len();
                while k < close {
                    match bytes[k] {
                        b'{' | b'(' | b'[' => depth += 1,
                        b'}' | b')' | b']' => depth = depth.saturating_sub(1),
                        b',' if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                at = k + 1;
            }
            self.enums.push(def);
        }
    }

    /// Collects `Enum::Variant` path references with arm context.
    fn scan_variant_refs(&mut self, lexed: &LexedFile) {
        let masked = &lexed.masked;
        let bytes = masked.as_bytes();
        let mut from = 0;
        while let Some(pos) = masked[from..].find("::") {
            let at = from + pos;
            from = at + 2;
            let left = ident_ending_at(bytes, at);
            let (right_at, right) = ident_starting_at(bytes, at + 2);
            if right_at != at + 2 || left.is_empty() || right.is_empty() {
                continue;
            }
            let type_like = |t: &[u8]| t[0].is_ascii_uppercase();
            if !type_like(left) || !type_like(right) {
                continue;
            }
            let left_start = at - left.len();
            self.variant_refs.push(VariantRef {
                enum_name: String::from_utf8_lossy(left).into_owned(),
                variant: String::from_utf8_lossy(right).into_owned(),
                offset: left_start,
                is_test: self.is_test_at(lexed, left_start),
                context: classify_ref(bytes, right_at + right.len()),
            });
        }
    }

    /// Collects `expr as <integer>` cast sites.
    fn scan_casts(&mut self, lexed: &LexedFile) {
        let masked = &lexed.masked;
        let bytes = masked.as_bytes();
        for at in find_idents(masked, "as") {
            let (_, target) = ident_starting_at(bytes, at + 2);
            let target = String::from_utf8_lossy(target).into_owned();
            let Some(bits) = int_type_bits(&target) else {
                continue;
            };
            let source_end = prev_token_end(bytes, at);
            let source_token =
                String::from_utf8_lossy(ident_ending_at(bytes, source_end)).into_owned();
            let line_start = masked[..at].rfind('\n').map_or(0, |p| p + 1);
            let line_end = masked[at..].find('\n').map_or(masked.len(), |p| at + p);
            let line_text = &masked[line_start..line_end];
            self.casts.push(CastSite {
                target,
                target_bits: bits,
                source_token,
                offset: at,
                is_test: self.is_test_at(lexed, at),
                line_has_checked: line_text.contains("try_from") || line_text.contains("try_into"),
            });
        }
    }
}

/// The byte offset just past the last non-space byte before `at`,
/// skipping spaces and newlines.
fn prev_token_end(bytes: &[u8], at: usize) -> usize {
    let mut end = at;
    while end > 0 && (bytes[end - 1] == b' ' || bytes[end - 1] == b'\n' || bytes[end - 1] == b'\r')
    {
        end -= 1;
    }
    end
}

/// The offset of the matching `}` for the `{` at `open` (or EOF).
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < bytes.len() && depth > 0 {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    k.saturating_sub(1)
}

/// Classifies a reference ending at `end` as a match arm (followed by
/// `=>`, possibly across a fields group) or a plain mention.
fn classify_ref(bytes: &[u8], end: usize) -> RefContext {
    // Followed by `=>`, optionally across one `{…}`/`(…)` fields group
    // (`Enum::V { .. } => …` and `Enum::V(x) => …` are still patterns).
    let mut k = end;
    while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n' || bytes[k] == b'\r') {
        k += 1;
    }
    if k < bytes.len() && (bytes[k] == b'{' || bytes[k] == b'(') {
        let close = match bytes[k] {
            b'{' => match_brace(bytes, k),
            _ => match_paren(bytes, k),
        };
        k = close + 1;
        while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n' || bytes[k] == b'\r') {
            k += 1;
        }
    }
    if k + 1 < bytes.len() && bytes[k] == b'=' && bytes[k + 1] == b'>' {
        return RefContext::MatchArm;
    }
    // A `Pat | Pat =>` alternation leg also counts as a match position.
    if k < bytes.len() && bytes[k] == b'|' && bytes.get(k + 1) != Some(&b'|') {
        return RefContext::MatchArm;
    }
    RefContext::Other
}

/// The offset of the matching `)` for the `(` at `open` (or EOF).
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < bytes.len() && depth > 0 {
        match bytes[k] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    k.saturating_sub(1)
}

/// Bit width of an integer type token; `None` for anything else.
/// `usize`/`isize` are treated as 64-bit (the narrowest target we build
/// for), so casts *to* them never count as narrowing.
fn int_type_bits(tok: &str) -> Option<u32> {
    match tok {
        "u8" | "i8" => Some(8),
        "u16" | "i16" => Some(16),
        "u32" | "i32" => Some(32),
        "u64" | "i64" => Some(64),
        "u128" | "i128" => Some(128),
        "usize" | "isize" => Some(64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        let lexed = LexedFile::lex(src);
        FileFacts::extract("crates/fei-proto/src/frames.rs", "fei-proto", false, &lexed)
    }

    #[test]
    fn enum_defs_parse_variants_with_fields_and_discriminants() {
        let src = "pub enum Use {\n    Useful,\n    Wasted = 3,\n    Mixed { a: u8, b: u8 },\n    Wrapped(Vec<u8>),\n}\n";
        let f = facts(src);
        assert_eq!(f.enums.len(), 1);
        let names: Vec<_> = f.enums[0]
            .variants
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(names, vec!["Useful", "Wasted", "Mixed", "Wrapped"]);
    }

    #[test]
    fn variant_refs_distinguish_arms_from_constructions() {
        let src = "fn f(u: Use) -> u32 {\n\
                   match u { Use::Useful => 1, Use::Mixed { .. } => 2, _ => 0 }\n\
                   }\n\
                   fn g() -> Use { Use::Wasted }\n";
        let f = facts(src);
        let arm = |v: &str| {
            f.variant_refs
                .iter()
                .any(|r| r.variant == v && r.context == RefContext::MatchArm)
        };
        assert!(arm("Useful"));
        assert!(arm("Mixed"));
        let built: Vec<_> = f
            .variant_refs
            .iter()
            .filter(|r| r.context == RefContext::Other)
            .map(|r| r.variant.as_str())
            .collect();
        assert_eq!(built, vec!["Wasted"]);
    }

    #[test]
    fn casts_record_width_and_source() {
        let src = "fn f(n: usize, b: u8) -> u32 {\n\
                   let x = n as u32;\n\
                   let y = b as u64;\n\
                   let z = n as f64;\n\
                   x + y as u32\n}\n";
        let f = facts(src);
        let targets: Vec<_> = f.casts.iter().map(|c| c.target.as_str()).collect();
        assert_eq!(targets, vec!["u32", "u64", "u32"]);
        assert_eq!(f.casts[0].source_token, "n");
        assert_eq!(f.casts[0].target_bits, 32);
    }

    #[test]
    fn test_tree_files_mark_every_fact_as_test() {
        let lexed = LexedFile::lex("fn f(n: usize) -> Use { let _ = n as u8; Use::Wasted }\n");
        let f = FileFacts::extract("tests/recovery.rs", "ee-fei", true, &lexed);
        assert!(f.casts[0].is_test);
        assert!(f.variant_refs.iter().all(|r| r.is_test));
    }
}
