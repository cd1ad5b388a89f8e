//! A small, dependency-free Rust source lexer.
//!
//! `fei-lint` cannot use `syn` (the workspace builds fully offline against
//! vendored deps, and `syn` is not among them), so rules run over a
//! *masked* view of each source file produced here:
//!
//! * comment bodies, string-literal contents, and char-literal contents are
//!   replaced byte-for-byte with spaces, so token searches never match
//!   inside prose or data;
//! * the masked text has exactly the same byte length as the original, so
//!   an offset found in the masked view indexes the raw view too (used by
//!   the `no-panic` rule to inspect `expect(..)` messages);
//! * `#[cfg(test)]`- and `#[test]`-gated regions are resolved by brace
//!   matching on the masked text, so rules can exempt test code;
//! * `// fei-lint: allow(rule, reason = "...")` escape comments are parsed
//!   into [`Directive`]s that suppress exactly the named rules on their own
//!   line and the line below.
//!
//! The lexer understands line comments, nested block comments, string /
//! raw-string / byte-string literals, char and byte-char literals, and
//! lifetimes. That is all the Rust syntax the rules need.

/// A parsed `// fei-lint: allow(...)` escape comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rule names this directive suppresses.
    pub rules: Vec<String>,
    /// The mandatory justification string.
    pub reason: Option<String>,
    /// Set when the comment looked like a directive but did not parse.
    pub parse_error: Option<String>,
}

/// A lexed source file: raw + masked text and the structure rules need.
#[derive(Debug)]
pub struct LexedFile {
    /// Original file contents.
    pub raw: String,
    /// Same byte length as `raw`; comment/literal interiors blanked.
    pub masked: String,
    /// Byte offset where each 1-based line starts.
    line_starts: Vec<usize>,
    /// Byte ranges (start inclusive, end exclusive) of test-gated code.
    test_regions: Vec<(usize, usize)>,
    /// All escape comments found, in file order.
    pub directives: Vec<Directive>,
}

impl LexedFile {
    /// Lexes `raw` into a masked view plus directives and test regions.
    pub fn lex(raw: &str) -> LexedFile {
        let (masked, comments) = mask(raw);
        let line_starts = line_starts(raw);
        let mut file = LexedFile {
            raw: raw.to_string(),
            masked,
            line_starts,
            test_regions: Vec::new(),
            directives: Vec::new(),
        };
        file.test_regions = find_test_regions(&file.masked);
        file.directives = comments
            .iter()
            .filter_map(|c| parse_directive(c.text.trim(), file.line_of(c.start)))
            .collect();
        file
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// 1-based column (in bytes) of `offset` within its line.
    pub fn col_of(&self, offset: usize) -> usize {
        let line = self.line_of(offset);
        offset - self.line_starts[line - 1] + 1
    }

    /// Whether byte `offset` falls inside `#[cfg(test)]`/`#[test]` code.
    pub fn is_test(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Rules suppressed at 1-based `line` by a directive on that line or
    /// the line directly above.
    pub fn allowed_rules_at(&self, line: usize) -> Vec<&str> {
        self.directives
            .iter()
            .filter(|d| d.parse_error.is_none() && (d.line == line || d.line + 1 == line))
            .flat_map(|d| d.rules.iter().map(String::as_str))
            .collect()
    }

    /// The raw text of 1-based `line`, without its newline.
    pub fn raw_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.raw.len(), |&next| next);
        self.raw[start..end].trim_end_matches(['\n', '\r'])
    }
}

/// One comment's text (without the `//` / `/*` markers) and start offset.
struct Comment {
    start: usize,
    text: String,
}

/// Byte offsets of `needle` in `hay` at identifier boundaries.
pub(crate) fn find_idents(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + needle.len();
    }
    hits
}

/// Byte offsets at which each line begins (line 1 starts at 0).
fn line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Whether `b` can appear inside a Rust identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Masks comments and literal interiors with spaces, byte-for-byte, and
/// collects comment texts for directive parsing.
fn mask(src: &str) -> (String, Vec<Comment>) {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut i = 0;

    // Pushes `n` bytes from position `i` as blanks, preserving newlines.
    let blank = |out: &mut Vec<u8>, bytes: &[u8], i: usize, n: usize| {
        for &b in &bytes[i..i + n] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();

        // Line comment.
        if b == b'/' && next == Some(b'/') {
            let start = i;
            let mut j = i + 2;
            while j < bytes.len() && bytes[j] != b'\n' {
                j += 1;
            }
            comments.push(Comment {
                start,
                text: src[start + 2..j].to_string(),
            });
            blank(&mut out, bytes, i, j - i);
            i = j;
            continue;
        }

        // Block comment (nested: every `/*` needs its own `*/`).
        if b == b'/' && next == Some(b'*') {
            let start = i;
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            // `j - 2` is only a `*/` delimiter when the comment closed; an
            // unterminated comment runs to EOF and keeps its full text.
            let text_end = if depth == 0 { j - 2 } else { j };
            comments.push(Comment {
                start,
                text: src[(start + 2).min(text_end)..text_end.max(start + 2).min(src.len())]
                    .to_string(),
            });
            blank(&mut out, bytes, i, j - i);
            i = j;
            continue;
        }

        // Raw string / raw byte string: r"..", r#".."#, br#".."#.
        let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
        if !prev_ident && (b == b'r' || (b == b'b' && next == Some(b'r'))) {
            let mut j = if b == b'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                // Scan for the closing quote followed by `hashes` hashes.
                // Backslash is NOT an escape inside raw strings.
                let mut k = j + 1;
                let mut closed = false;
                'scan: while k < bytes.len() {
                    if bytes[k] == b'"' {
                        let mut h = 0;
                        while h < hashes && bytes.get(k + 1 + h) == Some(&b'#') {
                            h += 1;
                        }
                        if h == hashes {
                            k += 1 + hashes;
                            closed = true;
                            break 'scan;
                        }
                    }
                    k += 1;
                }
                // Keep the opening/closing delimiters visible; blank the body.
                // An unterminated raw string (EOF mid-literal) is blanked to
                // the very end so no tail bytes leak into rule matching.
                out.extend_from_slice(&bytes[i..=j]);
                if closed {
                    let close_start = k - (hashes + 1);
                    blank(&mut out, bytes, j + 1, close_start - (j + 1));
                    out.extend_from_slice(&bytes[close_start..k]);
                } else {
                    blank(&mut out, bytes, j + 1, k - (j + 1));
                }
                i = k;
                continue;
            }
            // Not a raw string (e.g. the ident `r` or `br`): fall through.
        }

        // String / byte string literal.
        if b == b'"' || (b == b'b' && next == Some(b'"') && !prev_ident) {
            let quote = if b == b'b' { i + 1 } else { i };
            let mut j = quote + 1;
            let mut closed = false;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        closed = true;
                        break;
                    }
                    _ => j += 1,
                }
            }
            // `\` just before EOF can overshoot the buffer by one.
            let j = j.min(bytes.len());
            out.extend_from_slice(&bytes[i..=quote]);
            if closed {
                blank(&mut out, bytes, quote + 1, j - 1 - (quote + 1));
                out.push(b'"');
            } else {
                // Unterminated at EOF: blank every remaining byte (dropping
                // one would shift all downstream offsets off by one).
                blank(&mut out, bytes, quote + 1, j - (quote + 1));
            }
            i = j;
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' || (b == b'b' && next == Some(b'\'') && !prev_ident) {
            let quote = if b == b'b' { i + 1 } else { i };
            let after = bytes.get(quote + 1).copied();
            let is_lifetime = b != b'b'
                && matches!(after, Some(c) if is_ident_byte(c))
                && after != Some(b'\\')
                && bytes
                    .get(quote + 2)
                    .is_none_or(|&c| is_ident_byte(c) || c != b'\'');
            if is_lifetime {
                out.push(b'\'');
                i += 1;
                continue;
            }
            let mut j = quote + 1;
            let mut closed = false;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => {
                        j += 1;
                        closed = true;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let j = j.min(bytes.len());
            out.extend_from_slice(&bytes[i..=quote]);
            if closed {
                blank(&mut out, bytes, quote + 1, j - 1 - (quote + 1));
                out.push(b'\'');
            } else {
                blank(&mut out, bytes, quote + 1, j - (quote + 1));
            }
            i = j;
            continue;
        }

        out.push(b);
        i += 1;
    }

    let masked = String::from_utf8_lossy(&out).into_owned();
    debug_assert_eq!(masked.len(), src.len(), "masking must preserve length");
    (masked, comments)
}

/// Finds byte ranges of `#[cfg(test)]` / `#[test]`-gated items by brace
/// matching on masked text.
fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0;
        while let Some(pos) = masked[from..].find(marker) {
            let start = from + pos;
            let after = start + marker.len();
            // The gated item ends at the matching `}` of its first brace,
            // or at the first `;` before any brace (e.g. `mod tests;`).
            let mut j = after;
            let mut end = masked.len();
            while j < bytes.len() {
                match bytes[j] {
                    b';' => {
                        end = j + 1;
                        break;
                    }
                    b'{' => {
                        let mut depth = 1usize;
                        let mut k = j + 1;
                        while k < bytes.len() && depth > 0 {
                            match bytes[k] {
                                b'{' => depth += 1,
                                b'}' => depth -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        end = k;
                        break;
                    }
                    _ => j += 1,
                }
            }
            regions.push((start, end));
            from = after;
        }
    }
    regions.sort_unstable();
    regions
}

/// Parses one comment body as a `fei-lint: allow(...)` directive.
///
/// Returns `None` for ordinary comments; returns a [`Directive`] with
/// `parse_error` set when the comment invokes `fei-lint:` but is malformed
/// (so the engine can surface it instead of silently ignoring it).
fn parse_directive(text: &str, line: usize) -> Option<Directive> {
    let rest = text.strip_prefix('!').unwrap_or(text).trim_start();
    let rest = rest.strip_prefix("fei-lint:")?.trim();
    let malformed = |why: &str| {
        Some(Directive {
            line,
            rules: Vec::new(),
            reason: None,
            parse_error: Some(why.to_string()),
        })
    };
    let Some(body) = rest.strip_prefix("allow(") else {
        return malformed("expected `allow(<rule>, reason = \"...\")` after `fei-lint:`");
    };
    let Some(body) = body.strip_suffix(')') else {
        return malformed("unterminated `allow(`: missing closing `)`");
    };
    let mut rules = Vec::new();
    let mut reason = None;
    for part in split_top_level_commas(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let Some(r) = r.strip_prefix('=') else {
                return malformed("expected `reason = \"...\"`");
            };
            let r = r.trim();
            if r.len() < 2 || !r.starts_with('"') || !r.ends_with('"') {
                return malformed("reason must be a double-quoted string");
            }
            let quoted = &r[1..r.len() - 1];
            if quoted.trim().is_empty() {
                return malformed("reason must not be empty");
            }
            reason = Some(quoted.to_string());
        } else if part
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        {
            rules.push(part.to_string());
        } else {
            return malformed("rule names are lowercase kebab-case idents");
        }
    }
    if rules.is_empty() {
        return malformed("directive names no rule");
    }
    if reason.is_none() {
        return malformed("directive is missing `reason = \"...\"`");
    }
    Some(Directive {
        line,
        rules,
        reason,
        parse_error: None,
    })
}

/// Splits on commas that are not inside a double-quoted string.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_comments_and_chars() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet c = 'H'; /* HashMap */ let l: &'a u8;";
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.masked.len(), src.len());
        assert!(!lexed.masked.contains("HashMap"));
        // Code identifiers survive.
        assert!(lexed.masked.contains("let x"));
        assert!(lexed.masked.contains("&'a u8"));
    }

    #[test]
    fn masks_raw_strings() {
        let src = r##"let x = r#"Instant::now() "quoted" inside"#; let y = 1;"##;
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.masked.len(), src.len());
        assert!(!lexed.masked.contains("Instant"));
        assert!(lexed.masked.contains("let y = 1;"));
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lexed = LexedFile::lex(src);
        let unwrap_at = src.find(".unwrap").map_or(0, |p| p);
        assert!(lexed.is_test(unwrap_at));
        assert!(!lexed.is_test(src.find("fn lib").map_or(0, |p| p)));
        assert!(!lexed.is_test(src.find("fn tail").map_or(0, |p| p)));
    }

    #[test]
    fn masks_byte_strings_and_hashed_raw_strings() {
        let src = r###"let a = b"thread_rng"; let b = br#"OsRng"#; let c = r##"panic! "#" inside"##; let tail = 1;"###;
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.masked.len(), src.len());
        for leaked in ["thread_rng", "OsRng", "panic"] {
            assert!(
                !lexed.masked.contains(leaked),
                "{leaked} leaked:\n{}",
                lexed.masked
            );
        }
        assert!(lexed.masked.contains("let tail = 1;"));
    }

    #[test]
    fn nested_block_comments_mask_to_their_true_end() {
        let src = "/* outer /* inner unwrap() */ still comment unwrap() */ let x = y.unwrap();";
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.masked.len(), src.len());
        // Only the code unwrap survives the mask — a non-nesting lexer
        // would end the comment at the first `*/` and leak the second.
        assert_eq!(find_idents(&lexed.masked, "unwrap").len(), 1);
        assert!(lexed.masked.contains("let x = y.unwrap();"));
    }

    #[test]
    fn unterminated_literals_at_eof_preserve_length_and_leak_nothing() {
        // Each input ends mid-literal; masking must neither panic, nor
        // shorten the text, nor let the tail bytes reach rule matching.
        for (src, leaked) in [
            ("let s = \"panic! and on", "panic"),
            ("let s = \"esc \\", "esc"),
            ("let r = r#\"thread_rng() tail", "thread_rng"),
            ("let b = b\"OsRng tail", "OsRng"),
            ("let c = /* unwrap() never closes", "unwrap"),
            ("let c = /* nested /* unwrap() */", "unwrap"),
            ("let c = '\\", "x"),
        ] {
            let lexed = LexedFile::lex(src);
            assert_eq!(lexed.masked.len(), src.len(), "length drift for {src:?}");
            assert!(
                find_idents(&lexed.masked, leaked).is_empty(),
                "{leaked:?} leaked from {src:?}:\n{}",
                lexed.masked
            );
        }
    }

    #[test]
    fn raw_string_closing_guard_is_not_fooled_by_fewer_hashes() {
        // `"#` inside an `r##"…"##` literal is content, not a terminator.
        let src = r###"let x = r##"a "# b"##; let y = SystemTime;"###;
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.masked.len(), src.len());
        // `y = SystemTime` is code: a lexer that closed the raw string at
        // `"#` would have swallowed part of the code after it.
        assert_eq!(find_idents(&lexed.masked, "SystemTime").len(), 1);
    }

    #[test]
    fn directive_parses_rules_and_reason() {
        let src = "// fei-lint: allow(no-panic, float-eq, reason = \"why, exactly\")\nlet x = 1;\n";
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.directives.len(), 1);
        let d = &lexed.directives[0];
        assert_eq!(d.rules, vec!["no-panic", "float-eq"]);
        assert_eq!(d.reason.as_deref(), Some("why, exactly"));
        assert!(d.parse_error.is_none());
        // Applies to its own line and the next.
        assert_eq!(lexed.allowed_rules_at(1), vec!["no-panic", "float-eq"]);
        assert_eq!(lexed.allowed_rules_at(2), vec!["no-panic", "float-eq"]);
        assert!(lexed.allowed_rules_at(3).is_empty());
    }

    #[test]
    fn malformed_directive_is_reported_not_ignored() {
        for bad in [
            "// fei-lint: allow(no-panic)",                // missing reason
            "// fei-lint: allow(, reason = \"r\")",        // no rule
            "// fei-lint: allow(no-panic, reason = \"\")", // empty reason
            "// fei-lint: deny(no-panic)",                 // unknown verb
        ] {
            let lexed = LexedFile::lex(bad);
            assert_eq!(lexed.directives.len(), 1, "{bad}");
            assert!(lexed.directives[0].parse_error.is_some(), "{bad}");
        }
        // An ordinary comment is not a directive at all.
        assert!(LexedFile::lex("// plain comment").directives.is_empty());
    }

    #[test]
    fn line_and_col_mapping() {
        let src = "a\nbb\nccc\n";
        let lexed = LexedFile::lex(src);
        assert_eq!(lexed.line_of(0), 1);
        assert_eq!(lexed.line_of(2), 2);
        assert_eq!(lexed.line_of(5), 3);
        assert_eq!(lexed.col_of(6), 2);
        assert_eq!(lexed.raw_line(2), "bb");
    }
}
