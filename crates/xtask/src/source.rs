//! Lightweight Rust source preprocessing for the lint rules.
//!
//! The rules work on a *stripped* copy of each file: comments and the
//! bodies of string/char literals are blanked out (replaced by spaces)
//! so that a `panic!` mentioned in a doc comment or an error message
//! never counts as a violation, while line numbers and byte offsets stay
//! aligned with the original text. A second pass masks `#[cfg(test)]`
//! items so test modules are exempt from library-code rules.

/// Replaces comments and literal contents with spaces, preserving the
/// exact line structure of `src`.
#[must_use]
pub fn strip(src: &str) -> String {
    scrub(src, false)
}

/// Replaces string/char literal contents with spaces but keeps comments
/// verbatim — the view the stale-allow pass scans, where any surviving
/// suppression tag is necessarily inside a real comment.
#[must_use]
pub fn strip_strings(src: &str) -> String {
    scrub(src, true)
}

fn scrub(src: &str, keep_comments: bool) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    while i < bytes.len() {
        let b = bytes[i];
        let next = bytes.get(i + 1).copied();

        // Line comment.
        if b == b'/' && next == Some(b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(if keep_comments { bytes[i] } else { b' ' });
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if b == b'/' && next == Some(b'*') {
            let mut depth = 1;
            let keep = |c: u8| if keep_comments { c } else { b' ' };
            out.push(keep(b'/'));
            out.push(keep(b'*'));
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.push(keep(b'/'));
                    out.push(keep(b'*'));
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.push(keep(b'*'));
                    out.push(keep(b'/'));
                    i += 2;
                } else {
                    out.push(if bytes[i] == b'\n' {
                        b'\n'
                    } else {
                        keep(bytes[i])
                    });
                    i += 1;
                }
            }
            continue;
        }
        // Raw string r"..." / r#"..."# (optionally b-prefixed).
        if (b == b'r' || (b == b'b' && next == Some(b'r')))
            && is_raw_string_start(bytes, i)
            && !prev_is_ident(bytes, i)
        {
            let start = if b == b'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            while bytes.get(start + hashes) == Some(&b'#') {
                hashes += 1;
            }
            // Emit the prefix as spaces.
            out.extend(std::iter::repeat_n(b' ', start + hashes + 1 - i));
            i = start + hashes + 1; // past the opening quote
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            while i < bytes.len() && !bytes[i..].starts_with(&closer) {
                out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            let closer_len = closer.len().min(bytes.len() - i);
            out.extend(std::iter::repeat_n(b' ', closer_len));
            i += closer_len;
            continue;
        }
        // Plain string "..." (optionally b-prefixed).
        if b == b'"' {
            out.push(b' ');
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    out.push(b' ');
                    i += 1;
                    if i < bytes.len() {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            if i < bytes.len() {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime. Treat as a char literal when it
        // closes within a few bytes ('x', '\n', '\u{..}').
        if b == b'\'' && !prev_is_ident(bytes, i) {
            if let Some(len) = char_literal_len(bytes, i) {
                out.extend(std::iter::repeat_n(b' ', len));
                i += len;
                continue;
            }
        }
        out.push(b);
        i += 1;
    }

    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = if bytes[i] == b'b' { i + 2 } else { i + 1 };
    if bytes.get(i) == Some(&b'b') && bytes.get(i + 1) != Some(&b'r') {
        return false;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Length of a char literal starting at `i`, or `None` for a lifetime.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    // '\...' escapes.
    if bytes.get(i + 1) == Some(&b'\\') {
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then(|| j + 1 - i);
    }
    // 'x' single char.
    if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
        return Some(3);
    }
    None
}

/// Returns, for each line of (already stripped) `src`, whether it lies
/// inside a `#[cfg(test)]` item (the attribute line itself included).
#[must_use]
pub fn test_mask(stripped: &str) -> Vec<bool> {
    let line_count = stripped.lines().count();
    let mut mask = vec![false; line_count];
    let lines: Vec<&str> = stripped.lines().collect();

    let mut l = 0;
    while l < lines.len() {
        if lines[l].contains("#[cfg(test)]") {
            let start = l;
            // Scan forward for the item's opening brace, then match it.
            let mut depth = 0usize;
            let mut opened = false;
            let mut end = l;
            'outer: for (j, line) in lines.iter().enumerate().skip(l) {
                for c in line.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                end = j;
                                break 'outer;
                            }
                        }
                        ';' if !opened => {
                            // `#[cfg(test)] use ...;` — single-line item.
                            end = j;
                            break 'outer;
                        }
                        _ => {}
                    }
                }
                end = j;
            }
            for m in mask.iter_mut().take(end + 1).skip(start) {
                *m = true;
            }
            l = end + 1;
        } else {
            l += 1;
        }
    }
    mask
}

/// Already-stripped source with all whitespace removed, plus a map from
/// byte position back to the 1-based source line. Rules scan this to
/// survive rustfmt splitting an expression across lines (`.expect(`
/// after a chained call, a `HashMap<K,\n V>` type, ...).
#[derive(Debug)]
pub struct Normalized {
    /// The stripped source with every whitespace char removed.
    pub text: String,
    line_of: Vec<usize>,
}

impl Normalized {
    /// Builds the normalized view of (already stripped) `src`.
    #[must_use]
    pub fn new(stripped: &str) -> Self {
        let mut text = String::with_capacity(stripped.len());
        let mut line_of = Vec::with_capacity(stripped.len());
        for (idx, line) in stripped.lines().enumerate() {
            for ch in line.chars() {
                if !ch.is_whitespace() {
                    text.push(ch);
                    for _ in 0..ch.len_utf8() {
                        line_of.push(idx + 1);
                    }
                }
            }
        }
        Self { text, line_of }
    }

    /// The 1-based source line a byte position of `text` came from.
    #[must_use]
    pub fn line_at(&self, pos: usize) -> usize {
        self.line_of.get(pos).copied().unwrap_or(1)
    }

    /// All `(byte position, 1-based line)` occurrences of `pat`.
    #[must_use]
    pub fn find_all(&self, pat: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(at) = self.text[from..].find(pat) {
            let pos = from + at;
            out.push((pos, self.line_at(pos)));
            from = pos + 1;
        }
        out
    }

    /// True when the byte before `pos` continues an identifier — used to
    /// reject `FxHashMap<` when scanning for `HashMap<`.
    #[must_use]
    pub fn prev_is_ident(&self, pos: usize) -> bool {
        pos > 0
            && self
                .text
                .as_bytes()
                .get(pos - 1)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    }
}

/// Neutralizes every suppression tag (`lint:allow(`, `det:boundary`,
/// `float:reassoc-ok`) so a rule re-run reports what it *would* flag —
/// the input to the suppressed counters and the stale-allow pass. Line
/// structure is preserved; `lock:rank` markers are left alone because
/// they are compliance, not suppression.
#[must_use]
pub fn disarm(src: &str) -> String {
    src.replace("lint:allow(", "lint:disarmed(")
        .replace("det:boundary", "det:disarmed")
        .replace("float:reassoc-ok", "float:disarmed")
}

/// The 0-based line carrying `marker` for a finding on line `idx`:
/// the line itself, or any line of the contiguous block of standalone
/// `//` comments directly above it (markers often share a wrapped
/// two-line comment).
#[must_use]
pub fn marker_line(raw_lines: &[&str], idx: usize, marker: &str) -> Option<usize> {
    if raw_lines.get(idx).is_some_and(|l| l.contains(marker)) {
        return Some(idx);
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = raw_lines.get(i)?;
        if !line.trim_start().starts_with("//") {
            return None;
        }
        if line.contains(marker) {
            return Some(i);
        }
    }
    None
}

/// True when line `idx` (0-based) carries `marker` on the same line or
/// in the comment block directly above (the placement grammar shared by
/// `det:boundary` and `float:reassoc-ok`).
#[must_use]
pub fn has_marker(raw_lines: &[&str], idx: usize, marker: &str) -> bool {
    marker_line(raw_lines, idx, marker).is_some()
}

/// Scans a raw line for `marker` missing its mandatory justification
/// (same grammar as [`allow_missing_reason`]: at least 8 characters
/// after the dash).
#[must_use]
pub fn marker_missing_reason(raw_line: &str, marker: &str) -> bool {
    let Some(pos) = raw_line.find(marker) else {
        return false;
    };
    let rest =
        raw_line[pos + marker.len()..].trim_start_matches([' ', '\u{2014}', '-', ':', '\u{2013}']);
    rest.trim().len() < 8
}

/// True when line `idx` (0-based) of `raw_lines` is allowlisted for
/// `rule` — a `lint:allow(<rule>)` comment on the same line or the line
/// directly above.
#[must_use]
pub fn is_allowed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let tag = format!("lint:allow({rule})");
    if raw_lines.get(idx).is_some_and(|l| l.contains(&tag)) {
        return true;
    }
    // A standalone allow comment directly above also counts; an *inline*
    // allow on the previous line must not spill over to this one.
    idx > 0
        && raw_lines
            .get(idx - 1)
            .is_some_and(|l| l.trim_start().starts_with("//") && l.contains(&tag))
}

/// Scans a raw line for an allowlist entry of `rule` that is missing its
/// mandatory justification. Returns the offending entry's text.
#[must_use]
pub fn allow_missing_reason(raw_line: &str, rule: &str) -> bool {
    let tag = format!("lint:allow({rule})");
    let Some(pos) = raw_line.find(&tag) else {
        return false;
    };
    let rest =
        raw_line[pos + tag.len()..].trim_start_matches([' ', '\u{2014}', '-', ':', '\u{2013}']);
    rest.trim().len() < 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip("let x = 1; // panic!\n/* unwrap() */ let y;");
        assert!(!s.contains("panic!"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let x = 1;"));
        assert!(s.contains("let y;"));
    }

    #[test]
    fn strips_nested_block_comments() {
        let s = strip("/* a /* nested */ still comment */ code");
        assert!(!s.contains("nested"));
        assert!(s.contains("code"));
    }

    #[test]
    fn strips_string_contents_preserving_lines() {
        let src = "let m = \"do not panic!\";\nnext_line";
        let s = strip(src);
        assert!(!s.contains("panic!"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strips_raw_strings() {
        let s = strip(r##"let m = r#"has unwrap() inside"#; done"##);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("done"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = strip("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; }");
        assert!(s.contains("fn f<'a>(x: &'a str)"), "{s}");
        assert!(!s.contains('y'));
    }

    #[test]
    fn escaped_quote_in_string() {
        let s = strip(r#"let m = "quote \" unwrap()"; after"#);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("after"));
    }

    #[test]
    fn masks_test_modules() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let mask = test_mask(&strip(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allowlist_same_and_previous_line() {
        let lines = [
            "// lint:allow(unit-cast) — display percentage only",
            "let a = b.get() as f64;",
            "let c = d.get() as f64; // lint:allow(unit-cast) — display only",
            "let e = f.get() as f64;",
        ];
        assert!(is_allowed(&lines, 1, "unit-cast"));
        assert!(is_allowed(&lines, 2, "unit-cast"));
        assert!(!is_allowed(&lines, 3, "unit-cast"));
        assert!(!is_allowed(&lines, 1, "lock-order"), "rule name must match");
    }

    #[test]
    fn normalized_joins_split_expressions() {
        let stripped = strip("let x = opt\n    .unwrap();\n");
        let norm = Normalized::new(&stripped);
        let hits = norm.find_all(".unwrap()");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 2, "finding maps to the line the match starts on");
        assert!(norm.prev_is_ident(hits[0].0), "`opt` precedes the dot");
    }

    #[test]
    fn disarm_neutralizes_suppressions_but_not_ranks() {
        let src = "// lint:allow(unit-cast) — x\n// det:boundary — y\n// float:reassoc-ok — z\n// lock:rank(10, a.b)\n";
        let out = disarm(src);
        assert!(!out.contains("lint:allow("));
        assert!(!out.contains("det:boundary"));
        assert!(!out.contains("float:reassoc-ok"));
        assert!(
            out.contains("lock:rank(10, a.b)"),
            "ranks are compliance, not suppression"
        );
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_strings_keeps_comments_blanks_literals() {
        let out =
            strip_strings("let s = \"lint:allow(unit-cast)\"; // lint:allow(unit-cast) — ok\n");
        let first = out.find("lint:allow").expect("comment tag survives");
        assert!(out[first..].starts_with("lint:allow(unit-cast) — ok"));
        assert_eq!(
            out.matches("lint:allow").count(),
            1,
            "string-literal tag is blanked"
        );
    }

    #[test]
    fn marker_line_walks_wrapped_comment_blocks() {
        let lines = [
            "// det:boundary — wall-time for the run manifest,",
            "// never feeds cycle accounting.",
            "let t = Instant::now();",
            "let u = Instant::now();",
        ];
        assert_eq!(marker_line(&lines, 2, "det:boundary"), Some(0));
        assert!(has_marker(&lines, 2, "det:boundary"));
        assert!(
            !has_marker(&lines, 3, "det:boundary"),
            "a code line breaks the comment-block walk"
        );
    }

    #[test]
    fn allowlist_requires_reason() {
        assert!(allow_missing_reason(
            "// lint:allow(unit-cast)",
            "unit-cast"
        ));
        assert!(allow_missing_reason(
            "// lint:allow(unit-cast) — ",
            "unit-cast"
        ));
        assert!(!allow_missing_reason(
            "// lint:allow(unit-cast) — display percentage only",
            "unit-cast"
        ));
    }
}
