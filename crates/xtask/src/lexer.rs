#![allow(
    clippy::indexing_slicing,
    reason = "the scanner indexes byte offsets it has just bounds-checked"
)]

//! A minimal Rust source scrubber.
//!
//! The build environment has no access to `syn`, so the auditor works on
//! *scrubbed* source text: comments, string literals and char literals are
//! blanked out (replaced by spaces, newlines preserved) so that token-level
//! pattern searches cannot be fooled by `"panic!"` appearing inside a
//! string or a doc comment. Offsets and line numbers survive scrubbing
//! unchanged, which keeps violation reports pointing at real locations.

/// Replaces comments and literals with spaces, preserving length and
/// newlines so byte offsets map 1:1 onto the original source.
pub fn scrub(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                // Line comment (including doc comments): blank to newline.
                while i < bytes.len() && bytes[i] != b'\n' {
                    if let Some(b) = out.get_mut(i) {
                        *b = b' ';
                    }
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment, possibly nested.
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        blank2(&mut out, i);
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        blank2(&mut out, i);
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        blank_keep_newline(&mut out, i, bytes[i]);
                        i += 1;
                    }
                }
            }
            b'"' => i = scrub_string(bytes, &mut out, i),
            b'r' if is_raw_string_start(bytes, i) => i = scrub_raw_string(bytes, &mut out, i),
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                blank_keep_newline(&mut out, i, bytes[i]);
                i = scrub_string(bytes, &mut out, i + 1);
            }
            b'\'' => i = scrub_char(bytes, &mut out, i),
            _ => i += 1,
        }
    }
    // Scrubbing only writes ASCII spaces over ASCII bytes or leaves bytes
    // untouched, except inside comments/strings where multibyte UTF-8 may
    // be partially blanked; repair by lossy conversion (those regions are
    // semantically blank anyway).
    String::from_utf8_lossy(&out).into_owned()
}

fn blank2(out: &mut [u8], i: usize) {
    for k in 0..2 {
        if let Some(b) = out.get_mut(i + k) {
            *b = b' ';
        }
    }
}

fn blank_keep_newline(out: &mut [u8], i: usize, original: u8) {
    if original != b'\n' {
        if let Some(b) = out.get_mut(i) {
            *b = b' ';
        }
    }
}

/// `r"…"`, `r#"…"#`, `br#"…"#` — detect the opener at `i`.
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn scrub_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    // `start` points at the opening quote.
    let mut i = start;
    blank_keep_newline(out, i, bytes[i]);
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                blank_keep_newline(out, i, bytes[i]);
                if let Some(&next) = bytes.get(i + 1) {
                    blank_keep_newline(out, i + 1, next);
                }
                i += 2;
            }
            b'"' => {
                blank_keep_newline(out, i, bytes[i]);
                return i + 1;
            }
            c => {
                blank_keep_newline(out, i, c);
                i += 1;
            }
        }
    }
    i
}

fn scrub_raw_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    // `start` points at `r`. Count `#`s, then scan to `"####`.
    let mut i = start;
    blank_keep_newline(out, i, bytes[i]);
    i += 1;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        blank_keep_newline(out, i, b'#');
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) == Some(&b'"') {
        blank_keep_newline(out, i, b'"');
        i += 1;
    }
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut ok = true;
            for k in 1..=hashes {
                if bytes.get(i + k) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for k in 0..=hashes {
                    blank_keep_newline(out, i + k, b'"');
                }
                return i + hashes + 1;
            }
        }
        blank_keep_newline(out, i, bytes[i]);
        i += 1;
    }
    i
}

fn scrub_char(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    // Distinguish a char literal from a lifetime: `'a'` vs `'a`. A char
    // literal closes with `'` within a few bytes; a lifetime does not.
    // Escapes: `'\n'`, `'\''`, `'\u{…}'`.
    let i = start;
    if bytes.get(i + 1) == Some(&b'\\') {
        // Escaped char literal: scan to the closing quote.
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        let last = j.min(bytes.len().saturating_sub(1));
        for (k, &b) in bytes.iter().enumerate().take(last + 1).skip(i) {
            blank_keep_newline(out, k, b);
        }
        return j + 1;
    }
    if bytes.get(i + 2) == Some(&b'\'') {
        // Simple one-byte char literal `'x'`.
        for (k, &b) in bytes.iter().enumerate().take(i + 3).skip(i) {
            blank_keep_newline(out, k, b);
        }
        return i + 3;
    }
    // Multibyte char literal? Find a close quote within 6 bytes.
    for probe in 2..=6usize {
        if bytes.get(i + probe) == Some(&b'\'') {
            for (k, &b) in bytes.iter().enumerate().take(i + probe + 1).skip(i) {
                blank_keep_newline(out, k, b);
            }
            return i + probe + 1;
        }
    }
    // A lifetime — leave as-is.
    i + 1
}

/// Byte ranges of `#[cfg(test)] mod … { … }` blocks in *scrubbed* source.
///
/// Any number of additional attributes (e.g. `#[allow(…)]`) may sit between
/// the cfg gate and the `mod` keyword. Out-of-line declarations
/// (`#[cfg(test)] mod name;`) contribute no range here — the caller treats
/// the named sibling file as test code instead (see
/// [`out_of_line_test_modules`]).
pub fn cfg_test_ranges(scrubbed: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let bytes = scrubbed.as_bytes();
    let mut search = 0;
    while let Some(pos) = find_from(scrubbed, "#[cfg(test)]", search) {
        search = pos + 1;
        let mut i = pos + "#[cfg(test)]".len();
        // Skip whitespace and further attributes.
        loop {
            while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
                i += 1;
            }
            if bytes.get(i) == Some(&b'#') && bytes.get(i + 1) == Some(&b'[') {
                // Skip a balanced `#[ … ]`.
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        if !scrubbed
            .get(i..)
            .is_some_and(|rest| rest.starts_with("mod ") || rest.starts_with("pub mod "))
        {
            continue; // cfg(test) on a fn/use/etc. — not a module block
        }
        // Find `{` or `;` after the module name.
        while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        if bytes.get(i) != Some(&b'{') {
            continue; // out-of-line module
        }
        let start = pos;
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        ranges.push((start, i + 1));
    }
    ranges
}

/// Module names declared out-of-line under `#[cfg(test)]` (scrubbed source):
/// `#[cfg(test)] … mod name;` — the caller excludes `name.rs` (or
/// `name/mod.rs`) from panic scanning.
pub fn out_of_line_test_modules(scrubbed: &str) -> Vec<String> {
    let mut mods = Vec::new();
    let bytes = scrubbed.as_bytes();
    let mut search = 0;
    while let Some(pos) = find_from(scrubbed, "#[cfg(test)]", search) {
        search = pos + 1;
        let mut i = pos + "#[cfg(test)]".len();
        loop {
            while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
                i += 1;
            }
            if bytes.get(i) == Some(&b'#') && bytes.get(i + 1) == Some(&b'[') {
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        let Some(rest) = scrubbed.get(i..) else {
            continue;
        };
        let rest = rest.strip_prefix("pub ").unwrap_or(rest);
        let Some(rest) = rest.strip_prefix("mod ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let after = rest.get(name.len()..).map_or("", |s| s.trim_start());
        if after.starts_with(';') && !name.is_empty() {
            mods.push(name);
        }
    }
    mods
}

/// Line number (1-based) of a byte offset.
pub fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()
        .iter()
        .take(offset)
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..)?.find(needle).map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let src = "let a = \"panic!\"; // panic!\nlet b = 1; /* unwrap() */\n";
        let s = scrub(src);
        assert!(!s.contains("panic!"));
        assert!(!s.contains("unwrap"));
        assert_eq!(s.len(), src.len());
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let src = "let a = r#\"x.unwrap()\"#; let c = '\\n'; let l: &'static str = \"\";";
        let s = scrub(src);
        assert!(!s.contains("unwrap"));
        assert!(s.contains("static"), "lifetimes survive: {s}");
    }

    #[test]
    fn cfg_test_block_is_found_with_interleaved_attributes() {
        let src = "fn a() {}\n#[cfg(test)]\n#[allow(clippy::panic)]\nmod tests { fn b() { panic!(); } }\nfn c() {}";
        let s = scrub(src);
        let r = cfg_test_ranges(&s);
        assert_eq!(r.len(), 1);
        let (lo, hi) = r[0];
        assert!(src[lo..hi].contains("panic!"));
        assert!(!src[..lo].contains("panic!"));
    }

    #[test]
    fn out_of_line_test_module_is_reported() {
        let src = "#[cfg(test)]\nmod soft_state_tests;\n#[cfg(test)]\nmod inline { }\n";
        let s = scrub(src);
        assert_eq!(out_of_line_test_modules(&s), vec!["soft_state_tests"]);
    }

    #[test]
    fn line_of_counts_from_one() {
        let src = "a\nb\nc";
        assert_eq!(line_of(src, 0), 1);
        assert_eq!(line_of(src, 2), 2);
        assert_eq!(line_of(src, 4), 3);
    }
}
