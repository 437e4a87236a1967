//! The line-oriented scrub view, derived from the token stream.
//!
//! The syntactic rules (R1, R8 and R12) match on *code*, never on
//! comment or string contents, so this
//! module renders the [`crate::lex`] token stream into per-line text with
//! every comment and every string/char-literal body blanked to spaces while
//! preserving the line structure (so findings report real line numbers).
//! Quote characters are kept, so "a string literal starts here" remains
//! visible to rules like R8.
//!
//! The view also records, per line, whether the *comment* text on that line
//! carries R12's `CAST:` justification marker — the one place a rule reads
//! comment contents.

use crate::lex::{lex, Token, TokenKind};

/// One source file after scrubbing.
#[derive(Debug)]
pub struct Scrubbed {
    /// Source lines with comments and literal bodies blanked out.
    pub lines: Vec<String>,
    /// `true` for lines whose comment text contains `CAST:` (rule R12).
    pub cast_comment: Vec<bool>,
}

/// Scrubs `source`: comments and string/char bodies become spaces, everything
/// else is kept verbatim. Newlines are preserved exactly. Implemented as a
/// rendering of the token stream — [`lex`] is the only lexical authority.
pub fn scrub(source: &str) -> Scrubbed {
    scrub_tokens(&lex(source))
}

/// Renders an already-lexed token stream into the scrub view.
pub fn scrub_tokens(tokens: &[Token]) -> Scrubbed {
    let mut sink = Sink::default();
    for token in tokens {
        match token.kind {
            TokenKind::Ws
            | TokenKind::Ident
            | TokenKind::Lifetime
            | TokenKind::Num
            | TokenKind::Punct => sink.verbatim(&token.text),
            TokenKind::LineComment | TokenKind::BlockComment => sink.comment(&token.text),
            TokenKind::Str => sink.quoted(&token.text, '"'),
            TokenKind::Char => sink.quoted(&token.text, '\''),
        }
    }
    sink.finish()
}

/// Accumulates scrubbed lines plus the per-line `CAST:` flags.
#[derive(Default)]
struct Sink {
    lines: Vec<String>,
    cast_comment: Vec<bool>,
    cur: String,
    cur_comment: String,
}

impl Sink {
    fn newline(&mut self) {
        self.cast_comment.push(self.cur_comment.contains("CAST:"));
        self.lines.push(std::mem::take(&mut self.cur));
        self.cur_comment.clear();
    }

    /// Emits token text unchanged (code tokens).
    fn verbatim(&mut self, text: &str) {
        for c in text.chars() {
            if c == '\n' {
                self.newline();
            } else {
                self.cur.push(c);
            }
        }
    }

    /// Blanks a comment token to spaces, collecting its text per line for
    /// the `CAST:` marker.
    fn comment(&mut self, text: &str) {
        for c in text.chars() {
            if c == '\n' {
                self.newline();
            } else {
                self.cur_comment.push(c);
                self.cur.push(' ');
            }
        }
    }

    /// Blanks a string/char literal body, keeping only the opening and
    /// closing delimiter (`quote`) so rules can still see where literals
    /// start and end.
    fn quoted(&mut self, text: &str, quote: char) {
        let chars: Vec<char> = text.chars().collect();
        let open = chars.iter().position(|&c| c == quote);
        // For raw strings the closing quote is followed by the `#`s; for
        // everything else it is the final char (when terminated).
        let close = chars.iter().rposition(|&c| c == quote);
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                self.newline();
            } else if Some(i) == open || (Some(i) == close && close != open) {
                self.cur.push(quote);
            } else {
                self.cur.push(' ');
            }
        }
    }

    fn finish(mut self) -> Scrubbed {
        self.newline();
        Scrubbed {
            lines: self.lines,
            cast_comment: self.cast_comment,
        }
    }
}

/// Byte offsets of every standalone-word occurrence of `word` in `line`
/// (identifier-boundary on both sides).
pub fn word_occurrences(line: &str, word: &str) -> Vec<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        if !line[..start].ends_with(ident) && !line[end..].starts_with(ident) {
            out.push(start);
        }
        from = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let s = scrub("let x = 1; // partial_cmp here\nlet y = 2;");
        assert!(!s.lines[0].contains("partial_cmp"));
        assert!(s.lines[0].contains("let x = 1;"));
        assert_eq!(s.lines[1], "let y = 2;");
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = scrub("a /* one /* two */ still */ b");
        assert_eq!(s.lines[0].trim_start().chars().next(), Some('a'));
        assert!(s.lines[0].contains('b'));
        assert!(!s.lines[0].contains("two"));
        assert!(!s.lines[0].contains("still"));
    }

    #[test]
    fn string_bodies_are_blanked_but_quotes_kept() {
        let s = scrub(r#"call("thread::spawn inside", x)"#);
        assert!(!s.lines[0].contains("thread::spawn"));
        assert!(s.lines[0].contains("call(\""));
        assert!(s.lines[0].contains(", x)"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let s = scrub(r#"let s = "x\"y"; after"#);
        assert!(s.lines[0].contains("after"));
        assert!(!s.lines[0].contains('x'));
        assert!(!s.lines[0].contains('y'));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let s = scrub("let s = r#\"dbg! \"quoted\" inside\"#; tail()");
        assert!(!s.lines[0].contains("dbg!"));
        assert!(s.lines[0].contains("tail()"));
    }

    #[test]
    fn multiline_strings_preserve_line_structure() {
        let s = scrub("let s = \"first\nsecond\";\nafter();");
        assert_eq!(s.lines.len(), 3);
        assert!(!s.lines[0].contains("first"));
        assert!(!s.lines[1].contains("second"));
        assert_eq!(s.lines[2], "after();");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scrub("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(s.lines[0].contains("&'a str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let s = scrub("let c = 'x'; let q = '\\''; done()");
        assert!(s.lines[0].contains("done()"));
        assert!(!s.lines[0].contains('x'));
    }

    #[test]
    fn cast_markers_are_recorded_per_line() {
        let s =
            scrub("// CAST: count < 2^24, exact in f32\nlet a = n as f32;\n/* CAST: block form */");
        assert!(s.cast_comment[0]);
        assert!(!s.cast_comment[1]);
        assert!(s.cast_comment[2]);
        // Markers inside string literals never count.
        let lit = scrub("let s = \"CAST: not a comment\";");
        assert!(!lit.cast_comment[0]);
    }

    #[test]
    fn word_occurrences_respect_boundaries() {
        let line = "sort_by(x); my_sort_by(y); sort_by_key(z)";
        assert_eq!(word_occurrences(line, "sort_by"), vec![0]);
    }
}
