//! A hand-rolled Rust lexer.
//!
//! The token stream is the single lexical authority for every rule: the
//! line-oriented scrub view ([`crate::scan`]) is *derived* from it, and the
//! cross-file rules (R9–R11) walk it directly. A full parser is
//! unnecessary — and unavailable: the build environment is offline, so `syn`
//! cannot be pulled in — but the lexer must get the lexical grammar right:
//! nested block comments, raw strings with arbitrary `#` counts, byte and C
//! strings, raw identifiers, char literals vs. lifetimes, and escapes.
//!
//! **Round-trip contract.** Every token stores its exact source text;
//! concatenating `token.text` over the stream reproduces the input
//! byte-identically. The property suite asserts this for every first-party
//! file in the workspace, so a lexer bug cannot silently hide code from the
//! rules.

/// What a token is. Keywords are [`TokenKind::Ident`]s — the rules match on
/// text, and keyword-ness never matters lexically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (may contain newlines).
    Ws,
    /// `// …` up to (not including) the newline. Doc comments included.
    LineComment,
    /// `/* … */`, nesting-aware; may span lines.
    BlockComment,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A lifetime (`'a`, `'static`, `'_`) — the quote plus the name.
    Lifetime,
    /// Any string literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
    /// `c"…"`, `cr"…"`.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character. Multi-char operators arrive as
    /// consecutive `Punct` tokens; the rules match the sequences they need.
    Punct,
}

/// One lexed token: kind, exact source text, and the 1-based line its first
/// character sits on.
#[derive(Debug, Clone)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// The exact source slice, byte-for-byte.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// Lexes `source` into a token stream whose concatenated text reproduces the
/// input exactly. Malformed input (unterminated strings or comments) never
/// panics: the open construct simply extends to end of file.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Emits the token covering `[start, self.i)`; `line` is the line the
    /// token started on (the lexer's line counter has already advanced past
    /// any newlines inside it).
    fn emit(&mut self, kind: TokenKind, start: usize, line: usize) {
        let text: String = self.chars[start..self.i].iter().collect();
        self.out.push(Token { kind, text, line });
    }

    /// Consumes one char, tracking the line counter.
    fn bump(&mut self) {
        if self.chars[self.i] == '\n' {
            self.line += 1;
        }
        self.i += 1;
    }

    fn run(mut self) -> Vec<Token> {
        while self.i < self.chars.len() {
            let start = self.i;
            let line = self.line;
            let c = self.chars[self.i];
            match c {
                _ if c.is_whitespace() => {
                    while self.peek(0).is_some_and(char::is_whitespace) {
                        self.bump();
                    }
                    self.emit(TokenKind::Ws, start, line);
                }
                '/' if self.peek(1) == Some('/') => {
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                    self.emit(TokenKind::LineComment, start, line);
                }
                '/' if self.peek(1) == Some('*') => {
                    self.block_comment(start, line);
                }
                '"' => {
                    self.bump();
                    self.string_body(0);
                    self.emit(TokenKind::Str, start, line);
                }
                'r' | 'b' | 'c' => match literal_prefix(&self.chars, self.i) {
                    Prefix::RawStr { prefix_len, hashes } => {
                        for _ in 0..=prefix_len {
                            self.bump(); // prefix chars + opening quote
                        }
                        self.raw_string_body(hashes);
                        self.emit(TokenKind::Str, start, line);
                    }
                    Prefix::Str { prefix_len } => {
                        for _ in 0..=prefix_len {
                            self.bump();
                        }
                        self.string_body(0);
                        self.emit(TokenKind::Str, start, line);
                    }
                    Prefix::Char => {
                        self.bump(); // b
                        self.bump(); // '
                        self.char_body();
                        self.emit(TokenKind::Char, start, line);
                    }
                    Prefix::RawIdent => {
                        self.bump(); // r
                        self.bump(); // #
                        self.ident_tail();
                        self.emit(TokenKind::Ident, start, line);
                    }
                    Prefix::None => {
                        self.ident_tail();
                        self.emit(TokenKind::Ident, start, line);
                    }
                },
                '\'' => {
                    // Lifetime (`'a`, `'_`) or char literal (`'x'`, `'\n'`)?
                    // A lifetime is `'` + ident char *not* followed by a
                    // closing `'`.
                    let is_lifetime = matches!(self.peek(1), Some(n) if n.is_alphabetic() || n == '_')
                        && self.peek(2) != Some('\'');
                    self.bump(); // '
                    if is_lifetime {
                        self.ident_tail();
                        self.emit(TokenKind::Lifetime, start, line);
                    } else {
                        self.char_body();
                        self.emit(TokenKind::Char, start, line);
                    }
                }
                _ if c.is_alphabetic() || c == '_' => {
                    self.ident_tail();
                    self.emit(TokenKind::Ident, start, line);
                }
                _ if c.is_ascii_digit() => {
                    self.number_tail();
                    self.emit(TokenKind::Num, start, line);
                }
                _ => {
                    self.bump();
                    self.emit(TokenKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    fn block_comment(&mut self, start: usize, line: usize) {
        let mut depth = 0u32;
        while self.i < self.chars.len() {
            if self.chars[self.i] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.chars[self.i] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
            }
        }
        self.emit(TokenKind::BlockComment, start, line);
    }

    /// Consumes a (non-raw) string body up to and including the closing
    /// quote; the opening quote has already been consumed.
    fn string_body(&mut self, _hashes: u32) {
        while let Some(c) = self.peek(0) {
            if c == '\\' && self.peek(1).is_some() {
                self.bump();
                self.bump();
            } else if c == '"' {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a raw string body up to and including `"` + `hashes` `#`s;
    /// the opening quote has already been consumed.
    fn raw_string_body(&mut self, hashes: u32) {
        while let Some(c) = self.peek(0) {
            if c == '"' && (1..=hashes as usize).all(|k| self.peek(k) == Some('#')) {
                for _ in 0..=hashes as usize {
                    self.bump();
                }
                return;
            }
            self.bump();
        }
    }

    /// Consumes a char-literal body up to and including the closing `'`;
    /// the opening quote has already been consumed.
    fn char_body(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\\' && self.peek(1).is_some() {
                self.bump();
                self.bump();
            } else if c == '\'' {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    fn ident_tail(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            self.bump();
        }
    }

    /// Consumes a numeric literal: digits, `_`, type suffixes, hex/bin/octal
    /// bodies, a decimal point followed by a digit, and an exponent sign in
    /// decimal floats (`1e-3`). Ranges (`0..n`) and method calls on literals
    /// (`1.max(x)`) stop at the dot because no digit follows it.
    fn number_tail(&mut self) {
        let start = self.i;
        let radix_prefix =
            self.peek(1).is_some_and(|c| matches!(c, 'x' | 'b' | 'o')) && self.chars[self.i] == '0';
        while let Some(c) = self.peek(0) {
            // Continuation cases: digit / `_` / type-suffix letter; a decimal
            // point followed by a digit; an exponent sign inside a decimal
            // float (`1e-3`).
            let continues = c.is_alphanumeric()
                || c == '_'
                || (c == '.'
                    && self.i > start
                    && self.peek(1).is_some_and(|n| n.is_ascii_digit())
                    && !radix_prefix)
                || ((c == '+' || c == '-')
                    && !radix_prefix
                    && self.i > start
                    && matches!(self.chars[self.i - 1], 'e' | 'E')
                    && self.peek(1).is_some_and(|n| n.is_ascii_digit()));
            if !continues {
                break;
            }
            self.bump();
        }
    }
}

enum Prefix {
    /// `r"`, `r#"`, `br"`, `cr#"` … — prefix_len chars before the quote.
    RawStr { prefix_len: usize, hashes: u32 },
    /// `b"`, `c"` — prefix_len chars before the quote.
    Str { prefix_len: usize },
    /// `b'`.
    Char,
    /// `r#ident`.
    RawIdent,
    /// A plain identifier starting with r/b/c.
    None,
}

/// Classifies a possible literal prefix at `i` (which holds `r`, `b`, or
/// `c`). The caller has already ruled out the previous char being part of an
/// identifier — `lex` only lands here from the top of the token loop, where
/// the previous token ended.
fn literal_prefix(chars: &[char], i: usize) -> Prefix {
    let c = chars[i];
    let mut j = i + 1;
    // b / c may be followed by r for br"…" / cr"…".
    let has_r = c != 'r' && chars.get(j) == Some(&'r');
    if has_r {
        j += 1;
    }
    if c == 'r' || has_r {
        let mut hashes = 0u32;
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j) == Some(&'"') {
            return Prefix::RawStr {
                prefix_len: j - i,
                hashes,
            };
        }
        if c == 'r' && hashes >= 1 {
            // r#ident — raw identifier (only a single # is legal, but the
            // lexer is lenient; idents absorb what follows).
            if chars
                .get(i + 2)
                .is_some_and(|c| c.is_alphabetic() || *c == '_')
            {
                return Prefix::RawIdent;
            }
        }
        return Prefix::None;
    }
    // Plain b"…" / b'…' / c"…".
    match chars.get(i + 1) {
        Some('"') => Prefix::Str { prefix_len: 1 },
        Some('\'') if c == 'b' => Prefix::Char,
        _ => Prefix::None,
    }
}

/// Reconstructs the source from a token stream. Inverse of [`lex`] by
/// construction; the round-trip property test pins it against every
/// first-party file.
pub fn reconstruct(tokens: &[Token]) -> String {
    tokens.iter().map(|t| t.text.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn round_trips_basic_source() {
        for src in [
            "fn main() { println!(\"hi {}\", 1 + 2); }\n",
            "let s = r#\"raw \"quoted\" body\"#; // trailing\n",
            "let c = 'x'; let lt: &'static str = \"y\";\n",
            "/* outer /* nested */ still */ let b = b\"bytes\\\"\";\n",
            "let f = 1.5e-3_f64; let r = 0..10; let h = 0xFF_u8;\n",
            "let r#match = b'q'; let l = '\\'';\n",
            "// unterminated string at eof\nlet s = \"open",
        ] {
            assert_eq!(reconstruct(&lex(src)), src, "round-trip failed: {src:?}");
        }
    }

    #[test]
    fn classifies_strings_and_comments() {
        let toks = kinds("let s = r#\"a\"# + \"b\"; // done");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t == "r#\"a\"#"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t == "\"b\""));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::LineComment && t == "// done"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "'x'"));
    }

    #[test]
    fn numbers_absorb_suffixes_floats_and_exponents() {
        let toks = kinds("let a = 1_000u64; let b = 2.5e-3; let c = 0..4;");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, vec!["1_000u64", "2.5e-3", "0", "4"]);
    }

    #[test]
    fn lines_are_tracked_across_multiline_tokens() {
        let toks = lex("a\n/* two\nlines */\nb");
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
        let comment = toks
            .iter()
            .find(|t| t.kind == TokenKind::BlockComment)
            .unwrap();
        assert_eq!(comment.line, 2);
    }

    #[test]
    fn raw_identifiers_stay_idents() {
        let toks = kinds("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#type"));
    }
}
