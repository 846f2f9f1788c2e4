//! Line-oriented lexer for MiniF77.
//!
//! The dialect is a structured subset of Fortran 77 with some relaxations:
//!
//! * free-form source (no column-6 continuation; a trailing `&` continues
//!   the statement on the next line),
//! * comments start with `C`/`c`/`*` in column 1 or `!` anywhere,
//! * keywords and identifiers are case-insensitive (normalized to upper),
//! * both symbolic (`<=`) and dotted (`.LE.`) relational operators,
//! * `DOUBLE PRECISION` is folded into a single token.

use crate::diag::{Error, Result};
use crate::ident::Interner;
use crate::loc::Span;
use crate::token::{Tok, Token};

/// Tokenize an entire source buffer.
///
/// Produces a `Tok::Newline` at every statement boundary and a final
/// `Tok::Eof`. Labels (an integer in leading position of a line) are lexed
/// as `Tok::Label` so the parser can attach them to statements.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    /// True until the first non-blank token of the current line is lexed.
    at_line_start: bool,
    tokens: Vec<Token>,
    /// Upper-cased spelling of the word being lexed, reused across words.
    word: String,
    /// One shared [`Ident`] per distinct spelling in this source.
    names: Interner,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            at_line_start: true,
            tokens: Vec::new(),
            word: String::new(),
            names: Interner::default(),
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32, self.line)
    }

    fn push(&mut self, kind: Tok, start: usize) {
        let span = self.span_from(start);
        self.tokens.push(Token { kind, span });
    }

    fn emit_newline(&mut self) {
        // Collapse consecutive newlines; never start the stream with one.
        if matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(Tok::Newline) | None
        ) {
            return;
        }
        let start = self.pos;
        self.push(Tok::Newline, start);
    }

    fn run(mut self) -> Result<Vec<Token>> {
        while self.pos < self.src.len() {
            let c = self.peek();
            match c {
                b'\n' => {
                    self.bump();
                    // A trailing `&` just before the newline means continue.
                    if let Some(Token {
                        kind: Tok::Ident(_),
                        ..
                    }) = self.tokens.last()
                    {
                        // fallthrough: `&` is consumed separately below
                    }
                    self.emit_newline();
                    self.line += 1;
                    self.at_line_start = true;
                }
                b'\r' | b' ' | b'\t' => {
                    self.bump();
                }
                b'&' => {
                    // Continuation: swallow the `&`, the newline, and any
                    // leading blanks of the next line.
                    self.bump();
                    while matches!(self.peek(), b' ' | b'\t' | b'\r') {
                        self.bump();
                    }
                    if self.peek() == b'\n' {
                        self.bump();
                        self.line += 1;
                    }
                }
                b'!' => self.skip_to_eol(),
                b'C' | b'c' | b'*' if self.at_line_start_comment() => self.skip_to_eol(),
                b'0'..=b'9' => self.number()?,
                b'.' => self.dot_or_real()?,
                b'\'' => self.string()?,
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.word(),
                _ => self.punct()?,
            }
        }
        self.emit_newline();
        let start = self.pos;
        self.push(Tok::Eof, start);
        Ok(self.tokens)
    }

    /// `C`/`c`/`*` introduce a comment only in true column 1; `*` elsewhere
    /// is multiplication.
    fn at_line_start_comment(&self) -> bool {
        if !self.at_line_start {
            return false;
        }
        // Must be the very first column of the line (classic F77 comment).
        self.pos == 0 || self.src[self.pos - 1] == b'\n'
    }

    fn skip_to_eol(&mut self) {
        while self.pos < self.src.len() && self.peek() != b'\n' {
            self.bump();
        }
    }

    /// Upper-case `src[start..pos]` into the reused word buffer.
    fn load_word(&mut self, start: usize) {
        self.word.clear();
        self.word.extend(
            self.src[start..self.pos]
                .iter()
                .map(|b| b.to_ascii_uppercase() as char),
        );
    }

    fn word(&mut self) {
        let start = self.pos;
        while matches!(self.peek(), b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        self.load_word(start);
        self.at_line_start = false;
        // `DOUBLE PRECISION` is two words; peek ahead for `PRECISION`.
        if self.word == "DOUBLE" {
            let save = self.pos;
            while matches!(self.peek(), b' ' | b'\t') {
                self.bump();
            }
            let wstart = self.pos;
            while self.peek().is_ascii_alphabetic() {
                self.bump();
            }
            if self.src[wstart..self.pos].eq_ignore_ascii_case(b"PRECISION") {
                self.push(Tok::DoublePrecision, start);
                return;
            }
            self.pos = save;
        }
        match Tok::keyword(&self.word) {
            Some(k) => self.push(k, start),
            None => {
                let id = self.names.intern(&self.word);
                self.push(Tok::Ident(id), start)
            }
        }
    }

    fn number(&mut self) -> Result<()> {
        let start = self.pos;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        // An integer in leading position of a line is a statement label,
        // unless it is immediately part of an expression context. F77 labels
        // are columns 1-5; we accept any leading integer followed by a
        // statement keyword or identifier.
        let mut is_real = false;
        // Fractional part. `1.AND.` must not eat the dot, but `2.D0`/`1.E5`
        // must: treat `.` as a decimal point unless it starts a dotted
        // operator (a letter sequence that is not an exponent marker).
        let p3 = *self.src.get(self.pos + 2).unwrap_or(&0);
        let dot_is_decimal = self.peek() == b'.'
            && (!self.peek2().is_ascii_alphabetic()
                || (matches!(self.peek2(), b'D' | b'd' | b'E' | b'e')
                    && (p3.is_ascii_digit() || matches!(p3, b'+' | b'-'))));
        if dot_is_decimal {
            is_real = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        // Exponent: E, D (double), optionally signed.
        if matches!(self.peek(), b'E' | b'e' | b'D' | b'd')
            && (self.peek2().is_ascii_digit() || matches!(self.peek2(), b'+' | b'-'))
        {
            is_real = true;
            self.bump();
            if matches!(self.peek(), b'+' | b'-') {
                self.bump();
            }
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_real {
            let norm = text.replace(['D', 'd'], "E");
            let val: f64 = norm.parse().map_err(|_| {
                Error::lex(format!("bad real literal '{text}'"), self.span_from(start))
            })?;
            self.at_line_start = false;
            self.push(Tok::Real(val), start);
        } else {
            let val: i64 = text.parse().map_err(|_| {
                Error::lex(
                    format!("bad integer literal '{text}'"),
                    self.span_from(start),
                )
            })?;
            if self.at_line_start {
                self.push(Tok::Label(val as u32), start);
            } else {
                self.push(Tok::Int(val), start);
            }
            self.at_line_start = false;
            return Ok(());
        }
        Ok(())
    }

    /// A leading `.` is either a dotted operator (`.GT.`) or a real literal
    /// (`.5`).
    fn dot_or_real(&mut self) -> Result<()> {
        let start = self.pos;
        if self.peek2().is_ascii_digit() {
            self.bump(); // '.'
            while self.peek().is_ascii_digit() {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            let val: f64 = text.parse().map_err(|_| {
                Error::lex(format!("bad real literal '{text}'"), self.span_from(start))
            })?;
            self.at_line_start = false;
            self.push(Tok::Real(val), start);
            return Ok(());
        }
        self.bump(); // '.'
        let wstart = self.pos;
        while self.peek().is_ascii_alphabetic() {
            self.bump();
        }
        self.load_word(wstart);
        if self.peek() != b'.' {
            return Err(Error::lex(
                format!("unterminated dotted operator '.{}'", self.word),
                self.span_from(start),
            ));
        }
        self.bump(); // trailing '.'
        let tok = match self.word.as_str() {
            "EQ" => Tok::Eq,
            "NE" => Tok::Ne,
            "LT" => Tok::Lt,
            "LE" => Tok::Le,
            "GT" => Tok::Gt,
            "GE" => Tok::Ge,
            "AND" => Tok::And,
            "OR" => Tok::Or,
            "NOT" => Tok::Not,
            "TRUE" => Tok::True,
            "FALSE" => Tok::False,
            _ => {
                return Err(Error::lex(
                    format!("unknown dotted operator '.{}.'", self.word),
                    self.span_from(start),
                ))
            }
        };
        self.at_line_start = false;
        self.push(tok, start);
        Ok(())
    }

    fn string(&mut self) -> Result<()> {
        let start = self.pos;
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                0 | b'\n' => {
                    return Err(Error::lex(
                        "unterminated string literal",
                        self.span_from(start),
                    ))
                }
                b'\'' => {
                    self.bump();
                    // Doubled quote is an escaped quote.
                    if self.peek() == b'\'' {
                        out.push('\'');
                        self.bump();
                    } else {
                        break;
                    }
                }
                c => {
                    out.push(c as char);
                    self.bump();
                }
            }
        }
        self.at_line_start = false;
        self.push(Tok::Str(out), start);
        Ok(())
    }

    fn punct(&mut self) -> Result<()> {
        let start = self.pos;
        let c = self.bump();
        self.at_line_start = false;
        let tok = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b':' => Tok::Colon,
            b'/' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Ne
                } else {
                    Tok::Slash
                }
            }
            b'*' => {
                if self.peek() == b'*' {
                    self.bump();
                    Tok::StarStar
                } else {
                    Tok::Star
                }
            }
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Eq
                } else {
                    Tok::Assign
                }
            }
            b'<' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            _ => {
                return Err(Error::lex(
                    format!("unexpected character '{}'", c as char),
                    self.span_from(start),
                ))
            }
        };
        self.push(tok, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        let toks = kinds("X = Y + 1\n");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("X".into()),
                Tok::Assign,
                Tok::Ident("Y".into()),
                Tok::Plus,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn labels_only_at_line_start() {
        let toks = kinds("200 CONTINUE\nI = 200\n");
        assert_eq!(toks[0], Tok::Label(200));
        assert!(toks.contains(&Tok::Int(200)));
    }

    #[test]
    fn double_exponent_literals() {
        let toks = kinds("A = 2.D0\nB = 1.5E-3\n  C2 = .5\n");
        assert!(toks.contains(&Tok::Real(2.0)));
        assert!(toks.contains(&Tok::Real(1.5e-3)));
        assert!(toks.contains(&Tok::Real(0.5)));
    }

    #[test]
    fn dotted_and_symbolic_relops() {
        assert!(kinds("IF (A .GT. B) X = 1\n").contains(&Tok::Gt));
        assert!(kinds("IF (A >= B) X = 1\n").contains(&Tok::Ge));
        assert!(kinds("IF (A == B) X = 1\n").contains(&Tok::Eq));
        assert!(kinds("IF (A /= B) X = 1\n").contains(&Tok::Ne));
    }

    #[test]
    fn integer_dot_operator_boundary() {
        // `1.AND.` must lex as Int(1), And — not as a real literal.
        let toks = kinds("L = I.AND.J\n");
        assert!(toks.contains(&Tok::And));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("C full line comment\n      X = 1 ! trailing\n* star comment\n");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("X".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn star_comment_only_in_column_one() {
        let toks = kinds("Y = A * B\n");
        assert!(toks.contains(&Tok::Star));
    }

    #[test]
    fn continuation_joins_lines() {
        let toks = kinds("X = A + &\n    B\n");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("X".into()),
                Tok::Assign,
                Tok::Ident("A".into()),
                Tok::Plus,
                Tok::Ident("B".into()),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn double_precision_two_words() {
        let toks = kinds("DOUBLE PRECISION X\n");
        assert_eq!(toks[0], Tok::DoublePrecision);
    }

    #[test]
    fn string_with_escaped_quote() {
        let toks = kinds("STOP 'IT''S SINGULAR'\n");
        assert!(toks.contains(&Tok::Str("IT'S SINGULAR".into())));
    }

    #[test]
    fn case_insensitive_keywords() {
        let toks = kinds("do i = 1, 10\nenddo\n");
        assert_eq!(toks[0], Tok::Do);
        assert!(toks.contains(&Tok::EndDo));
    }

    #[test]
    fn power_operator() {
        let toks = kinds("Y = X**2\n");
        assert!(toks.contains(&Tok::StarStar));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("S = 'oops\n").is_err());
    }

    #[test]
    fn unknown_dotted_op_is_error() {
        assert!(lex("X = A .FOO. B\n").is_err());
    }

    #[test]
    fn lines_tracked() {
        let toks = lex("X = 1\nY = 2\n").unwrap();
        let y = toks
            .iter()
            .find(|t| t.kind == Tok::Ident("Y".into()))
            .unwrap();
        assert_eq!(y.span.line, 2);
    }
}
