//! The annotation language of paper Fig. 12.
//!
//! A small C-flavored DSL in which developers summarize a subroutine's side
//! effects and loop structure:
//!
//! ```text
//! subroutine MATMLT(M1, M2, M3, L, M, N) {
//!   dimension M1[L,M], M2[M,N], M3[L,N];
//!   M3 = 0.0;
//!   do (JN = 1:N)
//!     do (JM = 1:M)
//!       do (JL = 1:L)
//!         M3[JL,JN] = M3[JL,JN] + M1[JL,JM] * M2[JM,JN];
//! }
//!
//! subroutine FSMP(ID, IDE) {
//!   XY = unknown(XYG[*, ICOND[1, ID]], NSYMM);
//!   IRECT = IEGEOM[ID];
//!   if (IDEDON[IDE] == 0) {
//!     IDEDON[IDE] = 1;
//!     FE[*, IDE] = unknown(WTDET, NNPED);
//!   }
//!   (NDX, NDY, WTDET) = unknown(IRECT, XY, NNPED);
//! }
//! ```
//!
//! Array references use brackets and accept Fortran-90 section notation
//! (`*`, `lo:hi`); `unknown(...)`/`unique(...)` are the two abstraction
//! operators (§III-A). Parsing lowers directly into the `fir` IR: sections
//! become [`Expr::Section`], the operators become [`Expr::Unknown`] /
//! [`Expr::Unique`] with ids allocated deterministically per subroutine (so
//! every inlined copy of an annotation denotes the *same* opaque function),
//! and `do` loops get [`LoopId`]s in the callee's annotation namespace.

use fir::ast::*;
use fir::diag::{Error, Result};
use fir::ident::Interner;
use fir::loc::Span;
use std::collections::BTreeMap;

/// A parsed annotation for one subroutine.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotSub {
    /// Subroutine name (upper-cased).
    pub name: Ident,
    /// Formal parameter names, in order.
    pub params: Vec<Ident>,
    /// Declared array shapes (`dimension M1[L,M]`), for params and globals.
    pub dims: BTreeMap<Ident, Vec<Dim>>,
    /// Declared types (`int K1;`).
    pub types: BTreeMap<Ident, Type>,
    /// The summary body, already in `fir` IR form.
    pub body: Block,
}

impl AnnotSub {
    /// True if `name` is one of this annotation's formal parameters.
    pub fn is_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p == name)
    }
}

/// A collection of annotations, keyed by subroutine name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotRegistry {
    /// Parsed annotations.
    pub subs: BTreeMap<Ident, AnnotSub>,
}

impl AnnotRegistry {
    /// Parse a whole annotation file. Blank text (empty or only
    /// whitespace) is the empty registry.
    pub fn parse(src: &str) -> Result<AnnotRegistry> {
        if src.trim().is_empty() {
            return Ok(AnnotRegistry::default());
        }
        let toks = lex(src)?;
        let mut p = P {
            toks,
            pos: 0,
            last_span: Span::SYNTH,
            op_counter: 0,
            loop_counter: 0,
            sub: Ident::default(),
            idents: Vec::new(),
            dims: Vec::new(),
            stmts: Vec::new(),
            exprs: Vec::new(),
            secs: Vec::new(),
        };
        let mut reg = AnnotRegistry::default();
        while !p.at(&T::Eof) {
            let sub = p.subroutine()?;
            reg.subs.insert(sub.name.clone(), sub);
        }
        Ok(reg)
    }

    /// Merge another registry into this one (later entries win).
    pub fn merge(&mut self, other: AnnotRegistry) {
        self.subs.extend(other.subs);
    }

    /// Look up the annotation for a subroutine.
    pub fn get(&self, name: &str) -> Option<&AnnotSub> {
        self.subs.get(name)
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum T {
    Id(Ident),
    Int(i64),
    Real(f64),
    LBrace,
    RBrace,
    LBrack,
    RBrack,
    LParen,
    RParen,
    Comma,
    Semi,
    Colon,
    Assign,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

/// Tokens are paired with their source [`Span`] so every parser
/// diagnostic can point at the offending annotation line.
fn lex(src: &str) -> Result<Vec<(T, Span)>> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out: Vec<(T, Span)> = Vec::new();
    let mut line = 1u32;
    // Upper-cased word buffer and one shared `Ident` per distinct spelling,
    // so a name allocates once per annotation source.
    let mut word = String::new();
    let mut names = Interner::default();
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                word.clear();
                word.extend(b[start..i].iter().map(|c| c.to_ascii_uppercase() as char));
                let id = names.intern(&word);
                out.push((T::Id(id), Span::new(start as u32, i as u32, line)));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_real = false;
                if i < b.len()
                    && b[i] == b'.'
                    && (i + 1 >= b.len()
                        || b[i + 1].is_ascii_digit()
                        || !b[i + 1].is_ascii_alphabetic())
                {
                    is_real = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < b.len() && matches!(b[i], b'e' | b'E' | b'd' | b'D') {
                    let mut j = i + 1;
                    if j < b.len() && matches!(b[j], b'+' | b'-') {
                        j += 1;
                    }
                    if j < b.len() && b[j].is_ascii_digit() {
                        is_real = true;
                        i = j;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = std::str::from_utf8(&b[start..i]).unwrap();
                let span = Span::new(start as u32, i as u32, line);
                if is_real {
                    let norm = text.replace(['D', 'd'], "E");
                    out.push((
                        T::Real(
                            norm.parse()
                                .map_err(|_| Error::lex(format!("bad number '{text}'"), span))?,
                        ),
                        span,
                    ));
                } else {
                    out.push((
                        T::Int(
                            text.parse()
                                .map_err(|_| Error::lex(format!("bad number '{text}'"), span))?,
                        ),
                        span,
                    ));
                }
            }
            _ => {
                let two = if i + 1 < b.len() {
                    &b[i..i + 2]
                } else {
                    &b[i..i + 1]
                };
                let (tok, n) = match two {
                    b"==" => (T::EqEq, 2),
                    b"!=" => (T::Ne, 2),
                    b"<=" => (T::Le, 2),
                    b">=" => (T::Ge, 2),
                    b"&&" => (T::AndAnd, 2),
                    b"||" => (T::OrOr, 2),
                    _ => match c {
                        b'{' => (T::LBrace, 1),
                        b'}' => (T::RBrace, 1),
                        b'[' => (T::LBrack, 1),
                        b']' => (T::RBrack, 1),
                        b'(' => (T::LParen, 1),
                        b')' => (T::RParen, 1),
                        b',' => (T::Comma, 1),
                        b';' => (T::Semi, 1),
                        b':' => (T::Colon, 1),
                        b'=' => (T::Assign, 1),
                        b'<' => (T::Lt, 1),
                        b'>' => (T::Gt, 1),
                        b'+' => (T::Plus, 1),
                        b'-' => (T::Minus, 1),
                        b'*' => (T::Star, 1),
                        b'/' => (T::Slash, 1),
                        b'%' => (T::Percent, 1),
                        b'!' => (T::Bang, 1),
                        b'.' => {
                            // `.5` style real
                            let start = i;
                            i += 1;
                            while i < b.len() && b[i].is_ascii_digit() {
                                i += 1;
                            }
                            let text = std::str::from_utf8(&b[start..i]).unwrap();
                            let span = Span::new(start as u32, i as u32, line);
                            out.push((
                                T::Real(text.parse().map_err(|_| {
                                    Error::lex(format!("bad number '{text}'"), span)
                                })?),
                                span,
                            ));
                            continue;
                        }
                        _ => {
                            return Err(Error::lex(
                                format!("unexpected character '{}'", c as char),
                                Span::new(i as u32, i as u32 + 1, line),
                            ))
                        }
                    },
                };
                out.push((tok, Span::new(i as u32, (i + n) as u32, line)));
                i += n;
            }
        }
    }
    out.push((T::Eof, Span::new(b.len() as u32, b.len() as u32, line)));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser (lowers directly to fir IR)
// ---------------------------------------------------------------------------

struct P {
    toks: Vec<(T, Span)>,
    pos: usize,
    /// Span of the most recently consumed token (error anchor for
    /// diagnostics raised after a `bump`).
    last_span: Span,
    /// Allocator for unknown/unique operator ids, per subroutine.
    op_counter: u32,
    /// Allocator for annotation loop ids, per subroutine.
    loop_counter: u32,
    sub: Ident,
    // Work stacks that build every list at its exact length, as in
    // `fir`'s parser: a list pushes its items above a mark and ends with
    // `drain(mark..).collect()`, one allocation of exactly its length.
    idents: Vec<Ident>,
    dims: Vec<Dim>,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    secs: Vec<SecRange>,
}

impl P {
    fn peek(&self) -> &T {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn at(&self, t: &T) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> T {
        let (t, span) = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        self.last_span = span;
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &T) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: T) -> Result<()> {
        if self.at(&t) {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(
                format!("annotation: expected {t:?}, found {:?}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn ident(&mut self) -> Result<Ident> {
        match self.bump() {
            T::Id(s) => Ok(s),
            other => Err(Error::parse(
                format!("annotation: expected identifier, found {other:?}"),
                self.last_span,
            )),
        }
    }

    fn subroutine(&mut self) -> Result<AnnotSub> {
        match self.bump() {
            T::Id(kw) if kw == "SUBROUTINE" => {}
            other => {
                return Err(Error::parse(
                    format!("annotation: expected 'subroutine', found {other:?}"),
                    self.last_span,
                ))
            }
        }
        let name = self.ident()?;
        self.sub = name.clone();
        self.op_counter = 0;
        self.loop_counter = 0;
        let mark = self.idents.len();
        self.expect(T::LParen)?;
        if !self.eat(&T::RParen) {
            loop {
                let param = self.ident()?;
                self.idents.push(param);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(T::RParen)?;
        }
        let params = self.idents.drain(mark..).collect();
        self.expect(T::LBrace)?;
        let mut dims = BTreeMap::new();
        let mut types = BTreeMap::new();
        let body_mark = self.stmts.len();
        while !self.eat(&T::RBrace) {
            if let T::Id(word) = self.peek().clone() {
                match word.as_str() {
                    "DIMENSION" => {
                        self.bump();
                        loop {
                            let n = self.ident()?;
                            self.expect(T::LBrack)?;
                            let mark = self.dims.len();
                            loop {
                                let dim = if self.eat(&T::Star) {
                                    Dim::Assumed
                                } else {
                                    Dim::Extent(self.expr()?)
                                };
                                self.dims.push(dim);
                                if !self.eat(&T::Comma) {
                                    break;
                                }
                            }
                            self.expect(T::RBrack)?;
                            dims.insert(n, self.dims.drain(mark..).collect());
                            if !self.eat(&T::Comma) {
                                break;
                            }
                        }
                        self.expect(T::Semi)?;
                        continue;
                    }
                    "INT" | "INTEGER" | "REAL" | "DOUBLE" | "LOGICAL" => {
                        self.bump();
                        let ty = match word.as_str() {
                            "INT" | "INTEGER" => Type::Integer,
                            "REAL" => Type::Real,
                            "DOUBLE" => Type::Double,
                            _ => Type::Logical,
                        };
                        loop {
                            let n = self.ident()?;
                            types.insert(n, ty);
                            if !self.eat(&T::Comma) {
                                break;
                            }
                        }
                        self.expect(T::Semi)?;
                        continue;
                    }
                    _ => {}
                }
            }
            self.stmt()?;
        }
        Ok(AnnotSub {
            name,
            params,
            dims,
            types,
            body: self.stmts.drain(body_mark..).collect(),
        })
    }

    fn block_or_stmt(&mut self) -> Result<Block> {
        let mark = self.stmts.len();
        if self.eat(&T::LBrace) {
            while !self.eat(&T::RBrace) {
                self.stmt()?;
            }
        } else {
            self.stmt()?;
        }
        Ok(self.stmts.drain(mark..).collect())
    }

    /// Parse one source-level statement onto the statement stack; it may
    /// lower to several IR statements (a multi-assignment expands to one
    /// assign per target).
    fn stmt(&mut self) -> Result<()> {
        if let T::Id(word) = self.peek().clone() {
            match word.as_str() {
                "IF" => {
                    self.bump();
                    self.expect(T::LParen)?;
                    let cond = self.expr()?;
                    self.expect(T::RParen)?;
                    let then_blk = self.block_or_stmt()?;
                    let else_blk = if matches!(self.peek(), T::Id(w) if w == "ELSE") {
                        self.bump();
                        self.block_or_stmt()?
                    } else {
                        vec![]
                    };
                    self.stmts.push(Stmt::synth(StmtKind::If {
                        cond,
                        then_blk,
                        else_blk,
                    }));
                    return Ok(());
                }
                "DO" => {
                    self.bump();
                    self.expect(T::LParen)?;
                    let var = self.ident()?;
                    self.expect(T::Assign)?;
                    let lo = self.expr()?;
                    self.expect(T::Colon)?;
                    let hi = self.expr()?;
                    let step = if self.eat(&T::Colon) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(T::RParen)?;
                    self.loop_counter += 1;
                    let id = LoopId::new(self.sub.clone(), LoopId::ANNOT_BASE + self.loop_counter);
                    let body = self.block_or_stmt()?;
                    self.stmts.push(Stmt::synth(StmtKind::Do(Box::new(DoLoop {
                        id,
                        var,
                        lo,
                        hi,
                        step,
                        body,
                        directive: None,
                    }))));
                    return Ok(());
                }
                "RETURN" => {
                    self.bump();
                    if !self.at(&T::Semi) {
                        let _ = self.expr()?; // returned value is documentation only
                    }
                    self.expect(T::Semi)?;
                    self.stmts.push(Stmt::synth(StmtKind::Return));
                    return Ok(());
                }
                _ => {}
            }
        }
        // Assignment: lhs or (lhs, lhs, ...) = rhs ;
        if self.eat(&T::LParen) {
            let mut lhss = Vec::new();
            loop {
                lhss.push(self.lvalue()?);
                if !self.eat(&T::Comma) {
                    break;
                }
            }
            self.expect(T::RParen)?;
            self.expect(T::Assign)?;
            let rhs = self.expr()?;
            self.expect(T::Semi)?;
            // Multi-assignment from one opaque operator: each target gets
            // its own operator id (arbitrary independent functions of the
            // same operands), mirroring the paper's
            // `(NDX, NDY, WTDET) = unknown(..)`. The assignments are emitted
            // flat so every write is unconditional for the kill analysis.
            for (k, lhs) in lhss.into_iter().enumerate() {
                let rhs_k = match &rhs {
                    Expr::Unknown(_, args) if k > 0 => {
                        self.op_counter += 1;
                        Expr::Unknown(self.op_counter, args.clone())
                    }
                    other => other.clone(),
                };
                self.stmts
                    .push(Stmt::synth(StmtKind::Assign { lhs, rhs: rhs_k }));
            }
            return Ok(());
        }
        let lhs = self.lvalue()?;
        self.expect(T::Assign)?;
        let rhs = self.expr()?;
        self.expect(T::Semi)?;
        self.stmts.push(Stmt::synth(StmtKind::Assign { lhs, rhs }));
        Ok(())
    }

    fn lvalue(&mut self) -> Result<Expr> {
        let name = self.ident()?;
        if self.eat(&T::LBrack) {
            self.bracket_ref(name)
        } else {
            Ok(Expr::Var(name))
        }
    }

    /// The rest of a bracket reference `name[...]` after its `[`: an
    /// all-point reference is an `Index`; anything with a section becomes
    /// a `Section`.
    fn bracket_ref(&mut self, name: Ident) -> Result<Expr> {
        let mark = self.secs.len();
        loop {
            let sec = if self.eat(&T::Star) {
                SecRange::Full
            } else {
                let lo = self.expr()?;
                if self.eat(&T::Colon) {
                    let hi = self.expr()?;
                    let step = if self.eat(&T::Colon) {
                        Some(Box::new(self.expr()?))
                    } else {
                        None
                    };
                    SecRange::Range {
                        lo: Some(Box::new(lo)),
                        hi: Some(Box::new(hi)),
                        step,
                    }
                } else {
                    SecRange::At(lo)
                }
            };
            self.secs.push(sec);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(T::RBrack)?;
        let all_points = self.secs[mark..]
            .iter()
            .all(|s| matches!(s, SecRange::At(_)));
        let secs = self.secs.drain(mark..);
        Ok(if all_points {
            let subs = secs
                .map(|s| match s {
                    SecRange::At(e) => e,
                    _ => unreachable!(),
                })
                .collect();
            Expr::Index(name, subs)
        } else {
            Expr::Section(name, secs.collect())
        })
    }

    // Expression precedence: || < && < ! < relational < +- < */% < unary- < primary
    fn expr(&mut self) -> Result<Expr> {
        let mut l = self.and_expr()?;
        while self.eat(&T::OrOr) {
            let r = self.and_expr()?;
            l = Expr::bin(BinOp::Or, l, r);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut l = self.not_expr()?;
        while self.eat(&T::AndAnd) {
            let r = self.not_expr()?;
            l = Expr::bin(BinOp::And, l, r);
        }
        Ok(l)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat(&T::Bang) {
            let e = self.not_expr()?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.rel_expr()
    }

    fn rel_expr(&mut self) -> Result<Expr> {
        let l = self.add_expr()?;
        let op = match self.peek() {
            T::EqEq => BinOp::Eq,
            T::Ne => BinOp::Ne,
            T::Lt => BinOp::Lt,
            T::Le => BinOp::Le,
            T::Gt => BinOp::Gt,
            T::Ge => BinOp::Ge,
            _ => return Ok(l),
        };
        self.bump();
        let r = self.add_expr()?;
        Ok(Expr::bin(op, l, r))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut l = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                T::Plus => BinOp::Add,
                T::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            l = Expr::bin(op, l, r);
        }
        Ok(l)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut l = self.unary()?;
        loop {
            match self.peek() {
                T::Star => {
                    self.bump();
                    let r = self.unary()?;
                    l = Expr::bin(BinOp::Mul, l, r);
                }
                T::Slash => {
                    self.bump();
                    let r = self.unary()?;
                    l = Expr::bin(BinOp::Div, l, r);
                }
                T::Percent => {
                    self.bump();
                    let r = self.unary()?;
                    l = Expr::Intrinsic(Intrinsic::Mod, vec![l, r]);
                }
                _ => break,
            }
        }
        Ok(l)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&T::Minus) {
            let e = self.unary()?;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        if self.eat(&T::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            T::Int(v) => Ok(Expr::Int(v)),
            T::Real(x) => Ok(Expr::Real(R64(x))),
            T::LParen => {
                let e = self.expr()?;
                self.expect(T::RParen)?;
                Ok(e)
            }
            T::Id(name) => {
                let name_span = self.last_span;
                if self.eat(&T::LBrack) {
                    return self.bracket_ref(name);
                }
                if self.eat(&T::LParen) {
                    let mark = self.exprs.len();
                    if !self.eat(&T::RParen) {
                        loop {
                            let arg = self.expr()?;
                            self.exprs.push(arg);
                            if !self.eat(&T::Comma) {
                                break;
                            }
                        }
                        self.expect(T::RParen)?;
                    }
                    let args = self.exprs.drain(mark..).collect();
                    return Ok(match name.as_str() {
                        "UNKNOWN" => {
                            self.op_counter += 1;
                            Expr::Unknown(self.op_counter, args)
                        }
                        "UNIQUE" => {
                            self.op_counter += 1;
                            Expr::Unique(self.op_counter, args)
                        }
                        _ => match Intrinsic::from_name(&name) {
                            Some(i) => Expr::Intrinsic(i, args),
                            None => {
                                return Err(Error::parse(
                                    format!("annotation: unknown function '{name}'"),
                                    name_span,
                                ))
                            }
                        },
                    });
                }
                Ok(Expr::Var(name))
            }
            other => Err(Error::parse(
                format!("annotation: unexpected {other:?}"),
                self.last_span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATMLT: &str = "
subroutine MATMLT(M1, M2, M3, L, M, N) {
  dimension M1[L,M], M2[M,N], M3[L,N];
  M3 = 0.0;
  do (JN = 1:N)
    do (JM = 1:M)
      do (JL = 1:L)
        M3[JL,JN] = M3[JL,JN] + M1[JL,JM] * M2[JM,JN];
}
";

    #[test]
    fn blank_text_is_the_empty_registry() {
        for blank in ["", "  ", "\n\t \n"] {
            assert_eq!(
                AnnotRegistry::parse(blank).unwrap(),
                AnnotRegistry::default()
            );
        }
    }

    #[test]
    fn parses_matmlt() {
        let reg = AnnotRegistry::parse(MATMLT).unwrap();
        let sub = reg.get("MATMLT").unwrap();
        assert_eq!(sub.params, vec!["M1", "M2", "M3", "L", "M", "N"]);
        assert_eq!(sub.dims["M1"].len(), 2);
        assert_eq!(sub.body.len(), 2); // whole-array assign + do nest
        match &sub.body[1].kind {
            StmtKind::Do(d) => {
                assert_eq!(d.var, "JN");
                assert!(d.id.is_annotation());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_and_unique_get_stable_ids() {
        let src = "
subroutine F(ID) {
  A[ID] = unknown(B[ID], C);
  D[unique(ID)] = 1.0;
}
";
        let r1 = AnnotRegistry::parse(src).unwrap();
        let r2 = AnnotRegistry::parse(src).unwrap();
        assert_eq!(r1, r2, "ids must be deterministic");
        let sub = r1.get("F").unwrap();
        let mut ids = Vec::new();
        for s in &sub.body {
            if let StmtKind::Assign { lhs, rhs } = &s.kind {
                for e in [lhs, rhs] {
                    e.walk(&mut |n| match n {
                        Expr::Unknown(id, _) | Expr::Unique(id, _) => ids.push(*id),
                        _ => {}
                    });
                }
            }
        }
        ids.sort();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn sections_and_full_dims() {
        let src = "
subroutine G(IDE) {
  FE[*, IDE] = unknown(WTDET, NNPED);
  XY[1:2, 1:NNPED] = 0.0;
}
";
        let sub = AnnotRegistry::parse(src).unwrap().subs.remove("G").unwrap();
        match &sub.body[0].kind {
            StmtKind::Assign {
                lhs: Expr::Section(n, secs),
                ..
            } => {
                assert_eq!(n, "FE");
                assert!(matches!(secs[0], SecRange::Full));
                assert!(matches!(secs[1], SecRange::At(_)));
            }
            other => panic!("{other:?}"),
        }
        match &sub.body[1].kind {
            StmtKind::Assign {
                lhs: Expr::Section(_, secs),
                ..
            } => {
                assert!(matches!(secs[0], SecRange::Range { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_assign_expands() {
        let src = "
subroutine H(ID) {
  (NDX, NDY, WTDET) = unknown(IRECT, XY);
}
";
        let sub = AnnotRegistry::parse(src).unwrap().subs.remove("H").unwrap();
        // Lowered flat: three unconditional assigns with distinct unknown
        // ids (kill analysis needs the writes unguarded).
        assert_eq!(sub.body.len(), 3);
        let mut ids = std::collections::BTreeSet::new();
        for s in &sub.body {
            if let StmtKind::Assign {
                rhs: Expr::Unknown(id, _),
                ..
            } = &s.kind
            {
                ids.insert(*id);
            }
        }
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn if_else_and_conditions() {
        let src = "
subroutine K(IDE) {
  if (IDEDON[IDE] == 0) {
    IDEDON[IDE] = 1;
  } else {
    ISTRES = 0;
  }
}
";
        let sub = AnnotRegistry::parse(src).unwrap().subs.remove("K").unwrap();
        match &sub.body[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 1);
                assert_eq!(else_blk.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type_decls_and_return() {
        let src = "
subroutine L(X) {
  int K1, K2;
  K1 = X;
  return;
}
";
        let sub = AnnotRegistry::parse(src).unwrap().subs.remove("L").unwrap();
        assert_eq!(sub.types["K1"], Type::Integer);
        assert!(matches!(sub.body.last().unwrap().kind, StmtKind::Return));
    }

    #[test]
    fn comments_are_ignored() {
        let src = "
// a leading comment
subroutine M(A) { # trailing style
  A[1] = 0.0; // done
}
";
        assert!(AnnotRegistry::parse(src).is_ok());
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(AnnotRegistry::parse("subroutine N(A) { A[1] = frobnicate(2); }").is_err());
    }

    #[test]
    fn parse_errors_are_located() {
        let err =
            AnnotRegistry::parse("subroutine N(A) {\n  A[1] = frobnicate(2);\n}").unwrap_err();
        assert!(!err.span.is_synthetic());
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = AnnotRegistry::parse("subroutine P(A) {\n  A[1] = ;\n}").unwrap_err();
        assert!(!err.span.is_synthetic());
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = AnnotRegistry::parse("subroutine Q(A) {\n  A[1 = 0.0;\n}").unwrap_err();
        assert!(!err.span.is_synthetic());
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn do_with_step() {
        let src = "subroutine S(N) { do (I = 1:N:2) A[I] = 0.0; }";
        let sub = AnnotRegistry::parse(src).unwrap().subs.remove("S").unwrap();
        match &sub.body[0].kind {
            StmtKind::Do(d) => assert_eq!(d.step, Some(Expr::int(2))),
            other => panic!("{other:?}"),
        }
    }
}
