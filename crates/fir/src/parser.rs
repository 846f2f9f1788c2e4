//! Recursive-descent parser for MiniF77.
//!
//! Produces a structured [`Program`]: classic labeled `DO`/`CONTINUE` loops
//! (including *shared* terminal labels, as in the paper's Fig. 2 where two
//! nested `DO 200` loops end at one `200 CONTINUE`) are turned into nested
//! [`DoLoop`] nodes, so no downstream pass ever sees a label-driven control
//! flow graph.
//!
//! Every `DO` loop is assigned a [`LoopId`] — `(unit name, pre-order index)`
//! — at parse time. This is the identity used for the paper's Table II loop
//! accounting; all later transformations preserve it.

use crate::ast::*;
use crate::diag::{Error, Result};
use crate::lexer::lex;
use crate::loc::Span;
use crate::token::{Tok, Token};

/// Deepest expression nesting [`parse`] accepts: a statement's expression
/// is level 1, and each enclosing parenthesis, argument or subscript list,
/// unary operator or exponent adds one. Deeper input is a located parse
/// error instead of a native-stack overflow in this recursive-descent
/// parser or in the recursive passes after it.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete MiniF77 source file into a [`Program`].
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// Parse a single statement block (used by tests and the annotation lowerer
/// for small fixtures). The block is parsed in the context of a synthetic
/// unit named `unit`.
pub fn parse_body(unit: &str, src: &str) -> Result<Block> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    p.unit_name = unit.into();
    let body = p.block(&[Tok::Eof])?;
    Ok(body)
}

/// The parser builds every list of the tree at its exact length. Each
/// element type has one work stack: a list notes the stack's length as its
/// mark, pushes its items (a nested list pushes above the mark and drains
/// its own items first), and ends with `drain(mark..).collect()`, one
/// allocation of exactly the list's length with no growth reallocations.
struct Parser {
    toks: Vec<Token>,
    pos: usize,
    units: Vec<ProcUnit>,
    idents: Vec<Ident>,
    decls: Vec<Decl>,
    vars: Vec<VarDecl>,
    dims: Vec<Dim>,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    unit_name: Ident,
    loop_counter: u32,
    /// Target labels of enclosing labeled DO loops (innermost last).
    do_stack: Vec<u32>,
    /// Set when a shared terminal label has been consumed by the innermost
    /// loop and outer loops with the same target must also close.
    pending_close: Option<u32>,
    /// Current expression nesting level (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Self {
        Parser {
            toks,
            pos: 0,
            units: Vec::new(),
            idents: Vec::new(),
            decls: Vec::new(),
            vars: Vec::new(),
            dims: Vec::new(),
            stmts: Vec::new(),
            exprs: Vec::new(),
            unit_name: Ident::default(),
            loop_counter: 0,
            do_stack: Vec::new(),
            pending_close: None,
            depth: 0,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.toks[self.pos.min(self.toks.len() - 1)].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].kind.clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: Tok) -> Result<()> {
        if self.peek() == &want {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected {}, found {}", want, self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Ident> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(Error::parse(
                format!("expected identifier, found {other}"),
                self.span(),
            )),
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn end_of_stmt(&mut self) -> Result<()> {
        match self.peek() {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(Error::parse(
                format!("expected end of statement, found {other}"),
                self.span(),
            )),
        }
    }

    fn fresh_loop_id(&mut self) -> LoopId {
        self.loop_counter += 1;
        LoopId::new(self.unit_name.clone(), self.loop_counter)
    }

    // ----- program structure ------------------------------------------------

    fn program(mut self) -> Result<Program> {
        loop {
            self.skip_newlines();
            if matches!(self.peek(), Tok::Eof) {
                break;
            }
            let unit = self.unit()?;
            // Two units of one name are a link error in Fortran; accepting
            // them would leave each consumer to pick its own winner.
            if self.units.iter().any(|u| u.name == unit.name) {
                return Err(Error::resolve(
                    format!("duplicate unit name {}", unit.name),
                    unit.span,
                ));
            }
            self.units.push(unit);
        }
        Ok(Program {
            units: self.units.drain(..).collect(),
        })
    }

    fn unit(&mut self) -> Result<ProcUnit> {
        let span = self.span();
        let (kind, name, params) = match self.bump() {
            Tok::Program => {
                let name = self.expect_ident()?;
                self.end_of_stmt()?;
                (UnitKind::Program, name, vec![])
            }
            Tok::Subroutine => {
                let name = self.expect_ident()?;
                let mark = self.idents.len();
                if self.eat(&Tok::LParen) && !self.eat(&Tok::RParen) {
                    loop {
                        let param = self.expect_ident()?;
                        self.idents.push(param);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::RParen)?;
                }
                self.end_of_stmt()?;
                let params = self.idents.drain(mark..).collect();
                (UnitKind::Subroutine, name, params)
            }
            other => {
                return Err(Error::parse(
                    format!("expected PROGRAM or SUBROUTINE, found {other}"),
                    span,
                ))
            }
        };

        self.unit_name = name.clone();
        self.loop_counter = 0;

        // Declarations come first; the declaration section ends at the first
        // executable statement.
        let mark = self.decls.len();
        loop {
            self.skip_newlines();
            match self.peek() {
                Tok::Integer | Tok::Real_ | Tok::DoublePrecision | Tok::Logical => {
                    self.type_decl()?
                }
                Tok::Dimension => self.dimension_decl()?,
                Tok::Common => self.common_decl()?,
                Tok::Parameter => self.parameter_decl()?,
                _ => break,
            }
        }
        let decls = self.decls.drain(mark..).collect();

        let body = self.block(&[Tok::End])?;
        self.expect(Tok::End)?;
        // `END` may be followed by the unit kind/name; skip to end of line.
        while !matches!(self.peek(), Tok::Newline | Tok::Eof) {
            self.bump();
        }
        self.end_of_stmt()?;

        Ok(ProcUnit {
            kind,
            name,
            params,
            decls,
            body,
            span,
        })
    }

    fn type_decl(&mut self) -> Result<()> {
        let ty = match self.bump() {
            Tok::Integer => Type::Integer,
            Tok::Real_ => Type::Real,
            Tok::DoublePrecision => Type::Double,
            Tok::Logical => Type::Logical,
            _ => unreachable!(),
        };
        self.var_list(Some(ty))
    }

    fn dimension_decl(&mut self) -> Result<()> {
        self.expect(Tok::Dimension)?;
        self.var_list(None)
    }

    /// The comma-separated entries of a type or `DIMENSION` statement: one
    /// entry is a `Decl::Var`, several are one anonymous `Decl::Common`
    /// group (empty block name) that the printer writes back as one line.
    fn var_list(&mut self, ty: Option<Type>) -> Result<()> {
        let mark = self.vars.len();
        loop {
            let var = self.decl_entry(ty)?;
            self.vars.push(var);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.end_of_stmt()?;
        let decl = if self.vars.len() == mark + 1 {
            Decl::Var(self.vars.pop().expect("one entry above the mark"))
        } else {
            Decl::Common {
                block: Ident::default(),
                vars: self.vars.drain(mark..).collect(),
            }
        };
        self.decls.push(decl);
        Ok(())
    }

    fn decl_entry(&mut self, ty: Option<Type>) -> Result<VarDecl> {
        let name = self.expect_ident()?;
        let mark = self.dims.len();
        if self.eat(&Tok::LParen) {
            loop {
                let dim = if self.eat(&Tok::Star) {
                    Dim::Assumed
                } else {
                    Dim::Extent(self.expr()?)
                };
                self.dims.push(dim);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let dims = self.dims.drain(mark..).collect();
        Ok(VarDecl { name, ty, dims })
    }

    fn common_decl(&mut self) -> Result<()> {
        self.expect(Tok::Common)?;
        let mut blocks = 0;
        while self.eat(&Tok::Slash) {
            let block = self.expect_ident()?;
            self.expect(Tok::Slash)?;
            let mark = self.vars.len();
            loop {
                let var = self.decl_entry(None)?;
                self.vars.push(var);
                if !self.eat(&Tok::Comma) {
                    break;
                }
                // A following `/` starts the next block in the same statement.
                if matches!(self.peek(), Tok::Slash) {
                    break;
                }
            }
            let vars = self.vars.drain(mark..).collect();
            self.decls.push(Decl::Common { block, vars });
            blocks += 1;
        }
        self.end_of_stmt()?;
        if blocks == 0 {
            return Err(Error::parse("COMMON requires /block/ name", self.span()));
        }
        Ok(())
    }

    fn parameter_decl(&mut self) -> Result<()> {
        self.expect(Tok::Parameter)?;
        self.expect(Tok::LParen)?;
        loop {
            let name = self.expect_ident()?;
            self.expect(Tok::Assign)?;
            let value = self.expr()?;
            self.decls.push(Decl::Param { name, value });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        self.end_of_stmt()
    }

    // ----- statements -------------------------------------------------------

    /// Parse statements until one of `terminators` (or a shared-label close)
    /// is seen. Terminator tokens are *not* consumed.
    fn block(&mut self, terminators: &[Tok]) -> Result<Block> {
        let mark = self.stmts.len();
        loop {
            self.skip_newlines();

            // A shared DO-terminal label consumed deeper in the nest forces
            // every enclosing loop with the same target to close too.
            if let Some(l) = self.pending_close {
                if self.do_stack.contains(&l) {
                    break;
                }
                self.pending_close = None;
            }

            let t = self.peek().clone();
            if terminators.contains(&t) || matches!(t, Tok::Eof) {
                break;
            }
            // `END IF` / `END DO` as two words.
            if matches!(t, Tok::End) {
                match self.peek2() {
                    Tok::If => {
                        if terminators.contains(&Tok::EndIf) {
                            break;
                        }
                    }
                    Tok::Do => {
                        if terminators.contains(&Tok::EndDo) {
                            break;
                        }
                    }
                    _ => {
                        if terminators.contains(&Tok::End) {
                            break;
                        }
                    }
                }
                if terminators.contains(&Tok::End) && !matches!(self.peek2(), Tok::If | Tok::Do) {
                    break;
                }
            }
            if matches!(t, Tok::Else | Tok::ElseIf | Tok::EndIf | Tok::EndDo)
                && !terminators.contains(&t)
            {
                return Err(Error::parse(format!("unexpected {t}"), self.span()));
            }

            // Leading label.
            let label = if let Tok::Label(n) = self.peek() {
                let n = *n;
                self.bump();
                Some(n)
            } else {
                None
            };

            // Terminal statement of one or more labeled DO loops?
            if let Some(l) = label {
                if self.do_stack.last() == Some(&l) {
                    let stmt = self.stmt(Some(l))?;
                    // The terminal statement executes inside the innermost
                    // loop; a bare CONTINUE is dropped (it is a no-op and the
                    // printer re-emits ENDDO form).
                    if !matches!(stmt.kind, StmtKind::Continue) {
                        self.stmts.push(stmt);
                    }
                    self.pending_close = Some(l);
                    break;
                }
            }

            let stmt = self.stmt(label)?;
            self.stmts.push(stmt);
        }
        Ok(self.stmts.drain(mark..).collect())
    }

    fn stmt(&mut self, label: Option<u32>) -> Result<Stmt> {
        let span = self.span();
        let kind = match self.peek().clone() {
            Tok::Do => self.do_stmt()?,
            Tok::If => self.if_stmt()?,
            Tok::Call => self.call_stmt()?,
            Tok::Write => self.write_stmt()?,
            Tok::Print => self.print_stmt()?,
            Tok::Stop => self.stop_stmt()?,
            Tok::Return => {
                self.bump();
                self.end_of_stmt()?;
                StmtKind::Return
            }
            Tok::Continue => {
                self.bump();
                self.end_of_stmt()?;
                StmtKind::Continue
            }
            Tok::Ident(_) => self.assign_stmt()?,
            other => return Err(Error::parse(format!("unexpected {other}"), span)),
        };
        Ok(Stmt { kind, span, label })
    }

    fn do_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::Do)?;
        let id = self.fresh_loop_id();

        // Labeled form: `DO 200 N = 1, NTYPES`.
        let target = if let Tok::Int(n) = self.peek() {
            let n = *n as u32;
            self.bump();
            Some(n)
        } else {
            None
        };

        let var = self.expect_ident()?;
        self.expect(Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(Tok::Comma)?;
        let hi = self.expr()?;
        let step = if self.eat(&Tok::Comma) {
            Some(self.expr()?)
        } else {
            None
        };
        self.end_of_stmt()?;

        let body = match target {
            Some(l) => {
                self.do_stack.push(l);
                let body = self.block(&[])?;
                let popped = self.do_stack.pop();
                debug_assert_eq!(popped, Some(l));
                if self.pending_close != Some(l) {
                    return Err(Error::parse(
                        format!("DO loop terminal label {l} not found"),
                        self.span(),
                    ));
                }
                if !self.do_stack.contains(&l) {
                    self.pending_close = None;
                }
                body
            }
            None => {
                let body = self.block(&[Tok::EndDo, Tok::End])?;
                // ENDDO as one token or END DO as two.
                if self.eat(&Tok::EndDo) {
                } else if matches!(self.peek(), Tok::End) && matches!(self.peek2(), Tok::Do) {
                    self.bump();
                    self.bump();
                } else {
                    return Err(Error::parse("expected ENDDO", self.span()));
                }
                self.end_of_stmt()?;
                body
            }
        };

        Ok(StmtKind::Do(Box::new(DoLoop {
            id,
            var,
            lo,
            hi,
            step,
            body,
            directive: None,
        })))
    }

    fn if_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::If)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;

        if self.eat(&Tok::Then) {
            self.end_of_stmt()?;
            let then_blk = self.block(&[Tok::Else, Tok::ElseIf, Tok::EndIf, Tok::End])?;
            let else_blk = self.else_part()?;
            return Ok(StmtKind::If {
                cond,
                then_blk,
                else_blk,
            });
        }

        // One-line logical IF: `IF (cond) stmt`.
        let inner = self.stmt(None)?;
        if matches!(inner.kind, StmtKind::Do(_) | StmtKind::If { .. }) {
            return Err(Error::parse(
                "logical IF cannot contain DO or IF",
                inner.span,
            ));
        }
        Ok(StmtKind::If {
            cond,
            then_blk: vec![inner],
            else_blk: vec![],
        })
    }

    fn else_part(&mut self) -> Result<Block> {
        self.skip_newlines();
        if self.eat(&Tok::ElseIf)
            || (matches!(self.peek(), Tok::Else) && matches!(self.peek2(), Tok::If))
        {
            // `ELSEIF (c) THEN` / `ELSE IF (c) THEN` — desugar into a nested IF.
            if matches!(self.peek(), Tok::If) {
                self.bump(); // the IF of "ELSE IF"
            }
            self.expect(Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Then)?;
            self.end_of_stmt()?;
            let then_blk = self.block(&[Tok::Else, Tok::ElseIf, Tok::EndIf, Tok::End])?;
            let else_blk = self.else_part()?;
            let span = self.span();
            return Ok(vec![Stmt {
                kind: StmtKind::If {
                    cond,
                    then_blk,
                    else_blk,
                },
                span,
                label: None,
            }]);
        }
        if self.eat(&Tok::Else) {
            self.end_of_stmt()?;
            let blk = self.block(&[Tok::EndIf, Tok::End])?;
            self.close_endif()?;
            return Ok(blk);
        }
        self.close_endif()?;
        Ok(vec![])
    }

    fn close_endif(&mut self) -> Result<()> {
        if self.eat(&Tok::EndIf) {
        } else if matches!(self.peek(), Tok::End) && matches!(self.peek2(), Tok::If) {
            self.bump();
            self.bump();
        } else {
            return Err(Error::parse("expected ENDIF", self.span()));
        }
        self.end_of_stmt()
    }

    fn call_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::Call)?;
        let name = self.expect_ident()?;
        let args = self.call_args()?;
        self.end_of_stmt()?;
        Ok(StmtKind::Call { name, args })
    }

    fn write_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::Write)?;
        self.expect(Tok::LParen)?;
        let unit = match self.bump() {
            Tok::Int(n) => n as i32,
            Tok::Star => 6,
            other => return Err(Error::parse(format!("bad WRITE unit {other}"), self.span())),
        };
        self.expect(Tok::Comma)?;
        if !self.eat(&Tok::Star) {
            // Format labels are accepted and ignored (list-directed output).
            match self.bump() {
                Tok::Int(_) => {}
                other => {
                    return Err(Error::parse(
                        format!("bad WRITE format {other}"),
                        self.span(),
                    ))
                }
            }
        }
        self.expect(Tok::RParen)?;
        let items = if matches!(self.peek(), Tok::Newline | Tok::Eof) {
            Vec::new()
        } else {
            self.expr_list()?
        };
        self.end_of_stmt()?;
        Ok(StmtKind::Write { unit, items })
    }

    fn print_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::Print)?;
        self.expect(Tok::Star)?;
        let items = if self.eat(&Tok::Comma) {
            self.expr_list()?
        } else {
            Vec::new()
        };
        self.end_of_stmt()?;
        Ok(StmtKind::Write { unit: 6, items })
    }

    fn stop_stmt(&mut self) -> Result<StmtKind> {
        self.expect(Tok::Stop)?;
        let message = if let Tok::Str(s) = self.peek() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        };
        self.end_of_stmt()?;
        Ok(StmtKind::Stop { message })
    }

    fn assign_stmt(&mut self) -> Result<StmtKind> {
        let name = self.expect_ident()?;
        let lhs = if self.eat(&Tok::LParen) {
            let subs = self.expr_list()?;
            self.expect(Tok::RParen)?;
            Expr::Index(name, subs)
        } else {
            Expr::Var(name)
        };
        self.expect(Tok::Assign)?;
        let rhs = self.expr()?;
        self.end_of_stmt()?;
        Ok(StmtKind::Assign { lhs, rhs })
    }

    // ----- expressions ------------------------------------------------------

    /// `expr {, expr}`.
    fn expr_list(&mut self) -> Result<Vec<Expr>> {
        let mark = self.exprs.len();
        loop {
            let e = self.expr()?;
            self.exprs.push(e);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(self.exprs.drain(mark..).collect())
    }

    /// An optional parenthesized argument list: none, `()` or `(expr, ...)`.
    fn call_args(&mut self) -> Result<Vec<Expr>> {
        if !self.eat(&Tok::LParen) || self.eat(&Tok::RParen) {
            return Ok(Vec::new());
        }
        let args = self.expr_list()?;
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    /// Entry: lowest precedence is `.OR.`.
    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    /// Parse `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth >= MAX_DEPTH {
            return Err(Error::parse(
                format!("expression nested deeper than {MAX_DEPTH}"),
                self.span(),
            ));
        }
        self.depth += 1;
        let e = f(self);
        self.depth -= 1;
        e
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Not) {
            let e = self.nested(Self::not_expr)?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.rel_expr()
    }

    fn rel_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Minus) {
            let e = self.nested(Self::unary_expr)?;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        if self.eat(&Tok::Plus) {
            return self.nested(Self::unary_expr);
        }
        self.pow_expr()
    }

    fn pow_expr(&mut self) -> Result<Expr> {
        let base = self.primary()?;
        if self.eat(&Tok::StarStar) {
            // `**` is right-associative and binds tighter than unary minus
            // on its left, looser on its right: `-X**2` is `-(X**2)`,
            // `X**-2` is allowed.
            let exp = self.nested(Self::unary_expr)?;
            return Ok(Expr::bin(BinOp::Pow, base, exp));
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr> {
        let span = self.span();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Real(v) => Ok(Expr::Real(R64(v))),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Logical(true)),
            Tok::False => Ok(Expr::Logical(false)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if !matches!(self.peek(), Tok::LParen) {
                    return Ok(Expr::Var(name));
                }
                let args = self.call_args()?;
                if let Some(intr) = Intrinsic::from_name(&name) {
                    Ok(Expr::Intrinsic(intr, args))
                } else {
                    Ok(Expr::Index(name, args))
                }
            }
            other => Err(Error::parse(
                format!("unexpected {other} in expression"),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn minimal_program() {
        let p = parse_ok("      PROGRAM MAIN\n      X = 1\n      END\n");
        assert_eq!(p.units.len(), 1);
        assert_eq!(p.main().unwrap().name, "MAIN");
        assert_eq!(p.main().unwrap().body.len(), 1);
    }

    #[test]
    fn subroutine_with_params_and_dims() {
        let src = "\
      SUBROUTINE PCINIT(X2, Y2, Z2)
      DIMENSION X2(*), Y2(*), Z2(*)
      X2(1) = 0.0
      END
";
        let p = parse_ok(src);
        let u = p.unit("PCINIT").unwrap();
        assert_eq!(u.params, vec!["X2", "Y2", "Z2"]);
        // Multi-entry DIMENSION is stored as an anonymous group.
        assert!(
            matches!(&u.decls[0], Decl::Common { block, vars } if block.is_empty() && vars.len() == 3)
        );
    }

    #[test]
    fn enddo_loop() {
        let src = "\
      PROGRAM P
      DO I = 1, 10
        A(I) = I
      ENDDO
      END
";
        let p = parse_ok(src);
        let body = &p.main().unwrap().body;
        match &body[0].kind {
            StmtKind::Do(d) => {
                assert_eq!(d.var, "I");
                assert_eq!(d.id, LoopId::new("P", 1));
                assert_eq!(d.body.len(), 1);
            }
            other => panic!("expected DO, got {other:?}"),
        }
    }

    #[test]
    fn labeled_do_with_continue() {
        let src = "\
      PROGRAM P
      DO 100 I = 1, N
        A(I) = 0.0
  100 CONTINUE
      END
";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::Do(d) => assert_eq!(d.body.len(), 1),
            _ => panic!("expected DO"),
        }
    }

    #[test]
    fn shared_label_nested_do_as_in_fig2() {
        // Two nested loops ending at a single `200 CONTINUE`, exactly the
        // PCINIT shape from the paper's Figure 2.
        let src = "\
      SUBROUTINE PCINIT(X2)
      DIMENSION X2(*)
      DO 200 N = 1, NTYPES
        NSP = NSPECI(N)
        DO 200 J = 1, NSP
          I = I + 1
          X2(I) = FX(I) * TSTEP**2 / 2.D0 / DSUMM(N)
  200 CONTINUE
      RETURN
      END
";
        let p = parse_ok(src);
        let u = p.unit("PCINIT").unwrap();
        assert_eq!(u.body.len(), 2); // outer DO + RETURN
        let outer = match &u.body[0].kind {
            StmtKind::Do(d) => d,
            _ => panic!(),
        };
        assert_eq!(outer.var, "N");
        assert_eq!(outer.body.len(), 2); // NSP assign + inner DO
        let inner = match &outer.body[1].kind {
            StmtKind::Do(d) => d,
            _ => panic!("expected inner DO"),
        };
        assert_eq!(inner.var, "J");
        assert_eq!(inner.body.len(), 2); // I incr + X2 assign
    }

    #[test]
    fn labeled_terminal_real_statement_joins_innermost_body() {
        let src = "\
      PROGRAM P
      DO 10 I = 1, 5
   10 A(I) = I
      END
";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::Do(d) => {
                assert_eq!(d.body.len(), 1);
                assert!(matches!(d.body[0].kind, StmtKind::Assign { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn block_if_else() {
        let src = "\
      PROGRAM P
      IF (IERR .NE. 0) THEN
        WRITE(6,*) 'F ELEMENT IS SINGULAR'
        STOP 'F SINGULAR'
      ELSE
        X = 1.0
      ENDIF
      END
";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 2);
                assert_eq!(else_blk.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn elseif_chain_desugars() {
        let src = "\
      PROGRAM P
      IF (A .GT. 1) THEN
        X = 1
      ELSEIF (A .GT. 0) THEN
        X = 2
      ELSE
        X = 3
      ENDIF
      END
";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::If { else_blk, .. } => {
                assert_eq!(else_blk.len(), 1);
                assert!(matches!(else_blk[0].kind, StmtKind::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn one_line_if() {
        let src = "      PROGRAM P\n      IF (IDEDON(IDE) .EQ. 0) IDEDON(IDE) = 1\n      END\n";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 1);
                assert!(else_blk.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn call_write_stop() {
        let src = "\
      PROGRAM P
      CALL FSMP(ID, IDE)
      WRITE(6,*) ' F ELEMENT ', IDE, ' IS SINGULAR '
      STOP 'F SINGULAR'
      END
";
        let p = parse_ok(src);
        let b = &p.main().unwrap().body;
        assert!(
            matches!(&b[0].kind, StmtKind::Call { name, args } if name == "FSMP" && args.len() == 2)
        );
        assert!(matches!(&b[1].kind, StmtKind::Write { unit: 6, items } if items.len() == 3));
        assert!(matches!(&b[2].kind, StmtKind::Stop { message: Some(m) } if m == "F SINGULAR"));
    }

    /// `X = 1.0+(1.0+(...))`, nested `levels` deep.
    fn nested_assign(levels: usize) -> String {
        format!(
            "      PROGRAM P\n      X = {}1.0{}\n      END\n",
            "1.0+(".repeat(levels - 1),
            ")".repeat(levels - 1)
        )
    }

    #[test]
    fn nesting_past_the_limit_is_a_located_error() {
        parse_ok(&nested_assign(MAX_DEPTH));
        let e = parse(&nested_assign(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        assert_eq!(e.span.line, 2, "{e}");
        // Unary chains and exponent towers count as nesting too.
        let minus = format!(
            "      PROGRAM P\n      X = {}1\n      END\n",
            "-".repeat(MAX_DEPTH)
        );
        assert!(parse(&minus).is_err());
        let pow = format!(
            "      PROGRAM P\n      X = 2{}\n      END\n",
            "**2".repeat(MAX_DEPTH)
        );
        assert!(parse(&pow).is_err());
        let nots = format!(
            "      PROGRAM P\n      L = {}.TRUE.\n      END\n",
            ".NOT.".repeat(MAX_DEPTH)
        );
        assert!(parse(&nots).is_err());
    }

    #[test]
    fn a_duplicate_unit_name_is_a_located_error() {
        // The first S's body would otherwise run with the last S's symbol
        // table on one engine and its own on the other.
        let src = "      PROGRAM P\n      CALL S(Y)\n      WRITE(6,*) Y\n      END\n\
                   \x20     SUBROUTINE S(X)\n      REAL X, T\n      T = 1.5\n      X = T\n      END\n\
                   \x20     SUBROUTINE S(X)\n      INTEGER T\n      END\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.phase, crate::diag::Phase::Resolve, "{e}");
        assert!(e.message.contains("duplicate unit name S"), "{e}");
        assert_eq!(e.span.line, 10, "{e}");
    }

    #[test]
    fn expression_precedence() {
        let src = "      PROGRAM P\n      X = FX(I)*TSTEP**2/2.D0/DSUMM(N)\n      END\n";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::Assign { rhs, .. } => {
                // ((FX(I) * (TSTEP**2)) / 2.0) / DSUMM(N)
                match rhs {
                    Expr::Bin(BinOp::Div, l, r) => {
                        assert!(matches!(**r, Expr::Index(ref n, _) if n == "DSUMM"));
                        assert!(matches!(**l, Expr::Bin(BinOp::Div, _, _)));
                    }
                    other => panic!("bad tree {other:?}"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn intrinsics_vs_array_refs() {
        let src = "      PROGRAM P\n      X = MOD(I, 2) + FE(1, ID)\n      END\n";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::Assign { rhs, .. } => {
                assert!(rhs.mentions("FE"));
                let mut saw_mod = false;
                rhs.walk(&mut |e| {
                    if matches!(e, Expr::Intrinsic(Intrinsic::Mod, _)) {
                        saw_mod = true;
                    }
                });
                assert!(saw_mod);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn common_blocks() {
        let src = "\
      PROGRAM P
      COMMON /GEOM/ XY(2, 100), NNPED
      XY(1,1) = 0.0
      END
";
        let p = parse_ok(src);
        match &p.main().unwrap().decls[0] {
            Decl::Common { block, vars } => {
                assert_eq!(block, "GEOM");
                assert_eq!(vars.len(), 2);
                assert_eq!(vars[0].dims.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parameters() {
        let src = "\
      PROGRAM P
      PARAMETER (N = 100, M = 2*N)
      X = M
      END
";
        let p = parse_ok(src);
        let params: Vec<_> = p
            .main()
            .unwrap()
            .decls
            .iter()
            .filter(|d| matches!(d, Decl::Param { .. }))
            .collect();
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn loop_ids_assigned_in_preorder() {
        let src = "\
      PROGRAM P
      DO I = 1, 2
        DO J = 1, 2
          A(I,J) = 0
        ENDDO
      ENDDO
      DO K = 1, 2
        B(K) = 0
      ENDDO
      END
";
        let p = parse_ok(src);
        let mut ids = Vec::new();
        fn collect(b: &Block, ids: &mut Vec<LoopId>) {
            for s in b {
                if let StmtKind::Do(d) = &s.kind {
                    ids.push(d.id.clone());
                    collect(&d.body, ids);
                }
            }
        }
        collect(&p.main().unwrap().body, &mut ids);
        assert_eq!(
            ids,
            vec![
                LoopId::new("P", 1),
                LoopId::new("P", 2),
                LoopId::new("P", 3)
            ]
        );
    }

    #[test]
    fn multiple_units() {
        let src = "\
      PROGRAM MAIN
      CALL S
      END
      SUBROUTINE S
      RETURN
      END
";
        let p = parse_ok(src);
        assert_eq!(p.units.len(), 2);
        assert!(p.unit("S").is_some());
    }

    #[test]
    fn missing_enddo_is_error() {
        assert!(parse("      PROGRAM P\n      DO I = 1, 3\n      X = 1\n      END\n").is_err());
    }

    #[test]
    fn missing_do_terminal_label_is_error() {
        assert!(parse("      PROGRAM P\n      DO 99 I = 1, 3\n      X = 1\n      END\n").is_err());
    }

    #[test]
    fn end_do_and_end_if_two_words() {
        let src = "\
      PROGRAM P
      DO I = 1, 3
        IF (I .GT. 1) THEN
          X = I
        END IF
      END DO
      END
";
        let p = parse_ok(src);
        assert_eq!(p.main().unwrap().body.len(), 1);
    }

    #[test]
    fn negative_bounds_and_steps() {
        let src =
            "      PROGRAM P\n      DO I = 10, 1, -1\n        A(I) = I\n      ENDDO\n      END\n";
        let p = parse_ok(src);
        match &p.main().unwrap().body[0].kind {
            StmtKind::Do(d) => {
                assert_eq!(d.step, Some(Expr::Un(UnOp::Neg, Box::new(Expr::int(1)))));
            }
            _ => panic!(),
        }
    }
}
