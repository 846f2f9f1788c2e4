//! # fir — MiniF77 frontend and intermediate representation
//!
//! This crate is the substrate beneath the whole reproduction of
//! *"Enhancing the Role of Inlining in Effective Interprocedural
//! Parallelization"* (Guo, Stiles, Yi, Psarris — ICPP 2011): a from-scratch
//! frontend for a structured Fortran 77 subset ("MiniF77"), the AST shared
//! by the dependence analyzer, the three inliners and the parallelizer, and
//! a source emitter that prints OpenMP directives and annotation-inlining
//! tags the way the paper's figures show them.
//!
//! ## Dialect
//!
//! * `PROGRAM` / `SUBROUTINE` units; `CALL`-by-reference semantics.
//! * Declarations: type statements, `DIMENSION`, `COMMON`, `PARAMETER`,
//!   assumed-size (`*`) dummy arrays, Fortran implicit typing.
//! * Structured control flow only: `DO`/`ENDDO`, labeled `DO`/`CONTINUE`
//!   (including shared terminal labels), block and logical `IF`.
//! * `WRITE`/`PRINT`/`STOP` for the error-handling idioms of paper §II-B2.
//! * Two IR-only extensions used by annotation-based inlining: the
//!   [`ast::Expr::Unique`]/[`ast::Expr::Unknown`] abstraction operators and
//!   [`ast::StmtKind::Tagged`] regions.
//!
//! ## Entry points
//!
//! * [`parse`] — source text → [`ast::Program`].
//! * [`print_program`] — [`ast::Program`] → source text.
//! * [`symbol::SymbolTable::build`] — per-unit name resolution.
//! * [`fold::normalize_program`] — PARAMETER substitution + constant folding.

pub mod ast;
pub mod diag;
pub mod fold;
pub mod ident;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod printer;
pub mod symbol;
pub mod token;
pub mod visit;

pub use ast::{
    BinOp, Block, Decl, Dim, DoLoop, Expr, Ident, Intrinsic, LoopId, OmpDirective, ProcUnit,
    Program, RedOp, SecRange, Stmt, StmtKind, TagInfo, Type, UnOp, UnitKind, VarDecl, R64,
};
pub use diag::{Error, Result};
pub use loc::Span;
pub use parser::{parse, parse_body};
pub use printer::{count_loc, expr_str, print_program};
pub use symbol::{Storage, Symbol, SymbolTable};
