//! Token definitions for the MiniF77 lexer.

use crate::ast::Ident;
use crate::loc::Span;
use std::fmt;

/// A lexical token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// Source location.
    pub span: Span,
}

/// Token kinds. Keywords are recognized case-insensitively and normalized
/// here; identifiers are stored upper-cased (Fortran is case-insensitive).
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// End of a source line (statement separator).
    Newline,
    /// A numeric statement label at the start of a line, e.g. `200 CONTINUE`.
    Label(u32),
    /// Upper-cased identifier.
    Ident(Ident),
    /// Integer literal.
    Int(i64),
    /// Real literal (covers `1.5`, `2.D0`, `1E-3`).
    Real(f64),
    /// Character string literal (single quotes in source).
    Str(String),

    // Keywords.
    Program,
    Subroutine,
    Function,
    End,
    Do,
    EndDo,
    If,
    Then,
    Else,
    ElseIf,
    EndIf,
    Call,
    Continue,
    Return,
    Stop,
    Write,
    Print,
    Read,
    Integer,
    Real_,
    DoublePrecision,
    Logical,
    Dimension,
    Common,
    Parameter,
    True,
    False,

    // Punctuation and operators.
    LParen,
    RParen,
    Comma,
    Colon,
    Slash,
    Star,
    StarStar,
    Plus,
    Minus,
    Assign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    /// End of file.
    Eof,
}

impl Tok {
    /// Map an upper-cased word to a keyword token, if it is one.
    pub fn keyword(word: &str) -> Option<Tok> {
        Some(match word {
            "PROGRAM" => Tok::Program,
            "SUBROUTINE" => Tok::Subroutine,
            "FUNCTION" => Tok::Function,
            "END" => Tok::End,
            "DO" => Tok::Do,
            "ENDDO" => Tok::EndDo,
            "IF" => Tok::If,
            "THEN" => Tok::Then,
            "ELSE" => Tok::Else,
            "ELSEIF" => Tok::ElseIf,
            "ENDIF" => Tok::EndIf,
            "CALL" => Tok::Call,
            "CONTINUE" => Tok::Continue,
            "RETURN" => Tok::Return,
            "STOP" => Tok::Stop,
            "WRITE" => Tok::Write,
            "PRINT" => Tok::Print,
            "READ" => Tok::Read,
            "INTEGER" => Tok::Integer,
            "REAL" => Tok::Real_,
            "LOGICAL" => Tok::Logical,
            "DIMENSION" => Tok::Dimension,
            "COMMON" => Tok::Common,
            "PARAMETER" => Tok::Parameter,
            _ => return None,
        })
    }

    /// True for tokens that may legally start an expression.
    pub fn starts_expr(&self) -> bool {
        matches!(
            self,
            Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Real(_)
                | Tok::Str(_)
                | Tok::LParen
                | Tok::Minus
                | Tok::Plus
                | Tok::Not
                | Tok::True
                | Tok::False
        )
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Newline => write!(f, "<newline>"),
            Tok::Label(n) => write!(f, "label {n}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Real(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Program => write!(f, "PROGRAM"),
            Tok::Subroutine => write!(f, "SUBROUTINE"),
            Tok::Function => write!(f, "FUNCTION"),
            Tok::End => write!(f, "END"),
            Tok::Do => write!(f, "DO"),
            Tok::EndDo => write!(f, "ENDDO"),
            Tok::If => write!(f, "IF"),
            Tok::Then => write!(f, "THEN"),
            Tok::Else => write!(f, "ELSE"),
            Tok::ElseIf => write!(f, "ELSEIF"),
            Tok::EndIf => write!(f, "ENDIF"),
            Tok::Call => write!(f, "CALL"),
            Tok::Continue => write!(f, "CONTINUE"),
            Tok::Return => write!(f, "RETURN"),
            Tok::Stop => write!(f, "STOP"),
            Tok::Write => write!(f, "WRITE"),
            Tok::Print => write!(f, "PRINT"),
            Tok::Read => write!(f, "READ"),
            Tok::Integer => write!(f, "INTEGER"),
            Tok::Real_ => write!(f, "REAL"),
            Tok::DoublePrecision => write!(f, "DOUBLE PRECISION"),
            Tok::Logical => write!(f, "LOGICAL"),
            Tok::Dimension => write!(f, "DIMENSION"),
            Tok::Common => write!(f, "COMMON"),
            Tok::Parameter => write!(f, "PARAMETER"),
            Tok::True => write!(f, ".TRUE."),
            Tok::False => write!(f, ".FALSE."),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Colon => write!(f, ":"),
            Tok::Slash => write!(f, "/"),
            Tok::Star => write!(f, "*"),
            Tok::StarStar => write!(f, "**"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Assign => write!(f, "="),
            Tok::Eq => write!(f, ".EQ."),
            Tok::Ne => write!(f, ".NE."),
            Tok::Lt => write!(f, ".LT."),
            Tok::Le => write!(f, ".LE."),
            Tok::Gt => write!(f, ".GT."),
            Tok::Ge => write!(f, ".GE."),
            Tok::And => write!(f, ".AND."),
            Tok::Or => write!(f, ".OR."),
            Tok::Not => write!(f, ".NOT."),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_recognized() {
        assert_eq!(Tok::keyword("SUBROUTINE"), Some(Tok::Subroutine));
        assert_eq!(Tok::keyword("ENDDO"), Some(Tok::EndDo));
        assert_eq!(Tok::keyword("NOTAKEYWORD"), None);
    }

    #[test]
    fn expr_starters() {
        assert!(Tok::Ident("X".into()).starts_expr());
        assert!(Tok::Int(3).starts_expr());
        assert!(Tok::Minus.starts_expr());
        assert!(!Tok::Comma.starts_expr());
        assert!(!Tok::Assign.starts_expr());
    }
}
