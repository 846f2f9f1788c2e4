//! Type-punned frames: programs whose formals or COMMON members are bound
//! to storage of another type class than the callee declares. The VM runs
//! each such frame on a typed body specialized to the bound classes, and
//! the reference engine types every read by its slot, so these programs
//! tell the two apart wherever a specialization would be missing or
//! wrong: integer vs real arithmetic, list-directed WRITE formatting,
//! extents read from a punned formal.
//!
//! Every main loop over `I` writes only its own elements, so the loop is
//! legal to run in chunks once marked with a directive. Callees declare
//! no explicit extents: the tree-walker charges frame-build extents
//! without a budget check, which would keep [`FIXTURES`] out of the
//! budget-position sweep; [`EXTENT_FIXTURE`] covers that case.

/// `(label, source)` per fixture.
pub const FIXTURES: &[(&str, &str)] = &[
    (
        // The MATMLT shape: implicitly INTEGER formals bound to REAL
        // arrays, read and written with REAL values.
        "INTEGER formals bound to REAL arrays",
        "      PROGRAM MAIN
      COMMON /B/ A(8), C(8)
      DO J = 1, 8
        C(J) = J*0.75
      ENDDO
      DO I = 1, 8
        CALL ADDM(A, C, I)
      ENDDO
      WRITE(6,*) A(1), A(8)
      END
      SUBROUTINE ADDM(M1, M2, K)
      DIMENSION M1(*), M2(*)
      M1(K) = M2(K)*2 + K/3
      END
",
    ),
    (
        // XN is declared REAL and bound to an INTEGER: its divisions are
        // integer divisions.
        "REAL formal bound to an INTEGER actual",
        "      PROGRAM MAIN
      COMMON /B/ A(12)
      N = 8
      DO I = 1, 12
        CALL SCALE(A, I, N)
      ENDDO
      WRITE(6,*) A(1), A(7), A(12)
      END
      SUBROUTINE SCALE(A, K, XN)
      DIMENSION A(*)
      IF (K .GT. 4) THEN
        A(K) = K/XN + XN/3
      ELSE
        A(K) = XN/K - 1
      ENDIF
      END
",
    ),
    (
        // A LOGICAL formal bound to an INTEGER prints as a number, and
        // an INTEGER formal bound to a LOGICAL prints as T/F.
        "LOGICAL puns both ways",
        "      PROGRAM MAIN
      COMMON /B/ A(6)
      DO I = 1, 6
        CALL FLAG(A, I, MOD(I, 2), MOD(I, 2) .EQ. 0)
      ENDDO
      WRITE(6,*) A(1), A(6)
      END
      SUBROUTINE FLAG(A, K, L, M)
      DIMENSION A(*)
      LOGICAL L
      IF (L) THEN
        A(K) = M + 1.0
      ELSE
        A(K) = -1.0
      ENDIF
      WRITE(6,*) K, L, M
      END
",
    ),
    (
        // MAIN creates the member as REAL 2.5; USE redeclares it INTEGER.
        "COMMON member redeclared at another type",
        "      PROGRAM MAIN
      COMMON /S/ A(12), SC
      SC = 2.5
      DO I = 1, 12
        CALL USE(A, I)
      ENDDO
      WRITE(6,*) A(1), A(12)
      END
      SUBROUTINE USE(A, K)
      COMMON /S/ SC
      DIMENSION A(*)
      INTEGER SC
      IF (K .GT. 6) THEN
        A(K) = K*SC + SC/2
      ELSE
        A(K) = SC - K
      ENDIF
      END
",
    ),
    (
        // TWICE runs with X bound to a REAL array, then to an INTEGER
        // one: the declared body and a specialized one in the same loop.
        "one unit under two signatures",
        "      PROGRAM MAIN
      COMMON /B/ A(8), R(8)
      INTEGER IV(8)
      DO J = 1, 8
        R(J) = J*0.5
        IV(J) = J
      ENDDO
      DO I = 1, 8
        A(I) = 0.0
        CALL TWICE(A, R, I)
        CALL TWICE(A, IV, I)
      ENDDO
      WRITE(6,*) A(1), A(8)
      END
      SUBROUTINE TWICE(A, X, K)
      DIMENSION A(*), X(*)
      A(K) = A(K) + X(K)/3
      END
",
    ),
    (
        // NV is implicitly INTEGER and bound to a by-value REAL: the
        // callee's own DO bound and arithmetic follow the REAL slot.
        "punned call with a loop inside a directive loop",
        "      PROGRAM MAIN
      COMMON /B/ A(12)
      DO I = 1, 12
        CALL ACC(A, I, I*0.5)
      ENDDO
      WRITE(6,*) A(1), A(12)
      END
      SUBROUTINE ACC(A, K, NV)
      DIMENSION A(*)
      A(K) = 0.0
      DO J = 1, NV
        A(K) = A(K) + NV/2 + J
      ENDDO
      END
",
    ),
];

/// XN is declared REAL and bound to an INTEGER, and A's extent reads it:
/// 8 as bound, but 6 as declared, which would put A(7) out of range.
pub const EXTENT_FIXTURE: (&str, &str) = (
    "extent read from a punned formal",
    "      PROGRAM MAIN
      COMMON /B/ A(8)
      N = 8
      DO I = 1, 8
        CALL SCALE(A, I, N)
      ENDDO
      WRITE(6,*) A(1), A(7), A(8)
      END
      SUBROUTINE SCALE(A, K, XN)
      DIMENSION A(XN - XN/3*3 + 6)
      A(K) = K/XN + XN/3
      END
",
);
