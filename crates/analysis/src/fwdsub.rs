//! Forward substitution of scalar definitions into later uses.
//!
//! Polaris forward-substitutes scalar assignments before dependence testing
//! so that subscripts like `FE(1, ID)` — with `ID = IDBEGS(ISS) + 1 + K`
//! defined a few statements earlier — become directly analyzable functions
//! of the loop indices (paper Fig. 7). The same mechanism is what turns
//! inlined indirect actual parameters into *subscripted subscripts*
//! (paper §II-A1): substitution is value-preserving, but it can surface
//! non-affine terms that defeat the dependence tests.
//!
//! The pass is applied to an analysis-local clone of each loop; the emitted
//! program is never rewritten by it.

use fir::ast::{Block, Expr, Ident, StmtKind};
use std::collections::BTreeMap;

/// Forward-substitute within a block (typically a loop body), in place.
pub fn forward_substitute(block: &mut Block, is_array: &dyn Fn(&str) -> bool) {
    let mut env: Env = BTreeMap::new();
    walk(block, &mut env, is_array);
}

type Env = BTreeMap<Ident, Expr>;

/// True when [`forward_substitute`] would rewrite `block`: some use reads
/// a scalar that a recorded definition replaces. Until the first such use
/// nothing is rewritten, so this walk records the definitions as they
/// stand, by reference, and needs no copy of the block.
pub fn forward_substitutes(block: &Block, is_array: &dyn Fn(&str) -> bool) -> bool {
    let mut env: RefEnv<'_> = BTreeMap::new();
    finds_use(block, &mut env, is_array)
}

/// [`Env`] before any rewrite: definitions borrowed from the block.
type RefEnv<'a> = BTreeMap<&'a str, &'a Expr>;

/// [`invalidate`] over borrowed definitions.
fn invalidate_ref(env: &mut RefEnv<'_>, name: &str) {
    env.retain(|_, def| !def.mentions(name));
    env.remove(name);
}

/// True when [`subst`] would replace a node of `e`.
fn reads(e: &Expr, env: &RefEnv<'_>) -> bool {
    let mut found = false;
    e.walk(&mut |node| {
        found |= matches!(node, Expr::Var(v) if env.contains_key(v.as_str()));
    });
    found
}

/// [`walk`] without rewriting: stops at the first use it would rewrite.
fn finds_use<'a>(block: &'a Block, env: &mut RefEnv<'a>, is_array: &dyn Fn(&str) -> bool) -> bool {
    for s in block {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                if reads(rhs, env) {
                    return true;
                }
                match lhs {
                    Expr::Var(name) if !is_array(name) => {
                        invalidate_ref(env, name);
                        if !rhs.mentions(name) && is_pure(rhs) {
                            env.insert(name.as_str(), rhs);
                        }
                    }
                    Expr::Index(name, subs) => {
                        if subs.iter().any(|sub| reads(sub, env)) {
                            return true;
                        }
                        invalidate_ref(env, name);
                    }
                    Expr::Section(name, ranges) => {
                        for r in ranges {
                            let hit = match r {
                                fir::ast::SecRange::At(e) => reads(e, env),
                                fir::ast::SecRange::Range { lo, hi, step } => {
                                    [lo, hi, step].into_iter().flatten().any(|e| reads(e, env))
                                }
                                fir::ast::SecRange::Full => false,
                            };
                            if hit {
                                return true;
                            }
                        }
                        invalidate_ref(env, name);
                    }
                    Expr::Var(name) => invalidate_ref(env, name),
                    _ => {}
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if reads(cond, env) {
                    return true;
                }
                let mut env_then = env.clone();
                let mut env_else = env.clone();
                if finds_use(then_blk, &mut env_then, is_array)
                    || finds_use(else_blk, &mut env_else, is_array)
                {
                    return true;
                }
                env.retain(|k, v| env_then.get(k) == Some(v) && env_else.get(k) == Some(v));
            }
            StmtKind::Do(d) => {
                if [&d.lo, &d.hi]
                    .into_iter()
                    .chain(&d.step)
                    .any(|e| reads(e, env))
                {
                    return true;
                }
                let mut killed = vec![d.var.clone()];
                assigned_names(&d.body, &mut killed);
                for k in &killed {
                    invalidate_ref(env, k);
                }
                if finds_use(&d.body, &mut env.clone(), is_array) {
                    return true;
                }
            }
            StmtKind::Call { args, .. } => {
                if args.iter().any(|a| reads(a, env)) {
                    return true;
                }
                env.clear();
            }
            StmtKind::Write { items, .. } => {
                if items.iter().any(|i| reads(i, env)) {
                    return true;
                }
            }
            StmtKind::Tagged { body, .. } => {
                if finds_use(body, env, is_array) {
                    return true;
                }
            }
            StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => {}
        }
    }
    false
}

/// Drop environment entries whose definition mentions `name` (scalar or
/// array base).
fn invalidate(env: &mut Env, name: &str) {
    env.retain(|_, def| !def.mentions(name));
    env.remove(name);
}

/// Names assigned anywhere in a block (scalars and array bases).
fn assigned_names(block: &Block, out: &mut Vec<Ident>) {
    for s in block {
        match &s.kind {
            StmtKind::Assign { lhs, .. } => match lhs {
                Expr::Var(n) | Expr::Index(n, _) | Expr::Section(n, _) if !out.contains(n) => {
                    out.push(n.clone());
                }
                _ => {}
            },
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assigned_names(then_blk, out);
                assigned_names(else_blk, out);
            }
            StmtKind::Do(d) => {
                if !out.contains(&d.var) {
                    out.push(d.var.clone());
                }
                assigned_names(&d.body, out);
            }
            StmtKind::Tagged { body, .. } => assigned_names(body, out),
            _ => {}
        }
    }
}

fn subst(e: &mut Expr, env: &Env) {
    e.rewrite(&mut |node| {
        if let Expr::Var(v) = node {
            if let Some(def) = env.get(v) {
                *node = def.clone();
            }
        }
    });
}

fn walk(block: &mut Block, env: &mut Env, is_array: &dyn Fn(&str) -> bool) {
    for s in block.iter_mut() {
        match &mut s.kind {
            StmtKind::Assign { lhs, rhs } => {
                subst(rhs, env);
                match lhs {
                    Expr::Var(name) if !is_array(name) => {
                        let name = name.clone();
                        invalidate(env, &name);
                        // Record the (already fully substituted) definition
                        // if it does not reference itself.
                        if !rhs.mentions(&name) && is_pure(rhs) {
                            env.insert(name, rhs.clone());
                        }
                    }
                    Expr::Index(name, subs) => {
                        for sub in subs {
                            subst(sub, env);
                        }
                        let name = name.clone();
                        invalidate(env, &name);
                    }
                    Expr::Section(name, ranges) => {
                        for r in ranges.iter_mut() {
                            match r {
                                fir::ast::SecRange::At(e) => subst(e, env),
                                fir::ast::SecRange::Range { lo, hi, step } => {
                                    for e in [lo, hi, step].into_iter().flatten() {
                                        subst(e, env);
                                    }
                                }
                                fir::ast::SecRange::Full => {}
                            }
                        }
                        let name = name.clone();
                        invalidate(env, &name);
                    }
                    Expr::Var(name) => {
                        let name = name.clone();
                        invalidate(env, &name);
                    }
                    _ => {}
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                subst(cond, env);
                let mut env_then = env.clone();
                let mut env_else = env.clone();
                walk(then_blk, &mut env_then, is_array);
                walk(else_blk, &mut env_else, is_array);
                // Keep only entries identical on both paths.
                env.retain(|k, v| env_then.get(k) == Some(v) && env_else.get(k) == Some(v));
            }
            StmtKind::Do(d) => {
                subst(&mut d.lo, env);
                subst(&mut d.hi, env);
                if let Some(st) = &mut d.step {
                    subst(st, env);
                }
                // The body repeats: drop entries that the body (or the loop
                // variable) invalidates, then substitute the survivors.
                let mut killed = vec![d.var.clone()];
                assigned_names(&d.body, &mut killed);
                for k in &killed {
                    invalidate(env, k);
                }
                walk(&mut d.body, &mut env.clone(), is_array);
            }
            StmtKind::Call { args, .. } => {
                for a in args {
                    subst(a, env);
                }
                // By-reference semantics: a call may modify anything.
                env.clear();
            }
            StmtKind::Write { items, .. } => {
                for i in items {
                    subst(i, env);
                }
            }
            StmtKind::Tagged { body, .. } => {
                walk(body, env, is_array);
            }
            StmtKind::Stop { .. } | StmtKind::Return | StmtKind::Continue => {}
        }
    }
}

/// An expression safe to duplicate: no side effects (always true in this
/// IR) and not a string (strings only appear in I/O).
fn is_pure(e: &Expr) -> bool {
    !matches!(e, Expr::Str(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;
    use fir::printer::print_program;

    fn run(src: &str, arrays: &[&str]) -> String {
        let mut p = parse(src).unwrap();
        let body = &mut p.units[0].body;
        forward_substitute(body, &|n| arrays.contains(&n));
        print_program(&p)
    }

    #[test]
    fn substitutes_into_subscripts() {
        let out = run(
            "      PROGRAM P
      ID = IDBEGS(ISS) + 1 + K
      FE(1, ID) = 0.0
      END
",
            &["IDBEGS", "FE"],
        );
        assert!(out.contains("FE(1, IDBEGS(ISS) + 1 + K)"), "{out}");
    }

    #[test]
    fn redefinition_invalidates() {
        let out = run(
            "      PROGRAM P
      ID = K + 1
      ID = K + 2
      FE(ID) = 0.0
      END
",
            &["FE"],
        );
        assert!(out.contains("FE(K + 2)"), "{out}");
    }

    #[test]
    fn dependency_change_invalidates() {
        let out = run(
            "      PROGRAM P
      ID = K + 1
      K = 7
      FE(ID) = 0.0
      END
",
            &["FE"],
        );
        // ID's definition mentions K which changed: must not substitute.
        assert!(out.contains("FE(ID)"), "{out}");
    }

    #[test]
    fn array_store_invalidates_dependent_defs() {
        let out = run(
            "      PROGRAM P
      ID = IDBEGS(ISS) + 1
      IDBEGS(2) = 0
      FE(ID) = 0.0
      END
",
            &["IDBEGS", "FE"],
        );
        assert!(out.contains("FE(ID)"), "{out}");
    }

    #[test]
    fn call_clears_everything() {
        let out = run(
            "      PROGRAM P
      ID = K + 1
      CALL SHAKE
      FE(ID) = 0.0
      END
",
            &["FE"],
        );
        assert!(out.contains("FE(ID)"), "{out}");
    }

    #[test]
    fn if_branches_merge_conservatively() {
        let out = run(
            "      PROGRAM P
      ID = K + 1
      IF (X .GT. 0.0) THEN
        ID = K + 2
      ENDIF
      FE(ID) = 0.0
      END
",
            &["FE"],
        );
        assert!(out.contains("FE(ID)"), "{out}");
    }

    #[test]
    fn substitution_propagates_into_loops() {
        let out = run(
            "      PROGRAM P
      NB = NBASE + 4
      DO I = 1, N
        A(NB + I) = 0.0
      ENDDO
      END
",
            &["A"],
        );
        assert!(out.contains("A(NBASE + 4 + I)"), "{out}");
    }

    #[test]
    fn loop_variant_defs_do_not_escape_their_iteration() {
        let out = run(
            "      PROGRAM P
      DO K = 1, N
        ID = IDBEGS(ISS) + 1 + K
        FE(1, ID) = 0.0
      ENDDO
      END
",
            &["IDBEGS", "FE"],
        );
        // Inside the loop the same-iteration definition is substituted.
        assert!(out.contains("FE(1, IDBEGS(ISS) + 1 + K)"), "{out}");
    }

    #[test]
    fn chained_definitions_expand_fully() {
        let out = run(
            "      PROGRAM P
      IA = J + 1
      IB = IA*2
      X(IB) = 0.0
      END
",
            &["X"],
        );
        assert!(out.contains("X((J + 1)*2)"), "{out}");
    }
}
