//! Static call graph over a [`Program`].
//!
//! Used by the inlining heuristics (recursion exclusion, "makes non-trivial
//! calls" exclusion — paper §II-B1) and by dead-procedure elimination after
//! conventional inlining.

use fir::ast::{Ident, Program, UnitKind};
use fir::visit::called_names;
use std::collections::{BTreeMap, BTreeSet};

/// A call graph: unit name → callee names (only callees defined in the
/// program; calls to undefined externals are recorded separately).
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Defined-unit edges.
    pub edges: BTreeMap<Ident, Vec<Ident>>,
    /// Calls whose target has no definition in the program (external
    /// library routines — inlinable only via annotations).
    pub external: BTreeMap<Ident, Vec<Ident>>,
    /// Name of the main program unit, if present.
    pub main: Option<Ident>,
}

impl CallGraph {
    /// Build the graph.
    pub fn build(p: &Program) -> CallGraph {
        let defined: BTreeSet<&str> = p.units.iter().map(|u| u.name.as_str()).collect();
        let mut g = CallGraph::default();
        for u in &p.units {
            if u.kind == UnitKind::Program {
                g.main = Some(u.name.clone());
            }
            let mut internal = Vec::new();
            let mut external = Vec::new();
            for callee in called_names(&u.body) {
                if defined.contains(callee.as_str()) {
                    internal.push(callee);
                } else {
                    external.push(callee);
                }
            }
            g.edges.insert(u.name.clone(), internal);
            g.external.insert(u.name.clone(), external);
        }
        g
    }

    /// Direct callees of `unit` (defined units only).
    pub fn callees(&self, unit: &str) -> &[Ident] {
        self.edges.get(unit).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct defined callees — the paper's "makes additional
    /// non-trivial procedure calls" metric.
    pub fn fanout(&self, unit: &str) -> usize {
        self.callees(unit).len() + self.external.get(unit).map(|v| v.len()).unwrap_or(0)
    }

    /// True if `unit` can reach itself through the graph.
    pub fn is_recursive(&self, unit: &str) -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = self.callees(unit).iter().map(|s| s.as_str()).collect();
        while let Some(n) = stack.pop() {
            if n == unit {
                return true;
            }
            if seen.insert(n) {
                stack.extend(self.callees(n).iter().map(|s| s.as_str()));
            }
        }
        false
    }

    /// All units reachable from the main program (used for dead-procedure
    /// elimination after inlining).
    pub fn reachable_from_main(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        let Some(main) = &self.main else { return out };
        let mut stack = vec![main.clone()];
        while let Some(n) = stack.pop() {
            if out.insert(n.clone()) {
                for c in self.callees(&n) {
                    stack.push(c.clone());
                }
            }
        }
        out
    }

    /// Strongly connected components in reverse topological order:
    /// every component appears after all components it calls into, so a
    /// bottom-up summarizer can walk the result front to back and always
    /// find its callees already processed. Singleton components are the
    /// common case; a component of size > 1 (or a self-loop) is a
    /// recursion cluster. Iterative Tarjan — the ordering is deterministic
    /// because both the root iteration and the edge lists follow the
    /// `BTreeMap` key order.
    pub fn sccs(&self) -> Vec<Vec<Ident>> {
        struct St<'a> {
            index: BTreeMap<&'a str, usize>,
            low: BTreeMap<&'a str, usize>,
            on_stack: BTreeSet<&'a str>,
            stack: Vec<&'a str>,
            next: usize,
            out: Vec<Vec<Ident>>,
        }
        let mut st = St {
            index: BTreeMap::new(),
            low: BTreeMap::new(),
            on_stack: BTreeSet::new(),
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        // Explicit work stack: (node, next-edge-to-visit).
        for root in self.edges.keys() {
            if st.index.contains_key(root.as_str()) {
                continue;
            }
            let mut work: Vec<(&str, usize)> = vec![(root.as_str(), 0)];
            while let Some((n, ei)) = work.pop() {
                if ei == 0 {
                    st.index.insert(n, st.next);
                    st.low.insert(n, st.next);
                    st.next += 1;
                    st.stack.push(n);
                    st.on_stack.insert(n);
                }
                let callees = self.callees(n);
                if let Some(c) = callees.get(ei) {
                    work.push((n, ei + 1));
                    match st.index.get(c.as_str()) {
                        None => work.push((c.as_str(), 0)),
                        Some(&ci) if st.on_stack.contains(c.as_str()) => {
                            let l = st.low[n].min(ci);
                            st.low.insert(n, l);
                        }
                        Some(_) => {}
                    }
                } else {
                    // All edges done: fold our lowlink into the parent and
                    // pop a component if we are its root.
                    if st.low[n] == st.index[n] {
                        let mut comp = Vec::new();
                        while let Some(m) = st.stack.pop() {
                            st.on_stack.remove(m);
                            comp.push(Ident::from(m));
                            if m == n {
                                break;
                            }
                        }
                        comp.sort();
                        st.out.push(comp);
                    }
                    if let Some(&(parent, _)) = work.last() {
                        let l = st.low[parent].min(st.low[n]);
                        st.low.insert(parent, l);
                    }
                }
            }
        }
        st.out
    }

    /// Units in bottom-up (callee-before-caller) order; cycles broken
    /// arbitrarily.
    pub fn bottom_up(&self) -> Vec<Ident> {
        let mut order = Vec::new();
        let mut mark: BTreeMap<&str, u8> = BTreeMap::new();
        fn visit<'a>(
            g: &'a CallGraph,
            n: &'a str,
            mark: &mut BTreeMap<&'a str, u8>,
            order: &mut Vec<Ident>,
        ) {
            if mark.get(n).is_some() {
                return;
            }
            mark.insert(n, 1);
            for c in g.callees(n) {
                visit(g, c, mark, order);
            }
            mark.insert(n, 2);
            order.push(n.into());
        }
        let names: Vec<&str> = self.edges.keys().map(|s| s.as_str()).collect();
        for n in names {
            visit(self, n, &mut mark, &mut order);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::parser::parse;

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&parse(src).unwrap())
    }

    #[test]
    fn edges_and_externals() {
        let g = graph(
            "      PROGRAM MAIN
      CALL A
      CALL LIBROUTINE(X)
      END
      SUBROUTINE A
      CALL B
      END
      SUBROUTINE B
      RETURN
      END
",
        );
        assert_eq!(g.callees("MAIN"), &["A".to_string()]);
        assert_eq!(g.external["MAIN"], vec!["LIBROUTINE".to_string()]);
        assert_eq!(g.fanout("MAIN"), 2);
        assert_eq!(g.main.as_deref(), Some("MAIN"));
    }

    #[test]
    fn recursion_detection() {
        let g = graph(
            "      PROGRAM MAIN
      CALL A
      END
      SUBROUTINE A
      CALL B
      END
      SUBROUTINE B
      CALL A
      END
      SUBROUTINE C
      RETURN
      END
",
        );
        assert!(g.is_recursive("A"));
        assert!(g.is_recursive("B"));
        assert!(!g.is_recursive("MAIN"));
        assert!(!g.is_recursive("C"));
    }

    #[test]
    fn reachability() {
        let g = graph(
            "      PROGRAM MAIN
      CALL A
      END
      SUBROUTINE A
      RETURN
      END
      SUBROUTINE DEAD
      RETURN
      END
",
        );
        let r = g.reachable_from_main();
        assert!(r.contains("MAIN"));
        assert!(r.contains("A"));
        assert!(!r.contains("DEAD"));
    }

    #[test]
    fn sccs_are_reverse_topological() {
        let g = graph(
            "      PROGRAM MAIN
      CALL A
      CALL D
      END
      SUBROUTINE A
      CALL B
      END
      SUBROUTINE B
      CALL A
      CALL C
      END
      SUBROUTINE C
      RETURN
      END
      SUBROUTINE D
      CALL C
      END
",
        );
        let comps = g.sccs();
        // Every unit appears exactly once.
        let mut all: Vec<&str> = comps.iter().flatten().map(|s| s.as_str()).collect();
        all.sort();
        assert_eq!(all, vec!["A", "B", "C", "D", "MAIN"]);
        // The A↔B cycle is one component.
        assert!(comps.contains(&vec!["A".into(), "B".into()]));
        let pos = |n: &str| comps.iter().position(|c| c.iter().any(|x| x == n)).unwrap();
        // Callee components come first.
        assert!(pos("C") < pos("A"));
        assert!(pos("C") < pos("D"));
        assert!(pos("A") < pos("MAIN"));
        assert!(pos("D") < pos("MAIN"));
    }

    #[test]
    fn sccs_self_loop_is_its_own_component() {
        let g = graph(
            "      PROGRAM MAIN
      CALL R
      END
      SUBROUTINE R
      CALL R
      END
",
        );
        let comps = g.sccs();
        assert!(comps.contains(&vec!["R".into()]));
        // A self-loop is detected as recursion even in a singleton SCC.
        assert!(g.is_recursive("R"));
    }

    #[test]
    fn bottom_up_order() {
        let g = graph(
            "      PROGRAM MAIN
      CALL A
      END
      SUBROUTINE A
      CALL B
      END
      SUBROUTINE B
      RETURN
      END
",
        );
        let order = g.bottom_up();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("B") < pos("A"));
        assert!(pos("A") < pos("MAIN"));
    }
}
