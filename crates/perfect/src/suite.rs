//! The synthetic PERFECT-club suite.
//!
//! Twelve MiniF77 applications named after the PERFECT benchmarks the paper
//! evaluates (Table I). The originals are 1989 Fortran codes that are not
//! redistributable; each synthetic stand-in is built around the *inlining
//! idioms* the paper reports for that code — indirect-offset actual
//! parameters, reshaped array arguments, opaque compositional subroutines
//! with error checking, global temporary arrays, indirect one-to-one index
//! arrays — so the Table II per-configuration behaviour reproduces the same
//! qualitative pattern. See DESIGN.md for the substitution argument.
//!
//! Every application is a complete, runnable program: `SETUP` initializes
//! its COMMON data deterministically, a time/sweep loop does the work, and
//! `CHECK` writes checksums so the verification harness can compare runs
//! bit-for-bit.

use finline::annot::AnnotRegistry;
use fir::ast::Program;

/// One benchmark application.
#[derive(Debug, Clone)]
pub struct App {
    /// PERFECT name (normalized: ARC2D, FLO52Q, MG3D...).
    pub name: &'static str,
    /// One-line description (Table I).
    pub description: &'static str,
    /// MiniF77 source text.
    pub source: &'static str,
    /// Annotation-language text for the annotated subroutines (may be
    /// empty when the paper found nothing worth annotating).
    pub annotations: &'static str,
}

impl App {
    /// Parse the program source.
    pub fn program(&self) -> Program {
        fir::parse(self.source).unwrap_or_else(|e| panic!("{}: parse failed: {e}", self.name))
    }

    /// Parse the annotation registry.
    pub fn registry(&self) -> AnnotRegistry {
        AnnotRegistry::parse(self.annotations)
            .unwrap_or_else(|e| panic!("{}: annotation parse failed: {e}", self.name))
    }
}

/// All twelve applications, in Table I order.
pub fn all() -> Vec<App> {
    vec![
        crate::adm::app(),
        crate::arc2d::app(),
        crate::flo52q::app(),
        crate::ocean::app(),
        crate::bdna::app(),
        crate::mdg::app(),
        crate::qcd::app(),
        crate::trfd::app(),
        crate::dyfesm::app(),
        crate::mg3d::app(),
        crate::track::app(),
        crate::spec77::app(),
    ]
}

/// Look up an application by name.
pub fn by_name(name: &str) -> Option<App> {
    all()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_apps_all_parse() {
        let apps = all();
        assert_eq!(apps.len(), 12);
        for a in &apps {
            let p = a.program();
            assert!(p.main().is_some(), "{} has no PROGRAM unit", a.name);
            let _ = a.registry();
        }
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = all().iter().map(|a| a.name).collect();
        for expected in [
            "ADM", "ARC2D", "FLO52Q", "OCEAN", "BDNA", "MDG", "QCD", "TRFD", "DYFESM", "MG3D",
            "TRACK", "SPEC77",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("bdna").is_some());
        assert!(by_name("NOSUCH").is_none());
    }

    #[test]
    fn every_app_runs_sequentially() {
        for a in all() {
            let p = a.program();
            let r = fruntime::run(&p, &fruntime::ExecOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", a.name));
            assert!(r.stopped.is_none(), "{} stopped: {:?}", a.name, r.stopped);
            assert!(!r.io.is_empty(), "{} produced no checksum output", a.name);
        }
    }
}
