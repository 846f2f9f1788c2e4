//! Shared, immutable identifiers.
//!
//! Every name in the IR — variables, units, COMMON blocks, loop ids — is an
//! [`Ident`]: an upper-cased string behind an atomic reference count. The
//! pipeline clones names far more often than it creates them (each inlining
//! configuration clones whole programs, and symbol tables, reference lists,
//! loop ids and VM name tables all hold copies), so a clone is a count bump
//! instead of a fresh heap buffer.
//!
//! Equality, ordering, hashing, `Display` and `Debug` all go through `str`,
//! so an `Ident` sorts, prints and hashes exactly as the `String` with the
//! same bytes would, and a map keyed by `Ident` can be probed with `&str`.
//!
//! There is deliberately no global interner: the daemon keeps compiling
//! never-seen programs, and an append-only table would grow without bound.
//! Sharing within one source comes from the lexers, which intern each
//! distinct spelling once per parse through an [`Interner`]; after that,
//! code that already holds an `Ident` clones it rather than rebuilding it
//! from `&str` (every `Ident::from(&str)` allocates).

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Upper-cased Fortran identifier; cloning shares the bytes.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ident(Arc<str>);

impl Ident {
    /// The identifier's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for Ident {
    fn default() -> Self {
        Ident::from("")
    }
}

impl Deref for Ident {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident(Arc::from(s))
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident(Arc::from(s))
    }
}

impl From<&Ident> for Ident {
    fn from(s: &Ident) -> Self {
        s.clone()
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// A per-source intern table: each distinct spelling becomes one shared
/// [`Ident`], so a name allocates once however often the source uses it.
#[derive(Debug, Default)]
pub struct Interner(HashSet<Ident>);

impl Interner {
    /// The shared `Ident` spelled `s`.
    pub fn intern(&mut self, s: &str) -> Ident {
        if let Some(id) = self.0.get(s) {
            return id.clone();
        }
        let id = Ident::from(s);
        self.0.insert(id.clone());
        id
    }
}

macro_rules! eq_both_ways {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Ident {
            fn eq(&self, other: &$other) -> bool {
                *self.0 == **other
            }
        }
        impl PartialEq<Ident> for $other {
            fn eq(&self, other: &Ident) -> bool {
                **self == *other.0
            }
        }
    )*};
}

eq_both_ways!(&str, String);

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Ident> for str {
    fn eq(&self, other: &Ident) -> bool {
        *self == *other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn clone_shares_the_bytes() {
        let a = Ident::from("ALPHA");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn compares_with_strings_both_ways() {
        let a = Ident::from("X1");
        let s = String::from("X1");
        assert_eq!(a, "X1");
        assert_eq!("X1", a);
        assert_eq!(a, *"X1");
        assert_eq!(*"X1", a);
        assert_eq!(a, s);
        assert_eq!(s, a);
        assert_ne!(a, "X2");
    }

    #[test]
    fn maps_are_probed_by_str() {
        let mut h = HashMap::new();
        h.insert(Ident::from("N"), 1);
        let mut b = BTreeMap::new();
        b.insert(Ident::from("N"), 2);
        assert_eq!(h.get("N"), Some(&1));
        assert_eq!(b.get("N"), Some(&2));
    }

    #[test]
    fn formats_like_string() {
        let a = Ident::from("Q\"R");
        assert_eq!(
            format!("{a} {a:?} {a:>5}"),
            format!("{0} {0:?} {0:>5}", "Q\"R")
        );
    }
}
