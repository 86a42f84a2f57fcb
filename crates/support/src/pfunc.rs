//! Partial functions as persistent association lists.
//!
//! Figure 5 of the paper shows the LINGUIST-86 AG itself using partial
//! functions: `EvalPF(attrib$list1.STATICS, attrib.NAME) <> bottom` and
//! `consPF(name, type, list)`. A partial function maps keys to values and
//! returns "bottom" (here [`None`]) outside its domain.

use crate::list::List;
use std::fmt;

/// A persistent partial function (association list).
///
/// Later bindings shadow earlier ones, matching `consPF` semantics: the
/// newest pair is consulted first by `EvalPF`.
///
/// # Example
///
/// ```
/// use linguist_support::pfunc::PartialFn;
/// let f = PartialFn::empty().bind("x", 1).bind("y", 2).bind("x", 3);
/// assert_eq!(f.eval(&"x"), Some(&3)); // newest binding wins
/// assert_eq!(f.eval(&"z"), None);     // bottom
/// ```
#[derive(Clone)]
pub struct PartialFn<K, V> {
    pairs: List<(K, V)>,
}

impl<K: PartialEq + Clone, V: Clone> PartialFn<K, V> {
    /// The everywhere-undefined partial function.
    pub fn empty() -> PartialFn<K, V> {
        PartialFn { pairs: List::nil() }
    }

    /// The paper's `consPF`: extend with `key ↦ value` (shadowing any
    /// earlier binding for `key`).
    pub fn bind(&self, key: K, value: V) -> PartialFn<K, V> {
        PartialFn {
            pairs: self.pairs.cons((key, value)),
        }
    }

    /// The paper's `EvalPF`: apply to `key`; `None` is "bottom".
    pub fn eval(&self, key: &K) -> Option<&V> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is in the domain.
    pub fn is_defined_at(&self, key: &K) -> bool {
        self.eval(key).is_some()
    }

    /// The distinct keys in the domain (shadowed duplicates collapsed).
    pub fn domain(&self) -> Vec<K> {
        let mut out: Vec<K> = Vec::new();
        for (k, _) in self.pairs.iter() {
            if !out.iter().any(|seen| seen == k) {
                out.push(k.clone());
            }
        }
        out
    }

    /// Number of distinct keys in the domain.
    pub fn domain_len(&self) -> usize {
        self.domain().len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate `(key, value)` pairs, newest binding first (including
    /// shadowed pairs — callers wanting effective bindings should use
    /// [`PartialFn::domain`] + [`PartialFn::eval`]).
    pub fn iter(&self) -> crate::list::Iter<'_, (K, V)> {
        self.pairs.iter()
    }
}

impl<K: PartialEq + Clone, V: Clone> Default for PartialFn<K, V> {
    fn default() -> PartialFn<K, V> {
        PartialFn::empty()
    }
}

/// Extensional equality: two partial functions are equal when they have
/// the same domain and agree at every key, whatever their binding order
/// or shadowed pairs. Identical association lists denote the same
/// function, so the list comparison runs first — O(1) when both sides
/// share a spine — and only lists that differ pay the O(n²) walk over the
/// domain.
impl<K: PartialEq + Clone, V: PartialEq + Clone> PartialEq for PartialFn<K, V> {
    fn eq(&self, other: &PartialFn<K, V>) -> bool {
        if self.pairs == other.pairs {
            return true;
        }
        let da = self.domain();
        da.len() == other.domain_len() && da.iter().all(|k| self.eval(k) == other.eval(k))
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PartialFn<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.pairs.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K: PartialEq + Clone, V: Clone> FromIterator<(K, V)> for PartialFn<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> PartialFn<K, V> {
        let mut out = PartialFn::empty();
        for (k, v) in iter {
            out = out.bind(k, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_outside_domain_is_bottom() {
        let f: PartialFn<&str, i32> = PartialFn::empty();
        assert_eq!(f.eval(&"anything"), None);
        assert!(!f.is_defined_at(&"anything"));
    }

    #[test]
    fn newest_binding_shadows() {
        let f = PartialFn::empty().bind(1, "old").bind(1, "new");
        assert_eq!(f.eval(&1), Some(&"new"));
        assert_eq!(f.domain_len(), 1);
    }

    #[test]
    fn domain_collects_distinct_keys() {
        let f = PartialFn::empty().bind("a", 1).bind("b", 2).bind("a", 3);
        let mut d = f.domain();
        d.sort();
        assert_eq!(d, vec!["a", "b"]);
    }

    #[test]
    fn equality_is_extensional() {
        let f = PartialFn::empty().bind("a", 1).bind("b", 2);
        assert_eq!(f, f.clone());
        // Same function up to binding order and a shadowed pair.
        let g = PartialFn::empty().bind("b", 2).bind("a", 9).bind("a", 1);
        assert_eq!(f, g);
        assert_ne!(f, g.bind("a", 3));
        assert_ne!(f, f.bind("c", 3));
        assert_ne!(f.bind("c", 3), f);
    }

    #[test]
    fn bind_is_persistent() {
        let f = PartialFn::empty().bind("k", 1);
        let g = f.bind("k", 2);
        assert_eq!(f.eval(&"k"), Some(&1));
        assert_eq!(g.eval(&"k"), Some(&2));
    }
}
