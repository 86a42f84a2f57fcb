//! Small persistent sets built on cons lists.
//!
//! LINGUIST-86 represents sets as linked lists; its semantic-function
//! library includes `union$setof` (add one element), `union` (set union) and
//! `IsIn` (membership), all visible in the paper's p.165 production. [`LSet`]
//! provides exactly those operations with the same persistent-sharing
//! behaviour.

use crate::list::List;
use std::fmt;

/// A persistent set represented as a duplicate-free cons list.
///
/// Membership and the set operations are O(n)/O(n²) like the original
/// linked-list representation — these sets are small (attribute-occurrence
/// sets, function sets) and the point is fidelity to the evaluation model,
/// not asymptotics. Equality is the exception: it is O(1) on a shared
/// spine and O(n) on a length mismatch, and only walks both sets when
/// neither shortcut decides.
///
/// # Example
///
/// ```
/// use linguist_support::set::LSet;
/// let s = LSet::empty().with(1).with(2).with(1);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(&2));
/// ```
#[derive(Clone)]
pub struct LSet<T> {
    items: List<T>,
}

impl<T: PartialEq + Clone> LSet<T> {
    /// The empty set.
    pub fn empty() -> LSet<T> {
        LSet { items: List::nil() }
    }

    /// The paper's `union$setof`: `self ∪ {value}`. Returns a set sharing
    /// `self`'s spine when `value` is already present.
    pub fn with(&self, value: T) -> LSet<T> {
        if self.contains(&value) {
            self.clone()
        } else {
            LSet {
                items: self.items.cons(value),
            }
        }
    }

    /// The paper's `IsIn`: membership test.
    pub fn contains(&self, value: &T) -> bool {
        self.items.iter().any(|v| v == value)
    }

    /// The paper's `union`: `self ∪ other`.
    pub fn union(&self, other: &LSet<T>) -> LSet<T> {
        let mut out = other.clone();
        for v in self.items.iter() {
            out = out.with(v.clone());
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &LSet<T>) -> LSet<T> {
        let mut out = LSet::empty();
        for v in self.items.iter() {
            if other.contains(v) {
                out = out.with(v.clone());
            }
        }
        out
    }

    /// Elements of `self` not in `other`.
    pub fn difference(&self, other: &LSet<T>) -> LSet<T> {
        let mut out = LSet::empty();
        for v in self.items.iter() {
            if !other.contains(v) {
                out = out.with(v.clone());
            }
        }
        out
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &LSet<T>) -> bool {
        self.items.iter().all(|v| other.contains(v))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over elements (most recently added first).
    pub fn iter(&self) -> crate::list::Iter<'_, T> {
        self.items.iter()
    }

    /// The underlying list.
    pub fn as_list(&self) -> &List<T> {
        &self.items
    }
}

impl<T: PartialEq + Clone> Default for LSet<T> {
    fn default() -> LSet<T> {
        LSet::empty()
    }
}

/// Order-insensitive equality. A shared spine is equal in O(1); sets are
/// duplicate-free by construction, so different lengths are unequal in
/// O(n); only same-length sets on distinct spines pay the O(n²) mutual
/// subset check.
impl<T: PartialEq + Clone> PartialEq for LSet<T> {
    fn eq(&self, other: &LSet<T>) -> bool {
        if self.items.same_spine(&other.items) {
            return true;
        }
        self.len() == other.len() && self.is_subset(other) && other.is_subset(self)
    }
}

impl<T: Eq + Clone> Eq for LSet<T> {}

impl<T: fmt::Debug> fmt::Debug for LSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: PartialEq + Clone> FromIterator<T> for LSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> LSet<T> {
        let mut out = LSet::empty();
        for v in iter {
            out = out.with(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_deduplicates() {
        let s: LSet<i32> = [1, 2, 2, 3, 1].into_iter().collect();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn with_existing_shares_spine() {
        let s = LSet::empty().with(1).with(2);
        let t = s.with(1);
        assert!(s.as_list().same_spine(t.as_list()));
    }

    #[test]
    fn union_contains_both() {
        let a: LSet<i32> = [1, 2].into_iter().collect();
        let b: LSet<i32> = [2, 3].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        for v in [1, 2, 3] {
            assert!(u.contains(&v));
        }
    }

    #[test]
    fn equality_ignores_order() {
        let a: LSet<i32> = [1, 2, 3].into_iter().collect();
        let b: LSet<i32> = [3, 1, 2].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shared_spines_are_equal() {
        let a: LSet<i32> = [1, 2, 3].into_iter().collect();
        assert_eq!(a, a.clone());
        assert_eq!(a, a.with(2));
    }

    #[test]
    fn different_lengths_are_unequal() {
        let a: LSet<i32> = [1, 2, 3].into_iter().collect();
        let b: LSet<i32> = [1, 2].into_iter().collect();
        assert_ne!(a, b);
        assert_ne!(b, a);
        assert_ne!(LSet::empty(), b);
    }

    #[test]
    fn intersection_and_difference() {
        let a: LSet<i32> = [1, 2, 3, 4].into_iter().collect();
        let b: LSet<i32> = [3, 4, 5].into_iter().collect();
        assert_eq!(a.intersection(&b), [3, 4].into_iter().collect());
        assert_eq!(a.difference(&b), [1, 2].into_iter().collect());
    }

    #[test]
    fn subset_relation() {
        let a: LSet<i32> = [1, 2].into_iter().collect();
        let b: LSet<i32> = [1, 2, 3].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(LSet::<i32>::empty().is_subset(&a));
    }
}
