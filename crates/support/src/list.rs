//! Persistent cons lists — the list-processing package.
//!
//! The paper stores "the linked lists that represent sets, sequences, and
//! partial functions" in its dynamic-data area. Semantic functions are pure,
//! so list values must be shareable without copying: a classic persistent
//! cons list with `Arc`-shared tails (`cons` is O(1) and never mutates).
//! Atomic reference counts make lists `Send + Sync`, so evaluator values
//! built on them can cross threads in the parallel batch driver.

use std::fmt;
use std::sync::Arc;

/// A persistent singly linked list.
///
/// `cons` prepends in O(1); tails are shared. This is the value
/// representation used by LINGUIST-86 semantic functions such as
/// `cons$msg`, `cons2`, `cons3`, and `merge$msgs` in the paper's figures.
///
/// # Example
///
/// ```
/// use linguist_support::list::List;
/// let xs = List::nil().cons(3).cons(2).cons(1);
/// assert_eq!(xs.len(), 3);
/// assert_eq!(xs.head(), Some(&1));
/// ```
pub struct List<T> {
    node: Option<Arc<Node<T>>>,
}

struct Node<T> {
    head: T,
    tail: List<T>,
}

impl<T> List<T> {
    /// The empty list.
    pub fn nil() -> List<T> {
        List { node: None }
    }

    /// Prepend `value`, sharing `self` as the tail.
    pub fn cons(&self, value: T) -> List<T> {
        List {
            node: Some(Arc::new(Node {
                head: value,
                tail: self.clone(),
            })),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.node.is_none()
    }

    /// The first element, if any.
    pub fn head(&self) -> Option<&T> {
        self.node.as_deref().map(|n| &n.head)
    }

    /// The list after the first element, if any.
    pub fn tail(&self) -> Option<&List<T>> {
        self.node.as_deref().map(|n| &n.tail)
    }

    /// Number of elements (O(n)).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Iterate front to back.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { cur: self }
    }

    /// Pointer equality of the underlying first node — O(1) sharing check,
    /// used by tests asserting tails are shared rather than copied.
    pub fn same_spine(&self, other: &List<T>) -> bool {
        match (&self.node, &other.node) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T: Clone> List<T> {
    /// Append `other` after `self` (copies `self`'s spine, shares `other`).
    /// This is the paper's `merge$msgs` shape.
    pub fn append(&self, other: &List<T>) -> List<T> {
        let mut items: Vec<T> = self.iter().cloned().collect();
        let mut out = other.clone();
        while let Some(v) = items.pop() {
            out = out.cons(v);
        }
        out
    }

    /// Reverse the list.
    pub fn reversed(&self) -> List<T> {
        let mut out = List::nil();
        for v in self.iter() {
            out = out.cons(v.clone());
        }
        out
    }

    /// Collect into a `Vec` front to back.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> List<T> {
        List {
            node: self.node.clone(),
        }
    }
}

impl<T> Default for List<T> {
    fn default() -> List<T> {
        List::nil()
    }
}

/// Structural equality that stops at shared structure: the walk returns
/// `true` as soon as both remaining tails are the same node, so two lists
/// that share a spine compare in O(1) and lists that share a suffix only
/// compare their distinct prefixes.
impl<T: PartialEq> PartialEq for List<T> {
    fn eq(&self, other: &List<T>) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            if a.same_spine(b) {
                return true;
            }
            match (a.node.as_deref(), b.node.as_deref()) {
                (Some(x), Some(y)) if x.head == y.head => {
                    a = &x.tail;
                    b = &y.tail;
                }
                _ => return false,
            }
        }
    }
}

impl<T: Eq> Eq for List<T> {}

impl<T: fmt::Debug> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> FromIterator<T> for List<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> List<T> {
        let items: Vec<T> = iter.into_iter().collect();
        let mut out = List::nil();
        for v in items.into_iter().rev() {
            out = out.cons(v);
        }
        out
    }
}

/// Iterator over list elements, front to back.
pub struct Iter<'a, T> {
    cur: &'a List<T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let node = self.cur.node.as_deref()?;
        self.cur = &node.tail;
        Some(&node.head)
    }
}

impl<T> Drop for List<T> {
    // Iterative drop: a long shared spine would otherwise recurse and can
    // blow the stack on the deep lists the evaluator builds.
    fn drop(&mut self) {
        let mut next = self.node.take();
        while let Some(rc) = next {
            match Arc::try_unwrap(rc) {
                Ok(mut node) => next = node.tail.node.take(),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cons_and_iter() {
        let xs: List<i32> = [1, 2, 3].into_iter().collect();
        assert_eq!(xs.to_vec(), vec![1, 2, 3]);
        assert_eq!(xs.head(), Some(&1));
        assert_eq!(xs.tail().unwrap().to_vec(), vec![2, 3]);
    }

    #[test]
    fn cons_shares_tail() {
        let base: List<i32> = [9].into_iter().collect();
        let a = base.cons(1);
        let b = base.cons(2);
        assert!(a.tail().unwrap().same_spine(&base));
        assert!(b.tail().unwrap().same_spine(&base));
        assert!(!a.same_spine(&b));
    }

    #[test]
    fn append_shares_right_operand() {
        let left: List<i32> = [1, 2].into_iter().collect();
        let right: List<i32> = [3, 4].into_iter().collect();
        let both = left.append(&right);
        assert_eq!(both.to_vec(), vec![1, 2, 3, 4]);
        assert!(both.tail().unwrap().tail().unwrap().same_spine(&right));
    }

    #[test]
    fn equality_is_structural() {
        let a: List<i32> = [1, 2, 3].into_iter().collect();
        let b: List<i32> = [1, 2, 3].into_iter().collect();
        let c: List<i32> = [1, 2].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shared_spines_are_equal() {
        let a: List<i32> = [1, 2, 3].into_iter().collect();
        let b = a.clone();
        assert!(a.same_spine(&b));
        assert_eq!(a, b);
        assert_eq!(List::<i32>::nil(), List::nil());
    }

    #[test]
    fn shared_tail_under_different_heads_is_unequal() {
        let tail: List<i32> = [7, 8, 9].into_iter().collect();
        let a = tail.cons(2).cons(1);
        let b = tail.cons(3).cons(1);
        assert_ne!(a, b);
        // Equal heads over a shared tail are equal without walking it.
        assert_eq!(tail.cons(2).cons(1), a);
    }

    #[test]
    fn reversed_reverses() {
        let a: List<i32> = [1, 2, 3].into_iter().collect();
        assert_eq!(a.reversed().to_vec(), vec![3, 2, 1]);
        assert_eq!(List::<i32>::nil().reversed().to_vec(), Vec::<i32>::new());
    }

    #[test]
    fn deep_list_drops_without_overflow() {
        let mut xs = List::nil();
        for i in 0..200_000 {
            xs = xs.cons(i);
        }
        assert_eq!(xs.len(), 200_000);
        drop(xs); // must not overflow the stack
    }

    #[test]
    fn debug_is_nonempty() {
        let xs: List<i32> = List::nil();
        assert_eq!(format!("{:?}", xs), "[]");
    }
}
