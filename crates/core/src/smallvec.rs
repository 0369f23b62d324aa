//! A minimal inline-first vector, `SmallVec<T, N>`, for hot-path
//! collections that are almost always tiny.
//!
//! The machine's per-operation data — declared footprint key lists from
//! [`SeqSpec::method_keys`](crate::spec::SeqSpec::method_keys) (nearly
//! always a single key) and the per-transaction [`LocalLog`]
//! (a handful of operations) — used to heap-allocate a `Vec` per
//! operation. `SmallVec` stores up to `N` elements inline on the stack
//! and only spills to the heap past that, so the common case performs
//! zero allocations (the §7-motivated *step complexity* concern).
//!
//! The implementation is deliberately small: `push`, `pop`, `remove` and
//! `clear`, plus slice access via `Deref`. Anything fancier should operate on the
//! `&[T]` slice view. (No external crates: the workspace is offline, so
//! this is written in-repo rather than depending on `smallvec`.)
//!
//! [`LocalLog`]: crate::log::LocalLog

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr;

/// An inline-first vector: up to `N` elements on the stack, spilling to
/// a heap `Vec` beyond that.
///
/// # Examples
///
/// ```
/// use pushpull_core::smallvec::SmallVec;
///
/// let mut v: SmallVec<u64, 2> = SmallVec::new();
/// v.push(3);
/// v.push(4);
/// assert_eq!(&v[..], &[3, 4]);
/// assert!(!v.spilled());
/// v.push(5); // exceeds the inline capacity
/// assert!(v.spilled());
/// assert_eq!(v.remove(0), 3);
/// assert_eq!(&v[..], &[4, 5]);
/// ```
pub struct SmallVec<T, const N: usize> {
    repr: Repr<T, N>,
}

enum Repr<T, const N: usize> {
    /// `len` elements of `buf` are initialized, in order.
    Inline {
        len: usize,
        buf: [MaybeUninit<T>; N],
    },
    Heap(Vec<T>),
}

impl<T, const N: usize> SmallVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        SmallVec {
            repr: Repr::Inline {
                len: 0,
                // SAFETY: an array of `MaybeUninit` is trivially "init".
                buf: unsafe { MaybeUninit::<[MaybeUninit<T>; N]>::uninit().assume_init() },
            },
        }
    }

    /// A one-element vector (no allocation when `N >= 1`).
    pub fn one(value: T) -> Self {
        let mut v = Self::new();
        v.push(value);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Has the vector spilled to the heap?
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            // SAFETY: the first `len` slots are initialized.
            Repr::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<T>(), *len)
            },
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            // SAFETY: the first `len` slots are initialized.
            Repr::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), *len)
            },
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Appends an element, spilling to the heap when the inline capacity
    /// is exhausted.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len < N {
                    buf[*len].write(value);
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2 + 1);
                    // SAFETY: all `N` slots are initialized; ownership
                    // moves into `v` and `len` is reset below so the
                    // inline slots are never touched again.
                    unsafe {
                        for slot in buf.iter() {
                            v.push(slot.as_ptr().read());
                        }
                    }
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element, if any.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    // SAFETY: slot `len` was initialized and is now out
                    // of the live prefix, so this read uniquely owns it.
                    Some(unsafe { buf[*len].as_ptr().read() })
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Removes and returns the element at `index`, shifting the tail
    /// left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                assert!(
                    index < *len,
                    "SmallVec::remove: index {index} out of bounds"
                );
                // SAFETY: slot `index` is initialized; after the read the
                // tail is shifted down over it so no slot is duplicated,
                // and the (now stale) last slot leaves the live prefix.
                unsafe {
                    let out = buf[index].as_ptr().read();
                    let base = buf.as_mut_ptr();
                    ptr::copy(base.add(index + 1), base.add(index), *len - index - 1);
                    *len -= 1;
                    out
                }
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Drops all elements.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let live = *len;
                *len = 0;
                for slot in buf.iter_mut().take(live) {
                    // SAFETY: the first `live` slots were initialized and
                    // `len` is already zeroed, so each is dropped once.
                    unsafe { slot.as_mut_ptr().drop_in_place() };
                }
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> Drop for SmallVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        self.as_slice().iter().cloned().collect()
    }
}

impl<T, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for SmallVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut SmallVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// Owned iteration over a [`SmallVec`], front to back.
#[derive(Debug)]
pub struct IntoIter<T, const N: usize> {
    /// The elements still to yield, last first.
    reversed: SmallVec<T, N>,
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.reversed.pop()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.reversed.len(), Some(self.reversed.len()))
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;

    fn into_iter(mut self) -> Self::IntoIter {
        self.reverse();
        IntoIter { reversed: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn inline_push_pop_roundtrip() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.push(3);
        assert!(!v.spilled());
        assert_eq!(&v[..], &[1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn spill_preserves_order() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(&v[..], &(0..10).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn remove_shifts_tail_inline_and_spilled() {
        let mut v: SmallVec<u64, 4> = (0..4).collect();
        assert!(!v.spilled());
        assert_eq!(v.remove(1), 1);
        assert_eq!(&v[..], &[0, 2, 3]);
        let mut w: SmallVec<u64, 2> = (0..5).collect();
        assert!(w.spilled());
        assert_eq!(w.remove(0), 0);
        assert_eq!(&w[..], &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_out_of_bounds_panics() {
        let mut v: SmallVec<u64, 2> = SmallVec::one(1);
        let _ = v.remove(1);
    }

    #[test]
    fn drops_exactly_once() {
        // Rc counts observe every clone drop: leaks or double-drops in
        // the unsafe inline code would skew the strong count.
        let token = Rc::new(());
        {
            let mut v: SmallVec<Rc<()>, 2> = SmallVec::new();
            for _ in 0..5 {
                v.push(Rc::clone(&token));
            }
            assert_eq!(Rc::strong_count(&token), 6);
            drop(v.remove(2));
            assert_eq!(Rc::strong_count(&token), 5);
            let mut inline: SmallVec<Rc<()>, 4> = SmallVec::new();
            inline.push(Rc::clone(&token));
            inline.push(Rc::clone(&token));
            drop(inline.pop());
            assert_eq!(Rc::strong_count(&token), 6);
            inline.clear();
            assert_eq!(Rc::strong_count(&token), 5);
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn equality_and_hash_follow_the_slice() {
        use std::collections::hash_map::DefaultHasher;
        let a: SmallVec<u64, 2> = (0..5).collect();
        let b: SmallVec<u64, 8> = (0..5).collect();
        assert_eq!(a.as_slice(), b.as_slice());
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn clone_is_deep() {
        let mut a: SmallVec<u64, 2> = (0..3).collect();
        let b = a.clone();
        a.push(99);
        assert_eq!(&b[..], &[0, 1, 2]);
        assert_eq!(a.last(), Some(&99));
    }
}
