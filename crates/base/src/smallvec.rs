//! A minimal inline-capacity vector for `Copy` elements.
//!
//! Overlay database nodes store tiny per-node deltas — typically one or two
//! fact ids added by a hypothetical premise `A[add: C̄]` — and the engines'
//! inner loops juggle equally small buffers: a rule's variable slots, the
//! trail of one match, the free variables of one premise, the constants of
//! one grounded atom. Boxing each in a `Vec` would put a heap allocation on
//! every candidate and every grounding; this type keeps up to `N` elements
//! inline and spills to a `Vec` only for the rare large case.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::Deref;

/// A vector storing up to `N` elements inline, spilling to the heap beyond.
///
/// Restricted to `Copy` element types, which keeps the inline buffer free of
/// drop obligations.
pub struct SmallVec<T: Copy, const N: usize>(Repr<T, N>);

enum Repr<T: Copy, const N: usize> {
    /// Up to `N` elements stored in place; `buf[..len]` is initialized.
    Inline { len: u32, buf: [MaybeUninit<T>; N] },
    /// Spilled storage for more than `N` elements.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> SmallVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        SmallVec(Repr::Inline {
            len: 0,
            buf: [MaybeUninit::uninit(); N],
        })
    }

    /// `n` copies of `x`, staying inline if they fit.
    pub fn from_elem(x: T, n: usize) -> Self {
        if n <= N {
            SmallVec(Repr::Inline {
                len: n as u32,
                buf: [MaybeUninit::new(x); N],
            })
        } else {
            SmallVec(Repr::Heap(vec![x; n]))
        }
    }

    /// Builds from a slice, staying inline if it fits.
    pub fn from_slice(xs: &[T]) -> Self {
        if xs.len() <= N {
            let mut buf = [MaybeUninit::uninit(); N];
            for (slot, &x) in buf.iter_mut().zip(xs) {
                *slot = MaybeUninit::new(x);
            }
            SmallVec(Repr::Inline {
                len: xs.len() as u32,
                buf,
            })
        } else {
            SmallVec(Repr::Heap(xs.to_vec()))
        }
    }

    /// Appends an element, spilling to the heap when the buffer is full.
    pub fn push(&mut self, x: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < N {
                    buf[n] = MaybeUninit::new(x);
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N + 1);
                    v.extend_from_slice(self.as_slice());
                    v.push(x);
                    self.0 = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(x),
        }
    }

    /// The initialized elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: `buf[..len]` is initialized by construction
                // (`new`/`from_slice`/`push` maintain the invariant), and
                // `MaybeUninit<T>` has the same layout as `T`.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<T>(), *len as usize) }
            }
            Repr::Heap(v) => v,
        }
    }

    /// The initialized elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                // SAFETY: same invariant as `as_slice`.
                unsafe {
                    std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), *len as usize)
                }
            }
            Repr::Heap(v) => v,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements live in the inline buffer.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Iterates over the elements by value.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, T>> {
        self.as_slice().iter().copied()
    }
}

impl<T: Copy, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_within_capacity() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn spills_to_heap_beyond_capacity() {
        let mut v: SmallVec<u32, 2> = SmallVec::from_slice(&[1, 2]);
        assert!(v.is_inline());
        v.push(3);
        assert!(!v.is_inline());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn from_slice_roundtrips_and_compares() {
        let a: SmallVec<u32, 4> = SmallVec::from_slice(&[5, 6]);
        let b: SmallVec<u32, 4> = [5, 6].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        let big: SmallVec<u32, 2> = SmallVec::from_slice(&[1, 2, 3, 4]);
        assert_eq!(big.len(), 4);
        assert_eq!(&big[1..3], &[2, 3], "deref to slice");
    }

    #[test]
    fn sorting_through_mut_slice_works_inline_and_spilled() {
        let mut v: SmallVec<u32, 4> = SmallVec::from_slice(&[3, 1, 2]);
        v.as_mut_slice().sort_unstable();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        let mut w: SmallVec<u32, 2> = SmallVec::from_slice(&[9, 4, 7]);
        w.as_mut_slice().sort_unstable();
        assert_eq!(w.as_slice(), &[4, 7, 9]);
    }

    #[test]
    fn from_elem_fills_inline_and_spilled() {
        let v: SmallVec<u32, 4> = SmallVec::from_elem(7, 3);
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[7, 7, 7]);
        let w: SmallVec<u32, 2> = SmallVec::from_elem(1, 3);
        assert!(!w.is_inline());
        assert_eq!(w.as_slice(), &[1, 1, 1]);
        let e: SmallVec<u32, 2> = SmallVec::from_elem(1, 0);
        assert!(e.is_empty());
    }

    #[test]
    fn empty_default_iterates_nothing() {
        let v: SmallVec<u32, 4> = SmallVec::default();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
    }
}
