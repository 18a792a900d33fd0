//! Strided 1-D views: the Rust equivalent of `Kokkos::subview(b, ALL, i)`.
//!
//! The paper's per-lane kernels (Listing 1's `SerialPttrsInternal`, the
//! fused kernel of Listing 4) operate on one right-hand-side lane described
//! by a base pointer and a stride `bs0`. [`Strided`] and [`StridedMut`] are
//! the safe packaging of exactly that: length + stride windows over a
//! borrowed slice.
//!
//! Hot-loop accesses use `Index`/`IndexMut`, which bounds-check in debug
//! builds and compile to raw strided loads in release builds (the underlying
//! slice access is still checked, but the optimiser removes the check when
//! the iteration bound is visible; performance-critical kernels in
//! `pp-linalg` iterate rather than index wherever possible, per the Rust
//! Performance Book's bounds-check guidance).

use std::ops::{Index, IndexMut};

/// Immutable strided view over `len` elements spaced `stride` apart.
#[derive(Clone, Copy)]
pub struct Strided<'a> {
    data: &'a [f64],
    len: usize,
    stride: usize,
}

impl<'a> Strided<'a> {
    /// View `len` elements of `data`, starting at `data[0]`, spaced
    /// `stride` elements apart.
    ///
    /// # Panics
    /// Panics if the last element would fall outside `data`.
    #[inline]
    pub fn new(data: &'a [f64], len: usize, stride: usize) -> Self {
        if len > 0 {
            let last = (len - 1) * stride;
            assert!(
                last < data.len(),
                "Strided::new: last index {last} out of bounds (len {})",
                data.len()
            );
        }
        Self { data, len, stride }
    }

    /// A contiguous view over an entire slice.
    #[inline]
    pub fn from_slice(data: &'a [f64]) -> Self {
        Self {
            len: data.len(),
            stride: 1,
            data,
        }
    }

    /// Number of elements visible through the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distance (in elements of the underlying slice) between consecutive
    /// view elements.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Iterate over the viewed elements by value.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| self.data[i * self.stride])
    }

    /// Copy the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl Index<usize> for Strided<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        debug_assert!(i < self.len, "Strided index {i} out of bounds {}", self.len);
        &self.data[i * self.stride]
    }
}

/// Mutable strided view over `len` elements spaced `stride` apart.
pub struct StridedMut<'a> {
    data: &'a mut [f64],
    len: usize,
    stride: usize,
}

impl<'a> StridedMut<'a> {
    /// Mutable view of `len` elements of `data` spaced `stride` apart.
    ///
    /// # Panics
    /// Panics if the last element would fall outside `data`.
    #[inline]
    pub fn new(data: &'a mut [f64], len: usize, stride: usize) -> Self {
        if len > 0 {
            let last = (len - 1) * stride;
            assert!(
                last < data.len(),
                "StridedMut::new: last index {last} out of bounds (len {})",
                data.len()
            );
        }
        Self { data, len, stride }
    }

    /// A contiguous mutable view over an entire slice.
    #[inline]
    pub fn from_slice(data: &'a mut [f64]) -> Self {
        Self {
            len: data.len(),
            stride: 1,
            data,
        }
    }

    /// Build a `StridedMut` from a raw pointer.
    ///
    /// Used by the lane dispatchers to hand each parallel worker a view of
    /// its own lane.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes over the strided footprint
    /// `(len - 1) * stride + 1`, and no other live reference may overlap
    /// that footprint for the lifetime `'a`.
    #[inline]
    pub(crate) unsafe fn from_raw(ptr: *mut f64, len: usize, stride: usize) -> Self {
        let footprint = if len == 0 { 0 } else { (len - 1) * stride + 1 };
        Self {
            data: std::slice::from_raw_parts_mut(ptr, footprint),
            len,
            stride,
        }
    }

    /// Number of elements visible through the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distance between consecutive view elements in the underlying slice.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Immutable re-borrow of this view.
    #[inline]
    pub fn as_ref(&self) -> Strided<'_> {
        Strided {
            data: self.data,
            len: self.len,
            stride: self.stride,
        }
    }

    /// Copy from a slice of identical length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn copy_from_slice(&mut self, src: &[f64]) {
        assert_eq!(self.len, src.len(), "copy_from_slice: length mismatch");
        for (i, &v) in src.iter().enumerate() {
            self.data[i * self.stride] = v;
        }
    }

    /// Fill with a constant.
    pub fn fill(&mut self, value: f64) {
        for i in 0..self.len {
            self.data[i * self.stride] = value;
        }
    }

    /// Copy the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_ref().to_vec()
    }
}

impl Index<usize> for StridedMut<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        debug_assert!(i < self.len);
        &self.data[i * self.stride]
    }
}

impl IndexMut<usize> for StridedMut<'_> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        debug_assert!(i < self.len);
        &mut self.data[i * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_reads_every_kth() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let v = Strided::new(&data, 4, 3);
        assert_eq!(v.to_vec(), vec![0.0, 3.0, 6.0, 9.0]);
        assert_eq!(v[2], 6.0);
        assert_eq!(v.len(), 4);
        assert_eq!(v.stride(), 3);
    }

    #[test]
    fn strided_mut_writes_every_kth() {
        let mut data = vec![0.0; 10];
        {
            let mut v = StridedMut::new(&mut data, 5, 2);
            for i in 0..5 {
                v[i] = i as f64;
            }
        }
        assert_eq!(data, vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strided_new_checks_footprint() {
        let data = vec![0.0; 5];
        let _ = Strided::new(&data, 3, 3); // last index 6 >= 5
    }

    #[test]
    fn empty_views_are_fine() {
        let data: Vec<f64> = vec![];
        let v = Strided::new(&data, 0, 1);
        assert!(v.is_empty());
        assert_eq!(v.to_vec(), Vec::<f64>::new());
    }

    #[test]
    fn copy_from_slice_and_fill() {
        let mut data = vec![0.0; 6];
        let mut v = StridedMut::new(&mut data, 3, 2);
        v.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.to_vec(), vec![1.0, 2.0, 3.0]);
        v.fill(9.0);
        assert_eq!(data, vec![9.0, 0.0, 9.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn from_raw_round_trips() {
        let mut data = vec![0.0; 8];
        let ptr = data.as_mut_ptr();
        // SAFETY: exclusive access, footprint (4-1)*2+1 = 7 <= 8.
        {
            let mut v = unsafe { StridedMut::from_raw(ptr, 4, 2) };
            v.fill(5.0);
        }
        assert_eq!(data, vec![5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0]);
    }
}
