//! [`Lines`]: doubles that start a 64-byte cache line — the one aligned
//! buffer of the workspace.
//!
//! An interleaved panel row is eight doubles, one cache line and one
//! AVX-512 register, and a row stored across two lines costs a store half as
//! much again (DESIGN.md §14.3). Every panel of an
//! [`crate::ResidentBatch`] and every hot per-worker scratch — the
//! evaluator's columns, the solve's panels — is therefore entered at a
//! line: a `Vec` seven doubles longer than asked,
//! sliced from its first boundary. No `unsafe`, no custom allocator.

use crate::interleaved::LANE_WIDTH;

/// Zeroed doubles that start a 64-byte cache line: a `Vec` of `len + 7`,
/// entered at its first line (module docs). Dereferences to the `len`
/// doubles from there.
#[derive(Debug, Default)]
pub struct Lines {
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl Lines {
    /// No doubles, allocating nothing: where a scratch starts.
    pub const fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// `len` zeros, the first at a line.
    pub fn zeros(len: usize) -> Self {
        let buf = vec![0.0; len + LANE_WIDTH - 1];
        let start = (64 - buf.as_ptr() as usize % 64) % 64 / size_of::<f64>();
        Self { buf, start, len }
    }

    /// The first `len` doubles. A shorter buffer first grows — the one way a
    /// `Lines` grows — into `len` zeros, entered at the new allocation's
    /// first line; what it held is dropped. A long enough one is lent as it
    /// is, holding whatever it was last left.
    pub fn at_least(&mut self, len: usize) -> &mut [f64] {
        if self.len < len {
            *self = Self::zeros(len);
        }
        &mut self[..len]
    }
}

impl std::ops::Deref for Lines {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf[self.start..][..self.len]
    }
}

impl std::ops::DerefMut for Lines {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..][..self.len]
    }
}

impl Clone for Lines {
    fn clone(&self) -> Self {
        let mut copy = Self::zeros(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for Lines {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}
