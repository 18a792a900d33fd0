//! Resident interleaved batches: the SoA layout as a *residency*, not a
//! per-solve transform.
//!
//! The interleaved kernels ([`crate::interleaved`]) made the batched
//! sweeps fast, but a pipeline that packs on every solver call and
//! unpacks on every return pays two full transposes per solve — in the
//! committed phase profile that pack/unpack traffic is the single largest
//! phase. Gloster et al. (*Efficient Interleaved Batch Matrix Solvers*)
//! and the batched-Ginkgo SYCL work both keep batch data **resident** in
//! the interleaved layout across solver invocations; [`ResidentBatch`]
//! is that idea as a type.
//!
//! A [`ResidentBatch`] owns the [`InterleavedMatrix`] panels and a
//! monotonically increasing **generation tag**. Data is packed once at
//! pipeline ingress ([`ResidentBatch::pack`] /
//! [`ResidentBatch::pack_transposed`]), any number of solver calls
//! operate on the panels natively, and the host-layout [`Matrix`] is
//! produced once at egress. The generation tag bumps on *every* mutating
//! access — solver dispatches, per-lane writes, quarantine zeroing — so
//! the cached host mirror ([`ResidentBatch::host`]) can never resurrect
//! stale packed data after a lane was repaired or zeroed.

use crate::error::{Error, Result};
use crate::exec::{ExecSpace, Serial};
use crate::interleaved::InterleavedMatrix;
use crate::layout::Layout;
use crate::matrix::Matrix;

/// Cached host-layout mirror of the panels, keyed by the generation it
/// was unpacked at.
#[derive(Debug, Clone)]
struct HostMirror {
    generation: u64,
    transposed: bool,
    mat: Matrix,
}

/// An interleaved batch that stays packed across a multi-solve pipeline.
///
/// See the module docs for the residency contract. All mutating
/// accessors bump [`ResidentBatch::generation`]; the host mirror is
/// re-unpacked exactly when the generation moved since it was last
/// produced.
#[derive(Debug, Clone)]
pub struct ResidentBatch {
    panels: InterleavedMatrix,
    generation: u64,
    host: Option<HostMirror>,
}

impl ResidentBatch {
    /// Ingress: pack a host [`Matrix`] (either layout) into resident
    /// panels. One transpose pass, recorded under the `transpose` phase.
    pub fn pack(src: &Matrix) -> Self {
        Self::pack_with(&Serial, src)
    }

    /// [`ResidentBatch::pack`] as one region on `exec`.
    pub fn pack_with<E: ExecSpace>(exec: &E, src: &Matrix) -> Self {
        let mut out = Self::zeros(src.nrows(), src.ncols());
        out.panels
            .copy_from_matrix_with(exec, src, false)
            .expect("shapes match by construction");
        out
    }

    /// Ingress for a host mirror stored in the flipped orientation:
    /// logical element `(i, j)` of the batch is `src(j, i)`. Fuses the
    /// reorientation transpose and the pack into one pass.
    pub fn pack_transposed(src: &Matrix) -> Self {
        Self {
            panels: InterleavedMatrix::pack_transposed(src),
            generation: 1,
            host: None,
        }
    }

    /// Wrap already-interleaved panels (no transpose).
    pub fn from_panels(panels: InterleavedMatrix) -> Self {
        Self {
            panels,
            generation: 1,
            host: None,
        }
    }

    /// An all-zero resident batch.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self::from_panels(InterleavedMatrix::zeros(nrows, ncols))
    }

    /// Logical rows (the per-lane system size).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.panels.nrows()
    }

    /// Logical columns (live batch lanes).
    #[inline]
    pub fn ncols(&self) -> usize {
        self.panels.ncols()
    }

    /// The generation tag: bumps on every mutating access. Consumers
    /// caching anything derived from the panels (host mirrors,
    /// diagnostics) must key the cache on this value.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record a mutation: the next [`ResidentBatch::host`] call (and any
    /// external generation-keyed cache) re-reads the panels.
    #[inline]
    pub fn bump(&mut self) {
        self.generation += 1;
    }

    /// Read-only panel access (no generation bump).
    #[inline]
    pub fn panels(&self) -> &InterleavedMatrix {
        &self.panels
    }

    /// Mutable panel access. Bumps the generation unconditionally — the
    /// tag is conservative by design: a mutable borrow that writes
    /// nothing costs one spurious re-unpack, a missed bump resurrects
    /// stale data.
    #[inline]
    pub fn panels_mut(&mut self) -> &mut InterleavedMatrix {
        self.bump();
        &mut self.panels
    }

    /// Chunk-parallel visit of every panel, as
    /// [`InterleavedMatrix::for_each_chunk_mut`]. Bumps the generation.
    pub fn for_each_chunk_mut<E, F>(&mut self, exec: &E, f: F)
    where
        E: ExecSpace,
        F: Fn(usize, usize, &mut [f64]) + Sync + Send,
    {
        self.bump();
        self.panels.for_each_chunk_mut(exec, f);
    }

    /// Read logical element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.panels.get(i, j)
    }

    /// Write logical element `(i, j)`. Bumps the generation.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.bump();
        self.panels.set(i, j, v);
    }

    /// Gather one lane into `out` (scalar strided extraction — the
    /// repair/quarantine path; healthy lanes never take it).
    pub fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nrows(), "ResidentBatch lane length");
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.panels.get(i, lane);
        }
    }

    /// Gather one lane into a fresh `Vec`.
    pub fn lane_to_vec(&self, lane: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows()];
        self.copy_lane_into(lane, &mut out);
        out
    }

    /// Scatter `src` into one lane. Bumps the generation.
    pub fn write_lane(&mut self, lane: usize, src: &[f64]) {
        assert_eq!(src.len(), self.nrows(), "ResidentBatch lane length");
        self.bump();
        for (i, &v) in src.iter().enumerate() {
            self.panels.set(i, lane, v);
        }
    }

    /// Zero one lane (quarantine containment). Bumps the generation so a
    /// cached host mirror cannot resurrect the pre-quarantine values.
    pub fn zero_lane(&mut self, lane: usize) {
        self.bump();
        for i in 0..self.panels.nrows() {
            self.panels.set(i, lane, 0.0);
        }
    }

    /// Refill the panels from a host [`Matrix`] without reallocating
    /// (re-ingress of the next pipeline input). Bumps the generation.
    pub fn pack_from(&mut self, src: &Matrix) -> Result<()> {
        self.bump();
        self.panels.copy_from_matrix(src, false)
    }

    /// Refill from a flipped-orientation host mirror, as
    /// [`ResidentBatch::pack_transposed`]. Bumps the generation.
    pub fn pack_transposed_from(&mut self, src: &Matrix) -> Result<()> {
        self.bump();
        self.panels.copy_from_matrix(src, true)
    }

    /// Refill the panels from another resident batch of the same shape —
    /// a straight chunk-by-chunk memcpy, no transpose. Bumps the
    /// generation.
    pub fn copy_from(&mut self, src: &ResidentBatch) -> Result<()> {
        if self.panels.shape() != src.panels.shape() {
            return Err(Error::ShapeMismatch {
                op: "resident copy_from",
                left: self.panels.shape(),
                right: src.panels.shape(),
            });
        }
        self.bump();
        for c in 0..self.panels.num_chunks() {
            self.panels
                .chunk_mut(c)
                .copy_from_slice(src.panels.chunk(c));
        }
        Ok(())
    }

    /// Uncached egress into a caller-owned matrix (either layout).
    pub fn unpack_into(&self, dst: &mut Matrix) -> Result<()> {
        self.unpack_into_with(&Serial, dst)
    }

    /// [`ResidentBatch::unpack_into`] as one region on `exec`.
    pub fn unpack_into_with<E: ExecSpace>(&self, exec: &E, dst: &mut Matrix) -> Result<()> {
        self.panels.unpack_with(exec, dst, false)
    }

    /// Uncached flipped-orientation egress: `dst(j, i) = self(i, j)`.
    pub fn unpack_transposed_into(&self, dst: &mut Matrix) -> Result<()> {
        self.unpack_transposed_into_with(&Serial, dst)
    }

    /// [`ResidentBatch::unpack_transposed_into`] as one region on `exec`.
    pub fn unpack_transposed_into_with<E: ExecSpace>(
        &self,
        exec: &E,
        dst: &mut Matrix,
    ) -> Result<()> {
        self.panels.unpack_with(exec, dst, true)
    }

    /// Reorient into another resident batch (`dst` logical `(ncols,
    /// nrows)`), panel to panel. Bumps `dst`'s generation.
    pub fn transpose_into(&self, dst: &mut ResidentBatch) -> Result<()> {
        dst.bump();
        self.panels.transpose_into(&mut dst.panels)
    }

    /// `true` when the cached host mirror (of either orientation) still
    /// reflects the panels.
    pub fn is_host_fresh(&self) -> bool {
        self.host
            .as_ref()
            .is_some_and(|h| h.generation == self.generation)
    }

    /// Egress with a generation-keyed cache: the `(nrows, ncols)`
    /// lane-contiguous host mirror. Unpacked only when the generation
    /// moved since the mirror was last produced; a repeated call after a
    /// read-only stretch is free.
    pub fn host(&mut self) -> &Matrix {
        self.host_mirror(false)
    }

    /// Cached flipped-orientation egress: the `(ncols, nrows)` row-major
    /// host mirror (`dst(j, i) = self(i, j)`).
    pub fn host_transposed(&mut self) -> &Matrix {
        self.host_mirror(true)
    }

    fn host_mirror(&mut self, transposed: bool) -> &Matrix {
        let fresh = self
            .host
            .as_ref()
            .is_some_and(|h| h.generation == self.generation && h.transposed == transposed);
        if !fresh {
            let (nrows, ncols) = self.panels.shape();
            let mut mat = match self.host.take() {
                // Reuse the buffer when the orientation matches.
                Some(h) if h.transposed == transposed => h.mat,
                _ => {
                    if transposed {
                        Matrix::zeros(ncols, nrows, Layout::Right)
                    } else {
                        Matrix::zeros(nrows, ncols, Layout::Left)
                    }
                }
            };
            if transposed {
                self.panels
                    .unpack_transposed_into(&mut mat)
                    .expect("mirror shape fixed above");
            } else {
                self.panels
                    .unpack_into(&mut mat)
                    .expect("mirror shape fixed above");
            }
            self.host = Some(HostMirror {
                generation: self.generation,
                transposed,
                mat,
            });
        }
        &self.host.as_ref().expect("mirror just ensured").mat
    }

    /// Typed shape guard for solver entry points.
    pub fn check_rows(&self, expected: usize, op: &'static str) -> Result<()> {
        if self.nrows() != expected {
            return Err(Error::ShapeMismatch {
                op,
                left: (expected, self.ncols()),
                right: (self.nrows(), self.ncols()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallel;
    use crate::testrng::TestRng;

    fn random(n: usize, batch: usize, seed: u64, layout: Layout) -> Matrix {
        let mut rng = TestRng::seed_from_u64(seed);
        Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-4.0..4.0))
    }

    #[test]
    fn pack_host_round_trip_both_orientations() {
        for (n, batch) in [(1usize, 1usize), (5, 3), (4, 8), (7, 17)] {
            let src = random(n, batch, 3, Layout::Left);
            let mut r = ResidentBatch::pack(&src);
            assert_eq!(r.host().max_abs_diff(&src), 0.0, "{n}x{batch}");
            let mut rt = ResidentBatch::pack_transposed(&src);
            assert_eq!((rt.nrows(), rt.ncols()), (batch, n));
            assert_eq!(rt.host_transposed().max_abs_diff(&src), 0.0);
        }
    }

    #[test]
    fn generation_bumps_on_every_mutating_access() {
        let src = random(4, 10, 7, Layout::Left);
        let mut r = ResidentBatch::pack(&src);
        let mut g = r.generation();
        r.set(0, 0, 1.0);
        assert!(r.generation() > g);
        g = r.generation();
        let _ = r.panels_mut();
        assert!(r.generation() > g);
        g = r.generation();
        r.for_each_chunk_mut(&Serial, |_, _, _| {});
        assert!(r.generation() > g);
        g = r.generation();
        r.write_lane(3, &[0.0; 4]);
        assert!(r.generation() > g);
        g = r.generation();
        r.zero_lane(1);
        assert!(r.generation() > g);
        g = r.generation();
        r.pack_from(&src).unwrap();
        assert!(r.generation() > g);
        // Read-only accessors must not bump.
        g = r.generation();
        let _ = r.panels();
        let _ = r.get(0, 0);
        let _ = r.lane_to_vec(2);
        assert_eq!(r.generation(), g);
    }

    #[test]
    fn host_mirror_is_invalidated_by_zero_lane() {
        // The satellite regression in miniature: unpack, quarantine a
        // lane, unpack again — the second mirror must not resurrect the
        // stale packed data.
        let src = random(6, 9, 11, Layout::Left);
        let mut r = ResidentBatch::pack(&src);
        assert_eq!(r.host().max_abs_diff(&src), 0.0);
        assert!(r.is_host_fresh());
        r.zero_lane(4);
        assert!(!r.is_host_fresh());
        let host = r.host();
        for i in 0..6 {
            assert_eq!(host.get(i, 4), 0.0, "row {i} kept stale data");
        }
        assert_eq!(host.get(0, 3), src.get(0, 3));
    }

    #[test]
    fn host_mirror_cache_hits_when_clean() {
        let src = random(5, 12, 13, Layout::Left);
        let mut r = ResidentBatch::pack(&src);
        let _ = r.host();
        assert!(r.is_host_fresh());
        let g = r.generation();
        let _ = r.host();
        let _ = r.host();
        assert_eq!(r.generation(), g, "host() is a read");
        // Switching orientation re-unpacks but needs no generation move.
        assert_eq!(r.host_transposed().get(2, 3), src.get(3, 2));
        assert_eq!(r.host().get(3, 2), src.get(3, 2));
    }

    #[test]
    fn lane_scatter_gather_round_trips() {
        let src = random(7, 11, 17, Layout::Right);
        let mut r = ResidentBatch::pack(&src);
        let lane5 = r.lane_to_vec(5);
        for i in 0..7 {
            assert_eq!(lane5[i], src.get(i, 5));
        }
        let repl: Vec<f64> = (0..7).map(|i| i as f64).collect();
        r.write_lane(5, &repl);
        assert_eq!(r.lane_to_vec(5), repl);
        // Neighbouring lanes in the same chunk are untouched.
        for i in 0..7 {
            assert_eq!(r.get(i, 4), src.get(i, 4));
            assert_eq!(r.get(i, 6), src.get(i, 6));
        }
    }

    #[test]
    fn panel_transpose_matches_host_transpose() {
        let src = random(5, 13, 19, Layout::Left);
        let r = ResidentBatch::pack(&src);
        let mut t = ResidentBatch::zeros(13, 5);
        let g = t.generation();
        r.transpose_into(&mut t).unwrap();
        assert!(t.generation() > g);
        for i in 0..5 {
            for j in 0..13 {
                assert_eq!(t.get(j, i), src.get(i, j));
            }
        }
        // Shape mismatch is typed, not a panic.
        let mut wrong = ResidentBatch::zeros(5, 13);
        assert!(r.transpose_into(&mut wrong).is_err());
    }

    /// The `_with` forms are their exec-less shells on another execution
    /// space: same panels, same host bits, same generation bumps. 91 lanes
    /// and 67 rows make each move a region of several items on the pool.
    #[test]
    fn with_forms_match_their_serial_shells() {
        let src = random(67, 91, 23, Layout::Right);
        let serial = ResidentBatch::pack(&src);
        let pooled = ResidentBatch::pack_with(&Parallel, &src);
        assert_eq!(pooled.panels(), serial.panels());
        assert_eq!(pooled.generation(), serial.generation());

        let mut host = Matrix::zeros(67, 91, Layout::Left);
        pooled.unpack_into_with(&Parallel, &mut host).unwrap();
        assert_eq!(host.max_abs_diff(&src), 0.0);
        let mut host_t = Matrix::zeros(91, 67, Layout::Right);
        pooled
            .unpack_transposed_into_with(&Parallel, &mut host_t)
            .unwrap();
        assert_eq!(host_t.get(90, 66), src.get(66, 90));

        let mut refill = ResidentBatch::zeros(67, 91);
        let g_refill = refill.generation();
        refill.pack_transposed_from(&host_t).unwrap();
        assert_eq!(refill.panels(), serial.panels());
        assert!(refill.generation() > g_refill);
        // Typed errors come through the `_with` forms unchanged.
        assert!(pooled.unpack_into_with(&Parallel, &mut host_t).is_err());
    }

    #[test]
    fn check_rows_is_typed() {
        let r = ResidentBatch::zeros(4, 3);
        assert!(r.check_rows(4, "test").is_ok());
        assert!(r.check_rows(5, "test").is_err());
    }
}
