//! One sweep body per routine, over the workspace's lane-vector trait.
//!
//! The solves of this crate are strictly sequential *along the matrix
//! dimension* and embarrassingly parallel *across lanes* (the paper's
//! Listing 1), so a forward/backward sweep is the same sequence of row
//! operations whether a "row" is one `f64` of one strided lane or the
//! `[f64; LANE_WIDTH]` of eight interleaved lanes (Gloster et al.,
//! PAPERS.md). This module says that once:
//!
//! * the row value is a [`pp_portable::Lanes`] — `f64`, `[f64; LANE_WIDTH]`,
//!   or `P` of those — and a sweep uses two of its operations: `x − a·y` is
//!   the fused `splat(−a).mul_add(y, x)`, rounded once (negation is exact,
//!   so it is `x − a·y` rounded once) and a pivot is a `mul`. None divides:
//!   one matrix serves the whole batch, so every pivot's reciprocal is
//!   taken once, at factor time (DESIGN.md §13.2);
//! * [`LaneRows`] is the row accessor, implemented for [`StridedMut`]
//!   (one lane of a [`pp_portable::Matrix`]), for [`Panel`] (one chunk
//!   of a [`pp_portable::ResidentBatch`], its rows by `as_chunks_mut`) and
//!   for `[Panel; P]` (`P` panels abreast, whose row is `P` panel rows);
//! * [`pttrs`], [`pbtrs`], [`gbtrs`] and [`getrs`] are the **only**
//!   forward/backward sweeps of those routines in the crate (outside the
//!   `naive` reference and the transposed solves of the condition
//!   estimator). `solve_lane` and the `*_resident` drivers are
//!   instantiations.
//!
//! Every lane therefore performs the same operations in the same order
//! in every instantiation, for every input and every batch width: the
//! bit-identity of DESIGN.md §13.2 holds by construction, padding lanes
//! of a partial final panel included (they run the same body on zeros
//! and are never read back), and a lane's bits do not depend on how many
//! panels were advanced beside its own. Sweeps and accessors are
//! `#[inline(always)]`: a caller that runs them inside a
//! `#[target_feature]` shell gets them at that shell's width, and the one
//! lane of `solve_lane` runs in [`pp_portable::run_scalar`], so its
//! multiply-adds are FMA instructions too.
//!
//! [`LaneRows`] and [`Panel`] are exported so `pp-splinesolver` can write
//! the fused Schur sequence once over the same accessor.

use crate::banded::BandedLu;
use crate::pb::CholeskyBanded;
use pp_portable::{Lanes, Matrix, StridedMut, LANE_WIDTH};

/// `x − a·y` rounded once, per lane, the update of every sweep: negation
/// is exact, so the fused `(−a)·y + x` has its bits.
#[inline(always)]
fn minus<V: Lanes>(x: V, a: f64, y: V) -> V {
    V::splat(-a).mul_add(y, x)
}

/// Row access to the right-hand side a sweep updates in place.
pub trait LaneRows {
    /// The row value: one lane or [`LANE_WIDTH`] of them.
    type V: Lanes;
    /// Read row `i`.
    fn get(&self, i: usize) -> Self::V;
    /// Write row `i`.
    fn set(&mut self, i: usize, v: Self::V);
    /// Exchange rows `i` and `j` (the pivot sequence is a property of the
    /// factors, so interchanges apply to every lane alike).
    fn swap(&mut self, i: usize, j: usize);

    /// The sweep is about to touch rows up to `i`, in ascending order: the
    /// forward passes of `pttrs`, `pbtrs` and `gbtrs` say so row by
    /// row, band width ahead, and the backward passes once, so an accessor
    /// whose rows still lie elsewhere brings them in here, a few tiles of
    /// eight ahead, instead of in a pass of their own. Nothing for an
    /// accessor over rows in place.
    #[inline(always)]
    fn ingress(&mut self, _i: usize) {}

    /// `row[i] += a · row[k]` — the sparse COO corner correction of the
    /// fused Algorithm 1.
    #[inline(always)]
    fn row_axpy(&mut self, i: usize, k: usize, a: f64) {
        let v = Self::V::splat(a).mul_add(self.get(k), self.get(i));
        self.set(i, v);
    }

    /// `row[y0 + i] −= Σⱼ a(i, j) · row[x0 + j]` — the dense `gemv`
    /// corner correction (`α = −1`, `β = 1`), accumulated before it is
    /// subtracted as the BLAS kernel does.
    #[inline(always)]
    fn gemv_sub(&mut self, y0: usize, a: &Matrix, x0: usize) {
        let (m, n) = a.shape();
        for i in 0..m {
            let mut s = Self::V::splat(0.0);
            for j in 0..n {
                s = Self::V::splat(a.get(i, j)).mul_add(self.get(x0 + j), s);
            }
            let y = self.get(y0 + i).sub(s);
            self.set(y0 + i, y);
        }
    }
}

impl LaneRows for StridedMut<'_> {
    type V = f64;
    #[inline(always)]
    fn get(&self, i: usize) -> f64 {
        self[i]
    }
    #[inline(always)]
    fn set(&mut self, i: usize, v: f64) {
        self[i] = v;
    }
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        let t = self[i];
        self[i] = self[j];
        self[j] = t;
    }
}

/// One `[nrows][LANE_WIDTH]` chunk of an interleaved batch, viewed as
/// rows of [`LANE_WIDTH`] lanes.
pub struct Panel<'a>(&'a mut [[f64; LANE_WIDTH]]);

impl<'a> Panel<'a> {
    /// View a raw chunk (as handed out by
    /// [`pp_portable::ResidentBatch::for_each_chunk_mut`]) as `nrows`
    /// rows of lanes.
    ///
    /// # Panics
    /// Panics if the chunk length is not `nrows * LANE_WIDTH`.
    #[inline]
    pub fn new(chunk: &'a mut [f64], nrows: usize) -> Self {
        assert_eq!(
            chunk.len(),
            nrows * LANE_WIDTH,
            "interleaved: panel length must be nrows * LANE_WIDTH"
        );
        Panel(chunk.as_chunks_mut().0)
    }

    /// The panel's values, row after row, to overwrite.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.0.as_flattened_mut()
    }
}

impl LaneRows for Panel<'_> {
    type V = [f64; LANE_WIDTH];
    #[inline(always)]
    fn get(&self, i: usize) -> Self::V {
        self.0[i]
    }
    #[inline(always)]
    fn set(&mut self, i: usize, v: Self::V) {
        self.0[i] = v;
    }
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        self.0.swap(i, j);
    }
}

/// `P` accessors advanced abreast — `[Panel; P]`: row `i` is row `i` of
/// each, so one step of a sweep is `P` independent recurrences and the wait
/// for one panel's previous row is filled with the others' (DESIGN.md
/// §13.2). A pure regrouping: every lane of every panel sees the operations
/// it would see alone.
impl<R: LaneRows, const P: usize> LaneRows for [R; P] {
    type V = [R::V; P];
    #[inline(always)]
    fn get(&self, i: usize) -> Self::V {
        std::array::from_fn(|p| self[p].get(i))
    }
    #[inline(always)]
    fn set(&mut self, i: usize, v: Self::V) {
        for (rows, row) in self.iter_mut().zip(v) {
            rows.set(i, row);
        }
    }
    #[inline(always)]
    fn swap(&mut self, i: usize, j: usize) {
        for rows in self {
            rows.swap(i, j);
        }
    }
}

/// `pttrs`: solve `L·D·Lᵀ x = b` on rows `row0..row0 + d_inv.len()`, given
/// the `pttrf` factors: `d_inv` the reciprocals of `D`'s diagonal, `e` the
/// multipliers — the paper's Listing 1 (`SerialPttrsInternal::invoke`) with
/// its per-row divide taken once at factor time.
///
/// The row a step has just computed is handed on in `carry`, not read back
/// from `rows`: re-read, each step waits for a store-to-load forward on top
/// of its two operations (4.8 against 6.8–7.2 ns a panel row,
/// EXPERIMENTS.md). Same operations in the same order either way.
#[inline(always)]
pub(crate) fn pttrs<R: LaneRows>(d_inv: &[f64], e: &[f64], rows: &mut R, row0: usize) {
    let n = d_inv.len();
    debug_assert_eq!(e.len(), n.saturating_sub(1));
    if n == 0 {
        return;
    }
    // Solve L * x = b (unit lower bidiagonal with multipliers e).
    rows.ingress(row0);
    let mut carry = rows.get(row0);
    for i in 1..n {
        rows.ingress(row0 + i);
        carry = minus(rows.get(row0 + i), e[i - 1], carry);
        rows.set(row0 + i, carry);
    }
    // Solve D * L**T * x = b.
    carry = carry.mul(R::V::splat(d_inv[n - 1]));
    rows.set(row0 + n - 1, carry);
    for i in (0..n - 1).rev() {
        carry = minus(rows.get(row0 + i).mul(R::V::splat(d_inv[i])), e[i], carry);
        rows.set(row0 + i, carry);
    }
}

/// `pbtrs`: solve `L·Lᵀ x = b` on rows `row0..row0 + f.n()`;
/// [`CholeskyBanded::l`]`(j, j)` is `1 / L(j, j)`.
#[inline(always)]
pub(crate) fn pbtrs<R: LaneRows>(f: &CholeskyBanded, rows: &mut R, row0: usize) {
    let n = f.n();
    let kd = f.kd();
    // Forward: L y = b.
    for j in 0..n {
        let last = (j + kd).min(n - 1);
        rows.ingress(row0 + last);
        let yj = rows.get(row0 + j).mul(R::V::splat(f.l(j, j)));
        rows.set(row0 + j, yj);
        for i in j + 1..=last {
            let v = minus(rows.get(row0 + i), f.l(i, j), yj);
            rows.set(row0 + i, v);
        }
    }
    // Backward: Lᵀ x = y.
    for j in (0..n).rev() {
        let mut s = rows.get(row0 + j);
        for i in j + 1..=(j + kd).min(n - 1) {
            s = minus(s, f.l(i, j), rows.get(row0 + i));
        }
        rows.set(row0 + j, s.mul(R::V::splat(f.l(j, j))));
    }
}

/// `gbtrs` (no transpose): solve `P·L·U x = b` on rows
/// `row0..row0 + f.n()`; [`BandedLu::factor`]`(j, j)` is `1 / U(j, j)`.
#[inline(always)]
pub(crate) fn gbtrs<R: LaneRows>(f: &BandedLu, rows: &mut R, row0: usize) {
    let n = f.n();
    let kl = f.kl_internal();
    let kv = f.upper_bandwidth();
    let ipiv = f.pivots();
    // Forward: apply P and L (unit lower, bandwidth kl).
    for j in 0..n.saturating_sub(1) {
        let band = kl.min(n - 1 - j);
        rows.ingress(row0 + j + band);
        let p = ipiv[j];
        if p != j {
            rows.swap(row0 + j, row0 + p);
        }
        let bj = rows.get(row0 + j);
        for i in 1..=band {
            let v = minus(rows.get(row0 + j + i), f.factor(j + i, j), bj);
            rows.set(row0 + j + i, v);
        }
    }
    // Backward: solve U x = b (bandwidth kv = kl + ku after fill-in).
    if let Some(last) = n.checked_sub(1) {
        rows.ingress(row0 + last);
    }
    for j in (0..n).rev() {
        let xj = rows.get(row0 + j).mul(R::V::splat(f.factor(j, j)));
        rows.set(row0 + j, xj);
        for i in 1..=kv.min(j) {
            let v = minus(rows.get(row0 + j - i), f.factor(j - i, j), xj);
            rows.set(row0 + j - i, v);
        }
    }
}

/// `getrs` (no transpose): solve `P·L·U x = b` on rows
/// `row0..row0 + lu.nrows()`, given the packed `getrf` output with the
/// reciprocals of `U`'s diagonal on the diagonal — mirrors
/// `KokkosBatched::SerialGetrs`.
#[inline(always)]
pub(crate) fn getrs<R: LaneRows>(lu: &Matrix, ipiv: &[usize], rows: &mut R, row0: usize) {
    let n = lu.nrows();
    debug_assert_eq!(ipiv.len(), n);
    // Apply row interchanges: b ← P b.
    for i in 0..n {
        let p = ipiv[i];
        if p != i {
            rows.swap(row0 + i, row0 + p);
        }
    }
    // Forward solve with unit lower triangle.
    for i in 1..n {
        let mut s = rows.get(row0 + i);
        for k in 0..i {
            s = minus(s, lu.get(i, k), rows.get(row0 + k));
        }
        rows.set(row0 + i, s);
    }
    // Backward solve with upper triangle.
    for i in (0..n).rev() {
        let mut s = rows.get(row0 + i);
        for k in i + 1..n {
            s = minus(s, lu.get(i, k), rows.get(row0 + k));
        }
        rows.set(row0 + i, s.mul(R::V::splat(lu.get(i, i))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_rows_are_the_chunk_rows() {
        let mut chunk: Vec<f64> = (0..3 * LANE_WIDTH).map(|v| v as f64).collect();
        let mut p = Panel::new(&mut chunk, 3);
        assert_eq!(p.get(1)[0], LANE_WIDTH as f64);
        p.swap(0, 2);
        p.row_axpy(1, 0, -2.0);
        for l in 0..LANE_WIDTH {
            let (r0, r1, r2) = (
                l as f64,
                (LANE_WIDTH + l) as f64,
                (2 * LANE_WIDTH + l) as f64,
            );
            assert_eq!(chunk[l], r2);
            assert_eq!(chunk[LANE_WIDTH + l], r1 - 2.0 * r2);
            assert_eq!(chunk[2 * LANE_WIDTH + l], r0);
        }
    }

    #[test]
    #[should_panic(expected = "panel length must be nrows * LANE_WIDTH")]
    fn panel_rejects_a_ragged_chunk() {
        let mut chunk = vec![0.0; 2 * LANE_WIDTH + 1];
        let _ = Panel::new(&mut chunk, 2);
    }

    /// Panels abreast are the panels alone: every sweep over `[Panel; 3]`
    /// leaves each panel the bits the same sweep leaves it on its own
    /// (toy size; `tests/interleaved.rs` holds the full table).
    #[test]
    fn abreast_sweeps_are_the_panels_alone_bitwise() {
        use crate::{gbtrf, getrf, pbtrf, pttrf, BandedMatrix, SymBandedMatrix};
        let n = if cfg!(miri) { 5 } else { 11 };
        let entry = |i: usize, j: usize| if i == j { 4.5 } else { -1.0 + 0.125 * i as f64 };
        let pt = pttrf(&vec![4.0; n], &vec![-1.25; n - 1]).unwrap();
        let pb =
            pbtrf(&SymBandedMatrix::from_fn(n, 2, |i, j| if i == j { 6.0 } else { -1.0 }).unwrap())
                .unwrap();
        let gb = gbtrf(&BandedMatrix::from_fn(n, 2, 1, entry).unwrap()).unwrap();
        let dominant = |i: usize, j: usize| if i == j { n as f64 } else { entry(i, j) };
        let lu = getrf(&Matrix::from_fn(n, n, pp_portable::Layout::Right, dominant)).unwrap();
        let rhs = |p: usize| -> Vec<f64> {
            (0..n * LANE_WIDTH)
                .map(|k| ((k * 7 + p * 13) % 17) as f64 - 8.0)
                .collect()
        };
        macro_rules! check {
            ($name:literal, $solve:expr) => {{
                let alone: Vec<Vec<f64>> = (0..3)
                    .map(|p| {
                        let mut x = rhs(p);
                        $solve(&mut Panel::new(&mut x, n));
                        x
                    })
                    .collect();
                let [mut a, mut b, mut c] = [rhs(0), rhs(1), rhs(2)];
                $solve(&mut [
                    Panel::new(&mut a, n),
                    Panel::new(&mut b, n),
                    Panel::new(&mut c, n),
                ]);
                for (got, want) in [a, b, c].iter().zip(&alone) {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), $name);
                }
            }};
        }
        check!("pttrs", |rows: &mut _| pt.solve_rows(rows, 0));
        check!("pbtrs", |rows: &mut _| pb.solve_rows(rows, 0));
        check!("gbtrs", |rows: &mut _| gb.solve_rows(rows, 0));
        check!("getrs", |rows: &mut _| lu.solve_rows(rows, 0));
    }

    #[test]
    fn gemv_sub_is_y_minus_a_x_on_both_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // Rows 0..2 hold x = [1, 1], rows 2..4 hold y = [10, 20].
        let mut lane = vec![1.0, 1.0, 10.0, 20.0];
        StridedMut::from_slice(&mut lane).gemv_sub(2, &a, 0);
        assert_eq!(lane, [1.0, 1.0, 7.0, 13.0]);
        let mut chunk: Vec<f64> = [1.0, 1.0, 10.0, 20.0]
            .iter()
            .flat_map(|&v| [v; LANE_WIDTH])
            .collect();
        Panel::new(&mut chunk, 4).gemv_sub(2, &a, 0);
        for l in 0..LANE_WIDTH {
            assert_eq!(chunk[2 * LANE_WIDTH + l], 7.0);
            assert_eq!(chunk[3 * LANE_WIDTH + l], 13.0);
        }
    }
}
