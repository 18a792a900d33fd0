//! The division-free Cox–de Boor body behind every periodic basis
//! evaluation (DESIGN.md §16).
//!
//! [`crate::basis::eval_nonzero_basis`] divides by a knot difference in
//! every one of the triangle's `d(d+1)/2` steps. Those differences depend
//! on the cell only, so [`recip_table`] computes their reciprocals once per
//! space and [`triangle`] multiplies. On a uniform mesh the differences are
//! `r·h` at level `r`; in the cell-local coordinate (unit `h`) the
//! reciprocals are the constants `1/r` and nothing is loaded at all
//! ([`Cardinal`]).

use crate::space::MAX_DEGREE;

/// Reciprocals per cell for `degree`: one per step of the triangle.
pub(crate) const fn row_len(degree: usize) -> usize {
    degree * (degree + 1) / 2
}

/// Per-cell reciprocal rows of a space with extended knots `knots`:
/// row `cell` holds, level by level (`r = 1..=degree`, `k = 0..r`),
/// `1 / (τ_{span+k+1} − τ_{span+k+1−r})` with `span = cell + degree` — the
/// divisor `right[k+1] + left[r−k]` of the textbook recurrence.
pub(crate) fn recip_table(knots: &[f64], degree: usize, cells: usize) -> Vec<f64> {
    let mut table = Vec::with_capacity(cells * row_len(degree));
    for cell in 0..cells {
        let span = cell + degree;
        for r in 1..=degree {
            for k in 0..r {
                table.push(1.0 / (knots[span + k + 1] - knots[span + k + 1 - r]));
            }
        }
    }
    table
}

/// What the triangle needs to know about the cell holding a point, with
/// `s = cell + degree` the point's knot span.
pub(crate) trait Cell {
    /// `x − τ_{s+1−r}` for `r` in `1..=degree`.
    fn left(&self, r: usize) -> f64;
    /// `τ_{s+r} − x` for `r` in `1..=degree`.
    fn right(&self, r: usize) -> f64;
    /// `1 / (τ_{s+k+1} − τ_{s+k+1−r})`, the reciprocal of the divisor of
    /// step `k` in `0..r` of level `r`.
    fn recip(&self, r: usize, k: usize) -> f64;
    /// Length unit of `left`/`right` and `recip⁻¹`, as a factor on
    /// derivatives.
    fn deriv_scale(&self) -> f64;
}

/// A cell of a uniform mesh in units of its width `h`: the cardinal form.
/// Only the local coordinate `t = (x − t_cell)/h` is needed; `1 − t` on the
/// right makes the weights sum to one to round-off.
pub(crate) struct Cardinal {
    pub t: f64,
    pub inv_h: f64,
}

impl Cell for Cardinal {
    #[inline(always)]
    fn left(&self, r: usize) -> f64 {
        self.t + (r - 1) as f64
    }
    #[inline(always)]
    fn right(&self, r: usize) -> f64 {
        (1.0 - self.t) + (r - 1) as f64
    }
    #[inline(always)]
    fn recip(&self, r: usize, _k: usize) -> f64 {
        // A constant once `r` is: every caller's `r` is a `const` generic.
        1.0 / r as f64
    }
    #[inline(always)]
    fn deriv_scale(&self) -> f64 {
        self.inv_h
    }
}

/// A cell of a general mesh: the `2·degree` knots around the point,
/// `τ_{s+1−d} ..= τ_{s+d}`, and the cell's row of [`recip_table`].
pub(crate) struct Tabulated<'a> {
    pub x: f64,
    pub knots: &'a [f64],
    pub recip: &'a [f64],
}

impl Cell for Tabulated<'_> {
    #[inline(always)]
    fn left(&self, r: usize) -> f64 {
        self.x - self.knots[self.knots.len() / 2 - r]
    }
    #[inline(always)]
    fn right(&self, r: usize) -> f64 {
        self.knots[self.knots.len() / 2 - 1 + r] - self.x
    }
    #[inline(always)]
    fn recip(&self, r: usize, k: usize) -> f64 {
        self.recip[row_len(r - 1) + k]
    }
    #[inline(always)]
    fn deriv_scale(&self) -> f64 {
        1.0
    }
}

/// Level `R` of the Cox–de Boor triangle: degree `R − 1` values in
/// `out[0..R]` become the degree-`R` values in `out[0..=R]`.
///
/// The recurrence of [`crate::basis::eval_nonzero_basis`] with its
/// `(out[k] / y) · right` regrouped as `out[k] · (right · fl(1/y))`: the
/// two distances are scaled first, which needs nothing from the level
/// below, so the chain of dependent operations through `out` is one
/// multiply and one add per level instead of a divide, a multiply and an
/// add. Every product and sum is of non-negative terms, so a level adds a
/// bounded number of relative roundings and nothing cancels. `R` is a
/// constant so that every index is provably in range and the loop unrolls
/// into straight-line multiplies and adds.
#[inline(always)]
fn level<const R: usize>(out: &mut [f64; MAX_DEGREE + 1], at: &impl Cell) {
    let mut saved = 0.0;
    for k in 0..R {
        let to_right = at.right(k + 1) * at.recip(R, k);
        let to_left = at.left(R - k) * at.recip(R, k);
        let below = out[k];
        out[k] = saved + below * to_right;
        saved = below * to_left;
    }
    out[R] = saved;
}

/// The `levels + 1` non-vanishing basis values of degree `levels`, in
/// `out[0..=levels]`. Callers pass a compile-time `levels`.
#[inline(always)]
fn triangle(levels: usize, at: &impl Cell) -> [f64; MAX_DEGREE + 1] {
    let mut out = [0.0; MAX_DEGREE + 1];
    out[0] = 1.0;
    if levels >= 1 {
        level::<1>(&mut out, at);
    }
    if levels >= 2 {
        level::<2>(&mut out, at);
    }
    if levels >= 3 {
        level::<3>(&mut out, at);
    }
    if levels >= 4 {
        level::<4>(&mut out, at);
    }
    if levels >= 5 {
        level::<5>(&mut out, at);
    }
    out
}

/// The basis values of `degree` in the cell, or their first derivatives.
#[inline(always)]
pub(crate) fn basis<const DERIV: bool>(degree: usize, at: &impl Cell) -> [f64; MAX_DEGREE + 1] {
    if DERIV {
        triangle_deriv(degree, at)
    } else {
        triangle(degree, at)
    }
}

/// First derivatives of the `degree + 1` non-vanishing basis functions by
/// degree reduction, `B'_{i,d} = d·(B_{i,d−1}/(τ_{i+d}−τ_i) −
/// B_{i+1,d−1}/(τ_{i+d+1}−τ_{i+1}))`: the two divisors are entries `m − 1`
/// and `m` of the triangle's last level.
#[inline(always)]
fn triangle_deriv(degree: usize, at: &impl Cell) -> [f64; MAX_DEGREE + 1] {
    let lower = triangle(degree - 1, at);
    let scale = degree as f64 * at.deriv_scale();
    let mut out = [0.0; MAX_DEGREE + 1];
    for m in 0..=degree {
        let a = if m > 0 {
            lower[m - 1] * at.recip(degree, m - 1)
        } else {
            0.0
        };
        let b = if m < degree {
            lower[m] * at.recip(degree, m)
        } else {
            0.0
        };
        out[m] = scale * (a - b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_are_reciprocal_knot_differences() {
        let knots: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
        let degree = 3;
        let cells = knots.len() - 2 * degree - 1;
        let table = recip_table(&knots, degree, cells);
        assert_eq!(table.len(), cells * row_len(degree));
        let row = &table[2 * row_len(degree)..][..row_len(degree)];
        let span = 2 + degree;
        // Level 1 is the cell width; level 3, k = 0 spans τ_{span−2}..τ_{span+1}.
        assert_eq!(row[0], 1.0 / (knots[span + 1] - knots[span]));
        assert_eq!(row[3], 1.0 / (knots[span + 1] - knots[span - 2]));
    }
}
