//! The division-free bodies behind every basis evaluation (DESIGN.md §16).
//!
//! [`crate::basis::eval_nonzero_basis`] divides by a knot difference in
//! every one of the triangle's `d(d+1)/2` steps. Those differences depend
//! on the knots only, so [`recip_levels`] computes their reciprocals once
//! per space and [`triangle`] multiplies. On a uniform periodic mesh there
//! is no triangle at all: each weight is one fixed polynomial in the
//! cell-local coordinate, evaluated in closed form ([`cardinal`]).
//!
//! Both are written once over [`pp_portable::Lanes`]: `f64` is one point,
//! and `[f64; LANE_WIDTH]` is a *run* — eight consecutive points of one lane
//! in eight consecutive cells, whose knots, reciprocals and coefficients are
//! contiguous in memory (DESIGN.md §16.8). Every multiply-add pair is one
//! [`Lanes::mul_add`], rounded once.

use crate::space::MAX_DEGREE;
use pp_portable::Lanes;

/// The reciprocal knot differences of a space with extended knots `knots`
/// (`τ_0 ..= τ_{n+2d}`): level `r` in `1..=degree` starts at
/// `(r − 1)·(knots.len() − 1)` and holds `ρ_r[i] = 1 / (τ_{i+1} − τ_{i+1−r})`
/// for `i ≥ r − 1`. The divisor of step `k` of level `r` of the textbook
/// recurrence in the cell with span `s`, `right[k+1] + left[r−k]`, is
/// `τ_{s+k+1} − τ_{s+k+1−r}`: its reciprocal is `ρ_r[s + k]`, the next
/// cell's the next entry.
pub(crate) fn recip_levels(knots: &[f64], degree: usize) -> Vec<f64> {
    let stride = knots.len() - 1;
    let mut table = vec![0.0; degree * stride];
    for r in 1..=degree {
        for i in r - 1..stride {
            table[(r - 1) * stride + i] = 1.0 / (knots[i + 1] - knots[i + 1 - r]);
        }
    }
    table
}

/// A cell of a general mesh — or, for a wide `V`, [`Lanes::WIDTH`]
/// consecutive cells with one point each: everything lane `j` reads sits
/// `j` entries after what lane 0 reads, so a run loads each operand whole.
pub(crate) struct Tabulated<'a, V> {
    /// `x − τ_{s+1−r}` at `r − 1`, for `r` in `1..=degree` (`s = cell + degree`).
    left: [V; MAX_DEGREE],
    /// `τ_{s+r} − x` at `r − 1`.
    right: [V; MAX_DEGREE],
    /// At `r − 1`: `ρ_r[s ..]`, the `r + WIDTH − 1` entries read there.
    recip: [&'a [f64]; MAX_DEGREE],
}

impl<'a, V: Lanes> Tabulated<'a, V> {
    /// The cell(s) from `cell` on of the space with extended knots `knots`
    /// and their [`recip_levels`] `recip`, holding the point(s) `x`. The
    /// distances to the knots are taken here, once, not at every level that
    /// uses them, and every slice gets a length the optimiser can see.
    #[inline(always)]
    pub fn new(x: V, degree: usize, cell: usize, knots: &[f64], recip: &'a [f64]) -> Self {
        let (span, stride) = (cell + degree, knots.len() - 1);
        // From τ_{s+1−degree} to τ_{s+degree}, of the last lane.
        let knots = &knots[cell + 1..][..2 * degree + V::WIDTH - 1];
        let mut at = Tabulated {
            left: [x; MAX_DEGREE],
            right: [x; MAX_DEGREE],
            recip: [&[]; MAX_DEGREE],
        };
        for r in 1..=degree {
            at.left[r - 1] = x.sub(V::load(&knots[degree - r..]));
            at.right[r - 1] = V::load(&knots[degree - 1 + r..]).sub(x);
            at.recip[r - 1] = &recip[(r - 1) * stride + span..][..r + V::WIDTH - 1];
        }
        at
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
/// into straight-line multiplies and adds. Nothing happens past level `top`.
#[inline(always)]
fn level<const R: usize, V: Lanes>(out: &mut [V; MAX_DEGREE + 1], at: &Tabulated<V>, top: usize) {
    if R > top {
        return;
    }
    let mut saved = V::splat(0.0);
    for k in 0..R {
        // `1 / (τ_{s+k+1} − τ_{s+k+1−R})`, the reciprocal of step `k`'s divisor.
        let rho = V::load(&at.recip[R - 1][k..]);
        let (to_right, to_left) = (at.right[k].mul(rho), at.left[R - k - 1].mul(rho));
        let below = out[k];
        out[k] = below.mul_add(to_right, saved);
        saved = below.mul(to_left);
    }
    out[R] = saved;
}

/// The `levels + 1` non-vanishing basis values of degree `levels`, in
/// `out[0..=levels]`. Callers pass a compile-time `levels`.
#[inline(always)]
fn triangle<V: Lanes>(levels: usize, at: &Tabulated<V>) -> [V; MAX_DEGREE + 1] {
    let mut out = [V::splat(0.0); MAX_DEGREE + 1];
    out[0] = V::splat(1.0);
    level::<1, V>(&mut out, at, levels);
    level::<2, V>(&mut out, at, levels);
    level::<3, V>(&mut out, at, levels);
    level::<4, V>(&mut out, at, levels);
    level::<5, V>(&mut out, at, levels);
    out
}

/// The basis values of `degree` in the cell, or their first derivatives
/// by degree reduction, `B'_{i,d} = d·(B_{i,d−1}/(τ_{i+d}−τ_i) −
/// B_{i+1,d−1}/(τ_{i+d+1}−τ_{i+1}))`: the two divisors are entries `m − 1`
/// and `m` of the triangle's last level.
#[inline(always)]
pub(crate) fn basis<const DERIV: bool, V: Lanes>(
    degree: usize,
    at: &Tabulated<V>,
) -> [V; MAX_DEGREE + 1] {
    if !DERIV {
        return triangle(degree, at);
    }
    let lower = triangle(degree - 1, at);
    let scaled = |m: usize| lower[m].mul(V::load(&at.recip[degree - 1][m..]));
    reduce(degree, scaled, V::splat(degree as f64))
}

/// `(w(m − 1) − w(m))·scale` for `m` in `0..=degree`, with `w(−1) =
/// w(degree) = 0`: degree reduction, the derivative of every mesh kind.
#[inline(always)]
fn reduce<V: Lanes>(degree: usize, w: impl Fn(usize) -> V, scale: V) -> [V; MAX_DEGREE + 1] {
    let mut out = [V::splat(0.0); MAX_DEGREE + 1];
    for m in 0..=degree {
        let left = if m > 0 { w(m - 1) } else { V::splat(0.0) };
        let right = if m < degree { w(m) } else { V::splat(0.0) };
        out[m] = left.sub(right).mul(scale);
    }
    out
}

/// Horner's rule in `$x`, the coefficients from the highest power down.
macro_rules! horner {
    ($x:ident; $top:literal $(, $c:literal)*) => {{
        let p = V::splat($top);
        $(let p = p.mul_add($x, V::splat($c));)*
        p
    }};
}

/// The `degree + 1` non-vanishing B-splines of a uniform mesh at the local
/// coordinate `t = (x − t_cell)/h` of their cell in closed form, or with
/// `DERIV` their derivatives in `x` (`inv_h` cells per unit length) by degree
/// reduction. Callers pass a constant `degree`; each weight is its own
/// `const M` instance, as each level of the triangle is (looped, LLVM kept
/// the loop over `m` and selected among the pieces).
#[inline(always)]
pub(crate) fn cardinal<const DERIV: bool, V: Lanes>(
    degree: usize,
    t: V,
    inv_h: f64,
) -> [V; MAX_DEGREE + 1] {
    let order = degree - usize::from(DERIV);
    let scale = V::splat(1.0 / [1.0, 1.0, 2.0, 6.0, 24.0, 120.0][order]);
    let mut out = [V::splat(0.0); MAX_DEGREE + 1];
    weight::<0, V>(&mut out, order, t, scale);
    weight::<1, V>(&mut out, order, t, scale);
    weight::<2, V>(&mut out, order, t, scale);
    weight::<3, V>(&mut out, order, t, scale);
    weight::<4, V>(&mut out, order, t, scale);
    weight::<5, V>(&mut out, order, t, scale);
    if !DERIV {
        return out;
    }
    reduce(degree, |m| out[m], V::splat(inv_h))
}

/// Weight `M ≤ degree` of [`cardinal`]: `scale = fl(1/degree!)` times piece
/// `M` of the cardinal B-spline, a fixed polynomial (numerators over `degree!`
/// as immediates) written out for the upper half `M ≥ degree/2` in `t`; the
/// lower half is its mirror image `B_M(t) = B_{degree−M}(1 − t)`.
#[inline(always)]
fn weight<const M: usize, V: Lanes>(out: &mut [V; MAX_DEGREE + 1], degree: usize, t: V, scale: V) {
    if M > degree {
        return;
    }
    let (m, x) = match 2 * M >= degree {
        true => (M, t),
        false => (degree - M, V::splat(1.0).sub(t)),
    };
    let piece = match (degree, m) {
        (2, 1) => horner!(x; -2.0, 2.0, 1.0),
        (3, 2) => horner!(x; -3.0, 3.0, 3.0, 1.0),
        (4, 2) => horner!(x; 6.0, -12.0, -6.0, 12.0, 11.0),
        (4, 3) => horner!(x; -4.0, 4.0, 6.0, 4.0, 1.0),
        (5, 3) => horner!(x; 10.0, -20.0, -20.0, 20.0, 50.0, 26.0),
        (5, 4) => horner!(x; -5.0, 5.0, 10.0, 10.0, 5.0, 1.0),
        // `m = degree`: `x^degree` (1 at degree 0).
        _ => (0..degree).fold(V::splat(1.0), |p, _| p.mul(x)),
    };
    out[M] = piece.mul(scale);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_levels_are_reciprocal_knot_differences() {
        let knots: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
        let degree = 3;
        let stride = knots.len() - 1;
        let table = recip_levels(&knots, degree);
        assert_eq!(table.len(), degree * stride);
        let span = 2 + degree;
        // Level 1 is the cell width; level 3, k = 0 spans τ_{span−2}..τ_{span+1}.
        assert_eq!(table[span], 1.0 / (knots[span + 1] - knots[span]));
        assert_eq!(
            table[2 * stride + span],
            1.0 / (knots[span + 1] - knots[span - 2])
        );
    }
}
