//! The division-free Cox–de Boor body behind every basis evaluation
//! (DESIGN.md §16).
//!
//! [`crate::basis::eval_nonzero_basis`] divides by a knot difference in
//! every one of the triangle's `d(d+1)/2` steps. Those differences depend
//! on the knots only, so [`recip_levels`] computes their reciprocals once
//! per space and [`triangle`] multiplies. On a uniform mesh the differences
//! are `r·h` at level `r`; in the cell-local coordinate (unit `h`) the
//! reciprocals are the constants `1/r` and nothing is loaded at all
//! ([`Cardinal`]).
//!
//! The triangle is written once over [`Lanes`]: `f64` is one point, and
//! `[f64; LANE_WIDTH]` is a *run* — eight consecutive points of one lane in
//! eight consecutive cells, whose knots, reciprocals and coefficients are
//! contiguous in memory (DESIGN.md §16.8).

use crate::space::MAX_DEGREE;
use pp_portable::LANE_WIDTH;
use std::sync::OnceLock;

/// The instruction sets a lane-vector body is compiled for: the lane walk
/// behind [`crate::SplineSpace::eval_lane`] and
/// [`crate::SplineSpace::eval_panel`], and the verified solve's
/// panel screen in `pp-splinesolver`. One source, one instance each
/// ([`PanelIsa::run`]); rustc never contracts `a·b + c` into a fused
/// multiply-add, so every instance returns the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelIsa {
    /// The target's baseline (SSE2 on x86-64): always available.
    Baseline,
    /// x86-64 AVX2: four doubles per operation.
    Avx2,
    /// x86-64 AVX-512F: a whole run per operation.
    Avx512,
}

impl PanelIsa {
    /// Every instance, narrowest first.
    pub const ALL: [PanelIsa; 3] = [PanelIsa::Baseline, PanelIsa::Avx2, PanelIsa::Avx512];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PanelIsa::Baseline => "baseline",
            PanelIsa::Avx2 => "avx2",
            PanelIsa::Avx512 => "avx512",
        }
    }

    /// Whether this host can run the instance. Under Miri only the
    /// baseline is.
    pub fn is_available(self) -> bool {
        match self {
            PanelIsa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            PanelIsa::Avx2 => !cfg!(miri) && is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            PanelIsa::Avx512 => !cfg!(miri) && is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available instance: detected once, then cached.
    pub fn detected() -> Self {
        static DETECTED: OnceLock<PanelIsa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            let widest = Self::ALL.into_iter().rev().find(|isa| isa.is_available());
            widest.unwrap_or(PanelIsa::Baseline)
        })
    }

    /// Run `body` in the instance compiled for this instruction set. Pass
    /// an `#[inline(always)]` closure over `#[inline(always)]` code: what is
    /// inlined into the shell is what gets the wide registers, anything
    /// called out of line keeps the ISA it was compiled for.
    ///
    /// # Panics
    /// Panics if the host lacks the instruction set.
    #[inline(always)]
    pub fn run<R>(self, body: impl FnOnce() -> R) -> R {
        assert!(self.is_available(), "host lacks {}", self.name());
        match self {
            PanelIsa::Baseline => body(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.is_available()` (asserted above) is
            // `is_x86_feature_detected!("avx2")` for this variant.
            PanelIsa::Avx2 => unsafe { run_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `self.is_available()` (asserted above) is
            // `is_x86_feature_detected!("avx512f")` for this variant.
            PanelIsa::Avx512 => unsafe { run_avx512(body) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the baseline instance is available"),
        }
    }
}

/// `body` compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// `body` compiled for AVX-512F: eight doubles are one register, and
/// neither the walk nor the screen needs an extension beyond F.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<R>(body: impl FnOnce() -> R) -> R {
    body()
}

/// The value the triangle runs on. Every operation applies to each lane
/// independently and nothing is fused or reassociated, so a lane of the
/// wide instance carries the bits of the scalar instance.
pub(crate) trait Lanes: Copy {
    /// Points advanced together.
    const WIDTH: usize;
    /// `v` in every lane.
    fn splat(v: f64) -> Self;
    /// The first [`Self::WIDTH`] values of `from`, one per lane.
    fn load(from: &[f64]) -> Self;
    /// `self + o`, per lane.
    fn add(self, o: Self) -> Self;
    /// `self − o`, per lane.
    fn sub(self, o: Self) -> Self;
    /// `self · o`, per lane.
    fn mul(self, o: Self) -> Self;
}

impl Lanes for f64 {
    const WIDTH: usize = 1;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn load(from: &[f64]) -> Self {
        from[0]
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
}

impl Lanes for [f64; LANE_WIDTH] {
    const WIDTH: usize = LANE_WIDTH;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        [v; LANE_WIDTH]
    }
    #[inline(always)]
    fn load(from: &[f64]) -> Self {
        let from = &from[..LANE_WIDTH];
        std::array::from_fn(|l| from[l])
    }
    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        for l in 0..LANE_WIDTH {
            self[l] += o[l];
        }
        self
    }
    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        for l in 0..LANE_WIDTH {
            self[l] -= o[l];
        }
        self
    }
    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        for l in 0..LANE_WIDTH {
            self[l] *= o[l];
        }
        self
    }
}

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

/// What the triangle needs to know about the cell holding a point, with
/// `s = cell + degree` the point's knot span.
pub(crate) trait Cell {
    /// One point or a panel row of them.
    type V: Lanes;
    /// `x − τ_{s+1−r}` for `r` in `1..=degree`.
    fn left(&self, r: usize) -> Self::V;
    /// `τ_{s+r} − x` for `r` in `1..=degree`.
    fn right(&self, r: usize) -> Self::V;
    /// `1 / (τ_{s+k+1} − τ_{s+k+1−r})`, the reciprocal of the divisor of
    /// step `k` in `0..r` of level `r`.
    fn recip(&self, r: usize, k: usize) -> Self::V;
    /// Length unit of `left`/`right` and `recip⁻¹`, as a factor on
    /// derivatives.
    fn deriv_scale(&self) -> f64;
}

/// A cell of a uniform mesh in units of its width `h`: the cardinal form.
/// Only the local coordinate `t = (x − t_cell)/h` is needed; `1 − t` on the
/// right makes the weights sum to one to round-off. The mesh is the same
/// for every lane, so a panel row is one `Cardinal` with a `t` per lane.
pub(crate) struct Cardinal<V> {
    pub t: V,
    pub inv_h: f64,
}

impl<V: Lanes> Cell for Cardinal<V> {
    type V = V;
    #[inline(always)]
    fn left(&self, r: usize) -> V {
        self.t.add(V::splat((r - 1) as f64))
    }
    #[inline(always)]
    fn right(&self, r: usize) -> V {
        V::splat(1.0).sub(self.t).add(V::splat((r - 1) as f64))
    }
    #[inline(always)]
    fn recip(&self, r: usize, _k: usize) -> V {
        // A constant once `r` is: every caller's `r` is a `const` generic.
        V::splat(1.0 / r as f64)
    }
    #[inline(always)]
    fn deriv_scale(&self) -> f64 {
        self.inv_h
    }
}

/// A cell of a general mesh — or, for a wide `V`, [`Lanes::WIDTH`]
/// consecutive cells with one point each: everything lane `j` reads sits
/// `j` entries after what lane 0 reads, so a run loads each operand whole.
pub(crate) struct Tabulated<'a, V> {
    /// `x − τ_{s+1−r}` at `r − 1`, for `r` in `1..=degree`.
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

impl<V: Lanes> Cell for Tabulated<'_, V> {
    type V = V;
    #[inline(always)]
    fn left(&self, r: usize) -> V {
        self.left[r - 1]
    }
    #[inline(always)]
    fn right(&self, r: usize) -> V {
        self.right[r - 1]
    }
    #[inline(always)]
    fn recip(&self, r: usize, k: usize) -> V {
        V::load(&self.recip[r - 1][k..])
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
fn level<const R: usize, C: Cell>(out: &mut [C::V; MAX_DEGREE + 1], at: &C) {
    let mut saved = C::V::splat(0.0);
    for k in 0..R {
        let to_right = at.right(k + 1).mul(at.recip(R, k));
        let to_left = at.left(R - k).mul(at.recip(R, k));
        let below = out[k];
        out[k] = saved.add(below.mul(to_right));
        saved = below.mul(to_left);
    }
    out[R] = saved;
}

/// The `levels + 1` non-vanishing basis values of degree `levels`, in
/// `out[0..=levels]`. Callers pass a compile-time `levels`.
#[inline(always)]
fn triangle<C: Cell>(levels: usize, at: &C) -> [C::V; MAX_DEGREE + 1] {
    let mut out = [C::V::splat(0.0); MAX_DEGREE + 1];
    out[0] = C::V::splat(1.0);
    if levels >= 1 {
        level::<1, C>(&mut out, at);
    }
    if levels >= 2 {
        level::<2, C>(&mut out, at);
    }
    if levels >= 3 {
        level::<3, C>(&mut out, at);
    }
    if levels >= 4 {
        level::<4, C>(&mut out, at);
    }
    if levels >= 5 {
        level::<5, C>(&mut out, at);
    }
    out
}

/// The basis values of `degree` in the cell, or their first derivatives.
#[inline(always)]
pub(crate) fn basis<const DERIV: bool, C: Cell>(degree: usize, at: &C) -> [C::V; MAX_DEGREE + 1] {
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
fn triangle_deriv<C: Cell>(degree: usize, at: &C) -> [C::V; MAX_DEGREE + 1] {
    let lower = triangle(degree - 1, at);
    let scale = C::V::splat(degree as f64 * at.deriv_scale());
    let zero = C::V::splat(0.0);
    let mut out = [zero; MAX_DEGREE + 1];
    for m in 0..=degree {
        let a = if m > 0 {
            lower[m - 1].mul(at.recip(degree, m - 1))
        } else {
            zero
        };
        let b = if m < degree {
            lower[m].mul(at.recip(degree, m))
        } else {
            zero
        };
        out[m] = scale.mul(a.sub(b));
    }
    out
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
