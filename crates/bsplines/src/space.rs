//! B-spline spaces, periodic or clamped: basis evaluation, Greville
//! points, spline evaluation.

use crate::error::{Error, Result};
use crate::kernel::{self, Lanes, Tabulated};
use crate::knots::Breaks;
use pp_portable::{deinterleave_columns, interleave_columns, PanelIsa};
use pp_portable::{Lines, Strided, StridedMut, LANE_WIDTH};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// This thread's column scratch ([`SplineSpace::with_columns`]): the
    /// lanes' coefficients, then their results (and, for
    /// [`SplineSpace::eval_lane`], its copied positions), each column
    /// contiguous and from a cache line on. Grown on first use, reused for
    /// every lane after.
    static COLUMNS: RefCell<Lines> = const { RefCell::new(Lines::new()) };
}

/// Largest supported spline degree (the paper uses 3, 4 and 5).
pub const MAX_DEGREE: usize = 5;

/// Where the interpolation (collocation) points sit.
///
/// [`PointPlacement::Greville`] is the default and keeps the collocation
/// matrix well conditioned on *any* mesh. [`PointPlacement::KnotLike`]
/// places points on break points (odd degree) or cell midpoints (even
/// degree) — identical to Greville on uniform meshes, but degrading with
/// mesh grading, which reproduces the conditioning penalty the paper's
/// non-uniform rows show (see EXPERIMENTS.md on Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointPlacement {
    /// Greville abscissae `(τ_{k+1} + … + τ_{k+d})/d` (default).
    #[default]
    Greville,
    /// Break points (odd degree) / cell midpoints (even degree).
    KnotLike,
}

/// Call the instance of a kernel method for the space's degree and mesh
/// kind (`const D`, `const UNIFORM`, then any `[extra]` const arguments):
/// one dispatch per call, none per point. `UNIFORM` means uniform and
/// periodic: a clamped space's end cells, with their repeated knots, are
/// not cardinal.
macro_rules! monomorphised {
    ($space:expr, $method:ident $([$($extra:tt)*])? ($($arg:expr),*)) => {
        match ($space.degree, $space.periodic && $space.breaks.is_uniform()) {
            (1, true) => $space.$method::<1, true $(, $($extra)*)?>($($arg),*),
            (2, true) => $space.$method::<2, true $(, $($extra)*)?>($($arg),*),
            (3, true) => $space.$method::<3, true $(, $($extra)*)?>($($arg),*),
            (4, true) => $space.$method::<4, true $(, $($extra)*)?>($($arg),*),
            (5, true) => $space.$method::<5, true $(, $($extra)*)?>($($arg),*),
            (1, false) => $space.$method::<1, false $(, $($extra)*)?>($($arg),*),
            (2, false) => $space.$method::<2, false $(, $($extra)*)?>($($arg),*),
            (3, false) => $space.$method::<3, false $(, $($extra)*)?>($($arg),*),
            (4, false) => $space.$method::<4, false $(, $($extra)*)?>($($arg),*),
            (5, false) => $space.$method::<5, false $(, $($extra)*)?>($($arg),*),
            _ => unreachable!("degree validated at construction"),
        }
    };
}

/// A spline space of a given degree over a set of break points, periodic
/// or clamped: one type, one evaluation body.
///
/// A periodic space has exactly `n = breaks.num_cells()` degrees of
/// freedom; periodic basis function `k` is the wrap-around identification
/// `B_k = Σ_p B^ext_{k + p·n}` of the extended-knot B-splines. A clamped
/// space ([`SplineSpace::clamped`]) has `n + degree`, and its interpolation
/// matrix is banded — GYSELA's radial and v∥ directions.
#[derive(Debug, Clone)]
pub struct SplineSpace {
    degree: usize,
    breaks: Breaks,
    /// Extended knot vector `τ_0 … τ_{n+2d}`, `τ_{j+d} = t_j`: `d` intervals
    /// wrapped (±L) on each side, or `t_0` and `t_n` repeated if clamped.
    ext_knots: Vec<f64>,
    n: usize,
    periodic: bool,
    placement: PointPlacement,
    /// Cells per unit length, `n / L`.
    inv_h: f64,
    /// Reciprocal knot differences of the Cox–de Boor triangle, level by
    /// level ([`kernel::recip_levels`]); empty on uniform periodic meshes,
    /// which use the constant cardinal row. Shared, so clones stay cheap.
    recip: Arc<[f64]>,
}

/// [`SplineSpace`] by the name most of the stack uses; `new` is periodic.
pub type PeriodicSplineSpace = SplineSpace;

impl SplineSpace {
    /// Build a periodic space. `degree` must be in `1..=5` and the mesh
    /// must have more than `2·degree` cells (so that periodic images of a
    /// basis function never overlap themselves).
    pub fn new(breaks: Breaks, degree: usize) -> Result<Self> {
        Self::with_placement(breaks, degree, PointPlacement::Greville)
    }

    /// Build a periodic space with an explicit interpolation-point
    /// placement.
    pub fn with_placement(
        breaks: Breaks,
        degree: usize,
        placement: PointPlacement,
    ) -> Result<Self> {
        Self::build(breaks, degree, placement, true)
    }

    /// Build a clamped space on the open knot vector: `degree` in `1..=5`,
    /// more than `degree` cells, `n + degree` degrees of freedom and
    /// Greville points from end to end.
    ///
    /// ```
    /// # use pp_bsplines::{Breaks, SplineSpace};
    /// let s = SplineSpace::clamped(Breaks::uniform(16, 0.0, 1.0).unwrap(), 3).unwrap();
    /// assert_eq!((s.num_basis(), s.interpolation_points()[18]), (19, 1.0));
    /// ```
    pub fn clamped(breaks: Breaks, degree: usize) -> Result<Self> {
        Self::build(breaks, degree, PointPlacement::Greville, false)
    }

    fn build(breaks: Breaks, degree: usize, place: PointPlacement, periodic: bool) -> Result<Self> {
        if degree == 0 || degree > MAX_DEGREE {
            return Err(Error::UnsupportedDegree { degree });
        }
        let n = breaks.num_cells();
        if n <= if periodic { 2 * degree } else { degree } {
            return Err(Error::TooFewCells { cells: n, degree });
        }
        let l = breaks.period();
        let t = breaks.points();
        let ext_knots: Vec<f64> = (0..n + 2 * degree + 1)
            .map(|j| {
                let idx = j as isize - degree as isize;
                if !periodic {
                    t[idx.clamp(0, n as isize) as usize]
                } else if idx < 0 {
                    t[(idx + n as isize) as usize] - l
                } else if idx > n as isize {
                    t[(idx - n as isize) as usize] + l
                } else {
                    t[idx as usize]
                }
            })
            .collect();
        // A clamped table holds `1/0` at the repeated knots; no span of a
        // cell reads those entries (DESIGN.md §16).
        let recip = if periodic && breaks.is_uniform() {
            Vec::new()
        } else {
            kernel::recip_levels(&ext_knots, degree)
        };
        Ok(Self {
            degree,
            inv_h: n as f64 / l,
            recip: recip.into(),
            breaks,
            ext_knots,
            n,
            periodic,
            placement: place,
        })
    }

    /// Whether the space is periodic (else clamped).
    pub fn is_periodic(&self) -> bool {
        self.periodic
    }

    /// The active interpolation-point placement.
    pub fn placement(&self) -> PointPlacement {
        self.placement
    }

    /// Spline degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The underlying break points.
    pub fn breaks(&self) -> &Breaks {
        &self.breaks
    }

    /// Number of basis functions / degrees of freedom: `n`, or `n + degree`
    /// if clamped.
    pub fn num_basis(&self) -> usize {
        self.n + if self.periodic { 0 } else { self.degree }
    }

    /// The extended knot vector (mainly for tests and diagnostics).
    pub fn ext_knots(&self) -> &[f64] {
        &self.ext_knots
    }

    /// Bring `x` into the domain: into the period `[x_min, x_max)`, or
    /// clamped to `[x_min, x_max]` in a clamped space. A point already in
    /// `[x_min, x_max)` is returned unchanged; NaN maps to NaN, and so do
    /// ±∞ in a periodic space.
    #[inline]
    pub fn wrap(&self, x: f64) -> f64 {
        if x >= self.breaks.x_min() && x < self.breaks.x_max() {
            x
        } else {
            self.wrap_outside(x)
        }
    }

    /// [`Self::wrap`] outside `[x_min, x_max)` or for a NaN: the one
    /// division and `floor` left in evaluation, kept out of line.
    #[cold]
    #[inline(never)]
    fn wrap_outside(&self, x: f64) -> f64 {
        let x0 = self.breaks.x_min();
        let x1 = self.breaks.x_max();
        if !self.periodic {
            return x.clamp(x0, x1);
        }
        let l = x1 - x0;
        let w = x - l * ((x - x0) / l).floor();
        // The quotient's rounding can leave `w` a few ulps outside either
        // edge; both are the same periodic point as `x_min`.
        if w >= x1 || w < x0 {
            x0
        } else {
            w
        }
    }

    /// Index of the cell containing `wrap(x)`: the `c` with
    /// `t_c <= wrap(x) < t_{c+1}` (the last for `x_max`, 0 for a NaN).
    #[inline]
    pub fn cell_of(&self, x: f64) -> usize {
        let w = self.wrap(x);
        if self.breaks.is_uniform() {
            self.cell_search::<true>(w)
        } else {
            self.cell_search::<false>(w)
        }
    }

    /// Cell of `w` in `[x_min, x_max]`: multiply and correct on a uniform
    /// mesh (the product's rounding and the mesh's 1e-12 slack are worth a
    /// cell at most), binary search otherwise — `partition_point`'s answer
    /// either way, and cell 0 for a NaN, which fails every comparison.
    #[inline]
    fn cell_search<const UNIFORM: bool>(&self, w: f64) -> usize {
        let t = self.breaks.points();
        let last = self.n - 1;
        if UNIFORM {
            let mut c = (((w - t[0]) * self.inv_h) as usize).min(last);
            while c > 0 && w < t[c] {
                c -= 1;
            }
            while c < last && w >= t[c + 1] {
                c += 1;
            }
            c
        } else {
            t.partition_point(|&tk| tk <= w).saturating_sub(1).min(last)
        }
    }

    /// [`Self::cell_search`] out of line, for the walk's rare way out.
    #[cold]
    #[inline(never)]
    fn cell_search_far<const UNIFORM: bool>(&self, w: f64) -> usize {
        self.cell_search::<UNIFORM>(w)
    }

    /// Cell of an already wrapped `w`. Walking a lane, `hint` is the
    /// previous point's cell (any value `< n`): the next foot is in the
    /// same or the next cell, so the hint and its two neighbours are tested
    /// against the break points before anything is searched. The answer is
    /// [`Self::cell_search`]'s whatever the hint.
    #[inline(always)]
    fn cell_of_wrapped<const UNIFORM: bool>(&self, w: f64, hint: Option<usize>) -> usize {
        let Some(c) = hint else {
            return self.cell_search::<UNIFORM>(w);
        };
        let t = self.breaks.points();
        if t[c] <= w && w < t[c + 1] {
            c
        } else if c + 1 < self.n && t[c + 1] <= w && w < t[c + 2] {
            c + 1
        } else if c > 0 && t[c - 1] <= w && w < t[c] {
            c - 1
        } else {
            self.cell_search_far::<UNIFORM>(w)
        }
    }

    /// The triangle in the cell(s) of already wrapped, already located
    /// point(s): the `D + 1` non-vanishing basis values at `w`, or their
    /// derivatives. `V = f64` is one point in `cell`; `V = [f64; LANE_WIDTH]`
    /// a run, point `j` in cell `cell + j` (so `cell + LANE_WIDTH <= n`) and
    /// every operand one contiguous load.
    ///
    /// A uniform periodic mesh gets the cardinal form, which sees the local
    /// coordinate only. Cells of an `is_uniform()` mesh are equal to 1e-12
    /// relative, so that is the form's accuracy there.
    #[inline(always)]
    fn basis_in<V: Lanes, const D: usize, const UNIFORM: bool, const DERIV: bool>(
        &self,
        cell: usize,
        w: V,
    ) -> [V; MAX_DEGREE + 1] {
        if UNIFORM {
            let t = w.sub(V::load(&self.breaks.points()[cell..]));
            kernel::cardinal::<DERIV, V>(D, t.mul(V::splat(self.inv_h)), self.inv_h)
        } else {
            let at = Tabulated::new(w, D, cell, &self.ext_knots, &self.recip);
            kernel::basis::<DERIV, V>(D, &at)
        }
    }

    /// Wrap `x` (once), find its cell, and run the triangle there
    /// ([`Self::basis_in`]). `hint` as in [`Self::cell_of_wrapped`].
    #[inline(always)]
    fn basis_at<const D: usize, const UNIFORM: bool, const DERIV: bool>(
        &self,
        x: f64,
        hint: Option<usize>,
    ) -> (usize, [f64; MAX_DEGREE + 1]) {
        let w = self.wrap(x);
        let cell = self.cell_of_wrapped::<UNIFORM>(w, hint);
        (cell, self.basis_in::<f64, D, UNIFORM, DERIV>(cell, w))
    }

    /// Evaluate the `degree + 1` non-vanishing basis functions at `x`.
    ///
    /// Returns the containing cell `c`; `out[m]` holds the value of the
    /// basis function with index [`Self::coef_index`]`(c, m)`. Where
    /// [`Self::wrap`] makes `x` NaN, the values are NaN, in cell 0.
    #[inline]
    pub fn eval_basis(&self, x: f64, out: &mut [f64; MAX_DEGREE + 1]) -> usize {
        let (cell, vals) = monomorphised!(self, basis_at[false](x, None));
        *out = vals;
        cell
    }

    /// Evaluate the derivatives of the non-vanishing basis functions at
    /// `x`; indexing as in [`Self::eval_basis`].
    #[inline]
    pub fn eval_basis_deriv(&self, x: f64, out: &mut [f64; MAX_DEGREE + 1]) -> usize {
        let (cell, vals) = monomorphised!(self, basis_at[true](x, None));
        *out = vals;
        cell
    }

    /// Coefficient index of local basis `m` in cell `cell`, wrapped if periodic.
    #[inline]
    pub fn coef_index(&self, cell: usize, m: usize) -> usize {
        (cell + m) % self.num_basis()
    }

    /// Greville abscissa of basis `k`, brought into the domain:
    /// `g_k = (τ_{k+1} + … + τ_{k+d}) / d`.
    ///
    /// For uniform periodic meshes this lands on break points (odd degree)
    /// or cell midpoints (even degree) — the alignment that keeps the
    /// interpolation matrix banded apart from thin periodic corners.
    pub fn greville(&self, k: usize) -> f64 {
        debug_assert!(k < self.num_basis());
        let d = self.degree;
        let s: f64 = self.ext_knots[k + 1..=k + d].iter().sum();
        self.wrap(s / d as f64)
    }

    /// Interpolation point of basis `k` under the active placement.
    ///
    /// `KnotLike` aligns with Greville on uniform meshes: for odd degree
    /// the break point `t_{k−(d−1)/2}`, for even degree the midpoint of
    /// cell `k − d/2` (both wrapped).
    pub fn interpolation_point(&self, k: usize) -> f64 {
        match self.placement {
            PointPlacement::Greville => self.greville(k),
            PointPlacement::KnotLike => {
                let t = self.breaks.points();
                let n = self.n as isize;
                let d = self.degree as isize;
                if self.degree % 2 == 1 {
                    let idx = (k as isize - (d - 1) / 2).rem_euclid(n) as usize;
                    self.wrap(t[idx])
                } else {
                    let cell = (k as isize - d / 2).rem_euclid(n) as usize;
                    self.wrap(0.5 * (t[cell] + t[cell + 1]))
                }
            }
        }
    }

    /// The [`Self::num_basis`] interpolation points, in basis order.
    pub fn interpolation_points(&self) -> Vec<f64> {
        (0..self.num_basis())
            .map(|k| self.interpolation_point(k))
            .collect()
    }

    /// Evaluate the spline with coefficients `coefs` at `x`.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    #[inline]
    pub fn eval(&self, coefs: &[f64], x: f64) -> f64 {
        let mut y = 0.0;
        self.eval_lane(
            Strided::from_slice(coefs),
            Strided::from_slice(&[x]),
            StridedMut::from_slice(std::slice::from_mut(&mut y)),
        );
        y
    }

    /// Evaluate the spline with coefficients `coefs` at every position,
    /// `out[i] = s(positions[i])`: one lane of a batched evaluation,
    /// through whatever strides the three views carry. Positions may lie
    /// anywhere ([`Self::wrap`]) and in any order; each result depends on
    /// `(self, coefs, positions[i])` only. NaN positions give NaN.
    ///
    /// Eight consecutive positions that sit in eight consecutive cells — a
    /// displaced sweep, the feet of a semi-Lagrangian lane — are evaluated
    /// together (DESIGN.md §16.8); any other eight one by one, to the same
    /// bits.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()` or
    /// `positions.len() != out.len()`.
    pub fn eval_lane(&self, coefs: Strided<'_>, positions: Strided<'_>, mut out: StridedMut<'_>) {
        let nb = self.num_basis();
        let rows = positions.len();
        assert_eq!(coefs.len(), nb, "eval: coefficient count");
        assert_eq!(rows, out.len(), "eval: position count");
        self.with_columns(1, 2, rows, |col, rest| {
            // Only a run reads the column: a few points need none.
            if rows >= LANE_WIDTH {
                col.iter_mut().zip(coefs.iter()).for_each(|(c, v)| *c = v);
                col.copy_within(..self.n + self.degree - nb, nb);
            }
            let (xs, ys) = rest.split_at_mut(rows);
            xs.iter_mut()
                .zip(positions.iter())
                .for_each(|(x, p)| *x = p);
            self.walk_on(PanelIsa::detected(), coefs, col, xs, 0.0, ys);
            out.copy_from_slice(ys);
        });
    }

    /// Lend `body` this thread's scratch as `lanes` coefficient columns,
    /// [`Self::column_stride`] apart, of which the first `n + degree` values
    /// are read (a lane's coefficients, periodic ones followed by their
    /// first `degree`: the stencil of a cell is `column[cell..=cell +
    /// degree]`, nothing to wrap), then `columns` columns of `rows` values
    /// back to back. The scratch is [`Lines`], so every coefficient column
    /// starts a cache line, and so does every column after them when `rows`
    /// is whole lines: no store of the tile transposer splits a line
    /// (DESIGN.md §14.3). `body` must not evaluate on this thread through
    /// anything but [`Self::walk_on`].
    fn with_columns<R>(
        &self,
        lanes: usize,
        columns: usize,
        rows: usize,
        body: impl FnOnce(&mut [f64], &mut [f64]) -> R,
    ) -> R {
        let wrapped = lanes * self.column_stride();
        COLUMNS.with_borrow_mut(|scratch| {
            let (cols, rest) = scratch
                .at_least(wrapped + columns * rows)
                .split_at_mut(wrapped);
            body(cols, rest)
        })
    }

    /// Distance between the coefficient columns of [`Self::with_columns`]:
    /// `n + degree` up to whole cache lines.
    fn column_stride(&self) -> usize {
        (self.n + self.degree).next_multiple_of(LANE_WIDTH)
    }

    /// The scalar body: `out[i] = s(xs[i])` point by point, each cell found
    /// from the previous one ([`Self::cell_of_wrapped`]); returns the last.
    /// It issues close to what a core retires and reads slower under wide
    /// vectors (29 against 18 ns/point under AVX-512), so it is compiled
    /// once, out of line, for the target's baseline whatever instruction
    /// set the caller was compiled for.
    #[inline(never)]
    fn eval_points<const D: usize, const UNIFORM: bool>(
        &self,
        coefs: Strided<'_>,
        xs: &[f64],
        out: &mut [f64],
        mut cell: usize,
    ) -> usize {
        let nb = self.num_basis();
        for (y, &x) in out.iter_mut().zip(xs) {
            let vals;
            (cell, vals) = self.basis_at::<D, UNIFORM, false>(x, Some(cell));
            let mut s = 0.0;
            if cell + D < nb {
                for m in 0..=D {
                    s += vals[m] * coefs[cell + m];
                }
            } else {
                for m in 0..=D {
                    let k = cell + m;
                    s += vals[m] * coefs[if k < nb { k } else { k - nb }];
                }
            }
            *y = s;
        }
        cell
    }

    /// The evaluation body of every entry point (DESIGN.md §16.8): one
    /// lane, `out[i] = s(base[i] − shift)`, its coefficients as the view
    /// `coefs` and, if there are eight positions or more, as the column
    /// `col` ([`Self::with_columns`]). The positions are formed here, a run
    /// at a time in a register (the tail's on the stack), and never written
    /// to a column; a caller whose positions are
    /// arbitrary passes them as `base` with `shift = 0.0` (`b − 0.0` is `b`
    /// bit for bit, `−0.0`, `±∞` and NaN included). Returns how many runs
    /// took the vector path.
    ///
    /// A *run* is eight consecutive positions. With `c0` the first one's
    /// cell, it is evaluated eight-wide exactly when `c0 + 8 <= n` and
    /// `t[c0 + j] <= x_j < t[c0 + j + 1]` for every `j` — two contiguous
    /// loads and two compares. That is [`Self::cell_search`]'s predicate
    /// (and puts every point inside `[x_min, x_max)`, where [`Self::wrap`]
    /// is the identity), so point `j`'s cell is the `c0 + j` the scalar body would
    /// find, whatever produced `c0`; [`Self::basis_in`] then performs the
    /// scalar instance's operations in the scalar instance's order on each
    /// of the eight, and the dot product runs over `m` as the scalar one
    /// does. Any other run — not a sweep, on the domain's edge, holding a
    /// NaN — and the tail go through [`Self::eval_points`].
    #[inline(always)]
    fn walk<const D: usize, const UNIFORM: bool>(
        &self,
        coefs: Strided<'_>,
        col: &[f64],
        base: &[f64],
        shift: f64,
        out: &mut [f64],
    ) -> usize {
        const W: usize = LANE_WIDTH;
        let n = self.n;
        // Sliced to lengths the optimiser can see.
        let t = &self.breaks.points()[..n + 1];
        let col = &col[..n + D];
        let (mut cell, mut vector_runs) = (0, 0);
        let by = <[f64; W]>::splat(shift);
        for (base, out) in base.chunks_exact(W).zip(out.chunks_exact_mut(W)) {
            let x = <[f64; W]>::load(base).sub(by);
            // A guess, wherever `x[0]` lies: only the test below keeps it.
            let c0 = self.cell_of_wrapped::<UNIFORM>(x[0], Some(cell));
            let mut sweep = c0 + W <= n;
            if sweep {
                let edges = &t[c0..c0 + W + 1];
                let (lower, upper) = (<[f64; W]>::load(edges), <[f64; W]>::load(&edges[1..]));
                for j in 0..W {
                    sweep &= (lower[j] <= x[j]) & (x[j] < upper[j]);
                }
            }
            if !sweep {
                cell = self.eval_points::<D, UNIFORM>(coefs, &x, out, cell);
                continue;
            }
            let vals = self.basis_in::<[f64; W], D, UNIFORM, false>(c0, x);
            let stencil = &col[c0..c0 + W + D];
            let mut s = [0.0; W];
            for m in 0..=D {
                let c = <[f64; W]>::load(&stencil[m..]);
                for j in 0..W {
                    s[j] += vals[m][j] * c[j];
                }
            }
            out.copy_from_slice(&s);
            // The next run most likely starts one cell on.
            cell = (c0 + W).min(n - 1);
            vector_runs += 1;
        }
        let tail = base.len() - base.len() % W;
        let mut x = [0.0; W];
        let rest = &base[tail..];
        x.iter_mut().zip(rest).for_each(|(x, b)| *x = b - shift);
        self.eval_points::<D, UNIFORM>(coefs, &x[..rest.len()], &mut out[tail..], cell);
        vector_runs
    }

    /// [`Self::walk`] through the instance compiled for `isa`.
    ///
    /// # Panics
    /// Panics if the host lacks `isa`.
    fn walk_on(
        &self,
        isa: PanelIsa,
        coefs: Strided<'_>,
        col: &[f64],
        base: &[f64],
        shift: f64,
        out: &mut [f64],
    ) -> usize {
        monomorphised!(self, walk_in(isa, coefs, col, base, shift, out))
    }

    /// One degree and mesh kind of [`Self::walk_on`]: each instruction set
    /// gets its own copy of this one `walk`, inlined into its
    /// [`PanelIsa::run`] shell.
    fn walk_in<const D: usize, const UNIFORM: bool>(
        &self,
        isa: PanelIsa,
        coefs: Strided<'_>,
        col: &[f64],
        base: &[f64],
        shift: f64,
        out: &mut [f64],
    ) -> usize {
        isa.run(
            #[inline(always)]
            || self.walk::<D, UNIFORM>(coefs, col, base, shift, out),
        )
    }

    /// Evaluate one interleaved panel of splines into its lanes' columns:
    /// `coefs` is the `[n][LANE_WIDTH]` chunk of eight lanes' coefficients,
    /// and for each of the first `lanes` lanes `feet(l)` is `(base, shift)`,
    /// lane `l` being evaluated at `base[i] − shift`, formed in the lane
    /// walk's registers: `out[l·rows + i] = s_l(base[i] − shift)`, with
    /// `rows = out.len() / lanes = base.len()`. Contiguous columns are what
    /// the lane walk writes, so a caller whose lanes are contiguous — the
    /// rows of a `(Nv, Nx)` host field — names them as `out` and nothing is
    /// moved afterwards.
    ///
    /// Lane for lane this is [`Self::eval_lane`] at `base[i] − shift`, bit
    /// for bit: the same body (the widest [`PanelIsa`] instance of it the
    /// host has) on the lane's coefficients de-interleaved into this
    /// thread's column scratch. Nothing is allocated per panel.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis() · LANE_WIDTH`, if `lanes` is
    /// zero or exceeds `LANE_WIDTH`, if `out` is not `lanes` whole columns,
    /// or if a lane's `base` is not a column long.
    pub fn eval_columns<'a, F>(&self, coefs: &[f64], lanes: usize, feet: F, out: &mut [f64])
    where
        F: Fn(usize) -> (&'a [f64], f64),
    {
        assert!(
            (1..=LANE_WIDTH).contains(&lanes) && out.len().is_multiple_of(lanes),
            "eval_columns: {} values for {lanes} lanes",
            out.len()
        );
        self.with_columns(LANE_WIDTH, 0, 0, |cols, _| {
            self.walk_lanes(PanelIsa::detected(), coefs, lanes, feet, cols, out)
        });
    }

    /// [`Self::eval_columns`] for a caller whose lanes are interleaved:
    /// `panel` is a `[rows][LANE_WIDTH]` panel and
    /// `panel[i·LANE_WIDTH + l] = s_l(base[i] − shift)`. The coefficients
    /// are `coefs`, or with `None` the panel itself (`rows = num_basis()`),
    /// which is then evaluated in place: de-interleaved first, every lane
    /// walked into this thread's scratch, and the results interleaved into
    /// the panel last. The padding lanes of a partial panel are never asked
    /// for feet and never written.
    ///
    /// # Panics
    /// Panics if the coefficients are not `num_basis() · LANE_WIDTH` values,
    /// if `panel` is not whole rows, if `lanes > LANE_WIDTH`, or if a lane's
    /// `base` is not `rows` long.
    pub fn eval_panel<'a, F>(&self, coefs: Option<&[f64]>, lanes: usize, feet: F, panel: &mut [f64])
    where
        F: Fn(usize) -> (&'a [f64], f64),
    {
        self.eval_panel_on(PanelIsa::detected(), coefs, lanes, feet, panel);
    }

    /// [`Self::eval_panel`] through a named instance, for the differential
    /// tests and the per-ISA bench rows. Returns how many runs took the
    /// vector path, of `lanes · (rows / LANE_WIDTH)`.
    ///
    /// # Panics
    /// As [`Self::eval_panel`], and if the host lacks `isa`.
    #[doc(hidden)]
    pub fn eval_panel_on<'a, F>(
        &self,
        isa: PanelIsa,
        coefs: Option<&[f64]>,
        lanes: usize,
        feet: F,
        panel: &mut [f64],
    ) -> usize
    where
        F: Fn(usize) -> (&'a [f64], f64),
    {
        const W: usize = LANE_WIDTH;
        assert_eq!(panel.len() % W, 0, "eval_panel: whole rows");
        assert!(lanes <= W, "eval_panel: {lanes} lanes in a panel");
        let rows = panel.len() / W;
        self.with_columns(W, lanes, rows, |cols, ys| {
            // The scalar body reads a lane's coefficients where they lie, so
            // the panel is overwritten only once every lane is walked.
            let vector_runs = self.walk_lanes(isa, coefs.unwrap_or(panel), lanes, feet, cols, ys);
            interleave_columns(ys, lanes, panel);
            vector_runs
        })
    }

    /// The panel evaluator's core: de-interleave `coefs` into the column
    /// scratch `cols`, then walk each lane at its `feet` into its column of
    /// `out` (`lanes` columns). Returns the runs that took the vector path.
    fn walk_lanes<'a, F>(
        &self,
        isa: PanelIsa,
        coefs: &[f64],
        lanes: usize,
        feet: F,
        cols: &mut [f64],
        out: &mut [f64],
    ) -> usize
    where
        F: Fn(usize) -> (&'a [f64], f64),
    {
        const W: usize = LANE_WIDTH;
        let (nb, wrapped) = (self.num_basis(), self.n + self.degree);
        let rows = out.len().checked_div(lanes).unwrap_or(0);
        assert_eq!(coefs.len(), nb * W, "eval_panel: coefficients");
        let stride = self.column_stride();
        deinterleave_columns(isa, coefs, stride, cols);
        let mut vector_runs = 0;
        for (l, ys) in out.chunks_exact_mut(rows.max(1)).take(lanes).enumerate() {
            let col = &mut cols[l * stride..][..wrapped];
            col.copy_within(..wrapped - nb, nb);
            let (base, shift) = feet(l);
            assert_eq!(base.len(), rows, "eval_panel: lane {l}'s feet");
            let lane = Strided::new(&coefs[l..], nb, W);
            vector_runs += self.walk_on(isa, lane, col, base, shift, ys);
        }
        vector_runs
    }

    /// Evaluate the spline derivative at `x`.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    pub fn eval_deriv(&self, coefs: &[f64], x: f64) -> f64 {
        assert_eq!(
            coefs.len(),
            self.num_basis(),
            "eval_deriv: coefficient count"
        );
        let mut vals = [0.0; MAX_DEGREE + 1];
        let cell = self.eval_basis_deriv(x, &mut vals);
        let mut s = 0.0;
        for m in 0..=self.degree {
            s += vals[m] * coefs[self.coef_index(cell, m)];
        }
        s
    }

    /// Integral of the spline over the domain (one period):
    /// `∫ s = Σ_k c_k · w_k` with `w_k = (τ_{k+d+1} − τ_k)/(d+1)` (the
    /// classic B-spline integral; the wrapped pieces of each periodic
    /// basis tile exactly one support's worth of measure). Used for
    /// conservation diagnostics.
    ///
    /// # Panics
    /// Panics if `coefs.len() != num_basis()`.
    pub fn integrate(&self, coefs: &[f64]) -> f64 {
        assert_eq!(
            coefs.len(),
            self.num_basis(),
            "integrate: coefficient count"
        );
        let d = self.degree;
        let mut total = 0.0;
        for k in 0..self.num_basis() {
            let w = (self.ext_knots[k + d + 1] - self.ext_knots[k]) / (d as f64 + 1.0);
            total += w * coefs[k];
        }
        total
    }

    /// Solve the interpolation problem with a dense reference solver.
    ///
    /// `values[k]` is the target at interpolation point `k`. This is the
    /// slow, obviously-correct path used by tests and examples; the
    /// production path is the Schur-complement builder in
    /// `pp-splinesolver`.
    pub fn interpolate_naive(&self, values: &[f64]) -> Result<Vec<f64>> {
        if values.len() != self.num_basis() {
            return Err(Error::LengthMismatch {
                op: "interpolate_naive",
                expected: self.num_basis(),
                actual: values.len(),
            });
        }
        let a = crate::matrix::assemble_interpolation_matrix(self);
        pp_linalg::naive::solve_dense(&a, values).map_err(|_| Error::SingularMatrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::TestRng;

    fn uniform_space(n: usize, degree: usize) -> SplineSpace {
        SplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), degree).unwrap()
    }

    fn clamped_space(n: usize, degree: usize) -> SplineSpace {
        SplineSpace::clamped(Breaks::uniform(n, 0.0, 1.0).unwrap(), degree).unwrap()
    }

    #[test]
    fn construction_validates() {
        let uniform = |n| Breaks::uniform(n, 0.0, 1.0).unwrap();
        for build in [SplineSpace::new, SplineSpace::clamped] {
            for degree in [0, 6] {
                let built = build(uniform(8), degree);
                assert!(matches!(built, Err(Error::UnsupportedDegree { .. })));
            }
        }
        let too_few = |s: Result<SplineSpace>| matches!(s, Err(Error::TooFewCells { .. }));
        assert!(too_few(SplineSpace::new(uniform(6), 3)));
        // No periodic image to overlap: more than `degree` cells will do.
        assert!(too_few(SplineSpace::clamped(uniform(3), 3)));
        assert!(!clamped_space(4, 3).is_periodic() && uniform_space(8, 3).is_periodic());
    }

    #[test]
    fn ext_knots_are_periodic_extension() {
        let s = uniform_space(8, 3);
        let k = s.ext_knots();
        assert_eq!(k.len(), 8 + 7);
        // τ_d == t_0, τ_{d+n} == t_n.
        assert_eq!(k[3], 0.0);
        assert!((k[3 + 8] - 1.0).abs() < 1e-15);
        // Wrapped left knots are negative mirror of right end.
        assert!((k[2] - (-0.125)).abs() < 1e-15);
        // Monotone.
        for w in k.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Clamped: the open knot vector, each end knot `degree + 1` times.
        let c = clamped_space(8, 3);
        let (k, ends) = (c.ext_knots(), [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!((k.len(), c.num_basis()), (8 + 7, 11));
        assert_eq!([&k[..4], &k[11..]].concat(), ends);
    }

    #[test]
    fn wrap_and_cell() {
        let s = uniform_space(10, 3);
        assert!((s.wrap(1.23) - 0.23).abs() < 1e-14);
        assert!((s.wrap(-0.1) - 0.9).abs() < 1e-14);
        assert_eq!(s.cell_of(0.0), 0);
        assert_eq!(s.cell_of(0.05), 0);
        assert_eq!(s.cell_of(0.95), 9);
        assert_eq!(s.cell_of(1.0), 0); // wraps
        assert_eq!(s.cell_of(0.999999999), 9);
        // Clamped: out of the domain is the boundary.
        let c = clamped_space(10, 3);
        let wrapped = [1.23, -0.1, f64::NEG_INFINITY].map(|x| c.wrap(x));
        assert_eq!((wrapped, c.cell_of(1.0)), ([1.0, 0.0, 0.0], 9));
        let at = |x| c.eval(&(0..13).map(|i| i as f64).collect::<Vec<_>>(), x);
        assert_eq!((at(-5.0), at(7.0)), (at(0.0), at(1.0)));
    }

    #[test]
    fn cell_of_nonuniform_matches_scan() {
        let s = PeriodicSplineSpace::new(Breaks::graded(20, 0.0, 2.0, 0.7).unwrap(), 3).unwrap();
        for i in 0..200 {
            let x = 2.0 * (i as f64 + 0.5) / 200.0;
            let c = s.cell_of(x);
            let t = s.breaks().points();
            assert!(t[c] <= x && x <= t[c + 1], "x={x} c={c}");
        }
    }

    #[test]
    fn partition_of_unity_and_clamped_end_values() {
        for degree in 1..=5 {
            for breaks in [
                Breaks::uniform(12, 0.0, 1.0).unwrap(),
                Breaks::graded(12, 0.0, 1.0, 0.6).unwrap(),
            ] {
                let periodic = SplineSpace::new(breaks.clone(), degree).unwrap();
                let clamped = SplineSpace::clamped(breaks, degree).unwrap();
                for s in [periodic, clamped] {
                    let nb = s.num_basis();
                    let ones = vec![1.0; nb];
                    for i in 0..=97 {
                        let x = i as f64 / 97.0;
                        assert!((s.eval(&ones, x) - 1.0).abs() < 1e-12, "deg {degree} x {x}");
                    }
                    // A clamped spline takes its end coefficients at the ends.
                    let mut c = vec![0.0; nb];
                    (c[0], c[nb - 1]) = (2.5, -1.5);
                    let ends = (s.eval(&c, 0.0) - 2.5, s.eval(&c, 1.0) + 1.5);
                    let exact = ends.0.abs() < 1e-14 && ends.1.abs() < 1e-14;
                    assert!(s.is_periodic() || exact, "deg {degree}");
                }
            }
        }
    }

    /// What only an open knot vector does: degree-`d` polynomials are
    /// reproduced on the whole domain and integrated exactly.
    #[test]
    fn clamped_spaces_reproduce_polynomials() {
        for degree in [3usize, 4, 5] {
            let s = clamped_space(9, degree);
            let terms = |x: f64| (0..=degree).map(move |p| (p as f64 + 0.5) * x.powi(p as i32));
            let values: Vec<f64> = s
                .interpolation_points()
                .iter()
                .map(|&x| terms(x).sum())
                .collect();
            let coefs = s.interpolate_naive(&values).unwrap();
            for x in (0..=50).map(|i| i as f64 / 50.0) {
                let err = (s.eval(&coefs, x) - terms(x).sum::<f64>()).abs();
                assert!(err < 1e-10, "deg {degree} x {x}");
            }
            let exact: f64 = (0..=degree)
                .map(|p| (p as f64 + 0.5) / (p as f64 + 1.0))
                .sum();
            assert!((s.integrate(&coefs) - exact).abs() < 1e-11, "deg {degree}");
        }
    }

    #[test]
    fn greville_points_uniform_degree3_are_break_points() {
        let s = uniform_space(8, 3);
        // g_k = t_{k-1} wrapped.
        let pts = s.interpolation_points();
        assert!((pts[0] - 0.875).abs() < 1e-14); // t_{-1} wraps to t_7
        assert!((pts[1] - 0.0).abs() < 1e-14);
        assert!((pts[4] - 0.375).abs() < 1e-14);
    }

    #[test]
    fn greville_points_uniform_degree4_are_midpoints() {
        let s = uniform_space(10, 4);
        let pts = s.interpolation_points();
        let h = 0.1;
        for &p in &pts {
            // Distance to nearest break point should be h/2.
            let r = (p / h).fract();
            assert!((r - 0.5).abs() < 1e-10, "{p}");
        }
    }

    #[test]
    fn spline_evaluation_is_periodic() {
        let s = uniform_space(16, 3);
        let coefs: Vec<f64> = (0..16).map(|i| ((i * 7) % 5) as f64).collect();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            assert!((s.eval(&coefs, x) - s.eval(&coefs, x + 3.0)).abs() < 1e-12);
            assert!((s.eval(&coefs, x) - s.eval(&coefs, x - 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_reproduces_values_at_points() {
        for degree in [3, 4, 5] {
            for breaks in [
                Breaks::uniform(20, 0.0, 1.0).unwrap(),
                Breaks::graded(20, 0.0, 1.0, 0.5).unwrap(),
            ] {
                let s = PeriodicSplineSpace::new(breaks, degree).unwrap();
                let pts = s.interpolation_points();
                let values: Vec<f64> = pts
                    .iter()
                    .map(|&x| (std::f64::consts::TAU * x).sin() + 0.3)
                    .collect();
                let coefs = s.interpolate_naive(&values).unwrap();
                for (k, &x) in pts.iter().enumerate() {
                    assert!(
                        (s.eval(&coefs, x) - values[k]).abs() < 1e-11,
                        "deg {degree} point {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn interpolation_converges_spectrally_with_degree() {
        // Interpolating a smooth periodic function: error should fall
        // rapidly as h^(degree+1).
        let f = |x: f64| (std::f64::consts::TAU * x).sin();
        let mut errors = Vec::new();
        for degree in [3, 5] {
            let s = uniform_space(32, degree);
            let values: Vec<f64> = s.interpolation_points().iter().map(|&x| f(x)).collect();
            let coefs = s.interpolate_naive(&values).unwrap();
            let err = (0..301)
                .map(|i| {
                    let x = i as f64 / 301.0;
                    (s.eval(&coefs, x) - f(x)).abs()
                })
                .fold(0.0, f64::max);
            errors.push(err);
        }
        // Cubic error ~ h^4·(2π)^4 ≈ 2e-5 on 32 cells; quintic ~ h^6·(2π)^6.
        assert!(errors[0] < 1e-4, "{errors:?}");
        assert!(errors[1] < errors[0] / 10.0, "{errors:?}");
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let clamped = SplineSpace::clamped(Breaks::graded(16, 0.0, 2.0, 0.5).unwrap(), 4).unwrap();
        for (s, tol) in [(uniform_space(24, 4), 1e-6), (clamped, 1e-5)] {
            let (nb, l) = (s.num_basis(), s.breaks().period());
            let coefs: Vec<f64> = (0..nb)
                .map(|i| (std::f64::consts::TAU * i as f64 / nb as f64).cos())
                .collect();
            let eps = 1e-6;
            for i in 0..50 {
                let x = l * (i as f64 + 0.3) / 50.0;
                let d = s.eval_deriv(&coefs, x);
                let fd = (s.eval(&coefs, x + eps) - s.eval(&coefs, x - eps)) / (2.0 * eps);
                assert!((d - fd).abs() < tol, "x={x}: {d} vs {fd}");
            }
        }
    }

    #[test]
    fn knotlike_placement_equals_greville_on_uniform_meshes() {
        for degree in [3usize, 4, 5] {
            let g = uniform_space(16, degree);
            let k = PeriodicSplineSpace::with_placement(
                Breaks::uniform(16, 0.0, 1.0).unwrap(),
                degree,
                PointPlacement::KnotLike,
            )
            .unwrap();
            let pg = g.interpolation_points();
            let pk = k.interpolation_points();
            for (a, b) in pg.iter().zip(&pk) {
                assert!((a - b).abs() < 1e-13, "deg {degree}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn knotlike_placement_solvable_on_graded_meshes() {
        for degree in [3usize, 4, 5] {
            let s = PeriodicSplineSpace::with_placement(
                Breaks::graded(20, 0.0, 1.0, 0.8).unwrap(),
                degree,
                PointPlacement::KnotLike,
            )
            .unwrap();
            assert_eq!(s.placement(), PointPlacement::KnotLike);
            let pts = s.interpolation_points();
            let values: Vec<f64> = pts
                .iter()
                .map(|&x| (std::f64::consts::TAU * x).sin())
                .collect();
            let coefs = s.interpolate_naive(&values).unwrap();
            for (k, &x) in pts.iter().enumerate() {
                assert!(
                    (s.eval(&coefs, x) - values[k]).abs() < 1e-10,
                    "deg {degree}"
                );
            }
        }
    }

    #[test]
    fn integrate_constant_gives_period() {
        for degree in 1..=5 {
            for breaks in [
                Breaks::uniform(16, 0.0, 2.0).unwrap(),
                Breaks::graded(16, 0.0, 2.0, 0.5).unwrap(),
            ] {
                let periodic = SplineSpace::new(breaks.clone(), degree).unwrap();
                let clamped = SplineSpace::clamped(breaks, degree).unwrap();
                for s in [periodic, clamped] {
                    let ones = vec![1.0; s.num_basis()];
                    assert!(
                        (s.integrate(&ones) - 2.0).abs() < 1e-12,
                        "deg {degree}: {}",
                        s.integrate(&ones)
                    );
                }
            }
        }
    }

    #[test]
    fn integrate_matches_quadrature() {
        let s = uniform_space(32, 3);
        let pts = s.interpolation_points();
        let values: Vec<f64> = pts
            .iter()
            .map(|&x| (std::f64::consts::TAU * x).sin() + 1.5)
            .collect();
        let coefs = s.interpolate_naive(&values).unwrap();
        // Fine midpoint quadrature of the spline itself.
        let m = 20_000;
        let quad: f64 = (0..m)
            .map(|i| s.eval(&coefs, (i as f64 + 0.5) / m as f64))
            .sum::<f64>()
            / m as f64;
        assert!((s.integrate(&coefs) - quad).abs() < 1e-9);
    }

    /// Degree-d splines reproduce constants exactly everywhere, for
    /// every degree, mesh grading and boundary; clamped ones reproduce a
    /// line from its Greville values.
    #[test]
    fn prop_constant_reproduction() {
        let mut g = TestRng::seed_from_u64(0x5EED_E399);
        for _ in 0..64 {
            let degree = g.gen_range(1usize..=5);
            let n = g.gen_range(12usize..40);
            let strength = g.gen_range(0.0f64..0.9);
            let x = g.gen_range(-5.0f64..5.0);
            let breaks = Breaks::graded(n, 0.0, 1.0, strength).unwrap();
            let periodic = SplineSpace::new(breaks.clone(), degree).unwrap();
            let clamped = SplineSpace::clamped(breaks, degree).unwrap();
            let line: Vec<f64> = (0..clamped.num_basis())
                .map(|k| 2.0 * clamped.greville(k) - 0.7)
                .collect();
            let err = clamped.eval(&line, x) - (2.0 * x.clamp(0.0, 1.0) - 0.7);
            assert!(err.abs() < 1e-11, "deg {degree} n {n} x {x}");
            for s in [periodic, clamped] {
                let c = vec![2.5; s.num_basis()];
                assert!((s.eval(&c, x) - 2.5).abs() < 1e-11);
            }
        }
    }

    /// Spline evaluation is linear in the coefficients.
    #[test]
    fn prop_linearity() {
        let mut g = TestRng::seed_from_u64(0x5EED_7EEF);
        for _ in 0..64 {
            let n = g.gen_range(12usize..30);
            let x = g.gen_range(0.0f64..1.0);
            let seed = g.gen_range(0u64..100);
            let mut rng = TestRng::seed_from_u64(seed);
            let s = uniform_space(n, 3);
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let sum: Vec<f64> = a.iter().zip(&b).map(|(u, v)| u + 2.0 * v).collect();
            let lhs = s.eval(&sum, x);
            let rhs = s.eval(&a, x) + 2.0 * s.eval(&b, x);
            assert!((lhs - rhs).abs() < 1e-12);
        }
    }

    /// Every column [`SplineSpace::with_columns`] lends starts a cache line —
    /// each coefficient column whatever `n + degree` is, each column after
    /// them when `rows` is whole lines — however the scratch grew or shrank
    /// between calls, and the columns are as long as asked.
    #[test]
    fn scratch_columns_start_a_line() {
        let at_line = |v: &[f64]| (v.as_ptr() as usize).is_multiple_of(64);
        let calls = [
            (9, 3, 1, 8, 16),
            (40, 5, 8, 8, 1024),
            (13, 2, 8, 0, 0),
            (17, 4, 1, 2, 24),
        ];
        for (n, degree, lanes, columns, rows) in calls {
            let space = uniform_space(n, degree);
            let stride = space.column_stride();
            assert!(stride >= n + degree && stride.is_multiple_of(LANE_WIDTH));
            space.with_columns(lanes, columns, rows, |cols, rest| {
                let what = format!("n {n} degree {degree}, {lanes} lanes, {columns} x {rows}");
                assert_eq!(
                    (cols.len(), rest.len()),
                    (lanes * stride, columns * rows),
                    "{what}"
                );
                for col in cols.chunks_exact(stride) {
                    assert!(at_line(col), "{what}: coefficient column");
                }
                for column in rest.chunks_exact(rows.max(1)) {
                    assert!(at_line(column), "{what}: column after them");
                }
            });
        }
    }
}
