//! Differential net for the division-free basis kernel (DESIGN.md §16):
//! every evaluation path, periodic and clamped, against the textbook
//! Cox–de Boor oracle [`eval_nonzero_basis`] on the space's own extended
//! knots, and the cell search against `partition_point`.

use pp_bsplines::basis::{eval_nonzero_basis, eval_nonzero_basis_deriv};
use pp_bsplines::{Breaks, PeriodicSplineSpace, SplineSpace, MAX_DEGREE};
use pp_portable::{PanelIsa, Strided, StridedMut, TestRng, LANE_WIDTH};

const EPS: f64 = f64::EPSILON;

/// `n` unit-interval cells with three of them squeezed to `gap`.
fn near_duplicate(n: usize, gap: f64) -> Breaks {
    let mut pts: Vec<f64> = (0..=n - 2).map(|i| i as f64 / (n - 2) as f64).collect();
    pts.push(pts[3] + gap);
    pts.push(pts[3] + 2.0 * gap);
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Breaks::from_points(pts).expect("strictly increasing")
}

/// Equal cells up to a relative jitter of 4e-13: `from_points` still flags
/// the mesh uniform (its contract is 1e-12), so the cardinal form runs.
fn jittered_uniform(n: usize, rng: &mut TestRng) -> Breaks {
    let h = 2.0 / n as f64;
    let pts: Vec<f64> = (0..=n)
        .map(|i| {
            let jitter = if i == 0 || i == n {
                0.0
            } else {
                rng.gen_range(-2e-13..2e-13)
            };
            -1.0 + h * (i as f64 + jitter)
        })
        .collect();
    let breaks = Breaks::from_points(pts).expect("strictly increasing");
    assert!(breaks.is_uniform());
    breaks
}

struct Mesh {
    name: &'static str,
    breaks: Breaks,
}

fn meshes(rng: &mut TestRng) -> Vec<Mesh> {
    vec![
        Mesh {
            name: "uniform dyadic",
            breaks: Breaks::uniform(16, 0.0, 1.0).expect("valid"),
        },
        Mesh {
            name: "uniform",
            breaks: Breaks::uniform(23, -0.7, 2.4).expect("valid"),
        },
        Mesh {
            name: "graded 0.6",
            breaks: Breaks::graded(24, 0.0, 1.0, 0.6).expect("valid"),
        },
        Mesh {
            name: "graded 0.95",
            breaks: Breaks::graded(31, -2.0, 1.0, 0.95).expect("valid"),
        },
        Mesh {
            name: "near-duplicate knots",
            breaks: near_duplicate(20, 1e-9),
        },
        Mesh {
            name: "from_points uniform to 1e-12",
            breaks: jittered_uniform(19, rng),
        },
    ]
}

/// Interior points, every knot, both domain edges and their neighbours,
/// the same three periods out on either side, all in shuffled order.
fn positions(breaks: &Breaks, rng: &mut TestRng) -> Vec<f64> {
    let (x0, x1) = (breaks.x_min(), breaks.x_max());
    let l = breaks.period();
    let mut xs: Vec<f64> = breaks.points().to_vec();
    for w in breaks.points().windows(2) {
        xs.push(0.5 * (w[0] + w[1]));
        xs.push(w[0] + (w[1] - w[0]) * rng.gen_range(0.0..1.0));
        xs.push(w[1] - (w[1] - w[0]) * 1e-9);
    }
    xs.push(x1 - l * EPS);
    xs.push(x0 - l * EPS);
    xs.push(x0 + l * EPS);
    let base = xs.clone();
    for k in [-3.0, 3.0] {
        xs.extend(base.iter().map(|x| x + k * l));
    }
    // Fisher–Yates: the hint from the previous point must not matter.
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0usize..=i));
    }
    xs
}

/// Largest relative deviation of a cell width from `L/n`; what the
/// cardinal form cannot see. Zero on dyadic uniform meshes, a few ulps of
/// the coordinates over `h` on `Breaks::uniform`, up to 1e-12 on
/// `from_points`, irrelevant (0) on non-uniform meshes.
fn uniformity_defect(breaks: &Breaks) -> f64 {
    if !breaks.is_uniform() {
        return 0.0;
    }
    let h = breaks.period() / breaks.num_cells() as f64;
    (0..breaks.num_cells())
        .map(|i| ((breaks.cell_width(i) - h) / h).abs())
        .fold(0.0, f64::max)
}

fn reference_cell(space: &PeriodicSplineSpace, w: f64) -> usize {
    let breaks = space.breaks();
    let t = breaks.points();
    t.partition_point(|&t| t <= w)
        .saturating_sub(1)
        .min(breaks.num_cells() - 1)
}

/// The periodic and the clamped space of each of `degrees` on `breaks`: a
/// clamped one's end cells see repeated knots, and a point outside the
/// domain is clamped to its edge (`x_max` included), not wrapped.
fn spaces(breaks: &Breaks, degrees: &[usize]) -> Vec<SplineSpace> {
    let both = |&d: &usize| [SplineSpace::new, SplineSpace::clamped].map(|f| f(breaks.clone(), d));
    degrees
        .iter()
        .flat_map(both)
        .map(|s| s.expect("valid"))
        .collect()
}

const DEGREES: [usize; MAX_DEGREE] = [1, 2, 3, 4, 5];

fn kind(space: &SplineSpace) -> String {
    format!("degree {} periodic {}", space.degree(), space.is_periodic())
}

#[test]
fn kernel_matches_cox_de_boor_oracle() {
    let mut rng = TestRng::seed_from_u64(0xB5_0016);
    for mesh in meshes(&mut rng) {
        let defect = uniformity_defect(&mesh.breaks);
        for space in spaces(&mesh.breaks, &DEGREES) {
            let degree = space.degree();
            let what = format!("{} {}", mesh.name, kind(&space));
            let xs = positions(&mesh.breaks, &mut rng);
            for &x in &xs {
                let w = space.wrap(x);
                let top = w == mesh.breaks.x_max() && !space.is_periodic();
                assert!(
                    w >= mesh.breaks.x_min() && (w < mesh.breaks.x_max() || top),
                    "{what}: wrap({x:e}) = {w:e}"
                );
                let mut vals = [0.0; MAX_DEGREE + 1];
                let cell = space.eval_basis(x, &mut vals);
                assert_eq!(cell, reference_cell(&space, w), "{what}: cell of {x:e}");
                assert_eq!(cell, space.cell_of(x), "{what}: cell_of({x:e})");

                let mut oracle = [0.0; MAX_DEGREE + 1];
                eval_nonzero_basis(space.ext_knots(), degree, cell + degree, w, &mut oracle);
                // Weights lie in [0, 1] and sum to one: errors are counted
                // in ulps of 1.
                let slack = 8.0 * EPS + 2.0 * defect;
                for m in 0..=degree {
                    let err = (vals[m] - oracle[m]).abs();
                    assert!(
                        err <= slack,
                        "{what}: weight {m} at {x:e}: {} vs {} ({:.1} ulp)",
                        vals[m],
                        oracle[m],
                        err / EPS
                    );
                    assert!(vals[m] >= -slack, "{what}: negative weight at {x:e}");
                }
                let sum: f64 = vals[..=degree].iter().sum();
                assert!(
                    (sum - 1.0).abs() <= 4.0 * EPS,
                    "{what}: partition of unity at {x:e}: {sum:e}"
                );
            }
        }
    }
}

/// Derivatives go through the same triangle one level short; they scale
/// with `degree / h`, so errors are counted against that.
#[test]
fn kernel_derivatives_match_oracle() {
    let mut rng = TestRng::seed_from_u64(0xB5_0017);
    for mesh in meshes(&mut rng) {
        let defect = uniformity_defect(&mesh.breaks);
        let narrowest = (0..mesh.breaks.num_cells())
            .map(|i| mesh.breaks.cell_width(i))
            .fold(f64::INFINITY, f64::min);
        for space in spaces(&mesh.breaks, &DEGREES) {
            let degree = space.degree();
            let slack = (8.0 * EPS + 2.0 * defect) * degree as f64 / narrowest;
            for &x in &positions(&mesh.breaks, &mut rng) {
                let mut vals = [0.0; MAX_DEGREE + 1];
                let cell = space.eval_basis_deriv(x, &mut vals);
                let w = space.wrap(x);
                assert_eq!(cell, reference_cell(&space, w));
                let mut oracle = [0.0; MAX_DEGREE + 1];
                eval_nonzero_basis_deriv(space.ext_knots(), degree, cell + degree, w, &mut oracle);
                for m in 0..=degree {
                    assert!(
                        (vals[m] - oracle[m]).abs() <= slack,
                        "{} {}: derivative {m} at {x:e}: {} vs {}",
                        mesh.name,
                        kind(&space),
                        vals[m],
                        oracle[m]
                    );
                }
            }
        }
    }
}

/// `eval_lane` is the weights of `eval_basis` dotted with the wrapped
/// coefficients, bit for bit, whatever the order of the positions (the
/// cell hint carried from point to point never changes a result) and
/// whatever strides the three views carry; `eval` is its one-point case.
#[test]
fn eval_lane_is_the_basis_dot_product_bitwise() {
    let mut rng = TestRng::seed_from_u64(0xB5_0018);
    for mesh in meshes(&mut rng) {
        for space in spaces(&mesh.breaks, &DEGREES) {
            let degree = space.degree();
            let n = space.num_basis();
            let xs = positions(&mesh.breaks, &mut rng);
            let coefs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

            let expected: Vec<f64> = xs
                .iter()
                .map(|&x| {
                    let mut vals = [0.0; MAX_DEGREE + 1];
                    let cell = space.eval_basis(x, &mut vals);
                    let mut s = 0.0;
                    for m in 0..=degree {
                        s += vals[m] * coefs[space.coef_index(cell, m)];
                    }
                    s
                })
                .collect();

            // Contiguous views.
            let mut out = vec![0.0; xs.len()];
            space.eval_lane(
                Strided::from_slice(&coefs),
                Strided::from_slice(&xs),
                StridedMut::from_slice(&mut out),
            );
            // Strided views: coefficients every 3rd, positions every 2nd,
            // results every 5th slot.
            let mut wide_coefs = vec![f64::NAN; 3 * n];
            for (k, c) in coefs.iter().enumerate() {
                wide_coefs[3 * k] = *c;
            }
            let mut wide_xs = vec![f64::NAN; 2 * xs.len()];
            for (i, x) in xs.iter().enumerate() {
                wide_xs[2 * i] = *x;
            }
            let mut wide_out = vec![-7.0; 5 * xs.len()];
            space.eval_lane(
                Strided::new(&wide_coefs, n, 3),
                Strided::new(&wide_xs, xs.len(), 2),
                StridedMut::new(&mut wide_out, xs.len(), 5),
            );
            for (i, &x) in xs.iter().enumerate() {
                let what = format!("{} {} at {x:e}", mesh.name, kind(&space));
                assert_eq!(out[i].to_bits(), expected[i].to_bits(), "{what}");
                assert_eq!(wide_out[5 * i].to_bits(), expected[i].to_bits(), "{what}");
                assert_eq!(
                    space.eval(&coefs, x).to_bits(),
                    expected[i].to_bits(),
                    "{what}"
                );
            }
            // Nothing between the strided results was touched.
            assert!(wide_out.iter().skip(1).step_by(5).all(|&v| v == -7.0));
        }
    }
}

/// Every public path wraps exactly once, and the edges of the period are
/// pinned: `x_max` is `x_min`, one ulp below `x_min` is the top of the last
/// cell (or `x_min` itself where the sum rounds there), far-away points
/// land where their in-period image does, and NaN/±∞ give NaN — never a
/// panic or an out-of-range cell — also in the middle of a lane, where the
/// cell hint is stale for the points after them.
#[test]
fn wrap_edges_and_non_finite_positions() {
    for breaks in [
        Breaks::uniform(12, -0.5, 1.0).expect("valid"),
        Breaks::graded(14, -0.5, 1.0, 0.6).expect("valid"),
    ] {
        for degree in [1, 3, 5] {
            let space = PeriodicSplineSpace::new(breaks.clone(), degree).expect("valid");
            let n = space.num_basis();
            let (x0, x1, l) = (breaks.x_min(), breaks.x_max(), breaks.period());
            let coefs: Vec<f64> = (0..n).map(|k| ((k * 5) % 7) as f64 - 2.5).collect();
            let at = |x: f64| space.eval(&coefs, x);

            // Inside the period nothing moves.
            for x in [x0, 0.25, f64::from_bits(x1.to_bits() - 1)] {
                assert_eq!(space.wrap(x).to_bits(), x.to_bits());
            }
            // The right edge is the left edge.
            assert_eq!(space.wrap(x1), x0);
            assert_eq!(space.cell_of(x1), 0);
            assert_eq!(at(x1).to_bits(), at(x0).to_bits());
            // One ulp below x_min: the last cell's top, or x_min.
            let below = -f64::from_bits((-x0).to_bits() + 1);
            assert!(below < x0);
            let w = space.wrap(below);
            assert!(w >= x0 && w < x1, "wrap({below:e}) = {w:e}");
            assert!(space.cell_of(below) == n - 1 || space.cell_of(below) == 0);
            assert!((at(below) - at(x0)).abs() < 1e-12);
            // Many periods away: same point up to the rounding of x itself.
            for k in [-1e6, 1e6, 12345.0] {
                let far = 0.3 + k * l;
                let w = space.wrap(far);
                assert!(w >= x0 && w < x1);
                assert!((at(far) - at(0.3)).abs() < 1e-7, "k = {k}");
            }
            assert_eq!(
                at(0.3 + 2.0 * l).to_bits(),
                at(space.wrap(0.3 + 2.0 * l)).to_bits()
            );

            // Not a number: NaN out, cell in range, neighbours unharmed.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(space.wrap(bad).is_nan());
                assert!(space.cell_of(bad) < n);
                let mut vals = [0.0; MAX_DEGREE + 1];
                assert!(space.eval_basis(bad, &mut vals) < n);
                assert!(vals[..=degree].iter().all(|v| v.is_nan()));
                assert!(space.eval_basis_deriv(bad, &mut vals) < n);
                assert!(at(bad).is_nan());

                // Last cell, then the bad point, then the first cell.
                let xs = [x1 - 1e-3 * l, bad, x0 + 1e-3 * l, bad, 0.4, x1 + 0.1 * l];
                let mut out = [0.0; 6];
                space.eval_lane(
                    Strided::from_slice(&coefs),
                    Strided::from_slice(&xs),
                    StridedMut::from_slice(&mut out),
                );
                for (x, y) in xs.iter().zip(out) {
                    if x.is_finite() {
                        assert_eq!(y.to_bits(), at(*x).to_bits());
                    } else {
                        assert!(y.is_nan());
                    }
                }
            }
        }
    }
}

/// One panel problem: per lane its feet as the evaluator takes them, and
/// what [`eval_lane`] makes of each live lane at the feet they stand for.
///
/// [`eval_lane`]: PeriodicSplineSpace::eval_lane
struct PanelCase {
    what: String,
    lanes: usize,
    rows: usize,
    /// `[n][LANE_WIDTH]`; the padding lanes hold NaN.
    coefs: Vec<f64>,
    /// Per live lane `(base, shift)`: `rows` feet `base[i] − shift`.
    feet: Vec<(Vec<f64>, f64)>,
    /// `[rows][LANE_WIDTH]`, live lanes only.
    expected: Vec<[f64; LANE_WIDTH]>,
}

impl PanelCase {
    /// Lane `l`'s feet, as the panel and column entry points ask for them.
    fn feet<'a>(&'a self) -> impl Fn(usize) -> (&'a [f64], f64) + 'a {
        |l| (&self.feet[l].0[..], self.feet[l].1)
    }

    /// The foot lane `l` stands for in row `i`.
    fn foot(&self, i: usize, l: usize) -> f64 {
        self.feet[l].0[i] - self.feet[l].1
    }
}

/// The feet layouts of the panel rows, each a `base` and a `shift` per lane.
/// `Shuffled(shift)` gives every lane its own order of [`positions`] as its
/// base, so a lane mixes cells, edges and far periods (nothing is a run: the
/// scalar body with a stale hint), shifted by `±0.0`; `Swept` is one
/// ascending sweep of [`positions`] shifted per lane (several feet to a
/// cell); `Poisoned(bad)` is `Swept` with `bad` in every third row of one
/// lane's base; `Advected(shift)` is the advection step's own shape, base
/// `interpolation_points()` (`rows = n`) and shift `shift·h` (one foot to a
/// cell: runs).
#[derive(Clone, Copy)]
enum Feet {
    Shuffled(f64),
    Swept,
    Poisoned(f64),
    Advected(f64),
}

/// Mean cell width.
fn mean_width(breaks: &Breaks) -> f64 {
    breaks.period() / breaks.num_cells() as f64
}

/// The displacements of the `Advected` layout in mean cell widths: none, a
/// fraction of a cell either way, whole cells, more than a period, exactly
/// a period either way (every foot wraps onto a grid point of the next
/// period), half a period and a bit (half the feet cross a clamped edge),
/// the one that puts a foot on a break point, and NaN (every foot NaN).
fn advected_shifts(space: &PeriodicSplineSpace) -> Vec<f64> {
    let breaks = space.breaks();
    let (n, h) = (space.num_basis() as f64, mean_width(breaks));
    let cells = breaks.num_cells() as f64;
    let onto_break = (space.interpolation_point(5) - breaks.points()[3]) / h;
    vec![
        0.0,
        0.37,
        -0.37,
        3.0,
        -3.0,
        n + 2.5,
        -(n + 2.5),
        cells,
        -cells,
        0.5 * cells + 0.37,
        -(0.5 * cells + 0.37),
        onto_break,
        f64::NAN,
    ]
}

fn panel_case(
    space: &PeriodicSplineSpace,
    what: String,
    lanes: usize,
    layout: Feet,
    rng: &mut TestRng,
) -> PanelCase {
    let n = space.num_basis();
    let breaks = space.breaks();
    let mut coefs = vec![f64::NAN; n * LANE_WIDTH];
    for row in coefs.chunks_exact_mut(LANE_WIDTH) {
        for c in &mut row[..lanes] {
            *c = rng.gen_range(-1.0..1.0);
        }
    }
    let mut sweep = positions(breaks, rng);
    sweep.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if let Feet::Advected(_) = layout {
        sweep = space.interpolation_points();
    }
    let rows = sweep.len();
    let poisoned = rng.gen_range(0usize..lanes);
    let feet: Vec<(Vec<f64>, f64)> = (0..lanes)
        .map(|l| {
            let (mut base, shift) = match layout {
                Feet::Shuffled(shift) => (positions(breaks, rng), shift),
                Feet::Swept | Feet::Poisoned(_) => {
                    (sweep.clone(), breaks.period() * rng.gen_range(-0.05..0.05))
                }
                Feet::Advected(shift) => (sweep.clone(), shift * mean_width(breaks)),
            };
            if let (Feet::Poisoned(bad), true) = (layout, l == poisoned) {
                base.iter_mut().skip(1).step_by(3).for_each(|x| *x = bad);
            }
            (base, shift)
        })
        .collect();
    let mut expected = vec![[0.0; LANE_WIDTH]; rows];
    for (l, (base, shift)) in feet.iter().enumerate() {
        let xs: Vec<f64> = base.iter().map(|x| x - shift).collect();
        let mut out = vec![0.0; rows];
        space.eval_lane(
            Strided::new(&coefs[l..], n, LANE_WIDTH),
            Strided::from_slice(&xs),
            StridedMut::from_slice(&mut out),
        );
        for (row, y) in expected.iter_mut().zip(out) {
            row[l] = y;
        }
    }
    PanelCase {
        what,
        lanes,
        rows,
        coefs,
        feet,
        expected,
    }
}

/// The panel and column entry points at `(base, shift)` are
/// [`PeriodicSplineSpace::eval_lane`] at `base − shift`, lane for lane, bit
/// for bit — through every instruction-set instance the host can run
/// (hence every instance equals the baseline one), on every mesh kind and
/// both boundaries, for full and partial panels, with the coefficients
/// apart or in the panel itself, with the padding lanes never written, and
/// a non-finite foot or shift harming nothing but its own points.
#[test]
fn eval_panel_is_eval_lane_bitwise_on_every_isa() {
    let mut rng = TestRng::seed_from_u64(0xB5_0019);
    // Miri is here for the `unsafe` calls into the instances (of which it
    // runs the baseline one only), not for the case list.
    let (degrees, keep): (&[usize], &[&str]) = if cfg!(miri) {
        (&[3], &["uniform dyadic", "graded 0.6"])
    } else {
        (&[1, 2, 3, 4, 5], &[])
    };
    let mut cases = Vec::new();
    for mesh in meshes(&mut rng) {
        if !keep.is_empty() && !keep.contains(&mesh.name) {
            continue;
        }
        for space in spaces(&mesh.breaks, degrees) {
            let mut layouts = vec![
                (Feet::Shuffled(0.0), "shuffled".to_string()),
                (Feet::Shuffled(-0.0), "shuffled, shift -0".to_string()),
                (Feet::Swept, "swept".to_string()),
                (Feet::Poisoned(f64::NAN), "NaN lane".to_string()),
                (Feet::Poisoned(f64::INFINITY), "+inf lane".to_string()),
                (Feet::Poisoned(f64::NEG_INFINITY), "-inf lane".to_string()),
            ];
            let shifts = advected_shifts(&space);
            let shifts = if cfg!(miri) {
                &shifts[1..2]
            } else {
                &shifts[..]
            };
            layouts.extend(
                shifts
                    .iter()
                    .map(|&d| (Feet::Advected(d), format!("advected {d}"))),
            );
            for lanes in [1, 7, LANE_WIDTH] {
                for (layout, name) in &layouts {
                    let what = format!("{} {} lanes {lanes} {name}", mesh.name, kind(&space));
                    let case = panel_case(&space, what, lanes, *layout, &mut rng);
                    cases.push((space.clone(), case));
                }
            }
        }
    }
    // Live lanes against `expected`, padding lanes against `padding`.
    let check = |space: &SplineSpace, case: &PanelCase, panel: &[f64], pad: &[f64], what: &str| {
        let rows = panel
            .chunks_exact(LANE_WIDTH)
            .zip(pad.chunks_exact(LANE_WIDTH));
        for (i, ((got, pad), want)) in rows.zip(&case.expected).enumerate() {
            for l in 0..case.lanes {
                if space.wrap(case.foot(i, l)).is_nan() {
                    assert!(got[l].is_nan() && want[l].is_nan(), "{what}: ({i}, {l})");
                } else {
                    assert_eq!(got[l].to_bits(), want[l].to_bits(), "{what}: ({i}, {l})");
                }
            }
            let (got, pad) = (&got[case.lanes..], &pad[case.lanes..]);
            let untouched = got.iter().zip(pad).all(|(g, p)| g.to_bits() == p.to_bits());
            assert!(untouched, "{what}: padding of row {i}");
        }
    };
    for isa in PanelIsa::ALL {
        if !isa.is_available() {
            eprintln!("panel instance {}: skipped, the host lacks it", isa.name());
            continue;
        }
        for (space, case) in &cases {
            let what = format!("{} on {}", case.what, isa.name());
            let mut out = vec![-7.0; case.rows * LANE_WIDTH];
            space.eval_panel_on(isa, Some(&case.coefs), case.lanes, case.feet(), &mut out);
            check(space, case, &out, &vec![-7.0; out.len()], &what);
            // The step's own shape: the panel holds the coefficients and is
            // overwritten by the results.
            if case.rows == space.num_basis() {
                let mut panel = case.coefs.clone();
                space.eval_panel_on(isa, None, case.lanes, case.feet(), &mut panel);
                check(
                    space,
                    case,
                    &panel,
                    &case.coefs,
                    &format!("{what} in place"),
                );
            }
        }
        eprintln!("panel instance {}: {} cases", isa.name(), cases.len());
    }
    // The switch picks the widest of them.
    let widest = PanelIsa::ALL.into_iter().rfind(|isa| isa.is_available());
    assert_eq!(Some(PanelIsa::detected()), widest);
    // The column egress is the same walk minus the interleaving pass:
    // live lanes only, each a contiguous column.
    for (space, case) in &cases {
        let rows = case.rows;
        let mut out = vec![-7.0; case.lanes * rows];
        space.eval_columns(&case.coefs, case.lanes, case.feet(), &mut out);
        for (l, column) in out.chunks_exact(rows).enumerate() {
            for (i, got) in column.iter().enumerate() {
                let (foot, want) = (case.foot(i, l), case.expected[i][l]);
                let same = got.to_bits() == want.to_bits() || !foot.is_finite() && got.is_nan();
                assert!(same, "{} columns: ({i}, {l})", case.what);
            }
        }
    }
}

/// `s(x)` from the single-point weights of `eval_basis`: the scalar anchor
/// the runs are held to.
fn reference(space: &PeriodicSplineSpace, coefs: &[f64], x: f64) -> f64 {
    let mut vals = [0.0; MAX_DEGREE + 1];
    let cell = space.eval_basis(x, &mut vals);
    let mut s = 0.0;
    for m in 0..=space.degree() {
        s += vals[m] * coefs[space.coef_index(cell, m)];
    }
    s
}

/// Evaluate `lanes` splines (`-0.0` among their coefficients) at `xs`
/// through every panel instance the host has and through `eval_lane` on
/// contiguous and on strided views, and hold every result to [`reference`]
/// bit for bit. Returns the share of runs that took the vector path (the
/// same through every instance).
fn check_against_reference(
    space: &PeriodicSplineSpace,
    xs: &[f64],
    lanes: usize,
    rng: &mut TestRng,
    what: &str,
) -> f64 {
    let (n, rows) = (space.num_basis(), xs.len());
    let mut panel = vec![f64::NAN; n * LANE_WIDTH];
    for row in panel.chunks_exact_mut(LANE_WIDTH) {
        for c in &mut row[..lanes] {
            *c = if rng.gen_bool(0.1) {
                -0.0
            } else {
                rng.gen_range(-1.0..1.0)
            };
        }
    }
    let lane =
        |l: usize| -> Vec<f64> { panel.iter().skip(l).step_by(LANE_WIDTH).copied().collect() };
    let same = |got: f64, want: f64, at: String| {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{at}: {got:e} vs {want:e}"
        );
    };
    let expected: Vec<Vec<f64>> = (0..lanes)
        .map(|l| xs.iter().map(|&x| reference(space, &lane(l), x)).collect())
        .collect();

    let mut vector_runs = None;
    for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
        // `rows` need not be whole runs; the panel is whole rows anyway.
        let mut out = vec![-7.0; rows * LANE_WIDTH];
        let taken = space.eval_panel_on(isa, Some(&panel), lanes, |_| (xs, 0.0), &mut out);
        assert_eq!(
            *vector_runs.get_or_insert(taken),
            taken,
            "{what} on {}",
            isa.name()
        );
        for (i, row) in out.chunks_exact(LANE_WIDTH).enumerate() {
            for l in 0..lanes {
                same(
                    row[l],
                    expected[l][i],
                    format!("{what} on {}: ({i}, {l})", isa.name()),
                );
            }
            assert!(row[lanes..].iter().all(|&v| v == -7.0), "{what}: row {i}");
        }
    }

    let coefs = lane(0);
    let mut out = vec![0.0; rows];
    space.eval_lane(
        Strided::from_slice(&coefs),
        Strided::from_slice(xs),
        StridedMut::from_slice(&mut out),
    );
    let wide_xs: Vec<f64> = xs.iter().flat_map(|&x| [x, f64::NAN, f64::NAN]).collect();
    let mut wide_out = vec![-7.0; 2 * rows];
    space.eval_lane(
        Strided::new(&panel, n, LANE_WIDTH),
        Strided::new(&wide_xs, rows, 3),
        StridedMut::new(&mut wide_out, rows, 2),
    );
    for i in 0..rows {
        same(out[i], expected[0][i], format!("{what}: eval_lane at {i}"));
        same(
            wide_out[2 * i],
            expected[0][i],
            format!("{what}: strided eval_lane at {i}"),
        );
    }
    assert!(
        wide_out.iter().skip(1).step_by(2).all(|&v| v == -7.0),
        "{what}"
    );
    vector_runs.expect("the baseline instance") as f64 / (lanes * (rows / LANE_WIDTH)).max(1) as f64
}

/// The runs of eight — on every instruction set, through `eval_panel` and
/// `eval_lane`, strided or not — return the single-point body's bits, and
/// on the advection step's feet they are what runs: the vector path takes
/// at least nine runs in ten, on a periodic and on a clamped space.
#[test]
fn advected_feet_take_the_vector_path_to_the_scalar_bits() {
    let mut rng = TestRng::seed_from_u64(0xB5_001A);
    // On a graded mesh the feet keep the spacing of where they came from; a
    // run holds while that is the spacing of where they land, i.e. while the
    // shift is short against the length the grading varies over. 1024 cells
    // at strength 0.6 is `adv_resident_n5`: measured 0.96 at one cell, 0.92
    // at 2.3, 0.88–0.92 at four, 0.80 at eight (and 0.66 at 2.3 of 256).
    let (uniform, graded) = if cfg!(miri) { (24, 40) } else { (256, 1024) };
    let degrees: &[usize] = if cfg!(miri) { &[3] } else { &[1, 2, 3, 4, 5] };
    for (name, breaks) in [
        (
            "uniform",
            Breaks::uniform(uniform, -0.7, 2.4).expect("valid"),
        ),
        (
            "graded 0.6",
            Breaks::graded(graded, 0.0, 1.0, 0.6).expect("valid"),
        ),
    ] {
        for space in spaces(&breaks, degrees) {
            let points = space.interpolation_points();
            for shift in [0.0, 0.37, -0.37, 3.0, -3.0, 4.0 * rng.gen_range(-1.0..1.0)] {
                let by = shift * mean_width(&breaks);
                let xs: Vec<f64> = points.iter().map(|x| x - by).collect();
                let what = format!("{name} {} shift {shift}", kind(&space));
                let share = check_against_reference(&space, &xs, 2, &mut rng, &what);
                // Crowded end cells and clamped feet go the scalar way.
                if !space.is_periodic() {
                    eprintln!("{what}: vector-path share {share:.3}");
                }
                // Odd-degree Greville points of a uniform mesh *are* break
                // points up to rounding, and stay so under a whole-cell
                // shift: each foot falls either side of its own break
                // point, which is no sweep (and costs time, never a bit).
                let floor = if shift.abs() <= 2.5 { 0.9 } else { 0.85 };
                if shift.fract() != 0.0 && !cfg!(miri) {
                    assert!(share >= floor, "{what}: vector-path share {share}");
                }
            }
        }
    }
}

/// Run edges by construction: every remainder of rows, meshes on which
/// `c0 + 8 <= n` holds and fails, a sweep through the period's edge, cells
/// holding two feet and cells skipped, a non-finite foot inside a run.
#[test]
fn run_edges_by_construction() {
    let mut rng = TestRng::seed_from_u64(0xB5_001B);
    let degrees: &[usize] = if cfg!(miri) { &[3] } else { &[1, 2, 3, 4, 5] };
    for &degree in degrees {
        let sizes = [2 * degree + 1, 12, 15, 16, 17, 40];
        for n in sizes.into_iter().filter(|&n| n > 2 * degree) {
            for (name, breaks) in [
                ("uniform", Breaks::uniform(n, -0.5, 1.0).expect("valid")),
                (
                    "graded 0.9",
                    Breaks::graded(n, -0.5, 1.0, 0.9).expect("valid"),
                ),
            ] {
                let space = PeriodicSplineSpace::new(breaks.clone(), degree).expect("valid");
                let (h, l) = (mean_width(&breaks), breaks.period());
                let points = space.interpolation_points();
                let what = format!("{name} n {n} degree {degree}");
                // One foot to a cell, through the period's edge and on for
                // `rows` feet: whole runs, one over, one short.
                let start = rng.gen_range(0usize..n);
                for rows in [24, 25, 31] {
                    let xs: Vec<f64> = (0..rows)
                        .map(|i| points[(start + i) % n] + l * ((start + i) / n) as f64 - 0.3 * h)
                        .collect();
                    check_against_reference(
                        &space,
                        &xs,
                        1,
                        &mut rng,
                        &format!("{what} rows {rows}"),
                    );
                }
                // A large displacement on a graded mesh: the feet keep the
                // spacing of where they came from, so cells hold two or none.
                let xs: Vec<f64> = points.iter().map(|x| x - 0.31 * l).collect();
                check_against_reference(&space, &xs, 3, &mut rng, &format!("{what} far"));
                // A non-finite foot in the middle of a run harms itself only.
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut xs: Vec<f64> = points.iter().map(|x| x - 0.2 * h).collect();
                    xs[n / 2] = bad;
                    xs[3 % n] = bad;
                    check_against_reference(&space, &xs, 1, &mut rng, &format!("{what} {bad}"));
                }
            }
        }
    }
}
