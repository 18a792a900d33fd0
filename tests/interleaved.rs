//! One differential table for the four solve routines and the builder.
//!
//! Each of `pttrs`, `pbtrs`, `gbtrs`, `getrs` has a single sweep in
//! `pp-linalg`, instantiated for strided lanes (`batched::*`), for
//! interleaved panels (`*_resident`) and for `P` panels abreast
//! (`[Panel; P]`, what a worker's turn of the fused step solves). The table
//! below (routine × n ∈ {0, 1, 2, 17} × batch ∈ {1, 7, 8, 9, 16} × layout,
//! and × P ∈ {1, 2, 4} abreast with a partial last panel) holds every
//! instantiation to two contracts:
//!
//! * **against the dense reference** (`pp_linalg::naive`): each lane's
//!   error is at most [`REFERENCE_ULPS`] units in the last place of the
//!   lane's largest component;
//! * **across instantiations, bitwise**: a lane's `to_bits` are the same
//!   from `batched::*`, `*_resident` and any number of panels abreast, and
//!   do not depend on the batch width, the layout, or whether the lane sits
//!   in a full or a partial final panel. Right-hand sides include `+0.0` /
//!   `-0.0` entries and an all-zero lane, which is where skip-branches
//!   in one copy of a sweep used to show.

use batched_splines::prelude::*;
use pp_linalg::{
    batched, gbtrf, gbtrs_resident, getrf, getrs_resident, naive, pbtrf, pbtrs_resident, pttrf,
    pttrs_resident, BandedLu, BandedMatrix, CholeskyBanded, LuFactors, Panel, PtFactors,
    SymBandedMatrix,
};
use pp_portable::{HostField, PanelIsa, TestRng, LANE_WIDTH};
use pp_splinesolver::Solved;

mod oracle;

/// Stated bound against the dense reference, in ulps of the lane's
/// largest solution component (both sides are backward-stable solves of
/// well-conditioned systems; they differ by a few roundings per row).
const REFERENCE_ULPS: f64 = 8.0;

const ORDERS: [usize; 4] = [0, 1, 2, 17];
const BATCHES: [usize; 5] = [
    1,
    LANE_WIDTH - 1,
    LANE_WIDTH,
    LANE_WIDTH + 1,
    2 * LANE_WIDTH,
];

/// The factors of one routine, with its two batched drivers.
enum Factors {
    Pt(PtFactors),
    Pb(CholeskyBanded),
    Gb(BandedLu),
    Ge(LuFactors),
}

impl Factors {
    fn host(&self, b: &mut Matrix) {
        match self {
            Factors::Pt(f) => batched::pttrs(&Parallel, f, b),
            Factors::Pb(f) => batched::pbtrs(&Parallel, f, b),
            Factors::Gb(f) => batched::gbtrs(&Parallel, f, b),
            Factors::Ge(f) => batched::getrs(&Parallel, f, b),
        }
    }

    fn resident(&self, b: &mut ResidentBatch) {
        match self {
            Factors::Pt(f) => pttrs_resident(&Parallel, f, b),
            Factors::Pb(f) => pbtrs_resident(&Parallel, f, b),
            Factors::Gb(f) => gbtrs_resident(&Parallel, f, b),
            Factors::Ge(f) => getrs_resident(&Parallel, f, b),
        }
    }

    /// The first `P · LANE_WIDTH − 3` lanes as `P` panels solved abreast
    /// (the last one partial): every lane carries its canonical bits.
    fn abreast<const P: usize>(&self, n: usize, canonical: &[Vec<u64>], what: &str) {
        let batch = P * LANE_WIDTH - 3;
        let packed = ResidentBatch::pack(&batch_rhs(n, batch, Layout::Left));
        let mut panels: [Vec<f64>; P] = std::array::from_fn(|c| packed.chunk(c).to_vec());
        let mut rows = panels.each_mut().map(|panel| Panel::new(panel, n));
        match self {
            Factors::Pt(f) => f.solve_rows(&mut rows, 0),
            Factors::Pb(f) => f.solve_rows(&mut rows, 0),
            Factors::Gb(f) => f.solve_rows(&mut rows, 0),
            Factors::Ge(f) => f.solve_rows(&mut rows, 0),
        }
        for (j, want) in canonical.iter().enumerate().take(batch) {
            let lane = panels[j / LANE_WIDTH].iter().skip(j % LANE_WIDTH);
            let got = bits(lane.step_by(LANE_WIDTH).copied());
            assert_eq!(&got, want, "{what} {P} abreast lane {j}");
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Routine {
    Pttrs,
    Pbtrs,
    Gbtrs,
    Getrs,
}

impl Routine {
    /// A well-conditioned order-`n` matrix of the routine's class, dense
    /// and factored.
    fn system(self, n: usize) -> (Matrix, Factors) {
        let mut rng = TestRng::seed_from_u64(0x9a11 + n as u64);
        match self {
            Routine::Pttrs => {
                let d: Vec<f64> = (0..n).map(|_| rng.gen_range(3.0..5.0)).collect();
                let e: Vec<f64> = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let dense = Matrix::from_fn(n, n, Layout::Right, |i, j| match i.abs_diff(j) {
                    0 => d[i],
                    1 => e[i.min(j)],
                    _ => 0.0,
                });
                (dense, Factors::Pt(pttrf(&d, &e).unwrap()))
            }
            Routine::Pbtrs => {
                let kd = 2.min(n.saturating_sub(1));
                let a = SymBandedMatrix::from_fn(n, kd, |i, j| {
                    if i == j {
                        6.0
                    } else {
                        0.3 + 0.1 * ((i + j) % 3) as f64
                    }
                })
                .unwrap();
                (a.to_dense(), Factors::Pb(pbtrf(&a).unwrap()))
            }
            Routine::Gbtrs => {
                let kl = 2.min(n.saturating_sub(1));
                let ku = 1.min(n.saturating_sub(1));
                // A dominant first sub-diagonal forces a row interchange
                // at every step, so the swap path is always on.
                let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
                    if i == j + 1 {
                        4.0
                    } else {
                        1.0 + 0.2 * ((i * 7 + j) % 5) as f64
                    }
                })
                .unwrap();
                (a.to_dense(), Factors::Gb(gbtrf(&a).unwrap()))
            }
            Routine::Getrs => {
                let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
                    if (i + 1) % n.max(1) == j {
                        (n as f64) + 2.0
                    } else {
                        rng.gen_range(-0.75..0.75)
                    }
                });
                let f = getrf(&a).unwrap();
                (a, Factors::Ge(f))
            }
        }
    }
}

/// Right-hand side of lane `j`: a function of the lane index alone, so
/// the same lane can be placed in batches of any width. Of every four
/// lanes one is all `+0.0`, one all `-0.0` (where `-0.0 − l·(-0.0)`
/// flips a sign that a skipped update would keep), and one opens with a
/// run of mixed signed zeros before its values.
fn lane_rhs(n: usize, j: usize) -> Vec<f64> {
    let mut rng = TestRng::seed_from_u64(0x51de + j as u64);
    (0..n)
        .map(|i| {
            let v = rng.gen_range(-2.0..2.0);
            match j % 4 {
                1 if i < n / 2 => [-0.0, -0.0, 0.0][(i + j) % 3],
                2 => 0.0,
                3 => -0.0,
                _ => v,
            }
        })
        .collect()
}

/// The first `batch` lanes as an `n × batch` right-hand-side block.
fn batch_rhs(n: usize, batch: usize, layout: Layout) -> Matrix {
    let lanes: Vec<Vec<f64>> = (0..batch).map(|j| lane_rhs(n, j)).collect();
    Matrix::from_fn(n, batch, layout, |i, j| lanes[j][i])
}

fn bits(lane: impl IntoIterator<Item = f64>) -> Vec<u64> {
    lane.into_iter().map(f64::to_bits).collect()
}

/// Bits of lane `j` of a host matrix (`Matrix::col` rejects `n == 0`).
/// `r` unpacked into a fresh host matrix.
fn unpacked(r: &ResidentBatch) -> Matrix {
    let mut host = Matrix::zeros(r.nrows(), r.ncols(), Layout::Left);
    r.unpack_into(&mut host).unwrap();
    host
}

fn lane_bits(m: &Matrix, j: usize) -> Vec<u64> {
    bits((0..m.nrows()).map(|i| m.get(i, j)))
}

/// The whole table for one routine.
fn differential(routine: Routine) {
    // Wide enough for four panels abreast.
    let widest = 4 * LANE_WIDTH;
    for n in ORDERS {
        let (dense, factors) = routine.system(n);
        // Canonical bits of each lane: solved alone, as a batch of one.
        let canonical: Vec<Vec<u64>> = (0..widest)
            .map(|j| {
                let rhs = lane_rhs(n, j);
                let mut x = Matrix::from_fn(n, 1, Layout::Left, |i, _| rhs[i]);
                factors.host(&mut x);
                let x: Vec<f64> = (0..n).map(|i| x.get(i, 0)).collect();
                let reference = naive::solve_dense(&dense, &rhs).unwrap();
                let scale = reference.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                let ulp = (f64::EPSILON * scale).max(f64::MIN_POSITIVE);
                for (got, want) in x.iter().zip(&reference) {
                    assert!(
                        (got - want).abs() <= REFERENCE_ULPS * ulp,
                        "{routine:?} n={n} lane {j}: {got:e} vs dense reference {want:e}"
                    );
                }
                bits(x)
            })
            .collect();
        for batch in BATCHES {
            for layout in [Layout::Left, Layout::Right] {
                let what = format!("{routine:?} n={n} batch={batch} {layout:?}");
                let rhs = batch_rhs(n, batch, layout);
                let mut host = rhs.clone();
                factors.host(&mut host);
                let mut resident = ResidentBatch::pack(&rhs);
                factors.resident(&mut resident);
                let resident = unpacked(&resident);
                for (j, want) in canonical.iter().enumerate().take(batch) {
                    assert_eq!(&lane_bits(&host, j), want, "{what} batched lane {j}");
                    assert_eq!(&lane_bits(&resident, j), want, "{what} resident lane {j}");
                }
            }
        }
        let what = format!("{routine:?} n={n}");
        factors.abreast::<1>(n, &canonical, &what);
        factors.abreast::<2>(n, &canonical, &what);
        factors.abreast::<4>(n, &canonical, &what);
    }
}

// One entry point per routine row of the table, under the names the
// suite has always reported (zero ulp is within two).

#[test]
fn pttrs_pack_solve_unpack_matches_scalar_within_2_ulp() {
    differential(Routine::Pttrs);
}

#[test]
fn pbtrs_pack_solve_unpack_matches_scalar_within_2_ulp() {
    differential(Routine::Pbtrs);
}

#[test]
fn gbtrs_pack_solve_unpack_matches_scalar_within_2_ulp() {
    differential(Routine::Gbtrs);
}

#[test]
fn getrs_pack_solve_unpack_matches_scalar_within_2_ulp() {
    differential(Routine::Getrs);
}

/// The coefficients `SplineBuilder::solve_then` hands out on `exec`, kept:
/// from a resident batch, which the continuation leaves holding them, and
/// from the lane-contiguous host field of the same right-hand sides `rhs`,
/// both as `(n, batch)` matrices.
fn fused_coefficients<E: ExecSpace>(
    exec: &E,
    builder: &SplineBuilder,
    rhs: &Matrix,
) -> (Matrix, Matrix) {
    let (n, batch) = rhs.shape();
    let mut resident = ResidentBatch::pack(rhs);
    let in_place = |_: usize, _: usize, solved: Solved<'_>| {
        assert!(
            matches!(solved, Solved::InPlace(_)),
            "a panel is solved where it lies"
        );
    };
    builder.solve_then(exec, &mut resident, in_place).unwrap();
    let mut host = Matrix::from_fn(batch, n, Layout::Right, |j, i| rhs.get(i, j));
    let keep_lanes = |_: usize, _: usize, solved: Solved<'_>| {
        let Solved::Apart { coefs, mut block } = solved else {
            panic!("a host block is not a panel");
        };
        for l in 0..block.lanes() {
            let column = coefs.iter().skip(l).step_by(LANE_WIDTH);
            block
                .lane(l)
                .values()
                .zip(column)
                .for_each(|(v, c)| *v = *c);
        }
    };
    let mut field = HostField::new(&mut host);
    builder.solve_then(exec, &mut field, keep_lanes).unwrap();
    let host = Matrix::from_fn(n, batch, Layout::Left, |i, j| host.get(j, i));
    (unpacked(&resident), host)
}

/// Full pipeline: every coefficient of the production version
/// (`FusedSpmv`) carries the bits of its scalar per-lane oracle — Algorithm
/// 1 on a contiguous copy of the lane, composed from the public blocks —
/// lanes of full chunks and of the partial final chunk alike, and through
/// every entry point: `solve_in_place` on either layout, the fused entry
/// point's runs of four, two and one panels abreast on both kinds of field,
/// and the abreast solve in every instance this host has. Clamped spaces
/// (border 0: Algorithm 1 is the `gbtrs` sweep alone) are rows of the same
/// table, and every version on every row is held to the dense reference.
#[test]
fn builder_matches_scalar_oracle_per_lane_within_2_ulp() {
    // Runs of the fused entry point under `Serial`: 4 + (1 partial),
    // 4 + 2 + 1, on top of the table's single and double panels.
    let batches = BATCHES
        .into_iter()
        .chain([4 * LANE_WIDTH + 5, 7 * LANE_WIDTH]);
    let uniform = Breaks::uniform(32, 0.0, 1.0).unwrap();
    let graded = Breaks::graded(32, 0.0, 1.0, 0.6).unwrap();
    let mut spaces = vec![
        SplineSpace::clamped(uniform.clone(), 3).unwrap(),
        SplineSpace::clamped(graded.clone(), 5).unwrap(),
    ];
    for degree in [3, 4, 5] {
        spaces.push(SplineSpace::new(uniform.clone(), degree).unwrap());
        spaces.push(SplineSpace::new(graded.clone(), degree).unwrap());
    }
    for space in spaces {
        let n = space.num_basis();
        let (degree, uniform) = (space.degree(), space.breaks().is_uniform());
        let row = format!(
            "deg {degree} uniform {uniform} periodic {}",
            space.is_periodic()
        );
        let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
        let dense = pp_bsplines::assemble_interpolation_matrix(&space);
        let rhs = batch_rhs(n, 2 * LANE_WIDTH + 3, Layout::Left);
        for version in BuilderVersion::ALL {
            let mut x = rhs.clone();
            let builder = SplineBuilder::new(space.clone(), version).unwrap();
            builder.solve_in_place(&Parallel, &mut x).unwrap();
            for j in 0..rhs.ncols() {
                let lane: Vec<f64> = (0..n).map(|i| rhs.get(i, j)).collect();
                let want = naive::solve_dense(&dense, &lane).unwrap();
                let worst = (0..n)
                    .map(|i| (x.get(i, j) - want[i]).abs())
                    .fold(0.0, f64::max);
                assert!(worst < 1e-10, "{row} {version:?} lane {j}: {worst:e}");
            }
        }
        for batch in batches.clone() {
            let what = format!("{row} batch {batch}");
            let rhs = batch_rhs(n, batch, Layout::Left);
            let reference = oracle::oracle_solved(&builder, &rhs, 1);
            let mut x = rhs.clone();
            builder.solve_in_place(&Parallel, &mut x).unwrap();
            let mut x_right = rhs.to_layout(Layout::Right);
            builder.solve_in_place(&Serial, &mut x_right).unwrap();
            for (fused, host) in [
                fused_coefficients(&Serial, &builder, &rhs),
                fused_coefficients(&Parallel, &builder, &rhs),
            ] {
                for j in 0..batch {
                    let want = lane_bits(&reference, j);
                    assert_eq!(lane_bits(&fused, j), want, "{what} fused lane {j}");
                    assert_eq!(lane_bits(&host, j), want, "{what} fused host lane {j}");
                }
            }
            let packed = ResidentBatch::pack(&rhs);
            for isa in PanelIsa::ALL.into_iter().filter(|isa| isa.is_available()) {
                let chunks = 0..packed.num_chunks();
                let mut panels: Vec<f64> = chunks.flat_map(|c| packed.chunk(c).to_vec()).collect();
                builder.solve_panels_on(isa, &mut panels);
                for j in 0..batch {
                    let panel = panels.chunks_exact(n * LANE_WIDTH).nth(j / LANE_WIDTH);
                    let lane = panel.unwrap().iter().skip(j % LANE_WIDTH);
                    let got = bits(lane.step_by(LANE_WIDTH).copied());
                    let want = lane_bits(&reference, j);
                    assert_eq!(got, want, "{what} abreast on {} lane {j}", isa.name());
                }
            }
            for j in 0..batch {
                let want = lane_bits(&reference, j);
                assert_eq!(lane_bits(&x, j), want, "{what} lane {j}");
                assert_eq!(lane_bits(&x_right, j), want, "{what} right lane {j}");
            }
        }
    }
}
