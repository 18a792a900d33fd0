//! Resident-batch pipelines against the pack-per-solve reference.
//!
//! The contract under test is the residency acceptance criterion: for
//! every routine class (`pttrs`, `pbtrs`, `gbtrs`, `getrs`) and for the
//! full builder pipeline, `pack once → N solves → unpack once` must be
//! **bit-identical** to N independent `pack → solve → unpack` round
//! trips — pack and unpack are pure copies, so residency may not change
//! a single bit. Batch widths sweep through sub-chunk batches
//! (batch < 8) and partial trailing chunks.

use batched_splines::prelude::*;
use pp_linalg::{
    gbtrf, gbtrs_resident, getrf, getrs_resident, pbtrf, pbtrs_resident, pttrf, pttrs_resident,
    BandedMatrix, SymBandedMatrix,
};
use pp_portable::TestRng;

mod oracle;

fn random_rhs(n: usize, batch: usize, layout: Layout, rng: &mut TestRng) -> Matrix {
    Matrix::from_fn(n, batch, layout, |_, _| rng.gen_range(-2.0..2.0))
}

/// Batch widths straddling the lane chunk boundary plus randomized
/// draws, so sub-chunk batches (batch < 8) and partial trailing chunks
/// (batch % 8 != 0) are always exercised.
fn batch_widths(rng: &mut TestRng) -> Vec<usize> {
    let mut widths = vec![
        1,
        LANE_WIDTH - 1,
        LANE_WIDTH,
        LANE_WIDTH + 1,
        3 * LANE_WIDTH,
    ];
    widths.push(rng.gen_range(1..LANE_WIDTH)); // strictly sub-chunk
    widths.push(rng.gen_range(LANE_WIDTH + 1..6 * LANE_WIDTH));
    widths
}

/// `r` unpacked into a fresh host matrix.
fn unpacked(r: &ResidentBatch) -> Matrix {
    let mut host = Matrix::zeros(r.nrows(), r.ncols(), Layout::Left);
    r.unpack_into(&mut host).unwrap();
    host
}

fn assert_bits(expected: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(expected.shape(), got.shape(), "{what}");
    for i in 0..expected.nrows() {
        for j in 0..expected.ncols() {
            assert_eq!(
                expected.get(i, j).to_bits(),
                got.get(i, j).to_bits(),
                "{what}: ({i},{j}) resident {} vs pack-per-solve {}",
                got.get(i, j),
                expected.get(i, j)
            );
        }
    }
}

/// Run `solves` through both disciplines and compare bitwise:
/// pack-per-solve re-packs around every call, resident packs once and
/// unpacks once at the end.
fn residency_vs_pack_per_solve(
    rhs: &Matrix,
    solves: usize,
    solve: &dyn Fn(&mut ResidentBatch),
    what: &str,
) {
    let mut reference = rhs.clone();
    for _ in 0..solves {
        let mut r = ResidentBatch::pack(&reference);
        solve(&mut r);
        r.unpack_into(&mut reference).unwrap();
    }
    let mut r = ResidentBatch::pack(rhs);
    for _ in 0..solves {
        solve(&mut r);
    }
    assert_bits(&reference, &unpacked(&r), what);
}

#[test]
fn pttrs_resident_chain_matches_pack_per_solve() {
    let mut rng = TestRng::seed_from_u64(0xe1);
    for n in [1usize, 5, 16, 33] {
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(3.0..5.0)).collect();
        let e: Vec<f64> = (0..n.saturating_sub(1))
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let f = pttrf(&d, &e).unwrap();
        for batch in batch_widths(&mut rng) {
            for layout in [Layout::Left, Layout::Right] {
                let rhs = random_rhs(n, batch, layout, &mut rng);
                residency_vs_pack_per_solve(
                    &rhs,
                    3,
                    &|b| pttrs_resident(&Parallel, &f, b),
                    &format!("pttrs n={n} batch={batch}"),
                );
            }
        }
    }
}

#[test]
fn pbtrs_resident_chain_matches_pack_per_solve() {
    let mut rng = TestRng::seed_from_u64(0xe2);
    for n in [1usize, 6, 17, 32] {
        let kd = 2.min(n - 1);
        let a = SymBandedMatrix::from_fn(n, kd, |i, j| {
            if i == j {
                6.0
            } else {
                0.3 + 0.1 * ((i + j) % 3) as f64
            }
        })
        .unwrap();
        let f = pbtrf(&a).unwrap();
        for batch in batch_widths(&mut rng) {
            let rhs = random_rhs(n, batch, Layout::Left, &mut rng);
            residency_vs_pack_per_solve(
                &rhs,
                3,
                &|b| pbtrs_resident(&Parallel, &f, b),
                &format!("pbtrs n={n} batch={batch}"),
            );
        }
    }
}

#[test]
fn gbtrs_resident_chain_matches_pack_per_solve() {
    let mut rng = TestRng::seed_from_u64(0xe3);
    for n in [1usize, 7, 19, 30] {
        let kl = 2.min(n - 1);
        let ku = 1.min(n - 1);
        // Tiny diagonals force partial pivoting so the row-swap path of
        // the wide kernel is covered too.
        let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
            if i == j {
                if i % 5 == 4 {
                    1e-8
                } else {
                    4.0
                }
            } else {
                1.0 + 0.2 * ((i * 7 + j) % 5) as f64
            }
        })
        .unwrap();
        let f = gbtrf(&a).unwrap();
        for batch in batch_widths(&mut rng) {
            let rhs = random_rhs(n, batch, Layout::Left, &mut rng);
            residency_vs_pack_per_solve(
                &rhs,
                3,
                &|b| gbtrs_resident(&Parallel, &f, b),
                &format!("gbtrs n={n} batch={batch}"),
            );
        }
    }
}

#[test]
fn getrs_resident_chain_matches_pack_per_solve() {
    let mut rng = TestRng::seed_from_u64(0xe4);
    for n in [1usize, 4, 9, 13] {
        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i == j {
                (n as f64) + 2.0
            } else {
                ((i * 13 + j * 5) % 7) as f64 * 0.25 - 0.75
            }
        });
        let f = getrf(&a).unwrap();
        for batch in batch_widths(&mut rng) {
            let rhs = random_rhs(n, batch, Layout::Left, &mut rng);
            residency_vs_pack_per_solve(
                &rhs,
                3,
                &|b| getrs_resident(&Serial, &f, b),
                &format!("getrs n={n} batch={batch}"),
            );
        }
    }
}

/// The spline configurations of the all-version rows, one per interior
/// class: `pttrs` (narrowest border), `pbtrs`, and `gbtrs` (widest).
fn configurations() -> [PeriodicSplineSpace; 3] {
    [
        PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap(),
        PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 5).unwrap(),
        PeriodicSplineSpace::new(Breaks::graded(32, 0.0, 1.0, 0.6).unwrap(), 5).unwrap(),
    ]
}

/// Batch widths of the all-version rows: a lone lane, and lanes on either
/// side of one and two panel boundaries.
const VERSION_ROW_BATCHES: [usize; 5] = [1, 7, 8, 9, 17];

/// Full builder pipeline, every version: `solve_resident` chained N times
/// must carry the bits of the version's scalar oracle run N times on each
/// lane's contiguous copy.
#[test]
fn builder_resident_chain_matches_interleaved_pack_per_solve() {
    let mut rng = TestRng::seed_from_u64(0xe5);
    for space in configurations() {
        for version in BuilderVersion::ALL {
            let builder = SplineBuilder::new(space.clone(), version).unwrap();
            let mut batches = batch_widths(&mut rng);
            batches.extend(VERSION_ROW_BATCHES);
            for batch in batches {
                let rhs = random_rhs(32, batch, Layout::Left, &mut rng);
                let reference = oracle::oracle_solved(&builder, &rhs, 3);
                let mut r = ResidentBatch::pack(&rhs);
                for _ in 0..3 {
                    builder.solve_resident(&Parallel, &mut r).unwrap();
                }
                assert_bits(
                    &reference,
                    &unpacked(&r),
                    &format!("builder {version:?} deg={} batch={batch}", space.degree()),
                );
            }
        }
    }
}

/// Verified pipeline: the resident entry point, chained, must produce the
/// same verdicts and the same bits as the host entry point, including with
/// a quarantined lane in the batch, zeroed where it lies, and with the ABFT
/// screen healing a transient strike on another — and, for every version,
/// an ABFT retry must hand back the bits the batched kernel gives that lane.
#[test]
fn verified_resident_chain_matches_host_verified_path() {
    let mut rng = TestRng::seed_from_u64(0xe6);
    let space = PeriodicSplineSpace::new(Breaks::uniform(32, 0.0, 1.0).unwrap(), 3).unwrap();
    let rows = [
        (3, false),
        (LANE_WIDTH + 3, false),
        (5, true),
        (8, true),
        (13, true),
    ];
    for (batch, abft) in rows {
        let verified = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv)
            .unwrap()
            .verified(VerifyConfig {
                abft,
                sdc_probe_lanes: if abft { vec![2] } else { vec![] },
                ..VerifyConfig::default()
            });
        let what = format!("verified batch={batch} abft={abft}");
        let mut rhs = random_rhs(32, batch, Layout::Left, &mut rng);
        rhs.set(7, 1, f64::NAN); // poison one lane
        let mut host = rhs.clone();
        let mut resident = ResidentBatch::pack(&rhs);
        for _ in 0..3 {
            let hr = verified.solve_in_place(&Parallel, &mut host).unwrap();
            let rr = verified.solve_resident(&Parallel, &mut resident).unwrap();
            assert_eq!(hr, rr, "{what}");
        }
        assert_bits(&host, &unpacked(&resident), &what);
        assert!((0..32).all(|i| resident.get(i, 1) == 0.0), "{what}");
    }

    for space in configurations() {
        for version in BuilderVersion::ALL {
            for batch in VERSION_ROW_BATCHES {
                let what = format!("sdc retry {version:?} deg={} batch={batch}", space.degree());
                let struck = batch - 1; // the last lane: in the tail panel
                let verified = |sdc_probe_lanes| {
                    SplineBuilder::new(space.clone(), version)
                        .unwrap()
                        .verified(VerifyConfig {
                            abft: true,
                            sdc_probe_lanes,
                            ..VerifyConfig::default()
                        })
                };
                let rhs = random_rhs(32, batch, Layout::Left, &mut rng);
                let mut unprobed = ResidentBatch::pack(&rhs);
                let clean = verified(vec![])
                    .solve_resident(&Parallel, &mut unprobed)
                    .unwrap();
                assert!(clean.all_verified(), "{what}: {clean}");
                let mut probed = ResidentBatch::pack(&rhs);
                let report = verified(vec![struck])
                    .solve_resident(&Parallel, &mut probed)
                    .unwrap();
                assert_eq!(report.sdc_corrected_lanes(), vec![struck], "{what}");
                assert_bits(&unpacked(&unprobed), &unpacked(&probed), &what);
            }
        }
    }
}

/// Mutation property test: against a randomised sequence of point
/// writes, lane scatters, zeroing, solves and re-ingress, the batch must
/// agree bit for bit with a shadow host matrix maintained alongside —
/// unpacked after every operation, and read back element by element and
/// lane by lane.
#[test]
fn random_mutations_match_the_shadow_matrix_property() {
    let n = 12;
    let batch = 13; // crosses one chunk boundary
    let mut rng = TestRng::seed_from_u64(0xe7);
    let space = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), 3).unwrap();
    let builder = SplineBuilder::new(space, BuilderVersion::FusedSpmv).unwrap();

    let mut shadow = random_rhs(n, batch, Layout::Left, &mut rng);
    let mut r = ResidentBatch::pack(&shadow);
    for op in 0..200 {
        match rng.gen_range(0..5usize) {
            0 => {
                // Point write.
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..batch);
                let v = rng.gen_range(-1.0..1.0);
                r.set(i, j, v);
                shadow.set(i, j, v);
            }
            1 => {
                // Lane scatter.
                let j = rng.gen_range(0..batch);
                let lane: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                r.write_lane(j, &lane);
                for (i, &v) in lane.iter().enumerate() {
                    shadow.set(i, j, v);
                }
            }
            2 => {
                // Quarantine zeroing.
                let j = rng.gen_range(0..batch);
                r.write_lane(j, &vec![0.0; n]);
                for i in 0..n {
                    shadow.set(i, j, 0.0);
                }
            }
            3 => {
                // A full solver dispatch.
                builder.solve_resident(&Parallel, &mut r).unwrap();
                builder.solve_in_place(&Parallel, &mut shadow).unwrap();
            }
            _ => {
                // Re-ingress from the shadow.
                r.pack_from(&shadow).unwrap();
            }
        }
        let what = format!("op {op}");
        assert_bits(&shadow, &unpacked(&r), &what);
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..batch));
        let mut lane = vec![0.0; n];
        r.copy_lane_into(j, &mut lane);
        assert_eq!(r.get(i, j).to_bits(), shadow.get(i, j).to_bits(), "{what}");
        assert_eq!(lane[i].to_bits(), shadow.get(i, j).to_bits(), "{what}");
    }
}
