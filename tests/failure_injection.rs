//! Failure-injection tests: malformed inputs must produce typed errors
//! (or well-defined propagation), never panics or silent corruption.

use batched_splines::prelude::*;
use pp_bsplines::SplineSpace;
use pp_linalg::{gbtrf, getrf, pbtrf, pttrf, BandedMatrix, SymBandedMatrix};
use pp_portable::Matrix as PMatrix;
use pp_splinesolver::SchurBlocks;

/// Singular inputs are rejected with typed errors by every factorisation.
#[test]
fn singular_matrices_rejected_everywhere() {
    // getrf: rank-deficient dense.
    let dense = PMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
    assert!(getrf(&dense).is_err());
    // gbtrf: zero column.
    let mut gb = BandedMatrix::new(3, 1, 1).unwrap();
    gb.set(0, 0, 1.0).unwrap();
    gb.set(2, 2, 1.0).unwrap();
    assert!(gbtrf(&gb).is_err());
    // pbtrf: indefinite.
    let mut pb = SymBandedMatrix::new(2, 1).unwrap();
    pb.set(0, 0, 1.0).unwrap();
    pb.set(1, 0, 5.0).unwrap();
    pb.set(1, 1, 1.0).unwrap();
    assert!(pbtrf(&pb).is_err());
    // pttrf: non-positive diagonal.
    assert!(pttrf(&[0.0, 1.0], &[0.5]).is_err());
}

/// Mesh construction rejects non-monotone and degenerate inputs.
#[test]
fn bad_meshes_rejected() {
    assert!(Breaks::from_points(vec![0.0, 0.5, 0.4, 1.0]).is_err());
    assert!(Breaks::from_points(vec![0.0, 0.0, 1.0]).is_err());
    assert!(Breaks::from_points(vec![1.0]).is_err());
    assert!(Breaks::uniform(0, 0.0, 1.0).is_err());
    assert!(Breaks::uniform(8, 1.0, 1.0).is_err());
    assert!(Breaks::uniform(8, f64::NAN, 1.0).is_err());
    assert!(Breaks::graded(8, 0.0, 1.0, 1.5).is_err());
    assert!(Breaks::graded(8, 0.0, 1.0, -0.1).is_err());
}

/// Space construction enforces degree and size bounds.
#[test]
fn bad_spaces_rejected() {
    let b = Breaks::uniform(8, 0.0, 1.0).unwrap();
    assert!(PeriodicSplineSpace::new(b.clone(), 0).is_err());
    assert!(PeriodicSplineSpace::new(b.clone(), 6).is_err());
    assert!(PeriodicSplineSpace::new(Breaks::uniform(6, 0.0, 1.0).unwrap(), 3).is_err());
    assert!(SplineSpace::clamped(Breaks::uniform(3, 0.0, 1.0).unwrap(), 3).is_err());
    assert!(SplineSpace::clamped(b, 6).is_err());
}

/// The Schur decomposition refuses matrices that are not banded-plus-
/// border.
#[test]
fn unstructured_matrix_rejected() {
    let dense = PMatrix::from_fn(16, 16, Layout::Right, |i, j| 1.0 / (1 + i + j) as f64);
    assert!(SchurBlocks::from_dense(&dense, 3, true).is_err());
}

/// NaN right-hand sides propagate NaN (no panic, no fake convergence in
/// the direct path).
#[test]
fn nan_rhs_propagates_in_direct_solver() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(16, 0.0, 1.0).unwrap(), 3).unwrap();
    let builder = SplineBuilder::new(space, BuilderVersion::FusedSpmv).unwrap();
    let mut b = Matrix::zeros(16, 2, Layout::Left);
    b.set(3, 0, f64::NAN);
    b.set(0, 1, 1.0);
    builder.solve_in_place(&Serial, &mut b).unwrap();
    // Lane 0 is poisoned...
    assert!(b.col(0).to_vec().iter().any(|v| v.is_nan()));
    // ...but lane 1 is untouched by it (lanes are independent).
    assert!(b.col(1).to_vec().iter().all(|v| v.is_finite()));
}

/// NaN right-hand sides make the iterative backend report failure rather
/// than "converge".
#[test]
fn nan_rhs_fails_iterative_solver() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(16, 0.0, 1.0).unwrap(), 3).unwrap();
    let solver = IterativeSplineSolver::new(space, IterativeConfig::gpu()).unwrap();
    let mut b = Matrix::zeros(16, 1, Layout::Left);
    b.set(5, 0, f64::NAN);
    assert!(solver.solve_in_place(&mut b, None).is_err());
}

/// Shape mismatches are rejected across the stack.
#[test]
fn shape_mismatches_rejected() {
    let space = PeriodicSplineSpace::new(Breaks::uniform(16, 0.0, 1.0).unwrap(), 3).unwrap();
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::Fused).unwrap();
    let mut wrong = Matrix::zeros(17, 2, Layout::Left);
    assert!(builder.solve_in_place(&Serial, &mut wrong).is_err());
    assert!(builder
        .with_version(BuilderVersion::FusedSpmv)
        .solve_in_place(&Serial, &mut wrong)
        .is_err());

    let ev = SplineEvaluator::new(space.clone());
    let coefs = Matrix::zeros(16, 2, Layout::Left);
    let pos = Matrix::zeros(4, 3, Layout::Left); // batch mismatch
    let mut out = Matrix::zeros(4, 3, Layout::Left);
    assert!(ev.eval_batched(&Serial, &coefs, &pos, &mut out).is_err());

    let backend = SplineBackend::direct(space, BuilderVersion::Fused).unwrap();
    let mut adv = Advection1D::new(backend, vec![0.1, 0.2], 0.1).unwrap();
    let mut bad = Matrix::zeros(2, 17, Layout::Right);
    assert!(adv.step(&Serial, &mut bad).is_err());
}

/// Error messages are informative (contain the offending quantity).
#[test]
fn error_messages_carry_context() {
    let e = pttrf(&[-2.0, 1.0], &[0.1]).unwrap_err();
    let msg = e.to_string();
    assert!(
        msg.contains("pttrf") && msg.contains("positive definite"),
        "{msg}"
    );

    let e = Breaks::from_points(vec![0.0, 2.0, 1.0]).unwrap_err();
    assert!(e.to_string().contains("index 1"), "{e}");
}

// ---- fault-handling layer: typed per-lane outcomes ----

use pp_portable::TestRng;

fn random_rhs(n: usize, lanes: usize, seed: u64) -> Matrix {
    let mut rng = TestRng::seed_from_u64(seed);
    Matrix::from_fn(n, lanes, Layout::Left, |_, _| rng.gen_range(-1.0..1.0))
}

fn direct_reference(space: &PeriodicSplineSpace, rhs: &Matrix) -> Matrix {
    let builder = SplineBuilder::new(space.clone(), BuilderVersion::FusedSpmv).unwrap();
    let mut x = rhs.clone();
    builder.solve_in_place(&Parallel, &mut x).unwrap();
    x
}

/// The acceptance scenario: a batch with injected NaN or Inf lanes, each
/// lane solved by the per-lane Krylov body, returns typed per-lane outcomes
/// — healthy lanes match the direct solver to 1e-12, poisoned lanes report
/// their `BreakdownKind` — with zero panics. One lane's trouble stays that
/// lane's: nothing retries it.
#[test]
fn poisoned_batch_isolates_lanes_and_types_outcomes() {
    use pp_iterative::{BiCgStab, BlockJacobi, ConvergenceLogger, LaneKrylov};

    let n = 32;
    let space = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), 3).unwrap();
    let rhs = random_rhs(n, 8, 42);
    let reference = direct_reference(&space, &rhs);

    let solver = IterativeSplineSolver::new(space, IterativeConfig::gpu()).unwrap();
    let config = solver.config();
    let precond = BlockJacobi::new(solver.matrix(), config.max_block_size);
    let lanes = LaneKrylov {
        a: solver.matrix(),
        solver: &BiCgStab,
        precond: &precond,
        stop: &config.stop,
    };
    for poison in [
        FaultInjector::poison_nan_lanes,
        FaultInjector::poison_inf_lanes,
    ] {
        let mut b = rhs.clone();
        let poisoned = poison(&mut FaultInjector::new(7), &mut b, 2);
        assert_eq!(poisoned.len(), 2);

        let mut log = ConvergenceLogger::new();
        for lane in 0..8 {
            let mut x = vec![0.0; n];
            log.record(lanes.solve(&b.col(lane).to_vec(), &mut x));
            b.col_mut(lane).copy_from_slice(&x);
        }

        assert_eq!(log.count(), 8);
        for lane in 0..8 {
            if poisoned.contains(&lane) {
                assert_eq!(
                    log.lane_outcome(lane),
                    LaneOutcome::Broke(BreakdownKind::NonFiniteResidual),
                    "lane {lane}"
                );
            } else {
                assert!(log.lane_outcome(lane).is_healthy(), "lane {lane}");
                for i in 0..n {
                    assert!(
                        (b.get(i, lane) - reference.get(i, lane)).abs() < 1e-12,
                        "lane {lane} row {i}"
                    );
                }
            }
        }
        assert_eq!(
            log.breakdown_census(),
            vec![(BreakdownKind::NonFiniteResidual, 2)]
        );
    }
}

/// A near-singular system (one row scaled to ~machine epsilon) produces a
/// typed breakdown or stall — never a panic, never fake convergence.
#[test]
fn near_singular_system_breaks_down_typed() {
    use pp_iterative::{BiCgStab, BlockJacobi, ConvergenceLogger, LaneKrylov};
    use pp_sparse::Csr;

    let n = 16;
    let dense = PMatrix::from_fn(n, n, Layout::Right, |i, j| {
        if i == j {
            4.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    });
    let a = Csr::from_dense(&dense, 0.0);
    let mut injector = FaultInjector::new(11);
    let bad = injector.near_singular(&a, 1e-18);

    let rhs = vec![1.0; n];
    let bj = BlockJacobi::new(&bad, 4);
    let stop = StopCriteria::with_tol(1e-15)
        .with_max_iters(500)
        .with_stagnation(25, 0.01);
    let lanes = LaneKrylov {
        a: &bad,
        solver: &BiCgStab,
        precond: &bj,
        stop: &stop,
    };
    let mut log = ConvergenceLogger::new();
    for _ in 0..2 {
        log.record(lanes.solve(&rhs, &mut vec![0.0; n]));
    }

    for (lane, outcome) in log.outcomes().iter().enumerate() {
        assert!(
            !outcome.is_healthy(),
            "lane {lane} claimed convergence on a near-singular system: {:?}",
            log.lane_result(lane)
        );
    }
}

// ---- verified direct path: per-lane quarantine, FactorHealth, and the
// factorization fallback ladder ----

/// The direct-path acceptance scenario: a batch with injected NaN lanes
/// quarantines exactly those lanes (zeroed, typed reasons) while healthy
/// lanes stay bit-identical to the unverified builder.
#[test]
fn verified_direct_path_quarantines_nan_lanes() {
    let n = 32;
    let space = PeriodicSplineSpace::new(Breaks::uniform(n, 0.0, 1.0).unwrap(), 3).unwrap();
    let rhs = random_rhs(n, 8, 21);
    let reference = direct_reference(&space, &rhs);

    let mut b = rhs.clone();
    b.set(4, 2, f64::NAN);
    b.set(9, 5, f64::NEG_INFINITY);
    let verified = SplineBuilder::new(space, BuilderVersion::FusedSpmv)
        .unwrap()
        .verified(VerifyConfig::default());
    let report = verified.solve_in_place(&Parallel, &mut b).unwrap();

    assert_eq!(report.quarantined_lanes(), vec![2, 5]);
    for lane in 0..8 {
        if lane == 2 || lane == 5 {
            assert!(!report.verdict(lane).is_healthy());
            assert!(
                b.col(lane).to_vec().iter().all(|v| *v == 0.0),
                "lane {lane}"
            );
        } else {
            assert!(matches!(report.verdict(lane), LaneVerdict::Verified { .. }));
            for i in 0..n {
                assert_eq!(
                    b.get(i, lane),
                    reference.get(i, lane),
                    "lane {lane} row {i}"
                );
            }
        }
    }
}

/// Property test: random pathological meshes — clustered near-duplicate
/// knots at random positions and gaps down to 1e-13 — never destabilise
/// the direct path. `FactorHealth` *certifies* this (Greville-point
/// collocation conditioning is knot-independent, after de Boor): rcond
/// stays far from the suspect threshold, and the verified solve reports
/// every lane clean at tolerance.
#[test]
fn near_duplicate_knots_stay_healthy_and_verified() {
    let mut rng = TestRng::seed_from_u64(314);
    for trial in 0..10 {
        let cells = 12 + (rng.gen_range(0.0..8.0) as usize);
        let gap = 10f64.powi(-(rng.gen_range(6.0..13.0) as i32));
        let at = 1 + (rng.gen_range(0.0..(cells as f64 - 2.0)) as usize);
        let mut pts: Vec<f64> = (0..cells).map(|i| i as f64 / cells as f64).collect();
        pts.push(pts[at] + gap);
        pts.push(pts[at] + 2.0 * gap);
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let space = PeriodicSplineSpace::new(Breaks::from_points(pts).unwrap(), 3).unwrap();
        let nb = space.num_basis();

        let blocks = pp_splinesolver::SchurBlocks::new(&space).unwrap();
        assert!(
            blocks.q_health().rcond > 1e-6,
            "trial {trial}: rcond {:e} (gap {gap:e})",
            blocks.q_health().rcond
        );
        assert!(!blocks.q_health().is_suspect(), "trial {trial}");

        let verified = SplineBuilder::new(space, BuilderVersion::FusedSpmv)
            .unwrap()
            .verified(VerifyConfig::default());
        let mut b = random_rhs(nb, 4, trial as u64);
        let report = verified.solve_in_place(&Parallel, &mut b).unwrap();
        assert!(report.all_verified(), "trial {trial}: {report}");
        assert!(b.as_slice().iter().all(|v| v.is_finite()));
    }
}

/// Extreme domain scales (1e±150) leave the collocation problem exactly as
/// well-conditioned as on the unit interval — the matrix is scale
/// invariant — and the verified solve stays clean, with no overflow or
/// underflow in the health estimates.
#[test]
fn extreme_domain_scales_stay_healthy_and_verified() {
    for scale in [1e150_f64, 1e-150] {
        for degree in [3usize, 5] {
            let space =
                PeriodicSplineSpace::new(Breaks::uniform(24, 0.0, scale).unwrap(), degree).unwrap();
            let nb = space.num_basis();
            let blocks = pp_splinesolver::SchurBlocks::new(&space).unwrap();
            assert!(blocks.q_health().rcond.is_finite());
            assert!(
                !blocks.q_health().is_suspect(),
                "scale {scale:e} deg {degree}"
            );

            let verified = SplineBuilder::new(space, BuilderVersion::FusedSpmv)
                .unwrap()
                .verified(VerifyConfig::default());
            let mut b = random_rhs(nb, 3, 77);
            let report = verified.solve_in_place(&Parallel, &mut b).unwrap();
            assert!(
                report.all_verified(),
                "scale {scale:e} deg {degree}: {report}"
            );
        }
    }
}

/// A genuinely near-singular system *is* flagged: scaling one interior row
/// of an assembled spline matrix to ~1e-14 preserves the banded-plus-
/// border structure but ruins the conditioning, and the interior factor's
/// `FactorHealth.rcond` reports it.
#[test]
fn near_singular_direct_matrix_is_flagged_by_health() {
    use pp_bsplines::assemble_interpolation_matrix;

    let space = PeriodicSplineSpace::new(Breaks::uniform(24, 0.0, 1.0).unwrap(), 3).unwrap();
    let mut a = assemble_interpolation_matrix(&space);
    for j in 0..24 {
        a.set(10, j, a.get(10, j) * 1e-14);
    }
    let blocks = pp_splinesolver::SchurBlocks::from_dense(&a, 3, false).unwrap();
    let h = blocks.q_health();
    assert!(
        h.rcond < 1e-12,
        "near-singular row must be flagged: rcond {:e}",
        h.rcond
    );
    assert!(h.is_ill_conditioned());
    assert!(h.is_suspect());
}
