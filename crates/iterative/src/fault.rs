//! Deterministic fault injection for robustness testing.
//!
//! At the paper's production scale ("heavy traffic", 10⁵–10¹² lanes per
//! advection step) breakdowns are a *when*, not an *if*. This module
//! manufactures them on demand, reproducibly: NaN/Inf-poisoned lanes,
//! near-singular matrix perturbations, and iteration-budget starvation.
//! The failure-injection test tier drives the per-lane Krylov body and the
//! recovery ladder with these faults and asserts typed per-lane outcomes
//! and zero panics.
//!
//! All randomness comes from [`TestRng`], so a seed pins the exact fault
//! pattern across platforms and runs.

use crate::bicgstab::BiCgStab;
use crate::multirhs::{LaneKrylov, LaneOutcome};
use crate::precond::BlockJacobi;
use crate::stop::StopCriteria;
use pp_portable::{Layout, Matrix, TestRng};
use pp_sparse::Csr;
use std::time::{Duration, Instant};

/// Deterministic generator of the failure modes a batched Krylov stack
/// must survive.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: TestRng,
}

impl FaultInjector {
    /// Injector with a fixed seed: the same seed produces the same fault
    /// pattern, always.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: TestRng::seed_from_u64(seed),
        }
    }

    /// Poison `count` distinct random lanes (columns) of `b` with NaN at
    /// one random row each; returns the poisoned lane indices, sorted.
    ///
    /// # Panics
    /// Panics if `count > b.ncols()`.
    pub fn poison_nan_lanes(&mut self, b: &mut Matrix, count: usize) -> Vec<usize> {
        self.poison_lanes(b, count, f64::NAN)
    }

    /// Poison `count` distinct random lanes of `b` with `+Inf`; returns
    /// the poisoned lane indices, sorted.
    ///
    /// # Panics
    /// Panics if `count > b.ncols()`.
    pub fn poison_inf_lanes(&mut self, b: &mut Matrix, count: usize) -> Vec<usize> {
        self.poison_lanes(b, count, f64::INFINITY)
    }

    fn poison_lanes(&mut self, b: &mut Matrix, count: usize, value: f64) -> Vec<usize> {
        let ncols = b.ncols();
        assert!(count <= ncols, "cannot poison {count} of {ncols} lanes");
        let mut lanes = Vec::with_capacity(count);
        while lanes.len() < count {
            let lane = self.rng.gen_range(0..ncols);
            if !lanes.contains(&lane) {
                lanes.push(lane);
            }
        }
        lanes.sort_unstable();
        for &lane in &lanes {
            let row = self.rng.gen_range(0..b.nrows());
            b.set(row, lane, value);
        }
        lanes
    }

    /// A near-singular copy of `a`: one random row is scaled down to
    /// `eps` times its original magnitude, driving the matrix toward
    /// rank deficiency (condition number ~ 1/eps). With `eps == 0` the
    /// row is exactly zero and the matrix is singular.
    ///
    /// # Panics
    /// Panics if `a` is empty or `eps` is negative/non-finite.
    pub fn near_singular(&mut self, a: &Csr, eps: f64) -> Csr {
        assert!(a.nrows() > 0, "cannot perturb an empty matrix");
        assert!(
            eps >= 0.0 && eps.is_finite(),
            "eps must be finite and non-negative"
        );
        let row = self.rng.gen_range(0..a.nrows());
        let mut dense = a.to_dense();
        for j in 0..dense.ncols() {
            let v = dense.get(row, j);
            dense.set(row, j, v * eps);
        }
        // Threshold 0 keeps explicit zeros out but preserves structure
        // of the scaled row for eps > 0.
        Csr::from_dense(&dense, 0.0)
    }

    /// Starve a stopping criterion: same tolerance, but at most
    /// `max_iters` iterations — forces `MaxIters` outcomes on any lane
    /// that genuinely needs the work.
    pub fn starved(stop: &StopCriteria, max_iters: usize) -> StopCriteria {
        StopCriteria {
            max_iters,
            ..stop.clone()
        }
    }

    /// Run one seeded chaos round: a randomized-but-reproducible batch of
    /// lanes, each solved by the per-lane Krylov body ([`LaneKrylov::solve`])
    /// with faults injected (NaN-poisoned lanes, a near-singular matrix),
    /// returning what happened as a [`ChaosReport`].
    ///
    /// The scenario — sizes, faults, preconditioner block —
    /// and the outcome, down to the solution bits captured in `checksum`,
    /// are a pure function of `seed`; only `elapsed` is not.
    ///
    /// Bit flips are not injected here: the campaign's SDC leg is
    /// `pp_splinesolver::verified::sdc_round`, which strikes the panel
    /// screen every verified step runs.
    pub fn chaos_round(seed: u64) -> ChaosReport {
        let mut inj = FaultInjector::new(seed);
        let n = 8 + inj.rng.gen_range(0..24_usize);
        let batch = 4 + inj.rng.gen_range(0..20_usize);
        let base = Csr::from_dense(
            &Matrix::from_fn(n, n, Layout::Right, |i, j| {
                if i == j {
                    4.0
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            }),
            0.0,
        );
        let near_singular = inj.rng.gen_range(0..4_usize) == 0;
        let a = if near_singular {
            inj.near_singular(&base, 1e-12)
        } else {
            base
        };
        let mut b = {
            // Pull the random values out first so the closure does not
            // fight the injector for the RNG.
            let mut vals = Vec::with_capacity(n * batch);
            for _ in 0..n * batch {
                vals.push(inj.rng.gen_range(-1.0..1.0));
            }
            let mut next = vals.into_iter();
            Matrix::from_fn(n, batch, Layout::Left, |_, _| {
                next.next().expect("pre-drawn n*batch values")
            })
        };
        let poison_count = inj.rng.gen_range(0..3_usize).min(batch);
        let poisoned = inj.poison_nan_lanes(&mut b, poison_count);
        let block = 1 + inj.rng.gen_range(0..4_usize);

        let stop = StopCriteria::with_tol(1e-13).with_max_iters(400);
        let precond = BlockJacobi::new(&a, block);
        let lanes = LaneKrylov {
            a: &a,
            solver: &BiCgStab,
            precond: &precond,
            stop: &stop,
        };
        let started = Instant::now();
        let outcomes: Vec<LaneOutcome> = (0..batch)
            .map(|j| {
                let mut x = vec![0.0; n];
                let result = lanes.solve(&b.col(j).to_vec(), &mut x);
                b.col_mut(j).copy_from_slice(&x);
                LaneOutcome::from_result(&result)
            })
            .collect();
        let elapsed = started.elapsed();

        let mut report = ChaosReport {
            seed,
            lanes: batch,
            poisoned,
            near_singular,
            elapsed,
            converged: 0,
            broke: 0,
            stalled: 0,
            checksum: checksum_matrix(&b),
        };
        for o in &outcomes {
            match o {
                LaneOutcome::Converged => report.converged += 1,
                LaneOutcome::Broke(_) => report.broke += 1,
                LaneOutcome::Stalled => report.stalled += 1,
            }
        }
        report
    }
}

/// What one [`FaultInjector::chaos_round`] did and observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed that generated the scenario.
    pub seed: u64,
    /// Batch width (number of lanes).
    pub lanes: usize,
    /// NaN-poisoned lane indices, ascending.
    pub poisoned: Vec<usize>,
    /// Whether the matrix was perturbed toward singularity.
    pub near_singular: bool,
    /// Wall-clock time the round took (reported, never asserted on).
    pub elapsed: Duration,
    /// Lanes that converged.
    pub converged: usize,
    /// Lanes with hard breakdowns.
    pub broke: usize,
    /// Lanes that stalled (soft failure).
    pub stalled: usize,
    /// Order-dependent hash of the output bits (determinism probe).
    pub checksum: u64,
}

impl ChaosReport {
    /// `true` when every lane is accounted for by exactly one tally.
    pub fn tallies_consistent(&self) -> bool {
        self.converged + self.broke + self.stalled == self.lanes
    }

    /// Everything a replay of the same seed must reproduce: the fault
    /// pattern, the tallies and the checksum of the output bits — the
    /// whole report but the wall clock.
    pub fn fingerprint(&self) -> (usize, Vec<usize>, bool, [usize; 3], u64) {
        (
            self.lanes,
            self.poisoned.clone(),
            self.near_singular,
            [self.converged, self.broke, self.stalled],
            self.checksum,
        )
    }
}

/// Order-dependent FNV-1a hash over the matrix bits: two runs that
/// produce the same solutions produce the same checksum.
fn checksum_matrix(m: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for j in 0..m.ncols() {
        for v in m.col(j).to_vec() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Layout;

    #[test]
    fn nan_poisoning_is_deterministic_and_disjoint() {
        let make = || {
            let mut b = Matrix::zeros(8, 20, Layout::Left);
            let lanes = FaultInjector::new(3).poison_nan_lanes(&mut b, 5);
            (b, lanes)
        };
        let (b1, lanes1) = make();
        let (_b2, lanes2) = make();
        assert_eq!(lanes1, lanes2);
        assert_eq!(lanes1.len(), 5);
        assert!(lanes1.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        for j in 0..20 {
            let has_nan = b1.col(j).to_vec().iter().any(|v| v.is_nan());
            assert_eq!(has_nan, lanes1.contains(&j));
        }
    }

    #[test]
    fn inf_poisoning_hits_requested_lanes() {
        let mut b = Matrix::zeros(4, 6, Layout::Left);
        let lanes = FaultInjector::new(7).poison_inf_lanes(&mut b, 2);
        for &j in &lanes {
            assert!(b.col(j).to_vec().iter().any(|v| v.is_infinite()));
        }
    }

    #[test]
    #[should_panic(expected = "cannot poison")]
    fn over_poisoning_rejected() {
        let mut b = Matrix::zeros(4, 3, Layout::Left);
        FaultInjector::new(1).poison_nan_lanes(&mut b, 4);
    }

    #[test]
    fn near_singular_degrades_one_row() {
        let a = Csr::from_dense(
            &Matrix::from_fn(6, 6, Layout::Right, |i, j| {
                if i == j {
                    4.0
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            }),
            0.0,
        );
        let bad = FaultInjector::new(5).near_singular(&a, 1e-14);
        let (orig, pert) = (a.to_dense(), bad.to_dense());
        let mut scaled_rows = 0;
        for i in 0..6 {
            let row_changed = (0..6).any(|j| orig.get(i, j) != pert.get(i, j));
            if row_changed {
                scaled_rows += 1;
                for j in 0..6 {
                    assert!((pert.get(i, j) - orig.get(i, j) * 1e-14).abs() < 1e-25);
                }
            }
        }
        assert_eq!(scaled_rows, 1);
    }

    #[test]
    fn exactly_singular_at_eps_zero() {
        let a = Csr::from_dense(&Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]), 0.0);
        let bad = FaultInjector::new(2).near_singular(&a, 0.0);
        let d = bad.to_dense();
        assert!((0..2).any(|i| (0..2).all(|j| d.get(i, j) == 0.0)));
    }

    #[test]
    fn starved_keeps_everything_but_budget() {
        let stop = StopCriteria::with_tol(1e-12).with_stagnation(50, 0.01);
        let starved = FaultInjector::starved(&stop, 2);
        assert_eq!(starved.max_iters, 2);
        assert_eq!(starved.tol, 1e-12);
        assert_eq!(starved.stall_window, 50);
    }

    #[test]
    fn chaos_round_scenarios_are_seed_deterministic() {
        for seed in [0u64, 1, 2, 3] {
            let a = FaultInjector::chaos_round(seed);
            let b = FaultInjector::chaos_round(seed);
            assert!(a.tallies_consistent(), "seed {seed}: {a:?}");
            // The whole outcome is replayable, down to the output bits.
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
        }
    }
}
