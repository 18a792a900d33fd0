//! A common interface over the four factorisation types.
//!
//! The spline builder picks its `Q` solver from Table I of the paper at
//! runtime (degree and knot uniformity are runtime properties), so it needs
//! a single object-safe trait covering `pttrs`, `pbtrs`, `gbtrs` and
//! `getrs`. The paper notes C++ polymorphism is not fully available inside
//! device kernels; in Rust a `dyn LaneSolver` vtable call per lane is cheap
//! relative to the O(n) solve it dispatches to, and static dispatch remains
//! available through the concrete types.

use crate::banded::BandedLu;
use crate::error::Result;
use crate::health::check_solve_slice;
use crate::lu::LuFactors;
use crate::pb::CholeskyBanded;
use crate::pt::PtFactors;
use pp_portable::StridedMut;

/// Anything that can solve its factored system in place on one batch lane.
pub trait LaneSolver: Send + Sync {
    /// Order of the factored matrix.
    fn n(&self) -> usize;

    /// Solve `A x = b` in place on one lane.
    fn solve_lane(&self, b: &mut StridedMut<'_>);

    /// LAPACK-style name of the solve routine (for profiling output).
    fn routine(&self) -> &'static str;

    /// Solve into a plain slice.
    fn solve_slice(&self, b: &mut [f64]) {
        self.solve_lane(&mut StridedMut::from_slice(b));
    }

    /// Checked solve: verifies the length contract and rejects non-finite
    /// right-hand sides with [`Error::NonFinite`](crate::Error::NonFinite)
    /// instead of silently propagating NaN.
    fn try_solve_slice(&self, b: &mut [f64]) -> Result<()> {
        check_solve_slice(self.routine(), self.n(), b)?;
        self.solve_slice(b);
        Ok(())
    }
}

impl LaneSolver for PtFactors {
    fn n(&self) -> usize {
        PtFactors::n(self)
    }
    fn solve_lane(&self, b: &mut StridedMut<'_>) {
        PtFactors::solve_lane(self, b)
    }
    fn routine(&self) -> &'static str {
        "pttrs"
    }
}

impl LaneSolver for CholeskyBanded {
    fn n(&self) -> usize {
        CholeskyBanded::n(self)
    }
    fn solve_lane(&self, b: &mut StridedMut<'_>) {
        CholeskyBanded::solve_lane(self, b)
    }
    fn routine(&self) -> &'static str {
        "pbtrs"
    }
}

impl LaneSolver for BandedLu {
    fn n(&self) -> usize {
        BandedLu::n(self)
    }
    fn solve_lane(&self, b: &mut StridedMut<'_>) {
        BandedLu::solve_lane(self, b)
    }
    fn routine(&self) -> &'static str {
        "gbtrs"
    }
}

impl LaneSolver for LuFactors {
    fn n(&self) -> usize {
        LuFactors::n(self)
    }
    fn solve_lane(&self, b: &mut StridedMut<'_>) {
        LuFactors::solve_lane(self, b)
    }
    fn routine(&self) -> &'static str {
        "getrs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::{gbtrf, BandedMatrix};
    use crate::lu::getrf;
    use crate::naive::relative_residual;
    use crate::pb::{pbtrf, SymBandedMatrix};
    use crate::pt::pttrf;
    use pp_portable::Matrix;

    /// All four solvers, through the trait object, on the *same* SPD
    /// tridiagonal system, must agree.
    #[test]
    fn all_solvers_agree_through_trait_object() {
        let n = 15;
        let diag = 4.0;
        let off = -1.0;

        let dense = Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
            if i == j {
                diag
            } else if i.abs_diff(j) == 1 {
                off
            } else {
                0.0
            }
        });

        let solvers: Vec<Box<dyn LaneSolver>> = vec![
            Box::new(pttrf(&vec![diag; n], &vec![off; n - 1]).unwrap()),
            Box::new(
                pbtrf(
                    &SymBandedMatrix::from_fn(n, 1, |i, j| if i == j { diag } else { off })
                        .unwrap(),
                )
                .unwrap(),
            ),
            Box::new(
                gbtrf(
                    &BandedMatrix::from_fn(n, 1, 1, |i, j| if i == j { diag } else { off })
                        .unwrap(),
                )
                .unwrap(),
            ),
            Box::new(getrf(&dense).unwrap()),
        ];

        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
        let mut solutions = Vec::new();
        for s in &solvers {
            assert_eq!(s.n(), n);
            let mut x = b.clone();
            s.solve_slice(&mut x);
            assert!(
                relative_residual(&dense, &x, &b) < 1e-12,
                "routine {}",
                s.routine()
            );
            solutions.push(x);
        }
        for sol in &solutions[1..] {
            for (u, v) in sol.iter().zip(&solutions[0]) {
                assert!((u - v).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn routine_names() {
        let pt = pttrf(&[2.0], &[]).unwrap();
        assert_eq!(LaneSolver::routine(&pt), "pttrs");
        let lu = getrf(&Matrix::from_rows(&[&[1.0]])).unwrap();
        assert_eq!(LaneSolver::routine(&lu), "getrs");
    }
}
