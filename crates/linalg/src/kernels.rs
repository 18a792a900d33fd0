//! Per-lane serial kernels: the bodies that run inside a parallel region.
//!
//! These functions are the Rust counterparts of the paper's
//! `KokkosBatched::SerialGemv::invoke` internals (Listing 4). They take
//! strided views, perform **in-place**, strictly sequential work on one
//! batch lane, and never allocate. The per-lane
//! solves are the factor types' own `solve_lane` (`PtFactors`, `LuFactors`,
//! …): the factors say what they store, so nobody passes their arrays by
//! hand.

use pp_portable::instrument::{PhaseId, Span};
use pp_portable::{Matrix, Strided, StridedMut};

/// Per-lane dense `y ← α A x + β y`.
///
/// Mirrors `KokkosBatched::SerialGemv` (`Trans::NoTranspose`,
/// `Algo::Gemv::Unblocked`) as used by the paper's fused kernel (Listing 4).
#[inline]
pub fn gemv_lane(alpha: f64, a: &Matrix, x: &Strided<'_>, beta: f64, y: &mut StridedMut<'_>) {
    let _span = Span::enter(PhaseId::CornerGemv);
    let (m, n) = a.shape();
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), m);
    for i in 0..m {
        let mut s = 0.0;
        for j in 0..n {
            s += a.get(i, j) * x[j];
        }
        y[i] = alpha * s + beta * y[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_lane_beta_and_alpha() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = [1.0, 1.0];
        let mut y = [10.0, 20.0];
        gemv_lane(
            2.0,
            &a,
            &Strided::from_slice(&x),
            0.5,
            &mut StridedMut::from_slice(&mut y),
        );
        // y = 2*A*[1,1] + 0.5*[10,20] = [6+5, 14+10]
        assert_eq!(y, [11.0, 24.0]);
    }
}
