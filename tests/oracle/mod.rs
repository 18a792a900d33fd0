//! The scalar oracle the builder's integration tests hold every lane to:
//! Algorithm 1 on one contiguous lane, composed from the public parts of
//! the builder's `SchurBlocks` and the `LaneRows` row operations.

use batched_splines::prelude::*;
use pp_linalg::LaneRows;
use pp_portable::StridedMut;

/// `builder`'s Algorithm 1 on one lane of `n` contiguous values, in place:
/// the `Q` sweep, the λ corner, the `δ′` sweep, the β corner. The corners
/// are the COO entries (`row_axpy`) for `FusedSpmv`, else the dense blocks
/// (`gemv_sub`), rebuilt here as the factorisation builds them: λ the
/// matrix's border rows, β = Q⁻¹γ a border column at a time.
fn scalar_oracle(builder: &SplineBuilder) -> impl Fn(&mut [f64]) + '_ {
    let blocks = builder.blocks();
    let (q, border) = (blocks.q_size(), blocks.border());
    let dense = (builder.version() != BuilderVersion::FusedSpmv).then(|| {
        let a = pp_bsplines::assemble_interpolation_matrix(builder.space());
        let lambda = Matrix::from_fn(border, q, Layout::Right, |i, j| a.get(q + i, j));
        let mut beta = Matrix::zeros(q, border, Layout::Left);
        for c in 0..border {
            let mut column: Vec<f64> = (0..q).map(|i| a.get(i, q + c)).collect();
            blocks.q_solver().solve_slice(&mut column);
            beta.col_mut(c).copy_from_slice(&column);
        }
        (lambda, beta)
    });
    move |lane| {
        let mut rows = StridedMut::from_slice(lane);
        blocks.q_factors().solve_rows(&mut rows, 0);
        match &dense {
            Some((lambda, _)) => rows.gemv_sub(q, lambda, 0),
            None => (blocks.lambda_coo().iter()).for_each(|(r, c, v)| rows.row_axpy(q + r, c, -v)),
        }
        blocks.delta_factors().solve_rows(&mut rows, q);
        match &dense {
            Some((_, beta)) => rows.gemv_sub(0, beta, q),
            None => (blocks.beta_coo().iter()).for_each(|(r, c, v)| rows.row_axpy(r, q + c, -v)),
        }
    }
}

/// The `(n, batch)` matrix `b` with every lane solved `times` times by
/// `builder`'s scalar oracle, each on a contiguous copy of the lane.
pub fn oracle_solved(builder: &SplineBuilder, b: &Matrix, times: usize) -> Matrix {
    let oracle = scalar_oracle(builder);
    let mut x = b.clone();
    for j in 0..b.ncols() {
        let mut lane: Vec<f64> = (0..b.nrows()).map(|i| b.get(i, j)).collect();
        (0..times).for_each(|_| oracle(&mut lane));
        (lane.iter().enumerate()).for_each(|(i, &v)| x.set(i, j, v));
    }
    x
}
