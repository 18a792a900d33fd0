//! The host-to-host transpose of Algorithm 2.
//!
//! Algorithm 2 of the paper transposes the distribution function to make
//! the interpolation dimension contiguous before the spline solve, and
//! transposes the coefficients back afterwards. Both are one pass of the
//! crate's layout mover (`interleaved.rs::move_tiles`), which moves a
//! block `W × W` tile by tile between any two of its storages — here a
//! host matrix and a host matrix read as its transpose.

use crate::error::{Error, Result};
use crate::exec::{ExecSpace, Serial};
use crate::interleaved::{move_tiles, Tiling};
use crate::matrix::Matrix;

/// Transpose `src` into `dst`, which must have shape
/// `(src.ncols(), src.nrows())`. Layouts may differ.
pub fn transpose_into(src: &Matrix, dst: &mut Matrix) -> Result<()> {
    transpose_into_with(&Serial, src, dst)
}

/// [`transpose_into`] as one region on `exec`.
pub fn transpose_into_with<E: ExecSpace>(exec: &E, src: &Matrix, dst: &mut Matrix) -> Result<()> {
    if dst.shape() != (src.ncols(), src.nrows()) {
        return Err(Error::ShapeMismatch {
            op: "transpose",
            left: src.shape(),
            right: dst.shape(),
        });
    }
    let (from, to) = (Tiling::of(src, false), Tiling::of(dst, true));
    move_tiles(
        exec,
        src.shape(),
        src.as_slice(),
        from,
        dst.as_mut_slice(),
        to,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallel;
    use crate::layout::Layout;

    /// The transpose by definition.
    fn naive(a: &Matrix, layout: Layout) -> Matrix {
        Matrix::from_fn(a.ncols(), a.nrows(), layout, |j, i| a.get(i, j))
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        let mut out = Vec::with_capacity(m.nrows() * m.ncols());
        for i in 0..m.nrows() {
            out.extend((0..m.ncols()).map(|j| m.get(i, j).to_bits()));
        }
        out
    }

    /// Both names, on both execution spaces, against the definition: every
    /// pair of layouts, empty and one-thin blocks, and shapes on either side
    /// of the 8-wide tiles (67 × 91 is a region of several items). Every
    /// destination element starts as a NaN the source does not hold, so one
    /// left unwritten shows.
    #[test]
    fn transposes_match_the_definition() {
        let sizes: &[usize] = if cfg!(miri) {
            &[0, 1, 9]
        } else {
            &[0, 1, 7, 8, 9, 17, 67, 91]
        };
        for &m in sizes {
            for &n in sizes {
                for from in [Layout::Left, Layout::Right] {
                    let a = Matrix::from_fn(m, n, from, |i, j| (1000 * i + j) as f64 + 0.5);
                    for to in [Layout::Left, Layout::Right] {
                        let want = bits(&naive(&a, to));
                        let what = format!("{m}x{n} {from:?} -> {to:?}");
                        let mut t = Matrix::from_fn(n, m, to, |_, _| f64::NAN);
                        transpose_into(&a, &mut t).unwrap();
                        assert_eq!(bits(&t), want, "serial {what}");
                        let mut t = Matrix::from_fn(n, m, to, |_, _| f64::NAN);
                        transpose_into_with(&Parallel, &a, &mut t).unwrap();
                        assert_eq!(bits(&t), want, "parallel {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Matrix::zeros(4, 5, Layout::Left);
        let mut bad = Matrix::zeros(4, 5, Layout::Left);
        assert!(transpose_into(&a, &mut bad).is_err());
        assert!(transpose_into_with(&Parallel, &a, &mut bad).is_err());
    }
}
