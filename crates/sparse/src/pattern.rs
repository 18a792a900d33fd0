//! Sparsity-pattern analysis and rendering.
//!
//! Reproduces the paper's Fig. 1 — the banded-plus-corners pattern of the
//! degree-3 uniform periodic spline matrix — and provides the bandwidth
//! detection used to classify the spline sub-matrix `Q` (Table I).

use pp_portable::Matrix;

/// The boolean structure of a matrix: which entries are non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    nrows: usize,
    ncols: usize,
    /// Row-major mask.
    mask: Vec<bool>,
}

impl SparsityPattern {
    /// Pattern of the entries of `a` with `|a| > threshold`.
    pub fn from_dense(a: &Matrix, threshold: f64) -> Self {
        let (m, n) = a.shape();
        let mut mask = vec![false; m * n];
        for i in 0..m {
            for j in 0..n {
                mask[i * n + j] = a.get(i, j).abs() > threshold;
            }
        }
        Self {
            nrows: m,
            ncols: n,
            mask,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Whether `(i, j)` is structurally non-zero.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.mask[i * self.ncols + j]
    }

    /// Count of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.mask.iter().filter(|&&b| b).count()
    }

    /// Fraction of non-zero entries.
    pub fn density(&self) -> f64 {
        if self.mask.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.mask.len() as f64
        }
    }

    /// Smallest `(kl, ku)` such that all non-zeros satisfy
    /// `j - ku ≤ i ≤ j + kl`.
    pub fn bandwidths(&self) -> (usize, usize) {
        let mut kl = 0usize;
        let mut ku = 0usize;
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                if self.get(i, j) {
                    if i > j {
                        kl = kl.max(i - j);
                    } else {
                        ku = ku.max(j - i);
                    }
                }
            }
        }
        (kl, ku)
    }

    /// `true` when the pattern is symmetric (requires a square matrix).
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for i in 0..self.nrows {
            for j in 0..i {
                if self.get(i, j) != self.get(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Render as ASCII art in the style of a spy plot: `*` for non-zero,
    /// `.` for zero — this is how the harness prints Fig. 1.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.nrows * (self.ncols + 1));
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                s.push(if self.get(i, j) { '*' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Layout;

    fn tridiag_pattern(n: usize) -> SparsityPattern {
        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            if i.abs_diff(j) <= 1 {
                1.0
            } else {
                0.0
            }
        });
        SparsityPattern::from_dense(&a, 0.0)
    }

    #[test]
    fn nnz_and_density() {
        let p = tridiag_pattern(5);
        assert_eq!(p.nnz(), 13);
        assert!((p.density() - 13.0 / 25.0).abs() < 1e-15);
    }

    #[test]
    fn bandwidth_detection() {
        assert_eq!(tridiag_pattern(6).bandwidths(), (1, 1));
        let a = Matrix::from_fn(6, 6, Layout::Right, |i, j| {
            if j >= i && j - i <= 2 {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(SparsityPattern::from_dense(&a, 0.0).bandwidths(), (0, 2));
    }

    #[test]
    fn periodic_corners_break_bandedness() {
        // Tridiagonal + periodic wrap entries = full bandwidth.
        let n = 8;
        let a = Matrix::from_fn(n, n, Layout::Right, |i, j| {
            let d = i.abs_diff(j);
            if d <= 1 || d == n - 1 {
                1.0
            } else {
                0.0
            }
        });
        let p = SparsityPattern::from_dense(&a, 0.0);
        assert_eq!(p.bandwidths(), (n - 1, n - 1));
        assert!(p.is_symmetric());
    }

    #[test]
    fn render_marks_structure() {
        let p = tridiag_pattern(3);
        assert_eq!(p.render(), "**.\n***\n.**\n");
    }

    #[test]
    fn asymmetric_pattern_detected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        assert!(!SparsityPattern::from_dense(&a, 0.0).is_symmetric());
        let rect = Matrix::zeros(2, 3, Layout::Right);
        assert!(!SparsityPattern::from_dense(&rect, 0.0).is_symmetric());
    }
}
