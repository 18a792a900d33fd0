//! Preconditioners: the block-Jacobi the paper configures Ginkgo with
//! (`max_block_size` tunable between 1 and 32; 1 is point-Jacobi), and the
//! identity.

use pp_linalg::{getrf, LuFactors};
use pp_sparse::Csr;

/// Application of an (approximate) inverse: `z ← M⁻¹ r`.
pub trait Preconditioner: Send + Sync {
    /// Apply `M⁻¹`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Display name.
    fn name(&self) -> &'static str;
}

/// No preconditioning: `z = r`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Preconditioner for Identity {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Block-Jacobi: the diagonal of `A` is carved into dense blocks of at most
/// `max_block_size` rows; each block is LU-factored once and solved on
/// every application. With `max_block_size = 1` this degenerates to
/// point-Jacobi, matching Ginkgo's tunable used in the paper.
pub struct BlockJacobi {
    /// `(start_row, factors)` per block.
    blocks: Vec<(usize, LuFactors)>,
    n: usize,
}

impl BlockJacobi {
    /// Carve `a`'s diagonal into blocks of at most `max_block_size` and
    /// factor each. Singular blocks fall back to the identity (entries pass
    /// through), mirroring a robust library preconditioner.
    ///
    /// # Panics
    /// Panics if `max_block_size == 0`.
    pub fn new(a: &Csr, max_block_size: usize) -> Self {
        assert!(max_block_size > 0, "block size must be positive");
        let n = a.nrows();
        let mut blocks = Vec::new();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + max_block_size).min(n);
            let block = a
                .dense_block(lo, hi)
                .expect("block bounds valid by construction");
            let factors = getrf(&block).unwrap_or_else(|_| {
                // Singular block: substitute the identity.
                let k = hi - lo;
                let eye = pp_portable::Matrix::from_fn(k, k, pp_portable::Layout::Right, |i, j| {
                    (i == j) as u8 as f64
                });
                getrf(&eye).expect("identity is nonsingular")
            });
            blocks.push((lo, factors));
            lo = hi;
        }
        Self { blocks, n }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Preconditioner for BlockJacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        z.copy_from_slice(r);
        for (lo, f) in &self.blocks {
            f.solve_slice(&mut z[*lo..lo + f.n()]);
        }
    }

    fn name(&self) -> &'static str {
        "block-jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_portable::Matrix;
    use pp_portable::TestRng;

    /// Check that a preconditioner application is a reasonable approximate
    /// inverse: `‖A M⁻¹ r − r‖ / ‖r‖` (a test diagnostic).
    fn approximation_quality(a: &Csr, m: &dyn Preconditioner, r: &[f64]) -> f64 {
        let mut z = vec![0.0; r.len()];
        m.apply(r, &mut z);
        let az = a.spmv_alloc(&z);
        let num: f64 = az
            .iter()
            .zip(r)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let den: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        num / den
    }

    fn spd_tridiag(n: usize) -> Csr {
        Csr::from_dense(
            &Matrix::from_fn(n, n, pp_portable::Layout::Right, |i, j| {
                if i == j {
                    4.0
                } else if i.abs_diff(j) == 1 {
                    -1.0
                } else {
                    0.0
                }
            }),
            0.0,
        )
    }

    #[test]
    fn identity_is_identity() {
        let r = [1.0, -2.0, 3.0];
        let mut z = [0.0; 3];
        Identity.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn block_size_one_divides_by_the_diagonal() {
        let a = spd_tridiag(4);
        let bj = BlockJacobi::new(&a, 1);
        assert_eq!(bj.blocks.len(), 4);
        let r = [4.0, 8.0, -4.0, 2.0];
        let mut z = [0.0; 4];
        bj.apply(&r, &mut z);
        assert_eq!(z, [1.0, 2.0, -1.0, 0.5]);
    }

    #[test]
    fn block_jacobi_full_block_is_exact_inverse() {
        let n = 6;
        let a = spd_tridiag(n);
        let bj = BlockJacobi::new(&a, n); // one block covering A
        assert_eq!(bj.blocks.len(), 1);
        let mut rng = TestRng::seed_from_u64(2);
        let r: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Applying M⁻¹ = A⁻¹ then A must give r back.
        assert!(approximation_quality(&a, &bj, &r) < 1e-12);
    }

    #[test]
    fn larger_blocks_approximate_better() {
        let a = spd_tridiag(32);
        let mut rng = TestRng::seed_from_u64(3);
        let r: Vec<f64> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let q1 = approximation_quality(&a, &BlockJacobi::new(&a, 1), &r);
        let q8 = approximation_quality(&a, &BlockJacobi::new(&a, 8), &r);
        let q32 = approximation_quality(&a, &BlockJacobi::new(&a, 32), &r);
        assert!(q8 < q1, "block 8 ({q8}) should beat point ({q1})");
        assert!(q32 < q8, "full block ({q32}) should beat block 8 ({q8})");
    }

    #[test]
    fn uneven_tail_block() {
        let a = spd_tridiag(10);
        let bj = BlockJacobi::new(&a, 4); // blocks 4+4+2
        assert_eq!(bj.blocks.len(), 3);
        let r = vec![1.0; 10];
        let mut z = vec![0.0; 10];
        bj.apply(&r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn singular_block_falls_back_to_identity() {
        // Zero matrix: every 1x1 diagonal block is singular.
        let a = Csr::from_dense(&Matrix::zeros(3, 3, pp_portable::Layout::Right), 0.0);
        let bj = BlockJacobi::new(&a, 1);
        let r = [5.0, -2.0, 1.0];
        let mut z = [0.0; 3];
        bj.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn naive_reference_agrees_with_full_block() {
        let n = 5;
        let a = spd_tridiag(n);
        let bj = BlockJacobi::new(&a, n);
        let b = vec![1.0; n];
        let mut z = vec![0.0; n];
        bj.apply(&b, &mut z);
        let expected = pp_linalg::naive::solve_dense(&a.to_dense(), &b).unwrap();
        for (u, v) in z.iter().zip(&expected) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
