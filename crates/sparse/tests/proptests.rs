//! Randomised property tests for the sparse formats: conversions are
//! lossless and the CSR spmv computes the dense product. Driven by
//! the deterministic [`TestRng`] so runs are reproducible and hermetic.

use pp_portable::{Layout, Matrix, TestRng};
use pp_sparse::{Coo, Csr, SparsityPattern};

/// A random sparse matrix as a dense generator (deterministic in the
/// inputs, so failures reproduce).
fn sparse_dense(m: usize, n: usize, density_pct: usize, seed: u64) -> Matrix {
    Matrix::from_fn(m, n, Layout::Right, |i, j| {
        let h = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add((j as u64).wrapping_mul(1442695040888963407))
            .wrapping_add(seed);
        if (h >> 33) % 100 < density_pct as u64 {
            ((h % 2001) as f64 - 1000.0) / 250.0
        } else {
            0.0
        }
    })
}

/// COO -> CSR -> dense and COO -> dense reproduce the source.
#[test]
fn conversion_round_trips() {
    let mut g = TestRng::seed_from_u64(0x20);
    for _ in 0..64 {
        let m = g.gen_range(1usize..25);
        let n = g.gen_range(1usize..25);
        let density = g.gen_range(0usize..60);
        let seed = g.gen_range(0u64..500);
        let a = sparse_dense(m, n, density, seed);
        let coo = Coo::from_dense(&a, 0.0);
        assert_eq!(Csr::from_coo(&coo).to_dense().max_abs_diff(&a), 0.0);
        assert_eq!(coo.to_dense().max_abs_diff(&a), 0.0);
    }
}

/// The CSR spmv agrees with the dense product.
#[test]
fn spmv_variants_agree() {
    let mut g = TestRng::seed_from_u64(0x21);
    for _ in 0..64 {
        let m = g.gen_range(1usize..20);
        let n = g.gen_range(1usize..20);
        let density = g.gen_range(5usize..70);
        let seed = g.gen_range(0u64..500);
        let a = sparse_dense(m, n, density, seed);
        let x: Vec<f64> = (0..n).map(|j| ((j * 37 + 11) % 19) as f64 - 9.0).collect();
        let reference: Vec<f64> = (0..m)
            .map(|i| (0..n).map(|j| a.get(i, j) * x[j]).sum())
            .collect();

        let csr = Csr::from_coo(&Coo::from_dense(&a, 0.0));
        let y_csr = csr.spmv_alloc(&x);

        for i in 0..m {
            assert!((y_csr[i] - reference[i]).abs() < 1e-11);
        }
    }
}

/// nnz is consistent across formats and the pattern.
#[test]
fn nnz_consistency() {
    let mut g = TestRng::seed_from_u64(0x23);
    for _ in 0..64 {
        let m = g.gen_range(1usize..20);
        let n = g.gen_range(1usize..20);
        let density = g.gen_range(0usize..80);
        let seed = g.gen_range(0u64..300);
        let a = sparse_dense(m, n, density, seed);
        let coo = Coo::from_dense(&a, 0.0);
        let csr = Csr::from_coo(&coo);
        let pat = SparsityPattern::from_dense(&a, 0.0);
        assert_eq!(coo.nnz(), csr.nnz());
        assert_eq!(csr.nnz(), pat.nnz());
    }
}
