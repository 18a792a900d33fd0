//! Degenerate-size regression tests: `n == 1` and `n == 0` systems must
//! factor and solve without panicking (and without touching the
//! nonexistent off-diagonal `e[0]`) in every routine class. The batched
//! drivers over both layouts and the panel instantiations are rows
//! `n ∈ {0, 1}` of the differential table in the workspace's
//! `tests/interleaved.rs`.

use pp_linalg::{batched, gbtrf, getrf, pbtrf, pttrf, BandedMatrix, SymBandedMatrix};
use pp_portable::{Layout, Matrix, Serial};

#[test]
fn pttr_n1_and_n0() {
    // n == 1: e has length 0; the solve is a single diagonal division.
    let f = pttrf(&[4.0], &[]).unwrap();
    assert_eq!(f.n(), 1);
    assert!(f.e().is_empty());
    let mut b = vec![6.0];
    f.solve_slice(&mut b);
    assert_eq!(b, vec![1.5]);
    // n == 0: constructible and a no-op.
    let f0 = pttrf(&[], &[]).unwrap();
    assert_eq!(f0.n(), 0);
    let mut empty: Vec<f64> = vec![];
    f0.solve_slice(&mut empty);
    let mut m0 = Matrix::zeros(0, 4, Layout::Left);
    batched::pttrs(&Serial, &f0, &mut m0);
}

#[test]
fn pbtr_n1_and_n0() {
    let f = pbtrf(&SymBandedMatrix::from_fn(1, 0, |_, _| 9.0).unwrap()).unwrap();
    assert_eq!(f.n(), 1);
    let mut b = vec![9.0];
    f.solve_slice(&mut b);
    assert!((b[0] - 1.0).abs() < 1e-15);
    let f0 = pbtrf(&SymBandedMatrix::new(0, 0).unwrap()).unwrap();
    assert_eq!(f0.n(), 0);
    let mut m0 = Matrix::zeros(0, 3, Layout::Right);
    batched::pbtrs(&Serial, &f0, &mut m0);
}

#[test]
fn gbtr_n1_and_n0() {
    let f = gbtrf(&BandedMatrix::from_fn(1, 0, 0, |_, _| 2.0).unwrap()).unwrap();
    assert_eq!(f.n(), 1);
    let mut b = vec![5.0];
    f.solve_slice(&mut b);
    assert_eq!(b, vec![2.5]);
    let f0 = gbtrf(&BandedMatrix::new(0, 0, 0).unwrap()).unwrap();
    assert_eq!(f0.n(), 0);
    let mut m0 = Matrix::zeros(0, 2, Layout::Left);
    batched::gbtrs(&Serial, &f0, &mut m0);
}

#[test]
fn getr_n1_and_n0() {
    let f = getrf(&Matrix::from_rows(&[&[8.0]])).unwrap();
    assert_eq!(f.n(), 1);
    let mut b = vec![4.0];
    f.solve_slice(&mut b);
    assert_eq!(b, vec![0.5]);
    let f0 = getrf(&Matrix::zeros(0, 0, Layout::Right)).unwrap();
    assert_eq!(f0.n(), 0);
    let mut m0 = Matrix::zeros(0, 3, Layout::Left);
    batched::getrs(&Serial, &f0, &mut m0);
}
