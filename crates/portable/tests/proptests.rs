//! Randomised property tests for the view substrate: layout round trips,
//! transpose involution, lane dispatch equivalence. Driven by the
//! deterministic [`TestRng`] so runs are reproducible and hermetic.

use pp_portable::{
    transpose, transpose_into, transpose_into_with, Layout, Matrix, Parallel, TestRng,
};

fn arb_layout(g: &mut TestRng) -> Layout {
    if g.gen_bool(0.5) {
        Layout::Left
    } else {
        Layout::Right
    }
}

/// to_layout is lossless in both directions.
#[test]
fn layout_round_trip() {
    let mut g = TestRng::seed_from_u64(0x10);
    for _ in 0..64 {
        let m = g.gen_range(1usize..20);
        let n = g.gen_range(1usize..20);
        let layout = arb_layout(&mut g);
        let seed = g.gen_range(0u64..1000);
        let a = Matrix::from_fn(m, n, layout, |i, j| {
            ((i * 31 + j * 17 + seed as usize) % 101) as f64 - 50.0
        });
        let there = a.to_layout(layout.flipped());
        let back = there.to_layout(layout);
        assert_eq!(a.max_abs_diff(&back), 0.0);
    }
}

/// transpose(transpose(A)) == A for every shape/layout combination.
#[test]
fn transpose_involution() {
    let mut g = TestRng::seed_from_u64(0x11);
    for _ in 0..64 {
        let m = g.gen_range(1usize..40);
        let n = g.gen_range(1usize..40);
        let layout = arb_layout(&mut g);
        let a = Matrix::from_fn(m, n, layout, |i, j| (i * 131 + j * 7) as f64);
        let tt = transpose(&transpose(&a));
        assert_eq!(a.max_abs_diff(&tt), 0.0);
    }
}

/// The parallel tiled transpose agrees with the serial element-wise
/// definition for every shape and layout pairing.
#[test]
fn parallel_transpose_matches_definition() {
    let mut g = TestRng::seed_from_u64(0x12);
    for _ in 0..48 {
        let m = g.gen_range(1usize..50);
        let n = g.gen_range(1usize..50);
        let src_layout = arb_layout(&mut g);
        let dst_layout = arb_layout(&mut g);
        let a = Matrix::from_fn(m, n, src_layout, |i, j| (i * 1009 + j) as f64);
        let mut t1 = Matrix::zeros(n, m, dst_layout);
        let mut t2 = Matrix::zeros(n, m, dst_layout);
        transpose_into(&a, &mut t1).unwrap();
        transpose_into_with(&Parallel, &a, &mut t2).unwrap();
        assert_eq!(t1.max_abs_diff(&t2), 0.0);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t1.get(j, i), a.get(i, j));
            }
        }
    }
}

/// Column and row views agree with element access.
#[test]
fn views_match_elements() {
    let mut g = TestRng::seed_from_u64(0x14);
    for _ in 0..64 {
        let m = g.gen_range(1usize..15);
        let n = g.gen_range(1usize..15);
        let layout = arb_layout(&mut g);
        let a = Matrix::from_fn(m, n, layout, |i, j| (i * 100 + j) as f64);
        for j in 0..n {
            let col = a.col(j).to_vec();
            for (i, &cv) in col.iter().enumerate() {
                assert_eq!(cv, a.get(i, j));
            }
        }
        for i in 0..m {
            let row = a.row(i).to_vec();
            for (j, &rv) in row.iter().enumerate() {
                assert_eq!(rv, a.get(i, j));
            }
        }
    }
}
