//! Randomised property tests for the view substrate: layout round trips,
//! transposes against their definition, lane dispatch equivalence. Driven
//! by the deterministic [`TestRng`] so runs are reproducible and hermetic.

use pp_portable::{transpose_into, transpose_into_with, Layout, Matrix, Parallel, TestRng};

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

/// Both transposes, on both execution spaces, against the definition
/// for random shapes and every pairing of layouts, degenerate extents
/// included.
#[test]
fn transposes_match_definition() {
    let mut g = TestRng::seed_from_u64(0x12);
    for _ in 0..64 {
        let m = g.gen_range(0usize..50);
        let n = g.gen_range(0usize..50);
        let src_layout = arb_layout(&mut g);
        let dst_layout = arb_layout(&mut g);
        let a = Matrix::from_fn(m, n, src_layout, |i, j| (i * 1009 + j) as f64);
        let want = Matrix::from_fn(n, m, dst_layout, |j, i| a.get(i, j));
        let mut t1 = Matrix::from_fn(n, m, dst_layout, |_, _| f64::NAN);
        let mut t2 = t1.clone();
        transpose_into(&a, &mut t1).unwrap();
        transpose_into_with(&Parallel, &a, &mut t2).unwrap();
        for (t, what) in [(&t1, "serial"), (&t2, "parallel")] {
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(t.get(j, i).to_bits(), want.get(j, i).to_bits(), "{what}");
                }
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
