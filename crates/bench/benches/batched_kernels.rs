//! Bench for the batched-serial LAPACK kernels themselves — the paper's
//! contribution at the Kokkos-kernels level (pttrs, pbtrs, gbtrs, getrs),
//! isolated from the spline builder.

use pp_bench::{fmt_ms, time_mean};
use pp_linalg::{batched, gbtrf, getrf, pbtrf, pttrf, BandedMatrix, SymBandedMatrix};
use pp_portable::{Layout, Matrix, Parallel};

fn main() {
    let n = 1000;
    let batch = 2000;
    let rhs = Matrix::from_fn(n, batch, Layout::Left, |i, j| ((i + j) % 7) as f64 + 1.0);

    let pt = pttrf(&vec![4.0; n], &vec![-1.0; n - 1]).expect("pttrf");
    let pb =
        pbtrf(&SymBandedMatrix::from_fn(n, 2, |i, j| if i == j { 6.0 } else { -1.0 }).expect("pb"))
            .expect("pbtrf");
    let gb = gbtrf(
        &BandedMatrix::from_fn(n, 2, 2, |i, j| {
            if i == j {
                6.0
            } else {
                -0.8 / (1 + i.abs_diff(j)) as f64
            }
        })
        .expect("gb"),
    )
    .expect("gbtrf");
    // getrs on a small border-sized dense block, batched, as in the
    // spline builder (the big-n case is never solved densely).
    let small = Matrix::from_fn(8, 8, Layout::Right, |i, j| {
        if i == j {
            10.0
        } else {
            1.0 / (1 + i + j) as f64
        }
    });
    let lu = getrf(&small).expect("getrf");
    let small_rhs = Matrix::from_fn(8, batch, Layout::Left, |i, j| ((i + j) % 5) as f64);

    println!("batched_kernels ({n} x {batch})");
    let run = |name: &str, f: &mut dyn FnMut(&mut Matrix)| {
        let mut w = rhs.clone();
        let d = time_mean(5, || {
            w.deep_copy_from(&rhs).expect("shape");
            f(&mut w);
        });
        println!("  {name:>16} {}", fmt_ms(d));
    };
    run("pttrs", &mut |w| batched::pttrs(&Parallel, &pt, w));
    run("pbtrs", &mut |w| batched::pbtrs(&Parallel, &pb, w));
    run("gbtrs", &mut |w| batched::gbtrs(&Parallel, &gb, w));
    let mut w = small_rhs.clone();
    let d = time_mean(5, || {
        w.deep_copy_from(&small_rhs).expect("shape");
        batched::getrs(&Parallel, &lu, &mut w);
    });
    println!("  {:>16} {}", "getrs_8x8", fmt_ms(d));
}
