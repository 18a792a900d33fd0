//! The run-length rule seen from outside the pool: a batch too small to
//! give every worker a run of the length asked for is cut into shorter
//! runs, so that nobody idles while another worker holds two blocks.
//!
//! One test, alone in its binary: the worker budget is read once per
//! process, and the test pins it to four threads before the pool exists.

use pp_portable::{
    num_threads, Field, HostField, Layout, Matrix, Parallel, ResidentBatch, Serial, LANE_WIDTH,
};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn sixty_four_lanes_on_four_workers_are_at_least_four_runs() {
    std::env::set_var("PP_NUM_THREADS", "4");
    assert_eq!(num_threads(), 4);

    let (rows, lanes, per) = (5, 8 * LANE_WIDTH, 4);
    let count = |runs: &AtomicUsize, first: usize, live: usize| {
        // Relaxed: a statistic, read after the region.
        runs.fetch_add(1, Ordering::Relaxed);
        assert_eq!(first % 2, 0, "eight blocks by four workers: runs of two");
        assert_eq!(live, 2 * LANE_WIDTH);
    };
    let (host_runs, panel_runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut m = Matrix::zeros(lanes, rows, Layout::Right);
    let mut host = HostField::new(&mut m);
    host.for_each_run_mut(&Parallel, per, |first, live, _| {
        count(&host_runs, first, live)
    });
    let mut panels = ResidentBatch::zeros(rows, lanes);
    panels.for_each_run_mut(&Parallel, per, |first, live, _| {
        count(&panel_runs, first, live)
    });
    assert_eq!(host_runs.into_inner(), 4);
    assert_eq!(panel_runs.into_inner(), 4);

    // One participant has nobody to share with: two runs of four.
    let serial_runs = AtomicUsize::new(0);
    panels.for_each_run_mut(&Serial, per, |_, live, _| {
        serial_runs.fetch_add(1, Ordering::Relaxed);
        assert_eq!(live, per * LANE_WIDTH);
    });
    assert_eq!(serial_runs.into_inner(), 2);
}
