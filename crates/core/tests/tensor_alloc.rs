//! The tensor build allocates nothing once warm: a counting global
//! allocator watches a second `TensorSpline2D::interpolate_in_place` on
//! `Serial`, after a first call has grown the calling thread's scratch.
//! In a file of its own, so that no other test shares the allocator.

use pp_portable::{Layout, Matrix, ResidentBatch, Serial};
use pp_splinesolver::tensor2d::uniform_tensor;
use pp_splinesolver::BuilderVersion;
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the allocations a thread makes while
/// its `COUNTING` flag is up (`alloc_zeroed` and `realloc` come through
/// `alloc` by default).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: both calls are forwarded unchanged to `System`; the counter is
// an atomic and the flag a const-initialised thread-local, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_interpolate_in_place_allocates_nothing() {
    // Ragged on both sides: a partial last panel and a partial last block.
    for version in BuilderVersion::ALL {
        let t = uniform_tensor(37, 21, 3, version).unwrap();
        let values = Matrix::from_fn(37, 21, Layout::Left, |i, j| (i * 21 + j) as f64);
        let mut c = ResidentBatch::pack(&values);
        t.interpolate_in_place(&Serial, &mut c).unwrap();
        COUNTING.with(|on| on.set(true));
        let built = t.interpolate_in_place(&Serial, &mut c);
        COUNTING.with(|on| on.set(false));
        built.unwrap();
        assert_eq!(ALLOCATIONS.swap(0, Ordering::Relaxed), 0, "{version:?}");
    }
}
