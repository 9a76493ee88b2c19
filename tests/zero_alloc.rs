//! Pins the zero-allocation invariant of the sweep engine, the service
//! worker loop and the SoA batch engine.
//!
//! A counting global allocator wraps `System`; sweeps — gram-only and full
//! (Gram and V, with B carried along) — must perform **zero** heap
//! allocations: every rotation updates `D` and `V` in place, and the
//! once-per-solve column product `B ← B·V` works in place on a stack panel.
//! This is the software analogue of
//! the paper's fixed BRAM budget: the FPGA design claims all
//! covariance/column storage up front and reuses it every sweep.
//!
//! Lives in the root package (not hj-core) because hj-core carries
//! `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl requires unsafe.

use hjsvd::core::engine::Sequential;
use hjsvd::core::ordering::{round_robin, Sweep};
use hjsvd::core::sweep::sweep_gram_only;
use hjsvd::core::{GramState, PairGuard, RotationTarget, SweepEngine, SweepState};
use hjsvd::matrix::{gen, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The allocation counter is process-global and the test harness runs tests
/// on separate threads; serialize them so one test's warm-up never lands in
/// another's measured region.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation event (alloc + realloc) passing through the
/// global allocator. Frees are not counted — the invariant under test is
/// "no new buffers", not "no buffer returns".
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Lock the serialization mutex, shrugging off poison: a panicking test
/// must fail alone, not cascade into every later test as a `PoisonError`.
fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Measure the allocation events `f` performs, retrying a few times and
/// keeping the minimum. The counter is process-global and libtest's main
/// thread occasionally allocates mid-test (timeout bookkeeping), so a
/// single measurement can pick up a couple of unrelated events; code that
/// genuinely allocates per call fails every retry, so the invariant under
/// test is not weakened.
fn min_alloc_delta(mut f: impl FnMut()) -> usize {
    let mut best = usize::MAX;
    for _ in 0..5 {
        let before = allocation_count();
        f();
        best = best.min(allocation_count() - before);
        if best == 0 {
            break;
        }
    }
    best
}

/// One `Sequential` sweep over a full-SVD target: `D` and `V` rotate while
/// `B` rides along untouched (the driver forms `B·V` after the loop).
fn full_sweep(b: &mut Matrix, gram: &mut GramState, v: &mut Matrix, order: &Sweep, s: usize) {
    let mut state =
        SweepState { gram, target: RotationTarget::full(b, v), guard: PairGuard::default() };
    Sequential.sweep(&mut state, order, s);
}

#[test]
fn gram_sweeps_allocate_nothing_after_warmup() {
    let _guard = serial_guard();
    let a = gen::uniform(48, 24, 11);
    let mut gram = GramState::from_matrix(&a);
    let order = round_robin(gram.dim());
    sweep_gram_only(&mut gram, &order, 1);

    let mut s = 1;
    let delta = min_alloc_delta(|| {
        for _ in 0..3 {
            s += 1;
            sweep_gram_only(&mut gram, &order, s);
        }
    });
    assert_eq!(delta, 0, "steady-state gram sweeps allocated {delta} times");
}

#[test]
fn full_sweeps_allocate_nothing_after_warmup() {
    let _guard = serial_guard();
    let src = gen::uniform(32, 12, 13);
    let mut b = src.clone();
    let mut gram = GramState::from_matrix(&b);
    let mut v = Matrix::identity(b.cols());
    let order = round_robin(gram.dim());

    full_sweep(&mut b, &mut gram, &mut v, &order, 1);

    let mut s = 1;
    let delta = min_alloc_delta(|| {
        for _ in 0..3 {
            s += 1;
            full_sweep(&mut b, &mut gram, &mut v, &order, s);
        }
    });
    assert_eq!(delta, 0, "steady-state full sweeps allocated {delta} times");
}

#[test]
fn column_product_allocates_nothing_after_warmup() {
    // The full mode's once-per-solve `B ← B·V` gathers each row panel into
    // a stack buffer and writes the product back into `B`: no heap at all,
    // on panel-aligned and ragged shapes alike.
    let _guard = serial_guard();
    for (m, n) in [(64usize, 16usize), (301, 37), (5, 9)] {
        let mut b = gen::uniform(m, n, 19);
        let v = gen::random_orthonormal(n, n, 23);
        b.matmul_in_place(&v).unwrap();
        let delta = min_alloc_delta(|| {
            for _ in 0..3 {
                b.matmul_in_place(&v).unwrap();
            }
        });
        assert_eq!(delta, 0, "the {m}x{n} column product allocated {delta} times");
    }
}

#[test]
fn serving_loop_reuses_one_workspace_and_bounds_per_job_allocations() {
    // The hj-serve worker checks out ONE workspace at startup and keeps it
    // for the life of the pool, so the serving steady state inherits the
    // sweeps' zero-allocation discipline: solving a stream of
    // same-shape jobs creates no further workspaces, and the remaining
    // per-job allocation events (ticket, completion slot, result vector)
    // are a small constant independent of how many jobs have been served.
    let _guard = serial_guard();
    use hjsvd::serve::{JobSpec, ServiceConfig, SolveService};
    use std::time::Duration;

    let service = SolveService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });

    // Pre-generate every matrix so measured deltas are service-side only.
    let mats: Vec<Matrix> = (0..9).map(|k| gen::uniform(32, 12, 50 + k)).collect();
    let mut mats = mats.into_iter();

    // Warm-up: the first jobs size the worker's workspace, the queue spine,
    // and the tenant table.
    for _ in 0..3 {
        assert!(service.solve(JobSpec::new(mats.next().unwrap())).unwrap().result.is_ok());
    }
    assert_eq!(service.workspaces_created(), 1, "worker must own exactly one workspace");

    // Steady state: per-job allocation events stay bounded by a constant.
    let mut deltas = Vec::new();
    for m in mats {
        let before = allocation_count();
        assert!(service.solve(JobSpec::new(m)).unwrap().result.is_ok());
        deltas.push(allocation_count() - before);
    }
    let bound = 64;
    let worst = deltas.iter().copied().max().unwrap();
    assert!(worst <= bound, "a served job allocated {worst} times (> {bound}): {deltas:?}");
    // No drift: late jobs cost no more than early ones (same shape, warm
    // everything) — the loop is not accumulating per-job state. A couple
    // of events of slack absorbs harness-thread noise on either endpoint.
    assert!(
        *deltas.last().unwrap() <= deltas.first().unwrap() + 2,
        "per-job allocations grew across the serving loop: {deltas:?}"
    );
    // And the pool never created a second workspace.
    assert_eq!(service.workspaces_created(), 1);
    assert!(service.shutdown(Duration::from_secs(5)).drained_cleanly);
}

#[test]
fn batch_workspace_solves_allocate_only_results_after_warmup() {
    // The SoA batch engine follows the same discipline as the sweep
    // workspaces: the first batch sizes the interleaved triangle and every
    // per-lane buffer; repeated same-shape batches never grow the
    // workspace again, so steady-state allocation traffic is the
    // per-problem result construction alone (values, history, stats) — a
    // constant per batch, independent of how many batches have run.
    let _guard = serial_guard();
    use hjsvd::core::{BatchDriver, BatchWorkspace, HestenesSvd, SvdOptions};
    let solver = HestenesSvd::new(SvdOptions::default());
    let driver = BatchDriver::new(&solver);
    let mats: Vec<Matrix> = (0..24).map(|k| gen::uniform(16, 8, 70 + k)).collect();
    let mut ws = BatchWorkspace::new();

    // Warm-up batch: sizes the SoA triangle and the lane-state buffers.
    let first = driver.solve(&mut ws, &mats);
    assert!(first.iter().all(|r| r.is_ok()), "warm-up batch must solve");
    let warm = ws.allocations();
    assert!(warm > 0, "warm-up must have sized the workspace");

    let mut deltas = Vec::new();
    for _ in 0..6 {
        let before = allocation_count();
        let batch = driver.solve(&mut ws, &mats);
        deltas.push(allocation_count() - before);
        assert!(batch.iter().all(|r| r.is_ok()));
    }
    // The workspace itself is in zero-allocation steady state...
    assert_eq!(ws.allocations(), warm, "workspace grew after warm-up");
    // ...and whole-batch traffic is bounded by result construction: a small
    // constant per problem.
    let bound = mats.len() * 16;
    let worst = deltas.iter().copied().max().unwrap();
    assert!(worst <= bound, "a batch solve allocated {worst} times (> {bound}): {deltas:?}");
    // No drift across batches (same shapes, warm workspace); a couple of
    // events of slack absorbs harness-thread noise.
    assert!(
        *deltas.last().unwrap() <= deltas.first().unwrap() + 2,
        "per-batch allocations grew across repeated solves: {deltas:?}"
    );
}

#[test]
fn reused_workspace_allocations_are_per_problem_not_per_sweep() {
    // A warm process switching to a NEW problem: the first sweep of each
    // problem must cost no more than its later sweeps. Sweeps rotate `D`
    // and `V` in place, so the per-problem warm-up is zero allocation
    // events (measured; the bound is pinned there), and every subsequent
    // sweep of the same problem allocates exactly zero too.
    let _guard = serial_guard();
    let shapes = [(40usize, 20usize), (30, 12), (18, 6)];

    for (k, &(m, n)) in shapes.iter().enumerate() {
        let mut b = gen::uniform(m, n, 17 + k as u64);
        let mut gram = GramState::from_matrix(&b);
        let mut v = Matrix::identity(n);
        let order = round_robin(gram.dim());

        // First sweep of this problem, measured on fresh copies of its
        // starting state so harness-thread noise can be retried away as in
        // `min_alloc_delta`; the copies are made outside the measurement.
        let mut warmup = usize::MAX;
        for _ in 0..5 {
            let (mut fb, mut fg, mut fv) = (b.clone(), gram.clone(), v.clone());
            let before = allocation_count();
            full_sweep(&mut fb, &mut fg, &mut fv, &order, 1);
            warmup = warmup.min(allocation_count() - before);
            if warmup == 0 {
                break;
            }
        }
        let bound = 0;
        assert!(warmup <= bound, "warm-up on {m}x{n} allocated {warmup} times (> {bound})");

        // Steady state: zero allocations per sweep.
        full_sweep(&mut b, &mut gram, &mut v, &order, 1);
        let mut s = 1;
        let delta = min_alloc_delta(|| {
            for _ in 0..3 {
                s += 1;
                full_sweep(&mut b, &mut gram, &mut v, &order, s);
            }
        });
        assert_eq!(delta, 0, "steady-state sweeps on {m}x{n} allocated {delta} times");
    }
}
