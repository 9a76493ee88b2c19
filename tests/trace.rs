//! Pins the trace layer's cost contract and its accounting accuracy.
//!
//! Three guarantees, each load-bearing for the observability design
//! (DESIGN.md §8):
//!
//! 1. **Bit identity** — attaching a sink never perturbs the numerics. A
//!    traced solve (no-op sink, and a recording sink at the chattiest
//!    level) produces bit-identical `U`, `Σ`, `V` to an untraced solve, on
//!    a fresh or a warm workspace.
//! 2. **Zero extra allocations** — a solve traced into a [`NoopSink`]
//!    performs exactly as many heap allocations as an untraced solve, on a
//!    fresh or a warm workspace:
//!    software trace events are built from numbers and `&'static str`s,
//!    never from owned strings.
//! 3. **Honest accounting** — the JSONL stream is valid (one JSON object
//!    per line) and its per-sweep rotation counts sum to the solve's own
//!    `SolveStats.rotations_applied`.
//!
//! Lives in the root package (not hj-core) because hj-core carries
//! `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl requires unsafe.

use hjsvd::core::{
    HestenesSvd, JsonlSink, NoopSink, RingBufferSink, SolveRequest, Svd, SvdOptions,
    SweepWorkspace, TraceLevel,
};
use hjsvd::matrix::{gen, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Serialize tests: they share one allocator and the test harness runs
/// tests on separate threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts every allocation event (alloc + realloc) made on the calling
/// thread; frees are not counted. Per-thread, so the harness's own
/// allocations on other threads (spawning the next test) never land in a
/// measurement; the solves measured here are single-threaded.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator can run during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise(want: &Svd, got: &Svd, what: &str) {
    assert_eq!(
        want.singular_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        got.singular_values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: singular values drifted under tracing"
    );
    assert_eq!(bits(&want.u), bits(&got.u), "{what}: U drifted");
    assert_eq!(bits(&want.v), bits(&got.v), "{what}: V drifted");
    assert_eq!(want.sweeps, got.sweeps, "{what}: sweep count drifted");
}

#[test]
fn traced_solves_are_bit_identical_to_untraced() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(40, 16, 23);
    let solver = HestenesSvd::new(SvdOptions::default());
    let base = solver.decompose(&a).unwrap();

    // No-op sink at sweep level.
    let quiet = solver
        .decompose_with(&a, SolveRequest::default().with_trace(&mut NoopSink, TraceLevel::Sweep))
        .unwrap();
    assert_bitwise(&base, &quiet, "noop sink");

    // Recording sink at the chattiest level.
    let mut ring = RingBufferSink::new(1 << 16);
    let loud = solver
        .decompose_with(&a, SolveRequest::default().with_trace(&mut ring, TraceLevel::Rotation))
        .unwrap();
    assert!(ring.recorded() > 0, "rotation-level trace was empty");
    assert_bitwise(&base, &loud, "rotation-level ring");

    // The same two sinks on a warm workspace, against the untraced solve on
    // that workspace.
    let mut ws = SweepWorkspace::new();
    solver.decompose_with(&a, SolveRequest::default().with_workspace(&mut ws)).unwrap();
    let warm = solver.decompose_with(&a, SolveRequest::default().with_workspace(&mut ws)).unwrap();
    assert_bitwise(&base, &warm, "warm untraced");
    let warm_quiet = solver
        .decompose_with(
            &a,
            SolveRequest::default()
                .with_workspace(&mut ws)
                .with_trace(&mut NoopSink, TraceLevel::Sweep),
        )
        .unwrap();
    assert_bitwise(&warm, &warm_quiet, "warm noop sink");
    let mut warm_ring = RingBufferSink::new(1 << 16);
    let warm_loud = solver
        .decompose_with(
            &a,
            SolveRequest::default()
                .with_workspace(&mut ws)
                .with_trace(&mut warm_ring, TraceLevel::Rotation),
        )
        .unwrap();
    assert_eq!(warm_ring.recorded(), ring.recorded(), "warm trace differs from cold");
    assert_bitwise(&warm, &warm_loud, "warm rotation-level ring");
}

/// A request tracing into `sink` at sweep level.
fn noop(sink: &mut NoopSink) -> SolveRequest<'_> {
    SolveRequest::default().with_trace(sink, TraceLevel::Sweep)
}

#[test]
fn noop_traced_solve_allocates_exactly_as_much_as_untraced() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(48, 24, 29);
    let solver = HestenesSvd::new(SvdOptions::default());
    let mut sink = NoopSink;
    // Warm up the allocator's internal arenas so both measured runs see
    // identical conditions.
    solver.decompose(&a).unwrap();
    solver.decompose_with(&a, noop(&mut sink)).unwrap();

    let before = allocation_count();
    solver.decompose(&a).unwrap();
    let untraced = allocation_count() - before;

    let before = allocation_count();
    solver.decompose_with(&a, noop(&mut sink)).unwrap();
    let traced = allocation_count() - before;

    assert_eq!(traced, untraced, "no-op tracing changed the allocation count");

    // The same contract on a warm workspace.
    let mut ws = SweepWorkspace::new();
    solver.decompose_with(&a, SolveRequest::default().with_workspace(&mut ws)).unwrap();
    solver.decompose_with(&a, noop(&mut sink).with_workspace(&mut ws)).unwrap();

    let before = allocation_count();
    solver.decompose_with(&a, SolveRequest::default().with_workspace(&mut ws)).unwrap();
    let warm_untraced = allocation_count() - before;

    let before = allocation_count();
    solver.decompose_with(&a, noop(&mut sink).with_workspace(&mut ws)).unwrap();
    let warm_traced = allocation_count() - before;

    assert_eq!(warm_traced, warm_untraced, "no-op tracing changed the warm allocation count");
}

#[test]
fn jsonl_stream_is_valid_and_rotation_counts_match_stats() {
    let _guard = SERIAL.lock().unwrap();
    let a = gen::uniform(36, 18, 31);
    let solver = HestenesSvd::new(SvdOptions::default());
    let mut sink = JsonlSink::new(Vec::new());
    let svd = solver
        .decompose_with(&a, SolveRequest::default().with_trace(&mut sink, TraceLevel::Rotation))
        .unwrap();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();

    let mut sweep_end_rotations = 0usize;
    let mut applied_events = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        lines += 1;
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        // Minimal structural validity: balanced quoting and braces outside
        // strings — enough to catch malformed hand-rolled JSON.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in line.chars() {
            match (in_str, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{') | (false, _, '[') => depth += 1,
                (false, _, '}') | (false, _, ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces: {line}");
        }
        assert!(depth == 0 && !in_str, "truncated JSON: {line}");

        if let Some(rest) = line.split_once("\"event\":\"sweep_end\"").map(|(_, r)| r) {
            let count = rest
                .split_once("\"rotations_applied\":")
                .and_then(|(_, r)| {
                    r.split(|c: char| !c.is_ascii_digit()).next()?.parse::<usize>().ok()
                })
                .expect("sweep_end must carry rotations_applied");
            sweep_end_rotations += count;
        } else if line.contains("\"event\":\"rotation_applied\"") {
            applied_events += 1;
        }
    }
    assert!(lines > 0, "empty trace");
    assert_eq!(
        sweep_end_rotations, svd.stats.rotations_applied,
        "sweep_end totals disagree with SolveStats"
    );
    assert_eq!(
        applied_events, svd.stats.rotations_applied,
        "rotation_applied event count disagrees with SolveStats"
    );
}
