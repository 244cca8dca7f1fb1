//! Heap accounting for the timing model and the default solve.
//!
//! A counting wrapper over the system allocator sees every allocation of
//! this test binary. The counters are global, so each test measures alone:
//! the default run has one test, and the ignored 100k-latch one runs with
//! `--include-ignored --test-threads=1`. The inputs are generated
//! datapaths (`smo gen --latches N --seed 7`, read back from its netlist
//! text as the CLI reads it).

use smo::circuit::netlist::{self, ParseLimits};
use smo::circuit::Circuit;
use smo::gen::datapath::{pipelined_datapath, DatapathConfig};
use smo::timing::{min_cycle_time, TimingModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Counts allocations and tracks the live and peak heap bytes.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// updates counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `smo gen --latches n --seed 7`, parsed back from its netlist text.
fn datapath(latches: usize) -> Circuit {
    let text = netlist::write(&pipelined_datapath(
        &DatapathConfig::with_latches(latches),
        7,
    ));
    netlist::parse_with_limits(&text, &ParseLimits::UNLIMITED).expect("generated netlist parses")
}

/// What building the timing model of `circuit` costs: allocations, live
/// bytes it holds afterwards, and its row count.
fn model_cost(circuit: &Circuit) -> (usize, usize, usize) {
    let (allocations, live) = (ALLOCATIONS.load(Relaxed), LIVE.load(Relaxed));
    let model = TimingModel::build(circuit).expect("model builds");
    let cost = (
        ALLOCATIONS.load(Relaxed) - allocations,
        LIVE.load(Relaxed) - live,
        model.num_constraints(),
    );
    drop(model);
    cost
}

/// The heap the default solve of `circuit` adds at its peak on top of
/// what is live before it.
fn solve_peak(circuit: &Circuit) -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let solution = min_cycle_time(circuit).expect("datapath solves");
    let added = PEAK.load(Relaxed) - live;
    assert!(solution.cycle_time() > 0.0);
    added
}

/// The heap the default solve of the 4000-latch datapath may add on top
/// of its circuit: 2.04 MB measured, plus 5%. The graph is built straight
/// from the model's rows with 4-byte arc tags and freed before the
/// optimum is certified; storing a classification of every row first took
/// the peak to 3.09 MB, and heap storage of its own for every row to
/// 5.56 MB.
const SOLVE_PEAK_BOUND: usize = 2_150_000;

/// The same for the 100k-latch datapath: 51.5 MB measured, plus 5%.
const WIDE_SOLVE_PEAK_BOUND: usize = 54_100_000;

#[test]
fn timing_model_storage_is_flat_and_the_solve_peak_is_bounded() {
    let small = datapath(1000);
    let large = datapath(4000);

    // The model reserves its arrays exactly from counts: the number of
    // allocations does not grow with the circuit.
    let (small_allocations, _, _) = model_cost(&small);
    let (large_allocations, large_bytes, rows) = model_cost(&large);
    assert_eq!(
        small_allocations, large_allocations,
        "model build allocations grow with the circuit"
    );
    assert!(
        large_allocations <= 50,
        "model build makes {large_allocations} allocations"
    );
    let per_row = large_bytes as f64 / rows as f64;
    assert!(
        per_row <= 128.0,
        "the model holds {per_row:.1} B per row ({large_bytes} B, {rows} rows)"
    );

    let added = solve_peak(&large);
    assert!(
        added <= SOLVE_PEAK_BOUND,
        "the default solve peaks {added} B above its circuit"
    );
}

#[test]
#[ignore = "100k latches; the counters are global, so run with --test-threads=1"]
fn the_100k_latch_solve_peak_is_bounded() {
    let added = solve_peak(&datapath(100_000));
    assert!(
        added <= WIDE_SOLVE_PEAK_BOUND,
        "the default solve peaks {added} B above its 100k-latch circuit"
    );
}
