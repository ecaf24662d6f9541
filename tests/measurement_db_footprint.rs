//! The measurement database's resident footprint and the cost of a check.
//!
//! A process-global counting allocator tracks live heap bytes and blocks, so
//! the count covers every thread the database build starts.  The binary holds
//! one test, so nothing else allocates while a window is open.
//!
//! Each entry is one packed record plus its key and a slot in the map's
//! nodes: at most 3 blocks and 1.5 KB for crc32 inputs of 16-64 words.
//! Checking an honest report compares it against the packed record in place,
//! so it allocates nothing.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use lofat::{EngineConfig, MeasurementDatabase};
use lofat_crypto::Nonce;
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

/// System allocator wrapper tracking live bytes and blocks, and counting
/// allocations, across all threads.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Live heap bytes and blocks.
fn live() -> (usize, usize) {
    (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed))
}

#[test]
fn packed_database_stays_small_and_checks_honest_reports_without_allocating() {
    let workload = catalog::by_name("crc32").unwrap();
    let (_, mut prover, verifier) = common::workload_session(workload.name, "db-footprint");
    let mut generator = InputGenerator::new(0xf007);
    let inputs: Vec<Vec<u32>> =
        (0..512).map(|i| generator.input_for(&workload, 16 + i % 49)).collect();
    let honest: Vec<_> = (0..inputs.len())
        .step_by(16)
        .map(|i| {
            let run = prover.attest(&inputs[i], Nonce::from_counter(i as u64 + 1)).unwrap();
            (&inputs[i], run.report)
        })
        .collect();

    let (bytes_before, blocks_before) = live();
    let db =
        MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone()).unwrap();
    let (bytes_after, blocks_after) = live();
    assert_eq!(db.len(), inputs.len(), "the generated inputs are distinct");
    let (bytes, blocks) = (bytes_after - bytes_before, blocks_after - blocks_before);
    let per_entry = |total: usize| total as f64 / db.len() as f64;
    assert!(per_entry(blocks) <= 3.0, "{:.2} heap blocks per entry", per_entry(blocks));
    assert!(per_entry(bytes) <= 1536.0, "{:.0} heap bytes per entry", per_entry(bytes));
    // `heap_bytes` leaves out only the map's node headers and spare slots.
    let reported = db.heap_bytes();
    assert!(reported <= bytes && reported >= bytes * 9 / 10, "{reported} of {bytes} B");

    let allocations = ALLOCATIONS.load(Relaxed);
    for (input, report) in &honest {
        assert!(db.check(input, report).is_ok());
    }
    assert_eq!(ALLOCATIONS.load(Relaxed) - allocations, 0, "allocations while checking");
}
