//! The resident footprint of the measurement database and of reports, and
//! the cost of a check and of a decode.
//!
//! A counting allocator tracks live heap bytes and blocks and counts
//! allocations, both across all threads and for the calling thread alone.
//! The database test reads the process-wide books, so that the count covers
//! every thread the database build starts; the report test reads its own
//! thread's.  The two take one lock, so neither allocates while the other
//! has a window open.
//!
//! Each database entry is one packed record plus its key and a slot in the
//! sorted entry array: at most 3 blocks and 513 B for crc32 inputs of 16-64
//! words.
//! Checking an honest report compares it against the packed record in place,
//! so it allocates nothing.
//!
//! A report holds `L` in one heap block of its packed length, and decoding an
//! evidence frame allocates as many times whatever the loop count.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use lofat::wire::{Envelope, EvidenceMsg, Message, SessionId};
use lofat::{EngineConfig, MeasurementDatabase};
use lofat_crypto::Nonce;
use lofat_workloads::catalog;
use lofat_workloads::generator::InputGenerator;

/// System allocator wrapper tracking live bytes and blocks, and counting
/// allocations, across all threads and per thread.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's live bytes, live blocks and allocations: what it
    /// allocated less what it freed.  `const`-initialised with no
    /// destructor, so the allocator can touch it without allocating or
    /// registering anything.
    static THREAD: Cell<(isize, isize, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Adds to the calling thread's books; `try_with` fails only while the
/// thread is being torn down, when no test window is open.
fn on_thread(bytes: isize, blocks: isize, allocations: u64) {
    let _ = THREAD.try_with(|books| {
        let (b, k, a) = books.get();
        books.set((b + bytes, k + blocks, a + allocations));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        on_thread(layout.size() as isize, 1, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        on_thread(-(layout.size() as isize), -1, 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        ALLOCATIONS.fetch_add(1, Relaxed);
        on_thread(new_size as isize - layout.size() as isize, 0, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live heap bytes and blocks.
fn live() -> (usize, usize) {
    (LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed))
}

/// The calling thread's books: live bytes, live blocks, allocations.
fn thread_books() -> (isize, isize, u64) {
    THREAD.with(Cell::get)
}

#[test]
fn packed_database_stays_small_and_checks_honest_reports_without_allocating() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
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
    assert!(per_entry(bytes) <= 513.0, "{:.0} heap bytes per entry", per_entry(bytes));
    // `heap_bytes` leaves out only the valid-path table's node headers and
    // spare slots.
    let reported = db.heap_bytes();
    assert!(reported <= bytes && reported >= bytes * 9 / 10, "{reported} of {bytes} B");

    let allocations = ALLOCATIONS.load(Relaxed);
    for (input, report) in &honest {
        assert!(db.check(input, report).is_ok());
    }
    assert_eq!(ALLOCATIONS.load(Relaxed) - allocations, 0, "allocations while checking");
}

/// 512 honest crc32 reports of 16-64 words each hold `L` in exactly one heap
/// block of its packed length: dropping it frees that block and nothing
/// else.  Decoding an evidence frame allocates as many times for a short run
/// as for a long one: crc32 at 16 and 64 words, syringe-pump at 100 and 1000
/// units.
#[test]
fn reports_hold_packed_metadata_in_one_block_and_decode_in_fixed_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let crc32 = catalog::by_name("crc32").unwrap();
    let (_, mut prover, _) = common::workload_session(crc32.name, "report-footprint");
    let mut generator = InputGenerator::new(0xf00d);
    for i in 0..512 {
        let input = generator.input_for(&crc32, 16 + i % 49);
        let run = prover.attest(&input, Nonce::from_counter(i as u64 + 1)).unwrap();
        let metadata = run.report.metadata;
        let packed_len = metadata.packed_len() as isize;
        let (bytes_before, blocks_before, _) = thread_books();
        drop(metadata);
        let (bytes_after, blocks_after, _) = thread_books();
        assert_eq!(
            (bytes_before - bytes_after, blocks_before - blocks_after),
            (packed_len, 1),
            "input {i}: the bytes and blocks `L` held"
        );
    }

    let crc32_inputs = [generator.input_for(&crc32, 16), generator.input_for(&crc32, 64)];
    for (name, [short, long]) in
        [("crc32", crc32_inputs), ("syringe-pump", [vec![100], vec![1000]])]
    {
        let (_, mut prover, _) = common::workload_session(name, "report-footprint");
        let mut decode_allocations = |input: &[u32]| {
            let run = prover.attest(input, Nonce::from_counter(1)).unwrap();
            let loops = run.report.metadata.loop_count();
            let evidence = Message::Evidence(EvidenceMsg { report: run.report });
            let frame = Envelope::new(SessionId(1), evidence).encode().unwrap();
            let (_, _, before) = thread_books();
            let decoded = Envelope::decode(&frame).unwrap();
            let (_, _, after) = thread_books();
            drop(decoded);
            (after - before, loops)
        };
        let ((short, short_loops), (long, long_loops)) =
            (decode_allocations(&short), decode_allocations(&long));
        assert!(long_loops > short_loops, "{name}: {short_loops} vs {long_loops} loops");
        assert_eq!(
            short, long,
            "{name}: decode allocations at {short_loops} and {long_loops} loops"
        );
    }
}
