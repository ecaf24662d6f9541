//! E11 — the steady-state trace path performs no per-instruction heap
//! allocation.
//!
//! A counting global allocator wraps the system allocator; after an attested
//! loop workload has warmed up (loop entered, first paths hashed, every buffer
//! at capacity), thousands of further retired instructions must not allocate
//! at all.  This pins the engine's run-long monitor hand-off buffers, the
//! recycled loop activations, the capacity-retaining branches memory and the
//! event-driven hash path (owed steps settled in bulk, queues that keep their
//! capacity) in place: a regression in any of them shows up as a nonzero
//! allocation delta.
//!
//! Loop *exits* allocate nothing either: each appends its record's varints
//! to the run's one packed buffer, which becomes the run's
//! [`lofat::PackedMetadata`], so the only heap traffic they cause is that
//! buffer's occasional doubling.  The second test bounds a window of
//! hundreds of exits by a constant, and the third checks that a whole
//! reference replay allocates the same number of times whatever its loop
//! count.
//!
//! The property test is bounded by `PROPTEST_CASES` like every other property
//! suite in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lofat::{EngineConfig, LofatEngine, MeasurementDatabase, Verifier};
use lofat_crypto::DeviceKey;
use lofat_rv32::asm::assemble;
use lofat_rv32::Cpu;
use lofat_workloads::catalog;
use proptest::prelude::*;

/// System allocator wrapper counting every allocation and reallocation made
/// by the calling thread.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so the allocations libtest and proptest make on other
    /// threads never land in a test's window; the engine under test runs on
    /// the test's own thread.  `const`-initialised with no destructor, so the
    /// allocator can touch it without allocating or registering anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down, when no
    // test window is open.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A flat counted loop: after warm-up the engine sees the same compressed path
/// every iteration and nothing exits, so the window must be allocation-free.
fn flat_loop_source(trips: u32) -> String {
    format!(
        r#"
        .text
        main:
            li   s0, {trips}
            li   a0, 0
        loop:
            addi a0, a0, 1
            xori t1, a0, 0x55
            addi s0, s0, -1
            bnez s0, loop
            ecall
        "#
    )
}

/// Nested loops: the inner loop exits and re-enters once per outer iteration,
/// emitting one loop record each time.
const NESTED_LOOP: &str = r#"
    .text
    main:
        li   s0, 4000          # outer trip count
        li   a0, 0
    outer_loop:
        li   t0, 5             # inner trip count
    inner_loop:
        addi a0, a0, 1
        addi t0, t0, -1
        bnez t0, inner_loop
        addi s0, s0, -1
        bnez s0, outer_loop
        ecall
"#;

fn attested_cpu(source: &str) -> (Cpu, LofatEngine) {
    let program = assemble(source).expect("assemble");
    let engine = LofatEngine::for_program(&program, EngineConfig::default()).expect("engine");
    let cpu = Cpu::new(&program).expect("load");
    (cpu, engine)
}

/// Steps `n` instructions, asserting the program does not exit.
fn step_n(cpu: &mut Cpu, engine: &mut LofatEngine, n: u32) {
    for _ in 0..n {
        assert!(cpu.step(engine).expect("step").is_none(), "workload exited too early");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn steady_state_observe_is_allocation_free(trips in 2_000u32..20_000) {
        // Setup (allocates freely): assemble, load, attach the engine.
        let (mut cpu, mut engine) = attested_cpu(&flat_loop_source(trips));

        // Warm-up: loop entered, first path hashed, buffers at capacity.
        step_n(&mut cpu, &mut engine, 100);

        // Steady state: thousands of retired instructions, zero allocations.
        let before = allocation_count();
        step_n(&mut cpu, &mut engine, 4_000);
        let delta = allocation_count() - before;
        prop_assert_eq!(
            delta,
            0,
            "steady-state attested execution allocated {} times over 4000 instructions",
            delta
        );
    }
}

/// Nested loops exit and re-enter continuously; the recycled activations keep
/// the per-instruction path allocation-free, and each exit appends its record
/// to the run's one packed buffer.  Over hundreds of exits the only heap
/// traffic left is that buffer's doublings: a constant, independent of both
/// the exits and the per-iteration instruction volume.
#[test]
fn nested_loop_allocations_scale_with_records_not_instructions() {
    let (mut cpu, mut engine) = attested_cpu(NESTED_LOOP);
    step_n(&mut cpu, &mut engine, 300);

    let exits_before = engine.stats().loops_exited;
    let before = allocation_count();
    step_n(&mut cpu, &mut engine, 30_000);
    let delta = allocation_count() - before;
    let exits = engine.stats().loops_exited - exits_before;

    assert!(exits > 500, "expected many inner-loop exits, saw {exits}");
    assert!(
        delta <= 16,
        "{delta} allocations over {exits} loop exits — a loop exit or an \
         instruction allocates"
    );
}

/// A whole reference replay allocates a fixed number of times, whatever its
/// loop count: a one-input database build of syringe-pump at 1000 units
/// exits ten times as many loops as one at 100 units, and allocates within
/// 8 of it (the packed buffer's extra doublings).
#[test]
fn reference_replay_allocations_do_not_grow_with_loop_count() {
    let workload = catalog::by_name("syringe-pump").expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let key = DeviceKey::from_seed("e11-device").verification_key();
    let verifier = Verifier::new(program, workload.name, key).expect("verifier");
    let build = |units: u32| {
        let before = allocation_count();
        let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), [vec![units]])
            .expect("replay");
        let delta = allocation_count() - before;
        let loops = db.reference(&[units]).expect("built").metadata.loop_count();
        (delta, loops)
    };
    let ((small, small_loops), (large, large_loops)) = (build(100), build(1000));
    assert!(large_loops >= 9 * small_loops, "{small_loops} vs {large_loops} loops");
    assert!(
        small.abs_diff(large) <= 8,
        "{small} allocations at 100 units, {large} at 1000: a loop exit allocates"
    );
}
