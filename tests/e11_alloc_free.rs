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
//! A prover run allocates a fixed number of times too: one
//! `ProverSession::handle_bytes`, from challenge bytes to evidence bytes,
//! allocates as often at 2 000 units of syringe-pump as at 100.
//!
//! On the verifier's side, one verdict allocates a fixed number of times: the
//! fourth test counts one `handle_bytes` of honest evidence, which allocates
//! alike whether or not the service judged the same measurement before and
//! however long the attested run was.  The last two pin the service's own
//! counts: a warmed open allocates nothing and an honest verdict ten times; a
//! held session keeps one 16-byte slot in its shard's table (its input is
//! freed at the open), and a sweep allocates nothing.
//!
//! The length of `L`'s fixed-width layout is counted in a walk over the
//! packed bytes, without building the layout: no allocation for a
//! 2 000-unit syringe-pump run whose layout takes 90 049 bytes.
//!
//! The property test is bounded by `PROPTEST_CASES` like every other property
//! suite in the workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lofat::session::ProverSession;
use lofat::{
    EngineConfig, Envelope, LofatEngine, MeasurementDatabase, Message, Prover, ServiceConfig,
    Verifier, VerifierService,
};
use lofat_crypto::{DeviceKey, Nonce};
use lofat_rv32::asm::assemble;
use lofat_rv32::Cpu;
use lofat_workloads::catalog;
use proptest::prelude::*;

/// System allocator wrapper counting every allocation and reallocation made
/// by the calling thread, and the heap bytes it holds.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so the allocations libtest and proptest make on other
    /// threads never land in a test's window; the engine under test runs on
    /// the test's own thread.  `const`-initialised with no destructor, so the
    /// allocator can touch it without allocating or registering anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The bytes the calling thread allocated less those it freed.
    static HEAP_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_allocation(bytes: isize) {
    // `try_with` fails only while the thread is being torn down, when no
    // test window is open.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    count_bytes(bytes);
}

fn count_bytes(bytes: isize) {
    let _ = HEAP_BYTES.try_with(|held| held.set(held.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes the calling thread allocated and has not freed.
fn heap_bytes() -> isize {
    HEAP_BYTES.with(Cell::get)
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

/// One verdict allocates the same number of times whatever the service
/// judged before it and however long the run it judges: `handle_bytes` of
/// honest syringe-pump evidence allocates as often for the first verdict on
/// an input as for a later one, and as often at 100 units as at 2 000.  The
/// service keeps nothing from one session's evidence for the next, and
/// every syringe-pump input's packed `L` is three runs of loop records.
#[test]
fn verdict_allocations_do_not_depend_on_history_or_run_length() {
    let workload = catalog::by_name("syringe-pump").expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let key = DeviceKey::from_seed("e11-device");
    let verifier =
        Verifier::new(program.clone(), workload.name, key.verification_key()).expect("verifier");
    let inputs = [vec![100], vec![2000]];
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone())
        .expect("replay");
    let service = VerifierService::new(db, key.verification_key(), ServiceConfig::default());
    let mut prover = Prover::new(program, workload.name, key);
    let mut verdict_allocations = |input: &Vec<u32>| {
        let id = service.open_session(input.clone()).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("live session");
        let evidence = ProverSession::new(&mut prover)
            .handle_bytes(&challenge.encode().expect("challenge encodes"))
            .expect("prover answers");
        let before = allocation_count();
        let reply = service.handle_bytes(&evidence).expect("verdict encodes");
        let delta = allocation_count() - before;
        let Message::Verdict(verdict) = Envelope::decode(&reply).expect("decodes").message else {
            panic!("expected a verdict")
        };
        assert!(verdict.accepted, "{verdict:?}");
        delta
    };
    let [small, large] =
        inputs.map(|input| [verdict_allocations(&input), verdict_allocations(&input)]);
    assert_eq!(small[0], small[1], "100 units: first verdict vs a later one");
    assert_eq!(large[0], large[1], "2 000 units: first verdict vs a later one");
    assert_eq!(small, large, "100 vs 2 000 units");
}

/// One prover run — `ProverSession::handle_bytes`, from challenge bytes to
/// evidence bytes — allocates a fixed number of times, whatever the length
/// of the run it attests: 41 for syringe-pump at 100, 1 000 and 2 000 units,
/// whose runs exit ten and twenty times as many loops as the shortest.
#[test]
fn a_prover_run_allocates_a_fixed_count_whatever_its_length() {
    let workload = catalog::by_name("syringe-pump").expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let key = DeviceKey::from_seed("e11-device");
    let verifier =
        Verifier::new(program.clone(), workload.name, key.verification_key()).expect("verifier");
    let inputs = [vec![100], vec![1000], vec![2000]];
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), inputs.clone())
        .expect("replay");
    let service = VerifierService::new(db, key.verification_key(), ServiceConfig::default());
    let mut prover = Prover::new(program, workload.name, key);
    let counts = inputs.map(|input| {
        let id = service.open_session(input).expect("capacity");
        let challenge = service.challenge_envelope(id).expect("live session");
        let challenge = challenge.encode().expect("challenge encodes");
        let mut session = ProverSession::new(&mut prover);
        let before = allocation_count();
        let evidence = session.handle_bytes(&challenge).expect("prover answers");
        let delta = allocation_count() - before;
        let reply = service.handle_bytes(&evidence).expect("verdict encodes");
        let Message::Verdict(verdict) = Envelope::decode(&reply).expect("decodes").message else {
            panic!("expected a verdict")
        };
        assert!(verdict.accepted, "{verdict:?}");
        delta
    });
    assert_eq!(counts, [41; 3], "allocations per prover run at 100, 1 000 and 2 000 units");
}

/// A syringe-pump service over the one input `[100]`, and its prover.
fn syringe_pump_service(config: ServiceConfig) -> (VerifierService, Prover) {
    let workload = catalog::by_name("syringe-pump").expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let key = DeviceKey::from_seed("e11-device");
    let verifier =
        Verifier::new(program.clone(), workload.name, key.verification_key()).expect("verifier");
    let db = MeasurementDatabase::build(&verifier, EngineConfig::default(), [vec![100]])
        .expect("replay");
    let service = VerifierService::new(db, key.verification_key(), config);
    (service, Prover::new(program, workload.name, key))
}

/// In a sequential open→verdict loop, once the shard's table holds its first
/// node, `open_session` allocates nothing: the session is a slot holding its
/// deadline and its reference's index, and the input is freed.  An honest
/// syringe-pump verdict allocates ten times, the first one included.
#[test]
fn a_warmed_open_allocates_nothing_and_a_verdict_ten_times() {
    let (service, mut prover) = syringe_pump_service(ServiceConfig::default());
    let mut counts = Vec::new();
    for _ in 0..4 {
        let input = vec![100];
        let before = allocation_count();
        let id = service.open_session(input).expect("capacity");
        let open = allocation_count() - before;
        let challenge = service.challenge_envelope(id).expect("live session");
        let evidence = ProverSession::new(&mut prover)
            .handle_bytes(&challenge.encode().expect("challenge encodes"))
            .expect("prover answers");
        let before = allocation_count();
        let reply = service.handle_bytes(&evidence).expect("verdict encodes");
        let verdict = allocation_count() - before;
        let Message::Verdict(msg) = Envelope::decode(&reply).expect("decodes").message else {
            panic!("expected a verdict")
        };
        assert!(msg.accepted, "{msg:?}");
        counts.push((open, verdict));
    }
    assert_eq!(counts[1..], [(0, 10); 3], "(open, verdict) allocations per round: {counts:?}");
    assert_eq!(counts[0].1, 10, "the first verdict: {counts:?}");
}

/// Loading crc32 into a fresh CPU allocates six times, whatever the
/// input later poked into it: the text, data and stack segments, the data
/// segment's growth to 4 KiB, the segment list and the predecoded program.
/// Segment names are static strings, so naming them allocates nothing.
#[test]
fn a_crc32_cpu_is_built_in_six_allocations() {
    let program =
        catalog::by_name("crc32").expect("catalogue workload").program().expect("assemble");
    let before = allocation_count();
    let cpu = Cpu::new(&program).expect("load");
    let delta = allocation_count() - before;
    drop(cpu);
    assert_eq!(delta, 6, "allocations in `Cpu::new`");
}

/// 20 000 held sessions keep at most 56 bytes of heap each, counted from
/// before their inputs existed, and open with at most 0.17 allocations each:
/// a 16-byte slot in the table's nodes.  Sweeping them all allocates nothing.
#[test]
fn held_sessions_keep_a_slot_each_and_a_sweep_allocates_nothing() {
    const SESSIONS: usize = 20_000;
    let config = ServiceConfig { session_deadline_cycles: 10, ..ServiceConfig::default() };
    let (service, _) = syringe_pump_service(config);
    let held_before = heap_bytes();
    let inputs: Vec<Vec<u32>> = (0..SESSIONS).map(|_| vec![100]).collect();
    let before = allocation_count();
    for input in inputs {
        service.open_session(input).expect("capacity");
    }
    let per_open = (allocation_count() - before) as f64 / SESSIONS as f64;
    let per_session = (heap_bytes() - held_before) as f64 / SESSIONS as f64;
    assert_eq!(service.live_sessions(), SESSIONS);
    assert!(per_open <= 0.17, "{per_open:.3} allocations per open");
    assert!(per_session <= 56.0, "{per_session:.1} heap bytes held per session");

    service.advance_clock(11);
    let before = allocation_count();
    let swept = service.expire_stale();
    assert_eq!(allocation_count() - before, 0, "allocations while sweeping");
    assert_eq!(swept, SESSIONS);
    assert!(service.stats().is_conserved(service.live_sessions()));
}

/// `PackedMetadata::size_bytes` counts the fixed-width layout in one walk
/// over the packed bytes: for a 2 000-unit syringe-pump run, 2 001 loop
/// executions in three runs whose layout takes 90 049 bytes, it allocates
/// nothing.
#[test]
fn the_fixed_width_length_is_counted_without_allocating() {
    let workload = catalog::by_name("syringe-pump").expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let mut prover = Prover::new(program, workload.name, DeviceKey::from_seed("e11-device"));
    let metadata = prover.attest(&[2000], Nonce::from_counter(1)).expect("attests").report.metadata;
    assert_eq!((metadata.run_count(), metadata.loop_count()), (3, 2001));
    let before = allocation_count();
    let size = metadata.size_bytes();
    assert_eq!(allocation_count() - before, 0, "allocations in `size_bytes`");
    assert_eq!(size, 90_049);
    assert_eq!(size, metadata.to_bytes().len());
}
