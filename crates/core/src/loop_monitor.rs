//! Loop monitor (④⑤⑥⑧ in Fig. 3).
//!
//! The loop monitor tracks program loops (including nested loops) identified at run
//! time by the branch filter's link-register heuristic, encodes each executed path
//! inside a loop with the [`crate::path_encoder::PathEncoder`], counts path
//! iterations in the [`crate::loop_counter_mem::LoopCounterMemory`], re-encodes
//! indirect-branch targets via the [`crate::cam::IndirectTargetCam`], and — on loop
//! exit — has the metadata generator append the loop's record to `L`, read
//! straight from the path counters and the CAM into the run's one packed
//! buffer, where a record equal to the one before it lengthens that
//! record's run instead.
//!
//! Its contract with the engine: every step appends the `(Src, Dest)` pairs to
//! hash now and the loop records it completes to the engine's [`MonitorOutput`],
//! and bumps the engine's [`EngineStats`] counters where the events happen.
//! Nothing is cleared or re-absorbed per event, and a loop exit allocates
//! nothing but the packed buffer's occasional growth.
//!
//! A loop's steady state is two events: a decision inside the innermost body
//! and the innermost back edge.  [`LoopMonitor::on_branch`] decides both from
//! a cached copy of the stack top and touches nothing but the innermost
//! activation; every other event takes the general path.

use crate::branch_filter::BranchEvent;
use crate::branches_mem::{BranchPair, BranchesMemory};
use crate::cam::IndirectTargetCam;
use crate::config::{EngineConfig, LOOP_EXIT_LATENCY};
use crate::engine::EngineStats;
use crate::loop_counter_mem::{LoopCounterMemory, PathObservation};
use crate::metadata::{IndirectTargetRecord, LoopHeader, PackedWriter, PathRecord, Visit};
use crate::path_encoder::PathEncoder;
use lofat_rv32::trace::BranchKind;

/// One tracked loop activation.
#[derive(Debug, Clone)]
struct ActiveLoop {
    /// Loop entry node address (target of the backward branch).
    entry: u32,
    /// Loop exit node address (the block following the backward branch).
    exit: u32,
    /// Outstanding calls made from inside the loop; while non-zero the executed code
    /// belongs to a callee and must not affect loop tracking or exit detection.
    pending_calls: usize,
    /// Nesting depth (1 = outermost tracked loop).
    depth: usize,
    encoder: PathEncoder,
    counters: LoopCounterMemory,
    cam: IndirectTargetCam,
    current_path: BranchesMemory,
    /// Set if any iteration overflowed the path encoder.
    overflowed: bool,
}

impl ActiveLoop {
    fn new(entry: u32, exit: u32, depth: usize, config: &EngineConfig) -> Self {
        Self {
            entry,
            exit,
            depth,
            encoder: PathEncoder::new(config.max_path_bits),
            counters: LoopCounterMemory::new(),
            cam: IndirectTargetCam::new(config.indirect_target_bits),
            current_path: BranchesMemory::new(),
            pending_calls: 0,
            overflowed: false,
        }
    }

    /// Re-arms a recycled activation for a fresh loop entry, keeping the heap
    /// capacity its buffers grew on previous activations.
    fn reset(&mut self, entry: u32, exit: u32, depth: usize) {
        self.entry = entry;
        self.exit = exit;
        self.depth = depth;
        self.pending_calls = 0;
        self.overflowed = false;
        self.encoder.reset();
        self.counters.clear();
        self.cam.clear();
        debug_assert!(self.current_path.is_empty(), "recycled activation still holds pairs");
    }

    fn contains(&self, pc: u32) -> bool {
        pc >= self.entry && pc < self.exit
    }

    /// Finishes this activation: appends its loop record to `out.metadata`
    /// (which folds it into the run before it when the two are equal),
    /// hands off any leftover partial-path pairs and counts the exit.  The
    /// activation is left drained so the monitor can recycle it.
    ///
    /// The leftover pairs of a partial (uncounted) path must still be covered by
    /// the authenticator, so they go to `out.hash_now` for direct hashing.
    fn finish_into(&mut self, stats: &mut EngineStats, out: &mut MonitorOutput) {
        let metadata = &mut out.metadata;
        metadata.loop_header(&LoopHeader {
            entry: self.entry,
            exit: self.exit,
            nesting_depth: self.depth,
            encoder_overflowed: self.overflowed,
        });
        let paths = self.counters.entries_slice();
        metadata.paths(paths.len());
        for &(path_id, iterations) in paths {
            metadata.path(PathRecord { path_id, iterations });
        }
        let targets = self.cam.table();
        metadata.targets(targets.len());
        targets.for_each(|(target, code)| metadata.target(IndirectTargetRecord { target, code }));
        stats.cam_overflows += self.cam.overflows();
        stats.loops_exited += 1;
        stats.internal_latency_cycles += LOOP_EXIT_LATENCY;
        self.current_path.drain_into(&mut out.hash_now);
    }

    /// Pushes path-encoder bits / CAM codes and buffers the pair for the current path.
    #[inline]
    fn record_decision(&mut self, event: &BranchEvent, indirect_bits: u32) {
        match event.kind {
            BranchKind::Conditional => return self.record_bit(event.taken, event.pair),
            BranchKind::DirectJump => return self.record_bit(true, event.pair),
            BranchKind::IndirectJump | BranchKind::Return => {
                let code = self.cam.encode(event.target);
                self.encoder.push_code(code, indirect_bits);
            }
            BranchKind::DirectCall | BranchKind::IndirectCall => {
                // Calls are handled by the caller (pending_calls); nothing to encode.
            }
        }
        self.overflowed |= self.encoder.overflowed();
        self.current_path.push(event.pair);
    }

    /// The direct-transfer decision: one path bit, then the pair.
    #[inline(always)]
    fn record_bit(&mut self, bit: bool, pair: BranchPair) {
        self.encoder.push_bit(bit);
        self.overflowed |= self.encoder.overflowed();
        self.current_path.push(pair);
    }

    /// Completes one iteration of this loop once its closing back edge is
    /// recorded: looks up the path counter and either compresses the buffered
    /// pairs or hands them off for hashing.
    #[inline]
    fn complete_iteration(
        &mut self,
        config: &EngineConfig,
        stats: &mut EngineStats,
        out: &mut MonitorOutput,
    ) {
        stats.iterations_counted += 1;
        match self.counters.record(self.encoder.path_id()) {
            PathObservation::NewPath { .. } => {
                stats.new_paths += 1;
                self.current_path.drain_into(&mut out.hash_now);
            }
            PathObservation::Repeated { .. } => {
                if config.loop_compression {
                    stats.pairs_compressed += self.current_path.discard() as u64;
                } else {
                    self.current_path.drain_into(&mut out.hash_now);
                }
            }
        }
        self.encoder.reset();
    }
}

/// What the loop monitor hands the engine.
///
/// The engine owns one `MonitorOutput` for the whole run and threads it
/// through [`LoopMonitor::check_exits`], [`LoopMonitor::on_branch`] and
/// [`LoopMonitor::finalize`]; the monitor only ever appends to it.  The engine
/// drains `hash_now` into the hash path after every step that filled it
/// (keeping its capacity, so the steady-state trace path performs no
/// per-instruction heap allocation), and finishes `metadata` into the loop
/// metadata `L` when the run ends.
#[derive(Debug, Clone, Default)]
pub struct MonitorOutput {
    /// `(Src, Dest)` pairs to forward to the hash engine now.
    pub hash_now: Vec<BranchPair>,
    /// Loop records completed so far, in exit order, packed into runs.
    pub(crate) metadata: PackedWriter,
}

impl MonitorOutput {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Inline copy of the innermost loop's state, for the per-instruction exit
/// check and the steady-state branch path.
///
/// Reading these plain fields avoids chasing the stack's heap pointer on those
/// paths.  The copy changes only when the stack or the innermost loop's
/// pending-call count does, so only the general paths refresh it.
#[derive(Debug, Clone, Copy)]
struct TopProbe {
    /// Start of the window in which execution stays inside the innermost loop:
    /// its entry, or 0 when no loop is tracked or the innermost one is
    /// suspended inside a callee.
    entry: u32,
    /// Width of that window: `exit - entry`, or `u32::MAX` in the two neutral
    /// cases, so every attested PC (always below the region end, itself at
    /// most `u32::MAX`) lies inside and no exit check fires.
    span: u32,
    /// `true` while a loop is tracked and not suspended inside a callee: the
    /// precondition of the steady-state branch path.
    steady: bool,
    /// `true` if an outer tracked loop's entry lies above the innermost loop's.
    /// A taken forward branch could then be a back edge to that outer loop, so
    /// the steady-state path leaves forward branches to the general path.
    outer_entry_above: bool,
}

impl TopProbe {
    /// The probe of an idle monitor (or of a loop suspended inside a callee).
    const NEUTRAL: Self =
        Self { entry: 0, span: u32::MAX, steady: false, outer_entry_above: false };

    /// Returns `true` if `pc` lies inside the probe's window.
    #[inline]
    fn covers(&self, pc: u32) -> bool {
        pc.wrapping_sub(self.entry) < self.span
    }
}

/// The loop monitor.
#[derive(Debug, Clone)]
pub struct LoopMonitor {
    config: EngineConfig,
    stack: Vec<ActiveLoop>,
    /// Cached innermost-loop state (see [`TopProbe`]).
    probe: TopProbe,
    /// Recycled activations: the buffers of exited loops keep their capacity, so
    /// re-entering a loop in steady state allocates nothing.  Bounded by the
    /// configured nesting depth.
    spares: Vec<ActiveLoop>,
}

impl LoopMonitor {
    /// Creates an idle loop monitor.
    pub fn new(config: EngineConfig) -> Self {
        Self { config, stack: Vec::new(), probe: TopProbe::NEUTRAL, spares: Vec::new() }
    }

    /// Refreshes the [`TopProbe`] cache from the stack top.  Every general
    /// path ends with this call.
    fn refresh_probe(&mut self) {
        self.probe = match self.stack.split_last() {
            Some((top, outer)) if top.pending_calls == 0 => TopProbe {
                entry: top.entry,
                span: top.exit.saturating_sub(top.entry),
                steady: true,
                outer_entry_above: outer.iter().any(|l| l.entry > top.entry),
            },
            _ => TopProbe::NEUTRAL,
        };
    }

    /// Returns `true` while at least one loop is being tracked.
    pub fn is_tracking(&self) -> bool {
        !self.stack.is_empty()
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Returns `true` if [`LoopMonitor::check_exits`] would close at least one
    /// loop for a retirement at `pc`.
    ///
    /// This is the engine's per-instruction fast path: one window test on the
    /// cached stack top, so the (overwhelmingly common) "nothing exits" case
    /// costs a subtraction and a compare.
    #[inline]
    pub fn needs_exit_check(&self, pc: u32) -> bool {
        debug_assert_eq!(
            self.probe.covers(pc),
            self.stack.last().is_none_or(|top| top.pending_calls > 0 || top.contains(pc)),
            "stale exit probe"
        );
        !self.probe.covers(pc)
    }

    /// Loop-exit detection, run for every retired instruction *before* the branch is
    /// processed: execution proceeding to or past the exit node of the innermost
    /// tracked loop (and not inside a callee) terminates that loop (§5.1).
    #[inline(never)]
    pub fn check_exits(&mut self, pc: u32, stats: &mut EngineStats, out: &mut MonitorOutput) {
        while let Some(top) = self.stack.last() {
            if top.pending_calls > 0 || top.contains(pc) {
                break;
            }
            let mut finished = self.stack.pop().expect("non-empty");
            finished.finish_into(stats, out);
            self.spares.push(finished);
        }
        self.refresh_probe();
    }

    /// Processes one filtered control-flow event.
    ///
    /// The steady state is decided here from the probe: a direct branch or
    /// jump inside the innermost body is either the innermost back edge (an
    /// iteration completes) or, if not taken or taken forward with no outer
    /// loop entry it could reach, an ordinary decision.  Anything else — calls,
    /// returns, indirect transfers, callee code, loop entries and exits — goes
    /// to the general path.
    #[inline]
    pub fn on_branch(
        &mut self,
        event: &BranchEvent,
        stats: &mut EngineStats,
        out: &mut MonitorOutput,
    ) {
        let probe = self.probe;
        if probe.steady
            && probe.covers(event.pair.src)
            && matches!(event.kind, BranchKind::Conditional | BranchKind::DirectJump)
        {
            let top = self.stack.last_mut().expect("steady probe implies a tracked loop");
            if event.taken && event.target == top.entry {
                top.record_bit(true, event.pair);
                top.complete_iteration(&self.config, stats, out);
                return;
            }
            if !event.taken || (event.target > event.pair.src && !probe.outer_entry_above) {
                let bit = event.taken || event.kind == BranchKind::DirectJump;
                top.record_bit(bit, event.pair);
                return;
            }
        }
        self.on_branch_general(event, stats, out);
    }

    /// Finalizes all still-active loops (end of the attested execution).
    pub fn finalize(&mut self, stats: &mut EngineStats, out: &mut MonitorOutput) {
        while let Some(mut active) = self.stack.pop() {
            active.finish_into(stats, out);
            self.spares.push(active);
        }
        self.refresh_probe();
    }

    /// Every branch event outside the steady state.
    #[inline(never)]
    fn on_branch_general(
        &mut self,
        event: &BranchEvent,
        stats: &mut EngineStats,
        out: &mut MonitorOutput,
    ) {
        match self.stack.last_mut() {
            // Inside a callee launched from the tracked loop: maintain the call
            // depth and hash the pair directly — callee control flow is not
            // path-compressed.
            Some(top) if top.pending_calls > 0 => {
                if event.kind.is_linking() {
                    top.pending_calls += 1;
                } else if event.kind == BranchKind::Return {
                    top.pending_calls -= 1;
                }
                out.hash_now.push(event.pair);
            }
            Some(top) if top.contains(event.pair.src) => {
                self.on_branch_inside_loop(event, stats, out)
            }
            _ => self.on_branch_outside_loop(event, stats, out),
        }
        self.refresh_probe();
    }

    fn on_branch_inside_loop(
        &mut self,
        event: &BranchEvent,
        stats: &mut EngineStats,
        out: &mut MonitorOutput,
    ) {
        let indirect_bits = self.config.indirect_target_bits;
        // Calls made from inside the loop: track the call depth, hash directly.
        if event.kind.is_linking() {
            let top = self.stack.last_mut().expect("inside loop");
            top.pending_calls += 1;
            if event.kind == BranchKind::IndirectCall {
                let code = top.cam.encode(event.target);
                top.encoder.push_code(code, indirect_bits);
            }
            out.hash_now.push(event.pair);
            return;
        }

        // Back edge to the entry of a tracked loop?  The innermost one is the
        // steady state; an outer one first abandons the inner loops the
        // transfer skips over (e.g. `continue` of an outer loop from inside an
        // inner one).
        let backward = event.taken && event.kind != BranchKind::Return;
        if backward && self.stack.iter().any(|l| l.entry == event.target) {
            while self.stack.last().is_some_and(|l| l.entry != event.target) {
                let mut finished = self.stack.pop().expect("non-empty");
                finished.finish_into(stats, out);
                self.spares.push(finished);
            }
            let top = self.stack.last_mut().expect("target loop present");
            top.record_decision(event, indirect_bits);
            top.complete_iteration(&self.config, stats, out);
            return;
        }

        // Ordinary decision inside the loop body; a backward taken non-linking
        // branch to a *new* entry also opens a nested loop.
        self.stack.last_mut().expect("inside loop").record_decision(event, indirect_bits);
        if event.loop_heuristic() {
            self.enter_loop(event, stats);
        }
    }

    fn on_branch_outside_loop(
        &mut self,
        event: &BranchEvent,
        stats: &mut EngineStats,
        out: &mut MonitorOutput,
    ) {
        // Every non-loop branch is hashed directly (③ non_loops ctrl in Fig. 3).
        out.hash_now.push(event.pair);
        if event.loop_heuristic() {
            self.enter_loop(event, stats);
        }
    }

    fn enter_loop(&mut self, event: &BranchEvent, stats: &mut EngineStats) {
        if self.stack.len() >= self.config.max_nesting_depth {
            stats.untracked_loops += 1;
            return;
        }
        let depth = self.stack.len() + 1;
        let activation = match self.spares.pop() {
            Some(mut husk) => {
                husk.reset(event.target, event.pair.src + 4, depth);
                husk
            }
            None => ActiveLoop::new(event.target, event.pair.src + 4, depth, &self.config),
        };
        self.stack.push(activation);
        stats.loops_entered += 1;
        stats.max_nesting_observed = stats.max_nesting_observed.max(self.stack.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::LoopRecord;
    use lofat_rv32::trace::BranchKind;

    fn event(src: u32, target: u32, kind: BranchKind, taken: bool) -> BranchEvent {
        let dest = if taken { target } else { src + 4 };
        BranchEvent { pair: BranchPair::new(src, dest), kind, taken, target }
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    /// What one monitor step handed off, and the counters it bumped.
    struct Step {
        out: MonitorOutput,
        stats: EngineStats,
    }

    /// Test shims running one step against fresh outputs and counters, so each
    /// step's effect can be read on its own.
    fn on_branch(monitor: &mut LoopMonitor, event: &BranchEvent) -> Step {
        let mut step = Step { out: MonitorOutput::new(), stats: EngineStats::default() };
        monitor.on_branch(event, &mut step.stats, &mut step.out);
        step
    }

    fn check_exits(monitor: &mut LoopMonitor, pc: u32) -> Step {
        let mut step = Step { out: MonitorOutput::new(), stats: EngineStats::default() };
        let predicted = monitor.needs_exit_check(pc);
        monitor.check_exits(pc, &mut step.stats, &mut step.out);
        assert_eq!(
            predicted,
            step.stats.loops_exited > 0,
            "needs_exit_check must predict whether check_exits closes a loop"
        );
        step
    }

    fn finalize(monitor: &mut LoopMonitor) -> Step {
        let mut step = Step { out: MonitorOutput::new(), stats: EngineStats::default() };
        monitor.finalize(&mut step.stats, &mut step.out);
        step
    }

    /// The loop records a step completed, decoded.
    fn completed(step: &Step) -> Vec<LoopRecord> {
        step.out.metadata.clone().finish().decode().loops
    }

    #[test]
    fn loop_entry_and_iteration_counting() {
        let mut monitor = LoopMonitor::new(config());
        // Backward branch at 0x1010 to 0x1008 seen 4 times, then fall out.
        let back = event(0x1010, 0x1008, BranchKind::Conditional, true);

        // First occurrence: non-loop branch, hashed directly, loop entered.
        let step = on_branch(&mut monitor, &back);
        assert_eq!(step.out.hash_now.len(), 1);
        assert_eq!(step.stats.loops_entered, 1);
        assert!(monitor.is_tracking());

        // Three more iterations: first completes a new path, the rest are compressed.
        let mut new_paths = 0;
        let mut compressed = 0;
        for _ in 0..3 {
            let step = check_exits(&mut monitor, 0x1008);
            assert_eq!(step.stats.loops_exited, 0);
            let step = on_branch(&mut monitor, &back);
            new_paths += step.stats.new_paths;
            compressed += step.stats.pairs_compressed;
        }
        assert_eq!(new_paths, 1);
        assert!(compressed > 0);

        // Execution proceeds past the exit node → loop exits with one record.
        let step = check_exits(&mut monitor, 0x1014);
        assert_eq!(step.stats.loops_exited, 1);
        assert_eq!(step.stats.internal_latency_cycles, LOOP_EXIT_LATENCY);
        let completed = completed(&step);
        assert_eq!(completed.len(), 1);
        let record = &completed[0];
        assert_eq!(record.entry, 0x1008);
        assert_eq!(record.exit, 0x1014);
        assert_eq!(record.total_iterations(), 3);
        assert_eq!(record.distinct_paths(), 1);
        assert!(!monitor.is_tracking());
    }

    #[test]
    fn compression_can_be_disabled() {
        let mut cfg = config();
        cfg.loop_compression = false;
        let mut monitor = LoopMonitor::new(cfg);
        let back = event(0x1010, 0x1008, BranchKind::Conditional, true);
        on_branch(&mut monitor, &back);
        let mut hashed = 0;
        for _ in 0..5 {
            check_exits(&mut monitor, 0x1008);
            let step = on_branch(&mut monitor, &back);
            hashed += step.out.hash_now.len();
            assert_eq!(step.stats.pairs_compressed, 0);
        }
        assert_eq!(hashed, 5, "without compression every iteration's pair is hashed");
    }

    #[test]
    fn nested_loops_tracked_up_to_capacity() {
        let mut cfg = config();
        cfg.max_nesting_depth = 2;
        let mut monitor = LoopMonitor::new(cfg);
        // Outer loop back edge at 0x1100 → 0x1000, inner at 0x1080 → 0x1040, and a
        // third level at 0x1060 → 0x1050 that exceeds the capacity.
        on_branch(&mut monitor, &event(0x1100, 0x1000, BranchKind::Conditional, true));
        check_exits(&mut monitor, 0x1000);
        let step = on_branch(&mut monitor, &event(0x1080, 0x1040, BranchKind::Conditional, true));
        assert_eq!(step.stats.loops_entered, 1);
        assert_eq!(step.stats.max_nesting_observed, 2);
        assert_eq!(monitor.depth(), 2);
        check_exits(&mut monitor, 0x1040);
        let step = on_branch(&mut monitor, &event(0x1060, 0x1050, BranchKind::Conditional, true));
        assert_eq!(step.stats.loops_entered, 0);
        assert_eq!(step.stats.untracked_loops, 1);
        assert_eq!(monitor.depth(), 2);
    }

    #[test]
    fn calls_inside_loop_suppress_exit_detection() {
        let mut monitor = LoopMonitor::new(config());
        // Enter a loop spanning [0x1000, 0x1020).
        on_branch(&mut monitor, &event(0x101c, 0x1000, BranchKind::Conditional, true));
        // Call a function at 0x2000 from inside the loop.
        let call = event(0x1008, 0x2000, BranchKind::DirectCall, true);
        let step = on_branch(&mut monitor, &call);
        assert_eq!(step.out.hash_now.len(), 1, "call pair is hashed directly");
        // Executing callee code far outside the loop must not exit the loop.
        let step = check_exits(&mut monitor, 0x2000);
        assert_eq!(step.stats.loops_exited, 0);
        // The callee's own branches are hashed directly.
        let callee_branch = event(0x2008, 0x200c, BranchKind::Conditional, false);
        let step = on_branch(&mut monitor, &callee_branch);
        assert_eq!(step.out.hash_now.len(), 1);
        // Return back into the loop re-enables exit detection.
        let ret = event(0x2010, 0x100c, BranchKind::Return, true);
        on_branch(&mut monitor, &ret);
        let step = check_exits(&mut monitor, 0x1030);
        assert_eq!(step.stats.loops_exited, 1);
    }

    #[test]
    fn indirect_branches_in_loops_use_cam_codes() {
        let mut monitor = LoopMonitor::new(config());
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        // An indirect jump inside the loop body.
        let indirect = event(0x1010, 0x1020, BranchKind::IndirectJump, true);
        on_branch(&mut monitor, &indirect);
        // Complete the iteration, then exit and inspect the record.
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        let step = check_exits(&mut monitor, 0x2000);
        let record = &completed(&step)[0];
        assert_eq!(record.indirect_targets.len(), 1);
        assert_eq!(record.indirect_targets[0].target, 0x1020);
        assert_eq!(record.indirect_targets[0].code, 1);
        assert_eq!(record.total_iterations(), 1);
    }

    #[test]
    fn finalize_flushes_active_loops() {
        let mut monitor = LoopMonitor::new(config());
        on_branch(&mut monitor, &event(0x1010, 0x1008, BranchKind::Conditional, true));
        let step = finalize(&mut monitor);
        assert_eq!(step.stats.loops_exited, 1);
        assert_eq!(completed(&step).len(), 1);
        assert!(!monitor.is_tracking());
    }

    #[test]
    fn continue_of_outer_loop_closes_inner_loop() {
        let mut monitor = LoopMonitor::new(config());
        // Outer loop [0x1000, 0x1104), inner loop [0x1040, 0x1084).
        on_branch(&mut monitor, &event(0x1100, 0x1000, BranchKind::Conditional, true));
        check_exits(&mut monitor, 0x1000);
        on_branch(&mut monitor, &event(0x1080, 0x1040, BranchKind::Conditional, true));
        assert_eq!(monitor.depth(), 2);
        // From inside the inner loop, jump straight back to the outer entry.
        let step = on_branch(&mut monitor, &event(0x1060, 0x1000, BranchKind::DirectJump, true));
        assert_eq!(step.stats.loops_exited, 1, "inner loop is closed");
        assert_eq!(step.stats.iterations_counted, 1, "outer loop iteration is counted");
        assert_eq!(monitor.depth(), 1);
    }

    /// A taken *forward* branch inside the innermost loop can still be a back
    /// edge, to an outer loop whose entry lies above the inner one's: the
    /// steady-state path must leave it to the general path.
    #[test]
    fn forward_branch_to_an_outer_entry_closes_the_inner_loop() {
        let mut monitor = LoopMonitor::new(config());
        // Outer loop [0x1100, 0x1184), entered by its back edge at 0x1180.
        on_branch(&mut monitor, &event(0x1180, 0x1100, BranchKind::Conditional, true));
        check_exits(&mut monitor, 0x1100);
        // From inside it, a back edge to 0x1000 opens an inner loop [0x1000, 0x1124)
        // whose entry lies below the outer one's.
        let step = on_branch(&mut monitor, &event(0x1120, 0x1000, BranchKind::Conditional, true));
        assert_eq!(step.stats.loops_entered, 1);
        assert_eq!(monitor.depth(), 2);
        check_exits(&mut monitor, 0x1000);
        // A forward branch in the inner body to the outer entry is the outer back edge.
        let step = on_branch(&mut monitor, &event(0x1010, 0x1100, BranchKind::Conditional, true));
        assert_eq!(step.stats.loops_exited, 1, "inner loop is closed");
        assert_eq!(step.stats.iterations_counted, 1, "outer loop iteration is counted");
        assert_eq!(monitor.depth(), 1);
    }

    /// A recycled activation must not inherit the previous loop's CAM overflow
    /// count (regression test for the spares-pool counter reset).
    #[test]
    fn recycled_activation_does_not_inherit_cam_overflows() {
        let mut cfg = config();
        cfg.indirect_target_bits = 1; // CAM capacity 1: second target overflows
        let mut monitor = LoopMonitor::new(cfg);

        // Loop A: two distinct indirect jumps inside → one CAM overflow.
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        on_branch(&mut monitor, &event(0x1010, 0x1020, BranchKind::IndirectJump, true));
        on_branch(&mut monitor, &event(0x1014, 0x1024, BranchKind::IndirectJump, true));
        let step = check_exits(&mut monitor, 0x2000);
        assert_eq!(step.stats.loops_exited, 1);
        assert_eq!(step.stats.cam_overflows, 1, "loop A overflowed its 1-entry CAM");

        // Loop B recycles A's activation and runs no indirect branches at all.
        on_branch(&mut monitor, &event(0x3040, 0x3000, BranchKind::Conditional, true));
        on_branch(&mut monitor, &event(0x3040, 0x3000, BranchKind::Conditional, true));
        let step = check_exits(&mut monitor, 0x4000);
        assert_eq!(step.stats.loops_exited, 1);
        assert_eq!(step.stats.cam_overflows, 0, "recycled activation re-reported stale overflows");
    }
}
