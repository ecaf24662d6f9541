//! Hash engine controller (③⑦⑪ in Fig. 3).
//!
//! The controller sits between the branch filter / loop monitor and the streaming
//! SHA-3 engine.  It receives `(Src, Dest)` pairs, feeds them to the engine one
//! 64-bit word per cycle, and rides out the engine's 3-cycle busy windows using the
//! engine's small input cache buffer.  Because the controller runs in parallel with
//! the processor it never stalls the attested software; what it does track is its own
//! occupancy so the evaluation can show that no trace data is ever dropped (§5.3).
//!
//! The model is event-driven.  The engine owes the hash path one step
//! ([`HashController::pump`]) per retired instruction, but it only settles the
//! debt when something happens: [`HashController::advance_to`] runs before
//! each batch of pairs and before finalization.  Owed steps are taken one by
//! one while pairs are queued or a permutation runs; once the path is idle the
//! rest only advance the cycle counters, so they are added in one go.  The
//! digest and every counter come out exactly as if each step had been taken
//! as its instruction retired.

use crate::branches_mem::BranchPair;
use crate::error::LofatError;
use lofat_crypto::{Digest, HashEngine, HashEngineConfig};
use std::collections::VecDeque;

/// Statistics of the hash path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HashControllerStats {
    /// Pairs submitted for hashing.
    pub pairs_submitted: u64,
    /// Words absorbed by the engine so far.
    pub words_absorbed: u64,
    /// Cycles the controller has advanced the engine.
    pub cycles: u64,
    /// Maximum number of pairs waiting in the controller queue.
    pub max_queue_depth: usize,
}

/// The hash engine controller.
#[derive(Debug, Clone)]
pub struct HashController {
    engine: HashEngine,
    /// Pairs accepted but not yet offered to the engine's input buffer.
    queue: VecDeque<BranchPair>,
    /// Per-instruction steps settled so far (see [`HashController::advance_to`]).
    steps: u64,
    stats: HashControllerStats,
}

impl HashController {
    /// Creates a controller driving a freshly initialised hash engine.
    pub fn new(config: HashEngineConfig) -> Self {
        Self {
            engine: HashEngine::new(config),
            queue: VecDeque::new(),
            steps: 0,
            stats: HashControllerStats::default(),
        }
    }

    /// Settles the per-instruction steps owed up to `step` (the number of
    /// instructions retired so far): one [`HashController::pump`] each while
    /// the path has work, then the idle remainder in one go.  Exactly
    /// equivalent to pumping once per step as each instruction retired.
    #[inline]
    pub fn advance_to(&mut self, step: u64) {
        debug_assert!(step >= self.steps, "the instruction clock runs forward");
        let mut owed = step - self.steps;
        self.steps = step;
        while owed > 0 && !self.is_idle() {
            self.pump();
            owed -= 1;
        }
        if owed > 0 {
            self.engine.tick_idle(owed);
            self.stats.cycles += owed;
        }
    }

    /// Returns `true` when nothing is queued, buffered or permuting: a step
    /// would only advance the cycle counters.
    #[inline]
    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.engine.is_idle()
    }

    /// Submits one `(Src, Dest)` pair for inclusion in the authenticator.
    pub fn submit(&mut self, pair: BranchPair) {
        self.queue.push_back(pair);
        self.stats.pairs_submitted += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        // Opportunistically push queued words into the engine.
        self.pump();
    }

    /// Submits a batch of pairs (a newly observed loop path).
    ///
    /// The whole batch is enqueued first, `max_queue_depth` is updated once for
    /// the resulting occupancy and the engine is pumped once — words are absorbed
    /// in runs instead of paying one offer/pump round trip per word.  An empty
    /// batch is a no-op (no pump), exactly like the per-pair loop it replaces.
    ///
    /// Invariants of batching: the digest, `pairs_submitted`, the engine's
    /// `words_absorbed`, `permutations`, total `busy_cycles` and `words_dropped`
    /// (always 0 — back-pressure) are identical to per-pair submission.  What
    /// batching deliberately changes is the *occupancy* accounting:
    /// `max_queue_depth` now reflects the batch high-water mark (the pre-batch
    /// code pumped between pairs, hiding it) and cycle counters advance once per
    /// pump rather than once per pair.
    pub fn submit_all(&mut self, pairs: impl IntoIterator<Item = BranchPair>) {
        let before = self.queue.len();
        self.queue.extend(pairs);
        self.finish_batch(before);
    }

    /// Hot-path variant of [`HashController::submit_all`]: drains `pairs` into the
    /// controller queue without consuming the caller's allocation, so the engine
    /// reuses one hand-off buffer for the whole run.  Callers driving the
    /// per-instruction clock settle it first ([`HashController::advance_to`]).
    pub fn submit_batch(&mut self, pairs: &mut Vec<BranchPair>) {
        if pairs.is_empty() {
            return;
        }
        let before = self.queue.len();
        self.queue.extend(pairs.drain(..));
        self.finish_batch(before);
    }

    /// Shared tail of the batch submission paths: accounts for everything
    /// enqueued past `before` and pumps once (no-op for an empty batch).
    fn finish_batch(&mut self, before: usize) {
        let pushed = self.queue.len() - before;
        if pushed == 0 {
            return;
        }
        self.stats.pairs_submitted += pushed as u64;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.pump();
    }

    /// Advances the engine by one cycle and feeds it from the queue.
    #[inline]
    pub fn pump(&mut self) {
        // Move queued pairs into the engine's input buffer while there is room; the
        // controller applies back-pressure instead of offering into a full buffer, so
        // the engine never observes a dropped word.
        while self.engine.buffered() < self.engine.config().input_buffer_words {
            let Some(pair) = self.queue.pop_front() else { break };
            self.engine.offer(pair.to_word()).expect("buffer has room");
            self.stats.words_absorbed += 1;
        }
        self.engine.step();
        self.stats.cycles += 1;
    }

    /// Number of pairs waiting in the controller queue (excluding the engine buffer).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.engine.buffered()
    }

    /// Statistics gathered so far, up to the last settled step.
    pub fn stats(&self) -> &HashControllerStats {
        &self.stats
    }

    /// Statistics of the underlying streaming engine, up to the last settled
    /// step.
    pub fn engine_stats(&self) -> lofat_crypto::HashEngineStats {
        *self.engine.stats()
    }

    /// Drains all pending input and finalizes the authenticator `A`.  Callers
    /// driving the per-instruction clock settle it first
    /// ([`HashController::advance_to`]), or the cycle counters miss the owed
    /// steps; the digest does not depend on them.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine was already finalized.
    pub fn finalize(&mut self) -> Result<Digest, LofatError> {
        while !self.queue.is_empty() {
            self.pump();
        }
        Ok(self.engine.finalize()?)
    }

    /// Finalizes many independent controllers together, returning their
    /// authenticators in controller order.  Each controller's queue is pumped
    /// dry exactly as by [`HashController::finalize`] (per-controller cycle
    /// accounting is unchanged), then the underlying engines' digests are
    /// drained through the multi-lane batch path
    /// ([`HashEngine::finalize_many`]) in groups of four with a scalar tail.
    /// Digests are bit-identical to per-controller `finalize` calls.
    ///
    /// # Errors
    ///
    /// Returns an error if any controller was already finalized (no engine is
    /// finalized in that case).
    pub fn finalize_all<'a>(
        controllers: impl IntoIterator<Item = &'a mut HashController>,
    ) -> Result<Vec<Digest>, LofatError> {
        let controllers: Vec<&'a mut HashController> = controllers.into_iter().collect();
        let mut engines = Vec::with_capacity(controllers.len());
        for controller in controllers {
            while !controller.queue.is_empty() {
                controller.pump();
            }
            engines.push(&mut controller.engine);
        }
        Ok(HashEngine::finalize_many(engines)?)
    }
}

impl Default for HashController {
    fn default() -> Self {
        Self::new(HashEngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_crypto::Sha3_512;

    #[test]
    fn digest_matches_software_hash_of_same_words() {
        let mut ctrl = HashController::default();
        let pairs: Vec<BranchPair> =
            (0..50u32).map(|i| BranchPair::new(0x1000 + 4 * i, 0x2000 + 4 * i)).collect();
        ctrl.submit_all(pairs.clone());
        let digest = ctrl.finalize().unwrap();

        let mut reference = Sha3_512::new();
        for pair in &pairs {
            reference.update(pair.to_word().to_le_bytes());
        }
        assert_eq!(digest, reference.finalize());
    }

    #[test]
    fn nothing_is_dropped_even_under_bursts() {
        let mut ctrl = HashController::default();
        // Submit bursts far faster than the engine's sustainable rate; the controller
        // queue absorbs the excess (the hardware sizes the branches memory for this).
        for burst in 0..100u32 {
            for i in 0..20u32 {
                ctrl.submit(BranchPair::new(burst * 100 + i, i));
            }
        }
        let submitted = ctrl.stats().pairs_submitted;
        ctrl.finalize().unwrap();
        assert_eq!(submitted, 2000);
        assert_eq!(ctrl.engine_stats().words_absorbed, 2000);
        assert_eq!(ctrl.engine_stats().words_dropped, 0);
    }

    #[test]
    fn empty_stream_matches_empty_hash() {
        let mut ctrl = HashController::default();
        assert_eq!(ctrl.finalize().unwrap(), Sha3_512::digest(b""));
    }

    #[test]
    fn finalize_twice_fails() {
        let mut ctrl = HashController::default();
        ctrl.finalize().unwrap();
        assert!(ctrl.finalize().is_err());
    }

    #[test]
    fn finalize_all_matches_individual_finalizes() {
        // Batch sizes straddling the 4-lane boundary; each controller carries
        // a different stream (fed via `submit_all`, some still queued).
        for batch in 0usize..=9 {
            let mut batched: Vec<HashController> = (0..batch)
                .map(|c| {
                    let mut ctrl = HashController::default();
                    let pairs: Vec<BranchPair> = (0..30 * c as u32 + 5)
                        .map(|i| BranchPair::new(0x1000 + 4 * i, 0x2000 + 8 * c as u32 + i))
                        .collect();
                    ctrl.submit_all(pairs);
                    ctrl
                })
                .collect();
            let mut reference = batched.clone();
            let digests = HashController::finalize_all(batched.iter_mut()).unwrap();
            assert_eq!(digests.len(), batch);
            for (c, (digest, ctrl)) in digests.iter().zip(&mut reference).enumerate() {
                assert_eq!(digest, &ctrl.finalize().unwrap(), "batch {batch}, controller {c}");
            }
            for ctrl in &mut batched {
                assert!(ctrl.finalize().is_err(), "batch finalize marked the stream done");
            }
        }
    }

    #[test]
    fn finalize_all_rejects_already_finalized_controllers() {
        let mut done = HashController::default();
        done.finalize().unwrap();
        let mut fresh = HashController::default();
        fresh.submit(BranchPair::new(1, 2));
        let err = HashController::finalize_all([&mut fresh, &mut done]).unwrap_err();
        assert!(matches!(err, LofatError::Hash(_)));
        assert!(fresh.finalize().is_ok(), "the fresh controller is untouched");
    }

    /// Settling owed steps at events only must match a pump per step, for
    /// bursts that keep the engine busy across many steps and for long idle
    /// gaps, with a roomy and a 1-word input buffer.
    #[test]
    fn advance_to_matches_a_pump_per_step() {
        for input_buffer_words in [4, 1] {
            let config = HashEngineConfig { input_buffer_words, ..HashEngineConfig::default() };
            let mut stepped = HashController::new(config);
            let mut settled = HashController::new(config);
            let mut step = 0u64;
            for burst in 0..200u32 {
                let gap = u64::from(burst * 7 % 23);
                for _ in 0..gap {
                    stepped.pump();
                }
                step += gap;
                let pairs: Vec<BranchPair> =
                    (0..burst % 13).map(|i| BranchPair::new(burst, i)).collect();
                stepped.submit_batch(&mut pairs.clone());
                settled.advance_to(step);
                settled.submit_batch(&mut pairs.clone());
                // The instruction that handed off the batch still owes its step.
                stepped.pump();
                step += 1;
            }
            settled.advance_to(step);
            assert_eq!(settled.stats(), stepped.stats());
            assert_eq!(settled.engine_stats(), stepped.engine_stats());
            assert_eq!(settled.finalize().unwrap(), stepped.finalize().unwrap());
            assert_eq!(settled.engine_stats(), stepped.engine_stats());
        }
    }

    #[test]
    fn pending_reflects_queue_and_engine_buffer() {
        let mut ctrl = HashController::default();
        for i in 0..10u32 {
            ctrl.submit(BranchPair::new(i, i));
        }
        assert!(ctrl.pending() > 0);
        ctrl.finalize().unwrap();
        assert_eq!(ctrl.pending(), 0);
    }
}
