//! Cycle-level model of the streaming SHA-3-512 hardware engine (§5.3 of the paper).
//!
//! The LO-FAT prototype uses an opencores SHA-3 core that operates on a 576-bit
//! message block.  Its behaviour, reproduced here:
//!
//! * one 64-bit `(Src, Dest)` input word is absorbed per clock cycle into the
//!   padding module;
//! * after **9** absorbed words the 576-bit rate buffer is full and the permutation
//!   starts; during the following **3** cycles the padding buffer cannot accept
//!   further input (`busy`);
//! * a small **input cache buffer** in front of the engine prevents dropping
//!   `(Src, Dest)` pairs that arrive during those busy cycles;
//! * an unlimited message size can be hashed, with the end of the stream indicated
//!   when the attested execution completes.
//!
//! [`HashEngine`] models exactly this pipeline and additionally checks, cycle by
//! cycle, that the input buffer never overflows (which would mean dropped trace
//! data).  The resulting digest is bit-identical to [`crate::Sha3_512`] applied to
//! the same word stream, so the functional and the timing model cannot diverge.

use crate::error::CryptoError;
use crate::sha3::{Digest, Sha3_512};
use std::collections::VecDeque;

/// Number of 64-bit words that fill the 576-bit rate of SHA-3-512.
pub const WORDS_PER_BLOCK: u64 = 9;

/// Number of cycles the padding buffer is busy after a block fills (§5.3).
pub const BUSY_CYCLES: u64 = 3;

/// Configuration of the streaming hash engine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HashEngineConfig {
    /// Capacity (in 64-bit words) of the input cache buffer placed in front of the
    /// padding module.  The paper uses a "small cache buffer"; 4 words is enough to
    /// ride out the 3-cycle busy window at one input per cycle.
    pub input_buffer_words: usize,
    /// Number of cycles the permutation blocks the padding buffer after the rate
    /// fills.  The paper's core is busy for 3 cycles.
    pub busy_cycles: u64,
    /// Words per 576-bit block (9 for SHA-3-512); exposed for experimentation.
    pub words_per_block: u64,
}

impl Default for HashEngineConfig {
    fn default() -> Self {
        Self { input_buffer_words: 4, busy_cycles: BUSY_CYCLES, words_per_block: WORDS_PER_BLOCK }
    }
}

/// Status of the engine in the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// The padding buffer can accept an input word this cycle.
    Ready,
    /// The permutation is running; the padding buffer cannot accept input.
    Busy {
        /// Remaining busy cycles including the current one.
        remaining: u64,
    },
}

/// Occupancy and throughput statistics gathered while the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HashEngineStats {
    /// Total cycles the engine has been stepped.
    pub cycles: u64,
    /// Words absorbed into the padding buffer.
    pub words_absorbed: u64,
    /// Cycles during which the padding buffer was busy (permutation running).
    pub busy_cycles: u64,
    /// Number of permutations (block absorptions) performed.
    pub permutations: u64,
    /// Maximum occupancy observed in the input cache buffer.
    pub max_buffer_occupancy: usize,
    /// Words that could not be enqueued because the input buffer was full.
    pub words_dropped: u64,
}

impl HashEngineStats {
    /// Effective throughput in words per cycle (absorbed words / elapsed cycles).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.words_absorbed as f64 / self.cycles as f64
        }
    }
}

/// Cycle-level model of the streaming SHA-3-512 engine with an input cache buffer.
///
/// # Example
///
/// ```
/// use lofat_crypto::{HashEngine, HashEngineConfig};
///
/// let mut engine = HashEngine::new(HashEngineConfig::default());
/// for word in 0u64..100 {
///     // Wait for buffer space exactly like the LO-FAT hash-engine controller does.
///     while engine.buffered() == engine.config().input_buffer_words {
///         engine.step();
///     }
///     engine.offer(word)?;
///     engine.step();
/// }
/// // Drain whatever is still buffered and finish the stream.
/// let digest = engine.finalize()?;
/// assert_eq!(digest.len(), 64);
/// # Ok::<(), lofat_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashEngine {
    config: HashEngineConfig,
    /// Words waiting in the input cache buffer.
    buffer: VecDeque<u64>,
    /// Words absorbed into the current (partial) block.
    words_in_block: u64,
    /// Remaining busy cycles of the running permutation.
    busy_remaining: u64,
    /// Reference software hasher fed with the same words (guarantees functional
    /// equivalence between the timing model and the software digest).
    hasher: Sha3_512,
    stats: HashEngineStats,
    finalized: bool,
}

impl HashEngine {
    /// Creates an idle engine with the given configuration.
    pub fn new(config: HashEngineConfig) -> Self {
        Self {
            config,
            buffer: VecDeque::with_capacity(config.input_buffer_words),
            words_in_block: 0,
            busy_remaining: 0,
            hasher: Sha3_512::new(),
            stats: HashEngineStats::default(),
            finalized: false,
        }
    }

    /// Returns the engine configuration.
    pub fn config(&self) -> &HashEngineConfig {
        &self.config
    }

    /// Returns the statistics gathered so far.
    pub fn stats(&self) -> &HashEngineStats {
        &self.stats
    }

    /// Returns the engine status for the current cycle.
    pub fn status(&self) -> EngineStatus {
        if self.busy_remaining > 0 {
            EngineStatus::Busy { remaining: self.busy_remaining }
        } else {
            EngineStatus::Ready
        }
    }

    /// Number of words currently waiting in the input cache buffer.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Returns `true` when the engine has nothing to do this cycle: no buffered
    /// input and no running permutation.  A step in this state only advances the
    /// cycle counter, and the engine stays idle until a word is offered, so any
    /// number of such steps can be taken at once with [`HashEngine::tick_idle`].
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.busy_remaining == 0
    }

    /// Advances `cycles` idle clock cycles at once.
    ///
    /// Exactly equivalent to `cycles` calls of [`HashEngine::step`] while
    /// [`HashEngine::is_idle`] is `true` (the cycle counter advances, nothing
    /// else changes); an event-driven caller uses it to account for the idle
    /// stretches between its bursts of input in one addition.
    #[inline]
    pub fn tick_idle(&mut self, cycles: u64) {
        debug_assert!(self.is_idle());
        self.stats.cycles += cycles;
    }

    /// Offers a 64-bit word to the engine's input cache buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EngineOverflow`] if the buffer is full (the hardware
    /// would have dropped trace data — LO-FAT is dimensioned so this never happens)
    /// and [`CryptoError::EngineFinalized`] if the stream was already finalized.
    pub fn offer(&mut self, word: u64) -> Result<(), CryptoError> {
        if self.finalized {
            return Err(CryptoError::EngineFinalized);
        }
        if self.buffer.len() >= self.config.input_buffer_words {
            self.stats.words_dropped += 1;
            return Err(CryptoError::EngineOverflow { dropped: self.stats.words_dropped });
        }
        self.buffer.push_back(word);
        self.stats.max_buffer_occupancy = self.stats.max_buffer_occupancy.max(self.buffer.len());
        Ok(())
    }

    /// Advances the engine by one clock cycle.
    ///
    /// In a ready cycle one buffered word is absorbed; when the block fills the
    /// permutation starts and the engine is busy for the configured number of cycles.
    #[inline]
    pub fn step(&mut self) {
        self.stats.cycles += 1;
        if self.busy_remaining > 0 {
            self.busy_remaining -= 1;
            self.stats.busy_cycles += 1;
            return;
        }
        if let Some(word) = self.buffer.pop_front() {
            self.hasher.update(word.to_le_bytes());
            self.stats.words_absorbed += 1;
            self.words_in_block += 1;
            if self.words_in_block == self.config.words_per_block {
                self.words_in_block = 0;
                self.busy_remaining = self.config.busy_cycles;
                self.stats.permutations += 1;
            }
        }
    }

    /// Runs the engine until the input cache buffer is drained and the engine idle.
    ///
    /// Returns the number of cycles consumed.
    pub fn drain(&mut self) -> u64 {
        let start = self.stats.cycles;
        while !self.buffer.is_empty() || self.busy_remaining > 0 {
            self.step();
        }
        self.stats.cycles - start
    }

    /// Signals end-of-stream, drains any buffered words and returns the digest.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EngineFinalized`] if called more than once.
    pub fn finalize(&mut self) -> Result<Digest, CryptoError> {
        if self.finalized {
            return Err(CryptoError::EngineFinalized);
        }
        self.drain();
        self.finalized = true;
        Ok(self.hasher.clone().finalize())
    }

    /// Returns `true` once the stream has been finalized.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Finalizes many independent engines together: each is drained and
    /// end-of-stream marked exactly as by [`HashEngine::finalize`], but the
    /// final software digests are computed through the multi-lane sponge
    /// ([`Sha3_512::finalize_many`]), four absorptions per pass of the 4-way
    /// Keccak-f\[1600\] kernel.  Digests come back in engine order and are
    /// bit-identical to per-engine `finalize` calls.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EngineFinalized`] if any engine was already
    /// finalized; no engine is modified in that case.
    pub fn finalize_many<'a>(
        engines: impl IntoIterator<Item = &'a mut HashEngine>,
    ) -> Result<Vec<Digest>, CryptoError> {
        let engines: Vec<&'a mut HashEngine> = engines.into_iter().collect();
        if engines.iter().any(|engine| engine.finalized) {
            return Err(CryptoError::EngineFinalized);
        }
        let mut hashers = Vec::with_capacity(engines.len());
        for engine in engines {
            engine.drain();
            engine.finalized = true;
            hashers.push(engine.hasher.clone());
        }
        Ok(Sha3_512::finalize_many(hashers))
    }
}

impl Default for HashEngine {
    fn default() -> Self {
        Self::new(HashEngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sustainable input rate of the engine is 9 words every 12 cycles (9 absorb
    /// cycles followed by a 3-cycle busy window).  Feeding exactly that pattern must
    /// never overflow the small input cache buffer: this is the §5.3 claim that the
    /// buffer prevents dropping `(Src, Dest)` pairs that arrive while the padding
    /// buffer is full.
    #[test]
    fn sustained_peak_rate_never_drops() {
        let mut engine = HashEngine::default();
        let mut offered = Vec::new();
        let mut word = 0u64;
        for cycle in 0u64..12_000 {
            // 9 words on, 3 cycles off — the densest stream a correct controller
            // would ever forward.
            if cycle % 12 < 9 {
                engine.offer(word).expect("buffer must absorb the sustainable peak rate");
                offered.push(word);
                word += 1;
            }
            engine.step();
        }
        let stats = *engine.stats();
        assert_eq!(stats.words_dropped, 0);
        assert!(stats.max_buffer_occupancy <= engine.config().input_buffer_words);
        let digest = engine.finalize().unwrap();
        // Functional equivalence with the software hash over the same words.
        let mut reference = Sha3_512::new();
        for w in offered {
            reference.update(w.to_le_bytes());
        }
        assert_eq!(digest, reference.finalize());
    }

    #[test]
    fn block_timing_matches_paper() {
        // 9 absorb cycles then 3 busy cycles; offer/step interleaved because the
        // default input buffer only holds 4 words.
        let mut engine = HashEngine::default();
        let mut offered = 0u64;
        let mut busy_seen = 0u64;
        for _cycle in 0..20 {
            if offered < 9 {
                engine.offer(offered).unwrap();
                offered += 1;
            }
            if matches!(engine.status(), EngineStatus::Busy { .. }) {
                busy_seen += 1;
            }
            engine.step();
        }
        assert_eq!(engine.stats().permutations, 1);
        assert_eq!(busy_seen, BUSY_CYCLES);
    }

    #[test]
    fn tick_idle_matches_idle_steps() {
        // Absorb one word, drain, then idle: a bulk tick equals that many steps.
        let mut stepped = HashEngine::default();
        stepped.offer(7).unwrap();
        stepped.drain();
        let mut ticked = stepped.clone();
        for _ in 0..1000 {
            stepped.step();
        }
        ticked.tick_idle(1000);
        assert_eq!(ticked.stats(), stepped.stats());
        assert_eq!(ticked.finalize().unwrap(), stepped.finalize().unwrap());
    }

    #[test]
    fn overflow_is_reported() {
        let config = HashEngineConfig { input_buffer_words: 2, ..Default::default() };
        let mut engine = HashEngine::new(config);
        engine.offer(1).unwrap();
        engine.offer(2).unwrap();
        let err = engine.offer(3).unwrap_err();
        assert!(matches!(err, CryptoError::EngineOverflow { dropped: 1 }));
    }

    #[test]
    fn finalize_twice_is_an_error() {
        let mut engine = HashEngine::default();
        engine.offer(7).unwrap();
        engine.finalize().unwrap();
        assert!(matches!(engine.finalize(), Err(CryptoError::EngineFinalized)));
        assert!(matches!(engine.offer(8), Err(CryptoError::EngineFinalized)));
    }

    #[test]
    fn empty_stream_digest_matches_empty_sha3() {
        let mut engine = HashEngine::default();
        let digest = engine.finalize().unwrap();
        assert_eq!(digest, Sha3_512::digest(b""));
    }

    #[test]
    fn throughput_accounts_for_busy_cycles() {
        let mut engine = HashEngine::default();
        let mut word = 0u64;
        // Offer a word every other cycle (density 0.5, well under the 0.75 limit).
        for cycle in 0u64..360 {
            if cycle % 2 == 0 {
                engine.offer(word).unwrap();
                word += 1;
            }
            engine.step();
        }
        engine.drain();
        let stats = engine.stats();
        // 180 words => 20 permutations.
        assert_eq!(stats.permutations, 20);
        assert_eq!(stats.words_dropped, 0);
        // Throughput can never exceed the architectural maximum of 9 words per
        // 12 cycles and matches the offered density here.
        assert!(stats.throughput() <= 0.75 + 1e-9);
        assert!(stats.throughput() > 0.4);
    }

    #[test]
    fn finalize_many_matches_individual_finalizes() {
        // Batch sizes straddling the 4-lane boundary, engines with unequal
        // stream lengths and residual buffered words.
        for batch in 0usize..=9 {
            let mut batched: Vec<HashEngine> = (0..batch)
                .map(|e| {
                    let mut engine = HashEngine::default();
                    for word in 0..(7 * e as u64 + 3) {
                        while engine.buffered() == engine.config().input_buffer_words {
                            engine.step();
                        }
                        engine.offer(word ^ ((e as u64) << 32)).unwrap();
                        engine.step();
                    }
                    engine
                })
                .collect();
            let mut reference = batched.clone();
            let digests = HashEngine::finalize_many(batched.iter_mut()).unwrap();
            for (e, (digest, engine)) in digests.iter().zip(&mut reference).enumerate() {
                assert_eq!(digest, &engine.finalize().unwrap(), "batch {batch}, engine {e}");
            }
            for engine in &batched {
                assert!(engine.is_finalized());
            }
        }
    }

    #[test]
    fn finalize_many_rejects_already_finalized_engines() {
        let mut done = HashEngine::default();
        done.finalize().unwrap();
        let mut fresh = HashEngine::default();
        fresh.offer(1).unwrap();
        let err = HashEngine::finalize_many([&mut fresh, &mut done]).unwrap_err();
        assert!(matches!(err, CryptoError::EngineFinalized));
        // The fresh engine is untouched and still finalizes on its own.
        assert!(!fresh.is_finalized());
        assert!(fresh.finalize().is_ok());
    }

    #[test]
    fn bursty_input_survives_with_default_buffer() {
        // Two branch events can arrive back-to-back right when the engine goes busy;
        // the 4-word buffer must absorb such bursts at realistic branch densities
        // (at most one control-flow event per cycle from a single-issue core).
        let mut engine = HashEngine::default();
        let mut word = 0u64;
        for cycle in 0..5_000u64 {
            // Branch density 1/2: a word every other cycle plus occasional doubles.
            if cycle % 2 == 0 {
                engine.offer(word).unwrap();
                word += 1;
            }
            engine.step();
        }
        assert_eq!(engine.stats().words_dropped, 0);
    }
}
