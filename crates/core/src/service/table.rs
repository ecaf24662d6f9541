//! `SessionTable` — one shard's session state, with no lock, judge or I/O.
//!
//! A table hands out *slots*, its local session numbers `0, 1, 2, …`, and
//! holds each live one as a [`LiveSession`] of 16 bytes: the session's
//! deadline and the index of its reference in the
//! [`MeasurementDatabase`](crate::measurement_db::MeasurementDatabase).  The
//! service maps slots to global session counters (and so to nonces) and
//! wraps each table in its shard's lock.  Three invariants hold between
//! calls:
//!
//! 1. slots are issued densely: [`SessionTable::open`] returns
//!    [`SessionTable::issued`] and then counts it issued;
//! 2. a slot is spent if and only if `slot < issued` and it is not live, so
//!    a spent slot needs no memory ([`SessionTable::is_spent`]);
//! 3. live deadlines never decrease in slot order, so the sessions a sweep
//!    expires are a prefix of the live ones and [`SessionTable::expire`]
//!    visits only them.  The caller upholds this one: the service reads its
//!    monotone clock under the shard lock it opens the session under.

use std::collections::BTreeMap;

/// One live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveSession {
    /// The last clock value at which the session's evidence is on time.
    pub(crate) deadline: u64,
    /// The session's reference: an index into the measurement database.
    pub(crate) reference: u32,
}

const _: () = assert!(std::mem::size_of::<LiveSession>() == 16);

/// One shard's sessions: the issuance watermark and the live slots, in slot
/// (and so deadline) order.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    live: BTreeMap<u64, LiveSession>,
    issued: u64,
}

impl SessionTable {
    /// Issues the next slot to a session due by `deadline` and checked
    /// against database entry `reference`.  `deadline` must be at least
    /// every live session's (invariant 3).
    pub(crate) fn open(&mut self, deadline: u64, reference: u32) -> u64 {
        let slot = self.issued;
        self.issued += 1;
        self.live.insert(slot, LiveSession { deadline, reference });
        slot
    }

    /// The live session in `slot`, if any.
    pub(crate) fn get(&self, slot: u64) -> Option<LiveSession> {
        self.live.get(&slot).copied()
    }

    /// Spends the session in `slot`; `false` when it was not live.
    pub(crate) fn spend(&mut self, slot: u64) -> bool {
        self.live.remove(&slot).is_some()
    }

    /// Spends every session whose deadline is before `now`, returning how
    /// many.  Invariant 3 puts them first, so the sweep stops at the first
    /// session still on time.
    pub(crate) fn expire(&mut self, now: u64) -> usize {
        let mut expired = 0;
        while let Some(first) = self.live.first_entry() {
            if now > first.get().deadline {
                first.remove();
                expired += 1;
            } else {
                break;
            }
        }
        expired
    }

    /// Whether `slot` was issued and its session spent or expired.
    pub(crate) fn is_spent(&self, slot: u64) -> bool {
        slot < self.issued && !self.live.contains_key(&slot)
    }

    /// How many slots this table has issued.
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    /// The table a restore resumes: nothing live, and every slot below
    /// `issued` spent.
    pub(crate) fn resume(&mut self, issued: u64) {
        self.live.clear();
        self.issued = issued;
    }

    /// Number of live sessions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The naive table: every live session in a map, every spent slot in a
    /// set, and a sweep that scans everything.
    #[derive(Default)]
    struct Model {
        live: BTreeMap<u64, LiveSession>,
        spent: BTreeSet<u64>,
        issued: u64,
    }

    impl Model {
        fn expire(&mut self, now: u64) -> usize {
            let stale: Vec<u64> = self
                .live
                .iter()
                .filter(|(_, session)| session.deadline < now)
                .map(|(slot, _)| *slot)
                .collect();
            for slot in &stale {
                self.live.remove(slot);
                self.spent.insert(*slot);
            }
            stale.len()
        }
    }

    /// Runs `steps` against a table and the model, comparing them after
    /// every step.  A step is an open (kinds 0-3, of reference `arg`, due
    /// `lifetime` cycles after the clock, as the service opens sessions), a
    /// spend (4-6, of a slot `arg` picks, up to two past the last issued), a
    /// clock advance of `arg % 4` cycles and a sweep (7, 8), or a restore
    /// (9, with a reserve of `arg % 3` slots).
    fn agree_with_the_model(lifetime: u64, steps: Vec<(u8, u8)>) -> Result<(), TestCaseError> {
        let (mut table, mut model, mut now) = (SessionTable::default(), Model::default(), 0u64);
        for (step, (kind, arg)) in steps.into_iter().enumerate() {
            match kind {
                0..=3 => {
                    let session = LiveSession { deadline: now + lifetime, reference: arg.into() };
                    let slot = table.open(session.deadline, session.reference);
                    prop_assert_eq!(slot, model.issued, "step {}: slots are dense", step);
                    model.live.insert(slot, session);
                    model.issued += 1;
                }
                4..=6 => {
                    let slot = u64::from(arg) % (model.issued + 2);
                    let live = model.live.remove(&slot).is_some();
                    if live {
                        model.spent.insert(slot);
                    }
                    prop_assert_eq!(table.spend(slot), live, "step {}: spend {}", step, slot);
                }
                7 | 8 => {
                    now += u64::from(arg % 4);
                    let swept = table.expire(now);
                    prop_assert_eq!(swept, model.expire(now), "step {}: sweep at {}", step, now);
                    for slot in model.live.keys() {
                        let deadline = table.get(*slot).map(|session| session.deadline);
                        prop_assert!(deadline >= Some(now), "step {}: {} outlived it", step, slot);
                    }
                }
                _ => {
                    let issued = model.issued + u64::from(arg % 3);
                    table.resume(issued);
                    model.spent.extend(model.live.keys().copied().chain(model.issued..issued));
                    model.live.clear();
                    model.issued = issued;
                }
            }
            prop_assert_eq!(table.len(), model.live.len(), "step {}: live count", step);
            prop_assert_eq!(table.issued(), model.issued, "step {}: issued", step);
            for slot in 0..model.issued + 3 {
                let spent = model.spent.contains(&slot);
                prop_assert_eq!(table.is_spent(slot), spent, "step {}: is_spent({})", step, slot);
                let live = model.live.get(&slot).copied();
                prop_assert_eq!(table.get(slot), live, "step {}: slot {}", step, slot);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Random opens, spends, clock advances with a sweep, and restores
        /// agree with the model after every step: the live count, the spent
        /// test on every issued slot and a few past the last, each live
        /// session, the sweep's count, and no live deadline passed after a
        /// sweep.
        #[test]
        fn the_table_behaves_like_a_map_and_a_spent_set(
            lifetime in 0..6u64,
            steps in proptest::collection::vec((0..10u8, any::<u8>()), 1..160),
        ) {
            agree_with_the_model(lifetime, steps)?;
        }
    }
}
