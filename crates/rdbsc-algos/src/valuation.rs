//! A memo of task valuations inside one sub-problem.
//!
//! SAMPLING values the same task under the same set of picked workers many
//! times over its `K` samples, and `SA_Merge` values the same task under the
//! same choice of copies in most of the `2^k` combinations it enumerates.
//! Both value a task as the `(reliability, E[STD])` of *a fixed base plus a
//! subset of at most [`MAX_MEMBERS`] optional members*, so both key this memo
//! by `(task slot, member bitmask)`. A hit returns what was computed the
//! first time — the very same bits — so memoising never changes a result.
//!
//! The table is direct-mapped and of fixed size: a colliding key evicts,
//! which only costs a recomputation.

/// The widest member set a key can describe.
pub(crate) const MAX_MEMBERS: usize = u64::BITS as usize;

const INDEX_BITS: u32 = 13;

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The [`ValuationMemo::generation`] this entry was stored in.
    generation: u32,
    slot: u32,
    members: u64,
    value: (f64, f64),
}

/// See the module documentation.
#[derive(Debug, Default)]
pub(crate) struct ValuationMemo {
    /// Empty until first used, then `1 << INDEX_BITS` entries.
    entries: Vec<Entry>,
    /// Entries of other generations are stale; starts at 1 once in use.
    generation: u32,
}

impl ValuationMemo {
    /// Starts a new sub-problem: everything stored so far is forgotten.
    pub(crate) fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.entries.is_empty() || self.generation == 0 {
            let blank = Entry {
                generation: 0,
                slot: 0,
                members: 0,
                value: (0.0, 0.0),
            };
            self.entries.clear();
            self.entries.resize(1 << INDEX_BITS, blank);
            self.generation = 1;
        }
    }

    /// The value of `slot` under `members`: remembered, or computed now.
    /// [`begin`](Self::begin) must have been called.
    pub(crate) fn get_or_compute(
        &mut self,
        slot: usize,
        members: u64,
        compute: impl FnOnce() -> (f64, f64),
    ) -> (f64, f64) {
        let slot = slot as u32;
        let mixed = (members ^ u64::from(slot).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let entry = &mut self.entries[(mixed >> (u64::BITS - INDEX_BITS)) as usize];
        if (entry.generation, entry.slot, entry.members) != (self.generation, slot, members) {
            *entry = Entry {
                generation: self.generation,
                slot,
                members,
                value: compute(),
            };
        }
        entry.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_within_a_generation_and_forgets_across() {
        let mut memo = ValuationMemo::default();
        memo.begin();
        let computed = std::cell::Cell::new(0);
        let value_of = |memo: &mut ValuationMemo, slot: usize, members: u64| {
            memo.get_or_compute(slot, members, || {
                computed.set(computed.get() + 1);
                (slot as f64, members as f64)
            })
        };
        assert_eq!(value_of(&mut memo, 3, 0b101), (3.0, 5.0));
        assert_eq!(value_of(&mut memo, 3, 0b101), (3.0, 5.0));
        assert_eq!(value_of(&mut memo, 4, 0b101), (4.0, 5.0));
        assert_eq!(value_of(&mut memo, 3, 0b100), (3.0, 4.0));
        assert_eq!(computed.get(), 3);
        memo.begin();
        assert_eq!(value_of(&mut memo, 3, 0b101), (3.0, 5.0));
        assert_eq!(computed.get(), 4);
    }

    #[test]
    fn colliding_keys_evict_but_never_alias() {
        let mut memo = ValuationMemo::default();
        memo.begin();
        // Far more keys than entries: every lookup must still return its own
        // key's value.
        for round in 0..2 {
            for slot in 0..64usize {
                for members in 0..1024u64 {
                    let value =
                        memo.get_or_compute(slot, members, || (slot as f64, members as f64));
                    assert_eq!(value, (slot as f64, members as f64), "round {round}");
                }
            }
        }
    }
}
