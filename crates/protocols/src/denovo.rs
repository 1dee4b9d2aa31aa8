//! DeNovo word-granularity coherence state.
//!
//! DeNovo replaces sharer lists and invalidation traffic with three per-word
//! states and software-guaranteed data-race freedom (paper §2):
//!
//! * at an L1, a word is `Invalid`, `Valid` (a clean copy readable until the
//!   next self-invalidation), or `Registered` (this core owns the only
//!   up-to-date copy and may read and write it);
//! * at the shared L2, a word is either valid (the L2 holds the data), or
//!   registered to some core (the L2's data array stores *which* core instead
//!   of data — "the L2 cache is used to store per-word ownership"), or
//!   invalid.

use std::fmt;
use tw_types::{CoreId, WordIdx, WordMask, MAX_TILES, WORDS_PER_LINE};

/// State of one word in a private L1 under DeNovo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum DenovoWordState {
    /// No usable copy.
    #[default]
    Invalid,
    /// Clean copy, readable until self-invalidated.
    Valid,
    /// This core holds the registered (owned, writable) copy.
    Registered,
}

impl fmt::Display for DenovoWordState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DenovoWordState::Invalid => "I",
            DenovoWordState::Valid => "V",
            DenovoWordState::Registered => "R",
        };
        f.write_str(s)
    }
}

/// The state of word `w` of an L1 line whose per-word masks are `valid` and
/// `dirty`. The two masks *are* the L1 state — `Invalid` is `!valid`, `Valid`
/// is `valid & !dirty`, `Registered` is `dirty` (a registered word is always
/// valid) — so this is a view for display and checks, never stored.
pub const fn l1_word_state(valid: WordMask, dirty: WordMask, w: WordIdx) -> DenovoWordState {
    if dirty.contains(w) {
        DenovoWordState::Registered
    } else if valid.contains(w) {
        DenovoWordState::Valid
    } else {
        DenovoWordState::Invalid
    }
}

/// Applies self-invalidation to an L1 line: every `Valid` word becomes
/// `Invalid`, `Registered` words are kept (they are the up-to-date copy).
/// Returns the mask of words invalidated.
pub fn l1_self_invalidate(valid: &mut WordMask, dirty: WordMask) -> WordMask {
    let invalidated = valid.difference(dirty);
    *valid = valid.intersect(dirty);
    invalidated
}

/// Who holds the up-to-date copy of a word, from the L2's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum L2WordOwner {
    /// No valid copy anywhere on chip (must fetch from memory).
    #[default]
    Invalid,
    /// The L2 data array holds the valid copy.
    AtL2,
    /// The word is registered to (owned by) a core's L1.
    RegisteredTo(CoreId),
}

impl L2WordOwner {
    /// The registered core, if any.
    pub const fn registrant(self) -> Option<CoreId> {
        match self {
            L2WordOwner::RegisteredTo(c) => Some(c),
            _ => None,
        }
    }

    /// Byte encodings: the two data-less states, then one value per core.
    const INVALID: u8 = 0;
    const AT_L2: u8 = 1;
    const FIRST_CORE: u8 = 2;

    /// Packs the owner into one byte.
    ///
    /// # Panics
    ///
    /// Panics on a core id of [`MAX_TILES`] or more: `SystemConfig::validate`
    /// admits no such core, and truncating the id would alias two of them.
    #[inline]
    fn pack(self) -> u8 {
        match self {
            L2WordOwner::Invalid => Self::INVALID,
            L2WordOwner::AtL2 => Self::AT_L2,
            L2WordOwner::RegisteredTo(core) => {
                assert!(core.0 < MAX_TILES, "core id {} out of range", core.0);
                Self::FIRST_CORE + core.0 as u8
            }
        }
    }

    /// Inverse of [`L2WordOwner::pack`].
    #[inline]
    const fn unpack(byte: u8) -> Self {
        match byte {
            Self::INVALID => L2WordOwner::Invalid,
            Self::AT_L2 => L2WordOwner::AtL2,
            core => L2WordOwner::RegisteredTo(CoreId((core - Self::FIRST_CORE) as usize)),
        }
    }
}

/// Per-line DeNovo metadata at the shared L2: the ownership of each word,
/// one byte a word (see [`L2WordOwner`] for the states). All-zero is the
/// all-invalid line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DenovoL2Line {
    owners: [u8; WORDS_PER_LINE],
}

impl DenovoL2Line {
    /// Ownership of one word.
    #[inline]
    pub fn owner(&self, w: WordIdx) -> L2WordOwner {
        L2WordOwner::unpack(self.owners[w.index()])
    }

    /// Sets the ownership of one word (the tests build lines word by word;
    /// the engine changes ownership a mask at a time).
    #[cfg(test)]
    fn set_owner(&mut self, w: WordIdx, owner: L2WordOwner) {
        self.owners[w.index()] = owner.pack();
    }

    /// Registers `words` to `core`, returning for each word the previous
    /// registrant (if different from `core`) so the caller can send the
    /// invalidation the protocol requires.
    pub fn register(&mut self, words: WordMask, core: CoreId) -> Vec<(WordIdx, CoreId)> {
        let mine = L2WordOwner::RegisteredTo(core).pack();
        let mut displaced = Vec::new();
        for w in words.iter() {
            let slot = &mut self.owners[w.index()];
            if let L2WordOwner::RegisteredTo(prev) = L2WordOwner::unpack(*slot) {
                if prev != core {
                    displaced.push((w, prev));
                }
            }
            *slot = mine;
        }
        displaced
    }

    /// Accepts a writeback of `words` from `core`: the words become valid at
    /// the L2 again. Words registered to a *different* core are left alone
    /// (a stale writeback racing a newer registration).
    pub fn accept_writeback(&mut self, words: WordMask, core: CoreId) -> WordMask {
        let mut accepted = WordMask::EMPTY;
        for w in words.iter() {
            match self.owner(w) {
                L2WordOwner::RegisteredTo(c) if c != core => {}
                _ => {
                    self.owners[w.index()] = L2WordOwner::AT_L2;
                    accepted.insert(w);
                }
            }
        }
        accepted
    }

    /// Marks the words of `words` that are not registered to a core valid at
    /// the L2: data arriving from memory never displaces a registration.
    pub fn fill_at_l2(&mut self, words: WordMask) {
        for w in words.iter() {
            let slot = &mut self.owners[w.index()];
            if *slot < L2WordOwner::FIRST_CORE {
                *slot = L2WordOwner::AT_L2;
            }
        }
    }

    /// Mask of the words whose packed owner satisfies `pred`.
    #[inline]
    fn mask_where(&self, pred: impl Fn(u8) -> bool) -> WordMask {
        let mut bits = 0u16;
        for (i, &o) in self.owners.iter().enumerate() {
            bits |= u16::from(pred(o)) << i;
        }
        WordMask::from_bits(bits)
    }

    /// Mask of words the L2 itself can serve.
    pub fn valid_at_l2(&self) -> WordMask {
        self.mask_where(|o| o == L2WordOwner::AT_L2)
    }

    /// Mask of the words registered to any core.
    pub fn registered(&self) -> WordMask {
        self.mask_where(|o| o >= L2WordOwner::FIRST_CORE)
    }

    /// Mask of the words registered to `core`.
    pub fn registered_to(&self, core: CoreId) -> WordMask {
        let mine = L2WordOwner::RegisteredTo(core).pack();
        self.mask_where(|o| o == mine)
    }

    /// The cores holding registered words of this line, each with the mask
    /// of its words, in ascending core order — one pass over the words.
    pub fn registrants(&self) -> Vec<(CoreId, WordMask)> {
        let mut by_core: Vec<(CoreId, WordMask)> = Vec::new();
        for (i, &o) in self.owners.iter().enumerate() {
            if let L2WordOwner::RegisteredTo(core) = L2WordOwner::unpack(o) {
                let w = WordIdx(i as u8);
                match by_core.iter_mut().find(|(c, _)| *c == core) {
                    Some((_, mask)) => mask.insert(w),
                    None => by_core.push((core, WordMask::single(w))),
                }
            }
        }
        by_core.sort_unstable_by_key(|(core, _)| *core);
        by_core
    }
}

/// The registrants a read is forwarded to, each with its words of the
/// request, in order of each one's lowest such word — the order the forwards
/// are sent in ([`DenovoL2Line::registrants`] is in core order instead).
#[derive(Debug, Clone, Default)]
pub struct ByOwner {
    registry: DenovoL2Line,
    rest: WordMask,
}

impl Iterator for ByOwner {
    type Item = (CoreId, WordMask);

    fn next(&mut self) -> Option<Self::Item> {
        let owner = self.registry.owner(self.rest.iter().next()?).registrant()?;
        let words = self.rest.intersect(self.registry.registered_to(owner));
        self.rest = self.rest.difference(words);
        Some((owner, words))
    }
}

/// Splits the words core `me` `want`s of a line by who can supply them,
/// given the home L2's `registry` of the line (`None` when the L2 does not
/// hold it, or the request does not go there): the words the L2 itself
/// holds, those registered to other cores, and those only memory has. A
/// wanted word registered to `me` falls to memory; a correct engine never
/// asks for one.
pub fn split_by_supplier(
    registry: Option<&DenovoL2Line>,
    want: WordMask,
    me: CoreId,
) -> (WordMask, ByOwner, WordMask) {
    let Some(registry) = registry else {
        return (WordMask::EMPTY, ByOwner::default(), want);
    };
    let at_l2 = want.intersect(registry.valid_at_l2());
    let owned = want
        .intersect(registry.registered())
        .difference(registry.registered_to(me));
    let by_owner = ByOwner {
        registry: registry.clone(),
        rest: owned,
    };
    (at_l2, by_owner, want.difference(at_l2).difference(owned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn word_state_predicates() {
        // A load hits on a `valid` word, a store completes locally on a
        // `dirty` one; the three states are what the two bits spell.
        let (valid, dirty) = (WordMask::from_bits(0b110), WordMask::from_bits(0b100));
        let states = [0, 1, 2].map(|w| l1_word_state(valid, dirty, WordIdx(w)));
        assert_eq!(
            states,
            [
                DenovoWordState::Invalid,
                DenovoWordState::Valid,
                DenovoWordState::Registered
            ]
        );
        assert_eq!(states.map(|s| s.to_string()), ["I", "V", "R"]);
    }

    #[test]
    fn l1_line_masks_and_self_invalidation() {
        // Word 0 and 2 valid, word 1 registered.
        let mut valid = WordMask::from_bits(0b111);
        let dirty = WordMask::from_bits(0b010);
        assert_eq!(valid.count(), 3);

        let invalidated = l1_self_invalidate(&mut valid, dirty);
        assert_eq!(invalidated.count(), 2);
        assert!(invalidated.contains(WordIdx(0)));
        assert!(!invalidated.contains(WordIdx(1)));
        assert_eq!(
            l1_word_state(valid, dirty, WordIdx(1)),
            DenovoWordState::Registered
        );
        assert_eq!(
            l1_word_state(valid, dirty, WordIdx(0)),
            DenovoWordState::Invalid
        );
        assert!(!valid.is_empty());
    }

    #[test]
    fn empty_line_detection() {
        let (mut valid, dirty) = (WordMask::EMPTY, WordMask::EMPTY);
        assert!(valid.is_empty());
        valid.insert(WordIdx(5));
        assert_eq!(
            l1_word_state(valid, dirty, WordIdx(5)),
            DenovoWordState::Valid
        );
        l1_self_invalidate(&mut valid, dirty);
        assert!(valid.is_empty());
    }

    #[test]
    fn l2_registration_displaces_previous_registrant() {
        let mut l2 = DenovoL2Line::default();
        let words = WordMask::from_bits(0b1111);
        assert!(l2.register(words, CoreId(1)).is_empty());
        // Re-registration by the same core displaces nobody.
        assert!(l2
            .register(WordMask::from_bits(0b0011), CoreId(1))
            .is_empty());
        // Another core registering two of the words displaces core 1 for them.
        let displaced = l2.register(WordMask::from_bits(0b0110), CoreId(2));
        assert_eq!(displaced.len(), 2);
        assert!(displaced.iter().all(|(_, c)| *c == CoreId(1)));
        assert_eq!(
            l2.registrants(),
            vec![
                (CoreId(1), WordMask::from_bits(0b1001)),
                (CoreId(2), WordMask::from_bits(0b0110)),
            ]
        );
    }

    #[test]
    fn l2_writeback_restores_l2_validity() {
        let mut l2 = DenovoL2Line::default();
        l2.register(WordMask::from_bits(0b11), CoreId(3));
        let accepted = l2.accept_writeback(WordMask::from_bits(0b11), CoreId(3));
        assert_eq!(accepted.count(), 2);
        assert_eq!(l2.valid_at_l2().count(), 2);
        assert!(l2.registrants().is_empty());
    }

    #[test]
    fn stale_writeback_from_displaced_core_is_ignored() {
        let mut l2 = DenovoL2Line::default();
        l2.register(WordMask::from_bits(0b1), CoreId(1));
        l2.register(WordMask::from_bits(0b1), CoreId(2));
        let accepted = l2.accept_writeback(WordMask::from_bits(0b1), CoreId(1));
        assert!(accepted.is_empty());
        assert_eq!(l2.owner(WordIdx(0)), L2WordOwner::RegisteredTo(CoreId(2)));
    }

    #[test]
    fn every_owner_round_trips_through_the_packed_byte() {
        let mut owners = vec![L2WordOwner::Invalid, L2WordOwner::AtL2];
        owners.extend((0..MAX_TILES).map(|c| L2WordOwner::RegisteredTo(CoreId(c))));
        let mut seen = std::collections::HashSet::new();
        for owner in owners {
            let byte = owner.pack();
            assert_eq!(L2WordOwner::unpack(byte), owner);
            assert!(seen.insert(byte), "{owner:?} shares byte {byte}");
        }
        assert_eq!(L2WordOwner::default().pack(), 0, "all-zero is all-invalid");
        assert!(DenovoL2Line::default().registrants().is_empty());
        assert_eq!(DenovoL2Line::default().valid_at_l2(), WordMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packing_a_core_beyond_the_mesh_ceiling_panics() {
        DenovoL2Line::default().set_owner(WordIdx(0), L2WordOwner::RegisteredTo(CoreId(64)));
    }

    /// The enum-array line the packed one replaced, kept as the reference.
    #[derive(Default)]
    struct EnumArrayLine {
        owners: [L2WordOwner; WORDS_PER_LINE],
    }

    impl EnumArrayLine {
        fn register(&mut self, words: WordMask, core: CoreId) -> Vec<(WordIdx, CoreId)> {
            let mut displaced = Vec::new();
            for w in words.iter() {
                if let L2WordOwner::RegisteredTo(prev) = self.owners[w.index()] {
                    if prev != core {
                        displaced.push((w, prev));
                    }
                }
                self.owners[w.index()] = L2WordOwner::RegisteredTo(core);
            }
            displaced
        }

        fn accept_writeback(&mut self, words: WordMask, core: CoreId) -> WordMask {
            let mut accepted = WordMask::EMPTY;
            for w in words.iter() {
                match self.owners[w.index()] {
                    L2WordOwner::RegisteredTo(c) if c != core => {}
                    _ => {
                        self.owners[w.index()] = L2WordOwner::AtL2;
                        accepted.insert(w);
                    }
                }
            }
            accepted
        }

        fn fill_at_l2(&mut self, words: WordMask) {
            for w in words.iter() {
                if self.owners[w.index()].registrant().is_none() {
                    self.owners[w.index()] = L2WordOwner::AtL2;
                }
            }
        }

        fn registered_to(&self, core: CoreId) -> WordMask {
            self.owners
                .iter()
                .enumerate()
                .filter(|(_, o)| o.registrant() == Some(core))
                .map(|(i, _)| WordIdx(i as u8))
                .collect()
        }
    }

    proptest! {
        #[test]
        fn packed_line_matches_the_enum_array_line(
            ops in prop::collection::vec((0u8..3, any::<u16>(), 0usize..MAX_TILES), 1..40)
        ) {
            let mut packed = DenovoL2Line::default();
            let mut reference = EnumArrayLine::default();
            for (op, bits, core) in ops {
                let (words, core) = (WordMask::from_bits(bits), CoreId(core));
                match op {
                    // Same displaced (word, core) pairs, in the same order.
                    0 => prop_assert_eq!(
                        packed.register(words, core),
                        reference.register(words, core)
                    ),
                    1 => prop_assert_eq!(
                        packed.accept_writeback(words, core),
                        reference.accept_writeback(words, core)
                    ),
                    _ => {
                        packed.fill_at_l2(words);
                        reference.fill_at_l2(words);
                    }
                }
                for w in WordMask::FULL.iter() {
                    prop_assert_eq!(packed.owner(w), reference.owners[w.index()]);
                }
                // One pass groups what a `registered_to` scan per core found.
                let scanned: Vec<(CoreId, WordMask)> = (0..MAX_TILES)
                    .map(|c| (CoreId(c), reference.registered_to(CoreId(c))))
                    .filter(|(_, m)| !m.is_empty())
                    .collect();
                for &(c, mask) in &scanned {
                    prop_assert_eq!(packed.registered_to(c), mask);
                }
                let registered = scanned.iter().fold(WordMask::EMPTY, |all, (_, m)| all.union(*m));
                prop_assert_eq!(packed.registered(), registered);
                prop_assert_eq!(packed.registrants(), scanned);
            }
        }
    }

    /// The word-by-word loop (and its per-miss `Vec`) that `split_by_supplier`
    /// replaced in the engine, kept as the reference.
    fn split_word_by_word(
        meta: &DenovoL2Line,
        want: WordMask,
        me: CoreId,
    ) -> (WordMask, Vec<(CoreId, WordMask)>, WordMask) {
        let at_l2 = want.intersect(meta.valid_at_l2());
        let mut by_owner: Vec<(CoreId, WordMask)> = Vec::new();
        for w in want.difference(at_l2).iter() {
            if let Some(owner) = meta.owner(w).registrant() {
                if owner == me {
                    continue;
                }
                match by_owner.iter_mut().find(|(c, _)| *c == owner) {
                    Some((_, m)) => m.insert(w),
                    None => by_owner.push((owner, WordMask::single(w))),
                }
            }
        }
        let owned = by_owner
            .iter()
            .fold(WordMask::EMPTY, |acc, (_, m)| acc.union(*m));
        (at_l2, by_owner, want.difference(at_l2).difference(owned))
    }

    #[test]
    fn registrants_are_forwarded_to_in_order_of_their_lowest_wanted_word() {
        // Words 0 and 2 are registered to C5, word 1 to C2, word 3 is at the
        // L2 and word 4 nowhere on chip.
        let mut l2 = DenovoL2Line::default();
        l2.register(WordMask::from_bits(0b00101), CoreId(5));
        l2.register(WordMask::from_bits(0b00010), CoreId(2));
        l2.fill_at_l2(WordMask::from_bits(0b01000));
        let split = |want| {
            let (at_l2, by_owner, missing) =
                split_by_supplier(Some(&l2), WordMask::from_bits(want), CoreId(0));
            let by_owner: Vec<(usize, u16)> = by_owner.map(|(c, m)| (c.0, m.bits())).collect();
            (at_l2.bits(), by_owner, missing.bits())
        };
        // C5 before C2: not the core order `registrants()` reports.
        assert_eq!(
            split(0b11111),
            (0b01000, vec![(5, 0b00101), (2, 0b00010)], 0b10000)
        );
        assert_eq!(l2.registrants()[0].0, CoreId(2));
        // Without word 0, C2's word 1 is the lower one.
        assert_eq!(split(0b00110), (0, vec![(2, 0b00010), (5, 0b00100)], 0));
    }

    proptest! {
        #[test]
        fn split_by_supplier_partitions_want_as_the_word_by_word_loop_did(
            owners in prop::collection::vec(0u8..6, WORDS_PER_LINE),
            want in any::<u16>(),
            me in 0usize..4,
        ) {
            // Per word: invalid, at the L2, or registered to one of C0..C3.
            let mut l2 = DenovoL2Line::default();
            for (i, &o) in owners.iter().enumerate() {
                l2.set_owner(WordIdx(i as u8), L2WordOwner::unpack(o));
            }
            let (want, me) = (WordMask::from_bits(want), CoreId(me));
            let (at_l2, by_owner, missing) = split_by_supplier(Some(&l2), want, me);
            let by_owner: Vec<(CoreId, WordMask)> = by_owner.collect();
            prop_assert_eq!(
                (at_l2, by_owner.clone(), missing),
                split_word_by_word(&l2, want, me)
            );
            // The parts are disjoint and make up `want`; the L2 part is there.
            let owned = by_owner.iter().fold(WordMask::EMPTY, |acc, (_, m)| acc.union(*m));
            let sizes: usize = by_owner.iter().map(|(_, m)| m.count()).sum();
            prop_assert_eq!(at_l2.union(owned).union(missing), want);
            prop_assert_eq!(at_l2.count() + sizes + missing.count(), want.count());
            prop_assert_eq!(at_l2.difference(l2.valid_at_l2()), WordMask::EMPTY);
            prop_assert!(by_owner.iter().all(|(c, _)| *c != me));
            // No registry — the request goes straight to the controller, or
            // the L2 does not hold the line: memory supplies everything.
            let (at_l2, mut by_owner, missing) = split_by_supplier(None, want, me);
            prop_assert_eq!((at_l2, by_owner.next(), missing), (WordMask::EMPTY, None, want));
        }
    }

    #[test]
    fn ownership_queries() {
        let mut l2 = DenovoL2Line::default();
        assert_eq!(l2.owner(WordIdx(0)), L2WordOwner::Invalid);
        l2.set_owner(WordIdx(0), L2WordOwner::AtL2);
        assert_eq!(l2.owner(WordIdx(0)), L2WordOwner::AtL2);
        l2.set_owner(WordIdx(1), L2WordOwner::RegisteredTo(CoreId(9)));
        assert_eq!(l2.owner(WordIdx(1)).registrant(), Some(CoreId(9)));
        assert_eq!(l2.valid_at_l2().count(), 1);
        assert_eq!(
            l2.registrants(),
            vec![(CoreId(9), WordMask::single(WordIdx(1)))]
        );
    }
}
