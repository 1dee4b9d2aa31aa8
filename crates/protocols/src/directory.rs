//! The inclusive-directory substrate MESI, MMemL1 and Dragon share: the L1
//! line states, the sharer bit-set and the directory entry kept beside each
//! line of the inclusive L2.
//!
//! The four valid states split on two axes — sole copy vs. shared, clean
//! vs. dirty:
//!
//! |           | clean       | dirty            |
//! |-----------|-------------|------------------|
//! | sole copy | `Exclusive` | `Modified`       |
//! | shared    | `Shared`    | `SharedModified` |
//!
//! An invalidation protocol empties the shared row before any write, so MESI
//! never enters `SharedModified`; an update protocol keeps the other copies
//! and leaves exactly one of them — the last writer — dirty. Everything in
//! this module is the part that does *not* depend on that choice; what a read
//! or a write does to an entry is each protocol's policy ([`crate::mesi`],
//! [`crate::dragon`]).
//!
//! Transient states of the blocking GEMS-style directory protocol are not
//! enumerated: the simulator serializes each transaction at the home node, so
//! a line is always observed in a stable state between transactions (requests
//! that would hit a line in transition are the ones the paper's protocol
//! NACKs or holds).

use std::fmt;
use tw_types::CoreId;

/// Stable state of a line in a private L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum LineState {
    /// Invalid — the L1 holds no data for the line. (Dragon papers omit `I`
    /// because updates never invalidate; lines still start cold and get
    /// evicted.)
    #[default]
    Invalid,
    /// Shared (Dragon's Shared-Clean) — read-only copy; other caches may
    /// also hold copies, and the L2 or the `SharedModified` owner is
    /// responsible for the data.
    Shared,
    /// Exclusive — the only copy on chip and it is clean; a store may upgrade
    /// to Modified silently.
    Exclusive,
    /// Shared-Modified — other caches hold copies, this one is dirty and owns
    /// the eventual writeback. At most one sharer is in this state; only an
    /// update protocol reaches it.
    SharedModified,
    /// Modified — the only copy on chip and it is dirty.
    Modified,
}

impl LineState {
    /// Whether a load hits in this state.
    pub const fn can_read(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// Whether a store hits (possibly via the silent E→M upgrade) without any
    /// network traffic: the sole-copy states.
    pub const fn can_write_silently(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// Whether the line must be written back when evicted.
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::SharedModified | LineState::Modified)
    }

    /// Whether other caches may hold copies (a store in these states must
    /// first reach the home: an upgrade under MESI, an update under Dragon).
    pub const fn is_shared(self) -> bool {
        matches!(self, LineState::Shared | LineState::SharedModified)
    }

    /// State granted to a read-miss fill: `Exclusive` when the directory saw
    /// no other copy, `Shared` otherwise.
    pub const fn fill_for_read(exclusive: bool) -> LineState {
        if exclusive {
            LineState::Exclusive
        } else {
            LineState::Shared
        }
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LineState::Invalid => "I",
            LineState::Shared => "S",
            LineState::Exclusive => "E",
            LineState::SharedModified => "Sm",
            LineState::Modified => "M",
        })
    }
}

/// A compact sharer bit-set for up to 64 cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Inserts a core.
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= 1 << core.0;
    }

    /// Removes a core.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1 << core.0);
    }

    /// Whether the core is in the set.
    pub const fn contains(self, core: CoreId) -> bool {
        self.0 & (1 << core.0) != 0
    }

    /// Number of sharers.
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the sharers in ascending core order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        (0..64).filter(move |i| self.0 & (1 << i) != 0).map(CoreId)
    }

    /// Removes every sharer except `keep`, returning the cores removed.
    pub fn invalidate_others(&mut self, keep: CoreId) -> Vec<CoreId> {
        let removed: Vec<CoreId> = self.iter().filter(|c| *c != keep).collect();
        self.0 = if self.contains(keep) { 1 << keep.0 } else { 0 };
        removed
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = SharerSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory state for one line, kept alongside the inclusive L2 at the home
/// slice.
///
/// What the two fields partition is the protocol's business: MESI keeps the
/// `E`/`M` holder in `owner` and only the `S` holders in `sharers`; Dragon
/// never shrinks the sharer set on a write, so `sharers` holds every copy and
/// `owner` names the dirty one among them. The operations here read the two
/// as a union and therefore serve both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Directory {
    /// The core a miss must fetch from and that owes the writeback, if any.
    pub owner: Option<CoreId>,
    /// Cores holding a copy (see the type's doc for whether `owner` is one).
    pub sharers: SharerSet,
}

impl Directory {
    /// Whether no L1 holds the line.
    pub fn is_idle(&self) -> bool {
        self.owner.is_none() && self.sharers.is_empty()
    }

    /// Records that `core` dropped or wrote back its copy.
    pub fn record_eviction(&mut self, core: CoreId) {
        if self.owner == Some(core) {
            self.owner = None;
        }
        self.sharers.remove(core);
    }

    /// Every core with any copy (owner first, then the rest ascending).
    pub fn holders(&self) -> Vec<CoreId> {
        let mut v = Vec::new();
        if let Some(o) = self.owner {
            v.push(o);
        }
        v.extend(self.sharers.iter().filter(|c| Some(*c) != self.owner));
        v
    }
}
