//! MESI's directory policy: what a read and a write do to the
//! [`Directory`] entry of a line. The states and the entry itself are the
//! shared substrate in [`crate::directory`]; MESI partitions the entry —
//! `owner` is the `E`/`M` holder, `sharers` the `S` holders, never both —
//! and a write *invalidates*, so it never enters
//! [`crate::LineState::SharedModified`].

use crate::directory::{Directory, SharerSet};
use tw_types::CoreId;

/// Records a read by `core`. Returns the previous exclusive owner, if the
/// line must first be downgraded/fetched from it.
pub fn record_read(dir: &mut Directory, core: CoreId) -> Option<CoreId> {
    let prev = dir.owner.take();
    if let Some(o) = prev {
        if o != core {
            dir.sharers.insert(o);
        }
    }
    dir.sharers.insert(core);
    prev.filter(|o| *o != core)
}

/// Whether a read response may grant the Exclusive state (no other copy on
/// chip).
pub fn grants_exclusive(dir: &Directory, core: CoreId) -> bool {
    dir.owner.is_none()
        && (dir.sharers.is_empty() || (dir.sharers.count() == 1 && dir.sharers.contains(core)))
}

/// Records a write by `core`. Returns `(previous_owner, invalidated
/// sharers)`: the owner must supply/invalidate its copy, the sharers must
/// be sent invalidations.
pub fn record_write(dir: &mut Directory, core: CoreId) -> (Option<CoreId>, Vec<CoreId>) {
    let prev_owner = dir.owner.filter(|o| *o != core);
    let invalidated = dir.sharers.invalidate_others(core);
    dir.sharers = SharerSet::EMPTY;
    dir.owner = Some(core);
    (prev_owner, invalidated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LineState;

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.can_read());
        assert!(LineState::Shared.can_read());
        assert!(!LineState::Shared.can_write_silently());
        assert!(LineState::Exclusive.can_write_silently());
        assert!(LineState::Modified.is_dirty());
        assert!(!LineState::Exclusive.is_dirty());
        assert_eq!(LineState::Modified.to_string(), "M");
    }

    #[test]
    fn sharer_set_operations() {
        let mut s = SharerSet::EMPTY;
        s.insert(CoreId(3));
        s.insert(CoreId(7));
        assert!(s.contains(CoreId(3)));
        assert_eq!(s.count(), 2);
        let removed = s.invalidate_others(CoreId(3));
        assert_eq!(removed, vec![CoreId(7)]);
        assert_eq!(s.count(), 1);
        s.remove(CoreId(3));
        assert!(s.is_empty());
    }

    #[test]
    fn first_reader_gets_exclusive() {
        let mut d = Directory::default();
        assert!(d.is_idle());
        assert!(grants_exclusive(&d, CoreId(0)));
        assert_eq!(record_read(&mut d, CoreId(0)), None);
        // A second reader does not get E, and nobody needs downgrading
        // (the directory knows core 0 only has S or E-clean; the simulator
        // checks the L1 state for the M case).
        assert!(!grants_exclusive(&d, CoreId(1)));
    }

    #[test]
    fn read_after_owner_requires_downgrade() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(2));
        let prev = record_read(&mut d, CoreId(5));
        assert_eq!(prev, Some(CoreId(2)));
        assert!(d.sharers.contains(CoreId(2)));
        assert!(d.sharers.contains(CoreId(5)));
        assert_eq!(d.owner, None);
    }

    #[test]
    fn write_invalidates_sharers_and_takes_ownership() {
        let mut d = Directory::default();
        record_read(&mut d, CoreId(0));
        record_read(&mut d, CoreId(1));
        record_read(&mut d, CoreId(2));
        let (prev_owner, invalidated) = record_write(&mut d, CoreId(1));
        assert_eq!(prev_owner, None);
        let mut inv: Vec<usize> = invalidated.iter().map(|c| c.0).collect();
        inv.sort_unstable();
        assert_eq!(inv, vec![0, 2]);
        assert_eq!(d.owner, Some(CoreId(1)));
        assert!(d.sharers.is_empty());
    }

    #[test]
    fn write_after_other_owner_forwards_from_owner() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(4));
        let (prev_owner, invalidated) = record_write(&mut d, CoreId(9));
        assert_eq!(prev_owner, Some(CoreId(4)));
        assert!(invalidated.is_empty());
        assert_eq!(d.owner, Some(CoreId(9)));
    }

    #[test]
    fn eviction_clears_holder_state() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(3));
        d.record_eviction(CoreId(3));
        assert!(d.is_idle());
        record_read(&mut d, CoreId(1));
        d.record_eviction(CoreId(1));
        assert!(d.is_idle());
    }

    #[test]
    fn holders_lists_owner_first() {
        let mut d = Directory::default();
        record_read(&mut d, CoreId(5));
        record_read(&mut d, CoreId(2));
        assert_eq!(d.holders().len(), 2);
        let mut d2 = Directory::default();
        record_write(&mut d2, CoreId(7));
        assert_eq!(d2.holders(), vec![CoreId(7)]);
    }

    #[test]
    fn re_read_by_same_core_keeps_exclusivity_check_sane() {
        let mut d = Directory::default();
        record_read(&mut d, CoreId(6));
        assert!(
            grants_exclusive(&d, CoreId(6)),
            "sole sharer re-reading stays exclusive-eligible"
        );
        assert!(!grants_exclusive(&d, CoreId(0)));
    }
}
