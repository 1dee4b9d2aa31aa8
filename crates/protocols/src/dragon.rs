//! Dragon's directory policy: the write-*update* design point over the
//! shared substrate in [`crate::directory`].
//!
//! A store to a line with other sharers broadcasts the written words to them
//! instead of invalidating their copies, so readers never re-fetch. Exactly
//! one sharer holds [`LineState::SharedModified`] at a time (the last
//! writer); it owns the eventual writeback. The original Dragon snooped a
//! bus; here the home L2 slice tracks the sharer set and the dirty owner, and
//! "broadcast" becomes a home-fanned multicast of
//! [`tw_types::MessageKind::UpdateData`] messages.
//!
//! Unlike MESI's partition, `sharers` holds *every* core with a copy,
//! including the dirty `owner` — Dragon never shrinks the sharer set on a
//! write.

use crate::directory::{Directory, LineState};
use tw_types::CoreId;

/// State after this core wins a write: `SharedModified` while other copies
/// exist (they were just updated, not invalidated), `Modified` when the copy
/// is sole.
pub const fn after_local_write(others_share: bool) -> LineState {
    if others_share {
        LineState::SharedModified
    } else {
        LineState::Modified
    }
}

/// State after an update broadcast from another core lands in a copy in
/// `state`: the writer took over dirty ownership, so a `SharedModified`
/// holder demotes to `Shared`; `Shared` stays put.
pub const fn after_remote_update(state: LineState) -> LineState {
    match state {
        LineState::SharedModified | LineState::Shared => LineState::Shared,
        // Sole-copy and Invalid states never receive updates (the directory
        // only multicasts to recorded sharers); identity keeps the function
        // total.
        other => other,
    }
}

/// Whether a read-miss response may grant `Exclusive` (no other copy on
/// chip).
pub fn grants_exclusive(dir: &Directory, core: CoreId) -> bool {
    dir.sharers.is_empty() || (dir.sharers.count() == 1 && dir.sharers.contains(core))
}

/// Records a read by `core`. Returns the dirty holder that must supply the
/// data (its entry is untouched — in Dragon a snooped read leaves the owner
/// dirty, `M` holders demote to `Sm` in their own L1).
pub fn record_read(dir: &mut Directory, core: CoreId) -> Option<CoreId> {
    dir.sharers.insert(core);
    dir.owner.filter(|o| *o != core)
}

/// Records a write by `core`. Returns `(previous dirty holder, sharers to
/// update)`: on a write miss the previous holder supplies the line; every
/// other sharer receives the written words as an update and *keeps* its copy
/// — the defining difference from [`crate::mesi::record_write`], which
/// invalidates them.
pub fn record_write(dir: &mut Directory, core: CoreId) -> (Option<CoreId>, Vec<CoreId>) {
    let prev_owner = dir.owner.filter(|o| *o != core);
    dir.sharers.insert(core);
    let updated: Vec<CoreId> = dir.sharers.iter().filter(|c| *c != core).collect();
    dir.owner = Some(core);
    (prev_owner, updated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(!LineState::Invalid.can_read());
        assert!(LineState::Shared.can_read());
        assert!(LineState::Exclusive.can_write_silently());
        assert!(LineState::Modified.can_write_silently());
        assert!(!LineState::Shared.can_write_silently());
        assert!(!LineState::SharedModified.can_write_silently());
        assert!(LineState::SharedModified.is_dirty());
        assert!(LineState::Modified.is_dirty());
        assert!(!LineState::Shared.is_dirty());
        assert!(LineState::Shared.is_shared());
        assert!(LineState::SharedModified.is_shared());
        assert!(!LineState::Exclusive.is_shared());
        assert_eq!(LineState::SharedModified.to_string(), "Sm");
    }

    #[test]
    fn fill_and_write_transitions() {
        assert_eq!(LineState::fill_for_read(true), LineState::Exclusive);
        assert_eq!(LineState::fill_for_read(false), LineState::Shared);
        assert_eq!(after_local_write(true), LineState::SharedModified);
        assert_eq!(after_local_write(false), LineState::Modified);
        assert_eq!(
            after_remote_update(LineState::SharedModified),
            LineState::Shared
        );
        assert_eq!(after_remote_update(LineState::Shared), LineState::Shared);
    }

    #[test]
    fn first_reader_gets_exclusive() {
        let mut d = Directory::default();
        assert!(d.is_idle());
        assert!(grants_exclusive(&d, CoreId(0)));
        assert_eq!(record_read(&mut d, CoreId(0)), None);
        assert!(
            grants_exclusive(&d, CoreId(0)),
            "sole sharer re-reads as sole"
        );
        assert!(!grants_exclusive(&d, CoreId(1)));
    }

    #[test]
    fn read_after_writer_fetches_from_dirty_holder() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(2));
        let supplier = record_read(&mut d, CoreId(5));
        assert_eq!(supplier, Some(CoreId(2)));
        // The dirty holder keeps ownership (M demotes to Sm in its L1, still
        // dirty) — a later eviction must still write back.
        assert_eq!(d.owner, Some(CoreId(2)));
        assert_eq!(d.holders(), vec![CoreId(2), CoreId(5)]);
    }

    #[test]
    fn write_updates_sharers_instead_of_invalidating() {
        let mut d = Directory::default();
        record_read(&mut d, CoreId(0));
        record_read(&mut d, CoreId(1));
        record_read(&mut d, CoreId(2));
        let (prev_owner, updated) = record_write(&mut d, CoreId(1));
        assert_eq!(prev_owner, None);
        let mut upd: Vec<usize> = updated.iter().map(|c| c.0).collect();
        upd.sort_unstable();
        assert_eq!(upd, vec![0, 2]);
        // Every sharer keeps its copy — the sharer set never shrinks on a
        // write. This is the line MESI's record_write empties.
        assert_eq!(d.sharers.count(), 3);
        assert_eq!(d.owner, Some(CoreId(1)));
    }

    #[test]
    fn dirty_ownership_transfers_between_writers() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(4));
        record_read(&mut d, CoreId(9));
        let (prev_owner, updated) = record_write(&mut d, CoreId(9));
        assert_eq!(prev_owner, Some(CoreId(4)));
        assert_eq!(updated, vec![CoreId(4)]);
        assert_eq!(d.owner, Some(CoreId(9)));
        assert_eq!(d.sharers.count(), 2);
    }

    #[test]
    fn eviction_clears_holder_state() {
        let mut d = Directory::default();
        record_write(&mut d, CoreId(3));
        record_read(&mut d, CoreId(1));
        d.record_eviction(CoreId(3));
        assert_eq!(d.owner, None);
        assert_eq!(d.holders(), vec![CoreId(1)]);
        d.record_eviction(CoreId(1));
        assert!(d.is_idle());
    }

    #[test]
    fn sole_writer_needs_no_updates() {
        let mut d = Directory::default();
        record_read(&mut d, CoreId(6));
        let (prev_owner, updated) = record_write(&mut d, CoreId(6));
        assert_eq!(prev_owner, None);
        assert!(updated.is_empty());
    }
}
