//! MESI store execution (baseline MESI and MMemL1), reached through
//! `Engine::store`. All machine state lives in the shared [`Engine`]; the
//! read miss and every home-side step that does not depend on
//! invalidate-vs-update live in `home.rs`. This file contains only what a
//! write *means* under MESI: the invalidating upgrade, owner transfer, and
//! MMemL1's write miss that fills the L1 alone.

use super::engine::Engine;
use super::home::MemPeer;
use crate::timing::TimeClass;
use tw_protocols::{mesi, Directory, LineState};
use tw_types::config::L2_OCCUPANCY_CYCLES;
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
    LINE_BYTES, WORDS_PER_LINE,
};

impl Engine<'_> {
    /// Executes a store under MESI/MMemL1. Stores retire into the
    /// non-blocking write buffer, so the core is charged only one busy cycle.
    pub(super) fn mesi_store(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let me = TileId(core);
        let home = self.home_of(line);
        self.time[core].add(TimeClass::Compute, 1);

        let state = self.l1_state(core, line);
        if state.is_shared() {
            // Upgrade: invalidate the other sharers, no data transfer.
            let req = self.net.send(me, home, MessageKind::UpgradeReq, 0, now);
            let t_home = req.arrival + L2_OCCUPANCY_CYCLES;
            let mut dir = self.dir(home, line);
            let (_prev_owner, invalidated) = mesi::record_write(&mut dir, CoreId(core));
            self.mesi_invalidate_sharers(home, line, &invalidated, t_home);
            self.set_dir(home, line, dir);
            self.net
                .send(home, me, MessageKind::StoreAck, 0, t_home + 1);
            self.net
                .send(me, home, MessageKind::DirUnblock, 0, t_home + 2);
        } else if !state.can_write_silently() {
            // GetM with a full-line data response (fetch-on-write).
            let req = self.net.send(me, home, MessageKind::StoreReq, 0, now);
            let t_home = req.arrival + L2_OCCUPANCY_CYCLES;

            let delivery = if self.l2_has_data(home, line) {
                let mut dir = self.dir(home, line);
                let (prev_owner, invalidated) = mesi::record_write(&mut dir, CoreId(core));
                self.mesi_invalidate_sharers(home, line, &invalidated, t_home);

                let delivery = if let Some(owner) = prev_owner {
                    // Owner transfers the (possibly dirty) line directly.
                    let fwd =
                        self.net
                            .send(home, owner.tile(), MessageKind::Invalidation, 0, t_home);
                    let t_owner = fwd.arrival + 1;
                    if let Some(victim) = self.tiles[owner.0].l1.remove(line) {
                        self.l1_prof[owner.0]
                            .invalidated_words(line.word_addr(WordIdx(0)), victim.valid);
                    }
                    self.net.send(
                        owner.tile(),
                        me,
                        MessageKind::DataToL1,
                        WORDS_PER_LINE,
                        t_owner,
                    )
                } else {
                    self.serve_from_l2(home, me, line, t_home + 1)
                };
                self.set_dir(home, line, dir);
                self.net
                    .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);
                delivery
            } else {
                // Write miss that also misses the L2.
                let mut dir = Directory::default();
                mesi::record_write(&mut dir, CoreId(core));
                if self.protocol().mem_to_l1() {
                    // MMemL1: the line goes only to the L1 — the eventual
                    // writeback will overwrite whatever the L2 would have
                    // cached, so nothing is forwarded there.
                    let d = self
                        .read_memory(line, WordMask::FULL, MemPeer::Home, MemPeer::L1(me), t_home)
                        .delivery;
                    self.net
                        .send(me, home, MessageKind::DirUnblock, 0, d.arrival);
                    self.allocate_l2(home, line, dir, WordMask::EMPTY, now);
                    d
                } else {
                    let fetch =
                        self.fetch_through_l2(home, me, line, MessageClass::Store, t_home, 1);
                    self.allocate_l2(home, line, dir, WordMask::FULL, now);
                    fetch.delivery
                }
            };
            self.fill_l1(
                core,
                line,
                region,
                LineState::Modified,
                MessageClass::Store,
                delivery,
            );
        }
        // Every path — silent E/M hit, upgrade, miss — leaves the line
        // Modified with the written word dirty.
        self.retire_store(core, addr, LineState::Modified);
        now + 1
    }

    /// Sends invalidations (and collects acks) for a set of sharers, removing
    /// their copies.
    fn mesi_invalidate_sharers(
        &mut self,
        home: TileId,
        line: LineAddr,
        sharers: &[CoreId],
        at: Stamp,
    ) {
        for s in sharers {
            self.net
                .send(home, s.tile(), MessageKind::Invalidation, 0, at);
            self.net
                .send(s.tile(), home, MessageKind::InvAck, 0, at + 1);
            if let Some(victim) = self.tiles[s.0].l1.remove(line) {
                self.l1_prof[s.0].invalidated_words(line.word_addr(WordIdx(0)), victim.valid);
            }
        }
    }
}
