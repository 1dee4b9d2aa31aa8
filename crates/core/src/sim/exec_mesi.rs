//! MESI transaction execution (baseline MESI and MMemL1), reached through
//! `Engine::load` / `Engine::store`. All machine state lives in the shared
//! [`Engine`] and every home-side step that does not depend on
//! invalidate-vs-update in `home.rs`; this file contains only what a read or
//! a write *means* under MESI: forward-and-downgrade, the invalidating
//! upgrade, owner transfer, and MMemL1's two memory-to-L1 paths.

use super::engine::Engine;
use super::home::MemFetch;
use crate::timing::TimeClass;
use tw_protocols::{mesi, Directory, LineState};
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordIdx, WordMask,
};

impl Engine<'_> {
    /// Executes a load under MESI/MMemL1, returning the cycle at which the
    /// core may proceed.
    pub(super) fn mesi_load(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, self.line_bytes());
        let l1_hit_cycles = self.system().timing.l1_hit_cycles;

        if self.l1_load_hit(core, addr) {
            self.l1_prof[core].loaded(addr);
            self.mem_prof.loaded(addr);
            self.time[core].add(TimeClass::Compute, l1_hit_cycles);
            return now + l1_hit_cycles;
        }

        let me = TileId(core);
        let home = self.home_of(line);
        let l2_hit = self.system().timing.l2_hit_cycles;
        let occupancy = self.system().timing.l2_occupancy_cycles;

        let req = self.net.send(me, home, MessageKind::LoadReq, 0, now);
        let t_home = req.arrival + occupancy;

        if self.l2_has_data(home, line) {
            // ---- served on chip -------------------------------------------
            let mut dir = self.dir(home, line);
            let exclusive = mesi::grants_exclusive(&dir, CoreId(core));
            let prev_owner = mesi::record_read(&mut dir, CoreId(core));

            let delivery = if let Some(owner) = prev_owner {
                // Forward to the exclusive owner; it supplies the data and, if
                // dirty, writes back to the L2 while downgrading to Shared.
                let fwd = self
                    .net
                    .send(home, owner.tile(), MessageKind::Invalidation, 0, t_home);
                let t_owner = fwd.arrival + 1;
                self.flush_owner(owner, line, t_owner);
                self.net
                    .send(owner.tile(), me, MessageKind::DataToL1, self.wpl(), t_owner)
            } else {
                self.serve_from_l2(home, me, line, t_home + l2_hit)
            };

            self.set_dir(home, line, dir);
            self.net
                .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);

            self.fill_l1(
                core,
                line,
                region,
                LineState::fill_for_read(exclusive),
                MessageClass::Load,
                delivery.per_word_hops,
                delivery.arrival,
            );
            self.l1_prof[core].loaded(addr);
            self.mem_prof.loaded(addr);
            self.time[core].add(TimeClass::OnChipHit, delivery.arrival.since(now));
            delivery.arrival
        } else {
            // ---- L2 miss: fetch from memory --------------------------------
            let fetch = if self.protocol().mem_to_l1() {
                // MMemL1: data goes straight to the L1, which forwards it to
                // the (inclusive) L2 as an unblock+data message.
                let mc = self.mc_of(line);
                let wpl = self.wpl();
                let lw = self.line_words_mask();
                let to_mc = self.net.send(home, mc, MessageKind::MemReadReq, 0, t_home);
                let dram_done = self.dram_access(mc, line, false, to_mc.arrival);
                let d = self
                    .net
                    .send(mc, me, MessageKind::MemDataToL1, wpl, dram_done);
                self.mem_prof
                    .fetched_words(line.word_addr(WordIdx(0)), lw, false, d.per_word_hops);
                let ub = self
                    .net
                    .send(me, home, MessageKind::DirUnblockWithData, wpl, d.arrival);
                self.l2_prof.arrive_words(
                    line.word_addr(WordIdx(0)),
                    lw,
                    WordMask::EMPTY,
                    ub.per_word_hops,
                    MessageClass::Load,
                );
                MemFetch {
                    at_mc: to_mc.arrival,
                    dram_done,
                    delivery: d,
                }
            } else {
                self.fetch_through_l2(home, me, line, MessageClass::Load, t_home, l2_hit)
            };

            let mut dir = Directory::default();
            let exclusive = mesi::grants_exclusive(&dir, CoreId(core));
            mesi::record_read(&mut dir, CoreId(core));
            self.allocate_l2(home, line, dir, WordMask::FULL, now);

            self.fill_l1(
                core,
                line,
                region,
                LineState::fill_for_read(exclusive),
                MessageClass::Load,
                fetch.delivery.per_word_hops,
                fetch.delivery.arrival,
            );
            self.l1_prof[core].loaded(addr);
            self.mem_prof.loaded(addr);
            self.charge_memory_stall(core, now, &fetch);
            fetch.delivery.arrival
        }
    }

    /// Executes a store under MESI/MMemL1. Stores retire into the
    /// non-blocking write buffer, so the core is charged only one busy cycle.
    pub(super) fn mesi_store(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, self.line_bytes());
        let me = TileId(core);
        let home = self.home_of(line);
        let occupancy = self.system().timing.l2_occupancy_cycles;
        let wpl = self.wpl();
        self.time[core].add(TimeClass::Compute, 1);

        let state = self.l1_state(core, line);
        if state.is_shared() {
            // Upgrade: invalidate the other sharers, no data transfer.
            let req = self.net.send(me, home, MessageKind::UpgradeReq, 0, now);
            let t_home = req.arrival + occupancy;
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
            let t_home = req.arrival + occupancy;

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
                    self.net
                        .send(owner.tile(), me, MessageKind::DataToL1, wpl, t_owner)
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
                    let mc = self.mc_of(line);
                    let to_mc = self.net.send(home, mc, MessageKind::MemReadReq, 0, t_home);
                    let dram_done = self.dram_access(mc, line, false, to_mc.arrival);
                    let d = self
                        .net
                        .send(mc, me, MessageKind::MemDataToL1, wpl, dram_done);
                    let lw = self.line_words_mask();
                    self.mem_prof.fetched_words(
                        line.word_addr(WordIdx(0)),
                        lw,
                        false,
                        d.per_word_hops,
                    );
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
                delivery.per_word_hops,
                delivery.arrival,
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
