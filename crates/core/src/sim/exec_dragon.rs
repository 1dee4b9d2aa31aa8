//! Dragon write-update store execution, reached through `Engine::store`.
//! All machine state lives in the shared [`Engine`]; this file contains only
//! what a write *means* under Dragon: the update transaction and
//! `push_update`.
//!
//! Dragon runs on the same inclusive-L2 directory substrate as MESI
//! (`home.rs`) — the home slice serializes transactions and tracks copies,
//! and a read miss is the shared `directory_load`, in which a dirty holder
//! supplies the line and demotes `M` to `Sm` instead of flushing — but a
//! store to a shared line *updates* the sharers instead of
//! invalidating them: the written word is announced to the home
//! ([`MessageKind::UpdateReq`], control-only; at word granularity the value
//! rides the request flit, like an upgrade), and the home multicasts it to
//! every other sharer as an
//! [`MessageKind::UpdateData`] message carrying one data word. Sharers keep
//! their copies forever — the sharer set never shrinks on a write — so
//! read-after-remote-write never re-fetches, at the price of pushing words
//! to cores that may never read them. Those pushed-but-unread words are the
//! *update waste* class the profilers report
//! (`tw_profiler::WasteCategory::Update`).
//!
//! Dirty-ownership choreography: the last writer holds the line in `Sm`/`M`
//! and owes the writeback. When ownership transfers (another core writes, or
//! another core's miss is serviced while an owner exists), the previous
//! owner first flushes its dirty words to the home L2 — `flush_owner`, the
//! very downgrade-flush MESI performs on a forwarded read — so exactly one L1
//! copy is ever dirty.

use super::engine::Engine;
use crate::machine::L1Meta;
use crate::timing::TimeClass;
use tw_protocols::{dragon, Directory, LineState};
use tw_types::config::L2_OCCUPANCY_CYCLES;
use tw_types::{
    Addr, CoreId, LineAddr, MessageClass, MessageKind, RegionId, Stamp, TileId, WordMask,
    LINE_BYTES, WORDS_PER_LINE,
};

impl Engine<'_> {
    /// Executes a store under Dragon. Stores retire into the non-blocking
    /// write buffer, so the core is charged only one busy cycle.
    pub(super) fn dragon_store(
        &mut self,
        core: usize,
        addr: Addr,
        region: RegionId,
        now: Stamp,
    ) -> Stamp {
        let line = LineAddr::containing(addr, LINE_BYTES);
        let w = addr.word_in_line(LINE_BYTES);
        let me = TileId(core);
        let home = self.home_of(line);
        self.time[core].add(TimeClass::Compute, 1);

        let state = self.l1_state(core, line);
        // The state the write leaves this copy in: `Modified` unless other
        // copies survive it. A sole copy (E/M) takes neither branch below —
        // the silent E→M upgrade, exactly as under MESI.
        let mut written = LineState::Modified;
        if state.is_shared() {
            // The update transaction — where Dragon diverges from MESI's
            // invalidating upgrade. Announce the write to the home; the
            // home pushes the written word to every other sharer.
            let req = self.net.send(me, home, MessageKind::UpdateReq, 0, now);
            let t_home = req.arrival + L2_OCCUPANCY_CYCLES;
            let mut dir = self.dir(home, line);
            let (prev_owner, updated) = dragon::record_write(&mut dir, CoreId(core));
            if let Some(o) = prev_owner {
                self.flush_owner(o, line, t_home);
            }
            self.dragon_push_update(home, line, addr, &updated, t_home + 1);
            // The home's inclusive copy absorbs the word too (the writer
            // still owes the writeback; the L2 copy stays clean).
            if let Some(le) = self.tiles[home.0].l2.get(line) {
                le.valid.insert(w);
            }
            self.set_dir(home, line, dir);
            self.net
                .send(home, me, MessageKind::StoreAck, 0, t_home + 1);
            self.net
                .send(me, home, MessageKind::DirUnblock, 0, t_home + 2);
            written = dragon::after_local_write(!updated.is_empty());
        } else if !state.can_write_silently() {
            // Write miss: fetch the line (fetch-on-write, like MESI) — but
            // existing sharers are updated, never invalidated.
            let req = self.net.send(me, home, MessageKind::StoreReq, 0, now);
            let t_home = req.arrival + L2_OCCUPANCY_CYCLES;

            let delivery = if self.l2_has_data(home, line) {
                let mut dir = self.dir(home, line);
                let (prev_owner, updated) = dragon::record_write(&mut dir, CoreId(core));

                let delivery = if let Some(owner) = prev_owner {
                    // The dirty holder flushes to the L2 (ownership is
                    // transferring) and supplies the line cache-to-cache;
                    // it keeps its copy as a sharer.
                    let fwd = self
                        .net
                        .send(home, owner.tile(), MessageKind::StoreReq, 0, t_home);
                    let t_owner = fwd.arrival + 1;
                    self.flush_owner(owner, line, t_owner);
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
                self.dragon_push_update(home, line, addr, &updated, delivery.arrival);
                if let Some(le) = self.tiles[home.0].l2.get(line) {
                    le.valid.insert(w);
                }
                self.set_dir(home, line, dir);
                self.net
                    .send(me, home, MessageKind::DirUnblock, 0, delivery.arrival);
                written = dragon::after_local_write(!updated.is_empty());
                delivery
            } else {
                // Write miss that also misses the L2: nobody shares the
                // line, so this is exactly MESI's memory-fetch path.
                let mut dir = Directory::default();
                dragon::record_write(&mut dir, CoreId(core));
                let fetch = self.fetch_through_l2(home, me, line, MessageClass::Store, t_home, 1);
                self.allocate_l2(home, line, dir, WordMask::FULL, now);
                fetch.delivery
            };
            self.fill_l1(core, line, region, written, MessageClass::Store, delivery);
        }
        self.retire_store(core, addr, written);
        now + 1
    }

    /// Multicasts the written word at `addr` to `sharers` as `UpdateData`
    /// messages, applying it to their L1 copies (state demotion to `S`,
    /// word valid and clean) and booking the pushed word with each sharer's
    /// waste profiler as *update-born*.
    fn dragon_push_update(
        &mut self,
        home: TileId,
        line: LineAddr,
        addr: Addr,
        sharers: &[CoreId],
        at: Stamp,
    ) {
        let w = addr.word_in_line(LINE_BYTES);
        for s in sharers {
            let d = self
                .net
                .send(home, s.tile(), MessageKind::UpdateData, 1, at);
            if let Some(e) = self.tiles[s.0].l1.get(line) {
                if let L1Meta::Directory { state, .. } = &mut e.meta {
                    *state = dragon::after_remote_update(*state);
                }
                e.valid.insert(w);
                e.dirty.remove(w);
                self.l1_prof[s.0].updated(addr, d.per_word_hops);
            }
        }
    }
}
