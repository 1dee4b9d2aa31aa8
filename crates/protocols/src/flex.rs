//! Flex (flexible communication granularity) response planning.
//!
//! Given a demand miss address and the software-supplied communication
//! region, Flex decides which words — possibly spread over several cache
//! lines — a responder should return (paper §2 and §3.1 "L2 Flex"). The plan
//! is pure address arithmetic, so it lives here where it can be tested
//! exhaustively; the simulator decides which of the planned words each
//! responder can actually supply.

use tw_types::{Addr, CommRegion, LineAddr, NocConfig, RegionInfo, RegionTable, WordMask};

/// The set of `(line, words)` a Flex response should carry for one demand
/// miss, split into packets that respect the network's payload limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlexPlan {
    /// Per-line word selections, in ascending line order. The demanded line is
    /// always present.
    pub lines: Vec<(LineAddr, WordMask)>,
}

impl FlexPlan {
    /// A plain (non-Flex) plan: the whole line containing `addr`.
    pub fn whole_line(addr: Addr, line_bytes: u64) -> Self {
        FlexPlan {
            lines: vec![(LineAddr::containing(addr, line_bytes), WordMask::FULL)],
        }
    }

    /// Total words selected across all lines.
    pub fn total_words(&self) -> usize {
        self.lines.iter().map(|(_, m)| m.count()).sum()
    }

    /// Splits the plan into response packets of at most the network's maximum
    /// data payload, returning the word count of each packet.
    pub fn packets(&self, noc: &NocConfig) -> Vec<usize> {
        let max = noc.max_data_words();
        let mut packets = Vec::new();
        let mut current = 0usize;
        for (_, mask) in &self.lines {
            let mut remaining = mask.count();
            while remaining > 0 {
                let space = max - current;
                let take = remaining.min(space);
                current += take;
                remaining -= take;
                if current == max {
                    packets.push(current);
                    current = 0;
                }
            }
        }
        if current > 0 {
            packets.push(current);
        }
        packets
    }
}

/// Builds the Flex fetch plan for a demand miss at `addr`.
///
/// If the address belongs to a region with a communication region, the plan
/// covers the useful words of the containing object (grouped by line); the
/// word actually demanded is always included even if the annotation omits it.
/// Otherwise the plan is the whole demanded line.
pub fn flex_fetch_plan(regions: &RegionTable, addr: Addr, line_bytes: u64) -> FlexPlan {
    let Some(region) = regions.region_of(addr) else {
        return FlexPlan::whole_line(addr, line_bytes);
    };
    let Some(comm) = region.comm.as_ref() else {
        return FlexPlan::whole_line(addr, line_bytes);
    };
    plan_from_comm(region, comm, addr, line_bytes)
}

fn plan_from_comm(region: &RegionInfo, comm: &CommRegion, addr: Addr, line_bytes: u64) -> FlexPlan {
    let mut lines = comm.useful_words_by_line(region.base, addr, line_bytes);
    // Guarantee the demanded word is part of the plan.
    let demand_line = LineAddr::containing(addr, line_bytes);
    let demand_word = addr.word_in_line(line_bytes);
    if let Some((_, mask)) = lines.iter_mut().find(|(l, _)| *l == demand_line) {
        mask.insert(demand_word);
    } else {
        lines.push((demand_line, WordMask::single(demand_word)));
        lines.sort_by_key(|(l, _)| l.byte());
    }
    FlexPlan { lines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_types::{CommRegion, RegionId, RegionInfo};

    fn table_with_comm(object_bytes: u64, useful: Vec<u64>) -> RegionTable {
        let mut t = RegionTable::new();
        let mut r = RegionInfo::plain(RegionId(1), "structs", Addr::new(0x1_0000), 1 << 20);
        r.comm = Some(CommRegion {
            object_bytes,
            useful_offsets: useful,
        });
        t.insert(r);
        t.insert(RegionInfo::plain(
            RegionId(2),
            "plain",
            Addr::new(0x20_0000),
            1 << 20,
        ));
        t
    }

    #[test]
    fn plain_region_falls_back_to_whole_line() {
        let t = table_with_comm(96, vec![0, 8]);
        let plan = flex_fetch_plan(&t, Addr::new(0x20_0040), 64);
        assert_eq!(plan.lines.len(), 1);
        assert_eq!(plan.total_words(), 16);
        assert_eq!(plan, FlexPlan::whole_line(Addr::new(0x20_0040), 64));
    }

    #[test]
    fn unknown_address_falls_back_to_whole_line() {
        let t = table_with_comm(96, vec![0]);
        let plan = flex_fetch_plan(&t, Addr::new(0x900_0000), 64);
        assert_eq!(plan.total_words(), 16);
    }

    #[test]
    fn comm_region_selects_only_useful_words() {
        // 96-byte objects, useful: 4 words at offsets 0, 8, 16, 80.
        let t = table_with_comm(96, vec![0, 8, 16, 80]);
        // Object 0 starts at the region base (0x1_0000, line-aligned).
        let plan = flex_fetch_plan(&t, Addr::new(0x1_0000), 64);
        assert_eq!(plan.total_words(), 4);
        assert_eq!(plan.lines.len(), 2, "offset 80 lands on the second line");
    }

    #[test]
    fn demanded_word_is_always_included() {
        let t = table_with_comm(96, vec![0, 8]);
        // Demand a word the annotation does not list (offset 40 of object 0).
        let plan = flex_fetch_plan(&t, Addr::new(0x1_0000 + 40), 64);
        assert_eq!(plan.total_words(), 3);
    }

    #[test]
    fn packets_respect_payload_limit() {
        let noc = NocConfig::default();
        let t = table_with_comm(192, (0..24).map(|w| w * 4).collect());
        let plan = flex_fetch_plan(&t, Addr::new(0x1_0000), 64);
        assert_eq!(plan.total_words(), 24);
        let packets = plan.packets(&noc);
        assert_eq!(
            packets,
            vec![16, 8],
            "24 words split into a full and a partial packet"
        );
        assert_eq!(
            FlexPlan::whole_line(Addr::new(0), 64).packets(&noc),
            vec![16]
        );
    }

    #[test]
    fn object_in_middle_of_region_resolves_to_its_own_lines() {
        let t = table_with_comm(96, vec![0, 8, 16, 80]);
        // Object 100 begins at base + 9600.
        let addr = Addr::new(0x1_0000 + 9600 + 16);
        let plan = flex_fetch_plan(&t, addr, 64);
        assert_eq!(plan.total_words(), 4);
        for (line, _) in &plan.lines {
            assert!(line.byte() >= 0x1_0000 + 9600 - 64);
            assert!(line.byte() < 0x1_0000 + 9600 + 96 + 64);
        }
    }
}
