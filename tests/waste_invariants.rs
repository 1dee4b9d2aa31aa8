//! Property-based integration tests of the waste-characterization invariants
//! (paper §4.1) on randomized synthetic traces.

use denovo_waste::{SimConfig, Simulator};
use proptest::prelude::*;
use tw_types::{Addr, ProtocolKind, Record, RegionId, RegionInfo, RegionTable, TraceOp};
use tw_workloads::{BenchmarkKind, Workload};

/// Builds a 16-core workload from a per-core list of (is_store, slot) pairs
/// over a small shared array, with a barrier between two phases.
fn synthetic_workload(ops: Vec<Vec<(bool, u16)>>) -> Workload {
    let mut regions = RegionTable::new();
    let base = 0x10_0000u64;
    regions.insert(RegionInfo::plain(
        RegionId(1),
        "shared",
        Addr::new(base),
        1 << 20,
    ));
    let traces = ops
        .into_iter()
        .map(|core_ops| {
            let mut trace = Vec::new();
            let half = core_ops.len() / 2;
            for (i, (is_store, slot)) in core_ops.into_iter().enumerate() {
                if i == half {
                    trace.push(TraceOp::barrier(0));
                }
                let addr = Addr::new(base + slot as u64 * 4);
                trace.push(if is_store {
                    TraceOp::store(addr, RegionId(1))
                } else {
                    TraceOp::load(addr, RegionId(1))
                });
            }
            if !trace
                .iter()
                .any(|op| matches!(op.view(), Record::Barrier { .. }))
            {
                trace.insert(0, TraceOp::barrier(0));
            }
            trace.push(TraceOp::barrier(1));
            trace
        })
        .collect();
    Workload {
        kind: BenchmarkKind::Lu,
        input: "synthetic".into(),
        regions,
        traces,
    }
}

fn core_ops() -> impl Strategy<Value = Vec<(bool, u16)>> {
    prop::collection::vec((any::<bool>(), 0u16..4096), 2..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every word fetched from memory is eventually classified (no word is
    /// lost by the profiler), and the used words never exceed the program's
    /// loads — for both protocol families, on arbitrary access patterns.
    #[test]
    fn waste_accounting_is_conservative(ops in prop::collection::vec(core_ops(), 16)) {
        let loads: u64 = ops
            .iter()
            .flatten()
            .filter(|(is_store, _)| !is_store)
            .count() as u64;
        let workload = synthetic_workload(ops);
        workload.assert_well_formed();

        for protocol in [ProtocolKind::Mesi, ProtocolKind::DBypFull] {
            let report = Simulator::new(SimConfig::new(protocol), &workload).run();
            let mem = &report.mem_waste;
            let used = mem.words(tw_profiler::WasteCategory::Used);
            prop_assert!(
                used <= loads,
                "{protocol}: {used} used memory words but the program only issued {loads} loads"
            );
            // Traffic ledger sanity: waste never exceeds the total.
            prop_assert!(report.traffic.waste_total() <= report.traffic.total() + 1e-9);
            // Time attribution is non-negative and bounded by cores x makespan.
            prop_assert!(report.time.total() <= report.total_cycles * 16);
        }
    }

    /// MESI and DeNovo agree on how many words the *program* uses: the Used
    /// word count at the L1 level is protocol-independent for loads that hit
    /// fetched data, so the two protocols may differ only in wasted words,
    /// never by manufacturing extra used words beyond the issued loads.
    #[test]
    fn used_words_never_exceed_issued_loads(ops in prop::collection::vec(core_ops(), 16)) {
        let loads: u64 = ops
            .iter()
            .flatten()
            .filter(|(is_store, _)| !is_store)
            .count() as u64;
        let workload = synthetic_workload(ops);
        for protocol in [ProtocolKind::Mesi, ProtocolKind::DeNovo, ProtocolKind::DFlexL2] {
            let report = Simulator::new(SimConfig::new(protocol), &workload).run();
            let l1_used = report.l1_waste.words(tw_profiler::WasteCategory::Used);
            prop_assert!(
                l1_used <= loads,
                "{protocol}: {l1_used} used L1 words exceeds {loads} issued loads"
            );
        }
    }
}
