//! Flit-hop accounting by traffic class and figure bucket.

use crate::table::Table;
use tw_types::{MessageClass, TrafficBucket};

const CLASSES: usize = 4;
const BUCKETS: usize = 12;

#[inline(always)]
fn idx(class: MessageClass, bucket: TrafficBucket) -> usize {
    // Class-major, bucket-minor — ascending flat index reproduces the
    // `(MessageClass, TrafficBucket)` tuple-Ord iteration order of the
    // `BTreeMap` this table used to be.
    class as usize * BUCKETS + bucket as usize
}

/// Accumulated flit-hops, organized the way Figures 5.1a–5.1d present them.
///
/// Control flit-hops (requests, response headers, protocol overhead,
/// writeback control) are recorded directly by the simulator as messages are
/// sent; response *data* flit-hops are recorded once the carried words have
/// been classified by the waste profilers.
///
/// Stored as a dense `class × bucket` table (this is written on every
/// message send) whose presence bits preserve the old map semantics — `add`
/// drops zeros, `from_entries` keeps them verbatim — so equality and the
/// result cache's raw-entry round trip behave exactly as before.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficBreakdown {
    hops: Table<f64, { CLASSES * BUCKETS }>,
}

impl TrafficBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        TrafficBreakdown::default()
    }

    /// Adds `flit_hops` to `(class, bucket)`.
    #[inline]
    pub fn add(&mut self, class: MessageClass, bucket: TrafficBucket, flit_hops: f64) {
        if flit_hops != 0.0 {
            self.hops.add(idx(class, bucket), flit_hops);
        }
    }

    /// Flit-hops recorded for `(class, bucket)`.
    pub fn get(&self, class: MessageClass, bucket: TrafficBucket) -> f64 {
        self.hops.get(idx(class, bucket))
    }

    // The three totals below sum *present* entries only, via `Iterator::sum`
    // (which folds from -0.0). This bit-exactly reproduces the old BTreeMap
    // sums — in particular an empty class sums to -0.0, and that sign
    // survives normalization into the figure JSON ("-0" for a class with no
    // traffic). Summing the dense array directly would fold the absent +0.0
    // slots in and flip that sign.

    /// Total flit-hops for one message class.
    pub fn class_total(&self, class: MessageClass) -> f64 {
        self.iter()
            .filter(|(c, _, _)| *c == class)
            .map(|(_, _, h)| h)
            .sum()
    }

    /// Total flit-hops across all classes.
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, _, h)| h).sum()
    }

    /// Total flit-hops in waste buckets.
    pub fn waste_total(&self) -> f64 {
        self.iter()
            .filter(|(_, b, _)| b.is_waste())
            .map(|(_, _, h)| h)
            .sum()
    }

    /// Fraction of all traffic that is waste-bucket data (0 when empty).
    pub fn waste_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.waste_total() / t
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &TrafficBreakdown) {
        self.hops.merge(&other.hops);
    }

    /// Iterates over all `(class, bucket, flit_hops)` entries in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageClass, TrafficBucket, f64)> + '_ {
        self.hops.entries().map(|(i, h)| {
            (
                MessageClass::ALL[i / BUCKETS],
                TrafficBucket::ALL[i % BUCKETS],
                h,
            )
        })
    }

    /// Rebuilds a breakdown from raw `(class, bucket, flit_hops)` entries,
    /// inserting them verbatim (no zero-dropping, later duplicates
    /// overwrite). `from_entries(x.iter())` is bit-identical to `x`, which
    /// is what the experiment result cache's round-trip guarantee rests on.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (MessageClass, TrafficBucket, f64)>,
    ) -> Self {
        TrafficBreakdown {
            hops: Table::from_entries(entries.into_iter().map(|(c, b, h)| (idx(c, b), h))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut t = TrafficBreakdown::new();
        t.add(MessageClass::Load, TrafficBucket::ReqCtl, 10.0);
        t.add(MessageClass::Load, TrafficBucket::RespL1Used, 20.0);
        t.add(MessageClass::Load, TrafficBucket::RespL1Waste, 5.0);
        t.add(MessageClass::Store, TrafficBucket::ReqCtl, 7.0);
        assert_eq!(t.get(MessageClass::Load, TrafficBucket::ReqCtl), 10.0);
        assert_eq!(t.class_total(MessageClass::Load), 35.0);
        assert_eq!(t.class_total(MessageClass::Writeback), 0.0);
        assert_eq!(t.total(), 42.0);
        assert_eq!(t.waste_total(), 5.0);
        assert!((t.waste_fraction() - 5.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn zero_additions_are_dropped() {
        let mut t = TrafficBreakdown::new();
        t.add(MessageClass::Load, TrafficBucket::ReqCtl, 0.0);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.waste_fraction(), 0.0);
        assert_eq!(t, TrafficBreakdown::new());
    }

    #[test]
    fn merge_sums_entries() {
        let mut a = TrafficBreakdown::new();
        a.add(MessageClass::Load, TrafficBucket::ReqCtl, 1.0);
        let mut b = TrafficBreakdown::new();
        b.add(MessageClass::Load, TrafficBucket::ReqCtl, 2.0);
        b.add(MessageClass::Overhead, TrafficBucket::Overhead, 3.0);
        a.merge(&b);
        assert_eq!(a.get(MessageClass::Load, TrafficBucket::ReqCtl), 3.0);
        assert_eq!(a.get(MessageClass::Overhead, TrafficBucket::Overhead), 3.0);
    }

    #[test]
    fn raw_entries_round_trip_bit_exactly() {
        let mut t = TrafficBreakdown::new();
        t.add(MessageClass::Load, TrafficBucket::ReqCtl, 1.25);
        t.add(MessageClass::Overhead, TrafficBucket::Overhead, 0.1 + 0.2);
        assert_eq!(TrafficBreakdown::from_entries(t.iter()), t);
    }

    #[test]
    fn verbatim_zero_entries_survive_the_round_trip() {
        // The cache layer serializes whatever iter() yields and rebuilds with
        // from_entries; an explicit zero entry must stay distinguishable from
        // an absent one.
        let t =
            TrafficBreakdown::from_entries([(MessageClass::Store, TrafficBucket::RespCtl, 0.0)]);
        assert_eq!(t.iter().count(), 1);
        assert_ne!(t, TrafficBreakdown::new());
        assert_eq!(TrafficBreakdown::from_entries(t.iter()), t);
    }

    #[test]
    fn empty_class_total_is_negative_zero() {
        // `Iterator::sum` for f64 folds from -0.0, so the old BTreeMap
        // implementation returned -0.0 for a class with no entries — and
        // that sign reaches BENCH_results.json through normalization
        // (LU/MESI has zero store traffic and prints "-0"). The dense
        // rewrite must not flip it by summing absent +0.0 slots.
        let mut t = TrafficBreakdown::new();
        assert!(t.total().is_sign_negative());
        assert!(t.class_total(MessageClass::Store).is_sign_negative());
        assert!(t.waste_total().is_sign_negative());
        t.add(MessageClass::Load, TrafficBucket::ReqCtl, 10.0);
        assert!(t.class_total(MessageClass::Store).is_sign_negative());
        assert_eq!(t.total(), 10.0);
    }

    #[test]
    fn iter_is_stable_and_complete() {
        let mut t = TrafficBreakdown::new();
        t.add(MessageClass::Writeback, TrafficBucket::WbMemUsed, 4.0);
        t.add(MessageClass::Load, TrafficBucket::RespCtl, 1.0);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries.len(), 2);
        // (class, bucket) tuple-Ord order: Load before Writeback.
        assert_eq!(entries[0].0, MessageClass::Load);
        let sum: f64 = entries.iter().map(|(_, _, h)| h).sum();
        assert_eq!(sum, 5.0);
    }
}
