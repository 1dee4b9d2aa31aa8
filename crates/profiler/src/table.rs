//! The presence-tracked dense table behind every report.

use std::ops::AddAssign;

/// `N` accumulators indexed by a flat enum-derived index, each with a
/// presence bit that tells "never recorded" from "recorded as zero", so a
/// table rebuilt from its present entries equals it bit for bit (the result
/// cache's round trip). Invariant: an absent slot holds `T::default()`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table<T, const N: usize> {
    values: [T; N],
    present: [bool; N],
}

impl<T: Copy + Default, const N: usize> Default for Table<T, N> {
    fn default() -> Self {
        Table {
            values: [T::default(); N],
            present: [false; N],
        }
    }
}

impl<T: Copy + Default + AddAssign, const N: usize> Table<T, N> {
    /// The value of slot `i` (`T::default()` when absent).
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> T {
        self.values[i]
    }

    /// Marks slot `i` present and adds `v` to it.
    #[inline(always)]
    pub(crate) fn add(&mut self, i: usize, v: T) {
        self.present[i] = true;
        self.values[i] += v;
    }

    /// Adds every present entry of `other`, in index order.
    pub(crate) fn merge(&mut self, other: &Self) {
        for (i, v) in other.entries() {
            self.add(i, v);
        }
    }

    /// The present entries, in ascending index order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        (0..N)
            .filter(|&i| self.present[i])
            .map(|i| (i, self.values[i]))
    }

    /// A table holding `entries` verbatim (later duplicates overwrite): the
    /// inverse of [`Table::entries`].
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (usize, T)>) -> Self {
        let mut t = Table::default();
        for (i, v) in entries {
            t.present[i] = true;
            t.values[i] = v;
        }
        t
    }
}

impl<const N: usize> Table<f64, N> {
    /// `n ≥ 1` calls of [`Table::add`] with `v`: the same `n` sequential
    /// additions — `n × v` added once would round differently whenever `v`
    /// is not dyadic — on a register rather than through the array.
    #[inline(always)]
    pub(crate) fn add_n(&mut self, i: usize, v: f64, n: u32) {
        debug_assert!(n >= 1);
        self.present[i] = true;
        let mut sum = self.values[i] + v;
        for _ in 1..n {
            sum += v;
        }
        self.values[i] = sum;
    }
}
