//! Deterministic discrete-event queue for the flit-level network.
//!
//! The wormhole simulator advances by processing flit-traversal events in
//! global time order. Byte-reproducibility requires a *total* order on
//! events: two events scheduled for the same cycle are tie-broken by a
//! monotone sequence number assigned at push time, so the pop order — and
//! therefore every arbitration decision downstream of it — is a pure
//! function of the push history. The sequence counter never resets, making
//! the order total across the whole run, not just within one drain.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tw_types::Cycle;

/// One scheduled event: a payload due at a cycle, with its tie-break rank.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: Cycle,
    seq: u64,
    payload: T,
}

// The heap is a max-heap; reverse the (time, seq) comparison so `pop`
// yields the earliest event, lowest sequence number first on ties.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

/// A priority queue of events with a deterministic total pop order.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    high_water: usize,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            high_water: 0,
        }
    }

    /// Schedules `payload` at `time`. Events pushed later sort after events
    /// pushed earlier at the same cycle.
    pub fn push(&mut self, time: Cycle, payload: T) {
        self.seq += 1;
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Pops the earliest event — smallest `(time, seq)` pair.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Whether any events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Total events ever scheduled (the tie-break counter).
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Deepest the queue has ever been — the run's event-backlog high-water
    /// mark. Observer lane: nothing inside the simulation reads this.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_push_order_tie_break() {
        let mut q = EventQueue::new();
        q.push(5, "late");
        q.push(1, "first-at-1");
        q.push(1, "second-at-1");
        q.push(0, "earliest");
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0, "earliest"),
                (1, "first-at-1"),
                (1, "second-at-1"),
                (5, "late"),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.scheduled(), 4);
    }

    #[test]
    fn sequence_counter_is_monotone_across_drains() {
        let mut q = EventQueue::new();
        q.push(3, 'a');
        q.pop();
        q.push(3, 'b');
        assert_eq!(q.scheduled(), 2, "seq survives a drain");
    }

    #[test]
    fn high_water_tracks_peak_depth_not_current() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.push(1, 'a');
        q.push(2, 'b');
        q.push(3, 'c');
        q.pop();
        q.pop();
        q.push(4, 'd');
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 3, "peak was three pending events");
    }
}
