//! The event queue at the heart of the discrete-event simulator.
//!
//! Events are ordered by their scheduled [`SimTime`]; ties break on insertion
//! order (FIFO), which keeps simulations deterministic even when many events
//! share a timestamp (e.g. a burst of request completions).
//!
//! # Packed keys
//!
//! Every pending event carries one `u128` key, `(time bits << 64) | seq`,
//! where `seq` is the queue's insertion counter. A [`SimTime`] is always
//! finite and non-negative, and for such `f64`s the IEEE-754 bit pattern
//! orders exactly like the value, so comparing keys as integers orders by
//! time first and insertion second. `-0.0` is canonicalised to `+0.0`
//! before packing (its sign bit would otherwise sort it after every
//! positive time), so ties at zero still break by insertion order, exactly
//! as `SimTime`'s `Ord` does. The time is decoded back from the key, which
//! keeps a pending entry at 32 bytes for a small event type.
//!
//! # The source slot
//!
//! A recurring source keeps exactly one event pending at a time: the
//! serving DES schedules the next arrival when the current one pops.
//! [`EventQueue::schedule_source`] parks such an event in one slot outside
//! the heap. It draws its key from the same counter as
//! [`EventQueue::schedule`], and [`EventQueue::pop`] and
//! [`EventQueue::peek_time`] take whichever of the slot and the heap top
//! has the smaller key. Keys are unique, so the pop order is exactly that
//! of one heap holding every event; the slot only spares the recurring
//! source the heap's push and sift.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending event and its packed `(time bits << 64) | seq` key.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key on top.
        other.key.cmp(&self.key)
    }
}

/// The instant a packed key encodes.
fn key_time(key: u128) -> SimTime {
    SimTime::from_valid_bits((key >> 64) as u64)
}

/// Priority queue of future events, keyed by simulated time with
/// deterministic FIFO tie-breaking, plus one out-of-heap slot for a
/// recurring source (see the module docs).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    source: Option<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            source: None,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last event popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packs `event` at `at` with the next insertion number.
    fn entry(&mut self, at: SimTime, event: E) -> Entry<E> {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        // `+ 0.0` turns -0.0 into +0.0 and leaves every other value as is.
        let bits = (at.as_secs() + 0.0).to_bits();
        let key = (u128::from(bits) << 64) | u128::from(self.next_seq);
        self.next_seq += 1;
        Entry { key, event }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the past cannot be
    /// rescheduled.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.heap.push(entry);
    }

    /// Schedules `event` after `delay` from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Schedules the next event of the recurring source into the
    /// out-of-heap slot. The pop order is the same as [`Self::schedule`]'s;
    /// if the slot is still occupied, the event goes to the heap instead.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_source(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        if self.source.is_none() {
            self.source = Some(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// True when the source slot holds the next event to pop.
    fn source_is_next(&self) -> bool {
        match (&self.source, self.heap.peek()) {
            (Some(s), Some(h)) => s.key < h.key,
            (source, _) => source.is_some(),
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { key, event } = if self.source_is_next() {
            self.source.take()
        } else {
            self.heap.pop()
        }?;
        let at = key_time(key);
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = if self.source_is_next() {
            self.source.as_ref()
        } else {
            self.heap.peek()
        };
        next.map(|e| key_time(e.key))
    }

    /// Number of pending events, the source slot included.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.source.is_some())
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.source.is_none()
    }

    /// Drops all pending events, the source slot's included, without
    /// advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.source = None;
    }

    /// Returns the queue to its initial state (clock at zero, no events,
    /// empty source slot) while keeping the heap's allocation, so one queue
    /// can be reused across many simulation windows without reallocating.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), 1);
        q.pop();
        q.schedule_in(SimDuration::from_secs(3.0), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn reset_allows_reuse_from_time_zero() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), 1);
        q.pop();
        q.reset();
        assert_eq!(q.now(), SimTime::ZERO);
        // Scheduling before the old clock is legal again after reset.
        q.schedule(SimTime::from_secs(1.0), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 2)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn source_slot_counts_toward_len_and_is_cleared() {
        let mut q = EventQueue::new();
        q.schedule_source(SimTime::from_secs(1.0), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        q.schedule(SimTime::from_secs(2.0), 1);
        assert_eq!(q.len(), 2);
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);

        // reset empties the slot and restarts the insertion counter: a
        // slot event scheduled second still pops second on a tie.
        q.schedule_source(SimTime::from_secs(3.0), 2);
        q.pop();
        q.schedule_source(SimTime::from_secs(4.0), 3);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        let t = SimTime::from_secs(1.0);
        q.schedule(t, 4);
        q.schedule_source(t, 5);
        q.schedule(t, 6);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![4, 5, 6]);
    }

    #[test]
    fn negative_zero_ties_with_zero_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(0.0), 0);
        q.schedule(SimTime::from_secs(-0.0), 1);
        q.schedule_source(SimTime::from_secs(-0.0), 2);
        q.schedule(SimTime::from_secs(0.0), 3);
        q.schedule(SimTime::from_secs(f64::MIN_POSITIVE), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    /// Random interleavings of every scheduling call and `pop`, checked
    /// against a reference that sorts by (time, insertion order). Times
    /// sit on a coarse grid so exact ties are common, `-0.0` is mixed in
    /// while the clock is at zero, and the source slot is often
    /// rescheduled while still occupied.
    #[test]
    fn random_interleavings_match_reference_order() {
        let mut occupied_reschedules = 0;
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut q = EventQueue::new();
            // (time, insertion number, event id) of every pending event.
            let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut inserted = 0u64;
            let next = |reference: &[(SimTime, u64, u32)]| {
                (0..reference.len()).min_by(|&a, &b| {
                    let (ta, sa, _) = reference[a];
                    let (tb, sb, _) = reference[b];
                    ta.cmp(&tb).then(sa.cmp(&sb))
                })
            };
            let pop_and_check = |q: &mut EventQueue<u32>, reference: &mut Vec<_>| {
                let want = next(reference).map(|i| reference.remove(i));
                let got = q.pop();
                assert_eq!(got, want.map(|(t, _, e)| (t, e)));
                if let Some((t, _)) = got {
                    assert!(t.as_secs().is_sign_positive(), "-0.0 must decode as +0.0");
                }
            };
            for id in 0..300u32 {
                let delay = SimDuration::from_secs(0.25 * rng.below(4) as f64);
                let at = if q.now() == SimTime::ZERO && rng.chance(0.3) {
                    SimTime::from_secs(-0.0)
                } else {
                    q.now() + delay
                };
                let at = match rng.below(5) {
                    0 => {
                        q.schedule(at, id);
                        at
                    }
                    1 => {
                        let at = q.now() + delay;
                        q.schedule_in(delay, id);
                        at
                    }
                    2 => {
                        occupied_reschedules += usize::from(q.source.is_some());
                        q.schedule_source(at, id);
                        at
                    }
                    _ => {
                        pop_and_check(&mut q, &mut reference);
                        continue;
                    }
                };
                reference.push((at, inserted, id));
                inserted += 1;
                assert_eq!(q.len(), reference.len());
                assert_eq!(q.peek_time(), next(&reference).map(|i| reference[i].0));
            }
            while !reference.is_empty() {
                pop_and_check(&mut q, &mut reference);
                assert_eq!(q.len(), reference.len());
            }
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
        assert!(
            occupied_reschedules > 100,
            "the occupied-slot path must be exercised"
        );
    }
}
