//! The engine's event queue: a calendar (bucket-wheel) priority queue with a
//! binary-heap overflow, ordered by `(timestamp, insertion seq)`.
//!
//! The discrete-event engine's schedule has a very particular shape: the vast
//! majority of pending events — `LinkDone` completions, `PollSend` pacing
//! wake-ups, `HopArrival`/`AckArrival` propagations — sit within a few
//! hundred microseconds to a few tens of milliseconds of the current virtual
//! time, while a handful of long timers (RTOs, rate-schedule transitions,
//! far-future poll wake-ups) sit seconds out.  A comparison-based heap pays
//! O(log n) pointer-chasing sifts per operation over that whole population;
//! a calendar queue instead hashes each event by time into a fixed wheel of
//! short-horizon buckets (O(1) push, near-O(1) pop) and only spills the rare
//! far-future event into a conventional heap.
//!
//! Ordering contract — identical to the `BinaryHeap<Reverse<EventEntry>>` it
//! replaces, and pinned by the equivalence proptest in this module and by the
//! recorder fingerprints: events pop in strictly increasing `(at, seq)`
//! order, where `seq` is the caller's monotonically increasing insertion
//! counter.  Ties on `at` therefore resolve by insertion order, exactly as
//! before.
//!
//! Precondition (the engine's `schedule` guarantees it by clamping with
//! `at.max(now)`): a pushed timestamp is never smaller than the timestamp of
//! the last popped event.  Violations in release builds are clamped into the
//! current cursor bucket, which preserves pop ordering for any timestamp no
//! older than the wheel's cursor bucket start.

use nimbus_core_types::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 2^18 ns ≈ 262 µs, a little
/// under the serialization time of one 1500 B segment at 48 Mbit/s — so the
/// dense `LinkDone`/`PollSend` cluster lands in the first handful of buckets
/// ahead of the cursor.
const BUCKET_SHIFT: u32 = 18;
/// Number of wheel buckets (power of two).  Horizon = 1024 · 262 µs ≈ 268 ms,
/// which covers propagation delays, the 10 ms tick and the 100 ms recorder
/// sample; only RTO-scale timers and rate-schedule transitions overflow.
const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;

#[inline]
fn bucket_no(at: Time) -> u64 {
    at.0 >> BUCKET_SHIFT
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Time,
    seq: u64,
    item: T,
}

/// Overflow-heap entry ordered by `(at, seq)` only (the payload does not
/// participate in comparisons; `seq` is unique, so equality is well defined).
#[derive(Debug)]
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

/// A monotone calendar queue: `(Time, seq, payload)` triples pop in
/// `(at, seq)` order under the monotone-push precondition documented above.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Fixed wheel of unsorted buckets; an event whose absolute bucket number
    /// is `b` lives in slot `b & BUCKET_MASK`.  Invariant: every wheel event
    /// has bucket number in `[cursor, cursor + NUM_BUCKETS)`, so slots map
    /// one-to-one onto live bucket numbers.
    buckets: Vec<Vec<Entry<T>>>,
    /// Absolute bucket number of the last popped event (the wheel's lower
    /// edge).  Pushes beyond `cursor + NUM_BUCKETS` spill to `overflow`.
    cursor: u64,
    /// Lowest bucket number that may hold a wheel event — a scan hint that
    /// makes successive pops skip the empty region below the next cluster
    /// without rescanning it from `cursor` every time.
    hint: u64,
    wheel_len: usize,
    /// Far-future events, min-ordered by `(at, seq)`.  Events are *not*
    /// migrated back into the wheel as the cursor advances; `pop` simply
    /// compares the wheel minimum against the overflow minimum, which is
    /// cheap because the overflow population is tiny (timers, not traffic).
    overflow: BinaryHeap<Reverse<OverflowEntry<T>>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the cursor at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: std::iter::repeat_with(Vec::new).take(NUM_BUCKETS).collect(),
            cursor: 0,
            hint: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Total number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert an event.  `seq` must be unique and increasing across pushes
    /// (the engine's insertion counter); `at` must be no older than the last
    /// popped timestamp.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        debug_assert!(bucket_no(at) >= self.cursor, "push into the popped past");
        // Clamp pathological pasts into the cursor bucket (see module docs);
        // the engine never triggers this because `schedule` clamps to `now`.
        let b = bucket_no(at).max(self.cursor);
        if b >= self.cursor + NUM_BUCKETS as u64 {
            self.overflow
                .push(Reverse(OverflowEntry(Entry { at, seq, item })));
            return;
        }
        self.buckets[(b & BUCKET_MASK) as usize].push(Entry { at, seq, item });
        self.wheel_len += 1;
        if b < self.hint {
            self.hint = b;
        }
    }

    /// Remove and return the earliest event by `(at, seq)`.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        if self.wheel_len == 0 {
            return self.pop_overflow();
        }
        // Find the first non-empty bucket at or above the hint.  Bounded by
        // NUM_BUCKETS because the wheel is non-empty and every wheel event
        // lies within the horizon.
        let mut b = self.hint.max(self.cursor);
        let slot = loop {
            let slot = (b & BUCKET_MASK) as usize;
            if !self.buckets[slot].is_empty() {
                break slot;
            }
            b += 1;
        };
        self.hint = b;
        // Unsorted bucket: linear min-scan by (at, seq).  Buckets are short —
        // one bucket spans ~262 µs of virtual time.
        let bucket = &self.buckets[slot];
        let mut min_idx = 0;
        let mut min_key = (bucket[0].at, bucket[0].seq);
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let key = (e.at, e.seq);
            if key < min_key {
                min_key = key;
                min_idx = i;
            }
        }
        // The overflow minimum can precede the wheel minimum only while the
        // wheel's next cluster sits beyond a long-dormant timer.
        if let Some(Reverse(top)) = self.overflow.peek() {
            if (top.0.at, top.0.seq) < min_key {
                return self.pop_overflow();
            }
        }
        let entry = self.buckets[slot].swap_remove(min_idx);
        self.wheel_len -= 1;
        self.cursor = b;
        Some((entry.at, entry.seq, entry.item))
    }

    fn pop_overflow(&mut self) -> Option<(Time, u64, T)> {
        let Reverse(OverflowEntry(entry)) = self.overflow.pop()?;
        let b = bucket_no(entry.at);
        // Advancing the cursor past wheel events is impossible here: every
        // wheel event's (at, seq) exceeded the overflow minimum, so its
        // bucket number is >= b.
        self.cursor = self.cursor.max(b);
        if self.hint < self.cursor {
            self.hint = self.cursor;
        }
        Some((entry.at, entry.seq, entry.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: the BinaryHeap the calendar queue replaced.
    struct HeapQueue<T> {
        heap: BinaryHeap<Reverse<OverflowEntry<T>>>,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: Time, seq: u64, item: T) {
            self.heap
                .push(Reverse(OverflowEntry(Entry { at, seq, item })));
        }
        fn pop(&mut self) -> Option<(Time, u64, T)> {
            self.heap
                .pop()
                .map(|Reverse(OverflowEntry(e))| (e.at, e.seq, e.item))
        }
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = CalendarQueue::new();
        q.push(Time(100), 1, "a");
        q.push(Time(50), 2, "b");
        q.push(Time(100), 3, "c");
        q.push(Time(50), 4, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, i)| i).collect();
        assert_eq!(order, ["b", "d", "a", "c"]);
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        let horizon = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        q.push(Time(horizon * 10), 1, "far");
        q.push(Time(5), 2, "near");
        q.push(Time(horizon * 3), 3, "mid");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("near"));
        // After the cursor jumps to the overflow event, pushes near it land
        // in the wheel again.
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("mid"));
        q.push(Time(horizon * 3 + 7), 4, "after-mid");
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("after-mid"));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("far"));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_monotone_pushes_match_heap_reference() {
        // A deterministic LCG drives an interleaved push/pop schedule whose
        // pushed timestamps are always >= the last popped timestamp — the
        // engine's contract.  Both queues must pop identical sequences.
        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = (Vec::new(), Vec::new());
        for _ in 0..20_000 {
            let r = next();
            if r % 100 < 60 {
                // Push at now + jitter: mostly short horizon, occasionally far.
                let jitter = match r % 10 {
                    0 => next() % (1 << 30),     // ~1 s out: overflow
                    1..=2 => next() % (1 << 24), // ~16 ms out
                    _ => next() % (1 << 19),     // within a couple of buckets
                };
                // Exercise same-timestamp ties frequently.
                let at = Time(now + (jitter / 7) * 7);
                seq += 1;
                cal.push(at, seq, seq);
                heap.push(at, seq, seq);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a.is_some(), b.is_some());
                if let (Some(x), Some(y)) = (a, b) {
                    assert_eq!(x, y);
                    now = x.0 .0;
                    popped.0.push(x);
                    popped.1.push(y);
                }
            }
        }
        while let Some(x) = cal.pop() {
            let y = heap.pop().expect("heap drained early");
            assert_eq!(x, y);
            popped.0.push(x);
            popped.1.push(y);
        }
        assert!(heap.pop().is_none());
        assert_eq!(popped.0, popped.1);
        assert!(popped.0.len() > 1000, "schedule exercised too few pops");
    }
}
