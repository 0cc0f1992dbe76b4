//! A stable calendar-queue event calendar.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Width of the calendar window in cycles (a power of two).
const WINDOW: usize = 1 << 10;
/// Maps a cycle to its window slot.
const MASK: Cycle = WINDOW as Cycle - 1;
/// Words of the slot-occupancy bitmap.
const WORDS: usize = WINDOW / 64;
/// End-of-list marker for slab links.
const NIL: usize = usize::MAX;

/// An event calendar ordered by firing time.
///
/// Events pushed with the same firing time pop in insertion (FIFO) order,
/// which keeps simulations deterministic regardless of queue internals.
///
/// Internally a calendar queue: a window of `WINDOW` per-cycle FIFO slots
/// starting at the last popped time, with a `u64` occupancy bitmap so
/// [`pop`](Self::pop) skips empty slots a word at a time. Events beyond
/// the window, or earlier than its start, wait in a `(time, seq)` binary
/// heap; the far ones move into their slot once the window reaches them.
/// Pop order is exactly that of a `(time, seq)` priority queue.
///
/// # Examples
///
/// ```
/// use sim_core::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(3, "c");
/// q.push(1, "a");
/// q.push(3, "d"); // same time as "c": FIFO order preserved
/// assert_eq!(q.pop(), Some((1, "a")));
/// assert_eq!(q.pop(), Some((3, "c")));
/// assert_eq!(q.pop(), Some((3, "d")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Window start: the latest popped time (it never moves backwards).
    base: Cycle,
    /// Per-cycle FIFOs of the window `[base, base + WINDOW)`, at
    /// `time & MASK`.
    slots: Box<[Slot; WINDOW]>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Storage for windowed events; free nodes chain from `free`.
    nodes: Vec<Node<E>>,
    free: usize,
    /// Events held in the window.
    in_window: usize,
    /// Events outside the window, earliest `(time, seq)` on top.
    far: BinaryHeap<Entry<E>>,
    seq: u64,
}

/// Head and tail of one slot's FIFO in the node slab.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: usize,
    tail: usize,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

#[derive(Debug, Clone)]
struct Node<E> {
    event: Option<E>,
    next: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            base: 0,
            slots: Box::new([EMPTY_SLOT; WINDOW]),
            occupied: [0; WORDS],
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            in_window: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn push(&mut self, time: Cycle, event: E) {
        let seq = self.seq;
        self.seq += 1;
        if self.in_window_range(time) {
            self.push_slot(time, event);
        } else {
            self.far.push(Entry { time, seq, event });
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Events earlier than the window precede all of it; with the window
        // empty, the heap top is the earliest event outright.
        if self.in_window == 0 || self.far.peek().is_some_and(|e| e.time < self.base) {
            let e = self.far.pop()?;
            self.advance(e.time);
            return Some((e.time, e.event));
        }
        let slot = self.first_slot()?;
        let time = self.slot_time(slot);
        self.advance(time);
        let event = self.pop_slot(slot)?;
        Some((time, event))
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if let Some(e) = self.far.peek() {
            if self.in_window == 0 || e.time < self.base {
                return Some(e.time);
            }
        }
        self.first_slot().map(|slot| self.slot_time(slot))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_window + self.far.len()
    }

    /// Whether the calendar holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.occupied = [0; WORDS];
        self.nodes.clear();
        self.free = NIL;
        self.in_window = 0;
        self.far.clear();
    }

    fn in_window_range(&self, time: Cycle) -> bool {
        time >= self.base && time - self.base < WINDOW as Cycle
    }

    /// The cycle slot `slot` stands for in the current window.
    fn slot_time(&self, slot: usize) -> Cycle {
        self.base + ((slot as Cycle).wrapping_sub(self.base) & MASK)
    }

    /// The earliest non-empty slot of the window: the first set bit at or
    /// after the window start's slot, wrapping around.
    fn first_slot(&self) -> Option<usize> {
        if self.in_window == 0 {
            return None;
        }
        let start = (self.base & MASK) as usize;
        let word = start / 64;
        let at_or_after = self.occupied[word] & (!0u64 << (start % 64));
        if at_or_after != 0 {
            return Some(word * 64 + at_or_after.trailing_zeros() as usize);
        }
        // The last step revisits `word` for its bits below `start`.
        (1..=WORDS).find_map(|k| {
            let w = (word + k) % WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Moves the window start up to `time` (never back) and pulls the heap
    /// events the window now covers into their slots, in `(time, seq)`
    /// order so each slot stays FIFO.
    fn advance(&mut self, time: Cycle) {
        if time <= self.base {
            return;
        }
        self.base = time;
        while self
            .far
            .peek()
            .is_some_and(|e| self.in_window_range(e.time))
        {
            if let Some(e) = self.far.pop() {
                self.push_slot(e.time, e.event);
            }
        }
    }

    /// Appends `event` to the FIFO of `time`'s slot; `time` must be in
    /// the window.
    fn push_slot(&mut self, time: Cycle, event: E) {
        let node = Node {
            event: Some(event),
            next: NIL,
        };
        let idx = match self.nodes.get_mut(self.free) {
            Some(reused) => {
                let idx = self.free;
                self.free = reused.next;
                *reused = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        let s = (time & MASK) as usize;
        let slot = &mut self.slots[s];
        match self.nodes.get_mut(slot.tail) {
            Some(tail) => tail.next = idx,
            None => slot.head = idx,
        }
        slot.tail = idx;
        self.occupied[s / 64] |= 1 << (s % 64);
        self.in_window += 1;
    }

    /// Removes the front event of slot `s`, returning its node to the free
    /// list.
    fn pop_slot(&mut self, s: usize) -> Option<E> {
        let slot = &mut self.slots[s];
        let idx = slot.head;
        let node = self.nodes.get_mut(idx)?;
        let event = node.event.take();
        slot.head = node.next;
        node.next = self.free;
        self.free = idx;
        if slot.head == NIL {
            slot.tail = NIL;
            self.occupied[s / 64] &= !(1 << (s % 64));
        }
        self.in_window -= 1;
        event
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5, "x");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((5, "x")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(10, "b");
        q.push(5, "a");
        assert_eq!(q.pop(), Some((5, "a")));
        q.push(7, "a2");
        q.push(20, "c");
        assert_eq!(q.pop(), Some((7, "a2")));
        assert_eq!(q.pop(), Some((10, "b")));
        assert_eq!(q.pop(), Some((20, "c")));
    }

    #[test]
    fn far_events_join_their_slot_before_later_pushes() {
        let w = WINDOW as Cycle;
        let mut q = EventQueue::new();
        q.push(w + 5, "far");
        q.push(10, "near");
        assert_eq!(q.pop(), Some((10, "near")));
        // The window now covers `w + 5`; a same-time push queues behind
        // the migrated event.
        q.push(w + 5, "later");
        assert_eq!(q.pop(), Some((w + 5, "far")));
        assert_eq!(q.pop(), Some((w + 5, "later")));
    }

    #[test]
    fn pushes_behind_the_window_pop_first() {
        let mut q = EventQueue::new();
        q.push(100, "b");
        q.push(200, "c");
        assert_eq!(q.pop(), Some((100, "b")));
        q.push(50, "a");
        assert_eq!(q.peek_time(), Some(50));
        assert_eq!(q.pop(), Some((50, "a")));
        assert_eq!(q.pop(), Some((200, "c")));
    }

    #[test]
    fn cycle_max_is_a_valid_time() {
        let mut q = EventQueue::new();
        q.push(Cycle::MAX, 2);
        q.push(Cycle::MAX - 1, 1);
        q.push(Cycle::MAX, 3);
        assert_eq!(q.pop(), Some((Cycle::MAX - 1, 1)));
        assert_eq!(q.pop(), Some((Cycle::MAX, 2)));
        q.push(Cycle::MAX, 4);
        assert_eq!(q.pop(), Some((Cycle::MAX, 3)));
        assert_eq!(q.pop(), Some((Cycle::MAX, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn slab_nodes_are_reused() {
        let mut q = EventQueue::new();
        for t in 0..10_000u64 {
            q.push(t, t);
            assert_eq!(q.pop(), Some((t, t)));
        }
        assert_eq!(q.nodes.len(), 1);
    }
}
