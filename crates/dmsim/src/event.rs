//! Bounded-memory event queue with payload-slot recycling.
//!
//! The discrete-event engines order events by `(tick, order, slot)` in a
//! binary min-heap, with payloads parked out-of-line in a slot arena so the
//! heap entries stay `Copy`. The original arena only ever appended: every
//! scheduled event grew `payloads` by one slot for the lifetime of the run,
//! so long simulations (Figures 7–9 at thousands of ranks) held memory
//! proportional to *total events ever scheduled*. This queue recycles
//! consumed slots through a free list, bounding the arena by the maximum
//! number of *simultaneously pending* events instead.
//!
//! ## Determinism invariant
//!
//! Recycling must not change pop order. It cannot: `order` is assigned from
//! a strictly increasing counter, so no two heap entries ever tie on
//! `(tick, order)` and the `slot` component is never reached by a
//! comparison. Slot numbers may differ from the append-only behaviour, but
//! the sequence of `(tick, payload)` pairs popped is byte-identical — the
//! determinism regression tests pin this.

use crate::cost::TICK_SCALE;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic min-heap of `(tick, payload)` events; ties on `tick`
/// pop in insertion order.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    payloads: Vec<Option<T>>,
    free: Vec<usize>,
    order: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            order: 0,
        }
    }

    /// Schedules `payload` at `tick`. Events pushed at the same tick pop
    /// in push order.
    pub fn push(&mut self, tick: u64, payload: T) {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.payloads[s].is_none(), "free list holds a live slot");
                self.payloads[s] = Some(payload);
                s
            }
            None => {
                self.payloads.push(Some(payload));
                self.payloads.len() - 1
            }
        };
        self.heap.push(Reverse((tick, self.order, slot)));
        self.order += 1;
    }

    /// Removes and returns the earliest event, releasing its slot.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse((tick, _, slot)) = self.heap.pop()?;
        let payload = self.payloads[slot].take().expect("event consumed twice");
        self.free.push(slot);
        Some((tick, payload))
    }

    /// Tick of the earliest pending event without consuming it. Lets an
    /// engine stop at a time horizon while leaving the over-horizon event
    /// (and its pooled payload) in the queue.
    pub fn peek_tick(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((tick, _, _))| *tick)
    }

    /// [`Self::pop`], unless the earliest event lies past `max_time` in
    /// simulated time (ticks / [`TICK_SCALE`]): it then stays queued, so a
    /// run stops at its horizon without stamping a tick where nothing ran.
    pub(crate) fn pop_until(&mut self, max_time: f64) -> Option<(u64, T)> {
        if self.peek_tick()? as f64 / TICK_SCALE > max_time {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of the payload arena: the largest number of events
    /// that were ever pending at once (slots are recycled, never dropped).
    pub fn slot_count(&self) -> usize {
        self.payloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::EventQueue;

    /// Reference behaviour: the original append-only arena.
    fn reference_order(events: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let mut heap = std::collections::BinaryHeap::new();
        let mut payloads = Vec::new();
        for (order, &(tick, tag)) in events.iter().enumerate() {
            payloads.push(tag);
            heap.push(std::cmp::Reverse((tick, order as u64, payloads.len() - 1)));
        }
        let mut out = Vec::new();
        while let Some(std::cmp::Reverse((tick, _, slot))) = heap.pop() {
            out.push((tick, payloads[slot]));
        }
        out
    }

    #[test]
    fn pop_order_matches_append_only_reference() {
        // Adversarial ticks: duplicates, zeros, reverse runs.
        let events: Vec<(u64, u32)> = (0..200u32)
            .map(|i| {
                let tick = match i % 4 {
                    0 => 50,
                    1 => (200 - i) as u64,
                    2 => (i / 7) as u64,
                    _ => 0,
                };
                (tick, i)
            })
            .collect();
        let mut q = EventQueue::new();
        for &(tick, tag) in &events {
            q.push(tick, tag);
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, reference_order(&events));
    }

    #[test]
    fn interleaved_push_pop_recycles_and_stays_ordered() {
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        // Sawtooth load: push 3, pop 2, forever advancing ticks — models a
        // simulator scheduling follow-up events from each handled event.
        for round in 0..1000u64 {
            let tick = round;
            for k in 0..3 {
                q.push(tick + k, round * 3 + k);
            }
            for _ in 0..2 {
                popped.push(q.pop().unwrap());
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0), "tick order");
        assert_eq!(popped.len(), 3000);
        // 1000 rounds × net +1 pending: high-water mark is ~1000 slots, not
        // the 3000 an append-only arena would hold.
        assert!(
            q.slot_count() <= 1003,
            "arena grew past the pending high-water mark: {}",
            q.slot_count()
        );
    }

    #[test]
    fn steady_state_uses_constant_slots() {
        let mut q = EventQueue::new();
        q.push(0, 0u64);
        q.push(0, 1u64);
        for i in 0..10_000u64 {
            let (tick, _) = q.pop().unwrap();
            q.push(tick + 1, i);
        }
        assert_eq!(q.slot_count(), 2, "1-for-1 replacement must not grow");
    }

    #[test]
    fn peek_tick_sees_the_next_pop_without_consuming() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_tick(), None);
        q.push(9, 'b');
        q.push(3, 'a');
        assert_eq!(q.peek_tick(), Some(3));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((3, 'a')));
        assert_eq!(q.peek_tick(), Some(9));
    }

    #[test]
    fn same_tick_pops_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(7, i);
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, t)| t)).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }
}
