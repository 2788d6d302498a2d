//! The shard engine's fault storage: one slab of active faults for the
//! whole shard.
//!
//! Every event-bearing channel keeps its active faults as a singly linked
//! list, in insertion order, through one shard-wide `Vec` of nodes. A
//! removed node goes onto a free list and is reused by the next push, so
//! the slab never holds more nodes than the shard's peak count of
//! simultaneously active faults, and the engine reserves room for the
//! shard's expected arrivals up front. Arrivals, detections and
//! replacements then allocate nothing, and dropping the engine frees one
//! buffer instead of one per channel.

use arcc_faults::FaultEvent;

/// Sentinel link: end of a list, or an empty list or free list.
const NIL: u32 = u32::MAX;

/// One fault resident in a channel, as a node of its channel's list.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Stable per-channel id; queued detections reference this, so a
    /// list is free to drop any node (cleared transients are removed
    /// outright).
    id: u32,
    event: FaultEvent,
    /// Next node of the same list (or of the free list).
    next: u32,
}

/// A channel's active faults: the ends of its list in the slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultList {
    head: u32,
    tail: u32,
}

impl FaultList {
    /// The list of a channel with no active fault.
    pub(crate) const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
    };
}

/// A found fault: its node and the node before it in its list, which is
/// what unlinking a node from a singly linked list needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Found {
    prev: u32,
    node: u32,
}

/// The shard-wide slab every channel's [`FaultList`] threads through.
#[derive(Debug)]
pub(crate) struct FaultSlab {
    nodes: Vec<Node>,
    /// Head of the free list of unlinked nodes.
    free: u32,
}

impl FaultSlab {
    /// An empty slab with room for `capacity` simultaneously active
    /// faults before it grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    /// Nodes ever allocated: the shard's peak count of simultaneously
    /// active faults, since a node is only added when none is free.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.nodes.len()
    }

    /// Appends fault `id` to the end of `list`.
    pub(crate) fn push(&mut self, list: &mut FaultList, id: u32, event: FaultEvent) {
        let node = Node {
            id,
            event,
            next: NIL,
        };
        let at = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        };
        match list.tail {
            NIL => list.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        list.tail = at;
    }

    /// The faults of `list`, oldest first.
    pub(crate) fn iter(&self, list: FaultList) -> Faults<'_> {
        Faults {
            nodes: &self.nodes,
            next: list.head,
        }
    }

    /// Fault `id` of `list`, if it is still there.
    pub(crate) fn find(&self, list: FaultList, id: u32) -> Option<Found> {
        let (mut prev, mut node) = (NIL, list.head);
        while node != NIL {
            if self.nodes[node as usize].id == id {
                return Some(Found { prev, node });
            }
            prev = node;
            node = self.nodes[node as usize].next;
        }
        None
    }

    /// The event of a found fault.
    pub(crate) fn event(&self, found: Found) -> &FaultEvent {
        &self.nodes[found.node as usize].event
    }

    /// Unlinks a found fault from `list` and frees its node.
    pub(crate) fn remove(&mut self, list: &mut FaultList, found: Found) {
        let Found { prev, node } = found;
        let next = self.nodes[node as usize].next;
        match prev {
            NIL => list.head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        if list.tail == node {
            list.tail = prev;
        }
        self.nodes[node as usize].next = self.free;
        self.free = node;
    }

    /// Removes every fault of `list` that `keep` rejects, keeping the
    /// rest in order, and returns how many it removed.
    pub(crate) fn retain(
        &mut self,
        list: &mut FaultList,
        mut keep: impl FnMut(&FaultEvent) -> bool,
    ) -> u64 {
        let (mut prev, mut node, mut removed) = (NIL, list.head, 0);
        while node != NIL {
            let next = self.nodes[node as usize].next;
            if keep(&self.nodes[node as usize].event) {
                prev = node;
            } else {
                self.remove(list, Found { prev, node });
                removed += 1;
            }
            node = next;
        }
        removed
    }

    /// Frees every node of `list` at once and leaves it empty.
    pub(crate) fn clear(&mut self, list: &mut FaultList) {
        if list.head != NIL {
            self.nodes[list.tail as usize].next = self.free;
            self.free = list.head;
            *list = FaultList::EMPTY;
        }
    }
}

/// The faults of one list, oldest first. Cloning it is free, which is
/// what lets the SDC predicates walk a channel's faults more than once
/// without collecting them.
#[derive(Debug, Clone)]
pub(crate) struct Faults<'s> {
    nodes: &'s [Node],
    next: u32,
}

impl<'s> Iterator for Faults<'s> {
    type Item = &'s FaultEvent;

    #[inline]
    fn next(&mut self) -> Option<&'s FaultEvent> {
        // `NIL` indexes past the end of any slab.
        let node = self.nodes.get(self.next as usize)?;
        self.next = node.next;
        Some(&node.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcc_faults::{AddressSet, FaultMode};

    fn fault(time_h: f64) -> FaultEvent {
        FaultEvent {
            time_h,
            mode: FaultMode::SingleBit,
            transient: false,
            rank: Some(0),
            device_pos: 0,
            set: AddressSet::all(),
        }
    }

    fn times(slab: &FaultSlab, list: FaultList) -> Vec<f64> {
        slab.iter(list).map(|f| f.time_h).collect()
    }

    #[test]
    fn lists_keep_insertion_order_and_reuse_freed_nodes() {
        let mut slab = FaultSlab::with_capacity(0);
        let (mut a, mut b) = (FaultList::EMPTY, FaultList::EMPTY);
        for i in 0..4 {
            slab.push(&mut a, i, fault(i as f64));
            slab.push(&mut b, i, fault(10.0 + i as f64));
        }
        assert_eq!(times(&slab, a), [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(times(&slab, b), [10.0, 11.0, 12.0, 13.0]);

        // Remove a middle node and the tail, then append: order holds
        // and the freed nodes are reused.
        let middle = slab.find(a, 1).expect("fault 1");
        slab.remove(&mut a, middle);
        let tail = slab.find(a, 3).expect("fault 3");
        slab.remove(&mut a, tail);
        assert!(slab.find(a, 3).is_none());
        slab.push(&mut a, 4, fault(4.0));
        slab.push(&mut a, 5, fault(5.0));
        assert_eq!(times(&slab, a), [0.0, 2.0, 4.0, 5.0]);
        assert_eq!(slab.high_water(), 8);

        // Retain drops the rejected faults, head included.
        let removed = slab.retain(&mut a, |f| f.time_h >= 2.0 && f.time_h != 4.0);
        assert_eq!(removed, 2);
        assert_eq!(times(&slab, a), [2.0, 5.0]);
        assert_eq!(slab.event(slab.find(a, 5).expect("fault 5")).time_h, 5.0);

        // Clearing frees a whole list; the other list is untouched, and
        // refilling stays within the nodes already allocated.
        slab.clear(&mut b);
        assert_eq!(slab.iter(b).count(), 0);
        for i in 0..6 {
            slab.push(&mut b, i, fault(20.0 + i as f64));
        }
        assert_eq!(times(&slab, a), [2.0, 5.0]);
        assert_eq!(times(&slab, b).len(), 6);
        assert_eq!(slab.high_water(), 8);
    }

    #[test]
    fn emptied_lists_accept_new_faults() {
        let mut slab = FaultSlab::with_capacity(0);
        let mut list = FaultList::EMPTY;
        slab.push(&mut list, 0, fault(1.0));
        assert_eq!(slab.retain(&mut list, |_| false), 1);
        assert_eq!(slab.iter(list).count(), 0);
        slab.push(&mut list, 1, fault(2.0));
        let only = slab.find(list, 1).expect("fault 1");
        slab.remove(&mut list, only);
        slab.push(&mut list, 2, fault(3.0));
        assert_eq!(times(&slab, list), [3.0]);
        assert_eq!(slab.high_water(), 1);
    }
}
