//! Bounded drop-oldest rings: the one retention mechanism behind every
//! retained log in the crate.
//!
//! Both ring types keep the newest `capacity` entries and share one
//! accounting contract: every pushed entry is retained, dropped
//! (evicted by a newer one, refused at capacity 0, or cleared) or taken
//! (handed out by [`Ring::drain`]), so at every quiescent moment
//! `len() + dropped() + taken() == pushed()`. The `prop_ring` suite
//! checks it for both.
//!
//! * [`Ring`] is single-owner, for stores already behind a lock or
//!   `&mut`. It grows on push like a `VecDeque` and never preallocates
//!   its capacity, so a client-chosen bound costs nothing until used.
//! * [`SlotRing`] is for stores that every decide thread writes with no
//!   outer lock, where one shared `Mutex` would serialize decides. A
//!   push claims a ticket with one `fetch_add`; the ticket masks to a
//!   slot (capacity rounds up to a power of two), and the entry is
//!   published under that slot's own mutex, which is uncontended until
//!   writers are a full lap apart.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A single-owner bounded ring with drop-oldest eviction.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
    taken: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::restore(capacity, 0, [])
    }

    /// A ring that already dropped `dropped` entries before `items`
    /// (oldest first) were pushed — persisted state, reloaded.
    #[must_use]
    pub fn restore(capacity: usize, dropped: u64, items: impl IntoIterator<Item = T>) -> Self {
        let mut ring = Self {
            items: VecDeque::new(),
            capacity,
            pushed: dropped,
            dropped,
            taken: 0,
        };
        for item in items {
            ring.push(item);
        }
        ring
    }

    /// Appends `item`, evicting the oldest entry when full. Returns the
    /// entry that left: the evicted one, or `item` itself at capacity 0.
    pub fn push(&mut self, item: T) -> Option<T> {
        self.pushed += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return Some(item);
        }
        let evicted = if self.items.len() == self.capacity {
            self.dropped += 1;
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(item);
        evicted
    }

    /// Removes every retained entry, oldest first, counting them taken.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, T> {
        self.taken += self.items.len() as u64;
        self.items.drain(..)
    }

    /// Discards every retained entry, counting them dropped.
    pub fn clear(&mut self) {
        self.dropped += self.items.len() as u64;
        self.items.clear();
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Maximum entries retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries ever pushed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Entries evicted, refused or cleared.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries handed out by [`drain`](Self::drain).
    #[must_use]
    pub fn taken(&self) -> u64 {
        self.taken
    }
}

/// One [`SlotRing`] slot: the entry and the ticket it was pushed with.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// A bounded multi-producer ring with drop-oldest eviction.
#[derive(Debug)]
pub struct SlotRing<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    next: AtomicU64,
    /// Tickets below this were dropped before a [`restore`](Self::restore)
    /// and never occupy a slot (0 for a fresh ring).
    first: u64,
}

impl<T> SlotRing<T> {
    /// A ring retaining the newest `capacity` entries, rounded up to a
    /// power of two (0 stays 0 and retains nothing).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            mask: (capacity as u64).wrapping_sub(1),
            next: AtomicU64::new(0),
            first: 0,
        }
    }

    /// A ring that already dropped `dropped` entries before `items`
    /// (oldest first) were pushed — persisted state, reloaded. Tickets
    /// continue from `dropped + items.len()`.
    #[must_use]
    pub fn restore(capacity: usize, dropped: u64, items: impl IntoIterator<Item = T>) -> Self {
        let mut ring = Self::with_capacity(capacity);
        ring.first = dropped;
        *ring.next.get_mut() = dropped;
        for item in items {
            ring.push_with(|_| item);
        }
        ring
    }

    /// Claims the next ticket, publishes `make(ticket)` in its slot and
    /// returns the ticket. The ticket is `Relaxed`: it publishes no
    /// data, the slot mutex does.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        // Capacity 0 masks every ticket past the (empty) slot table.
        if let Some(slot) = self.slots.get((ticket & self.mask) as usize) {
            let entry = make(ticket);
            let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
            // Drop-oldest, not drop-newest: a writer descheduled for a
            // full lap between claim and publish must not overwrite the
            // younger entry that already landed.
            if held.as_ref().is_none_or(|(older, _)| *older <= ticket) {
                *held = Some((ticket, entry));
            }
        }
        ticket
    }

    /// Retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tickets ever claimed.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Entries retained once in-flight pushes publish.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.pushed() - self.first).min(self.capacity() as u64) as usize
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries overwritten by a newer lap, refused at capacity 0, or
    /// dropped before a [`restore`](Self::restore).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.pushed() - self.len() as u64
    }
}

impl<T: Clone> SlotRing<T> {
    /// Copies of the retained entries passing `keep`, oldest first.
    /// Well-formed under concurrent pushes (each slot publishes
    /// atomically), but the window may span a wrap until they quiesce.
    #[must_use]
    pub fn collect(&self, mut keep: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut entries: Vec<(u64, T)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let held = slot.lock().unwrap_or_else(PoisonError::into_inner);
                held.as_ref().filter(|(_, entry)| keep(entry)).cloned()
            })
            .collect();
        entries.sort_unstable_by_key(|(ticket, _)| *ticket);
        entries.into_iter().map(|(_, entry)| entry).collect()
    }
}

/// Distinct per-writer counters; writer ids beyond this share one (per-
/// writer monotonicity still holds, the sequences just interleave).
const MAX_WRITERS: usize = 128;

/// The writer-id mint: each record a thread writes to a store is
/// stamped with the thread's [`current_writer_id`] and a sequence
/// private to that writer, so a snapshot can be audited for tears (per
/// writer, sequences strictly increase in ticket order).
#[derive(Debug)]
pub(crate) struct WriterSeqs(Box<[AtomicU64]>);

impl WriterSeqs {
    pub(crate) fn new() -> Self {
        Self((0..MAX_WRITERS).map(|_| AtomicU64::new(0)).collect())
    }

    /// The calling thread's writer id and its next sequence number.
    pub(crate) fn next(&self) -> (u32, u64) {
        let writer = current_writer_id();
        let seq = self.0[writer as usize % MAX_WRITERS].fetch_add(1, Ordering::Relaxed);
        (writer, seq)
    }
}

/// The calling thread's writer id, minted process-wide on first use.
fn current_writer_id() -> u32 {
    static NEXT_WRITER: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static WRITER_ID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    WRITER_ID.with(|id| {
        if id.get() == u32::MAX {
            id.set(NEXT_WRITER.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}
