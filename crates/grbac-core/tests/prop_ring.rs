//! Ring property suite: the one accounting contract every bounded store
//! in the crate inherits from `grbac_core::ring`.
//!
//! For both ring types: every pushed entry is retained, dropped or (for
//! `Ring`) taken — `len + dropped + taken == pushed` — eviction is
//! drop-oldest, and capacity 0 retains nothing while still counting.
//! For `SlotRing`, concurrent pushes never tear or reorder an entry and
//! leave exactly the newest `capacity` tickets behind.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Barrier;

use grbac_core::ring::{Ring, SlotRing};
use proptest::prelude::*;

/// One step of a single-owner ring's life.
#[derive(Debug, Clone)]
enum Op {
    Push,
    Drain,
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => Just(Op::Push),
        1 => Just(Op::Drain),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Ring` against a reference model: after every step the retained
    /// entries are the model's (newest `capacity`, oldest first), the
    /// entry a push returns is the one the model evicted, and the
    /// counters satisfy `len + dropped + taken == pushed` exactly.
    fn ring_matches_its_drop_oldest_model(
        capacity in 0usize..9,
        ops in proptest::collection::vec(op(), 0..120),
    ) {
        let mut ring = Ring::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let (mut pushed, mut dropped, mut taken) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                Op::Push => {
                    let item = pushed;
                    pushed += 1;
                    model.push_back(item);
                    let expected = (model.len() > capacity).then(|| model.pop_front()).flatten();
                    dropped += u64::from(expected.is_some());
                    prop_assert_eq!(ring.push(item), expected);
                }
                Op::Drain => {
                    taken += model.len() as u64;
                    let drained: Vec<u64> = ring.drain().collect();
                    prop_assert_eq!(drained, model.drain(..).collect::<Vec<_>>());
                }
                Op::Clear => {
                    dropped += model.len() as u64;
                    model.clear();
                    ring.clear();
                }
            }
            prop_assert_eq!(ring.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert!(ring.len() <= capacity);
            prop_assert_eq!((ring.pushed(), ring.dropped(), ring.taken()), (pushed, dropped, taken));
            prop_assert_eq!(ring.len() as u64 + ring.dropped() + ring.taken(), ring.pushed());
        }
    }

    /// Restoring persisted state is the same as having pushed it: the
    /// prior drops carry over and excess items evict oldest first.
    fn ring_restore_matches_pushing(
        capacity in 0usize..9,
        prior_dropped in 0u64..50,
        items in proptest::collection::vec(0u64..1000, 0..20),
    ) {
        let restored = Ring::restore(capacity, prior_dropped, items.clone());
        let mut pushed = Ring::new(capacity);
        for &item in &items {
            pushed.push(item);
        }
        prop_assert_eq!(restored.iter().collect::<Vec<_>>(), pushed.iter().collect::<Vec<_>>());
        prop_assert_eq!(restored.dropped(), prior_dropped + pushed.dropped());
        prop_assert_eq!(restored.pushed(), prior_dropped + pushed.pushed());
        prop_assert_eq!(restored.len() as u64 + restored.dropped(), restored.pushed());
    }

    /// Single-threaded `SlotRing`: capacity rounds up to a power of
    /// two, the retained entries are the newest `capacity` tickets in
    /// ticket order, and `len + dropped == pushed`.
    fn slot_ring_keeps_the_newest_tickets(capacity in 0usize..40, pushes in 0u64..200) {
        let ring = SlotRing::with_capacity(capacity);
        let rounded = if capacity == 0 { 0 } else { capacity.next_power_of_two() };
        prop_assert_eq!(ring.capacity(), rounded);
        for n in 0..pushes {
            prop_assert_eq!(ring.push_with(|ticket| (ticket, ticket * 3)), n);
        }
        let retained = ring.collect(|_| true);
        let first = pushes.saturating_sub(rounded as u64);
        let expected: Vec<(u64, u64)> = (first..pushes).map(|t| (t, t * 3)).collect();
        prop_assert_eq!(retained, expected);
        prop_assert_eq!(ring.pushed(), pushes);
        prop_assert_eq!(ring.len() as u64 + ring.dropped(), ring.pushed());
        prop_assert_eq!(ring.is_empty(), pushes == 0 || rounded == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Race `threads` writers at one `SlotRing`. Every entry encodes its
    /// writer and index in several fields, so a torn entry shows as
    /// fields that disagree. At quiescence the ring holds exactly the
    /// newest `capacity` tickets, every entry carries the ticket it was
    /// published under, and each writer's entries appear in the order
    /// it pushed them.
    fn concurrent_pushes_never_tear_or_reorder(
        capacity_pow in 0u32..7,
        threads in 2usize..5,
        per_writer in 1usize..64,
    ) {
        let capacity = 1usize << capacity_pow;
        let ring = SlotRing::with_capacity(capacity);
        let barrier = Barrier::new(threads);
        let tickets: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let ring = &ring;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (0..per_writer)
                            .map(|i| ring.push_with(|ticket| (ticket, t, i, format!("w{t}-{i}"))))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer")).collect()
        });

        let total = (threads * per_writer) as u64;
        prop_assert_eq!(ring.pushed(), total);
        prop_assert_eq!(ring.len() as u64 + ring.dropped(), total);

        // Tickets are unique and cover 0..total.
        let mut all: Vec<u64> = tickets.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..total).collect::<Vec<_>>());

        let retained = ring.collect(|_| true);
        let first = total.saturating_sub(capacity as u64);
        prop_assert_eq!(
            retained.iter().map(|(ticket, ..)| *ticket).collect::<Vec<_>>(),
            (first..total).collect::<Vec<_>>()
        );
        let mut last_index: BTreeMap<usize, usize> = BTreeMap::new();
        for (ticket, t, i, name) in &retained {
            prop_assert_eq!(name, &format!("w{t}-{i}"));
            prop_assert_eq!(tickets[*t][*i], *ticket);
            if let Some(previous) = last_index.insert(*t, *i) {
                prop_assert!(*i > previous, "writer {} went {} -> {}", t, previous, i);
            }
        }
    }
}

/// Capacity 0 retains nothing, for both types, yet counts every push as
/// dropped, so the contract still balances.
#[test]
fn capacity_zero_counts_every_push_as_dropped() {
    let mut ring = Ring::new(0);
    for n in 0..5u32 {
        assert_eq!(ring.push(n), Some(n), "refused push hands the item back");
    }
    assert!(ring.is_empty());
    assert_eq!((ring.pushed(), ring.dropped(), ring.taken()), (5, 5, 0));
    assert_eq!(ring.drain().count(), 0);

    let slots: SlotRing<u64> = SlotRing::with_capacity(0);
    for n in 0..5u64 {
        assert_eq!(slots.push_with(|_| unreachable!("nothing is published")), n);
    }
    assert_eq!(slots.capacity(), 0);
    assert!(slots.collect(|_| true).is_empty());
    assert_eq!((slots.len(), slots.pushed(), slots.dropped()), (0, 5, 5));
}
