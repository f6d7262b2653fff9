//! Flight-recorder property suite: under concurrent batch writers the
//! ring must retain exactly the most recent `capacity` records with a
//! contiguous sequence tail and no torn records, per-writer sequence
//! numbers must stay strictly monotone, and the permit/deny totals must
//! account for every decision.
//!
//! The concurrent writers drive `decide_batch` on one shared engine.

use std::collections::BTreeMap;
use std::sync::Barrier;

use grbac_core::prelude::*;
use grbac_core::provenance::env_fingerprint;
use grbac_core::rule::Effect;
use proptest::prelude::*;

struct Home {
    g: Grbac,
    free_time: RoleId,
    alice: SubjectId,
    bob: SubjectId,
    tv: ObjectId,
    use_t: TransactionId,
}

fn household() -> Home {
    let mut g = Grbac::new();
    let child = g.declare_subject_role("child").unwrap();
    let entertainment = g.declare_object_role("entertainment").unwrap();
    let free_time = g.declare_environment_role("free_time").unwrap();
    let use_t = g.declare_transaction("use").unwrap();
    let alice = g.declare_subject("alice").unwrap();
    g.assign_subject_role(alice, child).unwrap();
    let bob = g.declare_subject("bob").unwrap();
    let tv = g.declare_object("tv").unwrap();
    g.assign_object_role(tv, entertainment).unwrap();
    g.add_rule(
        RuleDef::permit()
            .subject_role(child)
            .object_role(entertainment)
            .transaction(use_t),
    )
    .unwrap();
    Home {
        g,
        free_time,
        alice,
        bob,
        tv,
        use_t,
    }
}

/// The request mix every writer cycles through: (request, expected
/// effect, expected environment roles).
fn request_mix(home: &Home) -> Vec<(AccessRequest, Effect, Vec<RoleId>)> {
    let empty = EnvironmentSnapshot::new();
    let busy = EnvironmentSnapshot::from_active([home.free_time]);
    vec![
        (
            AccessRequest::by_subject(home.alice, home.use_t, home.tv, empty.clone()),
            Effect::Permit,
            Vec::new(),
        ),
        (
            AccessRequest::by_subject(home.alice, home.use_t, home.tv, busy.clone()),
            Effect::Permit,
            vec![home.free_time],
        ),
        (
            AccessRequest::by_subject(home.bob, home.use_t, home.tv, empty),
            Effect::Deny,
            Vec::new(),
        ),
        (
            AccessRequest::by_subject(home.bob, home.use_t, home.tv, busy),
            Effect::Deny,
            vec![home.free_time],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Race `threads` writers, each deciding `per_writer` requests
    /// through `decide_batch`, at one shared ring. Afterwards the
    /// recorder must account for every decision, retain exactly the
    /// most recent `capacity` of them as a contiguous sequence range,
    /// hold no torn records, and show strictly monotone per-writer
    /// sequence numbers.
    fn concurrent_writers_never_tear_the_ring(
        capacity_pow in 2u32..7,
        threads in 2usize..5,
        batches in 1usize..4,
    ) {
        let capacity = 1usize << capacity_pow;
        let mut home = household();
        home.g.set_flight_recorder_capacity(capacity);
        let mix = request_mix(&home);
        let batch: Vec<AccessRequest> =
            mix.iter().map(|(request, _, _)| request.clone()).collect();

        let engine = &home.g;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..batches {
                        for result in engine.decide_batch(&batch) {
                            result.expect("known ids");
                        }
                    }
                });
            }
        });

        let recorder = home.g.flight_recorder();
        let total = (threads * batches * batch.len()) as u64;
        prop_assert_eq!(recorder.total_recorded(), total);
        // Half the mix permits: the totals split exactly.
        prop_assert_eq!(recorder.permit_count(), total / 2);
        prop_assert_eq!(recorder.deny_count(), total / 2);

        let records = recorder.snapshot();
        let retained = total.min(capacity as u64);
        prop_assert_eq!(records.len() as u64, retained);
        prop_assert_eq!(recorder.dropped(), total - retained);

        // Contiguous tail: exactly the most recent `retained` seqs.
        for (offset, record) in records.iter().enumerate() {
            prop_assert_eq!(record.seq, total - retained + offset as u64);
        }

        // No tears: every record matches one shape from the mix, whole.
        for record in &records {
            let (_, expected_effect, expected_env) = mix
                .iter()
                .find(|(request, _, _)| {
                    let same_subject = matches!(
                        (&request.actor, record.subject),
                        (Actor::Subject(s), Some(recorded)) if *s == recorded
                    );
                    same_subject
                        && request.object == record.object
                        && request.transaction == record.transaction
                        && request.environment.active().iter().copied().collect::<Vec<_>>()
                            == record.env_roles
                })
                .expect("record matches a request from the mix");
            prop_assert_eq!(record.effect, *expected_effect);
            prop_assert_eq!(&record.env_roles, expected_env);
            prop_assert_eq!(
                record.env_hash,
                env_fingerprint(&EnvironmentSnapshot::from_active(
                    expected_env.iter().copied()
                ))
            );
        }

        // Per-writer monotonicity: within the retained window (already
        // sorted by seq) each writer's sequence numbers only climb.
        let mut last_by_writer: BTreeMap<u32, u64> = BTreeMap::new();
        for record in &records {
            if let Some(&previous) = last_by_writer.get(&record.writer) {
                prop_assert!(
                    record.writer_seq > previous,
                    "writer {} went from {} to {}",
                    record.writer,
                    previous,
                    record.writer_seq
                );
            }
            last_by_writer.insert(record.writer, record.writer_seq);
        }
    }
}
