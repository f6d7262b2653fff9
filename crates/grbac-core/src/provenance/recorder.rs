//! The decision flight recorder: a bounded, concurrent ring buffer of
//! [`ProvenanceRecord`]s — the engine's one decision log.
//!
//! The recorder is a [`SlotRing`] — the crate's multi-producer
//! drop-oldest ring (see [`crate::ring`]): a record claims its global
//! sequence number with one lock-free `fetch_add`, the sequence masks
//! to a slot, and the record is published under that slot's own
//! mutex. Decide threads therefore never serialize on one lock, and the
//! crate's `#![forbid(unsafe_code)]` stays intact. Exact permit/deny
//! totals sit beside the ring and survive eviction; the audit view
//! ([`AuditView`](crate::audit::AuditView)) reads both.
//!
//! Each record also carries a per-writer sequence number from the
//! ring module's writer-id mint. A snapshot can therefore be audited
//! for tears — per writer, the retained `writer_seq` values must be
//! strictly increasing in global-sequence order — which the
//! `prop_recorder` suite checks under concurrent `decide_batch` writers.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::degraded::{DegradedReason, EnvHealth};
use crate::engine::Actor;
use crate::environment::EnvironmentSnapshot;
use crate::id::{DecisionId, ObjectId, RoleId, RuleId, SubjectId, TransactionId};
use crate::ring::{SlotRing, WriterSeqs};
use crate::rule::Effect;

/// A stable fingerprint of an environment snapshot: FNV-1a over the
/// sorted directly-active role ids. Two snapshots hash equal iff their
/// active sets are equal, so forensic queries can group decisions by
/// environment state without storing the full set twice.
#[must_use]
pub fn env_fingerprint(environment: &EnvironmentSnapshot) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for role in environment.active() {
        for byte in role.as_raw().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Everything needed to answer "why was this granted at 3am?" after the
/// fact: the request triple, what matched, under which policy
/// generation and environment state, and — when the decision was
/// latency-sampled or explicitly traced — where the nanoseconds went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Global sequence number (the recorder's claim ticket; never
    /// reused, survives drop-oldest eviction).
    pub seq: u64,
    /// The writer (producer thread) that recorded this decision.
    pub writer: u32,
    /// This writer's private sequence number (strictly increasing per
    /// writer).
    pub writer_seq: u64,
    /// The correlation id minted for the decision (unassigned only on
    /// records deserialized from captures older than the id scheme).
    #[serde(default)]
    pub decision_id: DecisionId,
    /// The requester exactly as mediated (sessions, trusted subjects
    /// and sensed contexts alike), so the request can be rebuilt.
    pub actor: Actor,
    /// The requesting subject, resolved at decision time: the trusted
    /// subject, the sensed identity claim, or an open session's
    /// subject. `None` for anonymous sensed requests.
    #[serde(default)]
    pub subject: Option<SubjectId>,
    /// The requested transaction.
    pub transaction: TransactionId,
    /// The target object.
    pub object: ObjectId,
    /// Caller-supplied timestamp (virtual seconds), when present.
    pub timestamp: Option<u64>,
    /// The directly-active environment roles attached to the request.
    pub env_roles: Vec<RoleId>,
    /// [`env_fingerprint`] of the request's environment snapshot.
    pub env_hash: u64,
    /// Freshness of the environment snapshot as mediated.
    pub env_health: EnvHealth,
    /// The engine's role-closure generation at decision time (bumped by
    /// every decision-relevant mutation; keys the compiled index).
    pub generation: u64,
    /// The outcome.
    pub effect: Effect,
    /// The rule that carried the decision, if any.
    pub winning_rule: Option<RuleId>,
    /// Every rule that matched, in policy order.
    pub matched_rules: Vec<RuleId>,
    /// Size of the hierarchy-expanded subject role closure.
    pub subject_role_count: u32,
    /// Why the decision ran degraded, if it did.
    pub degraded: Option<DegradedReason>,
    /// Per-stage wall-clock nanoseconds in [`Stage::ALL`] order, when
    /// the decision was latency-sampled or traced.
    ///
    /// [`Stage::ALL`]: crate::telemetry::Stage::ALL
    pub stage_nanos: Option<[u64; 5]>,
    /// End-to-end wall-clock nanoseconds, when sampled or traced.
    pub total_nanos: Option<u64>,
}

impl ProvenanceRecord {
    /// True when the record carries stage timings.
    #[must_use]
    pub fn is_traced(&self) -> bool {
        self.stage_nanos.is_some()
    }
}

/// A bounded multi-producer ring buffer of [`ProvenanceRecord`]s with
/// drop-oldest semantics, plus exact permit/deny totals.
///
/// See the [module docs](crate::provenance) for the concurrency
/// design. A capacity of zero retains nothing but still counts every
/// decision (the ring contract: each one is counted dropped).
///
/// Serialized as `{"capacity", "recorded", "permits", "records"}`: the
/// retained records (oldest first) plus the totals they cannot carry.
/// A reloaded recorder keeps its log, and sequence numbers continue
/// where they stopped. Serialize a quiescent recorder: a snapshot taken
/// under concurrent writers may miss in-flight records.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: SlotRing<ProvenanceRecord>,
    writers: WriterSeqs,
    permits: AtomicU64,
}

impl FlightRecorder {
    /// Default retention when none is specified.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a recorder retaining the most recent `capacity` records;
    /// non-zero capacities are rounded up to the next power of two so
    /// the slot index is a mask of the claim ticket.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: SlotRing::with_capacity(capacity),
            writers: WriterSeqs::new(),
            permits: AtomicU64::new(0),
        }
    }

    /// Creates a recorder with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Retention capacity (0 when the recorder only counts).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Counts one decision with outcome `effect` and, when the ring
    /// retains anything, records `make()`, overwriting the oldest
    /// record once the ring is full. The record's `seq`, `writer` and
    /// `writer_seq` fields are assigned here; `make` is never called at
    /// capacity 0. Returns the decision's global sequence number.
    pub fn record(&self, effect: Effect, make: impl FnOnce() -> ProvenanceRecord) -> u64 {
        if effect == Effect::Permit {
            self.permits.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.push_with(|seq| {
            let mut record = make();
            record.seq = seq;
            (record.writer, record.writer_seq) = self.writers.next();
            record
        })
    }

    /// Decisions ever recorded (including dropped ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// Permits ever recorded.
    #[must_use]
    pub fn permit_count(&self) -> u64 {
        self.permits.load(Ordering::Relaxed)
    }

    /// Denies ever recorded.
    #[must_use]
    pub fn deny_count(&self) -> u64 {
        // The permit count can run ahead of the ticket count while a
        // permit is in flight.
        self.total_recorded().saturating_sub(self.permit_count())
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped so far: evicted by newer ones, or never
    /// retained at capacity 0. `len() + dropped() == total_recorded()`.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// A point-in-time copy of the retained records, oldest first.
    ///
    /// Taken while writers are active the copy is still well-formed
    /// (each record is published atomically under its slot lock) but
    /// may span a wrap boundary; quiesce writers first when the
    /// sequence-contiguity guarantee matters.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ProvenanceRecord> {
        self.ring.collect(|_| true)
    }

    /// The most recent `n` retained records, oldest first.
    #[must_use]
    pub fn latest(&self, n: usize) -> Vec<ProvenanceRecord> {
        let mut records = self.snapshot();
        let keep = records.len().saturating_sub(n);
        records.drain(..keep);
        records
    }

    /// The retained record carrying `decision_id`, if any — the
    /// recorder leg of a `/decision/<id>` correlation lookup. A linear
    /// scan over the ring (the ring is small and bounded; correlation
    /// lookups are operator-paced, not decide-paced).
    #[must_use]
    pub fn find(&self, decision_id: DecisionId) -> Option<ProvenanceRecord> {
        if !decision_id.is_assigned() {
            return None;
        }
        self.ring
            .collect(|record| record.decision_id == decision_id)
            .pop()
    }
}

impl Serialize for FlightRecorder {
    fn to_value(&self) -> Value {
        // Records first: a decision landing in between then shows in
        // the totals only, never as a record the totals miss.
        let records = self.snapshot();
        Value::Map(vec![
            ("capacity".to_owned(), self.capacity().to_value()),
            ("recorded".to_owned(), self.total_recorded().to_value()),
            ("permits".to_owned(), self.permit_count().to_value()),
            ("records".to_owned(), records.to_value()),
        ])
    }
}

impl Deserialize for FlightRecorder {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| SerdeError::custom(format!("missing field `{name}`")))
        };
        let records = Vec::<ProvenanceRecord>::from_value(field("records")?)?;
        let recorded = u64::from_value(field("recorded")?)?;
        let dropped = recorded.saturating_sub(records.len() as u64);
        Ok(Self {
            ring: SlotRing::restore(usize::from_value(field("capacity")?)?, dropped, records),
            writers: WriterSeqs::new(),
            permits: AtomicU64::new(u64::from_value(field("permits")?)?),
        })
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            seq: 0,
            writer: 0,
            writer_seq: 0,
            decision_id: DecisionId::from_parts(9, n + 1),
            actor: Actor::Subject(SubjectId::from_raw(n)),
            subject: Some(SubjectId::from_raw(n)),
            transaction: TransactionId::from_raw(0),
            object: ObjectId::from_raw(n),
            timestamp: Some(n),
            env_roles: vec![RoleId::from_raw(1)],
            env_hash: 7,
            env_health: EnvHealth::Fresh,
            generation: 3,
            effect: Effect::Permit,
            winning_rule: Some(RuleId::from_raw(0)),
            matched_rules: vec![RuleId::from_raw(0)],
            subject_role_count: 2,
            degraded: None,
            stage_nanos: None,
            total_nanos: None,
        }
    }

    fn push(recorder: &FlightRecorder, record: ProvenanceRecord) -> u64 {
        recorder.record(record.effect, || record)
    }

    /// A degraded deny, so serde round trips carry a reason too.
    fn deny(n: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            effect: Effect::Deny,
            winning_rule: None,
            degraded: Some(DegradedReason::StaleRolesDropped { age: n, dropped: 1 }),
            ..sample(n)
        }
    }

    #[test]
    fn retains_the_most_recent_capacity_records() {
        let recorder = FlightRecorder::with_capacity(4);
        for n in 0..10 {
            push(&recorder, sample(n));
        }
        assert_eq!(recorder.total_recorded(), 10);
        assert_eq!(recorder.len(), 4);
        assert_eq!(recorder.dropped(), 6);
        let seqs: Vec<u64> = recorder.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn writer_sequences_increase_per_writer() {
        let recorder = FlightRecorder::with_capacity(8);
        for n in 0..5 {
            push(&recorder, sample(n));
        }
        let records = recorder.snapshot();
        // Single-threaded: one writer, whose private sequence advances
        // in lockstep with the global one.
        let writer = records[0].writer;
        for window in records.windows(2) {
            assert_eq!(window[1].writer, writer);
            assert_eq!(window[1].writer_seq, window[0].writer_seq + 1);
        }
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let recorder = FlightRecorder::with_capacity(0);
        assert_eq!(recorder.capacity(), 0);
        assert_eq!(
            recorder.record(Effect::Deny, || unreachable!("no record is built")),
            0
        );
        assert_eq!(recorder.record(Effect::Permit, || unreachable!()), 1);
        assert_eq!(recorder.total_recorded(), 2);
        assert_eq!((recorder.permit_count(), recorder.deny_count()), (1, 1));
        assert_eq!(recorder.dropped(), 2);
        assert!(recorder.snapshot().is_empty());
        assert!(recorder.is_empty());
    }

    #[test]
    fn totals_survive_eviction() {
        let recorder = FlightRecorder::with_capacity(2);
        push(&recorder, sample(0));
        push(&recorder, deny(1));
        push(&recorder, sample(2));
        push(&recorder, deny(3));
        push(&recorder, deny(4));
        assert_eq!(recorder.total_recorded(), 5);
        assert_eq!((recorder.permit_count(), recorder.deny_count()), (2, 3));
        assert_eq!((recorder.len(), recorder.dropped()), (2, 3));
    }

    #[test]
    fn serde_round_trip_past_eviction_keeps_rows_totals_and_numbering() {
        let recorder = FlightRecorder::with_capacity(2);
        push(&recorder, sample(0));
        push(&recorder, deny(1));
        push(&recorder, sample(2));
        assert_eq!(recorder.dropped(), 1);

        let json = serde_json::to_string(&recorder).unwrap();
        let restored: FlightRecorder = serde_json::from_str(&json).unwrap();

        // Retained records survive verbatim…
        assert_eq!(restored.capacity(), 2);
        assert_eq!(restored.snapshot(), recorder.snapshot());
        // …and so do the running totals the records alone cannot carry.
        assert_eq!(restored.total_recorded(), 3);
        assert_eq!((restored.permit_count(), restored.deny_count()), (2, 1));
        assert_eq!((restored.len(), restored.dropped()), (2, 1));
        // Sequence numbering continues where the original left off.
        assert_eq!(push(&restored, deny(3)), 3);
        let seqs: Vec<u64> = restored.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(restored.dropped(), 2);
    }

    #[test]
    fn serde_round_trip_at_zero_capacity_keeps_counting() {
        let recorder = FlightRecorder::with_capacity(0);
        recorder.record(Effect::Permit, || unreachable!());
        let json = serde_json::to_string(&recorder).unwrap();
        let restored: FlightRecorder = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.capacity(), 0);
        assert_eq!((restored.total_recorded(), restored.dropped()), (1, 1));
        assert_eq!(restored.record(Effect::Deny, || unreachable!()), 1);
        assert_eq!((restored.permit_count(), restored.deny_count()), (1, 1));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::with_capacity(5).capacity(), 8);
        assert_eq!(FlightRecorder::with_capacity(4096).capacity(), 4096);
    }

    #[test]
    fn latest_returns_the_tail() {
        let recorder = FlightRecorder::with_capacity(8);
        for n in 0..6 {
            push(&recorder, sample(n));
        }
        let tail: Vec<u64> = recorder.latest(2).iter().map(|r| r.seq).collect();
        assert_eq!(tail, vec![4, 5]);
    }

    #[test]
    fn find_resolves_retained_decision_ids_only() {
        let recorder = FlightRecorder::with_capacity(4);
        for n in 0..6 {
            push(&recorder, sample(n));
        }
        // n = 5 is retained; n = 0 was evicted by drop-oldest.
        let hit = recorder
            .find(DecisionId::from_parts(9, 6))
            .expect("retained");
        assert_eq!(hit.object, ObjectId::from_raw(5));
        assert!(recorder.find(DecisionId::from_parts(9, 1)).is_none());
        assert!(recorder.find(DecisionId::UNASSIGNED).is_none());
    }

    #[test]
    fn fingerprint_depends_only_on_the_active_set() {
        let a = EnvironmentSnapshot::from_active([RoleId::from_raw(1), RoleId::from_raw(2)]);
        let b = EnvironmentSnapshot::from_active([RoleId::from_raw(2), RoleId::from_raw(1)]);
        let c = EnvironmentSnapshot::from_active([RoleId::from_raw(3)]);
        assert_eq!(env_fingerprint(&a), env_fingerprint(&b));
        assert_ne!(env_fingerprint(&a), env_fingerprint(&c));
        assert_ne!(
            env_fingerprint(&a),
            env_fingerprint(&EnvironmentSnapshot::new())
        );
    }
}
