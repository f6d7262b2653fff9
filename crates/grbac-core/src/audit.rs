//! Audit log: a bounded record of mediation outcomes.
//!
//! Security-sensitive homes need an account of who was granted what and
//! when (§3's "data theft" concern cuts both ways — the household also
//! wants to review access). The log keeps its records in a bounded
//! [`Ring`] so a chatty sensor network cannot exhaust memory.
//!
//! Review tooling filters the log with [`AuditFilter`] (shared with the
//! richer [`provenance`](crate::provenance) forensics engine) and
//! exports it as JSON lines via [`AuditLog::write_jsonl`].

use std::io::{self, Write};

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use crate::degraded::DegradedReason;
use crate::id::{DecisionId, ObjectId, RuleId, SubjectId, TransactionId};
use crate::ring::Ring;
use crate::rule::Effect;

/// One mediated request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// The correlation id minted for the decision
    /// ([`DecisionId::UNASSIGNED`] for rows recorded outside the
    /// minting path or loaded from logs older than the id scheme).
    #[serde(default)]
    pub decision_id: DecisionId,
    /// The requesting subject, when identified.
    pub subject: Option<SubjectId>,
    /// The requested transaction.
    pub transaction: TransactionId,
    /// The target object.
    pub object: ObjectId,
    /// The outcome.
    pub effect: Effect,
    /// The rule that carried the decision, if any.
    pub winning_rule: Option<RuleId>,
    /// Caller-supplied timestamp (virtual seconds in the simulations);
    /// `None` for untimed requests.
    pub timestamp: Option<u64>,
    /// Why the decision ran degraded — which staleness posture applied
    /// and why environment roles were absent (or present despite a
    /// failed provider). `None` for fully-fresh decisions, and
    /// (via `#[serde(default)]`) for records serialized before the
    /// field existed.
    #[serde(default)]
    pub degraded: Option<DegradedReason>,
}

/// Equality ignores [`AuditRecord::decision_id`]: the correlation id is
/// per-engine metadata (its epoch differs across engine lifetimes), so
/// two engines mediating the same requests still produce equal records.
/// The differential suites rely on this when comparing sequential
/// against batched audit trails.
impl PartialEq for AuditRecord {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.subject == other.subject
            && self.transaction == other.transaction
            && self.object == other.object
            && self.effect == other.effect
            && self.winning_rule == other.winning_rule
            && self.timestamp == other.timestamp
            && self.degraded == other.degraded
    }
}

/// A conjunctive filter over audit (and provenance) records: every set
/// field must match for a record to pass. The default filter matches
/// everything.
///
/// The same filter drives [`AuditLog::iter_filtered`] and the forensic
/// queries in [`provenance`](crate::provenance), so "the 3am denies for
/// bobby" means the same thing against either store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditFilter {
    /// Match only this requesting subject (records with no identified
    /// subject never match a subject filter).
    pub subject: Option<SubjectId>,
    /// Match only this target object.
    pub object: Option<ObjectId>,
    /// Match only this transaction.
    pub transaction: Option<TransactionId>,
    /// Match only this outcome.
    pub effect: Option<Effect>,
    /// Match only degraded decisions.
    pub degraded_only: bool,
    /// Match only degraded decisions of this kind (see
    /// [`DegradedReason::kind`]); implies `degraded_only`.
    pub degraded_kind: Option<String>,
    /// Match only records stamped at or after this virtual second
    /// (unstamped records never match a time bound).
    pub since: Option<u64>,
    /// Match only records stamped at or before this virtual second.
    pub until: Option<u64>,
}

impl AuditFilter {
    /// A filter matching every record.
    #[must_use]
    pub fn any() -> Self {
        Self::default()
    }

    /// Whether a record with these fields passes the filter. Exposed as
    /// a by-parts check so stores with different record types (the
    /// audit log, the provenance flight recorder) share one matching
    /// semantics.
    #[must_use]
    pub fn matches_parts(
        &self,
        subject: Option<SubjectId>,
        transaction: TransactionId,
        object: ObjectId,
        effect: Effect,
        timestamp: Option<u64>,
        degraded: Option<&DegradedReason>,
    ) -> bool {
        if let Some(want) = self.subject {
            if subject != Some(want) {
                return false;
            }
        }
        if let Some(want) = self.object {
            if object != want {
                return false;
            }
        }
        if let Some(want) = self.transaction {
            if transaction != want {
                return false;
            }
        }
        if let Some(want) = self.effect {
            if effect != want {
                return false;
            }
        }
        if (self.degraded_only || self.degraded_kind.is_some()) && degraded.is_none() {
            return false;
        }
        if let (Some(want), Some(reason)) = (self.degraded_kind.as_deref(), degraded) {
            if reason.kind() != want {
                return false;
            }
        }
        if let Some(since) = self.since {
            if timestamp.is_none_or(|ts| ts < since) {
                return false;
            }
        }
        if let Some(until) = self.until {
            if timestamp.is_none_or(|ts| ts > until) {
                return false;
            }
        }
        true
    }

    /// Whether an audit record passes the filter.
    #[must_use]
    pub fn matches(&self, record: &AuditRecord) -> bool {
        self.matches_parts(
            record.subject,
            record.transaction,
            record.object,
            record.effect,
            record.timestamp,
            record.degraded.as_ref(),
        )
    }
}

/// Bounded, append-only log of [`AuditRecord`]s.
///
/// Serialized as `{"records", "capacity", "next_seq", "permits",
/// "denies", "evictions"}`; `evictions` (the ring's dropped count)
/// defaults to 0 when loading logs written before the counter existed.
#[derive(Debug, Clone)]
pub struct AuditLog {
    records: Ring<AuditRecord>,
    next_seq: u64,
    permits: u64,
    denies: u64,
}

impl AuditLog {
    /// Default retention when none is specified.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a log retaining at most `capacity` records (the counters
    /// keep counting after eviction). A zero capacity disables retention
    /// but still counts.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Ring::new(capacity),
            next_seq: 0,
            permits: 0,
            denies: 0,
        }
    }

    /// Creates a log with [`Self::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Appends a record, evicting the oldest when at capacity. Returns
    /// the assigned sequence number. The row carries no correlation id
    /// ([`DecisionId::UNASSIGNED`]); the engine's mediation paths use
    /// [`record_with_id`](Self::record_with_id).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        subject: Option<SubjectId>,
        transaction: TransactionId,
        object: ObjectId,
        effect: Effect,
        winning_rule: Option<RuleId>,
        timestamp: Option<u64>,
        degraded: Option<DegradedReason>,
    ) -> u64 {
        self.record_with_id(
            DecisionId::UNASSIGNED,
            subject,
            transaction,
            object,
            effect,
            winning_rule,
            timestamp,
            degraded,
        )
    }

    /// [`record`](Self::record), stamping the row with the decision's
    /// correlation id so audit review joins against traces, recorder
    /// entries and exemplars.
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &mut self,
        decision_id: DecisionId,
        subject: Option<SubjectId>,
        transaction: TransactionId,
        object: ObjectId,
        effect: Effect,
        winning_rule: Option<RuleId>,
        timestamp: Option<u64>,
        degraded: Option<DegradedReason>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        match effect {
            Effect::Permit => self.permits += 1,
            Effect::Deny => self.denies += 1,
        }
        // A zero capacity counts but never retains, so nothing is
        // ever dropped either.
        if self.records.capacity() > 0 {
            self.records.push(AuditRecord {
                seq,
                decision_id,
                subject,
                transaction,
                object,
                effect,
                winning_rule,
                timestamp,
                degraded,
            });
        }
        seq
    }

    /// The retained row carrying `decision_id`, if any — the audit leg
    /// of a `/decision/<id>` correlation lookup.
    #[must_use]
    pub fn find_by_decision_id(&self, decision_id: DecisionId) -> Option<&AuditRecord> {
        if !decision_id.is_assigned() {
            return None;
        }
        self.records
            .iter()
            .find(|record| record.decision_id == decision_id)
    }

    /// Records currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records.iter()
    }

    /// Retained records passing `filter`, oldest first.
    pub fn iter_filtered<'a>(
        &'a self,
        filter: &'a AuditFilter,
    ) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.records.iter().filter(|record| filter.matches(record))
    }

    /// Writes the retained records passing `filter` to `out` as JSON
    /// lines (one object per record, oldest first). Returns the number
    /// of records written.
    ///
    /// The encoding is hand-rolled — every field is numeric, an enum
    /// tag, or absent, so no escaping is needed and the core crate
    /// stays dependency-free.
    ///
    /// # Errors
    ///
    /// Propagates any write error from `out`.
    pub fn write_jsonl<W: Write>(&self, out: &mut W, filter: &AuditFilter) -> io::Result<u64> {
        let mut written = 0;
        for record in self.iter_filtered(filter) {
            out.write_all(jsonl_line(record).as_bytes())?;
            out.write_all(b"\n")?;
            written += 1;
        }
        Ok(written)
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total requests ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Total permits ever recorded.
    #[must_use]
    pub fn permit_count(&self) -> u64 {
        self.permits
    }

    /// Total denies ever recorded.
    #[must_use]
    pub fn deny_count(&self) -> u64 {
        self.denies
    }

    /// Records dropped from retention, whether by the ring buffer or by
    /// [`clear`](Self::clear) (excludes records that were never
    /// retained under a zero capacity). For a non-zero capacity,
    /// `len() + evicted_count() == total_recorded()` always holds.
    #[must_use]
    pub fn evicted_count(&self) -> u64 {
        self.records.dropped()
    }

    /// The most recent record, if any is retained.
    #[must_use]
    pub fn last(&self) -> Option<&AuditRecord> {
        self.records.iter().next_back()
    }

    /// Clears retained records. Counters keep their totals, and the
    /// dropped records are added to [`evicted_count`](Self::evicted_count)
    /// so retention accounting stays consistent.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl Serialize for AuditLog {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "records".to_owned(),
                Value::Seq(self.records.iter().map(Serialize::to_value).collect()),
            ),
            ("capacity".to_owned(), self.records.capacity().to_value()),
            ("next_seq".to_owned(), self.next_seq.to_value()),
            ("permits".to_owned(), self.permits.to_value()),
            ("denies".to_owned(), self.denies.to_value()),
            ("evictions".to_owned(), self.records.dropped().to_value()),
        ])
    }
}

impl Deserialize for AuditLog {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| SerdeError::custom(format!("missing field `{name}`")))
        };
        let evictions = match value.get("evictions") {
            Some(evictions) => u64::from_value(evictions)?,
            None => 0,
        };
        Ok(Self {
            records: Ring::restore(
                usize::from_value(field("capacity")?)?,
                evictions,
                Vec::<AuditRecord>::from_value(field("records")?)?,
            ),
            next_seq: u64::from_value(field("next_seq")?)?,
            permits: u64::from_value(field("permits")?)?,
            denies: u64::from_value(field("denies")?)?,
        })
    }
}

/// One audit record as a single JSON object (no trailing newline).
fn jsonl_line(record: &AuditRecord) -> String {
    let mut line = String::with_capacity(160);
    line.push_str(&format!("{{\"seq\":{}", record.seq));
    if record.decision_id.is_assigned() {
        line.push_str(&format!(",\"decision_id\":\"{}\"", record.decision_id));
    }
    if let Some(subject) = record.subject {
        line.push_str(&format!(",\"subject\":{}", subject.as_raw()));
    }
    line.push_str(&format!(
        ",\"transaction\":{},\"object\":{},\"effect\":\"{}\"",
        record.transaction.as_raw(),
        record.object.as_raw(),
        match record.effect {
            Effect::Permit => "permit",
            Effect::Deny => "deny",
        }
    ));
    if let Some(rule) = record.winning_rule {
        line.push_str(&format!(",\"winning_rule\":{}", rule.as_raw()));
    }
    if let Some(ts) = record.timestamp {
        line.push_str(&format!(",\"timestamp\":{ts}"));
    }
    if let Some(reason) = &record.degraded {
        line.push_str(&format!(",\"degraded\":{{\"kind\":\"{}\"", reason.kind()));
        match reason {
            DegradedReason::StaleRolesDropped { age, dropped } => {
                line.push_str(&format!(",\"age\":{age},\"dropped\":{dropped}"));
            }
            DegradedReason::StaleDecayed { age, decay } => {
                line.push_str(&format!(",\"age\":{age},\"decay\":{}", decay.value()));
            }
            DegradedReason::LastKnownGood { age } => {
                line.push_str(&format!(",\"age\":{age}"));
            }
            DegradedReason::EnvUnavailable => {}
        }
        line.push('}');
    }
    line.push('}');
    line
}

impl Default for AuditLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TransactionId {
        TransactionId::from_raw(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn records_and_counters() {
        let mut log = AuditLog::new();
        let s0 = log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        let s1 = log.record(
            None,
            t(0),
            o(1),
            Effect::Deny,
            Some(RuleId::from_raw(2)),
            Some(7),
            None,
        );
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.permit_count(), 1);
        assert_eq!(log.deny_count(), 1);
        assert_eq!(log.total_recorded(), 2);
        let last = log.last().unwrap();
        assert_eq!(last.winning_rule, Some(RuleId::from_raw(2)));
        assert_eq!(last.timestamp, Some(7));
    }

    #[test]
    fn decision_ids_are_retained_queryable_and_exported() {
        let mut log = AuditLog::new();
        let id = DecisionId::from_parts(7, 3);
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        log.record_with_id(
            id,
            Some(SubjectId::from_raw(1)),
            t(0),
            o(1),
            Effect::Deny,
            None,
            Some(9),
            None,
        );
        assert_eq!(log.last().unwrap().decision_id, id);
        assert_eq!(log.find_by_decision_id(id).unwrap().seq, 1);
        assert!(log
            .find_by_decision_id(DecisionId::from_parts(7, 4))
            .is_none());
        assert!(log.find_by_decision_id(DecisionId::UNASSIGNED).is_none());

        let mut buffer = Vec::new();
        log.write_jsonl(&mut buffer, &AuditFilter::any()).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[0].contains("decision_id"), "unassigned id omitted");
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            second.get("decision_id").and_then(|v| v.as_str()),
            Some(id.to_string().as_str())
        );

        // Rows serialized before the field existed load as unassigned.
        let json = serde_json::to_string(&log).unwrap();
        let restored: AuditLog = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.last().unwrap().decision_id, id);
    }

    #[test]
    fn degraded_reason_is_retained_and_survives_serde() {
        let mut log = AuditLog::new();
        log.record(
            None,
            t(0),
            o(0),
            Effect::Deny,
            None,
            Some(12),
            Some(DegradedReason::StaleRolesDropped {
                age: 90,
                dropped: 2,
            }),
        );
        assert_eq!(
            log.last().unwrap().degraded,
            Some(DegradedReason::StaleRolesDropped {
                age: 90,
                dropped: 2
            })
        );

        let json = serde_json::to_string(&log).unwrap();
        let restored: AuditLog = serde_json::from_str(&json).unwrap();
        assert_eq!(
            restored.last().unwrap().degraded,
            log.last().unwrap().degraded
        );

        // Records serialized before the field existed load as `None`.
        let mut fresh = AuditLog::new();
        fresh.record(None, t(0), o(0), Effect::Permit, None, None, None);
        let legacy = serde_json::to_string(&fresh)
            .unwrap()
            .replace(",\"degraded\":null", "");
        assert!(!legacy.contains("degraded"));
        let restored: AuditLog = serde_json::from_str(&legacy).unwrap();
        assert_eq!(restored.last().unwrap().degraded, None);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = AuditLog::with_capacity(2);
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        log.record(None, t(0), o(1), Effect::Permit, None, None, None);
        log.record(None, t(0), o(2), Effect::Deny, None, None, None);
        assert_eq!(log.len(), 2);
        let objects: Vec<ObjectId> = log.iter().map(|r| r.object).collect();
        assert_eq!(objects, vec![o(1), o(2)]);
        // counters include evicted entries
        assert_eq!(log.total_recorded(), 3);
        assert_eq!(log.permit_count(), 2);
        assert_eq!(log.evicted_count(), 1);
    }

    #[test]
    fn serde_round_trip_preserves_totals_past_eviction() {
        let mut log = AuditLog::with_capacity(2);
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        log.record(None, t(0), o(1), Effect::Deny, None, Some(3), None);
        log.record(
            None,
            t(1),
            o(2),
            Effect::Permit,
            Some(RuleId::from_raw(1)),
            Some(4),
            None,
        );
        assert_eq!(log.evicted_count(), 1);

        let json = serde_json::to_string(&log).unwrap();
        let restored: AuditLog = serde_json::from_str(&json).unwrap();

        // Retained records survive verbatim…
        assert_eq!(restored.len(), 2);
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            log.iter().collect::<Vec<_>>()
        );
        // …and so do the running totals the records alone cannot carry.
        assert_eq!(restored.total_recorded(), 3);
        assert_eq!(restored.permit_count(), 2);
        assert_eq!(restored.deny_count(), 1);
        assert_eq!(restored.evicted_count(), 1);
        // Sequence numbering continues where the original left off.
        let mut restored = restored;
        assert_eq!(
            restored.record(None, t(0), o(0), Effect::Deny, None, None, None),
            3
        );
    }

    /// The on-disk format, pinned: a capacity-2 log that recorded three
    /// rows and evicted one, exactly as the log serialized it before its
    /// records moved onto a [`Ring`]. Loading it must restore the rows,
    /// the totals the rows cannot carry, and the sequence to continue
    /// from; writing it back must reproduce the same bytes.
    #[test]
    fn loads_the_pinned_wrapped_format() {
        const WRAPPED: &str = concat!(
            r#"{"records":[{"seq":1,"decision_id":{"epoch":0,"seq":0},"subject":null,"#,
            r#""transaction":0,"object":1,"effect":"Deny","winning_rule":null,"timestamp":3,"#,
            r#""degraded":null},{"seq":2,"decision_id":{"epoch":0,"seq":0},"subject":null,"#,
            r#""transaction":1,"object":2,"effect":"Permit","winning_rule":1,"timestamp":4,"#,
            r#""degraded":null}],"capacity":2,"next_seq":3,"permits":2,"denies":1,"evictions":1}"#,
        );
        let mut log: AuditLog = serde_json::from_str(WRAPPED).unwrap();
        let rows: Vec<_> = log
            .iter()
            .map(|r| (r.seq, r.object, r.effect, r.winning_rule, r.timestamp))
            .collect();
        assert_eq!(
            rows,
            vec![
                (1, o(1), Effect::Deny, None, Some(3)),
                (2, o(2), Effect::Permit, Some(RuleId::from_raw(1)), Some(4)),
            ]
        );
        assert_eq!(log.total_recorded(), 3);
        assert_eq!(log.permit_count(), 2);
        assert_eq!(log.deny_count(), 1);
        assert_eq!(log.evicted_count(), 1);
        assert_eq!(serde_json::to_string(&log).unwrap(), WRAPPED);
        assert_eq!(
            log.record(None, t(0), o(0), Effect::Deny, None, None, None),
            3
        );
        assert_eq!(log.evicted_count(), 2);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut log = AuditLog::with_capacity(0);
        log.record(None, t(0), o(0), Effect::Deny, None, None, None);
        assert!(log.is_empty());
        assert_eq!(log.deny_count(), 1);
        assert_eq!(log.total_recorded(), 1);
    }

    #[test]
    fn clear_keeps_totals() {
        let mut log = AuditLog::new();
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.total_recorded(), 1);
    }

    #[test]
    fn clear_counts_as_eviction() {
        let mut log = AuditLog::with_capacity(4);
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        log.record(None, t(0), o(1), Effect::Deny, None, None, None);
        log.clear();
        assert_eq!(log.evicted_count(), 2);
        log.record(None, t(0), o(2), Effect::Permit, None, None, None);
        // retained + evicted always accounts for every record.
        assert_eq!(log.len() as u64 + log.evicted_count(), log.total_recorded());
    }

    #[test]
    fn filter_matches_conjunctively() {
        let mut log = AuditLog::new();
        let alice = SubjectId::from_raw(1);
        log.record(
            Some(alice),
            t(0),
            o(0),
            Effect::Permit,
            None,
            Some(10),
            None,
        );
        log.record(Some(alice), t(0), o(1), Effect::Deny, None, Some(20), None);
        log.record(None, t(1), o(0), Effect::Deny, None, None, None);
        log.record(
            Some(alice),
            t(1),
            o(0),
            Effect::Deny,
            None,
            Some(30),
            Some(DegradedReason::EnvUnavailable),
        );

        assert_eq!(log.iter_filtered(&AuditFilter::any()).count(), 4);

        let mine = AuditFilter {
            subject: Some(alice),
            ..AuditFilter::any()
        };
        assert_eq!(log.iter_filtered(&mine).count(), 3);

        let denied_late = AuditFilter {
            effect: Some(Effect::Deny),
            since: Some(20),
            ..AuditFilter::any()
        };
        // The untimed deny never matches a time bound.
        assert_eq!(log.iter_filtered(&denied_late).count(), 2);

        let degraded = AuditFilter {
            degraded_kind: Some("env_unavailable".into()),
            ..AuditFilter::any()
        };
        let hits: Vec<u64> = log.iter_filtered(&degraded).map(|r| r.seq).collect();
        assert_eq!(hits, vec![3]);

        let wrong_kind = AuditFilter {
            degraded_kind: Some("stale_decayed".into()),
            ..AuditFilter::any()
        };
        assert_eq!(log.iter_filtered(&wrong_kind).count(), 0);

        let window = AuditFilter {
            since: Some(10),
            until: Some(20),
            ..AuditFilter::any()
        };
        assert_eq!(log.iter_filtered(&window).count(), 2);
    }

    #[test]
    fn jsonl_export_is_valid_json_lines() {
        let mut log = AuditLog::new();
        log.record(
            Some(SubjectId::from_raw(5)),
            t(2),
            o(3),
            Effect::Permit,
            Some(RuleId::from_raw(7)),
            Some(42),
            None,
        );
        log.record(
            None,
            t(2),
            o(3),
            Effect::Deny,
            None,
            None,
            Some(DegradedReason::StaleRolesDropped { age: 9, dropped: 1 }),
        );
        let mut buffer = Vec::new();
        let written = log.write_jsonl(&mut buffer, &AuditFilter::any()).unwrap();
        assert_eq!(written, 2);
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Every line parses back as a JSON object with the raw ids.
        let uint = |v: &serde_json::Value, key: &str| match v.get(key) {
            Some(serde_json::Value::UInt(n)) => Some(*n),
            Some(serde_json::Value::Int(n)) => u64::try_from(*n).ok(),
            _ => None,
        };
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(uint(&first, "subject"), Some(5));
        assert_eq!(first.get("effect").and_then(|v| v.as_str()), Some("permit"));
        assert_eq!(uint(&first, "winning_rule"), Some(7));
        assert_eq!(uint(&first, "timestamp"), Some(42));
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        let degraded = second.get("degraded").unwrap();
        assert_eq!(
            degraded.get("kind").and_then(|v| v.as_str()),
            Some("stale_roles_dropped")
        );
        assert_eq!(uint(degraded, "dropped"), Some(1));
        assert!(second.get("subject").is_none());

        // Filters apply to the export too.
        let mut buffer = Vec::new();
        let filter = AuditFilter {
            degraded_only: true,
            ..AuditFilter::any()
        };
        assert_eq!(log.write_jsonl(&mut buffer, &filter).unwrap(), 1);
    }

    #[test]
    fn sequence_numbers_survive_eviction() {
        let mut log = AuditLog::with_capacity(1);
        log.record(None, t(0), o(0), Effect::Permit, None, None, None);
        let seq = log.record(None, t(0), o(1), Effect::Permit, None, None, None);
        assert_eq!(seq, 1);
        assert_eq!(log.last().unwrap().seq, 1);
    }
}
