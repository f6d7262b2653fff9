//! The audit view: who was granted what, and when.
//!
//! Security-sensitive homes need an account of who was granted what and
//! when (§3's "data theft" concern cuts both ways — the household also
//! wants to review access). The engine keeps one decision log, the
//! [flight recorder](crate::provenance::FlightRecorder); [`AuditView`]
//! reads it as [`AuditRecord`] rows with exact permit/deny totals that
//! survive eviction, so a chatty sensor network cannot exhaust memory
//! and the household still sees every count.
//!
//! Review tooling filters the rows with [`AuditFilter`] (shared with the
//! richer [`provenance`](crate::provenance) forensics engine) and
//! exports them as JSON lines via [`AuditView::write_jsonl`].

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use crate::degraded::DegradedReason;
use crate::id::{DecisionId, ObjectId, RuleId, SubjectId, TransactionId};
use crate::provenance::{FlightRecorder, ProvenanceRecord};
use crate::rule::Effect;

/// One mediated request: the audit columns of a [`ProvenanceRecord`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditRecord {
    /// Monotonic sequence number (never reused, survives eviction).
    pub seq: u64,
    /// The correlation id minted for the decision
    /// ([`DecisionId::UNASSIGNED`] only for rows loaded from logs older
    /// than the id scheme).
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

impl From<&ProvenanceRecord> for AuditRecord {
    fn from(record: &ProvenanceRecord) -> Self {
        Self {
            seq: record.seq,
            decision_id: record.decision_id,
            subject: record.subject,
            transaction: record.transaction,
            object: record.object,
            effect: record.effect,
            winning_rule: record.winning_rule,
            timestamp: record.timestamp,
            degraded: record.degraded,
        }
    }
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
/// The same filter drives [`AuditView::iter_filtered`] and the forensic
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
    /// a by-parts check so both row types (audit rows, provenance
    /// records) share one matching semantics.
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

/// A read-only view of the engine's decision log (the
/// [`FlightRecorder`]) as [`AuditRecord`] rows.
///
/// Totals are exact and survive eviction; rows are the records the
/// recorder still retains, oldest first. Every accessor reads the live
/// recorder, so two calls may see different rows while decisions run.
#[derive(Debug, Clone, Copy)]
pub struct AuditView<'a> {
    recorder: &'a FlightRecorder,
}

impl<'a> AuditView<'a> {
    /// A view of `recorder`.
    #[must_use]
    pub(crate) fn new(recorder: &'a FlightRecorder) -> Self {
        Self { recorder }
    }

    /// The retained row carrying `decision_id`, if any — the audit leg
    /// of a `/decision/<id>` correlation lookup.
    #[must_use]
    pub fn find_by_decision_id(&self, decision_id: DecisionId) -> Option<AuditRecord> {
        self.recorder
            .find(decision_id)
            .map(|record| AuditRecord::from(&record))
    }

    /// Rows currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = AuditRecord> {
        self.recorder
            .snapshot()
            .into_iter()
            .map(|record| AuditRecord::from(&record))
    }

    /// Retained rows passing `filter`, oldest first.
    pub fn iter_filtered<'f>(
        &self,
        filter: &'f AuditFilter,
    ) -> impl Iterator<Item = AuditRecord> + 'f {
        self.iter().filter(|record| filter.matches(record))
    }

    /// Writes the retained rows passing `filter` to `out` as JSON
    /// lines (one object per row, oldest first). Returns the number
    /// of rows written.
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
            out.write_all(jsonl_line(&record).as_bytes())?;
            out.write_all(b"\n")?;
            written += 1;
        }
        Ok(written)
    }

    /// Number of retained rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recorder.len()
    }

    /// True if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.recorder.is_empty()
    }

    /// Total decisions ever recorded (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.recorder.total_recorded()
    }

    /// Total permits ever recorded.
    #[must_use]
    pub fn permit_count(&self) -> u64 {
        self.recorder.permit_count()
    }

    /// Total denies ever recorded.
    #[must_use]
    pub fn deny_count(&self) -> u64 {
        self.recorder.deny_count()
    }

    /// Rows dropped from retention: evicted by newer ones, or never
    /// retained under a zero capacity. With no decision in flight,
    /// `len() + evicted_count() == total_recorded()`.
    #[must_use]
    pub fn evicted_count(&self) -> u64 {
        self.recorder.dropped()
    }

    /// The most recent row, if any is retained.
    #[must_use]
    pub fn last(&self) -> Option<AuditRecord> {
        self.recorder.latest(1).first().map(AuditRecord::from)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded::EnvHealth;
    use crate::engine::Actor;

    fn t(n: u64) -> TransactionId {
        TransactionId::from_raw(n)
    }
    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    /// Records one decision with the audit columns given and the rest
    /// of the provenance left empty.
    #[allow(clippy::too_many_arguments)]
    fn record(
        recorder: &FlightRecorder,
        decision_id: DecisionId,
        subject: Option<SubjectId>,
        transaction: TransactionId,
        object: ObjectId,
        effect: Effect,
        winning_rule: Option<RuleId>,
        timestamp: Option<u64>,
        degraded: Option<DegradedReason>,
    ) -> u64 {
        recorder.record(effect, || ProvenanceRecord {
            seq: 0,
            writer: 0,
            writer_seq: 0,
            decision_id,
            actor: Actor::Subject(subject.unwrap_or(SubjectId::from_raw(0))),
            subject,
            transaction,
            object,
            timestamp,
            env_roles: Vec::new(),
            env_hash: 0,
            env_health: EnvHealth::Fresh,
            generation: 0,
            effect,
            winning_rule,
            matched_rules: Vec::new(),
            subject_role_count: 0,
            degraded,
            stage_nanos: None,
            total_nanos: None,
        })
    }

    fn plain(recorder: &FlightRecorder, object: u64, effect: Effect) -> u64 {
        record(
            recorder,
            DecisionId::UNASSIGNED,
            None,
            t(0),
            o(object),
            effect,
            None,
            None,
            None,
        )
    }

    #[test]
    fn rows_mirror_the_recorder_and_counters() {
        let recorder = FlightRecorder::new();
        plain(&recorder, 0, Effect::Permit);
        let id = DecisionId::from_parts(7, 3);
        record(
            &recorder,
            id,
            Some(SubjectId::from_raw(1)),
            t(0),
            o(1),
            Effect::Deny,
            Some(RuleId::from_raw(2)),
            Some(7),
            Some(DegradedReason::EnvUnavailable),
        );
        let audit = AuditView::new(&recorder);
        assert_eq!(audit.len(), 2);
        assert_eq!(audit.permit_count(), 1);
        assert_eq!(audit.deny_count(), 1);
        assert_eq!(audit.total_recorded(), 2);
        let last = audit.last().unwrap();
        assert_eq!(last.seq, 1);
        assert_eq!(last.decision_id, id);
        assert_eq!(last.subject, Some(SubjectId::from_raw(1)));
        assert_eq!(last.winning_rule, Some(RuleId::from_raw(2)));
        assert_eq!(last.timestamp, Some(7));
        assert_eq!(last.degraded, Some(DegradedReason::EnvUnavailable));
        assert_eq!(audit.find_by_decision_id(id).unwrap().seq, 1);
        assert!(audit
            .find_by_decision_id(DecisionId::from_parts(7, 4))
            .is_none());
        assert!(audit.find_by_decision_id(DecisionId::UNASSIGNED).is_none());
    }

    #[test]
    fn eviction_keeps_totals_and_numbering() {
        let recorder = FlightRecorder::with_capacity(2);
        plain(&recorder, 0, Effect::Permit);
        plain(&recorder, 1, Effect::Permit);
        assert_eq!(plain(&recorder, 2, Effect::Deny), 2);
        let audit = AuditView::new(&recorder);
        let rows: Vec<(u64, ObjectId)> = audit.iter().map(|r| (r.seq, r.object)).collect();
        assert_eq!(rows, vec![(1, o(1)), (2, o(2))]);
        assert_eq!(audit.total_recorded(), 3);
        assert_eq!(audit.permit_count(), 2);
        assert_eq!(audit.deny_count(), 1);
        assert_eq!(audit.evicted_count(), 1);
        assert_eq!(
            audit.len() as u64 + audit.evicted_count(),
            audit.total_recorded()
        );
    }

    #[test]
    fn filter_matches_conjunctively() {
        let recorder = FlightRecorder::new();
        let alice = SubjectId::from_raw(1);
        let id = DecisionId::UNASSIGNED;
        record(
            &recorder,
            id,
            Some(alice),
            t(0),
            o(0),
            Effect::Permit,
            None,
            Some(10),
            None,
        );
        record(
            &recorder,
            id,
            Some(alice),
            t(0),
            o(1),
            Effect::Deny,
            None,
            Some(20),
            None,
        );
        record(
            &recorder,
            id,
            None,
            t(1),
            o(0),
            Effect::Deny,
            None,
            None,
            None,
        );
        record(
            &recorder,
            id,
            Some(alice),
            t(1),
            o(0),
            Effect::Deny,
            None,
            Some(30),
            Some(DegradedReason::EnvUnavailable),
        );
        let audit = AuditView::new(&recorder);

        assert_eq!(audit.iter_filtered(&AuditFilter::any()).count(), 4);

        let mine = AuditFilter {
            subject: Some(alice),
            ..AuditFilter::any()
        };
        assert_eq!(audit.iter_filtered(&mine).count(), 3);

        let denied_late = AuditFilter {
            effect: Some(Effect::Deny),
            since: Some(20),
            ..AuditFilter::any()
        };
        // The untimed deny never matches a time bound.
        assert_eq!(audit.iter_filtered(&denied_late).count(), 2);

        let degraded = AuditFilter {
            degraded_kind: Some("env_unavailable".into()),
            ..AuditFilter::any()
        };
        let hits: Vec<u64> = audit.iter_filtered(&degraded).map(|r| r.seq).collect();
        assert_eq!(hits, vec![3]);

        let wrong_kind = AuditFilter {
            degraded_kind: Some("stale_decayed".into()),
            ..AuditFilter::any()
        };
        assert_eq!(audit.iter_filtered(&wrong_kind).count(), 0);

        let window = AuditFilter {
            since: Some(10),
            until: Some(20),
            ..AuditFilter::any()
        };
        assert_eq!(audit.iter_filtered(&window).count(), 2);
    }

    /// The export format, pinned byte for byte: one object per row,
    /// unassigned ids and absent fields omitted, degraded reasons
    /// inlined with their kind.
    #[test]
    fn jsonl_export_is_pinned() {
        let recorder = FlightRecorder::new();
        let id = DecisionId::from_parts(7, 3);
        record(
            &recorder,
            id,
            Some(SubjectId::from_raw(5)),
            t(2),
            o(3),
            Effect::Permit,
            Some(RuleId::from_raw(7)),
            Some(42),
            None,
        );
        record(
            &recorder,
            DecisionId::UNASSIGNED,
            None,
            t(2),
            o(3),
            Effect::Deny,
            None,
            None,
            Some(DegradedReason::StaleRolesDropped { age: 9, dropped: 1 }),
        );
        let audit = AuditView::new(&recorder);
        let mut buffer = Vec::new();
        let written = audit.write_jsonl(&mut buffer, &AuditFilter::any()).unwrap();
        assert_eq!(written, 2);
        let expected = format!(
            "{{\"seq\":0,\"decision_id\":\"{id}\",\"subject\":5,\"transaction\":2,\"object\":3,\
             \"effect\":\"permit\",\"winning_rule\":7,\"timestamp\":42}}\n\
             {{\"seq\":1,\"transaction\":2,\"object\":3,\"effect\":\"deny\",\
             \"degraded\":{{\"kind\":\"stale_roles_dropped\",\"age\":9,\"dropped\":1}}}}\n"
        );
        assert_eq!(String::from_utf8(buffer).unwrap(), expected);
        for line in expected.lines() {
            serde_json::from_str::<serde_json::Value>(line).expect("each line is JSON");
        }

        // Filters apply to the export too.
        let mut buffer = Vec::new();
        let filter = AuditFilter {
            degraded_only: true,
            ..AuditFilter::any()
        };
        assert_eq!(audit.write_jsonl(&mut buffer, &filter).unwrap(), 1);
    }
}
